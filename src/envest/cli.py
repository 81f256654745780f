"""Command line front end.

Four subcommands: ``fit`` (envelope estimators on CSV data), ``simulate``
(population and sample experiments), ``select-u`` (BIC or cross-validated
dimension choice) and ``bootstrap`` (residual bootstrap standard errors).
A CSV input is read without holding its text: np.loadtxt parses a file of
plain numbers a line at a time, and any other file is parsed row by row
into one flat buffer of doubles, so the memory a read takes is about that
of the matrix it returns.  Reports are JSON with top-level keys
version/config/records/summary, floats written with 17 significant digits
and a fixed key order, so identical flags and seed give byte-identical
output.  Wall-clock timings are left out of the JSON for that reason;
``simulate --csv-summary`` writes them to a separate CSV grid.  No
environment variable is read.  Both output files
are rewritten in place and cut to length, not truncated before the write:
on ext4, truncating a file that holds data flushes that data to disk,
which cost more than making a report.  A float64 array is written with
one format string for all its entries.

``run`` executes each command on one BLAS thread: it sets the thread count
of the OpenBLAS that numpy loaded to 1 and restores the caller's count on
return.  Threads change a report's bits at large d (at d = 100 OpenBLAS
splits the LU factorization behind ``solve`` over its threads, which rounds
differently), so one thread makes reports independent of the host's core
count.  They also cost CPU: from d of about 26 an ``eigh`` runs threaded,
and the idle worker spins beside the solver after it.  Library calls leave
threading to their caller.  Where numpy links another BLAS, the thread
count is left as it is.
"""

import argparse
import array
import codecs
import contextlib
import csv
import ctypes
import functools
import io
import json
import math
import os
import stat
import sys
import threading

import numpy as np

from . import estimators, simulate
from .errors import EnvestError, InvalidInput, IoError, ParseError

REPORT_VERSION = "1"


class _UsageError(Exception):
    """Bad flag combination or value; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# CSV input


# control bytes that np.loadtxt strips around a number and float() rejects;
# in UTF-8 no other character holds one of them
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_BOM = b"\xef\xbb\xbf"
_CHUNK = 1 << 16  # bytes read at a time by the checks on raw bytes


def _loadtxt_matrix(path):
    """The matrix of a CSV file whose every row is plain numbers.

    Raises ValueError or OSError on any other file; it accepts only files
    that read_matrix_csv's cell-by-cell parse accepts, with the same result.
    Neither the file's bytes nor its text is held whole: a first pass reads
    the bytes _CHUNK at a time, sending a file with no data or with a
    control byte in _LOADTXT_ONLY_SPACE to the cell-by-cell parse, and
    np.loadtxt then decodes and parses the open file a line at a time, so
    only the returned array grows with the file.  The file is opened here,
    not by np.loadtxt, whose opener decompresses by file name and fetches
    URLs.
    """
    data = False  # a byte other than a line break, after the byte-order mark
    with open(path, "rb") as fh:
        chunk = fh.read(_CHUNK).removeprefix(_BOM)
        while chunk:
            if any(c in chunk for c in _LOADTXT_ONLY_SPACE):
                raise ValueError("a control byte that np.loadtxt strips")
            data = data or bool(chunk.strip(b"\r\n"))
            chunk = fh.read(_CHUNK)
    if not data:
        raise ValueError("no data")
    with open(path, encoding="utf-8-sig") as fh:
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


def _utf8_error_offset(path):
    """The 0-based offset of the first byte of path that is not valid
    UTF-8; None when every byte is."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # of the chunk's first byte
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            held = len(decoder.getstate()[0])  # bytes of a character cut by the last chunk
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                return offset - held + exc.start
            if not chunk:
                return None
            offset += len(chunk)


def _append_row(values, path, line, row):
    """Append the cells of row to values as floats, or raise ParseError
    naming the first that is not a number and leave values as it was."""
    n = len(values)
    try:
        values.extend(map(float, row))
    except ValueError:
        del values[n:]
        for c, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {line}, column {c + 1}: {cell.strip()!r} is not numeric"
                ) from None


def _parse_cells(path, fh):
    """The cell-by-cell parse of an open CSV file (see read_matrix_csv).

    Each row goes into one flat buffer of doubles as csv.reader yields it,
    and the returned array is a view of that buffer."""
    values = array.array("d")
    width = None  # cells in the first non-blank row
    for line, row in enumerate(csv.reader(fh), 1):
        if not row:
            continue
        if width is None:
            width = len(row)
            try:
                _append_row(values, path, line, row)
            except ParseError:
                pass  # non-numeric first row: treat it as the header
            continue
        if len(row) != width:
            raise ParseError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        _append_row(values, path, line, row)
    if width is None:
        raise ParseError(f"{path}: no rows")
    if not values:
        raise ParseError(f"{path}: no data rows after the header")
    return np.frombuffer(values).reshape(-1, width)


def read_matrix_csv(path):
    """Read a numeric matrix from a CSV file, preserving row order.

    The file is UTF-8, with or without a byte-order mark; a byte that is not
    valid UTF-8 raises ParseError naming its offset.  A single header row is
    skipped when any cell of the first row fails to parse as a number.
    Ragged rows and non-numeric data cells raise ParseError naming the
    1-based row and column.  A file of plain numbers is read by np.loadtxt;
    any other goes through the cell-by-cell parse.  Neither holds the
    file's text: what grows with the file is the matrix itself, plus, in
    the cell-by-cell parse, the few percent of spare room of the buffer it
    grows in.
    """
    try:
        return _loadtxt_matrix(path)
    except (OSError, ValueError):
        pass  # header, quotes, underscores, a bad cell or no file: parse cell by cell
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parse_cells(path, fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        offset = _utf8_error_offset(path)  # the decoder's offset is into its own chunk
        raise ParseError(f"{path}: byte {offset} is not valid UTF-8") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# JSON output


# json.dumps(s, ensure_ascii=False) without building an encoder per call
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def _array_format(shape):
    """A %-format that writes an array of this shape as nested JSON lists,
    each of its row-major entries with 17 significant digits."""
    text = "%.17g"
    for n in reversed(shape):
        text = "[" + ",".join([text] * n) + "]"
    return text


def _json_text(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, np.ndarray):
        # the generic path's text in one pass; a non-finite entry needs null
        if value.dtype == np.float64 and np.isfinite(value).all():
            return _array_format(value.shape) % tuple(value.ravel().tolist())
        return _json_text(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key, v in value.items():
            parts.append(_json_string(str(key)) + ":" + _json_text(v))
        return "{" + ",".join(parts) + "}"
    raise InvalidInput(f"cannot serialize value of type {type(value).__name__}")


def _write_text(text, path):
    """Write text to path as UTF-8, in place; raise IoError when it cannot.

    An existing file is opened without truncation, overwritten from its
    start and cut to the new length after the write.  Truncating a file
    that holds data to zero length makes ext4 (``auto_da_alloc``) write
    that data out to disk when the file is closed, which took longer than
    making the report; an in-place rewrite leaves all of it to the page
    cache.  Neither way makes a report durable: a crash may leave old and
    new bytes mixed, as it could leave an empty file.  A path that is not
    a regular file, such as a pipe or a device, is only written.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            fh = open(fd, "wb")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_report_json(report, path=None):
    """Write a report dict as canonical JSON to path, or stdout when None.

    Key order follows dict insertion order, floats get 17 significant
    digits and non-finite floats become null; the text ends with a newline.
    An existing file at path is rewritten in place, not truncated first,
    because truncation to zero would make the file system flush the old
    report to disk (see ``_write_text``).
    """
    for key in ("version", "config", "records", "summary"):
        if key not in report:
            raise InvalidInput(f"report is missing the {key!r} key")
    text = _json_text(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(text, path)


def _write_csv_summary(summary, path):
    """Table-shaped per-algorithm grid, wall-clock columns included."""
    fields = (
        "mean_distance",
        "se_distance",
        "mean_time_seconds",
        "se_time_seconds",
        "replications_ok",
        "replications_failed",
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("algorithm",) + fields)
    for algo in sorted(summary):
        cell = summary[algo]
        row = [algo]
        for name in fields:
            v = cell.get(name)
            if v is None:
                row.append("")
            elif isinstance(v, float):
                row.append(format(v, ".17g"))
            else:
                row.append(str(v))
        writer.writerow(row)
    _write_text(buf.getvalue(), path)


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser():
    """The envest argument parser, built on the first call and shared after.

    run parses every argv with it, since building the parser costs more
    than a parse (CHANGES.md has the figure).
    """
    parser = argparse.ArgumentParser(
        prog="envest",
        description="Envelope estimation: fits, simulations, dimension "
        "selection and bootstrap standard errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--x", help="CSV of predictors, one row per case")
        p.add_argument("--y", required=True, help="CSV of responses")
        p.add_argument("--kind", required=True, choices=estimators.KINDS)
        p.add_argument("--p1", type=int, help="leading predictor block size (partial kind)")
        p.add_argument("--algo", default="onedim", choices=estimators.ALGORITHMS)
        p.add_argument(
            "--seed", type=int, default=0,
            help="drives cross-validation fold assignment and bootstrap "
            "resampling only; the fits themselves are deterministic",
        )
        p.add_argument("--gradient-tol", type=float, help="solver gradient tolerance override")
        p.add_argument("--max-iter", type=int, help="solver iteration cap override")
        p.add_argument("--out", help="report path (default: stdout)")

    p_fit = sub.add_parser("fit", help="fit one envelope estimator")
    p_fit.add_argument("--u", type=int, required=True, help="envelope dimension")
    common(p_fit)

    p_sim = sub.add_parser("simulate", help="run a seeded experiment")
    p_sim.add_argument("--mode", required=True, choices=("population", "sample"))
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--u", type=int, required=True)
    p_sim.add_argument("--n", type=int, help="sample size (sample mode)")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument(
        "--algo",
        action="append",
        choices=estimators.ALGORITHMS,
        help="algorithm to run; repeat the flag to compare several",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="report path (default: stdout)")
    p_sim.add_argument("--csv-summary", help="also write the per-algorithm summary grid as CSV")

    p_sel = sub.add_parser("select-u", help="choose the envelope dimension")
    p_sel.add_argument("--criterion", default="bic", choices=("bic", "cv"))
    p_sel.add_argument("--u-max", type=int, required=True)
    p_sel.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    common(p_sel)

    p_boot = sub.add_parser("bootstrap", help="residual bootstrap standard errors")
    p_boot.add_argument("--u", type=int, required=True)
    p_boot.add_argument("--b", type=int, required=True, help="number of bootstrap replicates")
    common(p_boot)

    return parser


def _config_dict(args):
    def get(name):
        return getattr(args, name, None)

    algo = get("algo")
    if args.command == "simulate":
        algorithms = list(algo) if algo else ["onedim"]
    else:
        algorithms = [algo]
    return {
        "command": args.command,
        "mode": get("mode"),
        "kind": get("kind"),
        "criterion": get("criterion"),
        "algorithms": algorithms,
        "u": get("u"),
        "u_max": get("u_max"),
        "d": get("d"),
        "n": get("n"),
        "p1": get("p1"),
        "replications": get("reps"),
        "folds": get("folds"),
        "bootstrap_b": get("b"),
        "seed": get("seed"),
        "x": get("x"),
        "y": get("y"),
        "out": get("out"),
        "csv_summary": get("csv_summary"),
        "gradient_tol": get("gradient_tol"),
        "max_iterations": get("max_iter"),
    }


# ---------------------------------------------------------------------------
# Command bodies


def _load_regression_data(args):
    """Validate flag combinations, read the CSVs and bound-check p1; returns (data, d)."""
    kind = args.kind
    if kind in estimators.KINDS_WITH_X:
        if args.x is None:
            raise _UsageError(f"kind {kind!r} needs --x")
    elif args.x is not None:
        raise _UsageError(f"kind {kind!r} does not use --x; give --y only")
    if kind == "partial":
        if args.p1 is None:
            raise _UsageError("--p1 is required for the partial kind")
        if args.p1 < 1:
            raise _UsageError("p1 must be at least 1")
    elif args.p1 is not None:
        raise _UsageError("--p1 only applies to the partial kind")

    y = read_matrix_csv(args.y)
    x = read_matrix_csv(args.x) if args.x is not None else None
    if args.p1 is not None and args.p1 > x.shape[1]:
        raise _UsageError(f"p1 must be between 1 and {x.shape[1]}")
    data = estimators.RegressionData(x=x, y=y)
    return data, estimators._problem_dimension(kind, data, args.p1)


def _solver_settings(args):
    """The settings of --algo with the --gradient-tol and --max-iter overrides."""
    tol, cap = args.gradient_tol, args.max_iter
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise _UsageError("gradient-tol must be a finite number, at least 0")
    if cap is not None and cap < 0:
        raise _UsageError("max-iter must be at least 0")
    return estimators.solver_settings(args.algo, tol, cap)


def _fit_record(result, algo, u):
    return {
        "kind": result.kind,
        "algorithm": algo,
        "u": u,
        "objective": result.objective,
        "gamma": result.gamma,
        "beta_env": result.beta_env,
        "beta_ols": result.beta_ols,
        "sigma_env": result.sigma_env,
        "alpha_hat": result.alpha_hat,
        "diagnostics": list(result.fit.diagnostics),
        "inner_iterations": list(result.fit.inner_iterations),
    }


def _cmd_fit(args):
    settings = _solver_settings(args)
    if args.u < 1:
        raise _UsageError("u must be between 1 and d")
    data, d = _load_regression_data(args)
    if args.u > d:
        raise _UsageError("u must be between 1 and d")
    result = estimators._fit_by_kind(args.kind, data, args.u, args.algo, settings, args.p1)
    records = [_fit_record(result, args.algo, args.u)]
    return records, {}, None


def _cmd_simulate(args):
    if args.d < 2:
        raise _UsageError("d must be at least 2")
    if not (1 <= args.u < args.d):
        raise _UsageError("u must be between 1 and d-1")
    if args.reps < 0:
        raise _UsageError("reps must be nonnegative")
    algos = list(args.algo) if args.algo else ["onedim"]
    for algo in algos:
        if algos.count(algo) > 1:
            raise _UsageError(f"--algo {algo} is given more than once")
    if args.mode == "sample":
        if args.n is None:
            raise _UsageError("--n is required for sample mode")
        if args.n < 2:
            raise _UsageError("n must be at least 2")
        report = simulate.sample_experiment(
            args.d, args.u, args.n, args.reps, algos, seed=args.seed
        )
    else:
        if args.n is not None:
            raise _UsageError("--n only applies to sample mode")
        report = simulate.population_experiment(
            args.d, args.u, args.reps, algos, seed=args.seed
        )
    body = report.to_dict()
    csv_rows = report.summary if args.csv_summary else None
    return body["records"], body["summary"], csv_rows


def _cmd_select_u(args):
    settings = _solver_settings(args)
    if args.u_max < 1:
        raise _UsageError("u-max must be at least 1")
    if args.criterion == "cv":
        if args.kind not in estimators.PREDICTIVE_KINDS:
            raise _UsageError("--criterion cv supports the response and predictor kinds")
        if args.folds < 2:
            raise _UsageError("folds must be at least 2")
    data, d = _load_regression_data(args)
    if args.u_max > d:
        raise _UsageError(f"u-max must be between 1 and {d}")
    if args.criterion == "cv" and args.folds > data.n:
        raise _UsageError(f"folds must be between 2 and {data.n}")
    if args.criterion == "bic":
        sel = estimators.select_dimension_bic(
            data, args.kind, args.u_max, args.algo, settings, args.p1
        )
    else:
        sel = estimators.select_dimension_cv(
            data, args.kind, args.u_max, args.folds, args.algo, settings, args.seed
        )
    records = []
    for i, score in enumerate(sel.scores):
        u = i + 1
        value = None if (isinstance(score, float) and math.isnan(score)) else score
        records.append({"u": u, "score": value, "error": sel.failures.get(u)})
    summary = {"criterion": args.criterion, "u_star": sel.u}
    return records, summary, None


def _cmd_bootstrap(args):
    settings = _solver_settings(args)
    if args.u < 1:
        raise _UsageError("u must be between 1 and d")
    if args.b < 2:
        raise _UsageError("b must be at least 2")
    data, d = _load_regression_data(args)
    if args.u > d:
        raise _UsageError("u must be between 1 and d")
    result = simulate.residual_bootstrap(
        data, args.kind, args.u, args.b, args.algo, settings, args.seed, args.p1
    )
    summary = {
        "se_ols": result.se_ols,
        "se_env": result.se_env,
        "replicates": result.replicates,
        "failed": result.failed,
        "failures": result.failures,
    }
    return [], summary, None


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "select-u": _cmd_select_u,
    "bootstrap": _cmd_bootstrap,
}


@functools.cache
def _openblas_threads():
    """(get, set) functions for the thread count of the scipy-openblas that
    numpy's wheels bundle, or None where numpy links another BLAS.  Looked
    up on the first call, through the library numpy's linear algebra module
    links against."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


_blas_lock = threading.Lock()
_blas_runs = 0  # runs of ``_one_blas_thread`` open in this process
_blas_saved = None  # the count the first of them found


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count
    after it, however it ends; does nothing where there is no OpenBLAS.

    The count is global to the process, so runs that overlap in several
    Python threads share it: the first to enter saves it and sets 1, and
    the last to leave restores it.
    """
    global _blas_runs, _blas_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _blas_lock:
        if _blas_runs == 0:
            _blas_saved = get()
            put(1)
        _blas_runs += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if _blas_runs == 0:
                put(_blas_saved)


def run(argv=None):
    """Parse argv and execute on one BLAS thread; returns the process exit code.

    0 success, 1 computation or file errors, 2 usage and validation errors.
    The caller's BLAS thread count is restored before it returns or raises.
    """
    with _one_blas_thread():
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse already printed the diagnostic
            code = exc.code
            return code if isinstance(code, int) else 2
        try:
            if args.seed < 0:
                raise _UsageError("seed must be at least 0")
            records, summary, csv_rows = _COMMANDS[args.command](args)
            report = {
                "version": REPORT_VERSION,
                "config": _config_dict(args),
                "records": records,
                "summary": summary,
            }
            write_report_json(report, args.out)
            if csv_rows is not None:
                _write_csv_summary(csv_rows, args.csv_summary)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except EnvestError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
