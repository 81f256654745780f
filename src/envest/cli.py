"""Command line front end.

Four subcommands: ``fit`` (envelope estimators on CSV data), ``simulate``
(population and sample experiments), ``select-u`` (BIC or cross-validated
dimension choice) and ``bootstrap`` (residual bootstrap standard errors).
Reports are JSON with top-level keys version/config/records/summary, floats
written with 17 significant digits and a fixed key order, so identical
flags and seed give byte-identical output.  Wall-clock timings are left out
of the JSON for that reason; ``simulate --csv-summary`` writes them to a
separate CSV grid.  No environment variable is read.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import estimators, simulate
from .errors import EnvestError, InvalidInput, IoError, ParseError

REPORT_VERSION = "1"


class _UsageError(Exception):
    """Bad flag combination or value; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# CSV input


# control characters that np.loadtxt strips around a number and float() rejects
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _loadtxt_matrix(path):
    """The matrix of a CSV file whose every row is plain numbers.

    Raises ValueError or OSError on any other file; it accepts only files
    that read_matrix_csv's cell-by-cell parse accepts, with the same result.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip() or any(c in text for c in _LOADTXT_ONLY_SPACE):
        raise ValueError("not a plain numeric CSV file")
    return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)


def read_matrix_csv(path):
    """Read a numeric matrix from a CSV file, preserving row order.

    A single header row is skipped when any cell of the first row fails to
    parse as a number.  Ragged rows and non-numeric data cells raise
    ParseError naming the 1-based row and column.  A file of plain numbers
    is read by np.loadtxt; any other goes through the cell-by-cell parse.
    """
    try:
        return _loadtxt_matrix(path)
    except (OSError, ValueError):
        pass  # header, quotes, underscores, a bad cell or no file: parse cell by cell
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh))]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from exc
    raw = [(line, row) for line, row in raw if row]
    if not raw:
        raise ParseError(f"{path}: no rows")

    def parse_row(line, row):
        values = []
        for c, cell in enumerate(row):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {line}, column {c + 1}: {cell.strip()!r} is not numeric"
                ) from None
        return values

    first_line, first_row = raw[0]
    data = []
    try:
        data.append(parse_row(first_line, first_row))
    except ParseError:
        pass  # non-numeric first row: treat it as the header
    width = len(first_row)
    for line, row in raw[1:]:
        if len(row) != width:
            raise ParseError(
                f"{path}: row {line} has {len(row)} cells, expected {width}"
            )
        data.append(parse_row(line, row))
    if not data:
        raise ParseError(f"{path}: no data rows after the header")
    return np.array(data, dtype=float)


# ---------------------------------------------------------------------------
# JSON output


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
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key, v in value.items():
            parts.append(_json_text(str(key)) + ":" + _json_text(v))
        return "{" + ",".join(parts) + "}"
    raise InvalidInput(f"cannot serialize value of type {type(value).__name__}")


def write_report_json(report, path=None):
    """Write a report dict as canonical JSON to path, or stdout when None.

    Key order follows dict insertion order, floats get 17 significant
    digits and non-finite floats become null; the text ends with a newline.
    """
    for key in ("version", "config", "records", "summary"):
        if key not in report:
            raise InvalidInput(f"report is missing the {key!r} key")
    text = _json_text(report) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
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
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="envest",
        description="Envelope estimation: fits, simulations, dimension "
        "selection and bootstrap standard errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_x=True):
        if with_x:
            p.add_argument("--x", help="CSV of predictors, one row per case")
        p.add_argument("--y", required=True, help="CSV of responses")
        p.add_argument("--kind", required=True, choices=estimators.KINDS)
        p.add_argument("--p1", type=int, help="leading predictor block size (partial kind)")
        p.add_argument("--algo", default="onedim", choices=estimators.ALGORITHMS)
        p.add_argument("--seed", type=int, default=0)
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
    if args.u < 1:
        raise _UsageError("u must be between 1 and d")
    data, d = _load_regression_data(args)
    if args.u > d:
        raise _UsageError("u must be between 1 and d")
    settings = estimators.solver_settings(args.algo, args.gradient_tol, args.max_iter)
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
    settings = estimators.solver_settings(args.algo, args.gradient_tol, args.max_iter)
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
    if args.u < 1:
        raise _UsageError("u must be between 1 and d")
    if args.b < 2:
        raise _UsageError("b must be at least 2")
    data, d = _load_regression_data(args)
    if args.u > d:
        raise _UsageError("u must be between 1 and d")
    settings = estimators.solver_settings(args.algo, args.gradient_tol, args.max_iter)
    result = simulate.residual_bootstrap(
        data, args.kind, args.u, args.b, args.algo, settings, args.seed, args.p1
    )
    summary = {
        "se_ols": result.se_ols,
        "se_env": result.se_env,
        "replicates": result.replicates,
        "failed": result.failed,
    }
    return [], summary, None


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "select-u": _cmd_select_u,
    "bootstrap": _cmd_bootstrap,
}


def run(argv=None):
    """Parse argv and execute; returns the process exit code.

    0 success, 1 computation or file errors, 2 usage and validation errors.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
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
