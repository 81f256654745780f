"""Print a digest table of CLI reports, to check that a change keeps them byte-identical.

Usage: python3 tools/report_digests.py

Imports envest from the src of the tree it sits in (``tree.load``, which
prints the machine line first), writes one seeded dataset to a temporary
work directory and runs a fixed list of CLI commands through
``envest.cli.run``, over every kind and algorithm of ``envest.estimators``.
For each command it prints the command's name, its exit code and the
sha256 of its JSON report followed by its stderr, with the work
directory's path masked.  A second sha256 follows: the same digest with
the report's J fields (``objective``, ``score`` and ``final_objective``)
removed, so that a change that moves only J keeps it.  ``simulate`` runs also digest their
``--csv-summary`` grid with the wall-clock columns blanked.  The
``rewrite_*`` rows run a command again with its report (and grid) going
to a longer file that an earlier row wrote, and digest what is left there.

The solver rows that follow (``solver_*``) call ``onedim.fit_many``
directly, at sizes the CLI rows do not reach.  For each (d, u) of
``SOLVER_SIZES`` and each kind of pair, population and sample
(``tree.pairs``), the pairs of the seeds are fitted at u one call each
(``alone``) and in one call together (``batch``, the lockstep batches of
several problems).  A row prints the number of fits and the sha256 of
their bases, objective values, inner iterations and diagnostics, or of
the error in place of a fit.  At the sizes of ``SCAN_SIZES`` a
``scan_{kind}_{d}_{u}`` row follows: the number of pairs and the sha256 of
their ``grassmann.eigenvector_scan_start`` bases at u, so that a change to
fg's start shows apart from a change to its trust-region path.

Its output is committed as ``tools/records/report_digests.txt``; the check
is ``python3 tools/report_digests.py | diff tools/records/report_digests.txt -``,
which prints the rows that moved.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import tree

N, P, R = 60, 3, 5
DATA_SEED = 12345
# a second dataset with n just above r: some bootstrap resamples and
# cross-validation folds are rank-deficient, so their pairs come out Ridged
# or fail, beside others that fit
NEAR_N, NEAR_P, NEAR_R = 10, 2, 6
NEAR_SEED = 3
# each kind's problem dimension d on the generated data
DIMENSION = {"response": R, "partial": R, "predictor": P, "mean": R, "constrained-mean": R - 1}
TIMING_COLUMNS = ("mean_time_seconds", "se_time_seconds")
# the report fields that hold a value of the objective J
J_FIELDS = ("objective", "score", "final_objective")
# (d, u, n of the sample pairs, seeds) of the solver rows
SOLVER_SIZES = ((10, 3, 100, range(16)), (20, 5, 1000, range(12)),
                (30, 10, 200, range(12)), (60, 30, 4000, range(4)))
# (d, u) of the scan rows, on the pairs of their solver rows
SCAN_SIZES = ((10, 3), (30, 10), (60, 30))
# (row name, command row, report file, grid file): a command whose report
# (and grid) go over longer files the command rows left, so that a rewrite
# that keeps part of the old file shows in the digest
REWRITES = (
    ("rewrite_boot_over_fit", "boot_response", "fit_response_onedim.json", None),
    ("rewrite_bic_over_boot", "bic_response", "boot_predictor.json", None),
    ("rewrite_sim_over_sim", "sim_sample", "sim_population.json", "sim_population.csv"),
)


def write_data(work):
    import numpy as np

    rng = np.random.default_rng(DATA_SEED)
    x = rng.standard_normal((N, P))
    beta = rng.standard_normal((R, P))
    y = 1.0 + x @ beta.T + rng.standard_normal((N, R))
    rng = np.random.default_rng(NEAR_SEED)
    near_x = rng.standard_normal((NEAR_N, NEAR_P))
    near_y = near_x @ rng.standard_normal((NEAR_P, NEAR_R)) + rng.standard_normal((NEAR_N, NEAR_R))
    paths = {}
    for name, mat in (("x", x), ("y", y), ("near_x", near_x), ("near_y", near_y)):
        paths[name] = str(work / f"{name}.csv")
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [[format(v, ".17g") for v in row] for row in mat]
            )
    return paths


def commands(data):
    """(name, argv) pairs; ``--out`` and ``--csv-summary`` are added later."""
    from envest.estimators import ALGORITHMS, KINDS, KINDS_WITH_X

    x, y = ["--x", data["x"]], ["--y", data["y"]]

    def source(kind):
        extra = ["--p1", "1"] if kind == "partial" else []
        return (x if kind in KINDS_WITH_X else []) + y + extra

    out = []
    for kind in KINDS:
        for algo in ALGORITHMS:
            argv = ["fit", "--kind", kind, "--u", "2", "--algo", algo, "--seed", "3"]
            out.append((f"fit_{kind}_{algo}", argv + source(kind)))
    for algo in ALGORITHMS:
        argv = ["fit", "--kind", "response", "--u", "2", "--algo", algo, "--seed", "3",
                "--gradient-tol", "1e-6", "--max-iter", "7"]
        out.append((f"fitovr_{algo}", argv + source("response")))
    # partial with p1 = p, where its pair and estimates are the response kind's
    for algo in ALGORITHMS:
        argv = ["fit", "--kind", "partial", "--u", "2", "--algo", algo, "--seed", "3"]
        out.append((f"fitallp1_partial_{algo}", argv + x + y + ["--p1", str(P)]))
    # fg-warm at u = d, where the sequential fit is the whole space
    for kind in ("response", "predictor"):
        argv = ["fit", "--kind", kind, "--u", str(DIMENSION[kind]), "--algo", "fg-warm"]
        out.append((f"fitfull_{kind}_fg-warm", argv + source(kind)))
    for kind in KINDS:
        argv = ["select-u", "--criterion", "bic", "--kind", kind, "--u-max", "3"]
        out.append((f"bic_{kind}", argv + source(kind)))
    argv = ["select-u", "--criterion", "bic", "--kind", "mean", "--u-max", "3"]
    out.append(("bic_mean_fg-warm", argv + ["--algo", "fg-warm"] + source("mean")))
    argv = ["select-u", "--criterion", "bic", "--kind", "response", "--u-max", "3"]
    out.append(("bic_response_fg", argv + ["--algo", "fg"] + source("response")))
    for kind in ("response", "predictor"):
        argv = ["select-u", "--criterion", "cv", "--kind", kind, "--u-max", "3", "--folds", "4"]
        out.append((f"cv_{kind}", argv + source(kind)))
    argv = ["select-u", "--criterion", "cv", "--kind", "response", "--u-max", str(R),
            "--folds", "4", "--algo", "fg-warm"]
    out.append(("cv_response_fg-warm", argv + source("response")))
    argv = ["select-u", "--criterion", "cv", "--kind", "predictor", "--u-max", str(P),
            "--folds", "4", "--algo", "fg"]
    out.append(("cv_predictor_fg", argv + source("predictor")))
    # scans up to u = d, whose last candidate is the full space
    for kind in KINDS:
        argv = ["select-u", "--criterion", "bic", "--kind", kind, "--u-max", str(DIMENSION[kind])]
        out.append((f"bicfull_{kind}", argv + source(kind)))
    argv = ["select-u", "--criterion", "bic", "--kind", "mean", "--u-max", str(R)]
    out.append(("bicfull_mean_fg-warm", argv + ["--algo", "fg-warm"] + source("mean")))
    for kind in ("response", "predictor"):
        argv = ["select-u", "--criterion", "cv", "--kind", kind, "--u-max", str(DIMENSION[kind]),
                "--folds", "4"]
        out.append((f"cvfull_{kind}", argv + source(kind)))
    # iteration caps at which u = 2 fails to converge while u = 1 and u = 3 fit
    argv = ["select-u", "--kind", "predictor", "--u-max", str(P)]
    out.append(("bicfail_predictor",
                argv + ["--criterion", "bic", "--max-iter", "2"] + source("predictor")))
    out.append(("cvfail_predictor",
                argv + ["--criterion", "cv", "--folds", "4", "--max-iter", "3"] + source("predictor")))
    # an override that caps fg-warm's refinement, not its sequential fit
    argv = ["select-u", "--criterion", "bic", "--kind", "predictor", "--u-max", str(P),
            "--max-iter", "1", "--algo", "fg-warm"]
    out.append(("bicovr_predictor_fg-warm", argv + source("predictor")))
    for kind in KINDS:
        argv = ["bootstrap", "--kind", kind, "--u", "2", "--b", "10", "--seed", "5"]
        out.append((f"boot_{kind}", argv + source(kind)))
    for kind in ("response", "partial"):
        argv = ["bootstrap", "--kind", kind, "--u", "2", "--b", "10", "--seed", "5",
                "--algo", "fg-warm"]
        out.append((f"boot_{kind}_fg-warm", argv + source(kind)))
    argv = ["bootstrap", "--kind", "mean", "--u", "2", "--b", "10", "--seed", "5", "--algo", "fg"]
    out.append(("boot_mean_fg", argv + source("mean")))
    # caps at which every replicate (1), or 5 of the 10 (3), fail to converge
    # while their fits are made together
    for cap in ("1", "3"):
        argv = ["bootstrap", "--kind", "response", "--u", "2", "--b", "10", "--seed", "5",
                "--max-iter", cap]
        out.append((f"bootfail{cap}_response", argv + source("response")))
    # n just above r: bootstraps whose failing replicates (SingularCovariance,
    # NotPositiveDefinite) sit beside Ridged and plain ones, the second too
    # many (BootstrapUnstable), and cross-validation scans with Ridged folds
    # and with folds that fail
    near = ["--x", data["near_x"], "--y", data["near_y"]]
    for kind in ("response", "predictor"):
        argv = ["bootstrap", "--kind", kind, "--u", "1", "--b", "40", "--seed", "0"]
        out.append((f"bootnear_{kind}", argv + near))
    for kind in ("response", "predictor"):
        argv = ["select-u", "--criterion", "cv", "--kind", kind, "--u-max", "2", "--folds", "4"]
        out.append((f"cvnear_{kind}", argv + near))
    sim = ["simulate", "--d", "6", "--u", "2", "--reps", "4", "--seed", "7"]
    sim += [flag for algo in ALGORITHMS for flag in ("--algo", algo)]
    out.append(("sim_population", sim + ["--mode", "population"]))
    out.append(("sim_sample", sim + ["--mode", "sample", "--n", "80"]))
    # the first report whose bits depend on the BLAS thread count: at d = 100
    # OpenBLAS splits the LU factorization behind solve over its threads
    out.append(("sim_population_d100", ["simulate", "--mode", "population", "--d", "100",
                                        "--u", "10", "--reps", "1", "--seed", "3"]))
    # positive definite but ill-conditioned tangent Hessians: a solver that
    # shifts them anyway fails both replications
    out.append(("sim_sample_d60", ["simulate", "--mode", "sample", "--d", "60", "--u", "30",
                                   "--n", "1000", "--reps", "2", "--seed", "1"]))
    out.append(("usage_mean_with_x", ["fit", "--kind", "mean", "--u", "2"] + x + y))
    out.append(("usage_partial_without_p1", ["fit", "--kind", "partial", "--u", "2"] + x + y))
    out.append(("usage_cv_mean", ["select-u", "--criterion", "cv", "--kind", "mean",
                                  "--u-max", "2"] + y))
    return out


def untimed_csv(path):
    """The summary grid with its wall-clock cells blanked."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = [i for i, name in enumerate(rows[0]) if name in TIMING_COLUMNS]
    for row in rows[1:]:
        for i in drop:
            row[i] = ""
    return "".join(",".join(row) + "\n" for row in rows).encode()


def without_j(body):
    """The JSON report body with every J field removed, re-serialized."""
    if not body:
        return body

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in J_FIELDS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(json.loads(body))).encode()


def digest(*parts, mask):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(mask.encode(), b"<work>"))
        h.update(b"\0")
    return h.hexdigest()


def fit_digest(results):
    """sha256 of fit_many results: each fit's basis, objective values, inner
    iterations and diagnostics, or its error with the partial fit it holds."""
    import numpy as np

    h = hashlib.sha256()

    def add(fit):
        h.update(np.ascontiguousarray(fit.basis).tobytes())
        h.update(repr((fit.objective_values, fit.inner_iterations, fit.diagnostics)).encode())

    for result in results:
        h.update(type(result).__name__.encode())
        if hasattr(result, "basis"):
            add(result)
        else:
            h.update(f"{result} {getattr(result, 'step_index', None)}".encode())
            if getattr(result, "partial", None) is not None:
                add(result.partial)
        h.update(b"\0")
    return h.hexdigest()


def solver_rows():
    from envest import grassmann, onedim

    for d, u, n, seeds in SOLVER_SIZES:
        for kind in ("population", "sample"):
            pairs = tree.pairs(kind, d, u, n, seeds)
            alone = [r for pair in pairs for r in onedim.fit_many([pair], u)]
            name = f"solver_{kind}_{d}_{u}"
            print(f"{name}_alone {len(alone)} {fit_digest(alone)}")
            batch = onedim.fit_many(pairs, u)
            print(f"{name}_batch {len(batch)} {fit_digest(batch)}")
            if (d, u) in SCAN_SIZES:
                h = hashlib.sha256()
                for pair in pairs:
                    h.update(grassmann.eigenvector_scan_start(pair.m, pair.u, u).tobytes())
                print(f"scan_{kind}_{d}_{u} {len(pairs)} {h.hexdigest()}")


def run_row(cli, work, name, args, report, grid=None):
    """Run one command with its report at ``report`` (and, for simulate, its
    grid at ``grid``) and print its digest rows."""
    args = args + ["--out", str(report)]
    if args[0] == "simulate":
        args += ["--csv-summary", str(grid)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(args)
    body = report.read_bytes() if report.exists() else b""
    stderr = err.getvalue().encode()
    full = digest(body, stderr, mask=str(work))
    print(f"{name} {code} {full} {digest(without_j(body), stderr, mask=str(work))}")
    if grid is not None and grid.exists():
        print(f"{name}.csv {code} {digest(untimed_csv(grid), mask=str(work))}")


def main():
    tree.load(__doc__)
    from envest import cli

    work = Path(tempfile.mkdtemp(prefix="envest-digests-"))
    try:
        data = write_data(work)
        rows = commands(data)
        for name, args in rows:
            run_row(cli, work, name, args, work / f"{name}.json", work / f"{name}.csv")
        argvs = dict(rows)
        for name, row, report, grid in REWRITES:
            run_row(cli, work, name, argvs[row], work / report, grid and work / grid)
    finally:
        shutil.rmtree(work)
    solver_rows()


if __name__ == "__main__":
    main()
