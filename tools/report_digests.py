"""Print a digest table of CLI reports, to check that a change keeps them byte-identical.

Usage: python3 tools/report_digests.py CHECKOUT

Imports envest from CHECKOUT/src, writes one seeded dataset to a temporary
work directory and runs a fixed list of CLI commands through
``envest.cli.run``.  For each command it prints the command's name, its
exit code and the sha256 of its JSON report followed by its stderr, with
the work directory's path masked so that two checkouts can be compared.
``simulate`` runs also digest their ``--csv-summary`` grid with the
wall-clock columns blanked.  Run it on two checkouts and diff the output:
equal tables mean equal reports.
"""

import contextlib
import csv
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

N, P, R = 60, 3, 5
DATA_SEED = 12345
# the command list is fixed here, not read from the checkout, so that both
# sides of a comparison run the same commands
KINDS = ("response", "partial", "predictor", "mean", "constrained-mean")
KINDS_WITH_X = ("response", "partial", "predictor")
# each kind's problem dimension d on the generated data
DIMENSION = {"response": R, "partial": R, "predictor": P, "mean": R, "constrained-mean": R - 1}
ALGOS = ("onedim", "fg", "fg-warm")
TIMING_COLUMNS = ("mean_time_seconds", "se_time_seconds")


def load_cli(checkout):
    src = (Path(checkout) / "src").resolve()
    sys.path.insert(0, str(src))
    import envest
    from envest import cli

    if Path(envest.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: envest was imported from {envest.__file__}, not {src}")
    return cli


def write_data(work):
    import numpy as np

    rng = np.random.default_rng(DATA_SEED)
    x = rng.standard_normal((N, P))
    beta = rng.standard_normal((R, P))
    y = 1.0 + x @ beta.T + rng.standard_normal((N, R))
    paths = {}
    for name, mat in (("x", x), ("y", y)):
        paths[name] = str(work / f"{name}.csv")
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [[format(v, ".17g") for v in row] for row in mat]
            )
    return paths


def commands(data):
    """(name, argv) pairs; ``--out`` and ``--csv-summary`` are added later."""
    x, y = ["--x", data["x"]], ["--y", data["y"]]

    def source(kind):
        extra = ["--p1", "1"] if kind == "partial" else []
        return (x if kind in KINDS_WITH_X else []) + y + extra

    out = []
    for kind in KINDS:
        for algo in ALGOS:
            argv = ["fit", "--kind", kind, "--u", "2", "--algo", algo, "--seed", "3"]
            out.append((f"fit_{kind}_{algo}", argv + source(kind)))
    for algo in ALGOS:
        argv = ["fit", "--kind", "response", "--u", "2", "--algo", algo, "--seed", "3",
                "--gradient-tol", "1e-6", "--max-iter", "7"]
        out.append((f"fitovr_{algo}", argv + source("response")))
    # fg-warm at u = d, where the sequential fit is the whole space
    for kind in ("response", "predictor"):
        argv = ["fit", "--kind", kind, "--u", str(DIMENSION[kind]), "--algo", "fg-warm"]
        out.append((f"fitfull_{kind}_fg-warm", argv + source(kind)))
    for kind in KINDS:
        argv = ["select-u", "--criterion", "bic", "--kind", kind, "--u-max", "3"]
        out.append((f"bic_{kind}", argv + source(kind)))
    argv = ["select-u", "--criterion", "bic", "--kind", "mean", "--u-max", "3"]
    out.append(("bic_mean_fg-warm", argv + ["--algo", "fg-warm"] + source("mean")))
    for kind in ("response", "predictor"):
        argv = ["select-u", "--criterion", "cv", "--kind", kind, "--u-max", "3", "--folds", "4"]
        out.append((f"cv_{kind}", argv + source(kind)))
    argv = ["select-u", "--criterion", "cv", "--kind", "response", "--u-max", str(R),
            "--folds", "4", "--algo", "fg-warm"]
    out.append(("cv_response_fg-warm", argv + source("response")))
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
    sim = ["simulate", "--d", "6", "--u", "2", "--reps", "4", "--seed", "7"]
    sim += [flag for algo in ALGOS for flag in ("--algo", algo)]
    out.append(("sim_population", sim + ["--mode", "population"]))
    out.append(("sim_sample", sim + ["--mode", "sample", "--n", "80"]))
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


def digest(*parts, mask):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(mask.encode(), b"<work>"))
        h.update(b"\0")
    return h.hexdigest()


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    cli = load_cli(argv[0])
    work = Path(tempfile.mkdtemp(prefix="envest-digests-"))
    try:
        data = write_data(work)
        for name, args in commands(data):
            report = work / f"{name}.json"
            grid = work / f"{name}.csv"
            args = args + ["--out", str(report)]
            if args[0] == "simulate":
                args += ["--csv-summary", str(grid)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(args)
            body = report.read_bytes() if report.exists() else b""
            print(f"{name} {code} {digest(body, err.getvalue().encode(), mask=str(work))}")
            if grid.exists():
                print(f"{name}.csv {code} {digest(untimed_csv(grid), mask=str(work))}")
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main(sys.argv[1:])
