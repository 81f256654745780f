"""The three benchmark workloads: inputs, references, ops and checks.

Every op goes through ``envest.cli.run`` exactly as a user would call the
command line, with the report written to a file in the run's work
directory.

Each workload draws its ops from a fixed universe of U inputs, and the
workload seed S sets where in the universe a run starts: op i uses input
(S + i) mod U (population-sweep: instance seeds (S + 2i) mod 2U and the
next one), and a run makes whole passes over the universe.  Op cost is
heavy-tailed (some solves run a start to its iteration cap), so a run of a
few dozen ops drawn fresh for each seed would measure a different mix of
easy and hard inputs every time; whole passes over one universe make every
run, whatever its seed, measure the same mix in a different order.  The
universes are sized so that one pass takes 4 to 8 s at the baseline.
The warm-up op always uses input 0.

References are computed with the package's own building blocks, never by
the command being checked, and always before the timed loop starts.
"""

import json
import math
import os

import numpy as np

from envest import cli, onedim, simulate
from envest.linalg import symmetrize
from envest.objective import ObjectivePair, j_value

ORTHO_TOL = 1e-8


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _orthonormal_problem(gamma, tol=ORTHO_TOL):
    g = np.asarray(gamma, dtype=float)
    err = float(np.abs(g.T @ g - np.eye(g.shape[1])).max())
    return None if err <= tol else f"gamma is not orthonormal (error {err:.3g})"


def _write_csv(path, a):
    np.savetxt(path, np.asarray(a).reshape(a.shape[0], -1), fmt="%.17g", delimiter=",")


def _covariances(x, y):
    """Divisor-n S_Y and S_{Y|X}, computed here rather than by the package."""
    n = y.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    s_x = xc.T @ xc / n
    s_y = symmetrize(yc.T @ yc / n)
    s_xy = xc.T @ yc / n
    s_y_given_x = symmetrize(s_y - s_xy.T @ np.linalg.solve(s_x, s_xy))
    return s_y_given_x, s_y


class Workload:
    """One closed-loop workload.  ``prepare`` builds inputs and references,
    ``run_op`` performs op i and returns its exit codes, ``check`` turns the
    written reports into a list of problems (empty when the op is correct)."""

    name = None
    universe = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def item(self, i):
        """Universe index of op i; op -1 is the warm-up."""
        return 0 if i < 0 else (self.seed + i) % self.universe

    def prepare(self):
        raise NotImplementedError

    def run_op(self, i):
        raise NotImplementedError

    def outputs(self, codes):
        """Exit codes plus the parsed reports of the op that just ran."""
        reports = [_load(p) if c == 0 else None for c, p in zip(codes, self.report_paths)]
        return {"codes": list(codes), "reports": reports}

    def check(self, i, out):
        raise NotImplementedError

    def _path(self, name):
        return os.path.join(self.workdir, name)


class PopulationSweep(Workload):
    """``simulate --mode population`` at (d, u) = (30, 10), two replications."""

    name = "population-sweep"
    universe = 8
    d, u, reps = 30, 10, 2

    def prepare(self):
        self.report_paths = [self._path("population.json")]
        self.reference = {}
        for s in range(self.reps * self.universe + self.reps - 1):
            inst = simulate.generate_instance(self.d, self.u, s)
            basis = simulate.oracle_envelope(inst.m, inst.u_mat)
            if basis.shape[1] != self.u:
                raise RuntimeError(f"oracle dimension {basis.shape[1]} at seed {s}")
            pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
            self.reference[s] = float(j_value(pair, basis))

    def _first_seed(self, i):
        if i < 0:
            return 0
        return (self.seed + self.reps * i) % (self.reps * self.universe)

    def run_op(self, i):
        argv = [
            "simulate", "--mode", "population", "--d", str(self.d), "--u", str(self.u),
            "--reps", str(self.reps), "--algo", "onedim",
            "--seed", str(self._first_seed(i)), "--out", self.report_paths[0],
        ]
        return [cli.run(argv)]

    def check(self, i, out):
        if out["codes"] != [0]:
            return [f"exit code {out['codes'][0]}"]
        records = out["reports"][0]["records"]
        first = self._first_seed(i)
        seeds = list(range(first, first + self.reps))
        if [r["seed"] for r in records] != seeds:
            return [f"records cover seeds {[r['seed'] for r in records]}, expected {seeds}"]
        problems = []
        for r in records:
            ref = self.reference[r["seed"]]
            if r["error"] is not None:
                problems.append(f"seed {r['seed']}: {r['error']}")
            elif r["distance"] is None or not r["distance"] <= 1e-4:
                problems.append(f"seed {r['seed']}: distance {r['distance']} above 1e-4")
            elif r["final_objective"] is None or not (
                abs(r["final_objective"] - ref) <= 1e-8 * max(1.0, abs(ref))
            ):
                problems.append(
                    f"seed {r['seed']}: objective {r['final_objective']} vs oracle {ref}"
                )
        return problems


class _DatasetWorkload(Workload):
    """Shared set-up for workloads on seeded sample response datasets."""

    r = u = n = 0

    def prepare(self):
        self.datasets = []
        for s in range(self.universe):
            inst = simulate.generate_instance(self.r, self.u, s)
            data = simulate.sample_data(inst, self.n, s + 1_000_003)
            x_path, y_path = self._path(f"x{s}.csv"), self._path(f"y{s}.csv")
            _write_csv(x_path, data.x)
            _write_csv(y_path, data.y)
            self.datasets.append((s, x_path, y_path, data.x.reshape(self.n, -1), data.y))

    def _base(self, j):
        s, x_path, y_path = self.datasets[j][:3]
        return ["--kind", "response", "--x", x_path, "--y", y_path, "--seed", str(s)]


class RegressionSession(_DatasetWorkload):
    """select-u (BIC), then fit, then bootstrap on one dataset: r = 12, p = 1,
    true u = 3, n = 400."""

    name = "regression-session"
    universe = 4
    r, u, n = 12, 3, 400
    u_max, b = 6, 10

    def prepare(self):
        super().prepare()
        self.report_paths = [self._path(f) for f in ("select.json", "fit.json", "boot.json")]

    def run_op(self, i):
        base = self._base(self.item(i))
        sel, fit, boot = self.report_paths
        return [
            cli.run(["select-u", "--criterion", "bic", "--u-max", str(self.u_max), "--out", sel] + base),
            cli.run(["fit", "--u", str(self.u), "--out", fit] + base),
            cli.run(["bootstrap", "--u", str(self.u), "--b", str(self.b), "--out", boot] + base),
        ]

    def check(self, i, out):
        problems = [f"command {k} exit code {c}" for k, c in enumerate(out["codes"]) if c != 0]
        if problems:
            return problems
        sel, fit, boot = out["reports"]
        scores = [rec["score"] for rec in sel["records"]]
        if len(scores) != self.u_max or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in scores
        ):
            problems.append(f"BIC scores not all finite: {scores}")
        rec = fit["records"][0]
        gamma = np.asarray(rec["gamma"], dtype=float)
        bad = _orthonormal_problem(gamma)
        if bad:
            problems.append(bad)
        beta_ols = np.asarray(rec["beta_ols"], dtype=float)
        beta_env = np.asarray(rec["beta_env"], dtype=float)
        err = float(np.abs(beta_env - gamma @ gamma.T @ beta_ols).max())
        if not err <= 1e-10 * max(1.0, float(np.abs(beta_ols).max())):
            problems.append(f"beta_env differs from the projected beta_ols by {err:.3g}")
        summary = boot["summary"]
        if not summary["failed"] <= 0.2 * self.b:
            problems.append(f"bootstrap failed {summary['failed']} of {self.b}")
        for key in ("se_ols", "se_env"):
            se = np.asarray(summary[key], dtype=object)
            if se.size == 0 or any(v is None or not math.isfinite(v) for v in se.ravel()):
                problems.append(f"bootstrap {key} not finite")
        return problems


class GrassmannRefine(_DatasetWorkload):
    """``fit --algo fg-warm`` at r = 20, true u = 5, n = 1000."""

    name = "grassmann-refine"
    universe = 16
    r, u, n = 20, 5, 1000

    def prepare(self):
        super().prepare()
        self.report_paths = [self._path("fit.json")]
        # J at the sequential fit that fg-warm starts from
        self.reference = []
        for s, _, _, x, y in self.datasets:
            m, mpu = _covariances(x, y)
            warm = onedim.fit(m, symmetrize(mpu - m), self.u, onedim.OneDimSettings(seed=s))
            self.reference.append(float(j_value(ObjectivePair.from_pair(m, mpu), warm.basis)))

    def run_op(self, i):
        argv = ["fit", "--u", str(self.u), "--algo", "fg-warm", "--out", self.report_paths[0]]
        return [cli.run(argv + self._base(self.item(i)))]

    def check(self, i, out):
        if out["codes"] != [0]:
            return [f"exit code {out['codes'][0]}"]
        rec = out["reports"][0]["records"][0]
        problems = []
        bad = _orthonormal_problem(rec["gamma"])
        if bad:
            problems.append(bad)
        ref = self.reference[self.item(i)]
        obj = rec["objective"]
        if obj is None or not obj <= ref + 1e-10 * max(1.0, abs(ref)):
            problems.append(f"objective {obj} above the warm start's {ref}")
        return problems


WORKLOADS = {w.name: w for w in (PopulationSweep, RegressionSession, GrassmannRefine)}
