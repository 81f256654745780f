"""Instance generation, oracle envelopes, and replication harnesses.

The generator builds a single-predictor regression whose error covariance
splits along a drawn basis: Sigma = Gamma Omega Gamma' + Gamma0 Omega0
Gamma0' with Omega = A A' (A uniform on (0,1)), eta fixed at ones, and
beta = Gamma eta.  The population pair is then M = Sigma, U = beta beta',
whose envelope is exactly span(Gamma); sample pairs come from the usual
covariance plug-ins.

The oracle constructs the envelope directly from the spectrum of M: it is
the sum of the images of U under the eigenspace projections of M, taken
over eigen-groups onto which U projects at all.  No optimization is
involved, which makes it the reference answer for the solvers.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import convert, estimators
from .errors import BootstrapUnstable, DimensionMismatch, EnvestError, InvalidInput
from .estimators import (
    ALGORITHMS, KINDS_WITH_X, RegressionData, _Scans, _fits, _problem_dimension, covariance_kit,
)
from .linalg import (
    orthonormal_complement,
    orthonormalize,
    subspace_distance,
    _errors,
    _fill,
    _fix_signs,
    _symmetrize,
)
from .objective import _pairs

__all__ = [
    "GeneratedInstance",
    "generate_instance",
    "sample_data",
    "oracle_envelope",
    "ReplicationRecord",
    "ExperimentReport",
    "population_experiment",
    "sample_experiment",
    "BootstrapResult",
    "residual_bootstrap",
]

# share of U's Frobenius norm an eigen-group of M must see to join the oracle
_ORACLE_TOL = 1e-9


@dataclass
class GeneratedInstance:
    """One synthetic envelope problem with its ground truth attached."""

    gamma: np.ndarray
    gamma0: np.ndarray
    omega: np.ndarray
    omega0: np.ndarray
    eta: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    u_mat: np.ndarray
    seed: int


def generate_instance(d, u, seed):
    """Draw one instance of dimension d with a u-dimensional envelope.

    Draw order is fixed: basis normals first, then the Omega factor, then
    the Omega0 factor, so results are reproducible per seed.
    """
    d = convert.size(d, "d", 2)
    u = convert.dimension(u, d - 1)
    rng = np.random.default_rng(convert.integer(seed, "seed"))
    gamma = orthonormalize(rng.standard_normal((d, u)))
    gamma0 = orthonormal_complement(gamma)
    a = rng.uniform(0.0, 1.0, (u, u))
    omega = a @ a.T
    a0 = rng.uniform(0.0, 1.0, (d - u, d - u))
    omega0 = a0 @ a0.T
    eta = np.ones(u)
    beta = gamma @ eta
    m = _symmetrize(gamma @ omega @ gamma.T + gamma0 @ omega0 @ gamma0.T)
    return GeneratedInstance(
        gamma=gamma,
        gamma0=gamma0,
        omega=omega,
        omega0=omega0,
        eta=eta,
        beta=beta,
        m=m,
        u_mat=np.outer(beta, beta),
        seed=seed,
    )


def sample_data(instance, n, seed):
    """n observations of y = beta x + eps with x standard normal scalar.

    The intercept is zero and eps is drawn through the symmetric square
    root of the instance covariance.
    """
    convert.instance(instance, GeneratedInstance, "instance")
    n = convert.size(n, "n", 2, InvalidInput)
    rng = np.random.default_rng(convert.integer(seed, "seed"))
    x = rng.standard_normal(n)
    z = rng.standard_normal((n, instance.m.shape[0]))
    vals, vecs = np.linalg.eigh(instance.m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    y = x[:, None] * instance.beta[None, :] + z @ root
    return RegressionData(x=x, y=y)


def oracle_envelope(m, u_mat):
    """Envelope basis read directly off the spectrum of M.

    Adjacent eigenvalues of M (descending) closer than
    1e-8 max(1, |lambda_1|) share an eigen-group.  For each group, project U
    onto the group's eigenspace; groups seeing more than ``_ORACLE_TOL``
    times the Frobenius norm of U contribute an orthonormal basis of that
    projected image.  The result spans the smallest reducing subspace of M
    containing span(U).
    """
    m, u_mat = convert.matrix(m, "M"), convert.matrix(u_mat, "U")
    if u_mat.shape != m.shape:
        raise DimensionMismatch(f"M is {m.shape} but U is {u_mat.shape}")
    m, u_mat = _symmetrize(m), _symmetrize(u_mat)
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = _fix_signs(vecs[:, ::-1])
    scale = float(np.linalg.norm(u_mat, "fro"))
    if scale == 0.0:
        return np.zeros((m.shape[0], 0))
    tol_group = 1e-8 * max(1.0, abs(float(vals[0])))
    cuts = np.flatnonzero(vals[:-1] - vals[1:] >= tol_group) + 1
    blocks = []
    for group in np.split(np.arange(vals.size), cuts):
        v = vecs[:, group]
        coords = v.T @ u_mat  # group-frame image of U
        if np.linalg.norm(coords, "fro") <= _ORACLE_TOL * scale:
            continue
        left, svals, _ = np.linalg.svd(coords, full_matrices=False)
        keep = svals > _ORACLE_TOL * scale
        if keep.any():
            blocks.append(v @ left[:, keep])
    if not blocks:
        return np.zeros((m.shape[0], 0))
    return _fix_signs(np.column_stack(blocks))


@dataclass
class ReplicationRecord:
    """One (replication, algorithm) cell of an experiment."""

    replication: int
    seed: int
    algorithm: str
    distance: float | None
    final_objective: float | None
    wall_time_seconds: float | None
    diagnostics: list = field(default_factory=list)
    error: str | None = None


@dataclass
class ExperimentReport:
    """All replication records plus per-algorithm mean/se summaries."""

    mode: str
    d: int
    u: int
    n: int | None
    replications: int
    seed: int
    records: list
    summary: dict

    def to_dict(self):
        """Plain-dict view for serialization.

        Wall-clock fields are withheld, so that reports written from
        identical configurations are byte-identical; ``summary`` keeps them
        for the command line's ``--csv-summary`` grid.
        """
        records = [
            {
                "replication": rec.replication,
                "seed": rec.seed,
                "algorithm": rec.algorithm,
                "distance": rec.distance,
                "final_objective": rec.final_objective,
                "diagnostics": list(rec.diagnostics),
                "error": rec.error,
            }
            for rec in self.records
        ]
        summary = {}
        for algo in sorted(self.summary):
            cell = dict(self.summary[algo])
            cell.pop("mean_time_seconds", None)
            cell.pop("se_time_seconds", None)
            summary[algo] = cell
        return {"records": records, "summary": summary}


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return None, None
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def _summarize(records, algo_set):
    summary = {}
    for algo in algo_set:
        rows = [r for r in records if r.algorithm == algo]
        ok = [r for r in rows if r.error is None]
        mean_d, se_d = _mean_se([r.distance for r in ok])
        mean_t, se_t = _mean_se([r.wall_time_seconds for r in ok])
        summary[algo] = {
            "mean_distance": mean_d,
            "se_distance": se_d,
            "mean_time_seconds": mean_t,
            "se_time_seconds": se_t,
            "replications_ok": len(ok),
            "replications_failed": len(rows) - len(ok),
        }
    return summary


def _experiment(mode, d, u, n, replications, algo_set, seed, first, problem):
    """Fit every replication with every algorithm and summarize.

    Replication i has seed ``first + i``; ``problem(rep_seed)`` gives the
    M and U of the pair that every algorithm fits and J is scored on, and
    the true envelope basis.  An algorithm named twice raises InvalidInput,
    since it would fit and count every replication twice.  Package errors
    are recorded on the affected record, never raised; a failed problem or
    pair build is recorded on every algorithm's record of the replication.
    Replications are made in batches of ``estimators._PROBLEMS_PER_BATCH``:
    a batch's pairs are built with one ``objective._pairs`` call on their
    stacked matrices, and each algorithm fits them together and scores
    their J in ``estimators._fits``.  Both steps take the replications that
    no package error has stopped from ``linalg._fill``.  The arguments are
    checked before any replication is made.
    """
    algos = convert.choices(algo_set, ALGORITHMS, "algorithm")
    replications = convert.integer(replications, "replications")
    d = convert.size(d, "d", 2)
    u = convert.dimension(u, d - 1)
    if n is not None:
        n = convert.size(n, "n", 2, InvalidInput)
    seed = convert.integer(seed, "seed")

    batch = estimators._PROBLEMS_PER_BATCH
    records = []
    for lo in range(0, replications, batch):
        rows_of, made = [], []  # per replication: its records; its problem or error
        for i in range(lo, min(lo + batch, replications)):
            rows_of.append([ReplicationRecord(i, first + i, algo, None, None, None) for algo in algos])
            records.extend(rows_of[-1])
            try:
                made.append(problem(first + i))
            except EnvestError as exc:
                made.append(exc)
        pairs = _fill(_errors(made), lambda places: _pairs(
            np.array([made[i][0] for i in places]), np.array([made[i][1] for i in places])
        ))
        for j, algo in enumerate(algos):
            fitted = _fill(_errors(pairs), lambda places: _fits(
                [(pairs[i], []) for i in places], u, algo, None
            )(u))
            for rows, made_one, outcome in zip(rows_of, made, fitted):
                row = rows[j]
                try:
                    if isinstance(outcome, EnvestError):
                        raise outcome
                    fit, objective = outcome
                    distance = subspace_distance(fit.basis, made_one[2])
                except EnvestError as exc:
                    row.error = f"{type(exc).__name__}: {exc}"
                    continue
                row.distance = distance
                row.final_objective = objective
                row.wall_time_seconds = fit.wall_time_seconds
                row.diagnostics = list(fit.diagnostics)
    return ExperimentReport(
        mode=mode,
        d=d,
        u=u,
        n=n,
        replications=replications,
        seed=seed,
        records=records,
        summary=_summarize(records, algos),
    )


def population_experiment(d, u, replications, algo_set, seed=0):
    """Fit exact (M, U) pairs from fresh instances, once per replication.

    Replication i uses seed ``seed + i`` for its instance.  Solver failures
    are recorded on the affected record, never raised.
    """

    def problem(rep_seed):
        inst = generate_instance(d, u, rep_seed)
        return inst.m, inst.u_mat, inst.gamma

    return _experiment(
        "population", d, u, None, replications, algo_set, seed, seed, problem
    )


def sample_experiment(d, u, n, replications, algo_set, seed=0):
    """One fixed instance, fresh data per replication, sample plug-ins.

    The instance comes from ``seed`` itself; replication i draws its data
    with seed ``seed + 1 + i`` (offset so no replication shares the
    instance stream).  Each replication fits ``_sample_pair``.
    """
    inst = generate_instance(d, u, seed)

    def problem(rep_seed):
        return *_sample_pair(inst, n, rep_seed), inst.gamma

    return _experiment(
        "sample", d, u, n, replications, algo_set, seed, seed + 1, problem
    )


def _sample_pair(instance, n, seed):
    """The sample pair of n observations of instance drawn with seed:
    M-hat = S_{Y|X} and U-hat = S_Y - S_{Y|X}, symmetrized."""
    kit = covariance_kit(sample_data(instance, n, seed))
    return kit.s_y_given_x, _symmetrize(kit.s_y - kit.s_y_given_x)


@dataclass
class BootstrapResult:
    """Element-wise bootstrap standard errors for both estimators.

    ``failures`` counts the replicates that failed to refit, per error type.
    """

    se_ols: np.ndarray
    se_env: np.ndarray
    replicates: int
    failed: int
    failures: dict


def residual_bootstrap(data, kind, u, b, algo="onedim", settings=None, seed=0, p1=None):
    """Residual bootstrap standard errors for beta-hat, OLS and envelope.

    Rows of the OLS residual matrix are resampled with replacement,
    responses rebuilt as alpha + X beta' + resampled residuals, and both
    estimators refit per replicate.  The replicates are made in batches of
    ``estimators._PROBLEMS_PER_BATCH``: each is built, its rows drawn then,
    as the batch reduces it to its moments, so that one replicate's data is
    held at a time, and the rest of a batch's work, pairs, fits and
    estimates, is stacked (see ``estimators._Scans``).  Standard deviations use divisor
    b-1 over the successful replicates; more than 20 percent failures raises
    BootstrapUnstable, which counts the failures per error type and names
    the last failing replicate's error, chained as its cause.  For the mean
    kinds the "OLS" estimator is the sample mean and X plays no role.
    """
    b = convert.integer(b, "b", 2)
    seed = convert.integer(seed, "seed")
    convert.dimension(u, _problem_dimension(kind, data, p1))
    y = data.y
    n = y.shape[0]
    if kind in KINDS_WITH_X:
        kit = covariance_kit(data)
        beta_ols = kit.beta_ols
        alpha_ols = kit.y_mean - beta_ols @ kit.x_mean
        center = alpha_ols[None, :] + data.x @ beta_ols.T
    else:
        center = y.mean(axis=0)[None, :]
    resid = y - center

    rng = np.random.default_rng(seed)
    ols_draws = []
    env_draws = []
    failures = Counter()
    last_error = None

    def replicate():
        # the rows are drawn when the sample is built, which happens once
        # per replicate and in order, so that no batch holds its rows
        return RegressionData(x=data.x, y=center + resid[rng.integers(0, n, size=n)])

    batch = estimators._PROBLEMS_PER_BATCH
    for lo in range(0, b, batch):
        samples = [replicate] * min(batch, b - lo)
        for refit in _Scans(kind, samples, u, algo, settings, p1).estimates(u):
            if isinstance(refit, EnvestError):
                failures[type(refit).__name__] += 1
                last_error = refit
                continue
            env_draws.append(refit.beta_env)
            # align shapes: the partial kind only envelopes the X1 block
            ols_draws.append(refit.beta_ols[:, :p1] if kind == "partial" else refit.beta_ols)
    failed = failures.total()
    if failed > 0.2 * b:
        counts = ", ".join(f"{name}: {count}" for name, count in failures.items())
        raise BootstrapUnstable(
            f"{failed} of {b} bootstrap replicates failed to refit "
            f"({counts}; last: {type(last_error).__name__}: {last_error})"
        ) from last_error
    se_ols = np.std(np.stack(ols_draws), axis=0, ddof=1)
    se_env = np.std(np.stack(env_draws), axis=0, ddof=1)
    return BootstrapResult(
        se_ols=se_ols,
        se_env=se_env,
        replicates=b,
        failed=failed,
        failures=dict(sorted(failures.items())),
    )
