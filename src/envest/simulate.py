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

from .errors import BootstrapUnstable, EnvestError, InvalidDimension, InvalidInput
from .estimators import (
    KINDS_WITH_X,
    RegressionData,
    _check_algorithm,
    _fit_by_kind,
    _problem_dimension,
    _solve,
    covariance_kit,
    solver_settings,
)
from .linalg import (
    fix_column_signs,
    orthonormal_complement,
    orthonormalize,
    subspace_distance,
    sym_eig,
    symmetrize,
    _require_symmetric,
)
from .objective import ObjectivePair, _require_dimension, j_value

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
    if not (1 <= u < d):
        raise InvalidDimension(f"need 1 <= u < d, got u={u}, d={d}")
    rng = np.random.default_rng(seed)
    gamma = orthonormalize(rng.standard_normal((d, u)))
    gamma0 = orthonormal_complement(gamma)
    a = rng.uniform(0.0, 1.0, (u, u))
    omega = a @ a.T
    a0 = rng.uniform(0.0, 1.0, (d - u, d - u))
    omega0 = a0 @ a0.T
    eta = np.ones(u)
    beta = gamma @ eta
    m = symmetrize(gamma @ omega @ gamma.T + gamma0 @ omega0 @ gamma0.T)
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
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal((n, instance.m.shape[0]))
    vals, vecs = np.linalg.eigh(instance.m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    y = x[:, None] * instance.beta[None, :] + z @ root
    return RegressionData(x=x, y=y)


def oracle_envelope(m, u_mat, tol=1e-9):
    """Envelope basis read directly off the spectrum of M.

    For each eigen-group of M (near-ties merged), project U onto the
    group's eigenspace; groups seeing at least ``tol``-relative mass
    contribute an orthonormal basis of that projected image.  The result
    spans the smallest reducing subspace of M containing span(U).
    """
    m = _require_symmetric(m, "m")
    u_mat = _require_symmetric(u_mat, "u_mat")
    if u_mat.shape != m.shape:
        raise InvalidInput(f"m is {m.shape} but u_mat is {u_mat.shape}")
    dec = sym_eig(m)
    scale = float(np.linalg.norm(u_mat, "fro"))
    if scale == 0.0:
        return np.zeros((m.shape[0], 0))
    blocks = []
    for group in dec.groups:
        v = dec.eigenvectors[:, group]
        coords = v.T @ u_mat  # group-frame image of U
        if np.linalg.norm(coords, "fro") <= tol * scale:
            continue
        left, svals, _ = np.linalg.svd(coords, full_matrices=False)
        keep = svals > tol * scale
        if keep.any():
            blocks.append(v @ left[:, keep])
    if not blocks:
        return np.zeros((m.shape[0], 0))
    return fix_column_signs(np.column_stack(blocks))


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

    def to_dict(self, include_timing=False):
        """Plain-dict view for serialization.

        Wall-clock fields are withheld unless asked for, so that reports
        written from identical configurations are byte-identical.
        """
        records = []
        for rec in self.records:
            row = {
                "replication": rec.replication,
                "seed": rec.seed,
                "algorithm": rec.algorithm,
                "distance": rec.distance,
                "final_objective": rec.final_objective,
                "diagnostics": list(rec.diagnostics),
                "error": rec.error,
            }
            if include_timing:
                row["wall_time_seconds"] = rec.wall_time_seconds
            records.append(row)
        summary = {}
        for algo in sorted(self.summary):
            cell = dict(self.summary[algo])
            if not include_timing:
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


def _experiment(mode, d, u, n, replications, algo_set, seed, problem):
    """Fit every replication with every algorithm and summarize.

    ``problem(i)`` gives replication i's seed, the pair (M, U) to fit, the
    M + U that J is scored with, and the true envelope basis.  Package
    errors are recorded on the affected record, never raised; a failed
    pair build is recorded on every algorithm's record.
    """
    algos = list(algo_set)
    if not algos:
        raise InvalidInput("algo_set must name at least one algorithm")
    for algo in algos:
        _check_algorithm(algo)
    if replications < 0:
        raise InvalidInput("replications must be nonnegative")

    records = []
    for i in range(replications):
        rep_seed, m, u_hat, m_plus_u, truth = problem(i)
        rows = [ReplicationRecord(i, rep_seed, algo, None, None, None) for algo in algos]
        records.extend(rows)
        try:
            pair = ObjectivePair.from_pair(m, m_plus_u)
        except EnvestError as exc:
            for row in rows:
                row.error = f"{type(exc).__name__}: {exc}"
            continue
        for row in rows:
            settings = solver_settings(row.algorithm)
            try:
                fit = _solve(row.algorithm, m, u_hat, u, settings)
                distance = subspace_distance(fit.basis, truth)
                objective = float(j_value(pair, fit.basis))
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

    def problem(i):
        inst = generate_instance(d, u, seed + i)
        m_plus_u = symmetrize(inst.m + inst.u_mat)
        return seed + i, inst.m, inst.u_mat, m_plus_u, inst.gamma

    return _experiment(
        "population", d, u, None, replications, algo_set, seed, problem
    )


def sample_experiment(d, u, n, replications, algo_set, seed=0):
    """One fixed instance, fresh data per replication, sample plug-ins.

    The instance comes from ``seed`` itself; replication i draws its data
    with seed ``seed + 1 + i`` (offset so no replication shares the
    instance stream).  M-hat is S_{Y|X} and U-hat is S_Y - S_{Y|X}.
    """
    inst = generate_instance(d, u, seed)

    def problem(i):
        kit = covariance_kit(sample_data(inst, n, seed + 1 + i))
        u_hat = symmetrize(kit.s_y - kit.s_y_given_x)
        return seed + 1 + i, kit.s_y_given_x, u_hat, kit.s_y, inst.gamma

    return _experiment("sample", d, u, n, replications, algo_set, seed, problem)


@dataclass
class BootstrapResult:
    """Element-wise bootstrap standard errors for both estimators."""

    se_ols: np.ndarray
    se_env: np.ndarray
    replicates: int
    failed: int


def residual_bootstrap(data, kind, u, b, algo="onedim", settings=None, seed=0, p1=None):
    """Residual bootstrap standard errors for beta-hat, OLS and envelope.

    Rows of the OLS residual matrix are resampled with replacement,
    responses rebuilt as alpha + X beta' + resampled residuals, and both
    estimators refit per replicate.  Standard deviations use divisor b-1
    over the successful replicates; more than 20 percent failures raises
    BootstrapUnstable, which counts the failures per error type and names
    the last replicate's error, chained as its cause.  For the mean
    kinds the "OLS" estimator is the sample mean and X plays no role.
    """
    if b < 2:
        raise InvalidInput(f"need at least 2 bootstrap replicates, got {b}")
    _require_dimension(u, _problem_dimension(kind, data, p1))
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
    for _ in range(b):
        rows = rng.integers(0, n, size=n)
        y_star = center + resid[rows]
        try:
            star = RegressionData(x=data.x, y=y_star)
            refit = _fit_by_kind(kind, star, u, algo, settings, p1)
            env_draws.append(refit.beta_env)
            # align shapes: the partial kind only envelopes the X1 block
            ols = refit.beta_ols[:, :p1] if kind == "partial" else refit.beta_ols
            ols_draws.append(ols)
        except EnvestError as exc:
            failures[type(exc).__name__] += 1
            last_error = exc
    failed = failures.total()
    if failed > 0.2 * b:
        counts = ", ".join(f"{name}: {count}" for name, count in failures.items())
        raise BootstrapUnstable(
            f"{failed} of {b} bootstrap replicates failed to refit "
            f"({counts}; last: {type(last_error).__name__}: {last_error})"
        ) from last_error
    se_ols = np.std(np.stack(ols_draws), axis=0, ddof=1)
    se_env = np.std(np.stack(env_draws), axis=0, ddof=1)
    return BootstrapResult(se_ols=se_ols, se_env=se_env, replicates=b, failed=failed)
