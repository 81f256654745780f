"""Envelope estimators for multivariate regression and mean problems.

Every estimator here reduces to the same recipe: build a pair of symmetric
matrices (M, M + U) from sample covariances, hand the pair to a basis
solver, and project the classical estimator onto the fitted span.  The five
kinds differ only in which covariances play M and U:

=================  =======================  =============================
kind               M                        M + U
=================  =======================  =============================
response           S_{Y|X}                  S_Y
partial (X1|X2)    S_{Y|X}                  S_{Y|X2}
predictor          S_{X|Y}                  S_X
mean               S_Y                      S_Y + ybar ybar'
constrained mean   Q1 S_Y Q1 (reduced)      + Q1 ybar ybar' Q1
=================  =======================  =============================

Covariances use divisor n throughout.  The constrained-mean kind forces the
mean deviations to sum to zero, so the fit runs inside the orthogonal
complement of the all-ones direction and the basis is mapped back up.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import grassmann, onedim
from .errors import (
    AllFitsFailed,
    EnvestError,
    InvalidDimension,
    InvalidInput,
    InvalidUhat,
    NotPositiveDefinite,
    SingularCovariance,
)
from .linalg import orthonormal_complement, project, symmetrize
from .objective import ObjectivePair, j_value

__all__ = [
    "ALGORITHMS",
    "solver_settings",
    "RegressionData",
    "CovarianceKit",
    "EnvelopeRegressionFit",
    "covariance_kit",
    "response_envelope",
    "partial_envelope",
    "predictor_envelope",
    "mean_envelope",
    "constrained_mean_envelope",
    "select_dimension_bic",
    "select_dimension_cv",
]

KINDS = ("response", "partial", "predictor", "mean", "constrained-mean")

# solver presets behind the algorithm names accepted by the estimators, the
# experiment harnesses and the command line; fg-warm is the sequential fit
# refined by a short run of the full optimizer
ALGORITHMS = {
    "onedim": onedim.OneDimSettings(),
    "fg": grassmann.FgSettings(start_strategy="scan"),
    "fg-warm": grassmann.FgSettings(start_strategy="warm", max_iterations=100),
}


def _check_algorithm(algo):
    if algo not in ALGORITHMS:
        raise InvalidInput(
            f"unknown algorithm {algo!r}; use one of {', '.join(ALGORITHMS)}"
        )


def solver_settings(algo, seed=0, gradient_tol=None, max_iterations=None):
    """The preset settings of ``algo`` with its seed and overrides applied.

    max_iterations caps the Newton iterations per direction for onedim and
    the descent iterations for fg and fg-warm; None keeps the preset value,
    as does a None gradient_tol.
    """
    _check_algorithm(algo)
    changes = {"seed": seed}
    if gradient_tol is not None:
        changes["gradient_tol"] = gradient_tol
    if max_iterations is not None:
        cap = "max_inner_iterations" if algo == "onedim" else "max_iterations"
        changes[cap] = max_iterations
    return replace(ALGORITHMS[algo], **changes)


def _solve(algo, m, u_hat, u, settings):
    """Fit (m, u_hat) with the solver that ``algo`` names.

    The solver is looked up on its module at every call, so a wrapper
    installed on ``onedim.fit`` or ``grassmann.fit`` sees every fit.
    """
    _check_algorithm(algo)
    solver = onedim if algo == "onedim" else grassmann
    return solver.fit(m, u_hat, u, settings)


@dataclass
class RegressionData:
    """Paired predictor/response samples, rows aligned.

    x may arrive one-dimensional (reshaped to a single column) or be None
    entirely for the mean-only kinds.
    """

    x: np.ndarray | None
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2:
            raise InvalidInput("y must be a 1- or 2-dimensional array")
        if y.shape[0] < 2:
            raise InvalidInput("need at least two observations")
        if not np.all(np.isfinite(y)):
            raise InvalidInput("y must be finite")
        self.y = y
        if self.x is None:
            return
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise InvalidInput("x must be a 1- or 2-dimensional array")
        if x.shape[0] != y.shape[0]:
            raise InvalidInput(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if not np.all(np.isfinite(x)):
            raise InvalidInput("x must be finite")
        self.x = x

    @property
    def n(self):
        return self.y.shape[0]


@dataclass
class CovarianceKit:
    """Divisor-n moment summaries of one regression sample."""

    x_mean: np.ndarray
    y_mean: np.ndarray
    s_x: np.ndarray
    s_y: np.ndarray
    s_xy: np.ndarray  # p x r
    s_y_given_x: np.ndarray
    s_x_given_y: np.ndarray
    n: int

    @property
    def s_yx(self):
        return self.s_xy.T


def _conditional(s_a, s_ab, s_b, label):
    """S_{A|B} = S_A - S_AB S_B^{-1} S_BA with a singularity check on S_B."""
    try:
        c = np.linalg.cholesky(s_b)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"sample covariance of {label} is singular") from exc
    half = np.linalg.solve(c, s_ab.T)
    return symmetrize(s_a - half.T @ half)


def covariance_kit(data):
    """All covariance blocks the estimators need, in one pass."""
    if data.x is None:
        raise InvalidInput("this operation needs predictors, but x is missing")
    x, y = data.x, data.y
    n = data.n
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    xc = x - xm
    yc = y - ym
    s_x = symmetrize(xc.T @ xc / n)
    s_y = symmetrize(yc.T @ yc / n)
    s_xy = xc.T @ yc / n
    return CovarianceKit(
        x_mean=xm,
        y_mean=ym,
        s_x=s_x,
        s_y=s_y,
        s_xy=s_xy,
        s_y_given_x=_conditional(s_y, s_xy.T, s_x, "X"),
        s_x_given_y=_conditional(s_x, s_xy, s_y, "Y"),
        n=n,
    )


@dataclass
class EnvelopeRegressionFit:
    """A fitted envelope regression.

    beta_env is the projected coefficient block appropriate to the kind
    (r x p for response/predictor, r x p1 for partial, one column holding
    the projected mean for the mean kinds).  fit carries the optimizer
    output, objective the final J value of the fitted basis.
    """

    kind: str
    fit: onedim.EnvelopeFit
    beta_env: np.ndarray
    beta_ols: np.ndarray
    sigma_env: np.ndarray
    alpha_hat: np.ndarray
    objective: float
    p1: int | None = None

    @property
    def gamma(self):
        return self.fit.basis


def _fit_basis(m, m_plus_u, u, algo, settings):
    """Solve one estimator's pair, with the positive-definite ridge retry.

    When M fails the definiteness check, both matrices are shifted by
    ridge = 1e-8 tr(M)/d once and a ``Ridged`` flag is recorded.  A settings
    object, when given, is passed through untouched; the algo string then
    only picks the solver, and None means the preset of ``algo``.
    """
    m = symmetrize(m)
    m_plus_u = symmetrize(m_plus_u)
    d = m.shape[0]
    u_hat = symmetrize(m_plus_u - m)
    lam = np.linalg.eigvalsh(u_hat)
    if lam[0] < -1e-8 * max(1.0, float(np.abs(lam).max())):
        raise InvalidUhat(
            f"U-hat has a materially negative eigenvalue ({float(lam[0]):.6g})"
        )
    diagnostics = []
    try:
        pair = ObjectivePair.from_pair(m, m_plus_u)
    except NotPositiveDefinite:
        ridge = 1e-8 * float(np.trace(m)) / d
        m = symmetrize(m + ridge * np.eye(d))
        m_plus_u = symmetrize(m_plus_u + ridge * np.eye(d))
        pair = ObjectivePair.from_pair(m, m_plus_u)
        diagnostics.append("Ridged")

    if settings is None:
        settings = solver_settings(algo)
    fit = _solve(algo, m, u_hat, u, settings)
    fit.diagnostics.extend(diagnostics)
    return fit, float(j_value(pair, fit.basis))


def response_envelope(data, u, algo="onedim", settings=None):
    """Envelope for the response space of Y = alpha + beta X + error.

    M = S_{Y|X}, M + U = S_Y.  The coefficient estimate projects ordinary
    least squares onto the fitted span, and the error covariance estimate
    is P S_{Y|X} P + Q S_{Y|X} Q with P the span projector and Q = I - P.
    """
    kit = covariance_kit(data)
    r = kit.s_y.shape[0]
    if not (1 <= u <= r):
        raise InvalidDimension(f"u must be between 1 and {r}, got {u}")
    fit, objective = _fit_basis(kit.s_y_given_x, kit.s_y, u, algo, settings)
    gamma = fit.basis
    p_g = gamma @ gamma.T
    q_g = np.eye(r) - p_g
    beta_ols = np.linalg.solve(kit.s_x, kit.s_xy).T  # r x p
    beta_env = p_g @ beta_ols
    sigma_env = symmetrize(p_g @ kit.s_y_given_x @ p_g + q_g @ kit.s_y_given_x @ q_g)
    alpha = kit.y_mean - beta_env @ kit.x_mean
    return EnvelopeRegressionFit(
        kind="response",
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=sigma_env,
        alpha_hat=alpha,
        objective=objective,
    )


def partial_envelope(data, p1, u, algo="onedim", settings=None):
    """Envelope for the coefficients of the first p1 predictors only.

    The pair is M = S_{Y|X} and M + U = S_{Y|X2}, X2 being the remaining
    predictors, which equals the response-envelope pair computed from the
    residuals of Y and X1 on X2.  Only the X1 coefficient block is
    projected; the X2 block is reported untouched inside beta_ols.
    """
    kit = covariance_kit(data)
    p = kit.s_x.shape[0]
    r = kit.s_y.shape[0]
    if not (1 <= p1 <= p):
        raise InvalidDimension(f"p1 must be between 1 and {p}, got {p1}")
    if not (1 <= u <= r):
        raise InvalidDimension(f"u must be between 1 and {r}, got {u}")
    if p1 == p:
        s_y_given_x2 = kit.s_y
    else:
        kit2 = covariance_kit(RegressionData(data.x[:, p1:], data.y))
        s_y_given_x2 = kit2.s_y_given_x
    fit, objective = _fit_basis(kit.s_y_given_x, s_y_given_x2, u, algo, settings)
    gamma = fit.basis
    beta_ols = np.linalg.solve(kit.s_x, kit.s_xy).T  # r x p, all predictors
    beta_env = gamma @ gamma.T @ beta_ols[:, :p1]
    sigma_env = symmetrize(
        gamma @ gamma.T @ kit.s_y_given_x @ gamma @ gamma.T
        + (np.eye(r) - gamma @ gamma.T)
        @ kit.s_y_given_x
        @ (np.eye(r) - gamma @ gamma.T)
    )
    beta_full = beta_ols.copy()
    beta_full[:, :p1] = beta_env
    alpha = kit.y_mean - beta_full @ kit.x_mean
    return EnvelopeRegressionFit(
        kind="partial",
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=sigma_env,
        alpha_hat=alpha,
        objective=objective,
        p1=p1,
    )


def predictor_envelope(data, u, algo="onedim", settings=None):
    """Envelope in the predictor space (the regression analogue of PLS).

    M = S_{X|Y}, M + U = S_X.  The coefficient matrix is post-multiplied by
    the transpose of the S_X-metric projection onto the fitted span, which
    collapses immaterial predictor variation out of the estimate.
    """
    kit = covariance_kit(data)
    p = kit.s_x.shape[0]
    if not (1 <= u <= p):
        raise InvalidDimension(f"u must be between 1 and {p}, got {u}")
    fit, objective = _fit_basis(kit.s_x_given_y, kit.s_x, u, algo, settings)
    gamma = fit.basis
    beta_ols = np.linalg.solve(kit.s_x, kit.s_xy).T  # r x p
    proj = project(gamma, metric=kit.s_x)  # p x p, S_X inner product
    beta_env = beta_ols @ proj.T
    sigma_env = symmetrize(kit.s_y - beta_env @ kit.s_x @ beta_env.T)
    alpha = kit.y_mean - beta_env @ kit.x_mean
    return EnvelopeRegressionFit(
        kind="predictor",
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=sigma_env,
        alpha_hat=alpha,
        objective=objective,
    )


def _as_response_only(y):
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] < 2:
        raise InvalidInput("y must be an n x r array with n >= 2")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("y must be finite")
    return y


def mean_envelope(y, u, algo="onedim", settings=None):
    """Envelope for a multivariate mean: M = S_Y, U = ybar ybar'.

    The projected mean lands in beta_env's single column; alpha_hat is the
    raw sample mean for reference.
    """
    y = _as_response_only(y)
    n, r = y.shape
    if not (1 <= u <= r):
        raise InvalidDimension(f"u must be between 1 and {r}, got {u}")
    ym = y.mean(axis=0)
    yc = y - ym
    s_y = symmetrize(yc.T @ yc / n)
    u_hat = np.outer(ym, ym)
    fit, objective = _fit_basis(s_y, symmetrize(s_y + u_hat), u, algo, settings)
    gamma = fit.basis
    p_g = gamma @ gamma.T
    q_g = np.eye(r) - p_g
    return EnvelopeRegressionFit(
        kind="mean",
        fit=fit,
        beta_env=(p_g @ ym)[:, None],
        beta_ols=ym[:, None],
        sigma_env=symmetrize(p_g @ s_y @ p_g + q_g @ s_y @ q_g),
        alpha_hat=ym,
        objective=objective,
    )


def constrained_mean_envelope(y, u, algo="onedim", settings=None):
    """Mean envelope under the constraint that deviations sum to zero.

    With Q1 = I - 11'/r, the pair (Q1 S_Y Q1, Q1 ybar ybar' Q1) is singular
    along the ones direction, so the fit runs in an orthonormal basis B0 of
    the complement of span(1) and the (r-1)-dimensional result is mapped
    back as B0 Gamma.  u can be at most r - 1.
    """
    y = _as_response_only(y)
    n, r = y.shape
    if not (1 <= u <= r - 1):
        raise InvalidDimension(
            f"u must be between 1 and {r - 1} for a sum-to-zero mean, got {u}"
        )
    ym = y.mean(axis=0)
    yc = y - ym
    s_y = symmetrize(yc.T @ yc / n)
    ones = np.ones((r, 1)) / np.sqrt(r)
    b0 = orthonormal_complement(ones)  # r x (r-1); B0'Q1 = B0'
    m_red = symmetrize(b0.T @ s_y @ b0)
    mu_red = b0.T @ ym
    fit, objective = _fit_basis(
        m_red, symmetrize(m_red + np.outer(mu_red, mu_red)), u, algo, settings
    )
    gamma = b0 @ fit.basis  # r x u, orthonormal and orthogonal to 1
    fit.basis = gamma
    p_g = gamma @ gamma.T
    q1 = np.eye(r) - np.ones((r, r)) / r
    q_g = q1 - p_g  # complement within the constrained space
    return EnvelopeRegressionFit(
        kind="constrained-mean",
        fit=fit,
        beta_env=(p_g @ ym)[:, None],
        beta_ols=(q1 @ ym)[:, None],
        sigma_env=symmetrize(p_g @ s_y @ p_g + q_g @ s_y @ q_g),
        alpha_hat=ym,
        objective=objective,
    )


def _fit_by_kind(kind, data, u, algo, settings, p1=None):
    if kind == "response":
        return response_envelope(data, u, algo, settings)
    if kind == "partial":
        if p1 is None:
            raise InvalidInput("partial kind needs p1")
        return partial_envelope(data, p1, u, algo, settings)
    if kind == "predictor":
        return predictor_envelope(data, u, algo, settings)
    if kind == "mean":
        return mean_envelope(data.y, u, algo, settings)
    if kind == "constrained-mean":
        return constrained_mean_envelope(data.y, u, algo, settings)
    raise InvalidInput(f"unknown kind {kind!r}; expected one of {KINDS}")


def _problem_dimension(kind, data, p1=None):
    if kind not in KINDS:
        raise InvalidInput(f"unknown kind {kind!r}; expected one of {KINDS}")
    r = data.y.shape[1]
    if kind == "predictor":
        if data.x is None:
            raise InvalidInput("predictor kind needs x")
        return data.x.shape[1]
    return {
        "response": r,
        "partial": r,
        "mean": r,
        "constrained-mean": r - 1,
    }[kind]


@dataclass
class DimensionSelection:
    """Outcome of a dimension scan: chosen u, per-u scores, any failures."""

    u: int
    scores: list
    failures: dict = field(default_factory=dict)


def select_dimension_bic(data, kind, u_max, algo="onedim", settings=None, p1=None):
    """Pick u by n J_n(fit) + log(n) u (d - u), smaller u winning ties.

    scores has one entry per candidate u (NaN when that fit failed); every
    candidate failing raises AllFitsFailed.
    """
    d = _problem_dimension(kind, data, p1)
    if not (1 <= u_max <= d):
        raise InvalidDimension(f"u_max must be between 1 and {d}, got {u_max}")
    n = data.n
    scores = []
    failures = {}
    for u in range(1, u_max + 1):
        try:
            fit = _fit_by_kind(kind, data, u, algo, settings, p1)
            scores.append(n * fit.objective + np.log(n) * u * (d - u))
        except EnvestError as exc:  # recorded, not fatal
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
    if all(np.isnan(s) for s in scores):
        raise AllFitsFailed(f"every candidate dimension up to {u_max} failed")
    arr = np.array(scores)
    arr[np.isnan(arr)] = np.inf
    return DimensionSelection(u=int(np.argmin(arr)) + 1, scores=scores, failures=failures)


def select_dimension_cv(
    data, kind, u_max, folds=5, algo="onedim", settings=None, seed=0
):
    """Pick u by k-fold cross-validated squared prediction error.

    Only kinds that predict Y from X participate (response, predictor).
    The fold split is one seeded permutation shared by all candidate u;
    scores are mean squared prediction errors per observation and ties go
    to the smaller u.
    """
    if kind not in ("response", "predictor"):
        raise InvalidInput(
            f"cross-validation needs a predictive kind, not {kind!r}"
        )
    d = _problem_dimension(kind, data)
    if not (1 <= u_max <= d):
        raise InvalidDimension(f"u_max must be between 1 and {d}, got {u_max}")
    n = data.n
    if not (2 <= folds <= n):
        raise InvalidInput(f"folds must be between 2 and {n}, got {folds}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    chunks = np.array_split(order, folds)
    scores = []
    failures = {}
    for u in range(1, u_max + 1):
        sse = 0.0
        try:
            for test_idx in chunks:
                mask = np.ones(n, dtype=bool)
                mask[test_idx] = False
                train = RegressionData(data.x[mask], data.y[mask])
                fit = _fit_by_kind(kind, train, u, algo, settings)
                pred = fit.alpha_hat + data.x[test_idx] @ fit.beta_env.T
                sse += float(np.sum((data.y[test_idx] - pred) ** 2))
            scores.append(sse / n)
        except EnvestError as exc:
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
    if all(np.isnan(s) for s in scores):
        raise AllFitsFailed(f"every candidate dimension up to {u_max} failed")
    arr = np.array(scores)
    arr[np.isnan(arr)] = np.inf
    return DimensionSelection(u=int(np.argmin(arr)) + 1, scores=scores, failures=failures)
