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

Each estimator checks its kind in ``_problem_dimension``, builds its pair
in ``_kind_pair``, fits it in ``_fit_basis`` and assembles its estimates.
A dimension scan (BIC, and cross-validation on each fold) builds and checks
its pair once.  The sequential solver finds each direction given the ones
before it, so its fit at u is the first u columns of its fit at any larger
u: a scan with onedim or fg-warm makes one sequential fit and takes every
candidate's basis from it.  fg-warm is that sequential fit refined by the
Grassmann optimizer, written once in ``_sequential_fits``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import grassmann, onedim
from .errors import (
    AllFitsFailed,
    EnvestError,
    InvalidInput,
    InvalidUhat,
    NoConvergence,
    NotPositiveDefinite,
    SingularCovariance,
)
from .linalg import orthonormal_complement, project, symmetrize
from .objective import ObjectivePair, _require_dimension, j_value

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
# the kinds that regress Y on X, and those whose fit predicts Y from X
KINDS_WITH_X = ("response", "partial", "predictor")
PREDICTIVE_KINDS = ("response", "predictor")

# solver presets behind the algorithm names accepted by the estimators, the
# experiment harnesses and the command line; fg runs the full optimizer from
# its scan start, fg-warm from the sequential fit (see _sequential_fits)
ALGORITHMS = {
    "onedim": onedim.OneDimSettings(),
    "fg": grassmann.FgSettings(),
    "fg-warm": grassmann.FgSettings(),
}


def _check_algorithm(algo):
    if algo not in ALGORITHMS:
        raise InvalidInput(
            f"unknown algorithm {algo!r}; use one of {', '.join(ALGORITHMS)}"
        )


def solver_settings(algo, gradient_tol=None, max_iterations=None):
    """The preset settings of ``algo`` with its overrides applied.

    max_iterations caps the Newton iterations per direction for onedim and
    the trust-region iterations for fg and fg-warm; None keeps the preset value,
    as does a None gradient_tol.
    """
    _check_algorithm(algo)
    changes = {}
    if gradient_tol is not None:
        changes["gradient_tol"] = gradient_tol
    if max_iterations is not None:
        cap = "max_inner_iterations" if algo == "onedim" else "max_iterations"
        changes[cap] = max_iterations
    return replace(ALGORITHMS[algo], **changes)


def _solve(algo, m, u_hat, u, settings):
    """Fit (m, u_hat) with the solver that ``algo`` names.

    fg-warm is the sequential fit refined by grassmann.fit, from
    _sequential_fits.  The solvers are looked up on their modules at every
    call, so a wrapper installed on ``onedim.fit`` or ``grassmann.fit``
    sees every fit.
    """
    _check_algorithm(algo)
    if algo == "fg-warm":
        return _sequential_fits(m, u_hat, u, algo, settings)(u)
    solver = onedim if algo == "onedim" else grassmann
    return solver.fit(m, u_hat, u, settings)


def _sequential_fits(m, u_hat, top, algo, settings):
    """u -> basis fit of ``algo`` for u = 1..top, from one sequential fit at top.

    onedim returns the first u columns of its fit with these settings.
    fg-warm fits the sequence with the default OneDimSettings and refines
    the first u columns with grassmann.fit started from them, so settings
    sets only the refinement's tolerance and cap; its wall time is the
    sequential fit's plus the refinement's.  When the sequential fit stops
    with NoConvergence at direction k, every u above k raises that error
    and the u up to k keep the k directions accepted before it.
    """
    warm = algo == "fg-warm"
    try:
        sequential = onedim.fit(
            m, u_hat, top, onedim.OneDimSettings() if warm else settings
        )
        error = None
    except NoConvergence as exc:
        sequential, error = exc.partial, exc

    def fit(u):
        if u > sequential.basis.shape[1]:
            raise error
        basis_fit = sequential.leading(u)
        if not warm:
            return basis_fit
        refined = grassmann.fit(
            m, u_hat, u, replace(settings, start_strategy=basis_fit.basis)
        )
        refined.wall_time_seconds += basis_fit.wall_time_seconds
        return refined

    return fit


def _sample_matrix(a, name):
    """a as a finite float matrix with one row per case; a vector is one column."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be a 1- or 2-dimensional array")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} must be finite")
    return a


@dataclass
class RegressionData:
    """Paired predictor/response samples, rows aligned.

    x may arrive one-dimensional (reshaped to a single column) or be None
    entirely for the mean-only kinds.
    """

    x: np.ndarray | None
    y: np.ndarray

    def __post_init__(self):
        self.y = _sample_matrix(self.y, "y")
        if self.n < 2:
            raise InvalidInput("need at least two observations")
        if self.x is None:
            return
        self.x = _sample_matrix(self.x, "x")
        if self.x.shape[0] != self.n:
            raise InvalidInput(f"x has {self.x.shape[0]} rows but y has {self.n}")

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

    @property
    def beta_ols(self):
        """Ordinary least squares coefficients of Y on X, r x p."""
        return np.linalg.solve(self.s_x, self.s_xy).T


def _conditional(s_a, s_ab, s_b, label):
    """S_{A|B} = S_A - S_AB S_B^{-1} S_BA with a singularity check on S_B."""
    try:
        c = np.linalg.cholesky(s_b)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"sample covariance of {label} is singular") from exc
    half = np.linalg.solve(c, s_ab.T)
    return symmetrize(s_a - half.T @ half)


def _moments(a):
    """Column means, centered columns and divisor-n covariance of a sample."""
    mean = a.mean(axis=0)
    centered = a - mean
    return mean, centered, symmetrize(centered.T @ centered / a.shape[0])


def covariance_kit(data):
    """All covariance blocks the estimators need, in one pass."""
    if data.x is None:
        raise InvalidInput("this operation needs predictors, but x is missing")
    n = data.n
    xm, xc, s_x = _moments(data.x)
    ym, yc, s_y = _moments(data.y)
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


def _checked_pair(m, m_plus_u):
    """(M, U-hat, ObjectivePair, diagnostics) of one estimator's pair, checked.

    Both matrices are symmetrized and U-hat = (M + U) - M must have no
    materially negative eigenvalue.  When M fails the definiteness check,
    both matrices are shifted by ridge = 1e-8 tr(M)/d once and a ``Ridged``
    flag is recorded.  The pair feeds the final J of every basis fitted to it.
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
    return m, u_hat, pair, diagnostics


def _fit_checked_pair(checked, u, algo, settings):
    """(basis fit, objective) of a u-dimensional basis for a _checked_pair.

    The algo string alone picks the solver and its start; a settings object
    sets its tolerance and cap, and None means the preset of ``algo``.
    """
    m, u_hat, pair, diagnostics = checked
    if settings is None:
        settings = solver_settings(algo)
    fit = _solve(algo, m, u_hat, u, settings)
    fit.diagnostics.extend(diagnostics)
    return fit, float(j_value(pair, fit.basis))


def _fit_basis(m, m_plus_u, u, algo, settings):
    """Check one estimator's pair and fit a u-dimensional basis to it."""
    return _fit_checked_pair(_checked_pair(m, m_plus_u), u, algo, settings)


def _basis_scan(checked, u_max, algo, settings):
    """fit(u) -> (basis fit, objective) for the candidates u = 1..u_max of a scan.

    Each fit equals _fit_checked_pair's at u.  For onedim and fg-warm one
    _sequential_fits at top = min(u_max, d - 1) serves every u up to top.
    u = d, and fg, whose scan start depends on u, are fitted on their own.
    """
    _check_algorithm(algo)
    m, u_hat, pair, diagnostics = checked
    if settings is None:
        settings = solver_settings(algo)
    top = 0 if algo == "fg" else min(u_max, m.shape[0] - 1)
    nested = _sequential_fits(m, u_hat, top, algo, settings) if top else None

    def fit(u):
        if u > top:
            basis_fit = _solve(algo, m, u_hat, u, settings)
        else:
            basis_fit = nested(u)
        basis_fit.diagnostics.extend(diagnostics)
        return basis_fit, float(j_value(pair, basis_fit.basis))

    return fit


def _problem_dimension(kind, data, p1=None):
    """Dimension d of kind's problem on data, after the checks of kind, x and p1."""
    if kind not in KINDS:
        raise InvalidInput(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind in KINDS_WITH_X and data.x is None:
        raise InvalidInput(f"{kind} kind needs x")
    if kind == "partial":
        if p1 is None:
            raise InvalidInput("partial kind needs p1")
        _require_dimension(p1, data.x.shape[1], "p1")
    if kind == "predictor":
        return data.x.shape[1]
    r = data.y.shape[1]
    return r - 1 if kind == "constrained-mean" else r


def _kind_pair(kind, data, p1=None):
    """(M, M + U) of kind's problem on data, plus the moments its assembly reads.

    The moments are the covariance kit for the regression kinds, (ybar, S_Y)
    for the mean and (ybar, S_Y, B0) for the constrained mean, whose reduced
    pair lives in span(B0).  kind, data and p1 must pass _problem_dimension.
    """
    if kind in KINDS_WITH_X:
        kit = covariance_kit(data)
        if kind == "predictor":
            return kit.s_x_given_y, kit.s_x, kit
        if kind == "response" or p1 == kit.s_x.shape[0]:
            return kit.s_y_given_x, kit.s_y, kit
        # partial: M + U = S_{Y|X2}, X2 being the predictors after the first p1
        kit2 = covariance_kit(RegressionData(data.x[:, p1:], data.y))
        return kit.s_y_given_x, kit2.s_y_given_x, kit
    ym, _, s_y = _moments(data.y)
    if kind == "mean":
        return s_y, symmetrize(s_y + np.outer(ym, ym)), (ym, s_y)
    r = ym.shape[0]
    ones = np.ones((r, 1)) / np.sqrt(r)
    b0 = orthonormal_complement(ones)  # r x (r-1); B0'Q1 = B0'
    m_red = symmetrize(b0.T @ s_y @ b0)
    mu_red = b0.T @ ym
    return m_red, symmetrize(m_red + np.outer(mu_red, mu_red)), (ym, s_y, b0)


def _fit_kind_pair(kind, data, u, algo, settings, p1=None):
    """(moments, basis fit, objective) of kind's pair, after the checks."""
    _require_dimension(u, _problem_dimension(kind, data, p1))
    m, m_plus_u, moments = _kind_pair(kind, data, p1)
    fit, objective = _fit_basis(m, m_plus_u, u, algo, settings)
    return moments, fit, objective


def _split_covariance(s, p_g, q_g):
    """P S P + Q S Q: S with its blocks between span(P) and span(Q) dropped."""
    return symmetrize(p_g @ s @ p_g + q_g @ s @ q_g)


def response_envelope(data, u, algo="onedim", settings=None):
    """Envelope for the response space of Y = alpha + beta X + error.

    M = S_{Y|X}, M + U = S_Y.  The coefficient estimate projects ordinary
    least squares onto the fitted span, and the error covariance estimate
    is P S_{Y|X} P + Q S_{Y|X} Q with P the span projector and Q = I - P.
    """
    return _response_estimate(*_fit_kind_pair("response", data, u, algo, settings))


def _response_estimate(kit, fit, objective):
    """The response envelope of a fitted basis, from its sample's covariance kit."""
    gamma = fit.basis
    p_g = gamma @ gamma.T
    q_g = np.eye(kit.s_y.shape[0]) - p_g
    beta_ols = kit.beta_ols
    beta_env = p_g @ beta_ols
    return EnvelopeRegressionFit(
        kind="response",
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=_split_covariance(kit.s_y_given_x, p_g, q_g),
        alpha_hat=kit.y_mean - beta_env @ kit.x_mean,
        objective=objective,
    )


def partial_envelope(data, p1, u, algo="onedim", settings=None):
    """Envelope for the coefficients of the first p1 predictors only.

    The pair is M = S_{Y|X} and M + U = S_{Y|X2}, X2 being the remaining
    predictors, which equals the response-envelope pair computed from the
    residuals of Y and X1 on X2.  Only the X1 coefficient block is
    projected; the X2 block is reported untouched inside beta_ols.
    """
    kit, fit, objective = _fit_kind_pair("partial", data, u, algo, settings, p1)
    gamma = fit.basis
    r = kit.s_y.shape[0]
    beta_ols = kit.beta_ols  # r x p, all predictors
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
    return _predictor_estimate(*_fit_kind_pair("predictor", data, u, algo, settings))


def _predictor_estimate(kit, fit, objective):
    """The predictor envelope of a fitted basis, from its sample's covariance kit."""
    beta_ols = kit.beta_ols  # r x p
    proj = project(fit.basis, metric=kit.s_x)  # p x p, S_X inner product
    beta_env = beta_ols @ proj.T
    return EnvelopeRegressionFit(
        kind="predictor",
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=symmetrize(kit.s_y - beta_env @ kit.s_x @ beta_env.T),
        alpha_hat=kit.y_mean - beta_env @ kit.x_mean,
        objective=objective,
    )


def mean_envelope(y, u, algo="onedim", settings=None):
    """Envelope for a multivariate mean: M = S_Y, U = ybar ybar'.

    The projected mean lands in beta_env's single column; alpha_hat is the
    raw sample mean for reference.
    """
    data = RegressionData(None, y)
    (ym, s_y), fit, objective = _fit_kind_pair("mean", data, u, algo, settings)
    gamma = fit.basis
    p_g = gamma @ gamma.T
    q_g = np.eye(ym.shape[0]) - p_g
    return EnvelopeRegressionFit(
        kind="mean",
        fit=fit,
        beta_env=(p_g @ ym)[:, None],
        beta_ols=ym[:, None],
        sigma_env=_split_covariance(s_y, p_g, q_g),
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
    data = RegressionData(None, y)
    (ym, s_y, b0), fit, objective = _fit_kind_pair("constrained-mean", data, u, algo, settings)
    gamma = b0 @ fit.basis  # r x u, orthonormal and orthogonal to 1
    fit.basis = gamma
    r = ym.shape[0]
    p_g = gamma @ gamma.T
    q1 = np.eye(r) - np.ones((r, r)) / r
    q_g = q1 - p_g  # complement within the constrained space
    return EnvelopeRegressionFit(
        kind="constrained-mean",
        fit=fit,
        beta_env=(p_g @ ym)[:, None],
        beta_ols=(q1 @ ym)[:, None],
        sigma_env=_split_covariance(s_y, p_g, q_g),
        alpha_hat=ym,
        objective=objective,
    )


def _fit_by_kind(kind, data, u, algo, settings, p1=None):
    """The estimator of kind, fitted to data.

    Estimators are read as module globals at call time, so that a wrapper
    installed on one (a tracer, a test double) sees the fit.
    """
    _problem_dimension(kind, data, p1)
    if kind == "response":
        return response_envelope(data, u, algo, settings)
    if kind == "partial":
        return partial_envelope(data, p1, u, algo, settings)
    if kind == "predictor":
        return predictor_envelope(data, u, algo, settings)
    if kind == "mean":
        return mean_envelope(data.y, u, algo, settings)
    return constrained_mean_envelope(data.y, u, algo, settings)


@dataclass
class DimensionSelection:
    """Outcome of a dimension scan: chosen u, per-u scores, any failures."""

    u: int
    scores: list
    failures: dict = field(default_factory=dict)


def _select(u_max, score):
    """Pick the u in 1..u_max with the smallest score, smaller u winning ties.

    A package error from score(u) is recorded as a NaN score and a failure
    reason; every candidate failing raises AllFitsFailed.
    """
    scores = []
    failures = {}
    for u in range(1, u_max + 1):
        try:
            scores.append(score(u))
        except EnvestError as exc:  # recorded, not fatal
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
    if all(np.isnan(s) for s in scores):
        raise AllFitsFailed(f"every candidate dimension up to {u_max} failed")
    arr = np.array(scores)
    arr[np.isnan(arr)] = np.inf
    return DimensionSelection(u=int(np.argmin(arr)) + 1, scores=scores, failures=failures)


def select_dimension_bic(data, kind, u_max, algo="onedim", settings=None, p1=None):
    """Pick u by n J_n(fit) + log(n) u (d - u), smaller u winning ties.

    The pair is built and checked once, so a pair that cannot be built or
    fails its checks raises its own error.  With onedim or fg-warm one
    sequential fit at min(u_max, d - 1) gives every candidate's basis (see
    _basis_scan); the scores equal those of a separate fit per u.  scores
    has one entry per candidate u (NaN when that fit failed); every
    candidate failing raises AllFitsFailed.
    """
    d = _problem_dimension(kind, data, p1)
    _require_dimension(u_max, d, "u_max")
    m, m_plus_u, _ = _kind_pair(kind, data, p1)
    fits = _basis_scan(_checked_pair(m, m_plus_u), u_max, algo, settings)
    n = data.n

    def score(u):
        _, objective = fits(u)
        return n * objective + np.log(n) * u * (d - u)

    return _select(u_max, score)


def select_dimension_cv(
    data, kind, u_max, folds=5, algo="onedim", settings=None, seed=0
):
    """Pick u by k-fold cross-validated squared prediction error.

    Only kinds that predict Y from X participate (response, predictor).
    The fold split is one seeded permutation shared by all candidate u.
    Each fold builds its covariance kit and pair once and scans them as BIC
    does, so with onedim or fg-warm it makes one sequential fit; the scores
    equal those of a separate estimator fit per u and fold.  scores are mean
    squared prediction errors per observation and ties go to the smaller u.
    """
    if kind not in PREDICTIVE_KINDS:
        raise InvalidInput(
            f"cross-validation needs a predictive kind, not {kind!r}"
        )
    _require_dimension(u_max, _problem_dimension(kind, data), "u_max")
    n = data.n
    if not (2 <= folds <= n):
        raise InvalidInput(f"folds must be between 2 and {n}, got {folds}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    chunks = np.array_split(order, folds)
    assemble = _response_estimate if kind == "response" else _predictor_estimate

    def fold_scan(test_idx):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train = RegressionData(data.x[mask], data.y[mask])
        m, m_plus_u, kit = _kind_pair(kind, train)
        return kit, _basis_scan(_checked_pair(m, m_plus_u), u_max, algo, settings)

    scans = []
    for test_idx in chunks:
        try:
            scans.append(fold_scan(test_idx))
        except EnvestError as exc:  # the fold's pair fails every u alike
            scans.append(exc)

    def score(u):
        sse = 0.0
        for test_idx, scan in zip(chunks, scans):
            if isinstance(scan, EnvestError):
                raise scan
            kit, fits = scan
            fit = assemble(kit, *fits(u))
            pred = fit.alpha_hat + data.x[test_idx] @ fit.beta_env.T
            sse += float(np.sum((data.y[test_idx] - pred) ** 2))
        return sse / n

    return _select(u_max, score)
