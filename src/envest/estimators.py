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

Every estimate takes one path, samples -> ``_kind_scans`` -> ``_fits`` ->
``_estimate``:

* ``_kind_scans`` builds each sample's matrices (``_kind_pair``), checks
  them and builds the problem's one ``ObjectivePair`` (``_checked_pair``);
* ``_fits`` fits every pair, scores the J of each basis on its pair and
  returns one scan per pair, u -> (basis fit, J);
* ``_estimate`` assembles kind's estimates from a sample's moments and its
  fit at u.

The samples of one call are fitted together: the folds of a
cross-validation and, in ``simulate``, bootstrap replicates (the
replications of an experiment enter at ``_fits`` with their pairs).  A
single fit and a BIC scan are the batch of one sample (``_one_scan``).
``_fits`` is the only caller of the solvers and hands the pairs to their
cores, ``onedim.fit_many`` and ``grassmann._fit``; no estimator calls
``onedim.fit`` or ``grassmann.fit``, so a wrapper on either sees no
estimator fit.  The sequential solver finds each direction given the ones
before it, so its fit at u is the first u columns of its fit at any larger
u: with onedim or fg-warm, one sequential fit serves every candidate u < d
of a scan, and one ``onedim.fit_many`` call makes those of every sample,
solving their directions in lockstep.  fg-warm is that sequential fit
refined by the Grassmann optimizer.
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
# its scan start, fg-warm from the sequential fit (see _fits)
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


def _fits(checked, top, algo, settings):
    """One scan per (ObjectivePair, flags) in checked, the pairs all of one
    size d: u -> (basis fit of ``algo``, its J on the pair), for u = 1..top.

    This is the only caller of the solvers, and it looks them up on their
    modules at every call.  It calls the cores that take a pair,
    ``onedim.fit_many`` and ``grassmann._fit``: a wrapper on either sees
    every fit, while one on ``onedim.fit`` or ``grassmann.fit`` sees none,
    since those only check and build a pair of matrices for their core.
    It is also the only place where the package scores the J of a fitted
    basis.  Each fit carries its pair's flags after its own.  settings sets
    the solver's tolerance and cap; None means the preset of ``algo``.

    fg fits every u of every pair from its own scan start.  onedim makes
    one sequential fit at min(top, d - 1) per pair, when the first u < d is
    asked of any of them, and returns its first u columns; one
    ``onedim.fit_many`` call makes them all.  fg-warm makes the same
    sequential fits with the onedim preset and refines the first u columns
    with ``grassmann._fit`` started from them, so settings sets only the
    refinement; its wall time is the sequential fit's plus the
    refinement's.  u = d is fitted on its own, by a ``fit_many`` call of
    its one pair.  When a sequential fit stops with NoConvergence at
    direction k, every u from k + 1 to d - 1 raises that error and the u up
    to k keep the k directions accepted before it.
    """
    _check_algorithm(algo)
    if settings is None:
        settings = solver_settings(algo)
    pairs = [pair for pair, _ in checked]
    warm = algo == "fg-warm"
    sequential = ALGORITHMS["onedim"] if warm else settings
    shared = []  # per pair, its sequential fit or the error that stopped it

    def sequential_fit(i, u):
        if u == pairs[i].dim:  # fitted on its own
            return onedim.fit_many([pairs[i]], u, sequential)[0]
        if not shared:
            shared.extend(onedim.fit_many(pairs, min(top, pairs[i].dim - 1), sequential))
        outcome = shared[i]
        whole = outcome.partial if isinstance(outcome, NoConvergence) else outcome
        if isinstance(whole, EnvestError) or u > whole.basis.shape[1]:
            raise outcome
        return whole.leading(u)

    def scan(i, pair, flags):
        def fit(u):
            if algo == "fg":
                basis_fit = grassmann._fit(pair, u, settings)
            else:
                basis_fit = sequential_fit(i, u)
            if warm:
                start = basis_fit
                basis_fit = grassmann._fit(pair, u, replace(settings, start_strategy=start.basis))
                basis_fit.wall_time_seconds += start.wall_time_seconds
            basis_fit.diagnostics.extend(flags)
            return basis_fit, float(j_value(pair, basis_fit.basis))

        return fit

    return [scan(i, pair, flags) for i, (pair, flags) in enumerate(checked)]


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
    """(ObjectivePair, diagnostics) of one estimator's pair, checked.

    Both matrices are symmetrized and U-hat = (M + U) - M must have no
    materially negative eigenvalue.  The pair is built from M and U-hat;
    when that fails a definiteness check, M is shifted by
    ridge = 1e-8 tr(M)/d once and a ``Ridged`` flag is recorded.  The
    solvers fit this pair, and the final J of every basis is scored on it.
    """
    m = symmetrize(m)
    u_hat = symmetrize(symmetrize(m_plus_u) - m)
    lam = np.linalg.eigvalsh(u_hat)
    if lam[0] < -1e-8 * max(1.0, float(np.abs(lam).max())):
        raise InvalidUhat(
            f"U-hat has a materially negative eigenvalue ({float(lam[0]):.6g})"
        )
    try:
        return ObjectivePair.from_m_u(m, u_hat), []
    except NotPositiveDefinite:
        d = m.shape[0]
        ridge = 1e-8 * float(np.trace(m)) / d
        return ObjectivePair.from_m_u(symmetrize(m + ridge * np.eye(d)), u_hat), ["Ridged"]


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

    The moments are the covariance kit for the regression kinds and
    (ybar, S_Y, B0) for the mean kinds: B0 is None for the mean, and for the
    constrained mean spans the complement of 1, where its reduced pair
    lives.  kind, data and p1 must pass _problem_dimension.
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
        return s_y, symmetrize(s_y + np.outer(ym, ym)), (ym, s_y, None)
    r = ym.shape[0]
    ones = np.ones((r, 1)) / np.sqrt(r)
    b0 = orthonormal_complement(ones)  # r x (r-1); B0'Q1 = B0'
    m_red = symmetrize(b0.T @ s_y @ b0)
    mu_red = b0.T @ ym
    return m_red, symmetrize(m_red + np.outer(mu_red, mu_red)), (ym, s_y, b0)


def _split_covariance(s, p_g, q_g):
    """P S P + Q S Q: S with its blocks between span(P) and span(Q) dropped."""
    return symmetrize(p_g @ s @ p_g + q_g @ s @ q_g)


def _regression_estimate(kind, kit, fit, objective, p1):
    """The response or partial envelope of a fitted basis, from its sample's
    covariance kit.

    The coefficients of the first p1 predictors are projected onto the
    fitted span and the rest are reported as least squares gives them; p1 =
    None projects every predictor's, which is the response envelope.
    """
    gamma = fit.basis
    p_g = gamma @ gamma.T
    q_g = np.eye(kit.s_y.shape[0]) - p_g
    beta_ols = kit.beta_ols  # r x p, all predictors
    beta_env = p_g @ beta_ols[:, :p1]
    beta_full = beta_ols.copy()
    beta_full[:, :p1] = beta_env
    return EnvelopeRegressionFit(
        kind=kind,
        fit=fit,
        beta_env=beta_env,
        beta_ols=beta_ols,
        sigma_env=_split_covariance(kit.s_y_given_x, p_g, q_g),
        alpha_hat=kit.y_mean - beta_full @ kit.x_mean,
        objective=objective,
        p1=p1,
    )


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


def _mean_estimate(kind, moments, fit, objective):
    """The mean or constrained mean envelope of a fitted basis, from its
    sample's (ybar, S_Y, B0).

    B0 is None for the mean.  For the constrained mean the basis was fitted
    in span(B0) and is mapped up as B0 Gamma, orthonormal and orthogonal to
    1, and both the classical mean and the complement of the fitted span are
    taken within the constrained space, the image of Q1 = I - 11'/r.
    """
    ym, s_y, b0 = moments
    r = ym.shape[0]
    if b0 is None:
        q, mean = np.eye(r), ym
    else:
        fit.basis = b0 @ fit.basis
        q = np.eye(r) - np.ones((r, r)) / r
        mean = q @ ym
    gamma = fit.basis
    p_g = gamma @ gamma.T
    return EnvelopeRegressionFit(
        kind=kind,
        fit=fit,
        beta_env=(p_g @ ym)[:, None],
        beta_ols=mean[:, None],
        sigma_env=_split_covariance(s_y, p_g, q - p_g),
        alpha_hat=ym,
        objective=objective,
    )


def _kind_scans(kind, samples, top, algo, settings, p1=None):
    """kind's (moments, scan) on each sample, or the package error that stopped it.

    samples are zero-argument callables that build one RegressionData each;
    the scans are those of ``_fits``, their fits made together.  kind and p1
    must pass ``_problem_dimension`` for the samples.
    """
    built = []
    for sample in samples:
        try:
            m, m_plus_u, moments = _kind_pair(kind, sample(), p1)
            built.append((moments, _checked_pair(m, m_plus_u)))
        except EnvestError as exc:  # this sample's pair fails every u alike
            built.append(exc)
    ok = [b for b in built if not isinstance(b, EnvestError)]
    scans = iter(_fits([checked for _, checked in ok], top, algo, settings))
    return [b if isinstance(b, EnvestError) else (b[0], next(scans)) for b in built]


def _one_scan(kind, data, top, algo, settings, p1=None, name="u"):
    """kind's (moments, scan) on data alone, up to top: ``_kind_scans`` of one
    sample, after the checks of kind, p1 and top, raising its pair's error."""
    _require_dimension(top, _problem_dimension(kind, data, p1), name)
    (scanned,) = _kind_scans(kind, [lambda: data], top, algo, settings, p1)
    if isinstance(scanned, EnvestError):
        raise scanned
    return scanned


def _estimate(kind, moments, scan, u, p1=None):
    """kind's estimator at u from a (moments, scan) of ``_kind_scans``; p1 is
    read for the partial kind only."""
    fit, objective = scan(u)
    if kind == "predictor":
        return _predictor_estimate(moments, fit, objective)
    if kind == "response":
        p1 = None  # every predictor's coefficients are projected
    if kind in KINDS_WITH_X:
        return _regression_estimate(kind, moments, fit, objective, p1)
    return _mean_estimate(kind, moments, fit, objective)


def response_envelope(data, u, algo="onedim", settings=None):
    """Envelope for the response space of Y = alpha + beta X + error.

    M = S_{Y|X}, M + U = S_Y.  The coefficient estimate projects ordinary
    least squares onto the fitted span, and the error covariance estimate
    is P S_{Y|X} P + Q S_{Y|X} Q with P the span projector and Q = I - P.
    """
    return _estimate("response", *_one_scan("response", data, u, algo, settings), u)


def partial_envelope(data, p1, u, algo="onedim", settings=None):
    """Envelope for the coefficients of the first p1 predictors only.

    The pair is M = S_{Y|X} and M + U = S_{Y|X2}, X2 being the remaining
    predictors, which equals the response-envelope pair computed from the
    residuals of Y and X1 on X2.  Only the X1 coefficient block is
    projected; the X2 block is reported untouched inside beta_ols.
    """
    return _estimate("partial", *_one_scan("partial", data, u, algo, settings, p1), u, p1)


def predictor_envelope(data, u, algo="onedim", settings=None):
    """Envelope in the predictor space (the regression analogue of PLS).

    M = S_{X|Y}, M + U = S_X.  The coefficient matrix is post-multiplied by
    the transpose of the S_X-metric projection onto the fitted span, which
    collapses immaterial predictor variation out of the estimate.
    """
    return _estimate("predictor", *_one_scan("predictor", data, u, algo, settings), u)


def mean_envelope(y, u, algo="onedim", settings=None):
    """Envelope for a multivariate mean: M = S_Y, U = ybar ybar'.

    The projected mean lands in beta_env's single column; alpha_hat is the
    raw sample mean for reference.
    """
    return _estimate("mean", *_one_scan("mean", RegressionData(None, y), u, algo, settings), u)


def constrained_mean_envelope(y, u, algo="onedim", settings=None):
    """Mean envelope under the constraint that deviations sum to zero.

    With Q1 = I - 11'/r, the pair (Q1 S_Y Q1, Q1 ybar ybar' Q1) is singular
    along the ones direction, so the fit runs in an orthonormal basis B0 of
    the complement of span(1) and the (r-1)-dimensional result is mapped
    back as B0 Gamma.  u can be at most r - 1.
    """
    scanned = _one_scan("constrained-mean", RegressionData(None, y), u, algo, settings)
    return _estimate("constrained-mean", *scanned, u)


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
    _fits); the scores equal those of a separate fit per u.  scores
    has one entry per candidate u (NaN when that fit failed); every
    candidate failing raises AllFitsFailed.
    """
    _, scan = _one_scan(kind, data, u_max, algo, settings, p1, "u_max")
    d = _problem_dimension(kind, data, p1)
    n = data.n

    def score(u):
        _, objective = scan(u)
        return n * objective + np.log(n) * u * (d - u)

    return _select(u_max, score)


def select_dimension_cv(
    data, kind, u_max, folds=5, algo="onedim", settings=None, seed=0
):
    """Pick u by k-fold cross-validated squared prediction error.

    Only kinds that predict Y from X participate (response, predictor).
    The fold split is one seeded permutation shared by all candidate u.
    Each fold builds its covariance kit and pair once and scans them as BIC
    does, so with onedim or fg-warm it makes one sequential fit, and the
    folds' fits are made together (see _kind_scans); the scores equal those
    of a separate estimator fit per u and fold.  scores are mean
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

    def training(test_idx):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        return lambda: RegressionData(data.x[mask], data.y[mask])

    scans = _kind_scans(kind, [training(t) for t in chunks], u_max, algo, settings)

    def score(u):
        sse = 0.0
        for test_idx, scan in zip(chunks, scans):
            if isinstance(scan, EnvestError):
                raise scan
            fit = _estimate(kind, *scan, u)
            pred = fit.alpha_hat + data.x[test_idx] @ fit.beta_env.T
            sse += float(np.sum((data.y[test_idx] - pred) ** 2))
        return sse / n

    return _select(u_max, score)
