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

Every estimate takes one path, for a batch of samples at once (a single
fit and a BIC scan are the batch of one, ``_one_scan``), through
``_Scans``:

* ``_sample_moments`` reduces each sample to its means and covariances,
  the only O(n d^2) work on a sample; the sample is built, reduced and
  dropped before the next is built, so one sample's data is held at a time;
* ``_kind_pairs`` makes every sample's (M, M + U) from the moments, its
  conditional covariances with their singularity checks;
* ``_checked_pairs`` builds each sample's one ``ObjectivePair`` from M and
  U-hat = (M + U) - M, with its ``Ridged`` retry; ``objective._pairs``
  makes every check of the pair, U-hat >= 0 included;
* ``_fits`` fits every pair, scores every basis's J on its pair in one
  stacked pass and returns, per pair and u, (basis fit, J);
* ``_estimates`` assembles kind's estimates from the moments and the fits
  at u.

Everything after the moments is stacked: each step is one numpy call on
the stacked matrices of the batch, not one per sample.  Stacked matmul,
eigh, eigvalsh, Cholesky and solve give each matrix the bits of a call of
its own, so each sample keeps the bits it gets alone, and a sample that a
step stops (a singular covariance, a U-hat with a negative eigenvalue, a
pair that is not positive definite even after its ridge) gets its own
package error while the others go on: Cholesky verdicts are read per
matrix (``linalg._cholesky``), and each step hands the survivors to the
next (``linalg._fill``).

The samples of one call are fitted together: the folds of a
cross-validation and, in ``simulate``, bootstrap replicates (the
replications of an experiment enter at ``_fits`` with their pairs).
``_fits`` is the only caller of the solvers and hands the pairs to their
cores, ``onedim.fit_many`` and ``grassmann._fit``; no estimator calls
``onedim.fit`` or ``grassmann.fit``, so a wrapper on either sees no
estimator fit.  The sequential solver finds each direction given the ones
before it, so its fit at u is the first u columns of its fit at any larger
u: with onedim or fg-warm, one sequential fit serves every candidate u < d
of a scan, and one ``onedim.fit_many`` call makes those of every sample,
solving their directions in lockstep.  fg-warm is that sequential fit,
stopped at a gradient of the square root of the refinement's tolerance,
refined by the Grassmann optimizer.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import convert, grassmann, onedim
from .errors import (
    AllFitsFailed,
    EnvestError,
    InvalidInput,
    NoConvergence,
    NotPositiveDefinite,
    SingularCovariance,
    SingularGram,
)
from .linalg import (
    _cholesky, _errors, _fill, _one, _projections, _symmetrize, orthonormal_complement,
)
from .objective import _j_values, _pairs

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


def solver_settings(algo, gradient_tol=None, max_iterations=None):
    """The preset settings of ``algo`` with its overrides applied.

    Both presets name their fields alike: max_iterations caps the Newton
    iterations per direction for onedim and the trust-region iterations for
    fg and fg-warm.  An override of None keeps the preset value.
    """
    algo = convert.choice(algo, ALGORITHMS, "algorithm")
    changes = {"gradient_tol": gradient_tol, "max_iterations": max_iterations}
    return replace(ALGORITHMS[algo], **{k: v for k, v in changes.items() if v is not None})


def _solver(algo, settings):
    """algo and its settings, converted; settings None is algo's preset."""
    algo = convert.choice(algo, ALGORITHMS, "algorithm")
    return algo, convert.settings(settings, ALGORITHMS[algo], algo)


def _fits(checked, top, algo, settings):
    """The fits of ``algo`` on the pairs of checked, made together.

    checked holds (ObjectivePair, flags), the pairs all of one size d.
    Returns a function of u = 1..top that gives, per pair, its (basis fit,
    J of the basis on the pair) at u, or the package error that stopped it.

    This is the only caller of the solvers, and it looks them up on their
    modules at every call.  It calls the cores that take a pair,
    ``onedim.fit_many`` and ``grassmann._fit``: a wrapper on either sees
    every fit, while one on ``onedim.fit`` or ``grassmann.fit`` sees none,
    since those only check and build a pair of matrices for their core.
    It is also the only place where the package scores the J of a fitted
    basis, of every algorithm and pair in one stacked pass (``_scored``):
    fg's reported basis is its optimizer's with column signs pinned, which
    leaves the bits of J, in ``objective_values``, as they are.  Each fit
    carries its pair's flags after its own.  settings sets the solver's
    tolerance and cap; None means the preset of ``algo``.  Settings that
    fail ``convert.settings`` for that preset raise InvalidInput.

    fg fits every u of every pair from its own scan start.  onedim makes
    one sequential fit at min(top, d - 1) per pair, when the first u < d is
    asked, and returns its first u columns; one ``onedim.fit_many`` call
    makes them all.  fg-warm makes the same sequential fits with the onedim
    preset stopped at a gradient of sqrt(settings.gradient_tol) (1e-4 at
    fg's preset) and passes the first u columns to ``grassmann._fit`` as
    its start.  A start only has to lie in the refinement's basin,
    and there a Newton step takes a gradient of sqrt(tol) to about tol, so
    settings sets the refinement and, through its tolerance, the start; its
    wall time is the sequential fit's plus the refinement's.  u = d is
    fitted on its own, by a ``fit_many`` call of the pairs at d.  When a
    sequential fit stops with NoConvergence at direction k, every u from
    k + 1 to d - 1 gets that error and the u up to k keep the k directions
    accepted before it.
    """
    algo, settings = _solver(algo, settings)
    pairs = [pair for pair, _ in checked]
    warm = algo == "fg-warm"
    sequential = (
        replace(ALGORITHMS["onedim"], gradient_tol=math.sqrt(settings.gradient_tol))
        if warm
        else settings
    )
    shared = []  # per pair, its sequential fit or the error that stopped it

    def sequential_fits(u):
        if u == pairs[0].dim:  # fitted on its own
            return onedim.fit_many(pairs, u, sequential)
        if not shared:
            shared.extend(onedim.fit_many(pairs, min(top, pairs[0].dim - 1), sequential))
        out = []
        for outcome in shared:
            whole = outcome.partial if isinstance(outcome, NoConvergence) else outcome
            if isinstance(whole, EnvestError) or u > whole.basis.shape[1]:
                out.append(outcome)
            else:
                out.append(whole.leading(u))
        return out

    def refined(pair, u, start):
        # the Grassmann fit from the scan (start None) or from a sequential fit
        try:
            if start is None:
                return grassmann._fit(pair, u, settings)
            fit = grassmann._fit(pair, u, settings, start.basis)
        except EnvestError as exc:
            return exc
        fit.wall_time_seconds += start.wall_time_seconds
        return fit

    def fits(u):
        if not pairs:
            return []
        if algo == "fg":
            fitted = [refined(pair, u, None) for pair in pairs]
        else:
            fitted = sequential_fits(u)
            if warm:
                fitted = [
                    start if isinstance(start, EnvestError) else refined(pair, u, start)
                    for pair, start in zip(pairs, fitted)
                ]
        for fit, (_, flags) in zip(fitted, checked):
            if not isinstance(fit, EnvestError):
                fit.diagnostics.extend(flags)
        return _scored(pairs, fitted)

    return fits


def _scored(pairs, fitted):
    """(fit, J of its basis on its pair) per fit of fitted, the fits that are
    not package errors scored in one stacked pass (``_fill``); a basis
    whose Gram matrix is not positive definite gets SingularGram."""

    def scores(rows):
        values, singular = _j_values(
            np.array([pairs[i].m for i in rows]),
            np.array([pairs[i].m_plus_u_inv for i in rows]),
            np.array([fitted[i].basis for i in rows]),
        )
        return [
            SingularGram("Gram matrix is not positive definite") if bad else (fitted[i], value)
            for i, value, bad in zip(rows, values.tolist(), singular.tolist())
        ]

    return _fill(_errors(fitted), scores)


@dataclass
class RegressionData:
    """Paired predictor/response samples, rows aligned.

    x may arrive one-dimensional (reshaped to a single column) or be None
    entirely for the mean-only kinds; ``convert.samples`` checks both.
    """

    x: np.ndarray | None
    y: np.ndarray

    def __post_init__(self):
        self.x, self.y = convert.samples(self.x, self.y)

    @property
    def n(self):
        return self.y.shape[0]


@dataclass
class CovarianceKit:
    """Divisor-n moment summaries of one regression sample, or of a batch of
    samples, each field then stacking theirs along a leading axis."""

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
        return np.linalg.solve(self.s_x, self.s_xy).swapaxes(-1, -2)


def _conditionals(s_a, s_ab, s_b):
    """S_{A|B} = S_A - S_AB S_B^{-1} S_BA of each sample of the stacks, and
    a mask of the samples whose S_B fails the Cholesky test as singular."""
    c, singular = _cholesky(s_b)
    c[singular] = np.eye(s_b.shape[1])  # stand-ins that solve; their samples fail
    half = np.linalg.solve(c, s_ab.swapaxes(1, 2))
    return _symmetrize(s_a - half.swapaxes(1, 2) @ half), singular


def _moments(a, name):
    """Column means, centered columns and divisor-n covariance of a sample;
    InvalidInput when the covariance overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = a.mean(axis=0)
        centered = a - mean
        s = centered.T @ centered / a.shape[0]
    if not np.isfinite(s).all():
        raise InvalidInput(f"sample covariance of {name} overflows float64")
    return mean, centered, _symmetrize(s)


def _sample_moments(kind, data, p1=None):
    """The moments of one sample that kind's pair and estimates read.

    They are the only O(n d^2) work on a sample: ``_kind_pairs`` takes the
    rest from them, for a batch of samples at once.  For the mean kinds
    they are (ybar, S_Y); for the regression kinds (xbar, ybar, S_X, S_Y,
    S_XY, n), and for the partial kind with p1 < p also S_X2 and S_X2Y of
    the predictors X2 after the first p1.
    """
    if kind not in KINDS_WITH_X:
        ym, _, s_y = _moments(data.y, "Y")
        return ym, s_y
    n = data.n
    xm, xc, s_x = _moments(data.x, "X")
    ym, yc, s_y = _moments(data.y, "Y")
    moments = (xm, ym, s_x, s_y, xc.T @ yc / n, n)
    if kind != "partial" or p1 == data.x.shape[1]:
        return moments
    _, x2c, s_x2 = _moments(data.x[:, p1:], "X")
    return moments + (s_x2, x2c.T @ yc / n)


def _kind_pairs(kind, moments, p1=None):
    """kind's pairs on a batch of samples, from their ``_sample_moments``.

    Returns the stacks of M and M + U, the moments that kind's estimates
    read, stacked, and per sample the SingularCovariance that stops its
    pair, or None.  The estimates read a stacked CovarianceKit for the
    regression kinds and (ybar, S_Y, B0) for the mean kinds: B0 is None for
    the mean, and for the constrained mean spans the complement of 1,
    where its reduced pair lives.  Each step is one call on the stacks.
    A mean whose outer product overflows float64 leaves M + U non-finite,
    which ``objective._pairs`` rejects.
    """
    stacks = [np.array(column) for column in zip(*moments)]
    if kind not in KINDS_WITH_X:
        ym, s_y = stacks
        fine = [None] * len(ym)
        if kind == "mean":
            with np.errstate(over="ignore"):
                m_plus_u = _symmetrize(s_y + ym[:, :, None] * ym[:, None, :])
            return s_y, m_plus_u, (ym, s_y, None), fine
        r = ym.shape[1]
        b0 = orthonormal_complement(np.ones((r, 1)) / np.sqrt(r))  # r x (r-1); B0'Q1 = B0'
        m_red = _symmetrize(b0.T @ s_y @ b0)
        mu_red = _matvec(b0.T, ym)
        with np.errstate(over="ignore"):
            m_plus_u = _symmetrize(m_red + mu_red[:, :, None] * mu_red[:, None, :])
        return m_red, m_plus_u, (ym, s_y, b0), fine
    xm, ym, s_x, s_y, s_xy, n, *x2 = stacks
    s_y_given_x, singular_x = _conditionals(s_y, s_xy.swapaxes(1, 2), s_x)
    s_x_given_y, singular_y = _conditionals(s_x, s_xy, s_y)
    kit = CovarianceKit(xm, ym, s_x, s_y, s_xy, s_y_given_x, s_x_given_y, n)
    errors = [
        _singular("X") if bad_x else _singular("Y") if bad_y else None
        for bad_x, bad_y in zip(singular_x.tolist(), singular_y.tolist())
    ]
    if kind == "predictor":
        return s_x_given_y, s_x, kit, errors
    if not x2:
        return s_y_given_x, s_y, kit, errors
    # partial: M + U = S_{Y|X2}, X2 being the predictors after the first p1
    s_x2, s_x2y = x2
    s_y_given_x2, singular_x2 = _conditionals(s_y, s_x2y.swapaxes(1, 2), s_x2)
    errors = [
        error or (_singular("X") if bad else None)
        for error, bad in zip(errors, singular_x2.tolist())
    ]
    return s_y_given_x, s_y_given_x2, kit, errors


def _matvec(a, v):
    """``a[i] @ v[i]`` for each matrix of the stack a (or a itself, when
    2-d) and each row of v, with its bits."""
    return (a @ v[:, :, None])[:, :, 0]


def _singular(label):
    return SingularCovariance(f"sample covariance of {label} is singular")


def _take(moments, rows):
    """The moments of ``_kind_pairs`` at the places rows of their stacks."""
    if isinstance(moments, CovarianceKit):
        return CovarianceKit(*(getattr(moments, f.name)[rows] for f in fields(moments)))
    ym, s_y, b0 = moments
    return ym[rows], s_y[rows], b0


def covariance_kit(data):
    """All covariance blocks the estimators need, in one pass: the kit that
    ``_kind_pairs`` makes of this sample alone."""
    if convert.instance(data, RegressionData, "data").x is None:
        raise InvalidInput("this operation needs predictors, but x is missing")
    _, _, kit, (error,) = _kind_pairs("response", [_sample_moments("response", data)])
    if error is not None:
        raise error
    return _take(kit, 0)


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


def _checked_pairs(m, m_plus_u):
    """Per place of the stacks m and m_plus_u, one estimator's pair, checked:
    (ObjectivePair, diagnostics), or the package error that stops it.

    This is the estimators' policy only: M and M + U come exactly symmetric
    from ``_kind_pairs``, and ``objective._pairs`` builds the pair from M
    and U-hat = (M + U) - M and checks it, U-hat >= 0 included; when that
    fails a definiteness check, M is shifted by ridge = 1e-8 tr(M)/d once
    and a ``Ridged`` flag is recorded.  Each step is one call on the stacks,
    or on the places a step leaves to the next: every sample gets the
    outcome it gets alone.
    """
    u_hat = m_plus_u - m
    built = [pair if isinstance(pair, EnvestError) else (pair, []) for pair in _pairs(m, u_hat)]

    def ridged(rows):
        shifted = m[rows]
        d = shifted.shape[1]
        ridge = 1e-8 * np.trace(shifted, axis1=1, axis2=2) / d
        shifted = shifted + ridge[:, None, None] * np.eye(d)
        return [
            pair if isinstance(pair, EnvestError) else (pair, ["Ridged"])
            for pair in _pairs(shifted, u_hat[rows])
        ]

    return _fill([None if isinstance(b, NotPositiveDefinite) else b for b in built], ridged)


def _problem_dimension(kind, data, p1=None):
    """Dimension d of kind's problem on data, after the checks of kind, data,
    x and p1."""
    kind = convert.choice(kind, KINDS, "kind")
    if kind in KINDS_WITH_X and convert.instance(data, RegressionData, "data").x is None:
        raise InvalidInput(f"{kind} kind needs x")
    if kind == "partial":
        if p1 is None:
            raise InvalidInput("partial kind needs p1")
        convert.dimension(p1, data.x.shape[1], "p1")
    if kind == "predictor":
        return data.x.shape[1]
    r = data.y.shape[1]
    return r - 1 if kind == "constrained-mean" else r


def _split_covariance(s, p_g, q_g):
    """P S P + Q S Q: S with its blocks between span(P) and span(Q) dropped."""
    return _symmetrize(p_g @ s @ p_g + q_g @ s @ q_g)


def _estimates(kind, moments, fitted, p1=None):
    """kind's estimates of a batch of samples: per sample its
    EnvelopeRegressionFit or the package error that stops it.

    moments are those of ``_kind_pairs`` at the samples, stacked, and
    fitted their (basis fit, J) at one u.  Each step is one call on the
    stacks.  p1 is read for the partial kind only.
    """
    fits = [fit for fit, _ in fitted]
    objectives = [objective for _, objective in fitted]
    gamma = np.array([fit.basis for fit in fits])
    if kind == "predictor":
        return _predictor_estimates(moments, fits, objectives, gamma)
    if kind in KINDS_WITH_X:
        # the response kind projects every predictor's coefficients
        p1 = None if kind == "response" else p1
        return _regression_estimates(kind, moments, fits, objectives, gamma, p1)
    return _mean_estimates(kind, moments, fits, objectives, gamma)


def _regression_estimates(kind, kit, fits, objectives, gamma, p1):
    """The response or partial envelopes of fitted bases, from their
    samples' covariance kits, stacked.

    The coefficients of the first p1 predictors are projected onto the
    fitted span and the rest are reported as least squares gives them; p1 =
    None projects every predictor's, which is the response envelope.
    """
    p_g = gamma @ gamma.swapaxes(1, 2)
    q_g = np.eye(p_g.shape[1]) - p_g
    beta_ols = kit.beta_ols  # r x p, all predictors
    beta_env = p_g @ beta_ols[:, :, :p1]
    beta_full = beta_ols.copy()
    beta_full[:, :, :p1] = beta_env
    sigma_env = _split_covariance(kit.s_y_given_x, p_g, q_g)
    alpha_hat = kit.y_mean - _matvec(beta_full, kit.x_mean)
    return [
        EnvelopeRegressionFit(kind, *values, p1=p1)
        for values in zip(fits, beta_env, beta_ols, sigma_env, alpha_hat, objectives)
    ]


def _predictor_estimates(kit, fits, objectives, gamma):
    """The predictor envelopes of fitted bases, from their samples'
    covariance kits, stacked; a basis ``project`` rejects gets its error."""
    projections = _projections(gamma, kit.s_x)  # p x p each, S_X inner product

    def estimates(rows):
        k = _take(kit, rows)
        proj = np.array([projections[i] for i in rows])
        beta_ols = k.beta_ols  # r x p
        beta_env = beta_ols @ proj.swapaxes(1, 2)
        sigma_env = _symmetrize(k.s_y - beta_env @ k.s_x @ beta_env.swapaxes(1, 2))
        alpha_hat = k.y_mean - _matvec(beta_env, k.x_mean)
        return [
            EnvelopeRegressionFit("predictor", fits[i], *values, objectives[i])
            for i, *values in zip(rows, beta_env, beta_ols, sigma_env, alpha_hat)
        ]

    return _fill(_errors(projections), estimates)


def _mean_estimates(kind, moments, fits, objectives, gamma):
    """The mean or constrained mean envelopes of fitted bases, from their
    samples' (ybar, S_Y, B0), stacked.

    B0 is None for the mean.  For the constrained mean each basis was fitted
    in span(B0) and is mapped up as B0 Gamma, orthonormal and orthogonal to
    1, and both the classical mean and the complement of the fitted span are
    taken within the constrained space, the image of Q1 = I - 11'/r.
    """
    ym, s_y, b0 = moments
    r = ym.shape[1]
    if b0 is None:
        q, mean = np.eye(r), ym
    else:
        gamma = b0 @ gamma
        for fit, basis in zip(fits, gamma):
            fit.basis = basis
        q = np.eye(r) - np.ones((r, r)) / r
        mean = _matvec(q, ym)
    p_g = gamma @ gamma.swapaxes(1, 2)
    beta_env = p_g @ ym[:, :, None]
    sigma_env = _split_covariance(s_y, p_g, q - p_g)
    return [
        EnvelopeRegressionFit(kind, fit, env, ols, sigma, alpha, objective)
        for fit, env, ols, sigma, alpha, objective in zip(
            fits, beta_env, mean[:, :, None], sigma_env, ym, objectives
        )
    ]


# samples built and fitted at once by one _Scans: the folds of a
# cross-validation, bootstrap replicates, and in simulate the replications
# of an experiment; bounds the stacks of a batch, O(_PROBLEMS_PER_BATCH d^2)
# in memory
_PROBLEMS_PER_BATCH = 64


class _Scans:
    """kind's problems on a batch of samples, fitted together.

    samples are zero-argument callables that build one RegressionData each.
    Each is built, reduced to its ``_sample_moments`` and dropped, so only
    one sample's data is held at a time; everything after the moments is
    stacked across the batch: ``_kind_pairs``, ``_checked_pairs``, the fits
    and J of ``_fits`` and ``_estimates``, each a ``_fill`` of the samples
    no package error has stopped.  ``errors`` holds, per sample, the error
    that stopped its pair (it fails every u alike), or None; the fits and
    ``moments`` are those of the others, in order.  kind and p1 must pass
    ``_problem_dimension`` for the samples.
    """

    def __init__(self, kind, samples, top, algo, settings, p1=None):
        algo, settings = _solver(algo, settings)  # before any sample is built
        self.kind, self.p1 = kind, p1
        read = []
        for sample in samples:
            try:
                read.append(_sample_moments(kind, sample(), p1))
            except EnvestError as exc:
                read.append(exc)

        def pairs(places):
            m, m_plus_u, moments, errors = _kind_pairs(kind, [read[i] for i in places], p1)
            checked = _fill(errors, lambda rows: _checked_pairs(m[rows], m_plus_u[rows]))
            self.moments = _take(moments, [i for i, c in enumerate(_errors(checked)) if c is None])
            return checked

        checked = _fill(_errors(read), pairs)
        self.errors = _errors(checked)
        live = [c for c, error in zip(checked, self.errors) if error is None]
        self._fits = _fits(live, top, algo, settings)

    def fits(self, u):
        """Per sample, its (basis fit, J) at u, or the package error that stopped it."""
        return _fill(self.errors, lambda places: self._fits(u))

    def estimates(self, u):
        """Per sample, kind's estimate at u, or the package error that stopped it."""

        def estimates(places):
            fitted = self._fits(u)
            return _fill(_errors(fitted), lambda rows: _estimates(
                self.kind, _take(self.moments, rows), [fitted[i] for i in rows], self.p1
            ))

        return _fill(self.errors, estimates)


def _one_scan(kind, data, top, algo, settings, p1=None, name="u"):
    """kind's ``_Scans`` of data alone, up to top, after the checks of kind,
    p1 and top, raising its pair's error."""
    convert.dimension(top, _problem_dimension(kind, data, p1), name)
    scans = _Scans(kind, [lambda: data], top, algo, settings, p1)
    (error,) = scans.errors
    if error is not None:
        raise error
    return scans


def response_envelope(data, u, algo="onedim", settings=None):
    """Envelope for the response space of Y = alpha + beta X + error.

    M = S_{Y|X}, M + U = S_Y.  The coefficient estimate projects ordinary
    least squares onto the fitted span, and the error covariance estimate
    is P S_{Y|X} P + Q S_{Y|X} Q with P the span projector and Q = I - P.
    """
    return _one(_one_scan("response", data, u, algo, settings).estimates(u))


def partial_envelope(data, p1, u, algo="onedim", settings=None):
    """Envelope for the coefficients of the first p1 predictors only.

    The pair is M = S_{Y|X} and M + U = S_{Y|X2}, X2 being the remaining
    predictors, which equals the response-envelope pair computed from the
    residuals of Y and X1 on X2.  Only the X1 coefficient block is
    projected; the X2 block is reported untouched inside beta_ols.
    """
    return _one(_one_scan("partial", data, u, algo, settings, p1).estimates(u))


def predictor_envelope(data, u, algo="onedim", settings=None):
    """Envelope in the predictor space (the regression analogue of PLS).

    M = S_{X|Y}, M + U = S_X.  The coefficient matrix is post-multiplied by
    the transpose of the S_X-metric projection onto the fitted span, which
    collapses immaterial predictor variation out of the estimate.
    """
    return _one(_one_scan("predictor", data, u, algo, settings).estimates(u))


def mean_envelope(y, u, algo="onedim", settings=None):
    """Envelope for a multivariate mean: M = S_Y, U = ybar ybar'.

    The projected mean lands in beta_env's single column; alpha_hat is the
    raw sample mean for reference.
    """
    return _one(_one_scan("mean", RegressionData(None, y), u, algo, settings).estimates(u))


def constrained_mean_envelope(y, u, algo="onedim", settings=None):
    """Mean envelope under the constraint that deviations sum to zero.

    With Q1 = I - 11'/r, the pair (Q1 S_Y Q1, Q1 ybar ybar' Q1) is singular
    along the ones direction, so the fit runs in an orthonormal basis B0 of
    the complement of span(1) and the (r-1)-dimensional result is mapped
    back as B0 Gamma.  u can be at most r - 1.
    """
    scans = _one_scan("constrained-mean", RegressionData(None, y), u, algo, settings)
    return _one(scans.estimates(u))


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
    reason; every candidate failing raises AllFitsFailed, which names the
    smallest failing u's reason and chains its error as the cause.
    """
    scores = []
    failures = {}
    first = None  # the error of the smallest failing u
    for u in range(1, u_max + 1):
        try:
            scores.append(score(u))
        except EnvestError as exc:  # recorded, not fatal
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
            first = first or exc
    if all(np.isnan(s) for s in scores):
        message = f"every candidate dimension up to {u_max} failed"
        if failures:
            u = min(failures)
            message += f"; u = {u}: {failures[u]}"
        raise AllFitsFailed(message) from first
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
    scans = _one_scan(kind, data, u_max, algo, settings, p1, "u_max")
    d = _problem_dimension(kind, data, p1)
    n = data.n

    def score(u):
        _, objective = _one(scans.fits(u))
        return n * objective + np.log(n) * u * (d - u)

    return _select(u_max, score)


def select_dimension_cv(
    data, kind, u_max, folds=5, algo="onedim", settings=None, seed=0
):
    """Pick u by k-fold cross-validated squared prediction error.

    Only kinds that predict Y from X participate (response, predictor).
    The fold split is one seeded permutation shared by all candidate u.
    Each fold builds its moments and pair once and scans them as BIC does,
    so with onedim or fg-warm it makes one sequential fit, and the pairs,
    fits and estimates of up to ``_PROBLEMS_PER_BATCH`` folds are made
    together (see _Scans), so that memory does not grow with the number of
    folds; the scores equal those of a separate estimator fit per u and
    fold.  scores are mean squared prediction errors per observation, each
    u's summed in fold order, a u fails with the error of its first failing
    fold, and ties go to the smaller u.
    """
    kind = convert.choice(kind, PREDICTIVE_KINDS, "predictive kind")
    convert.dimension(u_max, _problem_dimension(kind, data), "u_max")
    n = data.n
    folds = convert.integer(folds, "folds", 2, n)
    rng = np.random.default_rng(convert.integer(seed, "seed"))
    order = rng.permutation(n)
    chunks = np.array_split(order, folds)

    def training(test_idx):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        return lambda: RegressionData(data.x[mask], data.y[mask])

    sse = [0.0] * (u_max + 1)  # per u, its squared errors so far
    failed = {}  # per u, the error of its first failing fold

    def add(batch):  # a function, so that a batch's scans is dropped before the next is built
        scans = _Scans(kind, [training(t) for t in batch], u_max, algo, settings)
        for u in range(1, u_max + 1):
            if u in failed:
                continue
            for test_idx, fit in zip(batch, scans.estimates(u)):
                if isinstance(fit, EnvestError):
                    failed[u] = fit
                    break
                pred = fit.alpha_hat + data.x[test_idx] @ fit.beta_env.T
                sse[u] += float(np.sum((data.y[test_idx] - pred) ** 2))

    for lo in range(0, folds, _PROBLEMS_PER_BATCH):
        add(chunks[lo:lo + _PROBLEMS_PER_BATCH])

    def score(u):
        if u in failed:
            raise failed[u]
        return sse[u] / n

    return _select(u_max, score)
