"""Sequential one-direction-at-a-time envelope solver.

The envelope basis is grown greedily: with g_1..g_k already accepted and
G_0k an orthonormal complement of their span, the next direction minimizes
the scale-invariant objective

    D_k(w) = log(w' M_k w) + log(w' (M_k + U_k)^{-1} w) - 2 log(w' w)

over w in R^{d-k}, where M_k and U_k are M and U compressed onto the
complement.  The accepted direction is G_0k w, so every step enlarges the
span by exactly one dimension and the whole run costs u small smooth
minimizations instead of one Grassmann program.

Each step is solved by a safeguarded Newton iteration on the unit sphere.
The candidate starts are the 2(d - k) eigenvectors of M_k and of
(M_k + U_k)^{-1}; the ``_SCREENED_STARTS`` = 8 with the lowest D are
iterated (all of them when there are no more than 8).  D is
scale-invariant, so its full Hessian is singular along w and a plain Newton
step points mostly along w, where D does not change.  The step is therefore
taken in the tangent space at w (Absil, Mahony & Sepulchre 2008, ch. 6):
the tangential gradient against the Hessian compressed onto w-perp, whose
radial block is pinned to the identity.  Scale invariance gives H w = -g,
so that model is a rank-3 update of (2/qm) M + (2/qn) N - (4/qw) I, built
from one pass of w M and w N (``objective._d_tilde_hessians``).  One
batched Cholesky factorization per Newton iteration gives every row its
verdict.  A model it factors is positive definite and is used as it is,
however ill-conditioned; only a model it rejects pays for eigenvalues and
is shifted to a smallest eigenvalue of 1e-8 max(1, max |h_ij|) (modified
Newton, Nocedal & Wright 2006, sec. 3.4).

A start stops when its tangential gradient passes the requested tolerance
(or its roundoff floor), or when its model factored unshifted and the
Newton decrement g'H^{-1}g / 2 falls below D's float64 resolution,
eps (|M|_2 / w'Mw + |N|_2 / w'Nw) with N = (M + U)^{-1} (Boyd &
Vandenberghe 2004, sec. 9.5.1), J's resolution at u = 1 from the spectral
norms ``ObjectivePair.norms``: D cannot show the decrease that is left,
though the gradient can still be well above the tolerance.  A direction
whose winning start stopped that way carries ``Resolved@k``.  Otherwise
Armijo backtracking searches along the sphere (Absil, Mahony & Sepulchre
2008, sec. 4.2): the tangent step is first cut to length 1, at most 45
degrees under the retraction (w + v) / |w + v|, because a shifted Newton
step can be millions long and every length above about 100 retracts to
nearly the same point.  D is evaluated at the retracted unit trial, which
becomes the next iterate as it is, with its value.  A trial is accepted only
when it also strictly lowers D, and the search gives up once the decrease
it asks for falls below the same resolution of D; a start whose search
gives up is retired where it stands, ``stalled``, at a point where no
representable decrease is left; a direction whose winning start stalled
carries ``Stalled@k``.

The screened starts are iterated together as rows of one array, through the
batched D kernels of ``objective``; the winner is the converged start with
the smallest final objective, ties resolved by candidate order.  The paper
(Cook & Zhang, arXiv 1403.4138) iterates only the start with the lowest D,
but on some random 3-d pairs that start ends in a worse local minimum than
another start reaches.  Iterating every candidate costs 2(d - k) tangent
Hessians and their O(d^3) solves per Newton iteration; screening bounds
that at 8, since fewer starts land some sample fits in a worse basin
(CHANGES.md has the measurements).  Screening is still not full
multistart: a direction whose best start ranks below 8th by initial D
ends higher in D than it could.

The lockstep also runs across problems.  ``fit_many`` makes the sequential
fits of several pairs together, and at each step the screened starts of
every pair still running are rows of the same array: a Newton iteration
pays its numpy calls once for all of them.  Only the row products w M and
w N are taken per pair, on that pair's rows, since the bits of a
(k, d) @ (d, d) product depend on k; every other kernel works row by row
(``objective._quadratic_forms``).  Each pair therefore gets the answer it
gets alone, bit for bit, and ``fit`` is ``fit_many`` of one pair.  Pairs
are taken in chunks that keep a batch of tangent Hessians within
``_HESSIAN_BATCH_BYTES``.

A Newton iteration needs one pass of w M and w N at its points, and the
line search has made it when it accepted every row at its first trial:
those trials are the next iteration's rows, in the same per-pair blocks,
and the bits of a row's forms depend only on its pair's block of rows, so
the forms are reused as they are.  Otherwise the next iteration computes
them.  Newton steps near a minimum are accepted at t = 1, so most
iterations make one pass, not two.

After each direction, the complement and the compressed pair are carried
past the Householder reflector of the accepted w, in O(d^2), for every
problem of the step in one stacked ``_deflate``, whose next pairs are one
stacked build (``ObjectivePair._build_many``).
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EnvestError, InvalidInput, NoConvergence
from .linalg import (
    _cholesky,
    _eigvalsh,
    _fill,
    _one,
    _solve_vectors,
    fix_column_signs,
)
from .objective import (
    ObjectivePair,
    _check_solver_inputs,
    _einsum,
    _require_dimension,
    _d_tilde_gradients,
    _d_tilde_hessians,
    _d_tilde_terms,
    _d_tilde_values,
    _quadratic_forms,
)

__all__ = ["OneDimSettings", "EnvelopeFit", "fit", "fit_many"]

_SHIFT_FLOOR = 1e-8
# Armijo backtracking constants
_ARMIJO_C1 = 1e-4
_LINE_SEARCH_SHRINK = 0.5
# longest tangent step a line search tries: 45 degrees under the retraction
_MAX_TANGENT_STEP = 1.0
# eigenvector starts a direction solve iterates: those with the lowest D
_SCREENED_STARTS = 8
# bytes of tangent Hessians one lockstep batch may hold: pairs of one size
# are solved together in chunks under it
_HESSIAN_BATCH_BYTES = 16 << 20
# how a start stopped, by code: 0 while it is still iterating
_STOPS = ("", "gradient", "resolved", "stalled", "capped")
_GRADIENT, _RESOLVED, _STALLED, _CAPPED = range(1, 5)
# diagnostics flag of a direction whose winning start stopped short of the
# gradient test
_FLAGS = {"resolved": "Resolved", "stalled": "Stalled"}


@dataclass(frozen=True)
class OneDimSettings:
    """Knobs for the direction solver, named as ``grassmann.FgSettings``'s.

    ``max_iterations`` caps the Newton iterations of each direction's
    starts.  ``gradient_tol`` is relative: a start converges once its
    tangential gradient is at most ``gradient_tol * max(1, |D|)``.  The
    request is capped at float64's resolution: a start also converges at
    its gradient's roundoff floor, or once its Newton decrement is below
    D's resolution.  The solver is deterministic and reads no seed;
    ``seed`` stays only because ``benchmarks/workloads.py`` passes it.
    """

    max_iterations: int = 500
    gradient_tol: float = 1e-10
    seed: int = 0


@dataclass
class EnvelopeFit:
    """Result of an envelope basis fit.

    objective_values holds the per-step final objective for the sequential
    algorithm and the single final value for the Grassmann optimizer;
    inner_iterations is aligned with it.  diagnostics collects string flags:
    from the sequential solver ``Resolved@k`` (the winning start of
    direction k stopped at D's float64 resolution, not by the gradient
    test), ``Stalled@k`` (it stopped because its line search gave up) and
    ``FullSpace``; ``Roundoff``, ``RadiusCollapse`` and ``CapReached`` from
    the Grassmann optimizer; and ``Ridged`` from the estimators.
    wall_time_seconds is the fit's wall-clock time; a sequential fit made
    by ``fit_many`` carries its call's time divided by the number of
    problems it fitted.
    """

    basis: np.ndarray
    objective_values: list
    inner_iterations: list
    wall_time_seconds: float
    algorithm_tag: str
    diagnostics: list = field(default_factory=list)

    def leading(self, u):
        """The first u directions of a sequential fit, as a fit of their own.

        Each direction is found given the ones before it, so this is what a
        fit at u returns, except that the wall time stays the whole fit's.
        Flags of the form ``name@k`` are kept for k < u only.
        """
        def kept(flag):
            _, at, step = flag.partition("@")
            return not at or int(step) < u

        return EnvelopeFit(
            basis=np.ascontiguousarray(self.basis[:, :u]),
            objective_values=self.objective_values[:u],
            inner_iterations=self.inner_iterations[:u],
            wall_time_seconds=self.wall_time_seconds,
            algorithm_tag=self.algorithm_tag,
            diagnostics=[f for f in self.diagnostics if kept(f)],
        )


def _row_norms(x):
    """Euclidean norms of the rows of x, as ``np.linalg.norm(x, axis=1)``
    computes them, without its argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _armijo(m, n, w, f, p, dg, resolution, owner=None):
    """Backtracking line search along the sphere, run on all rows at once.

    w holds unit rows and p tangent directions with slopes dg = p'g.  Each
    row's p, and its dg with it, is first scaled down to length at most
    ``_MAX_TANGENT_STEP``.  A trial is the retracted unit vector
    (w + t p) / |w + t p|; it is accepted only when it meets the
    sufficient-decrease test and strictly lowers D.  Returns (accepted mask,
    new points, new values, forms): accepted rows hold their unit trial and
    its D, the others w and f.  A row gives up, unaccepted, once the
    decrease the test asks for drops below its ``resolution``, D's float64
    resolution at w as ``_lockstep`` computes it.  ``owner`` is that of the
    D kernels.  Every row tries t = 1 first, in one batch; when all of them
    are accepted there, the new points are that batch and ``forms`` is its
    ``_quadratic_forms``, otherwise ``forms`` is None.
    """
    s = _MAX_TANGENT_STEP / np.maximum(_row_norms(p), _MAX_TANGENT_STEP)
    p = p * s[:, None]
    dg = dg * s

    def attempt(trial, own, f0, decrease):
        # the retracted trials of rows with owners own, their forms and D,
        # and which of them pass both tests against the values f0 at their
        # rows and the decreases asked for
        trial /= _row_norms(trial)[:, None]
        forms = _quadratic_forms(m, n, trial, own)
        fv = _d_tilde_values(m, n, trial, forms=forms)
        return trial, forms, fv, (fv <= f0 + decrease) & (fv < f0)

    # t = 1 for every row, where t p and C1 t dg are p and C1 dg exactly
    trial, forms, fv, accepted = attempt(w + p, owner, f, _ARMIJO_C1 * dg)
    if accepted.all():
        return accepted, trial, fv, forms
    t = np.ones(w.shape[0])
    w_new, f_new = w.copy(), f.copy()
    w_new[accepted], f_new[accepted] = trial[accepted], fv[accepted]
    pending = ~accepted
    while True:
        t[pending] *= _LINE_SEARCH_SHRINK
        pending &= _ARMIJO_C1 * t * np.abs(dg) >= resolution
        j = pending.nonzero()[0]
        if not j.size:
            return accepted, w_new, f_new, None
        tj = t[j]
        trial, _, fv, ok = attempt(
            w[j] + tj[:, None] * p[j], None if owner is None else owner[j],
            f[j], _ARMIJO_C1 * tj * dg[j],
        )
        hit = j[ok]
        w_new[hit], f_new[hit] = trial[ok], fv[ok]
        accepted[hit] = True
        pending[hit] = False


class _Direction(NamedTuple):
    """One direction solve: the winning unit vector, its D value and inner
    iterations, and how the winner stopped: ``gradient``, ``resolved`` (at
    D's float64 resolution), ``stalled`` (its line search gave up) or
    ``capped``."""

    w: np.ndarray
    value: float
    iterations: int
    stop: str


def _shifts(h):
    """Shift tau that makes each tangent Hessian h positive definite.

    One batched Cholesky factorization of h gives every row its verdict.  A
    row it factors is positive definite and gets tau = 0, however
    ill-conditioned; only the rows it rejects pay for eigenvalues and get
    tau = max(0, 1e-8 * scale - lambda_min) with scale = max(1, max |h_ij|).
    """
    tau = np.zeros(h.shape[0])
    rows = _cholesky(h)[1].nonzero()[0]
    if rows.size:
        floor = _SHIFT_FLOOR * np.maximum(1.0, np.abs(h[rows]).max(axis=(1, 2)))
        tau[rows] = np.maximum(0.0, floor - _eigvalsh(h[rows])[:, 0])
    return tau


def _solve_directions(pairs, settings):
    """Multistart solves of deflated pairs: one ``_Direction`` or NoConvergence each.

    The pairs, all of one size, are solved by ``_lockstep`` in chunks of as
    many pairs as keep one batch of tangent Hessians within
    ``_HESSIAN_BATCH_BYTES``.  Each pair's answer is the one it gets alone.
    """
    dim = pairs[0].dim
    size = max(1, _HESSIAN_BATCH_BYTES // (min(2 * dim, _SCREENED_STARTS) * dim * dim * 8))
    out = []
    for lo in range(0, len(pairs), size):
        out.extend(_lockstep(pairs[lo:lo + size], settings))
    return out


def _lockstep(pairs, settings):
    """Multistart solves of deflated pairs of one size, iterated as one batch.

    Of each pair's 2 dim eigenvector candidates, the ``_SCREENED_STARTS``
    with the lowest initial D are iterated, kept in candidate order so that
    ties still go to the earliest candidate.  The candidates of every pair
    are screened in one batch.  The starts of every pair, as many for each,
    are rows of one array, a pair's rows consecutive, and step together; a
    lone pair's rows need no owner, and the kernels take its matrices as
    they are.  A Newton iteration makes one pass of ``_quadratic_forms``
    when its line search accepts every row at its first trial: those forms
    are the next iteration's.  A pair gets NoConvergence when none of its
    starts converges; the starts screened out are not tried.
    """
    dim, size = pairs[0].dim, len(pairs)
    # the kernels' matrices, the candidates with the owner of each row, and
    # per row the spectral norms of its pair's matrices (``pair.norms``); a
    # lone pair's are its own, with no owner and one norm for every row
    if size == 1:
        (pair,) = pairs
        m, n, w, owner = pair.m, pair.m_plus_u_inv, pair.candidates, None
        fm, fn = pair.norms
    else:
        m = np.array([pair.m for pair in pairs])
        n = np.array([pair.m_plus_u_inv for pair in pairs])
        w = np.concatenate([pair.candidates for pair in pairs])
        owner = np.repeat(np.arange(size), 2 * dim)
    f = _d_tilde_values(m, n, w, owner)
    per_pair = min(2 * dim, _SCREENED_STARTS)
    if per_pair < 2 * dim:
        # screen: keep each pair's starts with the lowest D, in candidate order
        keep = np.argsort(f.reshape(size, 2 * dim), axis=1, kind="stable")[:, :per_pair]
        keep.sort(axis=1)
        keep += 2 * dim * np.arange(size)[:, None]
        w, f = w[keep.ravel()], f[keep.ravel()]
    elif size == 1:
        w = w.copy()  # rows are written as they stop; the pair's candidates stay
    if size > 1:
        owner = np.repeat(np.arange(size), per_pair)
        fm, fn = np.repeat(np.array([pair.norms for pair in pairs]).T, per_pair, axis=1)
    count = w.shape[0]
    iters = np.zeros(count, dtype=int)
    stops = np.zeros(count, dtype=np.int8)  # an index into _STOPS; 0 while live
    best_gn = np.full(count, np.inf)
    tol = settings.gradient_tol
    eps = np.finfo(float).eps
    it = 0

    def stop(which, code):
        # retire the live rows ``which`` with their point, value and smallest
        # gradient norm, at inner iteration ``it``
        rows = idx[which]
        stops[rows], iters[rows] = code, it
        w[rows], f[rows], best_gn[rows] = wa[which], fa[which], bg[which]

    # all active starts step together, so one global counter suffices.  The
    # live rows are idx, with owners own, norms fm and fn, points wa, values
    # fa, smallest gradient norms bg so far, and their quadratic forms when
    # the last line search left them; w, f and best_gn get a row when it
    # stops
    idx, own, wa, fa, bg, forms = np.arange(count), owner, w, f, best_gn, None
    while True:
        terms = _d_tilde_terms(m, n, wa, own, forms)
        g = _d_tilde_gradients(m, n, wa, terms)
        g -= _einsum("ij,ij->i", g, wa)[:, None] * wa
        gn = _row_norms(g)
        bg = np.minimum(bg, gn)
        # D's float64 resolution at w, ``grassmann._tangent_model``'s at
        # u = 1: eps times the condition numbers of D's two logarithms.  A
        # Newton decrement below it leaves no decrease that float64 can
        # show, so the start has converged, and a line search gives up on a
        # decrease below it.  The gradient's roundoff floor is 32 eps times
        # bounds on its terms 2 M w / qm, 2 N w / qn and 4 w / qw
        res = eps * (fm / terms[2] + fn / terms[3])
        floor = 64.0 * res + 128.0 * eps / np.sqrt(terms[4])
        done = gn <= np.maximum(tol * np.maximum(1.0, np.abs(fa)), floor)
        if done.any():
            stop(done, _GRADIENT)
            idx, own, fm, fn, wa, fa, bg, g, res, *terms = _rows(
                ~done, idx, own, fm, fn, wa, fa, bg, g, res, *terms
            )
            if idx.size == 0:
                break
        if it >= settings.max_iterations:
            stop(slice(None), _CAPPED)
            break
        it += 1

        # Newton step in the tangent space at the unit rows w, against the
        # tangential gradient g and the tangent model of the Hessian, shifted
        # where its Cholesky factorization fails
        h = _d_tilde_hessians(m, n, wa, terms, tangent=True, owner=own)
        tau = _shifts(h)
        if tau.any():
            diagonals = _einsum("ijj->ij", h)  # a writable view
            diagonals += tau[:, None]
        p = -_solve_vectors(h, g)
        dg = _einsum("ij,ij->i", p, g)
        resolved = (tau == 0.0) & (0.5 * -dg <= res)
        if resolved.any():
            stop(resolved, _RESOLVED)
            idx, own, fm, fn, wa, fa, bg, p, dg, res = _rows(
                ~resolved, idx, own, fm, fn, wa, fa, bg, p, dg, res
            )
            if idx.size == 0:
                break
        acc, wa, fa, forms = _armijo(m, n, wa, fa, p, dg, res, own)
        if not acc.all():
            # the search gave up: retire the start where it stands
            stop(~acc, _STALLED)
            idx, own, fm, fn, wa, fa, bg = _rows(acc, idx, own, fm, fn, wa, fa, bg)
            if idx.size == 0:
                break

    # per pair, the smallest final value among its screened starts wins
    # (first on ties); stalled starts stay eligible since a stall only
    # happens where no representable decrease exists, i.e. at a numerical
    # critical point.  A pair none of whose starts converged reports that
    # start as its best
    win = f.reshape(size, per_pair).argmin(axis=1) + per_pair * np.arange(size)
    converged = ((stops == _GRADIENT) | (stops == _RESOLVED)).reshape(size, per_pair).any(axis=1)
    best = fix_column_signs(w[win].T).T
    out = []
    for i, (k, ok) in enumerate(zip(win.tolist(), converged.tolist())):
        if ok:
            out.append(_Direction(best[i], float(f[k]), int(iters[k]), _STOPS[stops[k]]))
        else:
            out.append(NoConvergence(
                "no candidate start satisfied the gradient criterion "
                f"(best objective {f[k]:.6g}, gradient norm {best_gn[k]:.3g})",
                best=best[i],
                gradient_norm=float(best_gn[k]),
            ))
    return out


def _rows(keep, *values):
    """The rows where keep is set of each value that is an array; a value
    shared by every row (None, or one pair's norm) stays as it is."""
    return [v[keep] if isinstance(v, np.ndarray) else v for v in values]


def fit(m_hat, u_hat, u, settings=None):
    """Estimate a u-dimensional envelope basis for the pair (m_hat, u_hat).

    m_hat must be symmetric positive definite, u_hat symmetric positive
    semidefinite: ``ObjectivePair.from_m_u`` checks both, u_hat >= 0
    included (InvalidUhat), before any direction is solved, and u is then
    checked against d.  Directions are extracted one at a time; the returned
    basis columns are orthonormal and in extraction order.  u == d skips
    optimization entirely and returns the identity basis.  A NoConvergence
    at direction k carries step_index k and, in ``partial``, the fit of the
    k directions accepted before it.  This is ``fit_many`` of the batch of
    the checked pair alone, unwrapped by ``_one``.
    """
    return _one(fit_many([_check_solver_inputs(m_hat, u_hat, u)], u, settings))


class _Run:
    """One problem of ``fit_many``: the directions accepted so far, and the
    complement of their span with the pair compressed onto it."""

    def __init__(self, pair):
        self.d = pair.dim
        self.g0, self.pair = np.eye(self.d), pair
        self.columns, self.values, self.iterations, self.diagnostics = [], [], [], []
        self.error = None

    def envelope(self, wall_time):
        basis = np.column_stack(self.columns) if self.columns else np.zeros((self.d, 0))
        return EnvelopeFit(
            basis=basis,
            objective_values=self.values,
            inner_iterations=self.iterations,
            wall_time_seconds=wall_time,
            algorithm_tag="onedim",
            diagnostics=self.diagnostics,
        )


def fit_many(pairs, u, settings=None):
    """The sequential fit at u of each ObjectivePair in pairs, made together.

    The pairs must be of one size d (DimensionMismatch otherwise), and a u
    outside 1..d raises InvalidDimension, as ``fit`` does; at u = d every
    pair gets the identity basis, flagged ``FullSpace``.  Returns, per pair,
    what ``fit`` gives its matrices alone, bit for bit: its EnvelopeFit, or
    the package error that stopped it, such as a NoConvergence with its
    step_index and partial.  Direction 0 is solved on the pair itself.  At
    each step the directions of every problem still running are solved in
    one lockstep (``_solve_directions``), so the call overhead of a Newton
    iteration is paid once for all of them, and the problems that accepted
    a direction are carried past it by one ``_step``.  Every fit carries
    the call's wall time divided by the number of pairs.
    """
    if settings is None:
        settings = OneDimSettings()
    if not pairs:
        return []
    sizes = sorted({pair.dim for pair in pairs})
    if len(sizes) > 1:
        raise DimensionMismatch(f"fit_many takes pairs of one size, got sizes {sizes}")
    _require_dimension(u, sizes[0])
    start = time.perf_counter()
    if u == sizes[0]:
        wall_time = (time.perf_counter() - start) / len(pairs)
        return [EnvelopeFit(np.eye(u), [], [], wall_time, "onedim", ["FullSpace"]) for _ in pairs]
    running = runs = [_Run(pair) for pair in pairs]
    for k in range(u):
        accepted, w = [], []
        for run, sol in zip(running, _solve_directions([run.pair for run in running], settings)):
            if isinstance(sol, NoConvergence):
                sol.step_index = k
                run.error = sol
                continue
            run.values.append(sol.value)
            run.iterations.append(sol.iterations)
            if sol.stop in _FLAGS:
                run.diagnostics.append(f"{_FLAGS[sol.stop]}@{k}")
            accepted.append(run)
            w.append(sol.w)
        if accepted:
            _step(accepted, np.array(w), k + 1 < u)
        running = [run for run in running if run.error is None]
        if not running:
            break
    wall_time = (time.perf_counter() - start) / len(pairs)
    out = []
    for run in runs:
        if run.error is None:
            out.append(run.envelope(wall_time))
        else:
            if isinstance(run.error, NoConvergence):
                run.error.partial = run.envelope(wall_time)
            out.append(run.error)
    return out


def _step(runs, w, deflate):
    """Accept direction w[i] of each of the runs and, when ``deflate``,
    carry each past it with one ``_deflate`` of them all; a run whose next
    pair fails gets that error."""
    g0 = np.array([run.g0 for run in runs])
    g = g0 @ w[:, :, None]  # each column as run.g0 @ w[i] computes it
    g /= np.sqrt(g.swapaxes(1, 2) @ g)
    for run, column in zip(runs, fix_column_signs(g[:, :, 0].T).T):
        run.columns.append(column)
    if deflate:
        pairs = np.array([(run.pair.m, run.pair.u) for run in runs])
        for run, g, pair in zip(runs, *_deflate(g0, pairs, w)):
            if isinstance(pair, EnvestError):
                run.error = pair
            else:
                run.g0, run.pair = g, pair


def _deflate(g0, pairs, w):
    """Carry complements and compressed pairs past the accepted directions.

    Each place i of the stacks holds one problem of one size: its complement
    g0[i], its compressed M and U, pairs[i, 0] and pairs[i, 1], and its
    accepted unit w[i].  The Householder reflector Q = I - beta v v' with
    v = w + sign(w_0) |w| e_1 maps w onto the first axis, so Q's columns
    after the first are an orthonormal basis of w-perp.  The next complement
    is G0 Q[:, 1:] and the next pair is built from Q M_k Q and Q U_k Q
    without their first row and column, each a rank-2 update: O(d^2) per
    direction instead of a Gram-Schmidt completion and two d x d products.
    Every step is one call on the stacks, M and U of every problem
    together, and each product is a matmul of v as columns or rows, so each
    problem gets the bits it gets alone.  Both compressions are exactly
    symmetric, the difference of a symmetric block and t + t', so the pairs
    are built from them as they are, without the symmetry checks and
    symmetrizing of ``ObjectivePair.from_m_u``, which would return the same
    bits, and without its U >= 0 check: a compression of a U >= 0 is >= 0,
    and the check would cost an eigenvalue call per direction.  Only a
    non-finite entry is still rejected, with from_m_u's InvalidInput, and
    the build still checks positive definiteness.

    Returns the next complements, stacked, and per problem its next
    ObjectivePair or the package error that stops it.
    """
    v = w.copy()
    v[:, 0] += np.copysign(np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0, 0], w[:, 0])
    col, row = v[:, :, None], v[:, None, :]
    beta = 2.0 / (row @ col)
    # the outer products as np.outer computes them
    g0 = g0[:, :, 1:] - (beta * (g0 @ col)) * row[:, :, 1:]
    # Q S Q = S - (v z' + z v') with z = beta (S v - (beta v'S v / 2) v),
    # for S = M and U of every problem
    col, row, beta = col[:, None], row[:, None], beta[:, None]
    y = pairs @ col
    z = beta * (y - (0.5 * beta * (row @ y)) * col)
    t = col[..., 1:, :] * z[..., 1:, :].swapaxes(2, 3)
    pairs = pairs[..., 1:, 1:] - (t + t.swapaxes(2, 3))
    errors = [
        None if fm and fu else InvalidInput(f"{'U' if fm else 'M'} has non-finite entries")
        for fm, fu in np.isfinite(pairs).all(axis=(2, 3)).tolist()
    ]
    m, u = pairs[:, 0], pairs[:, 1]
    return g0, _fill(
        errors, lambda rows: ObjectivePair._build_many(m[rows], u[rows], m[rows] + u[rows])
    )
