"""The envelope objective and its single-direction specialization.

For a symmetric positive definite ``M`` and symmetric positive semidefinite
``U`` the objective over semi-orthogonal ``Gamma`` (d x u) is

    J(Gamma) = log|Gamma' M Gamma| + log|Gamma' (M + U)^{-1} Gamma|.

J is invariant to right-rotation of Gamma, so it is a function of the span
alone, and its minimizers at the population level span the smallest
reducing subspace of M that contains span(U).

The one-dimensional specialization used by the sequential solver drops the
unit-norm constraint by adding the compensating term:

    D(w) = log(w' M w) + log(w' (M + U)^{-1} w) - 2 log(w' w),

which is invariant to scaling of w.

D, its gradient and its Hessian are written once, as batched kernels that
evaluate every row of a candidate array together, the rows of several pairs
of one size at once when told which pair each row belongs to.  The
sequential solver calls them directly, the Hessian kernel also in the
tangent-space form the solver steps with, and ``d_tilde_value``,
``d_tilde_gradient`` and ``d_tilde_hessian`` are checked one-row calls of
them.
"""

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

try:  # np.einsum's kernel, without the dispatch that costs more than a row product
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1
    from numpy.core.multiarray import c_einsum as _einsum

from .errors import (
    DimensionMismatch,
    EnvestError,
    InvalidDimension,
    InvalidInput,
    InvalidUhat,
    SingularGram,
    ZeroVector,
)
from .linalg import (
    fix_column_signs,
    orthonormal_complement,
    symmetrize,
    _cholesky,
    _eigh,
    _eigvalsh,
    _one,
    _require_positive_definite,
    _require_symmetric,
    _square,
    _fill,
    _symmetric,
)

__all__ = [
    "ObjectivePair",
    "j_value",
    "j_gradient",
    "j_decomposition",
    "d_tilde_value",
    "d_tilde_gradient",
    "d_tilde_hessian",
]


def _logdet_grams(x):
    """log-determinants of the stack x of symmetric matrices, and a mask of
    those that are not positive definite, whose values are NaN; the empty
    0 x 0 matrix has log-determinant 0."""
    c, singular = _cholesky(symmetrize(x))
    return 2.0 * np.add.reduce(np.log(c.diagonal(axis1=1, axis2=2)), axis=1), singular


@dataclass(frozen=True)
class ObjectivePair:
    """Everything the objective needs about one (M, M+U) pair, precomputed.

    A problem has one pair, built and checked once: J and both solvers read
    the same immutable instance.  ``u`` is U itself, which the sequential
    solver compresses with M onto each complement (``from_pair`` derives it
    as M+U - M).  ``candidates`` holds the starts of both solvers, one per
    row: the d eigenvectors of M and then the d of M+U, each in descending
    eigenvalue order with signs pinned, stored row-major, since the rounding
    of the batched kernels depends on the layout.  ``norms`` holds
    ||M||_2 = lambda_max(M) and ||(M+U)^{-1}||_2 = 1 / lambda_min(M+U), the
    scale of the float64 resolution that both solvers read from it.

    Pairs are built in stacks, by ``_build_many`` (``_pairs`` when M and U
    still need their checks): the estimators build a batch's pairs at once,
    ``onedim.fit_many`` the deflated pairs of a step, ``simulate`` an
    experiment's batch; a pair built alone is the stack of one, with the
    same bits.  This module alone decides what a valid pair is: ``_pairs``
    and ``from_pair`` check M and U, U >= 0 by ``_semidefinite``, and
    ``_build_many`` checks M > 0 and M + U > 0.
    """

    m: np.ndarray
    u: np.ndarray
    m_plus_u: np.ndarray
    m_plus_u_inv: np.ndarray
    m_plus_u_logdet: float
    dim: int
    candidates: np.ndarray
    norms: tuple

    @classmethod
    def from_m_u(cls, m, u):
        """Build from M and U themselves: ``_pairs`` of one pair of matrices,
        so that M and U are checked for symmetry and finiteness, U >= 0 and
        M > 0 and M + U > 0, in that order."""
        m, u = _square(m, "M"), _square(u, "U")
        if u.shape != m.shape:
            raise DimensionMismatch(f"M is {m.shape} but U is {u.shape}")
        return _one(_pairs(m[None], u[None]))

    @classmethod
    def from_pair(cls, m, m_plus_u):
        """Build from M and M+U when the sum is what the data supplies.

        M and M + U are checked for symmetry and finiteness, U = M+U - M for
        finiteness and U >= 0 (``_semidefinite``), and the build checks
        M > 0 and M + U > 0; the pair keeps the M + U it was given."""
        m = _require_symmetric(m, "M")
        mpu = _require_symmetric(m_plus_u, "M+U")
        if mpu.shape != m.shape:
            raise DimensionMismatch(f"M is {m.shape} but M+U is {mpu.shape}")
        with np.errstate(over="ignore"):  # a U that overflows is rejected as non-finite
            u, errors = _symmetric((mpu - m)[None], "U")
        errors = _semidefinite(u, errors)
        return _one(_fill(errors, lambda rows: cls._build_many(m[None], u, mpu[None])))

    @classmethod
    def _build_many(cls, m, u, mpu):
        """The pair of each place of the stacks m, u and mpu = M + U, all
        exactly symmetric, m and u finite and u >= 0, or the package error
        that stops it: InvalidInput for a non-finite M + U or spectrum, and
        NotPositiveDefinite for M, then M + U.

        Both eigendecompositions, the inverse, the candidates and the
        log-determinant are each one call on the stack, which gives every
        pair the bits of a build of its own; the places that fail are
        computed along with the others, on stand-ins where M + U is not
        finite, and dropped."""
        finite = np.isfinite(mpu).all(axis=(1, 2))
        if not finite.all():
            mpu = np.where(finite[:, None, None], mpu, np.eye(m.shape[1]))
        vals_m, vecs_m = _eigh(m)
        vals_s, vecs_s = _eigh(mpu)
        with np.errstate(divide="ignore", invalid="ignore"):  # the places that fail
            inv = symmetrize((vecs_s / vals_s[:, None, :]) @ vecs_s.swapaxes(1, 2))
            logdet = np.add.reduce(np.log(vals_s), axis=1).tolist()
            bottom = (1.0 / vals_s[:, 0]).tolist()
        # both eigenbases in descending order, signs pinned column by column
        both = fix_column_signs(np.concatenate((vecs_m[..., ::-1], vecs_s[..., ::-1]), axis=2))
        candidates = np.ascontiguousarray(both.swapaxes(1, 2))
        top = vals_m[:, -1].tolist()
        out = []
        for i, ok in enumerate(finite.tolist()):
            try:
                if not ok:
                    raise InvalidInput("M+U has non-finite entries")
                _require_positive_definite(vals_m[i], "M")
                _require_positive_definite(vals_s[i], "M+U")
            except EnvestError as exc:
                out.append(exc)
                continue
            out.append(cls(
                m=m[i], u=u[i], m_plus_u=mpu[i], m_plus_u_inv=inv[i],
                m_plus_u_logdet=logdet[i], dim=m.shape[1], candidates=candidates[i],
                norms=(top[i], bottom[i]),
            ))
        return out


def _pairs(m, u):
    """``ObjectivePair.from_m_u`` of each place of the stacks m and u: its
    pair, or the package error that stops it.  The checks of
    ``_require_symmetric`` run on M and then U, ``_semidefinite`` then
    checks U >= 0, and ``_build_many`` builds the pairs that pass them."""
    m, m_errors = _symmetric(m, "M")
    u, u_errors = _symmetric(u, "U")
    with np.errstate(over="ignore", invalid="ignore"):  # the build rejects a non-finite sum
        mpu = symmetrize(m + u)
    errors = _semidefinite(u, [a or b for a, b in zip(m_errors, u_errors)])
    return _fill(errors, lambda rows: ObjectivePair._build_many(m[rows], u[rows], mpu[rows]))


def _semidefinite(u, errors):
    """errors, with InvalidUhat at each place that holds None and whose U, at
    that place of the stack u of exactly symmetric matrices, has a materially
    negative eigenvalue: one below -1e-8 max(1, max |lambda|).

    This is the package's one test of U >= 0.  The eigenvalues are one call
    on the stack, with zero stand-ins, which pass, at the places that
    already hold an error."""
    live = np.array([error is None for error in errors])
    lam = _eigvalsh(u if live.all() else np.where(live[:, None, None], u, 0.0))
    low = lam[:, 0] < -1e-8 * np.maximum(1.0, np.abs(lam).max(axis=1))
    return [
        InvalidUhat(f"U-hat has a materially negative eigenvalue ({bottom:.6g})") if bad else error
        for error, bottom, bad in zip(errors, lam[:, 0].tolist(), low.tolist())
    ]


def _require_dimension(k, d, name="u"):
    """Reject a subspace dimension k that is not an integer in 1..d."""
    if not (isinstance(k, Integral) and 1 <= k <= d):
        raise InvalidDimension(f"{name} must be between 1 and {d}, got {k}")


def _require_settings(settings):
    """Reject solver settings whose ``gradient_tol`` is not a finite number
    >= 0 or whose ``max_iterations`` is not an integer >= 0."""
    tol, cap = settings.gradient_tol, settings.max_iterations
    if not (isinstance(tol, Real) and math.isfinite(tol) and tol >= 0):
        raise InvalidInput(f"gradient_tol must be a finite number, at least 0, got {tol}")
    if not (isinstance(cap, Integral) and cap >= 0):
        raise InvalidInput(f"max_iterations must be an integer, at least 0, got {cap}")


def _check_solver_inputs(m_hat, u_hat, u):
    """The ObjectivePair of a solver call on (m_hat, u_hat) at u: the build
    checks the matrices, and u is then checked against their size."""
    pair = ObjectivePair.from_m_u(m_hat, u_hat)
    _require_dimension(u, pair.dim)
    return pair


def _check_gamma(pair, gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 1:
        gamma = gamma[:, None]
    if gamma.ndim != 2:
        raise InvalidInput(f"basis must be 1- or 2-d, got ndim {gamma.ndim}")
    if gamma.shape[0] != pair.dim:
        raise InvalidInput(
            f"basis has {gamma.shape[0]} rows, expected {pair.dim}"
        )
    if not (1 <= gamma.shape[1] <= pair.dim):
        raise InvalidInput(
            f"basis must have between 1 and {pair.dim} columns, got {gamma.shape[1]}"
        )
    if not np.all(np.isfinite(gamma)):
        raise InvalidInput("basis has non-finite entries")
    return gamma


def j_value(pair, gamma):
    """Evaluate ``log|G'MG| + log|G'(M+U)^{-1}G|`` at a semi-orthogonal G:
    ``_j_values`` of one basis."""
    return _j_value(pair, _check_gamma(pair, gamma))


def _j_value(pair, gamma):
    """``j_value`` of a finite float64 (d, k) basis, 1 <= k <= d, taken as
    it is, unchecked."""
    (value,), (singular,) = _j_values(pair.m[None], pair.m_plus_u_inv[None], gamma[None])
    if singular:
        raise SingularGram("Gram matrix is not positive definite")
    return float(value)


def _j_values(m, n, gamma):
    """J at each basis of the stack gamma, on the pair whose M and (M+U)^{-1}
    are at the same place of the stacks m and n, and a mask of the bases
    at which a Gram matrix is not positive definite."""
    gt = gamma.swapaxes(1, 2)
    ld_m, singular_m = _logdet_grams(gt @ m @ gamma)
    ld_n, singular_n = _logdet_grams(gt @ n @ gamma)
    return ld_m + ld_n, singular_m | singular_n


def _gram_pieces(pair, gamma):
    """Yield (A, A G, the ascending eigenvalues of G'AG, (G'AG)^{-1}) for
    A = M and then A = N = (M+U)^{-1}: what J's derivatives at G need.  A
    Gram matrix that is not positive definite raises SingularGram."""
    for a in (pair.m, pair.m_plus_u_inv):
        ag = a @ gamma
        vals, vecs = _eigh(symmetrize(gamma.T @ ag))
        if not vals[0] > 0.0:
            raise SingularGram("Gram matrix is not positive definite")
        yield a, ag, vals, (vecs / vals) @ vecs.T


def j_gradient(pair, gamma):
    """Euclidean gradient of :func:`j_value` in the entries of Gamma.

    2 M G (G'MG)^{-1} + 2 (M+U)^{-1} G (G'(M+U)^{-1}G)^{-1}.  Callers working
    on a manifold should project it onto their tangent space themselves.
    """
    gamma = _check_gamma(pair, gamma)
    return sum(2.0 * ag @ c_inv for _, ag, _, c_inv in _gram_pieces(pair, gamma))


def j_decomposition(pair, gamma):
    """Split J into a reduction part and an envelope-containment part.

    Writing G0 for an orthonormal complement of G,

        j1 = log|G'MG| + log|G0'MG0| - log|M+U|
        j2 = log|G0'(M+U)G0| - log|G0'MG0|

    so j1 + j2 == j_value(pair, gamma).  j1 is minimized exactly by spans
    that reduce M, and j2 is nonnegative, vanishing exactly when
    G0' U G0 == 0, i.e. when span(U) lies inside span(G).
    """
    gamma = _check_gamma(pair, gamma)
    d, k = gamma.shape
    if k == d:
        gamma0 = np.zeros((d, 0))
    else:
        gamma0 = orthonormal_complement(gamma)
    # the two (d - k) x (d - k) Grams in one call, the k x k Gram in another
    (ld_m_g0, ld_s_g0), singular0 = _logdet_grams(
        np.array([gamma0.T @ pair.m @ gamma0, gamma0.T @ pair.m_plus_u @ gamma0])
    )
    (ld_m_g,), singular = _logdet_grams((gamma.T @ pair.m @ gamma)[None])
    if singular[0] or singular0.any():
        raise SingularGram("Gram matrix is not positive definite")
    j1 = float(ld_m_g + ld_m_g0 - pair.m_plus_u_logdet)
    j2 = float(ld_s_g0 - ld_m_g0)
    return j1, j2


def _check_direction(pair, w):
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != pair.dim:
        raise InvalidInput(f"direction has length {w.shape[0]}, expected {pair.dim}")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("direction has non-finite entries")
    if np.dot(w, w) <= 0.0:
        raise ZeroVector("direction has zero norm")
    return w


def _one_pair(m, n, owner):
    """(m, n, owner), with stacks reduced to their pair when one pair owns every row."""
    if owner is not None and owner[0] == owner[-1]:
        return m[owner[0]], n[owner[0]], None
    return m, n, owner


def _quadratic_forms(m, n, w, owner=None):
    """The one pass of w M and w N that D and its derivatives share.

    Returns (wM, wN, qm, qn, qw) at the rows of w, with qm = w'Mw, qn = w'Nw
    and qw = w'w per row.  With ``owner``, m and n stack one matrix per pair
    and row i of w belongs to pair owner[i], the rows of a pair being
    consecutive.  Each pair's products are taken on its own block of rows:
    the bits of a (k, d) @ (d, d) product depend on k, so a row's products
    are then those of a batch holding its pair's rows alone.  When every
    pair has the same number of rows, their blocks are one stacked product,
    which takes each block's product by its own call.  Every other
    step of the D kernels works row by row, with bits that do not depend on
    the batch.  The direction solver relies on this: forms its line search
    computed at a batch of trial rows are, bit for bit, the forms of the same
    rows at its next Newton iteration.
    """
    m, n, owner = _one_pair(m, n, owner)
    if owner is None:
        wm, wn = w @ m, w @ n
    else:
        cuts = (owner[1:] != owner[:-1]).nonzero()[0] + 1
        blocks = cuts.size + 1
        k = owner.size // blocks
        if k * blocks == owner.size and (cuts == np.arange(k, owner.size, k)).all():
            own = owner[::k]  # blocks of k rows each: one stacked product
            if own.size < m.shape[0]:
                m, n = m[own], n[own]
            stacked = w.reshape(blocks, k, w.shape[1])
            wm, wn = (stacked @ m).reshape(w.shape), (stacked @ n).reshape(w.shape)
        else:
            wm = np.empty_like(w)
            wn = np.empty_like(w)
            cuts = cuts.tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(owner)]):
                wm[lo:hi] = w[lo:hi] @ m[owner[lo]]
                wn[lo:hi] = w[lo:hi] @ n[owner[lo]]
    qm = _einsum("ij,ij->i", wm, w)
    qn = _einsum("ij,ij->i", wn, w)
    qw = _einsum("ij,ij->i", w, w)
    return wm, wn, qm, qn, qw


def _d_tilde_values(m, n, w, owner=None, forms=None):
    """D values at the rows of w, n being (M+U)^{-1}; non-finite become +inf.

    ``owner`` is that of ``_quadratic_forms``, as in every D kernel.
    ``forms`` are ``_quadratic_forms`` at w, computed here when not given.
    """
    _, _, qm, qn, qw = _quadratic_forms(m, n, w, owner) if forms is None else forms
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(qm) + np.log(qn) - 2.0 * np.log(qw)
    out[~np.isfinite(out)] = np.inf
    return out


def _d_tilde_terms(m, n, w, owner=None, forms=None):
    """What D's derivatives at the rows of w share, from ``_quadratic_forms``.

    Returns (a, b, qm, qn, qw) with a = M w / qm and b = N w / qn per row, n
    being (M+U)^{-1}.  ``forms`` are ``_quadratic_forms`` at w, computed here
    when not given.
    """
    wm, wn, qm, qn, qw = _quadratic_forms(m, n, w, owner) if forms is None else forms
    return wm / qm[:, None], wn / qn[:, None], qm, qn, qw


def _d_tilde_gradients(m, n, w, terms=None):
    """Gradients of D at the rows of w.

    ``terms`` are ``_d_tilde_terms`` at w, computed here when not given.
    """
    a, b, _, _, qw = _d_tilde_terms(m, n, w) if terms is None else terms
    return 2.0 * a + 2.0 * b - 4.0 * w / qw[:, None]


def _d_tilde_hessians(m, n, w, terms=None, tangent=False, owner=None):
    """Hessians of D at the rows of w, or their tangent-space models.

    With a, b, qm, qn, qw from ``_d_tilde_terms`` every Hessian is

        H = (2/qm) M + (2/qn) N - (4/qw) I + X Y',    X = [w, a, b],

    a rank-3 update with Y = [8 w / qw^2, -4 a, -4 b].  With ``tangent`` it
    is the model the direction solver steps with: the compression of H onto
    w-perp with the radial block pinned to the identity, P H P + w w'/qw for
    P = I - w w'/qw.  D has degree-0 homogeneity, so H w = -g and w'g = 0,
    which makes that H + (w g' + g w' + w w')/qw; g lies in the span of X,
    so it only changes Y, to [(w + 2 a + 2 b)/qw, 2 w/qw - 4 a, 2 w/qw - 4 b].
    The update is not summed symmetrically, so the two triangles may differ
    in the last bit.
    """
    m, n, owner = _one_pair(m, n, owner)
    a, b, qm, qn, qw = _d_tilde_terms(m, n, w, owner) if terms is None else terms
    iw = (1.0 / qw)[:, None]
    if tangent:
        r = 2.0 * iw * w
        y = (iw * (w + 2.0 * (a + b)), r - 4.0 * a, r - 4.0 * b)
    else:
        y = (8.0 * iw * iw * w, -4.0 * a, -4.0 * b)
    # X and Y' as np.stack builds them, by one concatenation each
    x = np.concatenate((w[:, :, None], a[:, :, None], b[:, :, None]), axis=2)
    h = x @ np.concatenate([t[:, None] for t in y], axis=1)
    for s, q in ((m, qm), (n, qn)):
        scale = (2.0 / q)[:, None, None]
        if owner is None:
            h += scale * s
        else:  # each row's copy of its pair's matrix takes the scale in place
            s = s[owner]
            s *= scale
            h += s
    diagonals = _einsum("ijj->ij", h)  # a writable view
    diagonals -= 4.0 * iw
    return h


def d_tilde_value(pair, w):
    """Scale-invariant single-direction objective at w (any nonzero scale)."""
    w = _check_direction(pair, w)
    value = _d_tilde_values(pair.m, pair.m_plus_u_inv, w[None, :])[0]
    if value == np.inf:
        raise SingularGram("quadratic form is not positive at this direction")
    return value


def d_tilde_gradient(pair, w):
    """Gradient of :func:`d_tilde_value`; orthogonal to w by scale invariance."""
    w = _check_direction(pair, w)
    return _d_tilde_gradients(pair.m, pair.m_plus_u_inv, w[None, :])[0]


def d_tilde_hessian(pair, w):
    """Hessian of :func:`d_tilde_value`, symmetrized."""
    w = _check_direction(pair, w)
    return symmetrize(_d_tilde_hessians(pair.m, pair.m_plus_u_inv, w[None, :])[0])
