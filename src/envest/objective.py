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
evaluate every row of a candidate array together; the sequential solver
calls them directly, and ``d_tilde_value``, ``d_tilde_gradient`` and
``d_tilde_hessian`` are checked one-row calls of them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularGram, ZeroVector
from .linalg import fix_column_signs, symmetrize, _require_symmetric

__all__ = [
    "ObjectivePair",
    "j_value",
    "j_gradient",
    "j_decomposition",
    "d_tilde_value",
    "d_tilde_gradient",
    "d_tilde_hessian",
]


def _logdet_gram(x):
    """log-determinant of a symmetric matrix that must be positive definite."""
    if x.shape[0] == 0:
        return 0.0
    try:
        c = np.linalg.cholesky(symmetrize(x))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def _pd_eig(s, what):
    vals, vecs = np.linalg.eigh(s)
    lam_max = float(vals.max())
    if np.any(vals <= 1e-12 * max(1.0, lam_max)):
        from .errors import NotPositiveDefinite

        raise NotPositiveDefinite(
            f"{what} is not positive definite (eigenvalue {float(vals.min()):.6g})",
            eigenvalue=float(vals.min()),
        )
    return vals, vecs


@dataclass(frozen=True)
class ObjectivePair:
    """Everything the objective needs about one (M, M+U) pair, precomputed.

    Instances are immutable; all solvers share them freely across threads.
    ``u`` is retained when known so audits can reconstruct ``m_plus_u``.
    The eigenvector blocks (descending eigenvalue order, signs pinned) feed
    the candidate-start and eigenvector-scan machinery.
    """

    m: np.ndarray
    m_plus_u: np.ndarray
    m_plus_u_inv: np.ndarray
    m_plus_u_logdet: float
    dim: int
    u: np.ndarray | None = None
    m_eigenvectors: np.ndarray | None = None
    m_plus_u_eigenvectors: np.ndarray | None = None

    @classmethod
    def from_m_u(cls, m, u):
        """Build from M and U themselves."""
        m = _require_symmetric(m, "M")
        u = _require_symmetric(u, "U")
        if u.shape != m.shape:
            raise InvalidInput(f"M is {m.shape} but U is {u.shape}")
        return cls._build(m, symmetrize(m + u), u)

    @classmethod
    def from_pair(cls, m, m_plus_u):
        """Build from M and M+U when the sum is what the data supplies."""
        m = _require_symmetric(m, "M")
        mpu = _require_symmetric(m_plus_u, "M+U")
        if mpu.shape != m.shape:
            raise InvalidInput(f"M is {m.shape} but M+U is {mpu.shape}")
        return cls._build(m, mpu, symmetrize(mpu - m))

    @classmethod
    def _build(cls, m, mpu, u):
        vals_m, vecs_m = _pd_eig(m, "M")
        vals_s, vecs_s = _pd_eig(mpu, "M+U")
        inv = symmetrize((vecs_s / vals_s) @ vecs_s.T)
        logdet = float(np.sum(np.log(vals_s)))
        return cls(
            m=m,
            m_plus_u=mpu,
            m_plus_u_inv=inv,
            m_plus_u_logdet=logdet,
            dim=m.shape[0],
            u=u,
            m_eigenvectors=fix_column_signs(vecs_m[:, ::-1]),
            m_plus_u_eigenvectors=fix_column_signs(vecs_s[:, ::-1]),
        )


def _check_gamma(pair, gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 1:
        gamma = gamma[:, None]
    if gamma.shape[0] != pair.dim:
        raise InvalidInput(
            f"basis has {gamma.shape[0]} rows, expected {pair.dim}"
        )
    if not (1 <= gamma.shape[1] <= pair.dim):
        raise InvalidInput(
            f"basis must have between 1 and {pair.dim} columns, got {gamma.shape[1]}"
        )
    return gamma


def j_value(pair, gamma):
    """Evaluate ``log|G'MG| + log|G'(M+U)^{-1}G|`` at a semi-orthogonal G."""
    gamma = _check_gamma(pair, gamma)
    return _logdet_gram(gamma.T @ pair.m @ gamma) + _logdet_gram(
        gamma.T @ pair.m_plus_u_inv @ gamma
    )


def j_gradient(pair, gamma):
    """Euclidean gradient of :func:`j_value` in the entries of Gamma.

    2 M G (G'MG)^{-1} + 2 (M+U)^{-1} G (G'(M+U)^{-1}G)^{-1}.  Callers doing
    manifold descent should project it onto their tangent space themselves.
    """
    gamma = _check_gamma(pair, gamma)

    def term(mat):
        mg = mat @ gamma
        gram = symmetrize(gamma.T @ mg)
        try:
            c = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("Gram matrix is not positive definite") from exc
        return 2.0 * np.linalg.solve(c.T, np.linalg.solve(c, mg.T)).T

    return term(pair.m) + term(pair.m_plus_u_inv)


def j_decomposition(pair, gamma):
    """Split J into a reduction part and an envelope-containment part.

    Writing G0 for an orthonormal complement of G,

        j1 = log|G'MG| + log|G0'MG0| - log|M+U|
        j2 = log|G0'(M+U)G0| - log|G0'MG0|

    so j1 + j2 == j_value(pair, gamma).  j1 is minimized exactly by spans
    that reduce M, and j2 is nonnegative, vanishing exactly when
    G0' U G0 == 0, i.e. when span(U) lies inside span(G).
    """
    from .linalg import orthonormal_complement

    gamma = _check_gamma(pair, gamma)
    d, k = gamma.shape
    if k == d:
        gamma0 = np.zeros((d, 0))
    else:
        gamma0 = orthonormal_complement(gamma)
    ld_m_g = _logdet_gram(gamma.T @ pair.m @ gamma)
    ld_m_g0 = _logdet_gram(gamma0.T @ pair.m @ gamma0)
    ld_s_g0 = _logdet_gram(gamma0.T @ pair.m_plus_u @ gamma0)
    j1 = ld_m_g + ld_m_g0 - pair.m_plus_u_logdet
    j2 = ld_s_g0 - ld_m_g0
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


def _d_tilde_values(m, n, w):
    """D values at the rows of w, n being (M+U)^{-1}; non-finite become +inf."""
    qm = np.einsum("ij,ij->i", w @ m, w)
    qn = np.einsum("ij,ij->i", w @ n, w)
    qw = np.einsum("ij,ij->i", w, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(qm) + np.log(qn) - 2.0 * np.log(qw)
    out[~np.isfinite(out)] = np.inf
    return out


def _d_tilde_gradients(m, n, w, fro_m, fro_n):
    """Gradients of D at the rows of w plus a per-row bound on their roundoff.

    The bound is what float64 can resolve in the gradient at each point:
    machine epsilon times the magnitudes of the three assembled terms, with
    fro_m and fro_n the Frobenius norms of m and n.  A tangential norm at or
    below it cannot be distinguished from an exact critical point, whatever
    the requested tolerance says.
    """
    wm = w @ m
    wn = w @ n
    qm = np.einsum("ij,ij->i", wm, w)
    qn = np.einsum("ij,ij->i", wn, w)
    qw = np.einsum("ij,ij->i", w, w)
    g = 2.0 * wm / qm[:, None] + 2.0 * wn / qn[:, None] - 4.0 * w / qw[:, None]
    eps = np.finfo(float).eps
    floor = 32.0 * eps * (
        2.0 * fro_m / qm + 2.0 * fro_n / qn + 4.0 / np.sqrt(qw)
    )
    return g, floor


def _d_tilde_hessians(m, n, w):
    """Hessians of D at the rows of w, each assembled symmetric."""
    mw = w @ m
    nw = w @ n
    qm = np.einsum("ij,ij->i", mw, w)[:, None, None]
    qn = np.einsum("ij,ij->i", nw, w)[:, None, None]
    qw = np.einsum("ij,ij->i", w, w)[:, None, None]
    eye = np.eye(m.shape[0])
    h = (
        2.0 * m / qm
        - 4.0 * np.einsum("ci,cj->cij", mw, mw) / qm**2
        + 2.0 * n / qn
        - 4.0 * np.einsum("ci,cj->cij", nw, nw) / qn**2
        - 4.0 * eye / qw
        + 8.0 * np.einsum("ci,cj->cij", w, w) / qw**2
    )
    return 0.5 * (h + np.transpose(h, (0, 2, 1)))


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
    g, _ = _d_tilde_gradients(pair.m, pair.m_plus_u_inv, w[None, :], 0.0, 0.0)
    return g[0]


def d_tilde_hessian(pair, w):
    """Hessian of :func:`d_tilde_value`, assembled symmetric."""
    w = _check_direction(pair, w)
    return _d_tilde_hessians(pair.m, pair.m_plus_u_inv, w[None, :])[0]
