"""Dense symmetric linear algebra helpers shared by the whole package.

Conventions used everywhere:

* symmetric matrices are plain ``(d, d)`` float arrays, kept exactly
  symmetric by construction (see :func:`symmetrize`),
* a *basis* is a ``(d, k)`` array with orthonormal columns,
* basis columns are sign-normalized so the entry of largest magnitude
  (first such entry on ties) is positive (:func:`fix_column_signs`),
  which makes every basis built here deterministic.
"""

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyComplement,
    InvalidInput,
    NotPositiveDefinite,
    SingularGram,
)

__all__ = [
    "symmetrize",
    "fix_column_signs",
    "check_orthonormal",
    "orthonormalize",
    "orthonormal_complement",
    "subspace_distance",
    "project",
]


def symmetrize(a):
    """Return ``(a + a.T) / 2``, which is exactly symmetric in floating point.

    Halving a before the sum gives the bits of halving the sum outside the
    subnormal range, and no overflow where the entries are finite."""
    half = 0.5 * np.asarray(a, dtype=float)
    return half + half.T


def _require_symmetric(s, name="matrix"):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {s.shape}")
    if s.size == 0:
        raise InvalidInput(f"{name} is empty")
    if not np.all(np.isfinite(s)):
        raise InvalidInput(f"{name} has non-finite entries")
    scale = max(1.0, float(np.abs(s).max()))
    if np.abs(s - s.T).max() > 1e-8 * scale:
        raise InvalidInput(f"{name} is not symmetric")
    return symmetrize(s)


def fix_column_signs(v):
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties are broken by the first maximal entry; exact-zero columns are left
    alone.  Returns a new array.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        sign = np.sign(v[np.abs(v).argmax()])
        return v * (sign or 1.0)
    if v.shape[1]:
        lead = np.argmax(np.abs(v), axis=0)
        signs = np.sign(v[lead, np.arange(v.shape[1])])
        signs[signs == 0.0] = 1.0
        v = v * signs
    return v


def check_orthonormal(g, tol=1e-10, name="basis"):
    """Validate that ``g`` is a (d, k) matrix with orthonormal columns."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise InvalidInput(f"{name} must be 2-d, got ndim {g.ndim}")
    d, k = g.shape
    if k > d:
        raise InvalidInput(f"{name} has more columns ({k}) than rows ({d})")
    if not np.all(np.isfinite(g)):
        raise InvalidInput(f"{name} has non-finite entries")
    if k and np.abs(g.T @ g - np.eye(k)).max() > tol:
        raise InvalidInput(f"{name} columns are not orthonormal to {tol:g}")
    return g


def orthonormalize(a):
    """Thin QR orthonormalization with a deterministic sign convention.

    The Q factor is rescaled so diag(R) >= 0, then column signs are pinned
    by :func:`fix_column_signs`.  Columns must be linearly independent.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput("expected a 2-d array")
    if a.shape[1] == 0:
        return a.copy()
    q, r_diag = _signed_qr(a)
    if np.any(r_diag < 1e-12 * max(1.0, r_diag.max())):
        raise SingularGram("columns are linearly dependent; cannot orthonormalize")
    return fix_column_signs(q)


def _signed_qr(a):
    """Thin QR of a with Q's columns flipped so that diag(R) >= 0.

    Returns Q and |diag(R)|, the latter for callers that check the rank.
    """
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * np.where(diag < 0, -1.0, 1.0), np.abs(diag)


def _require_positive_definite(vals, what):
    """Reject the ascending spectrum vals of ``what`` unless it is positive
    definite.

    Raises InvalidInput when either end of it is not finite, and
    NotPositiveDefinite when the smallest eigenvalue falls at or below
    ``1e-12 * max(1, lambda_max)``, with it riding along.
    """
    bad, top = float(vals[0]), float(vals[-1])
    if not -np.inf < bad <= top < np.inf:  # NaN fails every comparison
        raise InvalidInput(f"{what} has a non-finite spectrum")
    if bad <= 1e-12 * max(1.0, top):
        raise NotPositiveDefinite(
            f"{what} is not positive definite (eigenvalue {bad:.6g})",
            eigenvalue=bad,
        )


def _not_positive_definite(a):
    """Indices of the matrices in the stack a on which ``np.linalg.cholesky``
    raises.  Its batched kernel factors each by its own LAPACK call, fills
    the factor of a failed one with NaN and zeroes the upper triangle of
    the others, NaN inputs included.  A 1 x 1 [a] is flagged when a <= 0
    and also when a is NaN, which ``np.linalg.cholesky`` accepts."""
    with np.errstate(invalid="ignore"):
        c = np.linalg._umath_linalg.cholesky_lo(a, signature="d->d")
    return np.isnan(c[:, 0, -1]).nonzero()[0]


# ``_solve_vectors`` and ``_eigh`` call the kernels of ``np.linalg.solve`` and
# ``np.linalg.eigh`` on float64 input as those functions do, without the
# argument handling that costs more than a small solve: the same bits, and
# LinAlgError where numpy raises it.
def _lapack_errors(message):
    """The error state of numpy's linalg functions: a failed LAPACK call
    raises LinAlgError(message)."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def _solve_vectors(a, b):
    """x with a[i] x[i] = b[i] for the stack of square matrices a and the
    rows of b: ``np.linalg.solve`` of each matrix against its vector."""
    with _lapack_errors("Singular matrix"):
        return np.linalg._umath_linalg.solve1(a, b, signature="dd->d")


def _eigh(a):
    """``np.linalg.eigh(a)`` of a float64 symmetric matrix, read from its
    lower triangle: the ascending eigenvalues and the eigenvectors."""
    with _lapack_errors("Eigenvalues did not converge"):
        return np.linalg._umath_linalg.eigh_lo(a, signature="d->dd")


def orthonormal_complement(g):
    """Orthonormal basis of the orthogonal complement of span(g).

    Completion runs Gram-Schmidt over the standard basis, at each step
    keeping the coordinate vector with the largest residual (first index on
    ties), so the result is deterministic.  ``g`` may have zero columns, in
    which case the identity comes back.
    """
    g = check_orthonormal(g, name="complement input")
    d, k = g.shape
    if k >= d:
        raise EmptyComplement(f"basis already spans R^{d}; complement is empty")
    # residual projector onto the complement of everything chosen so far
    p = np.eye(d) - g @ g.T
    cols = []
    for _ in range(d - k):
        # the column norms and the outer product as np.linalg.norm and
        # np.outer compute them
        norms = np.sqrt(np.add.reduce(p * p, axis=0))
        i = int(norms.argmax())
        v = p[:, i] / norms[i]
        cols.append(v)
        p -= v[:, None] * (v @ p)[None, :]
    comp = np.column_stack(cols)
    # one clean-up sweep against g and earlier columns keeps the 1e-10
    # orthogonality budget honest at larger d
    comp = comp - g @ (g.T @ comp)
    return fix_column_signs(_signed_qr(comp)[0])


def subspace_distance(a, b):
    """Frobenius distance between projectors: ``||A A' - B B'||_F``.

    Accepts bases with different column counts as long as the ambient
    dimension matches.  This is a pseudometric on subspaces; it is zero
    exactly when the two spans coincide.
    """
    a = check_orthonormal(a, name="first basis")
    b = check_orthonormal(b, name="second basis")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}"
        )
    return float(np.linalg.norm(a @ a.T - b @ b.T, "fro"))


def project(a, metric=None):
    """Projection onto span(a), orthogonal or in the ``metric`` inner product.

    Returns ``A (A' V A)^{-1} A' V`` with ``V = I`` when no metric is given.
    ``a`` need not be orthonormal, only of full column rank; a singular Gram
    matrix raises SingularGram.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if not np.all(np.isfinite(a)):
        raise InvalidInput("projection basis has non-finite entries")
    if metric is None:
        va = a
    else:
        v = _require_symmetric(metric, "metric")
        if v.shape[0] != a.shape[0]:
            raise DimensionMismatch(
                f"metric is {v.shape[0]}x{v.shape[0]} but basis has {a.shape[0]} rows"
            )
        va = v @ a
    gram = symmetrize(a.T @ va)
    try:
        c = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix A'VA is singular") from exc
    half = np.linalg.solve(c, va.T)
    back = np.linalg.solve(c.T, half)
    return a @ back
