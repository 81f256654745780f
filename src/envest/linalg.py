"""Dense symmetric linear algebra helpers shared by the whole package.

Conventions used everywhere:

* symmetric matrices are plain ``(d, d)`` float arrays, kept exactly
  symmetric by construction (see :func:`symmetrize`),
* a *basis* is a ``(d, k)`` array with orthonormal columns,
* eigenvalues are reported in descending order,
* eigenvector columns are sign-normalized so the entry of largest
  magnitude (first such entry on ties) is positive, which makes every
  decomposition here deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyComplement,
    InvalidInput,
    NotPositiveDefinite,
    SingularGram,
)

__all__ = [
    "SpectralDecomposition",
    "symmetrize",
    "fix_column_signs",
    "check_orthonormal",
    "orthonormalize",
    "sym_eig",
    "orthonormal_complement",
    "subspace_distance",
    "project",
]


def symmetrize(a):
    """Return ``(a + a.T) / 2``, which is exactly symmetric in floating point."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _require_symmetric(s, name="matrix"):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {s.shape}")
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
        v = v[:, None]
        squeeze = True
    else:
        squeeze = False
    if v.shape[1]:
        lead = np.argmax(np.abs(v), axis=0)
        signs = np.sign(v[lead, np.arange(v.shape[1])])
        signs[signs == 0.0] = 1.0
        v = v * signs
    return v[:, 0] if squeeze else v


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


@dataclass
class SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix with near-ties grouped.

    eigenvalues : (d,) descending
    eigenvectors : (d, d), column i pairs with eigenvalues[i], signs pinned
    groups : list of index lists; consecutive eigenvalues closer than the
        grouping tolerance share a group (their joint eigenspace is only
        determined up to rotation, so consumers should work per group)
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: list = field(default_factory=list)


def sym_eig(s, group_tol=1e-8):
    """Spectral decomposition of a symmetric matrix.

    Eigenvalues come back descending with sign-pinned eigenvectors.  Indices
    whose eigenvalues differ by less than ``group_tol * max(1, |lambda_1|)``
    are merged (transitively, over adjacent pairs) into one group.
    """
    s = _require_symmetric(s, "sym_eig input")
    vals, vecs = np.linalg.eigh(s)
    vals = vals[::-1]
    vecs = fix_column_signs(vecs[:, ::-1])
    tol = group_tol * max(1.0, abs(float(vals[0])))
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return SpectralDecomposition(vals, vecs, groups)


def _require_positive_definite(vals, what):
    """Reject the spectrum vals of ``what`` unless it is positive definite.

    Raises NotPositiveDefinite when any eigenvalue falls at or below
    ``1e-12 * max(1, lambda_max)``, with the smallest one riding along.
    """
    lam_max = float(vals.max())
    if np.any(vals <= 1e-12 * max(1.0, lam_max)):
        bad = float(vals.min())
        raise NotPositiveDefinite(
            f"{what} is not positive definite (eigenvalue {bad:.6g})",
            eigenvalue=bad,
        )


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
        norms = np.linalg.norm(p, axis=0)
        i = int(np.argmax(norms))
        v = p[:, i] / norms[i]
        cols.append(v)
        p = p - np.outer(v, v @ p)
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
