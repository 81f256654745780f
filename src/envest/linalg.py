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
    EnvestError,
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
    """Return ``(a + a.T) / 2``, which is exactly symmetric in floating point;
    a stack of matrices is symmetrized matrix by matrix.

    Halving a before the sum gives the bits of halving the sum outside the
    subnormal range, and no overflow where the entries are finite."""
    half = 0.5 * np.asarray(a, dtype=float)
    return half + half.swapaxes(-1, -2)


def _square(s, name):
    """s as a non-empty square float matrix."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {s.shape}")
    if s.size == 0:
        raise InvalidInput(f"{name} is empty")
    return s


def _symmetric(s, name):
    """``symmetrize`` of the stack s of square matrices, and per matrix the
    InvalidInput that ``_require_symmetric`` raises on it, or None."""
    flat = len(s), -1
    finite = np.isfinite(s).reshape(flat).all(axis=1)
    checked = s if finite.all() else np.where(finite[:, None, None], s, 0.0)
    scale = np.maximum(1.0, np.abs(checked).reshape(flat).max(axis=1))
    skew = np.abs(checked - checked.swapaxes(1, 2)).reshape(flat).max(axis=1) > 1e-8 * scale
    errors = [
        InvalidInput(f"{name} has non-finite entries") if not ok
        else InvalidInput(f"{name} is not symmetric") if bad else None
        for ok, bad in zip(finite.tolist(), skew.tolist())
    ]
    return symmetrize(s), errors


def _require_symmetric(s, name="matrix"):
    s, (error,) = _symmetric(_square(s, name)[None], name)
    if error is not None:
        raise error
    return s[0]


def _fill(outcomes, stage):
    """outcomes with each None replaced by what ``stage`` gives its place.

    stage is called once with the list of the places that hold None (not at
    all when none does) and returns one outcome for each, in order.  It is
    the one way the stacked steps of the package hand on the problems that
    no package error has stopped and merge back their outcomes: each step
    takes its stacks at those places and gives each its own result or error."""
    rows = [i for i, outcome in enumerate(outcomes) if outcome is None]
    out = list(outcomes)
    if rows:
        for i, outcome in zip(rows, stage(rows)):
            out[i] = outcome
    return out


def _errors(outcomes):
    """Per outcome, the package error it is, or None: the places that
    ``_fill`` hands the next step."""
    return [o if isinstance(o, EnvestError) else None for o in outcomes]


def _one(outcomes):
    """The outcome of a batch of one, raised when it is a package error."""
    (outcome,) = outcomes
    if isinstance(outcome, EnvestError):
        raise outcome
    return outcome


def fix_column_signs(v):
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties are broken by the first maximal entry; exact-zero columns are left
    alone.  A stack of matrices, (n, d, k), has the columns of each fixed.
    Returns a new array.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        sign = np.sign(v[np.abs(v).argmax()])
        return v * (sign or 1.0)
    if v.shape[-1]:
        lead = np.argmax(np.abs(v), axis=-2)
        at = (lead, np.arange(v.shape[-1]))
        if v.ndim == 3:
            at = (np.arange(v.shape[0])[:, None], *at)
        signs = np.sign(v[at])
        signs[signs == 0.0] = 1.0
        v = v * signs[..., None, :]
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
    by :func:`fix_column_signs`.  Columns must be finite and linearly
    independent.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput("expected a 2-d array")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("input has non-finite entries")
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


def _cholesky(a):
    """``np.linalg.cholesky`` of each matrix of the stack a, from one call of
    its kernel: the lower factors, and a mask of the matrices on which it
    raises, whose factors are NaN.  The kernel factors each matrix by its
    own LAPACK call, fills the factor of a failed one with NaN and zeroes
    the upper triangle of the others, NaN inputs included; a 1 x 1 [a]
    fails when a <= 0, and a NaN is accepted; the empty 0 x 0 matrix is
    positive definite."""
    with np.errstate(invalid="ignore"):
        c = np.linalg._umath_linalg.cholesky_lo(a, signature="d->d")
    if a.shape[-1] == 0:
        return c, np.zeros(len(a), dtype=bool)
    if a.shape[-1] == 1:
        return c, a[:, 0, 0] <= 0.0
    return c, np.isnan(c[:, 0, -1])


# ``_solve_vectors``, ``_eigh`` and ``_eigvalsh`` call the kernels of
# ``np.linalg.solve``, ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` on
# float64 input as those functions do, without the argument handling that
# costs more than a small solve: the same bits, and LinAlgError where numpy
# raises it.
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


def _eigvalsh(a):
    """``np.linalg.eigvalsh(a)`` of float64 symmetric matrices, read from their
    lower triangles: the ascending eigenvalues."""
    with _lapack_errors("Eigenvalues did not converge"):
        return np.linalg._umath_linalg.eigvalsh_lo(a, signature="d->d")


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
    matrix raises SingularGram, and a basis with no columns gives the zero
    projector.  This is ``_projections`` of the batch of one basis,
    unwrapped by ``_one``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if metric is not None:
        metric = _square(metric, "metric")[None]
    return _one(_projections(a[None], metric))


def _projections(a, metric=None):
    """``project`` of each basis of the stack a, in the metric at the same
    place of the stack metric: per basis its projector, or the package
    error ``project`` raises on it."""
    errors = [
        None if ok else InvalidInput("projection basis has non-finite entries")
        for ok in np.isfinite(a).all(axis=(1, 2)).tolist()
    ]
    if metric is not None:
        metric, bad = _symmetric(metric, "metric")
        if metric.shape[1] != a.shape[1]:
            raise DimensionMismatch(
                f"metric is {metric.shape[1]}x{metric.shape[1]} but basis has {a.shape[1]} rows"
            )
        errors = [error or b for error, b in zip(errors, bad)]

    def projectors(rows):
        basis = a[rows]
        va = basis if metric is None else metric[rows] @ basis
        c, singular = _cholesky(symmetrize(basis.swapaxes(1, 2) @ va))
        c[singular] = np.eye(basis.shape[2])  # stand-ins that solve; their bases fail
        half = np.linalg.solve(c, va.swapaxes(1, 2))
        out = basis @ np.linalg.solve(c.swapaxes(1, 2), half)
        return [SingularGram("Gram matrix A'VA is singular") if s else p
                for p, s in zip(out, singular.tolist())]

    return _fill(errors, projectors)
