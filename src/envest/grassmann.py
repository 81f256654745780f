"""Direct minimization of the envelope objective over u-dimensional spans.

This is the reference full optimizer the sequential solver is measured
against: Riemannian trust-region Newton on the Grassmann manifold of
u-dimensional subspaces of R^d (Absil, Baker & Gallivan 2007, Found.
Comput. Math. 7), with the analytic Riemannian gradient and Hessian of J
(Edelman, Arias & Smith 1998, SIAM J. Matrix Anal. Appl. 20).

At a basis G, with G0 the last d - u columns of a complete QR factor of G,
a tangent vector is G0 K for a (d - u) x u coordinate matrix K, and a step
is retracted by the signed thin QR of G + G0 K.  For A in {M, N} with
N = (M + U)^{-1}, write C_A = G'AG, A00 = G0'AG0, A01 = G0'AG and
P_A = A01 C_A^{-1}.  Then

    grad J = sum_A 2 P_A
    Hess J[(i,a),(j,b)] = sum_A [2 (A00 - P_A A01')[i,j] C_A^{-1}[a,b]
                                  - 2 P_A[i,b] P_A[j,a]] - 4 delta_ij delta_ab.

The span of G + G0 K agrees with the Grassmann geodesic to second order,
so the quadratic model built from these is exact to second order along the
retraction.  Each iteration solves the trust-region subproblem exactly.
When a Cholesky factorization proves the Hessian positive definite and the
Newton step -H^{-1} grad fits in the radius, that step is the solution
and the Hessian is never eigendecomposed; near a local minimizer, where a
warm start begins, this is the usual case.  Otherwise the Hessian is
eigendecomposed once per model and the multiplier of the constrained
step is found from its eigenvalues, the hard case included (More &
Sorensen 1983).  The Hessian is a dense ((d - u) u)^2 array: 45 KB at
(d, u) = (20, 5), 320 KB at (30, 10), 6.5 MB at (100, 10), and d^4 / 2
bytes at its largest, u = d / 2.

The iteration stops when the Riemannian gradient passes the relative
tolerance, when the model's predicted decrease falls to what float64 can
resolve in J (flag ``Roundoff``), when the radius falls below machine
epsilon (flag ``RadiusCollapse``), or at the iteration cap (flag
``CapReached``).  Only steps that lower J are accepted, so the result is
never above its start.

Starting values matter a great deal here.  Without a ``start`` argument
the fit begins at the eigenvector scan, which grows a basis greedily over
the 2d eigenvectors of M and of M + U, adding whichever candidate lowers
the objective most at each size, all of them scored in one batched pass
per size.  Any orthonormal (d, u) basis can be passed as ``start``
instead; the estimators' fg-warm algorithm starts from the sequential
solver's basis this way, a sequential fit stopped at a gradient of the
square root of the optimizer's ``gradient_tol``: Newton's quadratic
convergence takes a start in the basin from there to the tolerance in
about one step.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, RankDeficientCandidates
from .linalg import (
    check_orthonormal,
    fix_column_signs,
    symmetrize,
    _cholesky,
    _eigh,
    _signed_qr,
    _solve_vectors,
)
from .objective import _check_solver_inputs, _gram_pieces, _j_value, j_value
from .onedim import EnvelopeFit

__all__ = ["FgSettings", "eigenvector_scan_start", "fit"]

# trust-region constants: accept a step when its actual decrease is at
# least _ACCEPT of the predicted one; shrink below _SHRINK, grow above _GROW
_ACCEPT = 0.1
_SHRINK = 0.25
_GROW = 0.75
_SECULAR_ITERATIONS = 100


@dataclass(frozen=True)
class FgSettings:
    """Knobs for the full optimizer, named as ``onedim.OneDimSettings``'s.

    max_iterations caps the trust-region iterations, rejected steps
    included.  gradient_tol also sets the estimators' fg-warm start: its
    sequential fit stops at a gradient of sqrt(gradient_tol).
    """

    max_iterations: int = 100
    gradient_tol: float = 1e-8


def _scan(pair, u):
    """``eigenvector_scan_start`` on a built pair.  A unit r orthogonal to
    the basis B raises J by sum_A log(r'Ar - r'AB (B'AB)^{-1} B'Ar), the log
    of the Schur complement of B'AB in [B r]'A[B r], so each growth step
    scores every free candidate at once: u batched passes in place of about
    2d u evaluations of J."""
    d = pair.dim
    if u == d:
        return np.eye(d)
    cands = pair.candidates
    basis = np.zeros((d, 0))
    empty = [(a, basis, None, np.eye(0)) for a in (pair.m, pair.m_plus_u_inv)]  # pieces at k = 0
    free = np.ones(len(cands), dtype=bool)
    for k in range(u):
        resid = cands - (cands @ basis) @ basis.T
        norms = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        live = free & (norms >= 1e-8)
        r = resid / np.where(live, norms, 1.0)[:, None]
        score = np.where(live, 0.0, np.inf)
        for a, ag, _, c_inv in _gram_pieces(pair, basis) if k else empty:
            rag = r @ ag
            schur = np.einsum("ij,ij->i", r @ a, r) - np.einsum("ij,ij->i", rag @ c_inv, rag)
            score += np.log(np.where(schur > 0.0, schur, np.inf))  # log(0) = -inf never wins
        i = int(score.argmin())  # the first on ties
        if score[i] == np.inf:
            raise RankDeficientCandidates(
                f"eigenvector candidates span too little: stuck at {k} of {u} directions"
            )
        free[i] = False
        basis = np.column_stack([basis, r[i]])
    return fix_column_signs(basis)


def eigenvector_scan_start(m_hat, u_hat, u):
    """Greedy starting basis built from eigenvectors of M and of M + U.

    All 2d eigenvectors compete; at each of the u growth steps the candidate
    whose (orthonormalized) addition gives the lowest objective joins the
    basis, ties broken by candidate order.  Candidates nearly inside the
    current span are skipped, and so are those whose Schur complement
    rounding leaves at or below 0; running out raises
    RankDeficientCandidates.  The inputs are checked as ``fit`` checks them.
    """
    return _scan(_check_solver_inputs(m_hat, u_hat, u), u)


def _tangent_model(pair, gamma):
    """Quadratic model of J at the basis gamma, in tangent coordinates.

    Returns (G0, gradient, Hessian, resolution): the complement whose
    columns carry the coordinates, the (d - u, u) Riemannian gradient, the
    ((d - u) u)^2 Riemannian Hessian in row-major order of the coordinates,
    and the float64 resolution of J at gamma,
    eps * u * (||M||_2 / lambda_min(G'MG) + ||N||_2 / lambda_min(G'NG)),
    with the two spectral norms from ``pair.norms``.  At u = 1 this is D's
    resolution, which ``onedim._lockstep`` uses at its rows.
    """
    d, u = gamma.shape
    g0 = np.linalg.qr(gamma, mode="complete")[0][:, u:]
    size = (d - u) * u
    grad = np.zeros((d - u, u))
    hess = -4.0 * np.eye(size)
    resolution = 0.0
    for (a, ag, vals, c_inv), a_norm in zip(_gram_pieces(pair, gamma), pair.norms):
        a01 = g0.T @ ag
        p = a01 @ c_inv
        grad += 2.0 * p
        a00 = g0.T @ a @ g0 - p @ a01.T
        # np.kron(a00, c_inv): the same products, in the same layout
        hess += 2.0 * (a00[:, None, :, None] * c_inv[:, None]).reshape(size, size)
        hess -= 2.0 * np.einsum("ib,ja->iajb", p, p).reshape(size, size)
        resolution += a_norm / vals[0]
    return g0, grad, symmetrize(hess), np.finfo(float).eps * u * resolution


def _trust_region_step(vals, vecs, grad, radius):
    """Exact minimizer of g's + s'Hs / 2 over ||s|| <= radius.

    H = vecs diag(vals) vecs' with vals ascending.  Returns the step and
    its predicted decrease.  The Newton step is taken when H is positive
    definite and the step fits; otherwise the multiplier lam >= max(0,
    -vals[0]) with ||(H + lam I)^{-1} g|| = radius is found by safeguarded
    Newton iteration on 1/||s(lam)|| - 1/radius, and in the hard case, where
    g has no weight on the lowest eigenvector, that eigenvector fills the
    step out to the boundary.  ``_fit`` comes here, through ``_Model.step``,
    only when no Cholesky-certified Newton step fits: H fails its Cholesky
    factorization, the Newton step is longer than the radius, or a rejected
    step has shrunk the radius on the same model.
    """
    gt = vecs.T @ grad
    st = -gt / vals if vals[0] > 0.0 else None
    if st is None or np.linalg.norm(st) > radius:
        lo = max(0.0, -vals[0])
        hi = lo + np.linalg.norm(gt) / radius  # ||s(hi)|| <= radius
        lam = hi
        for _ in range(_SECULAR_ITERATIONS):
            shifted = vals + lam
            st = -gt / shifted
            ns = np.linalg.norm(st)
            if abs(ns - radius) <= 1e-10 * radius:
                break
            if ns > radius:
                lo = lam
            else:
                hi = lam
            newton = lam + (ns / radius - 1.0) * ns**2 / np.sum(st**2 / shifted)
            lam = newton if lo < newton < hi else 0.5 * (lo + hi)
            if vals[0] + lam <= 0.0:
                break
        if abs(ns - radius) > 1e-10 * radius:
            # hard case: ||s(lam)|| stays inside the radius down to the
            # pole at -vals[0], so the lowest eigenvector makes up the rest
            shifted = vals - vals[0]
            flat = shifted <= np.finfo(float).eps * np.abs(vals).max()
            st = np.where(flat, 0.0, -gt / np.where(flat, 1.0, shifted))
            st[0] = -np.copysign(np.sqrt(max(0.0, radius**2 - st @ st)), gt[0])
    pred = -float(gt @ st + 0.5 * st @ (vals * st))
    return vecs @ st, pred


class _Model:
    """The quadratic model of J at one basis, and its trust-region steps.

    Takes what _tangent_model returns and keeps the gradient flattened.
    The Newton step and the Hessian's eigendecomposition are each computed
    at most once, when a step first needs them.
    """

    def __init__(self, g0, grad, hess, resolution):
        self.g0, self.grad, self.hess, self.resolution = g0, grad.ravel(), hess, resolution

    @cached_property
    def newton(self):
        """-H^{-1} g when a Cholesky factor proves H positive definite, else None."""
        if _cholesky(self.hess[None])[1][0]:
            return None
        return -_solve_vectors(self.hess, self.grad)

    @cached_property
    def eig(self):
        return _eigh(self.hess)

    def step(self, radius):
        """The exact trust-region step within radius and its predicted decrease.

        The Newton step when it exists and fits; otherwise
        _trust_region_step on the eigendecomposition.
        """
        s = self.newton
        if s is not None and np.linalg.norm(s) <= radius:
            return s, -float(self.grad @ s + 0.5 * s @ (self.hess @ s))
        return _trust_region_step(*self.eig, self.grad, radius)


def fit(m_hat, u_hat, u, settings=None, start=None):
    """Fit a u-dimensional basis by Riemannian trust-region Newton from start.

    start is an orthonormal (d, u) basis, or None for the eigenvector scan
    (``eigenvector_scan_start``); one that is not a numeric, finite and
    orthonormal (d, u) basis raises InvalidInput.  Returns an EnvelopeFit
    tagged ``"fg"`` whose objective_values holds the single final objective
    and inner_iterations the trust-region iterations.  Stopping other than
    by the gradient test is reported through the diagnostics flags
    ``Roundoff``, ``RadiusCollapse`` and ``CapReached`` rather than as an
    error; the best iterate found is returned either way.  The inputs are
    checked and built into a pair by ``ObjectivePair.from_m_u``: m_hat must
    be symmetric positive definite and u_hat symmetric positive
    semidefinite (InvalidUhat otherwise).  ``_fit`` fits the pair;
    wall_time_seconds covers ``_fit``, the scan start included, but not the
    checks and the build.
    """
    return _fit(_check_solver_inputs(m_hat, u_hat, u), u, settings, start)


def _fit(pair, u, settings=None, start=None):
    """``fit`` on a built ObjectivePair, at a u in 1..d."""
    began = time.perf_counter()
    if settings is None:
        settings = FgSettings()
    d = pair.dim

    diagnostics = []
    if start is None:
        gamma = _scan(pair, u)
    else:
        try:
            gamma = np.asarray(start, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput("starting basis must be a numeric array") from None
        if gamma.shape != (d, u):
            raise InvalidInput(
                f"starting basis must be {d}x{u}, got {gamma.shape}"
            )
        check_orthonormal(gamma, tol=1e-8, name="starting basis")

    # the Grassmannian's diameter: u principal angles of at most pi/2 each
    max_radius = 0.5 * np.pi * np.sqrt(u)
    radius = max_radius
    val = j_value(pair, gamma)
    iterations = 0
    model = None
    while True:
        if model is None:
            model = _Model(*_tangent_model(pair, gamma))
            if np.linalg.norm(model.grad) <= settings.gradient_tol * max(1.0, abs(val)):
                break
        if iterations >= settings.max_iterations:
            diagnostics.append("CapReached")
            break
        step, pred = model.step(radius)
        if pred <= model.resolution:
            diagnostics.append("Roundoff")
            break
        iterations += 1
        trial = _signed_qr(gamma + model.g0 @ step.reshape(d - u, u))[0]
        trial_val = _j_value(pair, trial)
        rho = (val - trial_val) / pred
        step_norm = np.linalg.norm(step)
        if rho < _SHRINK:
            radius = _SHRINK * min(radius, step_norm)
        elif rho > _GROW and step_norm >= (1.0 - 1e-8) * radius:
            radius = min(2.0 * radius, max_radius)
        if rho > _ACCEPT:
            gamma, val = trial, trial_val
            model = None
        elif radius < np.finfo(float).eps:
            diagnostics.append("RadiusCollapse")
            break
    elapsed = time.perf_counter() - began

    return EnvelopeFit(
        basis=fix_column_signs(gamma),
        objective_values=[float(val)],
        inner_iterations=[iterations],
        wall_time_seconds=elapsed,
        algorithm_tag="fg",
        diagnostics=diagnostics,
    )
