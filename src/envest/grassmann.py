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
retraction.  Each iteration solves the trust-region subproblem exactly
from the eigendecomposition of the Hessian (More & Sorensen 1983).  The
Hessian is a dense ((d - u) u)^2 array: 45 KB at (d, u) = (20, 5), 320 KB
at (30, 10), 6.5 MB at (100, 10), and d^4 / 2 bytes at its largest, u =
d / 2.

The iteration stops when the Riemannian gradient passes the relative
tolerance, when the model's predicted decrease falls to what float64 can
resolve in J (flag ``Roundoff``), when the radius falls below machine
epsilon (flag ``RadiusCollapse``), or at the iteration cap (flag
``CapReached``).  Only steps that lower J are accepted, so the result is
never above its start.

Starting values matter a great deal here.  The built-in ``scan`` start
grows a basis greedily over the 2d eigenvectors of M and of M + U, adding
whichever candidate lowers the objective most at each size.  Any other
orthonormal (d, u) basis can be supplied instead; the estimators' fg-warm
algorithm starts from the sequential solver's basis this way.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankDeficientCandidates
from .linalg import check_orthonormal, fix_column_signs, symmetrize, _signed_qr
from .objective import ObjectivePair, _check_solver_inputs, j_value
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
    """Knobs for the full optimizer.

    start_strategy is ``"scan"`` or an explicit orthonormal (d, u) basis.
    max_iterations caps the trust-region iterations, rejected steps
    included.
    """

    max_iterations: int = 100
    gradient_tol: float = 1e-8
    start_strategy: object = "scan"


def _scan(pair, u):
    d = pair.dim
    if u == d:
        return np.eye(d)
    cands = np.concatenate(
        [pair.m_eigenvectors.T, pair.m_plus_u_eigenvectors.T], axis=0
    )
    basis = np.zeros((d, 0))
    used = np.zeros(cands.shape[0], dtype=bool)
    for _ in range(u):
        best_j = np.inf
        best_i = -1
        best_col = None
        for i in range(cands.shape[0]):
            if used[i]:
                continue
            resid = cands[i] - basis @ (basis.T @ cands[i])
            nrm = np.linalg.norm(resid)
            if nrm < 1e-8:
                continue
            col = resid / nrm
            val = j_value(pair, np.column_stack([basis, col]))
            if val < best_j:
                best_j = val
                best_i = i
                best_col = col
        if best_i < 0:
            raise RankDeficientCandidates(
                f"eigenvector candidates span too little: stuck at {basis.shape[1]} "
                f"of {u} directions"
            )
        used[best_i] = True
        basis = np.column_stack([basis, best_col])
    return fix_column_signs(basis)


def eigenvector_scan_start(m_hat, u_hat, u):
    """Greedy starting basis built from eigenvectors of M and of M + U.

    All 2d eigenvectors compete; at each of the u growth steps the candidate
    whose (orthonormalized) addition gives the lowest objective joins the
    basis, ties broken by candidate order.  Candidates nearly inside the
    current span are skipped; running out raises RankDeficientCandidates.
    """
    m_hat, u_hat, _ = _check_solver_inputs(m_hat, u_hat, u)
    return _scan(ObjectivePair.from_m_u(m_hat, u_hat), u)


def _tangent_model(pair, gamma, norms):
    """Quadratic model of J at the basis gamma, in tangent coordinates.

    Returns (G0, gradient, Hessian, resolution): the complement whose
    columns carry the coordinates, the (d - u, u) Riemannian gradient, the
    ((d - u) u)^2 Riemannian Hessian in row-major order of the coordinates,
    and the float64 resolution of J at gamma,
    eps * u * (||M||_2 / lambda_min(G'MG) + ||N||_2 / lambda_min(G'NG)),
    with norms = (||M||_2, ||N||_2).
    """
    d, u = gamma.shape
    g0 = np.linalg.qr(gamma, mode="complete")[0][:, u:]
    size = (d - u) * u
    grad = np.zeros((d - u, u))
    hess = -4.0 * np.eye(size)
    resolution = 0.0
    for a, a_norm in zip((pair.m, pair.m_plus_u_inv), norms):
        ag = a @ gamma
        vals, vecs = np.linalg.eigh(symmetrize(gamma.T @ ag))
        c_inv = (vecs / vals) @ vecs.T
        a01 = g0.T @ ag
        p = a01 @ c_inv
        grad += 2.0 * p
        hess += 2.0 * np.kron(g0.T @ a @ g0 - p @ a01.T, c_inv)
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
    step out to the boundary.
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


def fit(m_hat, u_hat, u, settings=None):
    """Fit a u-dimensional basis by Riemannian trust-region Newton.

    Returns an EnvelopeFit tagged ``"fg"`` whose objective_values holds the
    single final objective and inner_iterations the trust-region
    iterations.  Stopping other than by the gradient test is reported
    through the diagnostics flags ``Roundoff``, ``RadiusCollapse`` and
    ``CapReached`` rather than as an error; the best iterate found is
    returned either way.  wall_time_seconds covers the whole call,
    building the scan start included.  A start that is not a finite
    orthonormal (d, u) basis raises InvalidInput.
    """
    start = time.perf_counter()
    if settings is None:
        settings = FgSettings()
    m_hat, u_hat, d = _check_solver_inputs(m_hat, u_hat, u)
    pair = ObjectivePair.from_m_u(m_hat, u_hat)

    strategy = settings.start_strategy
    diagnostics = []
    if isinstance(strategy, str):
        if strategy != "scan":
            raise InvalidInput(
                f"unknown start strategy {strategy!r}; use 'scan' or a basis"
            )
        gamma = _scan(pair, u)
    else:
        gamma = np.asarray(strategy, dtype=float)
        if gamma.shape != (d, u):
            raise InvalidInput(
                f"starting basis must be {d}x{u}, got {gamma.shape}"
            )
        check_orthonormal(gamma, tol=1e-8, name="starting basis")

    norms = (
        float(np.linalg.eigvalsh(pair.m)[-1]),
        float(np.linalg.eigvalsh(pair.m_plus_u_inv)[-1]),
    )
    # the Grassmannian's diameter: u principal angles of at most pi/2 each
    max_radius = 0.5 * np.pi * np.sqrt(u)
    radius = max_radius
    val = j_value(pair, gamma)
    iterations = 0
    model = None
    while True:
        if model is None:
            model = _tangent_model(pair, gamma, norms)
            g0, grad, hess, resolution = model
            if np.linalg.norm(grad) <= settings.gradient_tol * max(1.0, abs(val)):
                break
            vals, vecs = np.linalg.eigh(hess)
        if iterations >= settings.max_iterations:
            diagnostics.append("CapReached")
            break
        step, pred = _trust_region_step(vals, vecs, grad.ravel(), radius)
        if pred <= resolution:
            diagnostics.append("Roundoff")
            break
        iterations += 1
        trial = _signed_qr(gamma + g0 @ step.reshape(grad.shape))[0]
        trial_val = j_value(pair, trial)
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
    elapsed = time.perf_counter() - start

    return EnvelopeFit(
        basis=fix_column_signs(gamma),
        objective_values=[float(val)],
        inner_iterations=[iterations],
        wall_time_seconds=elapsed,
        algorithm_tag="fg",
        diagnostics=diagnostics,
    )
