"""Sequential one-direction-at-a-time envelope solver.

The envelope basis is grown greedily: with g_1..g_k already accepted and
G_0k an orthonormal complement of their span, the next direction minimizes
the scale-invariant objective

    D_k(w) = log(w' M_k w) + log(w' (M_k + U_k)^{-1} w) - 2 log(w' w)

over w in R^{d-k}, where M_k and U_k are M and U compressed onto the
complement.  The accepted direction is G_0k w, so every step enlarges the
span by exactly one dimension and the whole run costs u small smooth
minimizations instead of one Grassmann program.

Each step is solved by a safeguarded Newton iteration on the unit sphere,
started from every eigenvector of M_k and of (M_k + U_k)^{-1}.  D is
scale-invariant, so its full Hessian is singular along w and a plain Newton
step points mostly along w, where D does not change.  The step is therefore
taken in the tangent space at w (Absil, Mahony & Sepulchre 2008, ch. 6):
the tangential gradient against the Hessian compressed onto w-perp, whose
radial block is pinned to the identity, shifted by its smallest eigenvalue
when that is not safely positive.  Armijo backtracking accepts a trial only
when it also strictly lowers D, and gives up on a step once the decrease it
asks for falls below D's float64 resolution at the start; a start whose
Newton and steepest-descent searches both give up is retired where it
stands, at a point where no representable decrease is left.

All starts are iterated together as rows of one array, through the batched
D kernels of ``objective``; the winner is the converged candidate with the
smallest final objective, ties resolved by candidate order.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence
from .linalg import fix_column_signs, orthonormal_complement
from .objective import (
    ObjectivePair,
    _check_solver_inputs,
    _d_tilde_gradients,
    _d_tilde_hessians,
    _d_tilde_values,
)

__all__ = ["OneDimSettings", "EnvelopeFit", "solve_direction", "fit"]

_SHIFT_FLOOR = 1e-8
# Armijo backtracking constants
_ARMIJO_C1 = 1e-4
_LINE_SEARCH_SHRINK = 0.5
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class OneDimSettings:
    """Knobs for the direction solver.

    The solver is deterministic and reads no seed; ``seed`` stays because
    callers pass it.
    """

    max_inner_iterations: int = 500
    gradient_tol: float = 1e-10
    seed: int = 0


@dataclass
class EnvelopeFit:
    """Result of an envelope basis fit.

    objective_values holds the per-step final objective for the sequential
    algorithm and the single final value for the Grassmann optimizer;
    inner_iterations is aligned with it.  diagnostics collects string flags:
    ``FlatStep@k`` and ``FullSpace`` from the sequential solver, ``Roundoff``,
    ``RadiusCollapse`` and ``CapReached`` from the Grassmann optimizer, and
    ``Ridged`` from the estimators.
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
        """
        flat = "FlatStep@"
        return EnvelopeFit(
            basis=np.ascontiguousarray(self.basis[:, :u]),
            objective_values=self.objective_values[:u],
            inner_iterations=self.inner_iterations[:u],
            wall_time_seconds=self.wall_time_seconds,
            algorithm_tag=self.algorithm_tag,
            diagnostics=[
                f for f in self.diagnostics
                if not f.startswith(flat) or int(f[len(flat):]) < u
            ],
        )


def _armijo(m, n, w, f, p, dg):
    """Backtracking line search run on all rows at once.

    Returns (accepted mask, new points, new values).  A trial is accepted
    only when it meets the sufficient-decrease test and strictly lowers D.
    A row stalls, unaccepted, once the decrease the test asks for drops
    below the float64 resolution of D at its start, or its step below the
    minimum step.
    """
    rows = w.shape[0]
    t = np.ones(rows)
    accepted = np.zeros(rows, dtype=bool)
    w_new = w.copy()
    f_new = f.copy()
    resolution = np.finfo(float).eps * np.maximum(1.0, np.abs(f))
    pending = np.ones(rows, dtype=bool)
    while pending.any():
        j = np.flatnonzero(pending)
        trial = w[j] + t[j, None] * p[j]
        fv = _d_tilde_values(m, n, trial)
        ok = (fv <= f[j] + _ARMIJO_C1 * t[j] * dg[j]) & (fv < f[j])
        hit = j[ok]
        w_new[hit] = trial[ok]
        f_new[hit] = fv[ok]
        accepted[hit] = True
        pending[hit] = False
        t[pending] *= _LINE_SEARCH_SHRINK
        dead = pending & ((_ARMIJO_C1 * t * np.abs(dg) < resolution) | (t < _MIN_STEP))
        pending[dead] = False
    return accepted, w_new, f_new


def _solve_direction(pair, settings):
    """Multistart solve; returns (w, value, iterations-of-winner, flat)."""
    dim = pair.dim
    m, n = pair.m, pair.m_plus_u_inv
    if dim == 1:
        w = np.ones(1)
        return w, float(_d_tilde_values(m, n, w[None, :])[0]), 0, False

    # one row per start, stored row-major: the rounding of the batched
    # kernels depends on the layout
    w = np.ascontiguousarray(
        np.concatenate([pair.m_eigenvectors.T, pair.m_plus_u_eigenvectors.T], axis=0)
    )
    count = w.shape[0]
    f = _d_tilde_values(m, n, w)
    iters = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.ones(count, dtype=bool)
    best_gn = np.full(count, np.inf)
    tol = settings.gradient_tol
    fro_m = float(np.linalg.norm(m, "fro"))
    fro_n = float(np.linalg.norm(n, "fro"))
    it = 0

    # all active candidates step together, so one global counter suffices;
    # a candidate's recorded inner-iteration count is the value of ``it``
    # when it converged or was retired
    while True:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        wa = w[idx]
        g, floor = _d_tilde_gradients(m, n, wa, fro_m, fro_n)
        radial = np.einsum("ij,ij->i", g, wa)
        tang = g - radial[:, None] * wa
        gn = np.linalg.norm(tang, axis=1)
        best_gn[idx] = np.minimum(best_gn[idx], gn)
        done = gn <= np.maximum(tol * np.maximum(1.0, np.abs(f[idx])), floor)
        converged[idx[done]] = True
        active[idx[done]] = False
        iters[idx[done]] = it
        idx = idx[~done]
        if idx.size == 0:
            break
        if it >= settings.max_inner_iterations:
            active[idx] = False
            iters[idx] = it
            break
        it += 1
        wa = wa[~done]
        g = tang[~done]

        # Newton step in the tangent space at the unit rows w, against the
        # tangential gradient g: H becomes (I - ww') H (I - ww') + ww', its
        # compression onto w-perp with the radial block pinned to the
        # identity, written in place as H - wb' - bw' for
        # b = Hw - (w'Hw + 1) w / 2
        h = _d_tilde_hessians(m, n, wa)
        hw = np.einsum("cij,cj->ci", h, wa)
        b = hw - 0.5 * (np.einsum("ci,ci->c", hw, wa) + 1.0)[:, None] * wa
        h -= wa[:, :, None] * b[:, None, :]
        h -= b[:, :, None] * wa[:, None, :]
        lam_min = np.linalg.eigvalsh(h)[:, 0]
        scale = np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
        tau = np.maximum(0.0, _SHIFT_FLOOR * scale - lam_min)
        h[:, np.arange(dim), np.arange(dim)] += tau[:, None]
        p = -np.linalg.solve(h, g[..., None])[..., 0]
        dg = np.einsum("ij,ij->i", p, g)
        bad = dg >= 0.0
        if bad.any():
            p[bad] = -g[bad]
            dg[bad] = -np.einsum("ij,ij->i", g[bad], g[bad])

        acc, w_try, f_try = _armijo(m, n, wa, f[idx], p, dg)
        if not acc.all():
            # Newton step failed to decrease somewhere: steepest descent retry
            miss = ~acc
            p2 = -g[miss]
            dg2 = -np.einsum("ij,ij->i", p2, p2)
            acc2, w2, f2 = _armijo(m, n, wa[miss], f[idx][miss], p2, dg2)
            sub = np.flatnonzero(miss)
            w_try[sub[acc2]] = w2[acc2]
            f_try[sub[acc2]] = f2[acc2]
            acc[sub[acc2]] = True
            # both searches stalled: retire the candidate where it stands
            dead = idx[sub[~acc2]]
            active[dead] = False
            iters[dead] = it
        moved = idx[acc]
        if moved.size:
            wn = w_try[acc]
            wn /= np.linalg.norm(wn, axis=1, keepdims=True)
            w[moved] = wn
            f[moved] = _d_tilde_values(m, n, wn)

    if not converged.any():
        b = int(np.argmin(f))
        raise NoConvergence(
            "no candidate start satisfied the gradient criterion "
            f"(best objective {f[b]:.6g}, gradient norm {best_gn[b]:.3g})",
            best=fix_column_signs(w[b]),
            gradient_norm=float(best_gn[b]),
        )

    # smallest final value among all starts wins (first index on ties);
    # stalled starts stay eligible since a stall only happens where no
    # representable decrease exists, i.e. at a numerical critical point
    win = int(np.argmin(f))
    spread = float(np.max(f) - np.min(f))
    flat = spread <= 1e-10 * max(1.0, abs(float(f[win])))
    return fix_column_signs(w[win]), float(f[win]), int(iters[win]), bool(flat)


def solve_direction(pair, settings=None):
    """Best direction for one deflated (M_k, U_k) pair.

    Returns a unit vector whose tangential gradient meets the relative
    tolerance in ``settings``; raises NoConvergence when no start does.
    """
    if settings is None:
        settings = OneDimSettings()
    w, _, _, _ = _solve_direction(pair, settings)
    return w


def fit(m_hat, u_hat, u, settings=None):
    """Estimate a u-dimensional envelope basis for the pair (m_hat, u_hat).

    m_hat must be symmetric positive definite, u_hat symmetric positive
    semidefinite.  Directions are extracted one at a time; the returned
    basis columns are orthonormal and in extraction order.  u == d skips
    optimization entirely and returns the identity basis.  A NoConvergence
    at direction k carries step_index k and, in ``partial``, the fit of the
    k directions accepted before it.
    """
    if settings is None:
        settings = OneDimSettings()
    m_hat, u_hat, d = _check_solver_inputs(m_hat, u_hat, u)

    start = time.perf_counter()

    def result(basis, values, iterations, diagnostics):
        return EnvelopeFit(
            basis=basis,
            objective_values=values,
            inner_iterations=iterations,
            wall_time_seconds=time.perf_counter() - start,
            algorithm_tag="onedim",
            diagnostics=diagnostics,
        )

    if u == d:
        return result(np.eye(d), [], [], ["FullSpace"])

    basis = np.zeros((d, 0))
    values = []
    iterations = []
    diagnostics = []
    for k in range(u):
        g0 = orthonormal_complement(basis)
        pair_k = ObjectivePair.from_m_u(g0.T @ m_hat @ g0, g0.T @ u_hat @ g0)
        try:
            w, val, its, flat = _solve_direction(pair_k, settings)
        except NoConvergence as exc:
            exc.step_index = k
            exc.partial = result(basis, values, iterations, diagnostics)
            raise
        g = g0 @ w
        g /= np.linalg.norm(g)
        basis = np.column_stack([basis, fix_column_signs(g)])
        values.append(val)
        iterations.append(its)
        if flat:
            diagnostics.append(f"FlatStep@{k}")
    return result(basis, values, iterations, diagnostics)
