"""Direct minimization of the envelope objective over u-dimensional spans.

This is the reference full optimizer the sequential solver is measured
against: projected gradient descent on the set of semi-orthogonal d x u
matrices, moving along the tangent direction -(I - GG')dJ/dG and retracting
with a thin QR factorization.  Step sizes come from Armijo backtracking, so
the objective is non-increasing along accepted iterates.

Starting values matter a great deal here.  Two strategies are built in:

* ``scan``: greedy growth over the 2d eigenvectors of M and of M + U,
  adding whichever candidate lowers the objective most at each size,
* ``warm``: run the sequential solver first and refine its basis.

A plain ndarray can also be supplied to start anywhere else.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidInput, RankDeficientCandidates
from .linalg import fix_column_signs, _require_symmetric
from .objective import ObjectivePair, j_gradient, j_value
from .onedim import EnvelopeFit, OneDimSettings
from . import onedim as _onedim

__all__ = ["FgSettings", "eigenvector_scan_start", "fit"]

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class FgSettings:
    """Knobs for the full optimizer.

    start_strategy is ``"scan"``, ``"warm"``, or an explicit (d, u) basis.
    """

    max_iterations: int = 5000
    gradient_tol: float = 1e-8
    start_strategy: object = "scan"
    line_search_shrink: float = 0.5
    seed: int = 0


def _retract(a):
    """Orthonormalize a full-column-rank matrix, signs pinned by diag(R)."""
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


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
    pair = ObjectivePair.from_m_u(
        _require_symmetric(m_hat, "m_hat"), _require_symmetric(u_hat, "u_hat")
    )
    if not (1 <= u <= pair.dim):
        raise InvalidDimension(f"u must be between 1 and {pair.dim}, got {u}")
    return _scan(pair, u)


def fit(m_hat, u_hat, u, settings=None):
    """Fit a u-dimensional basis by projected gradient descent.

    Returns an EnvelopeFit tagged ``"fg"`` whose objective_values holds the
    single final objective.  Hitting the iteration cap or stalling in the
    line search is reported through the diagnostics flags ``CapReached``
    and ``LineSearchStall`` rather than as an error; the best iterate found
    is returned either way.  wall_time_seconds covers the descent only: the
    clock starts after the starting basis is built, so neither the scan nor
    the sequential warm-start fit is included.
    """
    if settings is None:
        settings = FgSettings()
    m_hat = _require_symmetric(m_hat, "m_hat")
    u_hat = _require_symmetric(u_hat, "u_hat")
    d = m_hat.shape[0]
    if u_hat.shape[0] != d:
        raise InvalidDimension(
            f"m_hat is {d}x{d} but u_hat is {u_hat.shape[0]}x{u_hat.shape[0]}"
        )
    if not (1 <= u <= d):
        raise InvalidDimension(f"u must be between 1 and {d}, got {u}")
    pair = ObjectivePair.from_m_u(m_hat, u_hat)

    strategy = settings.start_strategy
    diagnostics = []
    if isinstance(strategy, str):
        if strategy == "scan":
            gamma = _scan(pair, u)
        elif strategy == "warm":
            warm = _onedim.fit(
                m_hat, u_hat, u, OneDimSettings(seed=settings.seed)
            )
            gamma = warm.basis
        else:
            raise InvalidInput(
                f"unknown start strategy {strategy!r}; use 'scan', 'warm' or a basis"
            )
    else:
        gamma = np.asarray(strategy, dtype=float)
        if gamma.shape != (d, u):
            raise InvalidInput(
                f"starting basis must be {d}x{u}, got {gamma.shape}"
            )
        if np.abs(gamma.T @ gamma - np.eye(u)).max() > 1e-8:
            raise InvalidInput("starting basis columns are not orthonormal")

    def tangent_norm(g):
        grad = j_gradient(pair, g)
        tangent = grad - g @ (g.T @ grad)
        return tangent, float(np.linalg.norm(tangent, "fro"))

    start = time.perf_counter()
    val = j_value(pair, gamma)
    iterations = 0
    stop = None
    for _ in range(settings.max_iterations):
        tangent, gnorm = tangent_norm(gamma)
        if gnorm <= settings.gradient_tol * max(1.0, abs(val)):
            stop = "converged"
            break
        t = 1.0
        accepted = False
        while t >= _MIN_STEP:
            trial = _retract(gamma - t * tangent)
            trial_val = j_value(pair, trial)
            if trial_val <= val - _ARMIJO_C1 * t * gnorm**2:
                gamma, val = trial, trial_val
                accepted = True
                break
            t *= settings.line_search_shrink
        iterations += 1
        if not accepted:
            stop = "stall"
            diagnostics.append("LineSearchStall")
            break
    if stop is None:
        # cap exhausted; the last accepted step may still have converged
        _, gnorm = tangent_norm(gamma)
        if gnorm > settings.gradient_tol * max(1.0, abs(val)):
            diagnostics.append("CapReached")
    elapsed = time.perf_counter() - start

    return EnvelopeFit(
        basis=fix_column_signs(gamma),
        objective_values=[float(val)],
        inner_iterations=[iterations],
        wall_time_seconds=elapsed,
        algorithm_tag="fg",
        diagnostics=diagnostics,
    )
