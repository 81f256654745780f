"""Riemannian trust-region Newton on the subspace objective.

The scan-start oracle is frozen: for M = diag(1,2,3) and U = e2 e2', the
best single eigenvector is e2 because J(e_i) = log(lambda_i) + log of the
corresponding inverse eigenvalue of M+U, which only e2 lowers below zero.
"""

import numpy as np
import pytest

from envest import grassmann, linalg, onedim, simulate
from envest.estimators import covariance_kit
from envest.errors import InvalidInput, RankDeficientCandidates
from envest.objective import ObjectivePair, j_value


def test_scan_start_frozen_pick():
    m = np.diag([1.0, 2.0, 3.0])
    u_mat = np.zeros((3, 3))
    u_mat[1, 1] = 1.0
    start = grassmann.eigenvector_scan_start(m, u_mat, 1)
    np.testing.assert_allclose(np.abs(start[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_scan_start_orthonormal():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        a = rng.standard_normal((d, d))
        m = a @ a.T + d * np.eye(d)
        b = rng.standard_normal((d, 2))
        u_mat = b @ b.T
        k = int(rng.integers(1, d))
        start = grassmann.eigenvector_scan_start(m, u_mat, k)
        np.testing.assert_allclose(start.T @ start, np.eye(k), atol=1e-10)


def test_scan_start_greedy_is_monotone():
    # each greedy growth step may only improve the one-column-more value
    rng = np.random.default_rng(32)
    inst = simulate.generate_instance(7, 3, 300)
    pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
    values = [
        j_value(pair, grassmann.eigenvector_scan_start(inst.m, inst.u_mat, k))
        for k in (1, 2, 3)
    ]
    assert values[1] <= values[0] + 1e-9
    assert values[2] <= values[1] + 1e-9


class TestFit:
    def test_population_recovery_scan(self):
        for seed in range(15):
            inst = simulate.generate_instance(6, 2, 400 + seed)
            fit = grassmann.fit(inst.m, inst.u_mat, 2)
            oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
            assert linalg.subspace_distance(fit.basis, oracle) < 1e-6
            assert fit.algorithm_tag == "fg"

    def test_population_recovery_warm(self):
        for seed in range(15):
            inst = simulate.generate_instance(6, 2, 400 + seed)
            start = onedim.fit(inst.m, inst.u_mat, 2).basis
            fit = grassmann.fit(
                inst.m, inst.u_mat, 2, grassmann.FgSettings(start_strategy=start)
            )
            oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
            assert linalg.subspace_distance(fit.basis, oracle) < 1e-6

    def test_result_orthonormal(self):
        inst = simulate.generate_instance(8, 3, 401)
        fit = grassmann.fit(inst.m, inst.u_mat, 3)
        np.testing.assert_allclose(fit.basis.T @ fit.basis, np.eye(3), atol=1e-10)

    def test_explicit_start_basis(self):
        inst = simulate.generate_instance(6, 2, 402)
        start = linalg.orthonormalize(
            np.random.default_rng(5).standard_normal((6, 2))
        )
        fit = grassmann.fit(
            inst.m, inst.u_mat, 2, grassmann.FgSettings(start_strategy=start)
        )
        pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
        # from a random start the optimizer still may not beat the true
        # envelope value, but it must never end above its own start
        assert fit.objective_values[-1] <= j_value(pair, start) + 1e-12

    def test_invalid_start_shape_rejected(self):
        inst = simulate.generate_instance(5, 2, 403)
        bad = np.ones((5, 2))  # not orthonormal
        with pytest.raises(InvalidInput):
            grassmann.fit(inst.m, inst.u_mat, 2, grassmann.FgSettings(start_strategy=bad))
        with pytest.raises(InvalidInput):
            grassmann.fit(
                inst.m, inst.u_mat, 2,
                grassmann.FgSettings(start_strategy=np.eye(5)[:, :1]),
            )

    def test_non_finite_start_rejected(self):
        inst = simulate.generate_instance(6, 2, 403)
        with_inf = np.eye(6)[:, :2].copy()
        with_inf[0, 0] = np.inf
        for bad in (np.full((6, 2), np.nan), with_inf):
            with pytest.raises(InvalidInput, match="non-finite"):
                grassmann.fit(
                    inst.m, inst.u_mat, 2, grassmann.FgSettings(start_strategy=bad)
                )

    def test_warm_is_not_a_start_strategy(self):
        # the sequential start belongs to the estimators' fg-warm algorithm
        inst = simulate.generate_instance(5, 2, 403)
        with pytest.raises(InvalidInput, match="unknown start strategy"):
            grassmann.fit(
                inst.m, inst.u_mat, 2, grassmann.FgSettings(start_strategy="warm")
            )

    def test_cap_reached_diagnostic(self):
        inst = simulate.generate_instance(8, 3, 404)
        # one iteration from a random start cannot converge
        start = linalg.orthonormalize(
            np.random.default_rng(7).standard_normal((8, 3))
        )
        fit = grassmann.fit(
            inst.m,
            inst.u_mat,
            3,
            grassmann.FgSettings(start_strategy=start, max_iterations=1),
        )
        assert "CapReached" in fit.diagnostics

    def test_warm_start_never_worse_than_onedim(self):
        # the refinement must not move uphill from its own start
        rng = np.random.default_rng(33)
        for seed in range(8):
            inst = simulate.generate_instance(10, 3, 500 + seed)
            data = simulate.sample_data(inst, 300, 600 + seed)
            y = data.y
            yc = y - y.mean(axis=0)
            xc = data.x - data.x.mean(axis=0)
            s_y = yc.T @ yc / y.shape[0]
            bxy = np.linalg.lstsq(xc, yc, rcond=None)[0]
            resid = yc - xc @ bxy
            s_res = resid.T @ resid / y.shape[0]
            u_hat = linalg.symmetrize(s_y - s_res)
            od = onedim.fit(s_res, u_hat, 3)
            fg = grassmann.fit(
                s_res, u_hat, 3,
                grassmann.FgSettings(start_strategy=od.basis),
            )
            pair = ObjectivePair.from_m_u(s_res, u_hat)
            assert fg.objective_values[-1] <= j_value(pair, od.basis) + 1e-10

    def test_deterministic(self):
        inst = simulate.generate_instance(7, 2, 405)
        f1 = grassmann.fit(inst.m, inst.u_mat, 2)
        f2 = grassmann.fit(inst.m, inst.u_mat, 2)
        assert np.array_equal(f1.basis, f2.basis)


def test_scan_needs_enough_independent_candidates():
    # a rank-1 M+U shares eigenvectors with M, so the candidate pool
    # collapses onto d distinct directions; asking for all of them is fine
    # but the pool cannot be rank-deficient for k <= d.  Construct an
    # explicit degenerate pool instead: d = 2 with identical eigenvectors.
    m = np.diag([2.0, 1.0])
    start = grassmann.eigenvector_scan_start(m, np.zeros((2, 2)), 2)
    np.testing.assert_allclose(start.T @ start, np.eye(2), atol=1e-12)


def test_tangent_model_matches_finite_differences():
    # gradient and Hessian against central differences of J along the QR
    # retraction K -> qf(G + G0 K); the retraction is second order on the
    # Grassmannian, so its second differences are the Riemannian Hessian
    rng = np.random.default_rng(610)
    h_grad, h_hess = 1e-5, 3e-4
    worst_g = worst_h = worst_sym = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        u = int(rng.integers(1, d))
        inst = simulate.generate_instance(
            d, int(rng.integers(1, d)), int(rng.integers(0, 2**31))
        )
        pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
        g = linalg.orthonormalize(rng.standard_normal((d, u)))
        g0, grad, hess, _ = grassmann._tangent_model(pair, g, (1.0, 1.0))
        size = (d - u) * u
        eye = np.eye(size)

        def j_at(k):
            return j_value(pair, linalg._signed_qr(g + g0 @ k.reshape(d - u, u))[0])

        fd = np.array(
            [(j_at(h_grad * e) - j_at(-h_grad * e)) / (2 * h_grad) for e in eye]
        )
        fdh = np.empty((size, size))
        for a in range(size):
            for b in range(a, size):
                p, q = h_hess * eye[a], h_hess * eye[b]
                fdh[a, b] = fdh[b, a] = (
                    j_at(p + q) - j_at(p - q) - j_at(q - p) + j_at(-p - q)
                ) / (4 * h_hess**2)
        worst_g = max(
            worst_g, np.linalg.norm(grad.ravel() - fd) / max(np.linalg.norm(fd), 1.0)
        )
        worst_h = max(
            worst_h, np.linalg.norm(hess - fdh) / max(np.linalg.norm(hess), 1.0)
        )
        worst_sym = max(worst_sym, float(np.abs(hess - hess.T).max()))
    assert worst_g < 1e-6
    assert worst_h < 1e-4
    assert worst_sym == 0.0


@pytest.mark.parametrize("hard", [False, True])
def test_trust_region_step_is_the_subproblem_minimizer(hard):
    # the exact step must beat every feasible point of a random sample,
    # including when H is indefinite and g has no weight on its lowest
    # eigenvector (the hard case)
    rng = np.random.default_rng(620 + hard)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        vals, vecs = np.linalg.eigh(a + a.T)
        grad = rng.standard_normal(n)
        if hard:
            grad -= vecs[:, 0] * (vecs[:, 0] @ grad)
        radius = float(rng.uniform(0.1, 3.0))
        step, pred = grassmann._trust_region_step(vals, vecs, grad, radius)
        hess = (vecs * vals) @ vecs.T

        def model(s):
            return grad @ s + 0.5 * s @ hess @ s

        assert np.linalg.norm(step) <= radius * (1 + 1e-8)
        assert pred == pytest.approx(-model(step), rel=1e-8, abs=1e-12)
        trials = rng.standard_normal((2000, n))
        trials *= radius * rng.uniform(0, 1, (2000, 1)) ** (1 / n) / np.linalg.norm(
            trials, axis=1, keepdims=True
        )
        assert min(model(t) for t in trials) >= model(step) - 1e-10


def _sample_problem(d, u, n, inst_seed, data_seed):
    inst = simulate.generate_instance(d, u, inst_seed)
    kit = covariance_kit(simulate.sample_data(inst, n, data_seed))
    m_hat = kit.s_y_given_x
    return m_hat, linalg.symmetrize(kit.s_y - m_hat)


@pytest.mark.parametrize(
    "problem",
    [(20, 5, 1000, s, 100 + s) for s in range(4)]
    + [(30, 10, 2000, 4000 + i, 4001 + i) for i in range(3)],
)
def test_converges_on_sample_data(problem):
    # sample covariances leave the Grassmann Hessian badly conditioned, yet
    # Newton must end by the gradient test or at J's float64 resolution
    # within a few steps, from either start, and never above its start
    d, u = problem[:2]
    m_hat, u_hat = _sample_problem(*problem)
    pair = ObjectivePair.from_m_u(m_hat, u_hat)
    norms = (np.linalg.norm(pair.m, 2), np.linalg.norm(pair.m_plus_u_inv, 2))
    starts = {
        "scan": grassmann.eigenvector_scan_start(m_hat, u_hat, u),
        "warm": onedim.fit(m_hat, u_hat, u).basis,
    }
    for strategy, start in starts.items():
        fit = grassmann.fit(
            m_hat, u_hat, u,
            grassmann.FgSettings(start_strategy=start if strategy == "warm" else strategy),
        )
        assert fit.diagnostics in ([], ["Roundoff"]), strategy
        assert fit.inner_iterations[0] <= 20, strategy
        assert fit.objective_values[0] <= j_value(pair, start), strategy
        # where it stopped, the Newton step promises no decrease that J
        # could resolve, or the gradient test passes
        _, grad, hess, resolution = grassmann._tangent_model(pair, fit.basis, norms)
        g = grad.ravel()
        if fit.diagnostics:
            assert 0.5 * g @ np.linalg.solve(hess, g) <= 2.0 * resolution, strategy
        else:
            assert np.linalg.norm(g) <= 1e-8 * max(1.0, abs(fit.objective_values[0]))
