"""Riemannian trust-region Newton on the subspace objective.

The scan-start oracle is frozen: for M = diag(1,2,3) and U = e2 e2', the
best single eigenvector is e2 because J(e_i) = log(lambda_i) + log of the
corresponding inverse eigenvalue of M+U, which only e2 lowers below zero.
"""

from dataclasses import replace

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


def _loop_scan(pair, u):
    """The reference scan: one J evaluation per free candidate and growth step."""
    d = pair.dim
    if u == d:
        return np.eye(d)
    cands = pair.candidates
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
            raise RankDeficientCandidates("stuck")
        used[best_i] = True
        basis = np.column_stack([basis, best_col])
    return linalg.fix_column_signs(basis)


# (kind, d, u, n, seeds): fewer seeds where the reference loop is slow
SCAN_PROBLEMS = [
    ("population", 10, 3, None, range(16)),
    ("population", 30, 10, None, range(6)),
    ("population", 50, 20, None, range(3)),
    ("sample", 30, 10, 200, range(6)),
    ("sample", 20, 5, 1000, range(8)),
    ("sample", 60, 30, 4000, range(2)),
]


@pytest.mark.parametrize(
    "kind, d, u, n, seeds", SCAN_PROBLEMS, ids=[f"{p[0]}-{p[1]}-{p[2]}" for p in SCAN_PROBLEMS]
)
def test_batched_scan_matches_the_loop(kind, d, u, n, seeds):
    # the batched increments round differently from whole-J evaluations;
    # population pairs have near-tied eigen-groups, where that shows most
    for s in seeds:
        if kind == "population":
            inst = simulate.generate_instance(d, u, s)
            pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
        else:  # the pairs simulate.sample_experiment builds: data seed s + 1
            pair = ObjectivePair.from_m_u(*_sample_problem(d, u, n, s, s + 1))
        dist = linalg.subspace_distance(grassmann._scan(pair, u), _loop_scan(pair, u))
        assert dist <= 1e-7, s


@pytest.mark.parametrize(
    "u_diag, u, picks", [([1.0, 0.0, 0.0, 0.0], 2, [3, 0]), ([0.0] * 4, 3, [0, 1, 2])]
)
def test_exact_ties_pick_in_candidate_order(u_diag, u, picks):
    # M = I, whose candidates are unit vectors: after e1, which U lowers,
    # every free candidate scores exactly 0 and the first of them wins
    pair = ObjectivePair.from_m_u(np.eye(4), np.diag(u_diag))
    basis = grassmann._scan(pair, u)
    assert np.array_equal(basis, _loop_scan(pair, u))
    assert [int(np.abs(pair.candidates @ col).argmax()) for col in basis.T] == picks


def test_a_complement_at_zero_never_wins():
    # a pair built by hand with a singular M: the Schur complements of e3
    # and e4 are 0, whose log, -inf, would win the pick; they score +inf
    good = ObjectivePair.from_m_u(np.diag([2.0, 1.0, 0.5, 0.25]), np.zeros((4, 4)))
    pair = replace(good, m=np.diag([2.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(np.abs(grassmann._scan(pair, 2)), np.eye(4)[:, :2])
    with pytest.raises(RankDeficientCandidates):
        grassmann._scan(pair, 3)


class TestFit:
    def test_population_recovery_scan(self):
        for seed in range(15):
            inst = simulate.generate_instance(6, 2, 400 + seed)
            fit = grassmann.fit(inst.m, inst.u_mat, 2)
            oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
            assert linalg.subspace_distance(fit.basis, oracle) < 1e-6

    def test_population_recovery_warm(self):
        for seed in range(15):
            inst = simulate.generate_instance(6, 2, 400 + seed)
            start = onedim.fit(inst.m, inst.u_mat, 2).basis
            fit = grassmann.fit(inst.m, inst.u_mat, 2, start=start)
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
        fit = grassmann.fit(inst.m, inst.u_mat, 2, start=start)
        pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
        # from a random start the optimizer still may not beat the true
        # envelope value, but it must never end above its own start
        assert fit.objective_values[-1] <= j_value(pair, start) + 1e-12

    def test_invalid_start_shape_rejected(self):
        inst = simulate.generate_instance(5, 2, 403)
        bad = np.ones((5, 2))  # not orthonormal
        with pytest.raises(InvalidInput):
            grassmann.fit(inst.m, inst.u_mat, 2, start=bad)
        with pytest.raises(InvalidInput):
            grassmann.fit(inst.m, inst.u_mat, 2, start=np.eye(5)[:, :1])

    def test_non_finite_start_rejected(self):
        inst = simulate.generate_instance(6, 2, 403)
        with_inf = np.eye(6)[:, :2].copy()
        with_inf[0, 0] = np.inf
        for bad in (np.full((6, 2), np.nan), with_inf):
            with pytest.raises(InvalidInput, match="non-finite"):
                grassmann.fit(inst.m, inst.u_mat, 2, start=bad)

    @pytest.mark.parametrize("bad", [object(), [["a", "b"]] * 5, "warm"])
    def test_non_numeric_start_rejected(self, bad):
        # a start that numpy cannot read as numbers is bad input, like a
        # start of the wrong shape
        inst = simulate.generate_instance(5, 2, 403)
        with pytest.raises(InvalidInput, match="starting basis must be a numeric array"):
            grassmann.fit(inst.m, inst.u_mat, 2, start=bad)

    def test_cap_reached_diagnostic(self):
        inst = simulate.generate_instance(8, 3, 404)
        # one iteration from a random start cannot converge
        start = linalg.orthonormalize(
            np.random.default_rng(7).standard_normal((8, 3))
        )
        fit = grassmann.fit(
            inst.m, inst.u_mat, 3, grassmann.FgSettings(max_iterations=1), start=start
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
            fg = grassmann.fit(s_res, u_hat, 3, start=od.basis)
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
        g0, grad, hess, _ = grassmann._tangent_model(pair, g)
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


def _eigh_counter(monkeypatch, hessians):
    """Count grassmann's eigendecompositions (``linalg._eigh``, the kernel of
    np.linalg.eigh) of any of the given Hessians."""
    calls = []
    real_eigh = grassmann._eigh

    def eigh(a):
        calls.extend(k for k, h in enumerate(hessians) if a is h)
        return real_eigh(a)

    monkeypatch.setattr(grassmann, "_eigh", eigh)
    return calls


def test_newton_step_that_fits_skips_the_eigendecomposition(monkeypatch):
    # a positive definite model whose Newton step fits: the Cholesky path
    # gives the eigen path's step and predicted decrease without an eigh
    rng = np.random.default_rng(630)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = rng.standard_normal((n, n))
        hess = a @ a.T + 0.1 * np.eye(n)
        grad = rng.standard_normal(n)
        radius = 2.0 * np.linalg.norm(np.linalg.solve(hess, grad))
        expected = grassmann._trust_region_step(*np.linalg.eigh(hess), grad, radius)
        model = grassmann._Model(None, grad, hess, 0.0)
        calls = _eigh_counter(monkeypatch, [hess])
        step, pred = model.step(radius)
        monkeypatch.undo()
        assert calls == []
        assert np.linalg.norm(step - expected[0]) <= 1e-10 * np.linalg.norm(step)
        assert pred == pytest.approx(expected[1], rel=1e-10)


@pytest.mark.parametrize("case", ["indefinite", "singular", "too long"])
def test_other_models_take_the_eigen_step(case):
    # wherever no Cholesky-certified Newton step fits, the step is exactly
    # the one _trust_region_step makes from the eigendecomposition
    rng = np.random.default_rng(640)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        grad = rng.standard_normal(n)
        radius = float(rng.uniform(0.1, 3.0))
        if case == "indefinite":
            hess = a + a.T
            hess -= (np.linalg.eigvalsh(hess)[0] + 1.0) * np.eye(n)  # lowest eigenvalue -1
        elif case == "singular":  # positive semidefinite: Cholesky meets a 0 pivot
            hess = np.zeros((n, n))
            hess[1:, 1:] = a[1:] @ a[1:].T
        else:
            hess = a @ a.T + 0.1 * np.eye(n)
            radius = 0.5 * np.linalg.norm(np.linalg.solve(hess, grad))
        if case != "too long":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(hess)
        step, pred = grassmann._Model(None, grad, hess, 0.0).step(radius)
        expected = grassmann._trust_region_step(*np.linalg.eigh(hess), grad, radius)
        assert np.array_equal(step, expected[0])
        assert pred == expected[1]


def test_a_model_decomposes_its_hessian_at_most_once(monkeypatch):
    # from a random start some steps are rejected and retried on the same
    # model with a smaller radius; each model's Hessian is eigendecomposed
    # at most once however many steps it serves
    models = []
    steps = []
    real_step = grassmann._Model.step

    def step(self, radius):
        if not any(self is m for m in models):
            models.append(self)
        steps.append(next(k for k, m in enumerate(models) if m is self))
        return real_step(self, radius)

    monkeypatch.setattr(grassmann._Model, "step", step)
    hessians = []
    calls = _eigh_counter(monkeypatch, hessians)
    real_model = grassmann._Model

    def model(*args):
        made = real_model(*args)
        hessians.append(made.hess)
        return made

    monkeypatch.setattr(grassmann, "_Model", model)
    inst = simulate.generate_instance(8, 3, 404)
    start = linalg.orthonormalize(np.random.default_rng(7).standard_normal((8, 3)))
    grassmann.fit(inst.m, inst.u_mat, 3, start=start)
    assert max(steps.count(k) for k in set(steps)) > 1  # a rejected step was retried
    assert calls  # some models needed the eigen path
    assert max(calls.count(k) for k in set(calls)) == 1


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
    starts = {
        "scan": grassmann.eigenvector_scan_start(m_hat, u_hat, u),
        "warm": onedim.fit(m_hat, u_hat, u).basis,
    }
    for strategy, start in starts.items():
        fit = grassmann.fit(m_hat, u_hat, u, start=start if strategy == "warm" else None)
        assert fit.diagnostics in ([], ["Roundoff"]), strategy
        assert fit.inner_iterations[0] <= 20, strategy
        assert fit.objective_values[0] <= j_value(pair, start), strategy
        # where it stopped, the Newton step promises no decrease that J
        # could resolve, or the gradient test passes
        _, grad, hess, resolution = grassmann._tangent_model(pair, fit.basis)
        g = grad.ravel()
        if fit.diagnostics:
            assert 0.5 * g @ np.linalg.solve(hess, g) <= 2.0 * resolution, strategy
        else:
            assert np.linalg.norm(g) <= 1e-8 * max(1.0, abs(fit.objective_values[0]))
