"""Estimator plug-ins against least-squares oracles.

The covariance blocks are checked against numpy.cov and an explicit lstsq
residual fit before any envelope machinery is trusted on top of them.
"""

import numpy as np
import hypothesis
import pytest
from hypothesis import strategies as st

from envest import estimators, linalg, onedim, simulate
from envest.errors import (
    AllFitsFailed,
    EnvestError,
    InvalidDimension,
    InvalidInput,
    InvalidUhat,
    NoConvergence,
    SingularCovariance,
)
from envest.grassmann import FgSettings
from envest.objective import ObjectivePair
from envest.onedim import OneDimSettings


def make_data(seed, d=6, u=2, n=400):
    inst = simulate.generate_instance(d, u, seed)
    return inst, simulate.sample_data(inst, n, seed + 1)


class TestRegressionData:
    def test_reshapes_vectors(self):
        data = estimators.RegressionData(x=np.arange(5.0), y=np.arange(5.0))
        assert data.x.shape == (5, 1)
        assert data.y.shape == (5, 1)
        assert data.n == 5

    def test_row_mismatch(self):
        with pytest.raises(InvalidInput):
            estimators.RegressionData(x=np.zeros((4, 2)), y=np.zeros((5, 1)))

    def test_too_few_rows(self):
        with pytest.raises(InvalidInput):
            estimators.RegressionData(x=None, y=np.zeros((1, 3)))

    def test_non_finite(self):
        y = np.zeros((4, 2))
        y[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            estimators.RegressionData(x=None, y=y)


class TestCovarianceKit:
    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 4))
        kit = estimators.covariance_kit(estimators.RegressionData(x, y))
        n = 50
        np.testing.assert_allclose(
            kit.s_x, np.cov(x.T, ddof=0), atol=1e-12
        )
        np.testing.assert_allclose(
            kit.s_y, np.cov(y.T, ddof=0), atol=1e-12
        )
        joint = np.cov(np.hstack([x, y]).T, ddof=0)
        np.testing.assert_allclose(kit.s_xy, joint[:3, 3:], atol=1e-12)
        assert kit.n == n

    def test_conditional_is_lstsq_residual_covariance(self):
        # S_{Y|X} must equal the covariance of residuals from regressing
        # centered Y on centered X
        rng = np.random.default_rng(42)
        x = rng.standard_normal((80, 2))
        y = x @ rng.standard_normal((2, 3)) + rng.standard_normal((80, 3))
        kit = estimators.covariance_kit(estimators.RegressionData(x, y))
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        coef = np.linalg.lstsq(xc, yc, rcond=None)[0]
        resid = yc - xc @ coef
        np.testing.assert_allclose(
            kit.s_y_given_x, resid.T @ resid / 80, atol=1e-10
        )

    def test_singular_predictors(self):
        x = np.ones((10, 2))  # zero variance, singular S_X
        y = np.random.default_rng(43).standard_normal((10, 2))
        with pytest.raises(SingularCovariance):
            estimators.covariance_kit(estimators.RegressionData(x, y))

    def test_needs_x(self):
        data = estimators.RegressionData(x=None, y=np.eye(3))
        with pytest.raises(InvalidInput):
            estimators.covariance_kit(data)


class TestResponseEnvelope:
    def test_projection_property(self):
        _, data = make_data(50)
        fit = estimators.response_envelope(data, 2)
        g = fit.gamma
        np.testing.assert_allclose(g.T @ g, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(g @ g.T @ fit.beta_env, fit.beta_env, atol=1e-10)

    def test_full_dimension_equals_ols(self):
        _, data = make_data(51)
        fit = estimators.response_envelope(data, 6)
        np.testing.assert_allclose(fit.beta_env, fit.beta_ols, atol=1e-12)
        kit = estimators.covariance_kit(data)
        np.testing.assert_allclose(fit.sigma_env, kit.s_y_given_x, atol=1e-12)

    def test_ols_against_lstsq(self):
        _, data = make_data(52)
        fit = estimators.response_envelope(data, 2)
        xc = data.x - data.x.mean(axis=0)
        yc = data.y - data.y.mean(axis=0)
        coef = np.linalg.lstsq(xc, yc, rcond=None)[0].T
        np.testing.assert_allclose(fit.beta_ols, coef, atol=1e-8)

    def test_alpha_centers_predictions(self):
        _, data = make_data(53)
        fit = estimators.response_envelope(data, 2)
        pred = fit.alpha_hat + data.x @ fit.beta_env.T
        np.testing.assert_allclose(pred.mean(axis=0), data.y.mean(axis=0), atol=1e-10)

    def test_recovers_true_span_at_scale(self):
        inst = simulate.generate_instance(6, 2, 54)
        data = simulate.sample_data(inst, 20000, 55)
        fit = estimators.response_envelope(data, 2)
        assert linalg.subspace_distance(fit.gamma, inst.gamma) < 0.1

    def test_u_bounds(self):
        _, data = make_data(56)
        with pytest.raises(InvalidDimension):
            estimators.response_envelope(data, 0)
        with pytest.raises(InvalidDimension):
            estimators.response_envelope(data, 7)


class TestPartialEnvelope:
    @staticmethod
    def multi_x_data(seed, n=300):
        rng = np.random.default_rng(seed)
        inst = simulate.generate_instance(5, 2, seed)
        x = rng.standard_normal((n, 3))
        eps = rng.multivariate_normal(np.zeros(5), inst.m, size=n)
        beta = np.column_stack([inst.beta, rng.standard_normal((5, 2))])
        y = x @ beta.T + eps
        return estimators.RegressionData(x, y)

    def test_block_shapes(self):
        data = self.multi_x_data(60)
        fit = estimators.partial_envelope(data, 1, 2)
        assert fit.beta_env.shape == (5, 1)
        assert fit.beta_ols.shape == (5, 3)
        assert fit.p1 == 1

    def test_all_predictors_equals_response(self):
        data = self.multi_x_data(61)
        full = estimators.partial_envelope(data, 3, 2)
        resp = estimators.response_envelope(data, 2)
        np.testing.assert_allclose(full.gamma, resp.gamma, atol=1e-9)
        np.testing.assert_allclose(full.beta_env, resp.beta_env, atol=1e-9)

    def test_full_dimension_equals_ols_block(self):
        data = self.multi_x_data(62)
        fit = estimators.partial_envelope(data, 2, 5)
        np.testing.assert_allclose(fit.beta_env, fit.beta_ols[:, :2], atol=1e-12)

    def test_p1_bounds(self):
        data = self.multi_x_data(63)
        with pytest.raises(InvalidDimension):
            estimators.partial_envelope(data, 0, 2)
        with pytest.raises(InvalidDimension):
            estimators.partial_envelope(data, 4, 2)


class TestPredictorEnvelope:
    @staticmethod
    def swapped_data(seed, n=500):
        # regress the scalar on the envelope-structured vector, so the
        # predictor-side reduction has known true dimension
        inst = simulate.generate_instance(6, 2, seed)
        samp = simulate.sample_data(inst, n, seed + 1)
        return inst, estimators.RegressionData(x=samp.y, y=samp.x)

    def test_full_dimension_equals_ols(self):
        _, data = self.swapped_data(70)
        fit = estimators.predictor_envelope(data, 6)
        np.testing.assert_allclose(fit.beta_env, fit.beta_ols, atol=1e-10)

    def test_beta_is_ols_through_metric_projection(self):
        _, data = self.swapped_data(71)
        fit = estimators.predictor_envelope(data, 2)
        kit = estimators.covariance_kit(data)
        proj = linalg.project(fit.gamma, metric=kit.s_x)
        np.testing.assert_allclose(fit.beta_env, fit.beta_ols @ proj.T, atol=1e-10)

    def test_recovers_true_span_at_scale(self):
        inst = simulate.generate_instance(6, 2, 72)
        samp = simulate.sample_data(inst, 20000, 73)
        data = estimators.RegressionData(x=samp.y, y=samp.x)
        fit = estimators.predictor_envelope(data, 2)
        assert linalg.subspace_distance(fit.gamma, inst.gamma) < 0.1


class TestMeanEnvelopes:
    def test_mean_projects_ybar(self):
        rng = np.random.default_rng(80)
        y = rng.standard_normal((200, 5)) + np.array([3.0, 0, 0, 0, 0])
        fit = estimators.mean_envelope(y, 2)
        g = fit.gamma
        np.testing.assert_allclose(
            fit.beta_env[:, 0], g @ g.T @ y.mean(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(fit.beta_ols[:, 0], y.mean(axis=0), atol=1e-12)

    def test_mean_full_dimension_is_sample_mean(self):
        rng = np.random.default_rng(81)
        y = rng.standard_normal((100, 4)) + 1.0
        fit = estimators.mean_envelope(y, 4)
        np.testing.assert_allclose(fit.beta_env[:, 0], y.mean(axis=0), atol=1e-12)

    def test_constrained_gamma_orthogonal_to_ones(self):
        rng = np.random.default_rng(82)
        y = rng.standard_normal((150, 5)) + np.array([2.0, -1.0, 0, 0, -1.0])
        fit = estimators.constrained_mean_envelope(y, 2)
        ones = np.ones(5) / np.sqrt(5)
        assert np.abs(fit.gamma.T @ ones).max() < 1e-10

    def test_constrained_reduced_space_oracle(self):
        # fitting by hand in the complement-of-ones coordinates must give
        # the same span and projected mean
        rng = np.random.default_rng(83)
        y = rng.standard_normal((300, 4)) + np.array([1.0, 2.0, -3.0, 0.0])
        fit = estimators.constrained_mean_envelope(y, 2)
        ones = np.ones((4, 1)) / 2.0
        b0 = linalg.orthonormal_complement(ones)
        reduced = estimators.mean_envelope(y @ b0, 2)
        np.testing.assert_allclose(
            linalg.subspace_distance(fit.gamma, b0 @ reduced.gamma), 0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            fit.beta_env[:, 0], b0 @ reduced.beta_env[:, 0], atol=1e-9
        )

    def test_constrained_full_dimension_is_centered_mean(self):
        rng = np.random.default_rng(84)
        y = rng.standard_normal((100, 4)) + 2.0
        fit = estimators.constrained_mean_envelope(y, 3)
        q1 = np.eye(4) - np.ones((4, 4)) / 4
        np.testing.assert_allclose(fit.beta_env[:, 0], q1 @ y.mean(axis=0), atol=1e-10)

    def test_constrained_u_cap(self):
        y = np.random.default_rng(85).standard_normal((50, 4))
        with pytest.raises(InvalidDimension):
            estimators.constrained_mean_envelope(y, 4)


class TestFitBasisGuards:
    def test_ridge_retry_on_singular_m(self):
        # rank-deficient M: the ridge bump must kick in and be reported
        rng = np.random.default_rng(90)
        q = linalg.orthonormalize(rng.standard_normal((5, 4)))
        m = q @ np.diag([4.0, 3.0, 2.0, 1.0]) @ q.T  # rank 4 in 5 dims
        b = rng.standard_normal(5)
        fit, _ = estimators._fit_basis(m, m + np.outer(b, b), 2, "onedim", None)
        assert "Ridged" in fit.diagnostics

    def test_invalid_uhat(self):
        m = np.diag([2.0, 1.0])
        m_plus_u = np.diag([1.0, 1.0])  # U-hat = diag(-1, 0)
        with pytest.raises(InvalidUhat):
            estimators._fit_basis(m, m_plus_u, 1, "onedim", None)

    def test_unknown_algorithm(self):
        _, data = make_data(91)
        with pytest.raises(InvalidInput):
            estimators.response_envelope(data, 2, algo="sgd")


class TestSolverSettings:
    def test_warm_preset_caps_iterations(self):
        assert estimators.solver_settings("fg-warm") == FgSettings(max_iterations=100)

    def test_explicit_cap_overrides_warm_cap(self):
        settings = estimators.solver_settings("fg-warm", max_iterations=7)
        assert settings == FgSettings(max_iterations=7)

    def test_overrides_map_to_each_solver(self):
        od = estimators.solver_settings("onedim", gradient_tol=1e-6, max_iterations=9)
        assert od == OneDimSettings(gradient_tol=1e-6, max_inner_iterations=9)
        for algo in ("fg", "fg-warm"):
            fg = estimators.solver_settings(algo, gradient_tol=1e-6, max_iterations=9)
            assert fg == FgSettings(gradient_tol=1e-6, max_iterations=9)

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidInput):
            estimators.solver_settings("sgd")


class TestWarmStart:
    """fg-warm is the sequential fit refined by grassmann.fit: the algorithm
    name alone picks that start, and its wall time counts both fits."""

    def data(self):
        return simulate.sample_data(simulate.generate_instance(8, 3, 1), 200, 2)

    def test_settings_object_keeps_the_sequential_start(self):
        data = self.data()
        settings = FgSettings(max_iterations=100)
        plain = estimators.response_envelope(data, 3, algo="fg-warm")
        given = estimators.response_envelope(data, 3, algo="fg-warm", settings=settings)
        assert np.array_equal(plain.gamma, given.gamma)
        assert plain.objective == given.objective
        plain = estimators.select_dimension_bic(data, "response", 5, "fg-warm")
        given = estimators.select_dimension_bic(data, "response", 5, "fg-warm", settings)
        assert np.array_equal(plain.scores, given.scores)

    def test_wall_time_includes_the_sequential_fit(self, monkeypatch):
        real = onedim.fit

        def slow(*args):
            fit = real(*args)
            fit.wall_time_seconds += 1000.0
            return fit

        monkeypatch.setattr(onedim, "fit", slow)
        data = self.data()
        single = estimators.response_envelope(data, 3, algo="fg-warm")
        assert single.fit.wall_time_seconds >= 1000.0
        m, m_plus_u, _ = estimators._kind_pair("response", data)
        scan = estimators._basis_scan(estimators._checked_pair(m, m_plus_u), 8, "fg-warm", None)
        for u in range(1, 9):
            assert scan(u)[0].wall_time_seconds >= 1000.0


class TestDimensionSelection:
    def test_bic_unknown_kind(self):
        _, data = make_data(94)
        with pytest.raises(InvalidInput):
            estimators.select_dimension_bic(data, "bogus", 2)

    def test_bic_scores_shape_and_determinism(self):
        _, data = make_data(95)
        sel1 = estimators.select_dimension_bic(data, "response", 4)
        sel2 = estimators.select_dimension_bic(data, "response", 4)
        assert len(sel1.scores) == 4
        assert sel1.u == sel2.u
        np.testing.assert_allclose(sel1.scores, sel2.scores, atol=0)

    def test_bic_umax_bounds(self):
        _, data = make_data(96)
        with pytest.raises(InvalidDimension):
            estimators.select_dimension_bic(data, "response", 7)

    @pytest.mark.parametrize("algo", ["onedim", "fg-warm"])
    @pytest.mark.parametrize("kind", estimators.KINDS)
    def test_bic_scores_equal_full_fits(self, kind, algo):
        # BIC fits only the basis for each u; its scores must be exactly
        # those of the full estimator's objective
        rng = np.random.default_rng(93)
        x = rng.standard_normal((80, 3))
        y = 1.0 + x @ rng.standard_normal((3, 4)) + rng.standard_normal((80, 4))
        data = estimators.RegressionData(x, y)
        p1 = 1 if kind == "partial" else None
        d = estimators._problem_dimension(kind, data, p1)
        sel = estimators.select_dimension_bic(data, kind, 3, algo, p1=p1)
        for u, score in enumerate(sel.scores, start=1):
            fit = estimators._fit_by_kind(kind, data, u, algo, None, p1)
            assert score == data.n * fit.objective + np.log(data.n) * u * (d - u)

    def test_bic_builds_the_pair_once(self, monkeypatch):
        _, data = make_data(92, n=100)
        calls = []
        real_kit = estimators.covariance_kit

        def counting_kit(*args):
            calls.append(None)
            return real_kit(*args)

        monkeypatch.setattr(estimators, "covariance_kit", counting_kit)
        estimators.select_dimension_bic(data, "response", 3)
        assert len(calls) == 1

    def test_bic_checks_the_pair_once(self, monkeypatch):
        # the U-hat check and the ridge-check pair do not depend on u, so
        # they run once per scan; the scores stay those of per-u _fit_basis
        _, data = make_data(92, n=100)
        calls = []
        real_from_pair = ObjectivePair.from_pair

        def counting_from_pair(cls, *args):
            calls.append(None)
            return real_from_pair(*args)

        monkeypatch.setattr(ObjectivePair, "from_pair", classmethod(counting_from_pair))
        sel = estimators.select_dimension_bic(data, "response", 4)
        assert len(calls) == 1
        m, m_plus_u, _ = estimators._kind_pair("response", data)
        d = m.shape[0]
        for u, score in enumerate(sel.scores, start=1):
            _, objective = estimators._fit_basis(m, m_plus_u, u, "onedim", None)
            assert score == data.n * objective + np.log(data.n) * u * (d - u)

    def test_bic_reports_a_failing_pair(self):
        # a constant predictor makes S_X singular, which fails every
        # candidate alike: the pair's own error comes out, not AllFitsFailed
        rng = np.random.default_rng(91)
        x = np.column_stack([rng.standard_normal((50, 2)), np.ones(50)])
        y = rng.standard_normal((50, 4))
        with pytest.raises(SingularCovariance):
            estimators.select_dimension_bic(estimators.RegressionData(x, y), "response", 3)

    def test_bic_picks_true_dimension(self):
        # known generator: (d, u) = (10, 3), fresh data each replication
        inst = simulate.generate_instance(10, 3, 42)
        hits = 0
        reps = 50
        for i in range(reps):
            data = simulate.sample_data(inst, 800, 9000 + i)
            sel = estimators.select_dimension_bic(data, "response", 6)
            hits += sel.u == 3
        assert hits >= 0.8 * reps

    def test_cv_requires_predictive_kind(self):
        y = np.random.default_rng(97).standard_normal((30, 3))
        data = estimators.RegressionData(x=None, y=y)
        with pytest.raises(InvalidInput):
            estimators.select_dimension_cv(data, "mean", 2)

    def test_cv_fold_bounds(self):
        _, data = make_data(98)
        with pytest.raises(InvalidInput):
            estimators.select_dimension_cv(data, "response", 3, folds=1)

    def test_cv_deterministic_given_seed(self):
        _, data = make_data(99, n=120)
        a = estimators.select_dimension_cv(data, "response", 3, folds=4, seed=5)
        b = estimators.select_dimension_cv(data, "response", 3, folds=4, seed=5)
        assert a.u == b.u
        np.testing.assert_allclose(a.scores, b.scores, atol=0)

    def test_cv_finds_predictor_dimension_nearby(self):
        # known generator on the predictor side: (d, u) = (8, 3); the CV
        # curve flattens past the true dimension, so within-one is the
        # meaningful property
        inst = simulate.generate_instance(8, 3, 42)
        hits = 0
        reps = 30
        for i in range(reps):
            samp = simulate.sample_data(inst, 400, 9100 + i)
            data = estimators.RegressionData(x=samp.y, y=samp.x)
            sel = estimators.select_dimension_cv(
                data, "predictor", 5, folds=5, seed=9100 + i
            )
            hits += abs(sel.u - 3) <= 1
        assert hits >= 0.7 * reps


def per_u_bic(data, kind, u_max, algo):
    """BIC (scores, failures) from a separate full estimator fit per u."""
    d = estimators._problem_dimension(kind, data)
    scores, failures = [], {}
    for u in range(1, u_max + 1):
        try:
            fit = estimators._fit_by_kind(kind, data, u, algo, None)
            scores.append(data.n * fit.objective + np.log(data.n) * u * (d - u))
        except EnvestError as exc:
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
    return scores, failures


def per_u_cv(data, kind, u_max, folds, algo, seed=0):
    """CV (scores, failures) from a separate full estimator fit per u and fold."""
    n = data.n
    chunks = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    scores, failures = [], {}
    for u in range(1, u_max + 1):
        try:
            sse = 0.0
            for test_idx in chunks:
                mask = np.ones(n, dtype=bool)
                mask[test_idx] = False
                train = estimators.RegressionData(data.x[mask], data.y[mask])
                fit = estimators._fit_by_kind(kind, train, u, algo, None)
                pred = fit.alpha_hat + data.x[test_idx] @ fit.beta_env.T
                sse += float(np.sum((data.y[test_idx] - pred) ** 2))
            scores.append(sse / n)
        except EnvestError as exc:
            scores.append(np.nan)
            failures[u] = f"{type(exc).__name__}: {exc}"
    return scores, failures


def assert_scan_equals(select, reference):
    """The nested scan select() gives exactly the per-u (scores, failures)."""
    scores, failures = reference
    if all(np.isnan(s) for s in scores):
        with pytest.raises(AllFitsFailed):
            select()
        return
    sel = select()
    assert sel.failures == failures
    assert np.array_equal(sel.scores, scores, equal_nan=True)


class TestNestedScans:
    """A scan with onedim or fg-warm takes every candidate's basis from one
    sequential fit; it must score exactly as a separate fit per u does."""

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        d=st.integers(1, 6),
        which=st.sampled_from(["one", "below-d", "d"]),
        algo=st.sampled_from(["onedim", "fg-warm"]),
        kind=st.sampled_from(["response", "predictor"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_per_u_fits(self, d, which, algo, kind, seed):
        u_max = {"one": 1, "below-d": max(1, d - 1), "d": d}[which]
        rng = np.random.default_rng(seed)
        n, other = 30, 2
        a = rng.standard_normal((n, other))
        b = a @ rng.standard_normal((other, d)) + rng.standard_normal((n, d))
        data = estimators.RegressionData(*((a, b) if kind == "response" else (b, a)))
        assert_scan_equals(
            lambda: estimators.select_dimension_bic(data, kind, u_max, algo),
            per_u_bic(data, kind, u_max, algo),
        )
        assert_scan_equals(
            lambda: estimators.select_dimension_cv(data, kind, u_max, 3, algo),
            per_u_cv(data, kind, u_max, 3, algo),
        )

    @pytest.mark.parametrize("algo", ["onedim", "fg-warm"])
    def test_failure_partway_matches_per_u(self, monkeypatch, algo):
        # the sequential fit stops at its third direction: u = 1, 2 keep the
        # directions accepted before it, u = 3..5 fail alike and u = d = 6
        # fits the full space
        _, data = make_data(90, d=6, n=120)
        real = onedim._solve_direction

        def stuck_at_third_direction(pair, settings):
            if pair.dim == 6 - 2:
                raise NoConvergence("stuck")
            return real(pair, settings)

        monkeypatch.setattr(onedim, "_solve_direction", stuck_at_third_direction)
        reference = per_u_bic(data, "response", 6, algo)
        assert reference[1] == {u: "NoConvergence: stuck" for u in (3, 4, 5)}
        assert_scan_equals(
            lambda: estimators.select_dimension_bic(data, "response", 6, algo), reference
        )
        reference = per_u_cv(data, "response", 6, 4, algo)
        assert reference[1] == {u: "NoConvergence: stuck" for u in (3, 4, 5)}
        assert_scan_equals(
            lambda: estimators.select_dimension_cv(data, "response", 6, 4, algo), reference
        )

    def _count(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_bic_fits_once(self, monkeypatch):
        _, data = make_data(92, n=100)
        fits = self._count(monkeypatch, onedim, "fit")
        estimators.select_dimension_bic(data, "response", 4)
        assert [args[2] for args in fits] == [4]

    def test_cv_builds_one_kit_and_fit_per_fold(self, monkeypatch):
        _, data = make_data(92, n=100)
        kits = self._count(monkeypatch, estimators, "covariance_kit")
        fits = self._count(monkeypatch, onedim, "fit")
        estimators.select_dimension_cv(data, "response", 3, folds=4)
        assert len(kits) == 4
        assert [args[2] for args in fits] == [3, 3, 3, 3]
