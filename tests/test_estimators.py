"""Estimator plug-ins against least-squares oracles.

The covariance blocks are checked against numpy.cov and an explicit lstsq
residual fit before any envelope machinery is trusted on top of them.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import hypothesis
import pytest
from hypothesis import strategies as st

from envest import estimators, grassmann, linalg, onedim, simulate
from envest.errors import (
    AllFitsFailed,
    EnvestError,
    InvalidDimension,
    InvalidInput,
    InvalidUhat,
    NoConvergence,
    NotPositiveDefinite,
    SingularCovariance,
)
from envest.grassmann import FgSettings
from envest.objective import ObjectivePair, j_value
from envest.onedim import OneDimSettings


def _moments(data):
    """The response kind's ``_sample_moments`` of data."""
    return estimators._sample_moments("response", data)


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

    @pytest.mark.parametrize(
        "x, y, name",
        [(np.zeros((4, 0)), np.ones((4, 2)), "x"), (np.ones((4, 2)), np.zeros((4, 0)), "y"),
         (None, np.zeros((4, 0)), "y")],
    )
    def test_zero_columns(self, x, y, name):
        with pytest.raises(InvalidInput, match=f"{name} has no columns"):
            estimators.RegressionData(x=x, y=y)


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

    @pytest.mark.parametrize("algo", ["onedim", "fg", "fg-warm"])
    @pytest.mark.parametrize("seed", [61, 62, 63, 64])
    def test_all_predictors_equals_response(self, seed, algo):
        # with p1 = p the partial envelope is the response envelope, bit for bit
        data = self.multi_x_data(seed)
        full = estimators.partial_envelope(data, 3, 2, algo)
        resp = estimators.response_envelope(data, 2, algo)
        for name in ("gamma", "beta_env", "beta_ols", "sigma_env", "alpha_hat"):
            assert np.array_equal(getattr(full, name), getattr(resp, name)), name
        assert full.objective == resp.objective
        assert full.fit.diagnostics == resp.fit.diagnostics

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
        (checked,) = estimators._checked_pairs(m[None], (m + np.outer(b, b))[None])
        ((fit, _),) = estimators._fits([checked], 2, "onedim", None)(2)
        assert "Ridged" in fit.diagnostics

    def test_invalid_uhat(self):
        m = np.diag([2.0, 1.0])
        m_plus_u = np.diag([1.0, 1.0])  # U-hat = diag(-1, 0)
        (checked,) = estimators._checked_pairs(m[None], m_plus_u[None])
        assert isinstance(checked, InvalidUhat)

    @pytest.mark.parametrize("kind, scaled", [
        ("response", "X"), ("partial", "X"), ("predictor", "Y"), ("mean", "Y"),
    ])
    def test_a_covariance_beyond_float64_is_invalid_input(self, kind, scaled):
        # finite data whose sample covariance overflows.  Without the check
        # an overflowing S_X gave the response and partial kinds NaN
        # estimates, and an overflowing S_Y gave the predictor kind the pair
        # (S_X, S_X), the Cholesky factor of S_Y solving to zeros
        rng = np.random.default_rng(94)
        x = rng.standard_normal((40, 3))
        y = x @ rng.standard_normal((3, 4)) + rng.standard_normal((40, 4))
        data = estimators.RegressionData(*((1e200 * x, y) if scaled == "X" else (x, 1e200 * y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=f"sample covariance of {scaled} overflows"):
                estimators._fit_by_kind(kind, data, 1, "onedim", None, p1=1)

    def test_unknown_algorithm(self):
        _, data = make_data(91)
        with pytest.raises(InvalidInput):
            estimators.response_envelope(data, 2, algo="sgd")

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    @pytest.mark.parametrize("algo", list(estimators.ALGORITHMS))
    def test_a_gradient_tolerance_below_0_or_nan_is_invalid(self, algo, tol):
        # the command line's rule: a finite number, at least 0
        _, data = make_data(91)
        settings = estimators.solver_settings(algo, gradient_tol=tol)
        with pytest.raises(InvalidInput, match="gradient_tol"):
            estimators.response_envelope(data, 2, algo, settings)


class TestSolverSettings:
    def test_warm_preset_caps_iterations(self):
        assert estimators.solver_settings("fg-warm") == FgSettings(max_iterations=100)

    def test_explicit_cap_overrides_warm_cap(self):
        settings = estimators.solver_settings("fg-warm", max_iterations=7)
        assert settings == FgSettings(max_iterations=7)

    def test_overrides_map_to_each_solver(self):
        od = estimators.solver_settings("onedim", gradient_tol=1e-6, max_iterations=9)
        assert od == OneDimSettings(gradient_tol=1e-6, max_iterations=9)
        for algo in ("fg", "fg-warm"):
            fg = estimators.solver_settings(algo, gradient_tol=1e-6, max_iterations=9)
            assert fg == FgSettings(gradient_tol=1e-6, max_iterations=9)

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidInput):
            estimators.solver_settings("sgd")

    @pytest.mark.parametrize("algo, settings", [
        ("fg", OneDimSettings()), ("onedim", FgSettings()), ("fg-warm", OneDimSettings()),
    ])
    def test_settings_of_the_other_solver_are_invalid(self, algo, settings):
        # both classes hold max_iterations and gradient_tol, so only the
        # class tells which solver the settings were made for
        _, data = make_data(91)
        preset = type(estimators.ALGORITHMS[algo]).__name__
        with pytest.raises(InvalidInput, match=f"{algo} takes {preset}, not "):
            estimators.response_envelope(data, 2, algo, settings)


BAD_CAPS = [{"max_iterations": 2.5}, {"max_iterations": -1}, {"max_iterations": "3"}]
BAD_SETTINGS = [
    {"gradient_tol": math.nan}, {"gradient_tol": -1.0}, {"gradient_tol": math.inf},
    {"gradient_tol": "1e-8"}, *BAD_CAPS,
]


def _settings_id(bad):
    return "=".join(map(str, *bad.items()))


class TestSettingsAreChecked:
    """Every solver entry checks its settings: a tolerance that is a finite
    number >= 0 and a cap that is an integer >= 0, else InvalidInput."""

    pair = ObjectivePair.from_m_u(np.diag([4.0, 3.0, 2.0, 1.0]), np.diag([0.0, 1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("bad", BAD_SETTINGS, ids=_settings_id)
    def test_onedim(self, bad):
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            onedim.fit(self.pair.m, self.pair.u, 2, OneDimSettings(**bad))
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            onedim.fit_many([self.pair], 2, OneDimSettings(**bad))

    @pytest.mark.parametrize("bad", BAD_SETTINGS, ids=_settings_id)
    def test_grassmann(self, bad):
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            grassmann.fit(self.pair.m, self.pair.u, 2, FgSettings(**bad))
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            grassmann._fit(self.pair, 2, FgSettings(**bad))

    @pytest.mark.parametrize("bad", [{"gradient_tol": "1e-8"}, *BAD_CAPS], ids=_settings_id)
    @pytest.mark.parametrize("algo", list(estimators.ALGORITHMS))
    def test_estimators(self, bad, algo):
        # checked before any pair is built, the empty batch included; the
        # tolerances below 0 or NaN: test_a_gradient_tolerance_below_0_or_nan_is_invalid
        settings = replace(estimators.ALGORITHMS[algo], **bad)
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            estimators._fits([], 2, algo, settings)
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            estimators.response_envelope(make_data(91)[1], 2, algo, settings)


class TestOneScore:
    """Every algorithm's J is scored by ``_fits`` in one stacked pass, and
    equals j_value of the reported basis on its pair bit for bit; for fg and
    fg-warm it is also the J their optimizer ended at."""

    @pytest.mark.parametrize("algo", list(estimators.ALGORITHMS))
    def test_j_is_j_value_of_the_reported_basis(self, algo):
        insts = [simulate.generate_instance(10, 3, s) for s in range(6)]
        pairs = [ObjectivePair.from_m_u(*simulate._sample_pair(inst, 60, 1)) for inst in insts]
        top = 4
        fits = estimators._fits([(pair, []) for pair in pairs], top, algo, None)
        for u in range(1, top + 1):
            for pair, (fit, j) in zip(pairs, fits(u)):
                assert j == j_value(pair, fit.basis), u
                if algo != "onedim":
                    assert fit.objective_values == [j], u


def _partial_data():
    rng = np.random.default_rng(95)
    x = rng.standard_normal((60, 3))
    return estimators.RegressionData(x, x @ rng.standard_normal((3, 4)) + rng.standard_normal((60, 4)))


# per call, the package error a non-integer dimension or count gets
_NON_INTEGER_CALLS = {
    "onedim.fit": (InvalidDimension, lambda inst, data: onedim.fit(inst.m, inst.u_mat, 2.5)),
    "grassmann.fit": (InvalidDimension, lambda inst, data: grassmann.fit(inst.m, inst.u_mat, 2.0)),
    "eigenvector_scan_start": (
        InvalidDimension,
        lambda inst, data: grassmann.eigenvector_scan_start(inst.m, inst.u_mat, 2.0),
    ),
    "fit_many": (
        InvalidDimension,
        lambda inst, data: onedim.fit_many([ObjectivePair.from_m_u(inst.m, inst.u_mat)], 1.5),
    ),
    "response_envelope": (InvalidDimension, lambda inst, data: estimators.response_envelope(data, 2.5)),
    "select_dimension_bic": (
        InvalidDimension,
        lambda inst, data: estimators.select_dimension_bic(data, "response", 2.5),
    ),
    "partial_envelope p1": (
        InvalidDimension, lambda inst, data: estimators.partial_envelope(_partial_data(), 1.5, 2),
    ),
    "residual_bootstrap b": (
        InvalidInput, lambda inst, data: simulate.residual_bootstrap(data, "response", 2, 2.5),
    ),
    "select_dimension_cv folds": (
        InvalidInput,
        lambda inst, data: estimators.select_dimension_cv(data, "response", 2, folds=2.5),
    ),
    "population_experiment u": (
        InvalidDimension, lambda inst, data: simulate.population_experiment(6, 2.0, 1, ("onedim",)),
    ),
    "population_experiment replications": (
        InvalidInput, lambda inst, data: simulate.population_experiment(6, 2, 1.0, ("onedim",)),
    ),
    "generate_instance u": (InvalidDimension, lambda inst, data: simulate.generate_instance(6, 2.0, 0)),
    "sample_data n": (InvalidInput, lambda inst, data: simulate.sample_data(inst, 100.5, 0)),
}


@pytest.mark.parametrize("name", list(_NON_INTEGER_CALLS))
def test_a_non_integer_dimension_or_count_is_a_package_error(name):
    # a float in range, even a whole one, is not a dimension or a count
    error, call = _NON_INTEGER_CALLS[name]
    inst, data = make_data(96)
    with pytest.raises(error):
        call(inst, data)


def test_a_numpy_integer_dimension_is_accepted():
    inst, data = make_data(96)
    fit = onedim.fit(inst.m, inst.u_mat, np.int64(2))
    assert np.array_equal(fit.basis, onedim.fit(inst.m, inst.u_mat, 2).basis)
    assert estimators.response_envelope(data, np.int32(2)).fit.basis.shape == (6, 2)


class TestWarmStart:
    """fg-warm is the sequential fit refined by grassmann.fit: the algorithm
    name alone picks that start, stopped at the square root of the
    refinement's gradient_tol, and its wall time counts both fits."""

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
        real = onedim.fit_many

        def slow(*args):
            fits = real(*args)
            for fit in fits:
                fit.wall_time_seconds += 1000.0
            return fits

        monkeypatch.setattr(onedim, "fit_many", slow)
        data = self.data()
        single = estimators.response_envelope(data, 3, algo="fg-warm")
        assert single.fit.wall_time_seconds >= 1000.0
        m, m_plus_u, _, _ = estimators._kind_pairs("response", [_moments(data)])
        (checked,) = estimators._checked_pairs(m, m_plus_u)
        fits = estimators._fits([checked], 8, "fg-warm", None)
        for u in range(1, 9):
            ((fit, _),) = fits(u)
            assert fit.wall_time_seconds >= 1000.0

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_start_stops_at_the_square_root_of_the_refinement_tolerance(self, tol):
        inst = simulate.generate_instance(12, 3, 2)
        pair = ObjectivePair.from_m_u(*simulate._sample_pair(inst, 400, 3))
        top = 6
        settings = FgSettings(gradient_tol=tol)
        fits = estimators._fits([(pair, [])], top, "fg-warm", settings)
        start_settings = replace(estimators.ALGORITHMS["onedim"], gradient_tol=math.sqrt(tol))
        (start,) = onedim.fit_many([pair], top, start_settings)
        # a pair whose start the onedim preset would polish further
        assert not np.array_equal(start.basis, onedim.fit_many([pair], top)[0].basis)
        for u in range(1, top + 1):
            ((fit, j),) = fits(u)
            want = grassmann._fit(pair, u, settings, start.leading(u).basis)
            assert np.array_equal(fit.basis, want.basis), u
            assert fit.objective_values == want.objective_values == [j], u
            assert fit.inner_iterations == want.inner_iterations, u
            assert fit.diagnostics == want.diagnostics, u

    @pytest.mark.parametrize("d, u, n, seeds", [(12, 3, 400, range(20)), (20, 5, 1000, range(10))])
    def test_refinement_lands_where_a_tight_start_does(self, d, u, n, seeds):
        # the looser start changes where fg stops only within its own tolerance
        for s in seeds:
            m, u_mat = simulate._sample_pair(simulate.generate_instance(d, u, s), n, s + 1)
            pair = ObjectivePair.from_m_u(m, u_mat)
            ((fit, j),) = estimators._fits([(pair, [])], u, "fg-warm", None)(u)
            tight = grassmann.fit(m, u_mat, u, start=onedim.fit(m, u_mat, u).basis)
            (j_tight,) = tight.objective_values
            assert abs(j - j_tight) <= 1e-9 * max(1.0, abs(j_tight)), s
            assert linalg.subspace_distance(fit.basis, tight.basis) <= 1e-4, s


class TestOnePairPerProblem:
    """A problem's ObjectivePair is built and checked once, and J and both
    solvers use it: a sequential fit at u builds u pairs, the checked pair
    and one per deflation, while fg-warm's refinement and the J score build
    none."""

    @pytest.mark.parametrize("run, builds", [
        (lambda data: estimators.response_envelope(data, 5), 5),
        (lambda data: estimators.response_envelope(data, 5, "fg-warm"), 5),
        (lambda data: estimators.select_dimension_bic(data, "response", 6), 6),
        (lambda data: simulate.residual_bootstrap(data, "response", 3, 10), 30),
        (lambda data: simulate.population_experiment(30, 10, 2, ("onedim",)), 20),
    ], ids=["response-onedim", "response-fg-warm", "bic", "bootstrap", "population"])
    def test_pair_builds(self, monkeypatch, run, builds):
        # a stacked build counts once per pair it builds
        data = simulate.sample_data(simulate.generate_instance(8, 3, 1), 200, 2)
        calls = []
        real = ObjectivePair._build_many.__func__

        def counting(cls, m, *args):
            calls.extend([None] * len(m))
            return real(cls, m, *args)

        monkeypatch.setattr(ObjectivePair, "_build_many", classmethod(counting))
        run(data)
        assert len(calls) == builds


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

    @pytest.mark.parametrize("algo", ["onedim", "fg", "fg-warm"])
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
        real_moments = estimators._sample_moments

        def counting_moments(*args):
            calls.append(None)
            return real_moments(*args)

        monkeypatch.setattr(estimators, "_sample_moments", counting_moments)
        estimators.select_dimension_bic(data, "response", 3)
        assert len(calls) == 1

    def test_bic_checks_the_pair_once(self, monkeypatch):
        # the U-hat check and the ridge check do not depend on u, so they
        # run once per scan; the scores stay those of a fit per u
        _, data = make_data(92, n=100)
        calls = []
        real_checked_pairs = estimators._checked_pairs

        def counting_checked_pairs(m, m_plus_u):
            calls.extend([None] * len(m))
            return real_checked_pairs(m, m_plus_u)

        monkeypatch.setattr(estimators, "_checked_pairs", counting_checked_pairs)
        sel = estimators.select_dimension_bic(data, "response", 4)
        assert len(calls) == 1
        m, m_plus_u, _, _ = estimators._kind_pairs("response", [_moments(data)])
        d = m.shape[1]
        for u, score in enumerate(sel.scores, start=1):
            (checked,) = estimators._checked_pairs(m, m_plus_u)
            ((_, objective),) = estimators._fits([checked], u, "onedim", None)(u)
            assert score == data.n * objective + np.log(data.n) * u * (d - u)

    def test_bic_reports_a_failing_pair(self):
        # a constant predictor makes S_X singular, which fails every
        # candidate alike: the pair's own error comes out, not AllFitsFailed
        rng = np.random.default_rng(91)
        x = np.column_stack([rng.standard_normal((50, 2)), np.ones(50)])
        y = rng.standard_normal((50, 4))
        with pytest.raises(SingularCovariance):
            estimators.select_dimension_bic(estimators.RegressionData(x, y), "response", 3)

    def test_bic_names_the_first_reason_when_every_candidate_fails(self):
        # no Newton iteration allowed: the first direction fails, and with it
        # every candidate of the one sequential fit
        _, data = make_data(5, n=100)
        settings = OneDimSettings(max_iterations=0)
        with pytest.raises(AllFitsFailed, match="up to 3 failed; u = 1: NoConvergence: ") as info:
            estimators.select_dimension_bic(data, "response", 3, settings=settings)
        assert isinstance(info.value.__cause__, NoConvergence)

    def test_cv_names_the_first_reason_when_every_candidate_fails(self):
        # n just above r: a fold's M is not positive definite at every u
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2))
        y = x @ rng.standard_normal((2, 6)) + rng.standard_normal((10, 6))
        data = estimators.RegressionData(x, y)
        with pytest.raises(AllFitsFailed, match="up to 2 failed; u = 1: NotPositiveDefinite: M ") as info:
            estimators.select_dimension_cv(data, "predictor", 2, folds=4)
        assert isinstance(info.value.__cause__, NotPositiveDefinite)

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


class TestFailingFoldsStayIsolated:
    """With n just above r, some cross-validation folds are rank-deficient,
    so their pairs come out Ridged or fail with SingularCovariance or
    NotPositiveDefinite.  The folds' pairs are built, checked and fitted
    together; each fold must score as a fit of its training set alone."""

    @pytest.mark.parametrize("kind, r, p, n, folds, algo", [
        ("response", 5, 1, 9, 4, "onedim"),  # one Ridged fold of four
        ("predictor", 5, 2, 10, 4, "fg-warm"),  # two Ridged folds
        ("response", 6, 2, 10, 3, "onedim"),  # a singular fold beside Ridged ones
        ("predictor", 6, 2, 10, 4, "onedim"),  # two folds not positive definite
    ])
    def test_cv_scan_equals_each_fold_alone(self, kind, r, p, n, folds, algo):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, p))
        y = x @ rng.standard_normal((p, r)) + rng.standard_normal((n, r))
        data = estimators.RegressionData(x, y)
        assert_scan_equals(
            lambda: estimators.select_dimension_cv(data, kind, 2, folds, algo),
            per_u_cv(data, kind, 2, folds, algo),
        )

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("kind, r, p, n, folds, algo", [
        ("response", 6, 2, 10, 3, "onedim"),  # a singular fold beside Ridged ones
        ("predictor", 6, 2, 10, 4, "onedim"),  # two folds not positive definite
    ])
    def test_cv_batches_score_as_each_fold_alone(
        self, monkeypatch, batch, kind, r, p, n, folds, algo
    ):
        # the folds are fitted _PROBLEMS_PER_BATCH at a time; each u's squared
        # errors add up in fold order and it fails with its first failing
        # fold, whatever the batches are
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, p))
        y = x @ rng.standard_normal((p, r)) + rng.standard_normal((n, r))
        data = estimators.RegressionData(x, y)
        monkeypatch.setattr(estimators, "_PROBLEMS_PER_BATCH", batch)
        assert_scan_equals(
            lambda: estimators.select_dimension_cv(data, kind, 2, folds, algo),
            per_u_cv(data, kind, 2, folds, algo),
        )


def test_cv_memory_does_not_grow_with_the_folds():
    # a batch of folds is fitted and scored before the next is built, so
    # tracemalloc's peak over 256 folds stays near that over 64
    rng = np.random.default_rng(4)
    x = rng.standard_normal((256, 2))
    y = x @ rng.standard_normal((2, 5)) + rng.standard_normal((256, 5))
    data = estimators.RegressionData(x, y)
    estimators.select_dimension_cv(data, "response", 2, folds=8)  # first-call allocations
    peaks = []
    for folds in (64, 256):
        tracemalloc.start()
        try:
            estimators.select_dimension_cv(data, "response", 2, folds=folds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def _same_bytes(got, want, names):
    for name in names:
        got_bytes, want_bytes = (np.asarray(getattr(o, name)).tobytes() for o in (got, want))
        assert got_bytes == want_bytes, name


def _assert_same_outcome(got, want):
    """got and want are the same package error, or results with the same
    bytes: a (fit, J) of ``_Scans.fits`` or an estimate of its
    ``estimates``."""
    assert type(got) is type(want)
    if isinstance(want, EnvestError):
        assert str(got) == str(want)
        return
    if isinstance(want, tuple):
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        got, want = got[0], want[0]
    else:
        _same_bytes(got, want, ("beta_env", "beta_ols", "sigma_env", "alpha_hat", "objective"))
        got, want = got.fit, want.fit
    _same_bytes(got, want, ("basis", "objective_values", "inner_iterations"))
    assert got.diagnostics == want.diagnostics


class TestScansKeepEachSampleInPlace:
    """One batch mixes samples that stop at different steps, before their
    moments, at a singular covariance and past a ridge, with samples that
    fit between them.  Every sample must get, at every u, the outcome a
    scan of it alone gives it, bit for bit, fits and estimates alike."""

    @staticmethod
    def sample(seed, n, kind, collinear=False, finite=True):
        rng = np.random.default_rng(seed)
        p, r = (2, 5) if kind == "response" else (5, 2)
        x = rng.standard_normal((n, p))
        if collinear:
            x[:, 1] = x[:, 0]
        y = x @ rng.standard_normal((p, r)) + rng.standard_normal((n, r))
        if not finite:
            y[0, 0] = np.nan
        return lambda: estimators.RegressionData(x, y)

    @pytest.mark.parametrize("kind", ["response", "predictor"])
    @pytest.mark.parametrize("algo", ["onedim", "fg-warm"])
    def test_each_sample_gets_its_lone_outcome(self, kind, algo):
        samples = [
            self.sample(1, 40, kind, finite=False),  # InvalidInput before its moments
            self.sample(2, 40, kind),
            self.sample(3, 40, kind, collinear=True),  # SingularCovariance of X
            self.sample(4, 40, kind),
            self.sample(5, 6, kind),  # Ridged
            self.sample(6, 30, kind),
            self.sample(7, 7, kind),  # Ridged
        ]
        top = 5
        scans = estimators._Scans(kind, samples, top, algo, None)
        alone = [estimators._Scans(kind, [s], top, algo, None) for s in samples]
        assert isinstance(scans.errors[0], InvalidInput)
        assert isinstance(scans.errors[2], SingularCovariance)
        for u in range(1, top + 1):
            fits = scans.fits(u)
            for i in (4, 6):
                assert "Ridged" in fits[i][0].diagnostics
            for got, lone in zip(fits, alone):
                _assert_same_outcome(got, lone.fits(u)[0])
            for got, lone in zip(scans.estimates(u), alone):
                _assert_same_outcome(got, lone.estimates(u)[0])


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
        real = onedim._solve_directions

        def stuck_at_third_direction(pairs, settings):
            return [
                NoConvergence("stuck") if pair.dim == 6 - 2 else sol
                for pair, sol in zip(pairs, real(pairs, settings))
            ]

        monkeypatch.setattr(onedim, "_solve_directions", stuck_at_third_direction)
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
        # one fit_many call of one pair: (problems, u) per call
        _, data = make_data(92, n=100)
        fits = self._count(monkeypatch, onedim, "fit_many")
        estimators.select_dimension_bic(data, "response", 4)
        assert [(len(args[0]), args[1]) for args in fits] == [(1, 4)]

    @pytest.mark.parametrize("algo", ["onedim", "fg-warm"])
    def test_full_dimension_fit_makes_no_sequential_fit(self, monkeypatch, algo):
        # u = d is fitted on its own, so a fit there solves only at d, while
        # a scan up to d also makes its sequential fit at d - 1
        _, data = make_data(92, n=100)
        fits = self._count(monkeypatch, onedim, "fit_many")
        estimators.response_envelope(data, 6, algo)
        assert [(len(args[0]), args[1]) for args in fits] == [(1, 6)]
        fits.clear()
        estimators.select_dimension_bic(data, "response", 6, algo)
        assert [(len(args[0]), args[1]) for args in fits] == [(1, 5), (1, 6)]

    def test_cv_builds_one_kit_and_fit_per_fold(self, monkeypatch):
        _, data = make_data(92, n=100)
        # the folds' sequential fits are made by one fit_many call
        kits = self._count(monkeypatch, estimators, "_sample_moments")
        fits = self._count(monkeypatch, onedim, "fit_many")
        estimators.select_dimension_cv(data, "response", 3, folds=4)
        assert len(kits) == 4
        assert [(len(args[0]), args[1]) for args in fits] == [(4, 3)]
