"""Simulation harness: the eigenspace oracle, seeded experiments and the
residual bootstrap, with determinism pinned across reruns."""

from dataclasses import replace

import numpy as np
import pytest

from envest import estimators, grassmann, linalg, onedim, simulate
from envest.errors import (
    BootstrapUnstable,
    InvalidDimension,
    InvalidInput,
    NoConvergence,
    SingularGram,
)
from envest.estimators import RegressionData
from envest.objective import ObjectivePair, j_value


class TestGenerateInstance:
    def test_reproducible(self):
        a = simulate.generate_instance(7, 3, 11)
        b = simulate.generate_instance(7, 3, 11)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.gamma, b.gamma)

    def test_structure(self):
        inst = simulate.generate_instance(8, 3, 12)
        np.testing.assert_allclose(inst.gamma.T @ inst.gamma, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(inst.beta, inst.gamma @ np.ones(3), atol=1e-12)
        np.testing.assert_allclose(inst.u_mat, np.outer(inst.beta, inst.beta))
        assert np.linalg.eigvalsh(inst.m)[0] > 0
        # M reduces along span(gamma)
        p = inst.gamma @ inst.gamma.T
        q = np.eye(8) - p
        assert np.abs(p @ inst.m @ q).max() < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            simulate.generate_instance(5, 5, 1)
        with pytest.raises(InvalidDimension):
            simulate.generate_instance(5, 0, 1)


class TestOracleEnvelope:
    def test_tied_eigenvalues_give_minimal_span(self):
        # M = I has one eigenvalue group; only the direction U touches
        # belongs in the envelope
        oracle = simulate.oracle_envelope(np.eye(3), np.diag([1.0, 0.0, 0.0]))
        assert oracle.shape == (3, 1)
        np.testing.assert_allclose(np.abs(oracle[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_u_gives_empty(self):
        oracle = simulate.oracle_envelope(np.eye(4), np.zeros((4, 4)))
        assert oracle.shape == (4, 0)

    def test_contains_span_u(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            inst = simulate.generate_instance(d, int(rng.integers(1, d)), 14)
            oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
            p = oracle @ oracle.T
            np.testing.assert_allclose(p @ inst.u_mat, inst.u_mat, atol=1e-8)

    def test_is_reducing_subspace(self):
        inst = simulate.generate_instance(7, 2, 15)
        oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
        p = oracle @ oracle.T
        q = np.eye(7) - p
        assert np.abs(p @ inst.m @ q).max() < 1e-8

    def test_generic_instance_has_dimension_u(self):
        for seed in range(10):
            inst = simulate.generate_instance(9, 4, 600 + seed)
            oracle = simulate.oracle_envelope(inst.m, inst.u_mat)
            assert oracle.shape[1] == 4
            assert linalg.subspace_distance(oracle, inst.gamma) < 1e-8

    def test_eigenvalue_split_within_envelope(self):
        # two U directions living in different eigenspaces must both appear
        m = np.diag([3.0, 2.0, 1.0])
        u_mat = np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
        oracle = simulate.oracle_envelope(m, u_mat)
        assert oracle.shape[1] == 2
        p = oracle @ oracle.T
        np.testing.assert_allclose(p @ u_mat, u_mat, atol=1e-10)


def test_sample_data_reproducible_and_shaped():
    inst = simulate.generate_instance(6, 2, 16)
    a = simulate.sample_data(inst, 50, 17)
    b = simulate.sample_data(inst, 50, 17)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert a.y.shape == (50, 6)
    assert a.x.shape == (50, 1)


class TestPopulationExperiment:
    def test_record_layout_and_accuracy(self):
        rep = simulate.population_experiment(6, 2, 5, ("onedim",), seed=700)
        assert rep.mode == "population"
        assert len(rep.records) == 5
        for i, rec in enumerate(rep.records):
            assert rec.replication == i
            assert rec.seed == 700 + i
            assert rec.error is None
            assert rec.distance < 1e-7
        cell = rep.summary["onedim"]
        dists = [r.distance for r in rep.records]
        np.testing.assert_allclose(cell["mean_distance"], np.mean(dists), atol=1e-15)
        assert cell["replications_ok"] == 5
        assert cell["replications_failed"] == 0

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidInput):
            simulate.population_experiment(5, 2, 2, ("newton",))

    def test_full_optimizer_records_match_direct_fits(self):
        # fg starts from the scan strategy, which must equal starting from
        # the scan basis passed in; fg-warm records equal grassmann.fit
        # started from onedim.fit's basis
        rep = simulate.population_experiment(6, 2, 3, ("fg", "fg-warm"), seed=705)
        for rec in rep.records:
            inst = simulate.generate_instance(6, 2, rec.seed)
            if rec.algorithm == "fg":
                settings = grassmann.FgSettings(start_strategy="scan")
                start = grassmann.eigenvector_scan_start(inst.m, inst.u_mat, 2)
            else:
                start = onedim.fit(inst.m, inst.u_mat, 2).basis
                settings = grassmann.FgSettings(start_strategy=start)
            fit = grassmann.fit(inst.m, inst.u_mat, 2, settings)
            explicit = grassmann.fit(
                inst.m, inst.u_mat, 2, replace(settings, start_strategy=start)
            )
            assert np.array_equal(fit.basis, explicit.basis)
            assert fit.objective_values == explicit.objective_values
            assert fit.inner_iterations == explicit.inner_iterations
            assert fit.diagnostics == explicit.diagnostics
            pair = ObjectivePair.from_m_u(inst.m, inst.u_mat)
            assert rec.error is None
            assert rec.distance == linalg.subspace_distance(fit.basis, inst.gamma)
            assert rec.final_objective == float(j_value(pair, fit.basis))
            assert rec.diagnostics == fit.diagnostics

    def test_zero_replications(self):
        rep = simulate.population_experiment(5, 2, 0, ("onedim",))
        assert rep.records == []


class TestSampleExperiment:
    def test_instance_fixed_data_varies(self):
        rep = simulate.sample_experiment(6, 2, 300, 4, ("onedim",), seed=702)
        assert rep.mode == "sample"
        assert rep.n == 300
        seeds = [r.seed for r in rep.records]
        assert seeds == [703, 704, 705, 706]  # instance keeps seed 702
        for rec in rep.records:
            assert rec.error is None
            assert rec.distance < 0.5

    def test_distance_shrinks_with_n(self):
        small = simulate.sample_experiment(6, 2, 200, 12, ("onedim",), seed=703)
        large = simulate.sample_experiment(6, 2, 12800, 12, ("onedim",), seed=703)
        med_small = np.median([r.distance for r in small.records])
        med_large = np.median([r.distance for r in large.records])
        assert med_large < 0.5 * med_small


def test_report_to_dict_timing_toggle():
    rep = simulate.population_experiment(5, 2, 2, ("onedim",), seed=704)
    plain = rep.to_dict()
    assert "wall_time_seconds" not in plain["records"][0]
    assert "mean_time_seconds" not in plain["summary"]["onedim"]
    timed = rep.to_dict(include_timing=True)
    assert timed["records"][0]["wall_time_seconds"] >= 0.0
    assert "mean_time_seconds" in timed["summary"]["onedim"]


class TestResidualBootstrap:
    def test_ols_se_matches_analytic(self):
        # scalar predictor: SE(beta_j) = sqrt(Sigma_jj / sum((x - xbar)^2));
        # the bootstrap must land within 30 percent on Gaussian data
        inst = simulate.generate_instance(6, 2, 42)
        data = simulate.sample_data(inst, 500, 77)
        res = simulate.residual_bootstrap(data, "response", 2, 200, seed=123)
        xc = data.x - data.x.mean(axis=0)
        analytic = np.sqrt(np.diag(inst.m) / float((xc**2).sum()))[:, None]
        ratio = res.se_ols / analytic
        assert ratio.min() > 0.7
        assert ratio.max() < 1.3
        assert res.failed == 0
        assert res.replicates == 200

    def test_deterministic(self):
        inst = simulate.generate_instance(5, 2, 20)
        data = simulate.sample_data(inst, 150, 21)
        a = simulate.residual_bootstrap(data, "response", 2, 30, seed=9)
        b = simulate.residual_bootstrap(data, "response", 2, 30, seed=9)
        assert np.array_equal(a.se_ols, b.se_ols)
        assert np.array_equal(a.se_env, b.se_env)

    def test_mean_kind_needs_no_x(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((120, 4)) + np.array([2.0, 0, 0, 0])
        res = simulate.residual_bootstrap(
            RegressionData(x=None, y=y), "mean", 2, 40, seed=3
        )
        assert res.se_ols.shape == (4, 1)
        assert res.se_env.shape == (4, 1)

    def test_partial_kind_shapes_align(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((200, 3))
        y = x @ rng.standard_normal((3, 4)) + rng.standard_normal((200, 4))
        res = simulate.residual_bootstrap(
            RegressionData(x, y), "partial", 2, 30, seed=4, p1=2
        )
        assert res.se_ols.shape == (4, 2)
        assert res.se_env.shape == (4, 2)

    def test_unknown_kind(self):
        inst = simulate.generate_instance(5, 2, 26)
        data = simulate.sample_data(inst, 100, 27)
        with pytest.raises(InvalidInput):
            simulate.residual_bootstrap(data, "bogus", 2, 5)

    def test_rejects_tiny_b(self):
        inst = simulate.generate_instance(5, 2, 24)
        data = simulate.sample_data(inst, 100, 25)
        with pytest.raises(InvalidInput):
            simulate.residual_bootstrap(data, "response", 2, 1)

    def test_fits_each_replicate_once(self, monkeypatch):
        inst = simulate.generate_instance(5, 2, 30)
        data = simulate.sample_data(inst, 100, 31)
        calls = []
        real_fit = onedim.fit

        def counting_fit(*args, **kwargs):
            calls.append(None)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(onedim, "fit", counting_fit)
        simulate.residual_bootstrap(data, "response", 2, 6, seed=1)
        assert len(calls) == 6
        calls.clear()
        with pytest.raises(InvalidDimension):
            simulate.residual_bootstrap(data, "response", 6, 6, seed=1)
        assert calls == []

    def test_unstable_names_the_last_error(self, monkeypatch):
        inst = simulate.generate_instance(5, 2, 32)
        data = simulate.sample_data(inst, 100, 33)

        def failing_fit(*args, **kwargs):
            raise NoConvergence("stuck")

        monkeypatch.setattr(onedim, "fit", failing_fit)
        with pytest.raises(BootstrapUnstable, match="NoConvergence: stuck") as info:
            simulate.residual_bootstrap(data, "response", 2, 4)
        assert isinstance(info.value.__cause__, NoConvergence)

    def test_unstable_counts_failures_per_type(self, monkeypatch):
        inst = simulate.generate_instance(5, 2, 32)
        data = simulate.sample_data(inst, 100, 33)
        real_fit = onedim.fit
        calls = []

        def fit_failing_by_turn(*args, **kwargs):
            calls.append(None)
            k = len(calls)
            if k in (1, 3, 4):
                raise NoConvergence(f"stuck {k}")
            if k == 5:
                raise SingularGram("flat")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(onedim, "fit", fit_failing_by_turn)
        with pytest.raises(BootstrapUnstable) as info:
            simulate.residual_bootstrap(data, "response", 2, 6)
        assert str(info.value) == (
            "4 of 6 bootstrap replicates failed to refit "
            "(NoConvergence: 3, SingularGram: 1; last: SingularGram: flat)"
        )
        assert isinstance(info.value.__cause__, SingularGram)


def test_programming_errors_are_not_failed_fits(monkeypatch):
    # only package errors count as failed fits; a bug in the solver must
    # surface from every loop that records failures
    real_fit = onedim.fit

    def fit_failing_after(ok):
        calls = []

        def fit(*args, **kwargs):
            calls.append(None)
            if len(calls) > ok:
                raise RuntimeError("programming error")
            return real_fit(*args, **kwargs)

        return fit

    inst = simulate.generate_instance(5, 2, 28)
    data = simulate.sample_data(inst, 100, 29)
    monkeypatch.setattr(onedim, "fit", fit_failing_after(0))
    with pytest.raises(RuntimeError):
        estimators.select_dimension_bic(data, "response", 2)
    with pytest.raises(RuntimeError):
        estimators.select_dimension_cv(data, "response", 2)
    with pytest.raises(RuntimeError):
        simulate.population_experiment(5, 2, 1, ("onedim",))
    # the first replicate's fit succeeds, so the error comes from the second
    monkeypatch.setattr(onedim, "fit", fit_failing_after(1))
    with pytest.raises(RuntimeError):
        simulate.residual_bootstrap(data, "response", 2, 5)
