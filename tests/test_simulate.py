"""Simulation harness: the eigenspace oracle, seeded experiments and the
residual bootstrap, with determinism pinned across reruns."""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from envest import estimators, grassmann, linalg, objective, onedim, simulate
from envest.errors import (
    BootstrapUnstable,
    DimensionMismatch,
    InvalidDimension,
    InvalidInput,
    NoConvergence,
    SingularGram,
)
from envest.estimators import RegressionData
from envest.objective import ObjectivePair, j_value

from conftest import route_fits, stuck


class TestGenerateInstance:
    def test_reproducible(self):
        a = simulate.generate_instance(7, 3, 11)
        b = simulate.generate_instance(7, 3, 11)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.gamma, b.gamma)

    @pytest.mark.parametrize("seed, digest", [
        (0, "0df0d3b2eb944e9e2ed02ef3d303fd75c8929d37eef0787a422b6289bffc135e"),
        (1, "ac22fdc4f884f0e0cfd7fce1db09a5dc7e6aa1c7f1efddbaf88850e147e61857"),
        (2, "bc41a9c655a10f3fc4e42b1998ca9ee632addaeec0f2e5ff414b61c87a6a7bd9"),
        (3, "214a328c645e136e2488a75c64a83891622c4d0a595c78f775e6f384a02a7231"),
    ])
    def test_instances_keep_their_bits(self, seed, digest):
        # every generated instance, and so every simulation, rests on the
        # Gram-Schmidt completion in linalg.orthonormal_complement; the
        # digests were taken with numpy 2.4 and OpenBLAS, and another BLAS
        # build may round differently
        inst = simulate.generate_instance(30, 10, seed)
        h = hashlib.sha256()
        for a in (inst.gamma, inst.gamma0, inst.omega, inst.omega0, inst.m, inst.u_mat):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

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

    def test_rejects_shape_mismatch(self):
        # the fault ObjectivePair.from_m_u and linalg.project report as a
        # DimensionMismatch, with the matrices named as from_m_u names them
        with pytest.raises(DimensionMismatch, match=r"M is \(3, 3\) but U is \(2, 2\)"):
            simulate.oracle_envelope(np.eye(3), np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            ObjectivePair.from_m_u(np.eye(3), np.zeros((2, 2)))

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

    @pytest.mark.parametrize("spectrum, columns", [
        ([2.0, 2.0, 1.0], 2),
        ([2.0, 2.0 - 1e-12, 1.0], 2),
        ([2.0, 1.9, 1.0], 3),
    ])
    def test_near_ties_share_an_eigenspace(self, spectrum, columns):
        # eigenvalues closer than 1e-8 max(1, |lambda_1|) form one group,
        # onto whose eigenspace the rank-one U projects as one direction
        oracle = simulate.oracle_envelope(np.diag(spectrum), np.ones((3, 3)))
        assert oracle.shape == (3, columns)
        p = oracle @ oracle.T
        np.testing.assert_allclose(p @ np.ones(3), np.ones(3), atol=1e-12)

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

    def test_dimension_guard(self):
        # an invalid (d, u) is the caller's error, raised, not recorded
        with pytest.raises(InvalidDimension):
            simulate.population_experiment(5, 5, 2, ("onedim",))

    def test_repeated_algorithm_is_rejected_before_any_fit(self, monkeypatch):
        # a repeat would fit every replication twice and count it as two
        calls = []
        monkeypatch.setattr(onedim, "fit_many", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match="'onedim' is named more than once"):
            simulate.population_experiment(4, 1, 3, ("onedim", "onedim"))
        assert calls == []

    def test_full_optimizer_records_match_direct_fits(self):
        # fg starts from the scan (start None), which must equal starting
        # from the scan basis passed in; fg-warm records equal grassmann.fit
        # started from onedim.fit's basis
        rep = simulate.population_experiment(6, 2, 3, ("fg", "fg-warm"), seed=705)
        for rec in rep.records:
            inst = simulate.generate_instance(6, 2, rec.seed)
            if rec.algorithm == "fg":
                given = None
                start = grassmann.eigenvector_scan_start(inst.m, inst.u_mat, 2)
            else:
                given = start = onedim.fit(inst.m, inst.u_mat, 2).basis
            fit = grassmann.fit(inst.m, inst.u_mat, 2, start=given)
            explicit = grassmann.fit(inst.m, inst.u_mat, 2, start=start)
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

    def test_a_singular_sample_is_recorded_not_raised(self):
        # n = 8 < d = 10: S_Y is singular, so no replication builds its pair
        rep = simulate.sample_experiment(10, 3, 8, 2, ("onedim", "fg"))
        assert [(r.replication, r.seed, r.algorithm) for r in rep.records] == [
            (0, 1, "onedim"), (0, 1, "fg"), (1, 2, "onedim"), (1, 2, "fg"),
        ]
        for rec in rep.records:
            assert rec.error == "SingularCovariance: sample covariance of Y is singular"
            assert rec.distance is None
        for cell in rep.summary.values():
            assert cell["replications_ok"] == 0
            assert cell["replications_failed"] == 2

    def test_ill_conditioned_samples_fit_without_stalling(self):
        # at (60, 30), n = 1000, many tangent Hessians are positive definite
        # but ill-conditioned; shifting them anyway fails replications 0-3
        # and stalls two directions of the fifth
        rep = simulate.sample_experiment(60, 30, 1000, 5, ("onedim",), seed=1)
        assert len(rep.records) == 5
        for rec in rep.records:
            assert rec.error is None
            assert not [flag for flag in rec.diagnostics if flag.startswith("Stalled@")]

    def test_distance_shrinks_with_n(self):
        small = simulate.sample_experiment(6, 2, 200, 12, ("onedim",), seed=703)
        large = simulate.sample_experiment(6, 2, 12800, 12, ("onedim",), seed=703)
        med_small = np.median([r.distance for r in small.records])
        med_large = np.median([r.distance for r in large.records])
        assert med_large < 0.5 * med_small


def _sample(seed=1):
    return simulate.sample_data(simulate.generate_instance(6, 2, 0), 50, seed)


SEEDED = {
    "generate_instance": lambda seed: simulate.generate_instance(6, 2, seed),
    "sample_data": _sample,
    "residual_bootstrap": lambda seed: simulate.residual_bootstrap(
        _sample(), "response", 2, 4, seed=seed
    ),
    "select_dimension_cv": lambda seed: estimators.select_dimension_cv(
        _sample(), "response", 2, seed=seed
    ),
    "population_experiment": lambda seed: simulate.population_experiment(
        6, 2, 2, ("onedim",), seed=seed
    ),
    "sample_experiment": lambda seed: simulate.sample_experiment(
        6, 2, 50, 2, ("onedim",), seed=seed
    ),
}


@pytest.mark.parametrize("seed", [-1, 1.5, None])
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_a_seed_must_be_an_integer_at_least_0(call, seed):
    # numpy would raise its own ValueError or TypeError, or draw fresh entropy
    with pytest.raises(InvalidInput, match="seed must be an integer, at least 0"):
        call(seed)


@pytest.mark.parametrize("n", [1, 2.5])
def test_a_sample_experiment_checks_n_before_any_replication(n):
    with pytest.raises(InvalidInput, match="need an integer n >= 2"):
        simulate.sample_experiment(6, 2, n, 2, ("onedim",))


def test_report_to_dict_withholds_timing():
    rep = simulate.population_experiment(5, 2, 2, ("onedim",), seed=704)
    plain = rep.to_dict()
    assert "wall_time_seconds" not in plain["records"][0]
    assert "mean_time_seconds" not in plain["summary"]["onedim"]


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

        def counting(m, u, result):
            calls.append(None)
            return result

        route_fits(monkeypatch, counting)
        simulate.residual_bootstrap(data, "response", 2, 6, seed=1)
        assert len(calls) == 6
        calls.clear()
        with pytest.raises(InvalidDimension):
            simulate.residual_bootstrap(data, "response", 6, 6, seed=1)
        assert calls == []

    def test_success_keeps_failures_per_type(self, monkeypatch):
        # a failed replicate below the 20 percent limit is named in the
        # result, not only counted
        inst = simulate.generate_instance(5, 2, 32)
        data = simulate.sample_data(inst, 100, 33)
        calls = []

        def failing_once(m, u, result):
            calls.append(None)
            return stuck(m) if len(calls) == 2 else result

        route_fits(monkeypatch, failing_once)
        res = simulate.residual_bootstrap(data, "response", 2, 6)
        assert res.failed == 1
        assert res.failures == {"NoConvergence": 1}
        monkeypatch.undo()
        assert simulate.residual_bootstrap(data, "response", 2, 6).failures == {}

    def test_unstable_names_the_last_error(self, monkeypatch):
        inst = simulate.generate_instance(5, 2, 32)
        data = simulate.sample_data(inst, 100, 33)

        route_fits(monkeypatch, lambda m, u, result: stuck(m))
        with pytest.raises(BootstrapUnstable, match="NoConvergence: stuck") as info:
            simulate.residual_bootstrap(data, "response", 2, 4)
        assert isinstance(info.value.__cause__, NoConvergence)

    def test_unstable_counts_failures_per_type(self, monkeypatch):
        inst = simulate.generate_instance(5, 2, 32)
        data = simulate.sample_data(inst, 100, 33)
        calls = []

        def failing_by_turn(m, u, result):
            calls.append(None)
            k = len(calls)
            if k in (1, 3, 4):
                return stuck(m, f"stuck {k}")
            if k == 5:
                return SingularGram("flat")
            return result

        route_fits(monkeypatch, failing_by_turn)
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
    def failing_after(ok):
        calls = []

        def outcome(m, u, result):
            calls.append(None)
            if len(calls) > ok:
                raise RuntimeError("programming error")
            return result

        return outcome

    inst = simulate.generate_instance(5, 2, 28)
    data = simulate.sample_data(inst, 100, 29)
    route_fits(monkeypatch, failing_after(0))
    with pytest.raises(RuntimeError):
        estimators.select_dimension_bic(data, "response", 2)
    with pytest.raises(RuntimeError):
        estimators.select_dimension_cv(data, "response", 2)
    with pytest.raises(RuntimeError):
        simulate.population_experiment(5, 2, 1, ("onedim",))
    # the first replicate's fit succeeds, so the error comes from the second
    route_fits(monkeypatch, failing_after(1))
    with pytest.raises(RuntimeError):
        simulate.residual_bootstrap(data, "response", 2, 5)


class TestBatchedFits:
    """Replications and bootstrap replicates are fitted together; each must
    come out as it does when fitted on its own."""

    def spy(self, monkeypatch):
        sizes = []
        real = onedim.fit_many

        def recording(problems, u, settings=None):
            sizes.append(len(problems))
            return real(problems, u, settings)

        monkeypatch.setattr(onedim, "fit_many", recording)
        return sizes

    @pytest.mark.parametrize("kind, algo, cap", [
        ("response", "onedim", None),
        ("response", "onedim", 3),  # two replicates fail
        ("response", "onedim", 2),  # four fail: BootstrapUnstable
        ("partial", "fg-warm", None),
        ("constrained-mean", "onedim", None),
        ("mean", "fg", None),
    ])
    def test_bootstrap_equals_one_replicate_at_a_time(self, monkeypatch, kind, algo, cap):
        inst = simulate.generate_instance(6, 2, 43)
        data = simulate.sample_data(inst, 80, 44)
        settings = None if cap is None else onedim.OneDimSettings(max_iterations=cap)

        def run():
            try:
                res = simulate.residual_bootstrap(
                    data, kind, 2, 10, algo, settings, seed=2, p1=1 if kind == "partial" else None
                )
            except BootstrapUnstable as exc:
                return str(exc), type(exc.__cause__)
            return res.se_ols.tobytes(), res.se_env.tobytes(), res.failed, res.failures

        sizes = self.spy(monkeypatch)
        together = run()
        assert max(sizes, default=0) == (10 if algo != "fg" else 0)
        monkeypatch.setattr(estimators, "_PROBLEMS_PER_BATCH", 1)
        assert run() == together
        if cap == 3:
            assert together[2:] == (2, {"NoConvergence": 2})
        if cap == 2:
            assert together[0].startswith("4 of 10 bootstrap replicates failed")

    @pytest.mark.parametrize("mode", ["population", "sample"])
    def test_experiment_equals_one_replication_at_a_time(self, monkeypatch, mode):
        def run():
            if mode == "population":
                report = simulate.population_experiment(8, 3, 5, ("onedim", "fg", "fg-warm"), 11)
            else:
                report = simulate.sample_experiment(8, 3, 60, 5, ("onedim", "fg", "fg-warm"), 11)
            return report.to_dict()

        sizes = self.spy(monkeypatch)
        together = run()
        assert sizes == [5, 5]
        monkeypatch.setattr(estimators, "_PROBLEMS_PER_BATCH", 2)
        assert run() == together
        # onedim and fg-warm; the fifth replication is fitted alone, by a
        # fit_many call of its one pair
        assert sizes[2:] == [2, 2, 2, 2, 1, 1]


class TestFailingPairsStayIsolated:
    """With n just above r, some bootstrap resamples are rank-deficient, so
    their pairs come out Ridged or fail with SingularCovariance or
    NotPositiveDefinite; a sample experiment at n = d + 1 fails every pair,
    each with its own eigenvalue.  A batch's pairs are built, checked and
    fitted together, and each must come out as it does alone."""

    @staticmethod
    def data(r, p, n):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, p))
        y = x @ rng.standard_normal((p, r)) + rng.standard_normal((n, r))
        return estimators.RegressionData(x, y)

    @pytest.mark.parametrize("kind, r, p, n, algo, failures", [
        ("response", 6, 2, 10, "onedim", {"SingularCovariance": 2}),  # 21 Ridged
        ("partial", 6, 2, 10, "fg-warm", {"SingularCovariance": 2}),
        ("predictor", 5, 2, 10, "onedim", {"NotPositiveDefinite": 3}),  # 6 Ridged
        ("predictor", 6, 2, 10, "fg", None),  # 9 of 40 fail: BootstrapUnstable
    ])
    def test_bootstrap_equals_one_replicate_at_a_time(
        self, monkeypatch, kind, r, p, n, algo, failures
    ):
        data = self.data(r, p, n)

        def run():
            try:
                res = simulate.residual_bootstrap(
                    data, kind, 1, 40, algo, seed=0, p1=1 if kind == "partial" else None
                )
            except BootstrapUnstable as exc:
                return str(exc), type(exc.__cause__)
            return res.se_ols.tobytes(), res.se_env.tobytes(), res.failed, res.failures

        together = run()
        if failures is None:
            assert together[0].startswith("9 of 40 bootstrap replicates failed")
        else:
            assert together[3] == failures
        monkeypatch.setattr(estimators, "_PROBLEMS_PER_BATCH", 1)
        assert run() == together

    @pytest.mark.parametrize("n", [7, 8])
    def test_sample_experiment_equals_one_replication_at_a_time(self, monkeypatch, n):
        def run():
            algos = ("onedim", "fg", "fg-warm")
            return simulate.sample_experiment(6, 2, n, 6, algos, seed=3).to_dict()

        together = run()
        errors = {rec["error"] for rec in together["records"]}
        # n = d + 1 leaves every M singular, each with its own eigenvalue
        assert len(errors) == (6 if n == 7 else 1)
        monkeypatch.setattr(estimators, "_PROBLEMS_PER_BATCH", 1)
        assert run() == together


def test_bootstrap_memory_stays_within_a_few_samples():
    # a batch's replicates are built one at a time, each reduced to its
    # moments and dropped, and each draws its rows as it is built: the
    # peak holds a few copies of one sample's n x r data, not one per
    # replicate (drawing a batch's rows up front held 64 index arrays,
    # over five samples' worth)
    data = simulate.sample_data(simulate.generate_instance(12, 3, 7), 20_000, 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simulate.residual_bootstrap(data, "response", 3, 64, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * data.y.nbytes


@pytest.mark.parametrize("d, u, n", [(10, 3, 100), (30, 10, 200), (60, 30, 4000)])
def test_a_sample_replication_fits_the_response_estimators_pair(d, u, n):
    # the pair a sample experiment builds from one replication's data is
    # the pair the response estimator builds and checks from it, bit for bit
    inst = simulate.generate_instance(d, u, d)
    m, u_mat = simulate._sample_pair(inst, n, d + 1)
    (pair,) = objective._pairs(m[None], u_mat[None])
    moments = estimators._sample_moments("response", simulate.sample_data(inst, n, d + 1))
    m_hat, m_plus_u, _, _ = estimators._kind_pairs("response", [moments])
    ((checked, flags),) = estimators._checked_pairs(m_hat, m_plus_u)
    assert flags == []
    for f in fields(ObjectivePair):
        a, b = np.asarray(getattr(pair, f.name)), np.asarray(getattr(checked, f.name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
