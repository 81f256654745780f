"""Objective values and derivatives against closed forms and finite
differences.

Closed form used throughout: for M = diag(2, 1), U = diag(3, 0) and
Gamma = e1 the objective is log(2) + log(1/5) = log(0.4).
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from envest import grassmann, linalg, onedim
from envest.errors import (
    DimensionMismatch,
    EnvestError,
    InvalidInput,
    InvalidUhat,
    NotPositiveDefinite,
    SingularGram,
    ZeroVector,
)
from envest.objective import (
    ObjectivePair,
    _pairs,
    _d_tilde_hessians,
    _d_tilde_terms,
    _d_tilde_values,
    _quadratic_forms,
    d_tilde_gradient,
    d_tilde_hessian,
    d_tilde_value,
    j_decomposition,
    j_gradient,
    j_value,
)

LOG_04 = -0.916290731874155  # log(0.4)


def random_pair(rng, d):
    a = rng.standard_normal((d, d))
    m = a @ a.T + d * np.eye(d)
    b = rng.standard_normal((d, max(1, d // 2)))
    u = b @ b.T
    return ObjectivePair.from_m_u(m, u)


def test_closed_form_value():
    pair = ObjectivePair.from_m_u(np.diag([2.0, 1.0]), np.diag([3.0, 0.0]))
    gamma = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(j_value(pair, gamma), LOG_04, atol=1e-13)


def test_from_pair_equals_from_m_u():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    m = a @ a.T + 5 * np.eye(5)
    u = np.outer(rng.standard_normal(5), np.ones(5))
    u = u @ u.T
    p1 = ObjectivePair.from_m_u(m, u)
    p2 = ObjectivePair.from_pair(m, m + u)
    gamma = linalg.orthonormalize(rng.standard_normal((5, 2)))
    np.testing.assert_allclose(j_value(p1, gamma), j_value(p2, gamma), atol=1e-12)
    np.testing.assert_allclose(p1.m_plus_u_logdet, p2.m_plus_u_logdet, atol=1e-12)


def test_logdet_matches_slogdet():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pair = random_pair(rng, 6)
        gamma = linalg.orthonormalize(rng.standard_normal((6, 3)))
        expected = (
            np.linalg.slogdet(gamma.T @ pair.m @ gamma)[1]
            + np.linalg.slogdet(gamma.T @ np.linalg.inv(pair.m_plus_u) @ gamma)[1]
        )
        np.testing.assert_allclose(j_value(pair, gamma), expected, atol=1e-10)


def test_rotation_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        d = int(rng.integers(3, 9))
        pair = random_pair(rng, d)
        k = int(rng.integers(1, d))
        gamma = linalg.orthonormalize(rng.standard_normal((d, k)))
        o = np.linalg.qr(rng.standard_normal((k, k)))[0]
        assert abs(j_value(pair, gamma) - j_value(pair, gamma @ o)) < 1e-11


def test_j_gradient_finite_difference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        pair = random_pair(rng, d)
        k = int(rng.integers(1, d))
        gamma = linalg.orthonormalize(rng.standard_normal((d, k)))
        grad = j_gradient(pair, gamma)
        h = 1e-6
        fd = np.zeros_like(gamma)
        for i in range(d):
            for j in range(k):
                e = np.zeros_like(gamma)
                e[i, j] = h
                fd[i, j] = (j_value(pair, gamma + e) - j_value(pair, gamma - e)) / (
                    2 * h
                )
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_j_gradient_is_the_tangent_model_gradient():
    # J's gradient is written once: the fg model's Riemannian gradient is
    # G0' times the Euclidean one
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        pair = random_pair(rng, d)
        gamma = linalg.orthonormalize(rng.standard_normal((d, int(rng.integers(1, d)))))
        g0, grad, _, _ = grassmann._tangent_model(pair, gamma)
        assert np.abs(g0.T @ j_gradient(pair, gamma) - grad).max() <= 1e-12 * np.abs(grad).max()


def test_j_gradient_rejects_a_singular_gram():
    pair = random_pair(np.random.default_rng(19), 4)
    for gamma in (np.eye(4)[:, [0, 0]], np.column_stack([np.eye(4)[:, 0], np.zeros(4)])):
        with pytest.raises(SingularGram):
            j_gradient(pair, gamma)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("score", [j_value, j_gradient, j_decomposition])
def test_a_non_finite_basis_is_invalid_input(score, bad):
    pair = random_pair(np.random.default_rng(20), 4)
    gamma = np.eye(4)[:, :2]
    gamma[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="basis has non-finite entries"):
            score(pair, gamma)


@pytest.mark.parametrize("score", [j_value, j_gradient, j_decomposition])
def test_a_basis_of_more_than_two_dimensions_is_invalid_input(score):
    pair = random_pair(np.random.default_rng(21), 4)
    with pytest.raises(InvalidInput, match="ndim 3"):
        score(pair, np.eye(4)[None, :, :2])


def test_pair_norms_are_the_spectral_norms():
    rng = np.random.default_rng(18)
    pair = random_pair(rng, 6)
    want = (np.linalg.norm(pair.m, 2), np.linalg.norm(pair.m_plus_u_inv, 2))
    np.testing.assert_allclose(pair.norms, want, rtol=1e-12)


def test_decomposition_sums_to_j():
    rng = np.random.default_rng(15)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        pair = random_pair(rng, d)
        k = int(rng.integers(1, d + 1))
        gamma = linalg.orthonormalize(rng.standard_normal((d, k)))
        j1, j2 = j_decomposition(pair, gamma)
        np.testing.assert_allclose(j1 + j2, j_value(pair, gamma), atol=1e-10)
        assert j2 >= -1e-10


def test_j2_vanishes_when_span_contains_u():
    # span(U) inside span(Gamma) makes the containment part exactly zero
    rng = np.random.default_rng(16)
    gamma = linalg.orthonormalize(rng.standard_normal((6, 2)))
    a = rng.standard_normal((6, 6))
    m = a @ a.T + 6 * np.eye(6)
    u = gamma @ np.array([[2.0, 0.3], [0.3, 1.0]]) @ gamma.T
    pair = ObjectivePair.from_m_u(m, u)
    _, j2 = j_decomposition(pair, gamma)
    assert abs(j2) < 1e-10


def test_requires_positive_definite_m():
    with pytest.raises(NotPositiveDefinite):
        ObjectivePair.from_m_u(np.diag([1.0, 0.0]), np.zeros((2, 2)))


def test_indefinite_m_carries_its_negative_eigenvalue():
    with pytest.raises(NotPositiveDefinite) as info:
        ObjectivePair.from_m_u(np.diag([1.0, -2.0]), np.zeros((2, 2)))
    assert info.value.eigenvalue == -2.0


def test_a_sum_beyond_float64_is_invalid_input():
    # finite M and U whose sum overflows: the pair, both solvers and the scan
    # start reject them as input, rather than build non-finite fields
    m, u = np.diag([1e308, 1.0, 2.0]), np.diag([1e308, 0.5, 0.0])
    calls = (
        lambda: ObjectivePair.from_m_u(m, u),
        lambda: onedim.fit(m, u, 1),
        lambda: grassmann.fit(m, u, 1),
        lambda: grassmann.eigenvector_scan_start(m, u, 1),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="M\\+U has non-finite entries"):
                call()


def test_entries_near_the_float64_limit_build_finite_fields():
    # M = diag(1e308, 1, 2) itself has condition number 1e308, which the
    # positive definiteness test rejects; a well-conditioned M that large
    # builds, and M keeps its bits
    with pytest.raises(NotPositiveDefinite):
        ObjectivePair.from_m_u(np.diag([1e308, 1.0, 2.0]), np.zeros((3, 3)))
    m = np.diag([1e308, 5e307, 2e307])
    pair = ObjectivePair.from_m_u(m, np.zeros((3, 3)))
    assert np.array_equal(pair.m, m) and np.array_equal(pair.m_plus_u, m)
    for field in (pair.m_plus_u_inv, pair.m_plus_u_logdet, pair.candidates, pair.norms):
        assert np.isfinite(field).all()


def test_a_non_finite_spectrum_is_invalid_input():
    # finite entries whose largest eigenvalue, 2e308, overflows
    with pytest.raises(InvalidInput, match="M has a non-finite spectrum"):
        ObjectivePair.from_m_u(np.full((2, 2), 1e308), np.zeros((2, 2)))


def test_rejects_asymmetric_input():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        ObjectivePair.from_m_u(m, np.zeros((2, 2)))


def test_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ObjectivePair.from_m_u(np.eye(3), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        ObjectivePair.from_pair(np.eye(3), np.eye(2))


def test_an_indefinite_u_is_rejected_at_every_entry():
    # U >= 0 is checked where the pair is built, so both builds, both solvers
    # and the scan start reject a U with a materially negative eigenvalue
    m, u = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, -0.5, 0.0])
    calls = (
        lambda: ObjectivePair.from_m_u(m, u),
        lambda: ObjectivePair.from_pair(m, m + u),
        lambda: onedim.fit(m, u, 1),
        lambda: grassmann.fit(m, u, 1),
        lambda: grassmann.eigenvector_scan_start(m, u, 1),
    )
    for call in calls:
        with pytest.raises(InvalidUhat, match=r"eigenvalue \(-0\.5\)"):
            call()
    # a negative eigenvalue within 1e-8 max(1, max |lambda|) is rounding
    u = np.diag([1.0, -0.9e-8, 0.0])
    ObjectivePair.from_m_u(m, u)
    ObjectivePair.from_pair(m, m + u)


def _outcome(call):
    try:
        return call()
    except EnvestError as exc:
        return exc


def test_a_stack_gives_each_place_the_verdict_it_gets_alone():
    # the checks run in one order: symmetry and finiteness of M, then of U,
    # then U >= 0, then M > 0 and M + U > 0; a stack mixing every failure
    # gives each place what from_m_u gives it alone, error and message or
    # pair, bit for bit
    rng = np.random.default_rng(23)
    m, u = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 0.0, 0.0])
    nan_m, skew_u, inf_u = m.copy(), u.copy(), u.copy()
    nan_m[0, 1] = nan_m[1, 0] = np.nan
    skew_u[0, 2] = 1.0
    inf_u[2, 2] = np.inf
    indefinite_u, singular_m = np.diag([1.0, -0.5, 0.0]), np.diag([3.0, 2.0, 0.0])
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
    places = [
        (m, u), (nan_m, skew_u), (nan_m, indefinite_u), (m, skew_u), (m, inf_u),
        (singular_m, skew_u), (m, indefinite_u), (singular_m, indefinite_u),
        (singular_m, u), (-m, np.zeros((3, 3))), (a @ a.T + np.eye(3), b @ b.T),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _pairs(np.array([p[0] for p in places]), np.array([p[1] for p in places]))
        alone = [_outcome(lambda: ObjectivePair.from_m_u(*p)) for p in places]
    verdicts = [f"{type(o).__name__}: {o}" if isinstance(o, EnvestError) else "pair" for o in alone]
    assert verdicts == [
        "pair",
        "InvalidInput: M has non-finite entries",
        "InvalidInput: M has non-finite entries",
        "InvalidInput: U is not symmetric",
        "InvalidInput: U has non-finite entries",
        "InvalidInput: U is not symmetric",
        "InvalidUhat: U-hat has a materially negative eigenvalue (-0.5)",
        "InvalidUhat: U-hat has a materially negative eigenvalue (-0.5)",
        "NotPositiveDefinite: M is not positive definite (eigenvalue 0)",
        "NotPositiveDefinite: M is not positive definite (eigenvalue -3)",
        "pair",
    ]
    for got, want in zip(stacked, alone):
        assert type(got) is type(want)
        if isinstance(want, EnvestError):
            assert str(got) == str(want)
        else:
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name))


@pytest.mark.parametrize(
    "solve", [onedim.fit, grassmann.fit, grassmann.eigenvector_scan_start]
)
def test_solver_entries_reject_shape_mismatch(solve):
    # each solver input is checked once, by the pair build
    with pytest.raises(DimensionMismatch):
        solve(np.eye(3), np.zeros((2, 2)), 1)


class TestDTilde:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.rng = rng
        self.pair = random_pair(rng, 5)

    def test_matches_j_on_unit_vectors(self):
        for _ in range(10):
            w = self.rng.standard_normal(5)
            w /= np.linalg.norm(w)
            np.testing.assert_allclose(
                d_tilde_value(self.pair, w),
                j_value(self.pair, w[:, None]),
                atol=1e-12,
            )

    def test_scale_invariance(self):
        w = self.rng.standard_normal(5)
        for c in (1e-3, 0.5, 7.0, 1e3):
            np.testing.assert_allclose(
                d_tilde_value(self.pair, c * w),
                d_tilde_value(self.pair, w),
                atol=1e-10,
            )

    def test_gradient_finite_difference(self):
        for _ in range(10):
            w = self.rng.standard_normal(5)
            g = d_tilde_gradient(self.pair, w)
            h = 1e-6 * max(1.0, np.linalg.norm(w))
            fd = np.zeros(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[i] = (
                    d_tilde_value(self.pair, w + e) - d_tilde_value(self.pair, w - e)
                ) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_orthogonal_to_w(self):
        # scale invariance makes the radial derivative vanish
        for _ in range(10):
            w = self.rng.standard_normal(5)
            g = d_tilde_gradient(self.pair, w)
            assert abs(g @ w) < 1e-10 * max(1.0, np.linalg.norm(g))

    def test_hessian_finite_difference(self):
        for _ in range(5):
            w = self.rng.standard_normal(5)
            hess = d_tilde_hessian(self.pair, w)
            h = 1e-6 * max(1.0, np.linalg.norm(w))
            fd = np.zeros((5, 5))
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[:, i] = (
                    d_tilde_gradient(self.pair, w + e)
                    - d_tilde_gradient(self.pair, w - e)
                ) / (2 * h)
            np.testing.assert_allclose(hess, 0.5 * (fd + fd.T), rtol=1e-4, atol=1e-6)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            d_tilde_value(self.pair, np.zeros(5))

    def test_wrong_length_raises(self):
        with pytest.raises(InvalidInput):
            d_tilde_value(self.pair, np.ones(4))


@pytest.mark.parametrize("d", [2, 5, 30])
def test_tangent_model_is_the_compressed_hessian(d):
    # the direction solver's model, P H P + w w'/w'w with P = I - w w'/w'w,
    # written as a rank-3 update of (2/qm) M + (2/qn) N - (4/qw) I; rows of
    # any length, since nothing in the formula may assume w'w = 1
    rng = np.random.default_rng(40 + d)
    pair = random_pair(rng, d)
    w = rng.standard_normal((6, d)) * rng.uniform(0.1, 10.0, (6, 1))
    model = _d_tilde_hessians(pair.m, pair.m_plus_u_inv, w, tangent=True)
    for row, got in zip(w, model):
        proj = np.eye(d) - np.outer(row, row) / (row @ row)
        want = proj @ d_tilde_hessian(pair, row) @ proj + np.outer(row, row) / (row @ row)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _same_bits(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same_bits, got, want))
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d", [3, 12, 30])
def test_batched_kernels_give_each_pair_its_lone_bits(d):
    # the rows of three pairs in blocks of 5, 1 and 8, as the direction
    # solver batches several problems: every D kernel gives each pair's
    # rows exactly the bits of a call on that pair's rows alone
    rng = np.random.default_rng(70 + d)
    pairs = [random_pair(rng, d) for _ in range(3)]
    sizes = (5, 1, 8)
    blocks = [rng.standard_normal((k, d)) * rng.uniform(0.1, 10.0, (k, 1)) for k in sizes]
    m = np.array([pair.m for pair in pairs])
    n = np.array([pair.m_plus_u_inv for pair in pairs])
    owner = np.repeat(np.arange(len(sizes)), sizes)

    def kernels(m, n, w, owner=None):
        return (
            _quadratic_forms(m, n, w, owner),
            _d_tilde_values(m, n, w, owner),
            _d_tilde_terms(m, n, w, owner),
            _d_tilde_hessians(m, n, w, tangent=True, owner=owner),
        )

    batched = kernels(m, n, np.concatenate(blocks), owner)
    ends = np.cumsum(sizes)
    for pair, block, lo, hi in zip(pairs, blocks, ends - sizes, ends):
        alone = kernels(pair.m, pair.m_plus_u_inv, block)
        rows = tuple(
            tuple(x[lo:hi] for x in out) if isinstance(out, tuple) else out[lo:hi]
            for out in batched
        )
        assert _same_bits(rows, alone)


def test_a_singular_tangent_hessian_batch_raises():
    # the direction solver solves its batch of tangent models through
    # numpy's kernel, under the error state np.linalg.solve sets: a batch
    # holding a singular model raises LinAlgError, as np.linalg.solve does,
    # where the bare kernel returns NaN with a RuntimeWarning; a regular
    # batch gets np.linalg.solve's bits
    rng = np.random.default_rng(81)
    d = 6
    pair = random_pair(rng, d)
    w = rng.standard_normal((4, d))
    h = _d_tilde_hessians(pair.m, pair.m_plus_u_inv, w, tangent=True)
    g = rng.standard_normal((4, d))
    assert _same_bits(linalg._solve_vectors(h, g), np.linalg.solve(h, g[..., None])[..., 0])
    h[2, :, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            linalg._solve_vectors(h, g)
