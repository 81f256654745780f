"""Objective values and derivatives against closed forms and finite
differences.

Closed form used throughout: for M = diag(2, 1), U = diag(3, 0) and
Gamma = e1 the objective is log(2) + log(1/5) = log(0.4).
"""

import numpy as np
import pytest

from envest import linalg
from envest.errors import (
    InvalidInput,
    NotPositiveDefinite,
    SingularGram,
    ZeroVector,
)
from envest.objective import (
    ObjectivePair,
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


def test_rejects_asymmetric_input():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        ObjectivePair.from_m_u(m, np.zeros((2, 2)))


def test_rejects_shape_mismatch():
    with pytest.raises(InvalidInput):
        ObjectivePair.from_m_u(np.eye(3), np.zeros((2, 2)))


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
