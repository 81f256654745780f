"""Linear algebra helpers checked against numpy.linalg and closed forms.

Known values used below:
- two lines at angle theta have projector distance sqrt(2)*|sin(theta)|
- diag(2, 2, 1) has eigenvalue groups {2, 2} and {1}
"""

import numpy as np
import pytest

from envest import linalg
from envest.errors import (
    DimensionMismatch,
    EmptyComplement,
    InvalidInput,
    SingularGram,
)


def test_symmetrize_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7))
    s = linalg.symmetrize(a)
    assert np.array_equal(s, s.T)
    np.testing.assert_allclose(s, 0.5 * (a + a.T))


def test_fix_column_signs_pins_largest_entry():
    a = np.array([[0.1, -2.0], [-3.0, 1.0]])
    fixed = linalg.fix_column_signs(a)
    # column 0: largest magnitude is -3 -> flip; column 1: -2 -> flip
    np.testing.assert_allclose(fixed, np.array([[-0.1, 2.0], [3.0, -1.0]]))


def test_fix_column_signs_tie_uses_first():
    a = np.array([[-1.0], [1.0]])
    fixed = linalg.fix_column_signs(a)
    # |entries| tie; the first one decides, so the column flips
    np.testing.assert_allclose(fixed, np.array([[1.0], [-1.0]]))


def test_fix_column_signs_leaves_zero_columns():
    a = np.zeros((3, 2))
    np.testing.assert_allclose(linalg.fix_column_signs(a), a)


class TestOrthonormalize:
    def test_orthonormal_columns_same_span(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((8, 3))
            q = linalg.orthonormalize(a)
            np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
            # same span: projecting a onto q changes nothing
            np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-10)

    def test_already_orthonormal_is_stable(self):
        q0 = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 2)))[0]
        q0 = linalg.fix_column_signs(q0)
        np.testing.assert_allclose(linalg.orthonormalize(q0), q0, atol=1e-12)

    def test_dependent_columns_raise(self):
        a = np.ones((5, 2))
        with pytest.raises(SingularGram):
            linalg.orthonormalize(a)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3))
        q = linalg.orthonormalize(a)
        for j in range(3):
            i = np.argmax(np.abs(q[:, j]))
            assert q[i, j] > 0


class TestSymEig:
    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            a = rng.standard_normal((9, 9))
            s = a @ a.T
            dec = linalg.sym_eig(s)
            np.testing.assert_allclose(
                sorted(dec.eigenvalues), sorted(np.linalg.eigvalsh(s)), atol=1e-8
            )
            recomposed = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            np.testing.assert_allclose(recomposed, s, atol=1e-8)

    def test_descending_order(self):
        dec = linalg.sym_eig(np.diag([1.0, 5.0, 3.0]))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_grouping_on_degenerate_spectrum(self):
        dec = linalg.sym_eig(np.diag([2.0, 2.0, 1.0]))
        assert [len(g) for g in dec.groups] == [2, 1]

    def test_grouping_respects_tolerance(self):
        dec = linalg.sym_eig(np.diag([2.0, 2.0 - 1e-12, 1.0]), group_tol=1e-8)
        assert [len(g) for g in dec.groups] == [2, 1]
        dec2 = linalg.sym_eig(np.diag([2.0, 1.9, 1.0]), group_tol=1e-8)
        assert [len(g) for g in dec2.groups] == [1, 1, 1]


class TestOrthonormalComplement:
    def test_joint_basis_is_orthogonal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, d))
            basis = linalg.orthonormalize(rng.standard_normal((d, k)))
            comp = linalg.orthonormal_complement(basis)
            assert comp.shape == (d, d - k)
            joint = np.hstack([basis, comp])
            np.testing.assert_allclose(joint.T @ joint, np.eye(d), atol=1e-10)

    def test_zero_columns_gives_identity(self):
        comp = linalg.orthonormal_complement(np.zeros((4, 0)))
        np.testing.assert_allclose(comp, np.eye(4))

    def test_full_basis_raises(self):
        basis = np.eye(3)
        with pytest.raises(EmptyComplement):
            linalg.orthonormal_complement(basis)


class TestSubspaceDistance:
    def test_angle_closed_form(self):
        # lines at angle theta: ||P1 - P2||_F = sqrt(2) |sin theta|
        theta = np.pi / 6
        a = np.array([[1.0], [0.0]])
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        np.testing.assert_allclose(
            linalg.subspace_distance(a, b), np.sqrt(2) * np.sin(theta), atol=1e-12
        )

    def test_zero_for_same_span(self):
        rng = np.random.default_rng(7)
        a = linalg.orthonormalize(rng.standard_normal((7, 3)))
        # any rotation of the basis spans the same space
        o = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert linalg.subspace_distance(a, linalg.orthonormalize(a @ o)) < 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            bases = [
                linalg.orthonormalize(rng.standard_normal((6, 2))) for _ in range(3)
            ]
            dab = linalg.subspace_distance(bases[0], bases[1])
            dba = linalg.subspace_distance(bases[1], bases[0])
            dbc = linalg.subspace_distance(bases[1], bases[2])
            dac = linalg.subspace_distance(bases[0], bases[2])
            np.testing.assert_allclose(dab, dba, atol=1e-12)
            assert dac <= dab + dbc + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestProject:
    def test_euclidean_projector(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 2))
        p = linalg.project(a)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p @ a, a, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-10)

    def test_metric_projector(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 2))
        w = rng.standard_normal((6, 6))
        v = w @ w.T + 6 * np.eye(6)
        p = linalg.project(a, metric=v)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        np.testing.assert_allclose(p @ a, a, atol=1e-9)
        # self-adjoint in the V inner product
        np.testing.assert_allclose(v @ p, (v @ p).T, atol=1e-9)

    def test_singular_gram(self):
        a = np.ones((4, 2))
        with pytest.raises(SingularGram):
            linalg.project(a)


def test_check_orthonormal_rejects_skew():
    a = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput):
        linalg.check_orthonormal(a, name="start basis")
