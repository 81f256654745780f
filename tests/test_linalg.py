"""Linear algebra helpers checked against numpy.linalg and closed forms.

Known values used below:
- two lines at angle theta have projector distance sqrt(2)*|sin(theta)|
"""

import warnings

import numpy as np
import pytest

from envest import convert, linalg
from envest.errors import (
    DimensionMismatch,
    InvalidInput,
    SingularGram,
)

from conftest import cholesky_raises


def test_symmetrize_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7))
    s = linalg.symmetrize(a)
    assert np.array_equal(s, s.T)
    np.testing.assert_allclose(s, 0.5 * (a + a.T))


def test_symmetrize_keeps_finite_entries_near_the_float64_limit():
    # halving the sum would take 1e308 + 1e308 to inf first
    a = np.array([[1e308, -1e308, 2.0], [-1e308, 0.5, 1e308], [2.0, 1e308, -1e308]])
    assert np.array_equal(linalg.symmetrize(a), a)


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


@pytest.mark.parametrize("shape", [(3, 2), (0, 2), (0,)])
def test_fix_column_signs_leaves_zero_columns(shape):
    # columns of zeros, and columns of no entries, have no sign to fix
    a = np.zeros(shape)
    np.testing.assert_array_equal(linalg.fix_column_signs(a), a)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.random.default_rng(4).standard_normal((5, 2))
        a[3, 1] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            linalg.orthonormalize(a)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3))
        q = linalg.orthonormalize(a)
        for j in range(3):
            i = np.argmax(np.abs(q[:, j]))
            assert q[i, j] > 0


def _verdict_stack(d, rng):
    """Positive definite, indefinite, singular semidefinite and NaN-holding
    d x d matrices, shuffled."""
    a = rng.standard_normal((d, d))
    pd = a @ a.T + 0.1 * np.eye(d)
    indefinite = pd - (np.linalg.eigvalsh(pd)[0] + 1.0) * np.eye(d)
    v = rng.standard_normal((d, d - 1))
    singular = v @ v.T
    zero = np.zeros((d, d))
    nan_corner, nan_corner_neg, nan_off, nan_off_neg = pd.copy(), -pd, pd.copy(), -pd
    nan_corner[0, 0] = nan_corner_neg[0, 0] = np.nan
    nan_off[-1, 0] = nan_off[0, -1] = nan_off_neg[-1, 0] = nan_off_neg[0, -1] = np.nan
    stack = np.array([pd, indefinite, singular, zero, -pd, nan_corner, nan_corner_neg,
                      nan_off, nan_off_neg, 2.0 * pd])
    return stack[rng.permutation(len(stack))]


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_not_positive_definite_flags_what_cholesky_rejects(d):
    stack = _verdict_stack(d, np.random.default_rng(d))
    want = [k for k, a in enumerate(stack) if cholesky_raises(a)]
    assert 0 < len(want) < len(stack)
    assert linalg._cholesky(stack)[1].nonzero()[0].tolist() == want


def test_a_verdict_does_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    stack = _verdict_stack(4, rng)
    fails = linalg._cholesky(stack)[1]
    for k in range(len(stack)):
        assert linalg._cholesky(stack[k:k + 1])[1][0] == fails[k]
    for _ in range(5):
        order = rng.permutation(len(stack))[:rng.integers(1, len(stack) + 1)]
        assert np.array_equal(linalg._cholesky(stack[order])[1], fails[order])


def test_batched_cholesky_kernel_contract():
    # ``_cholesky`` reads verdicts from the factors of numpy's
    # batched kernel: a failed factor is all NaN, a successful one has exact
    # zeros above its diagonal and the lower triangle np.linalg.cholesky gives
    stack = _verdict_stack(4, np.random.default_rng(9))
    with np.errstate(invalid="ignore"):
        c = np.linalg._umath_linalg.cholesky_lo(stack, signature="d->d")
    upper = np.triu_indices(4, 1)
    for a, factor in zip(stack, c):
        if cholesky_raises(a):
            assert np.isnan(factor).all()
        else:
            assert (factor[upper] == 0.0).all()
            assert np.array_equal(factor, np.linalg.cholesky(a), equal_nan=True)


def test_a_one_by_one_verdict():
    # grassmann's tangent model is 1 x 1 at (d, u) = (2, 1); there the
    # verdict is np.linalg.cholesky's, which accepts NaN: a tangent model
    # is finite once its Grams have passed their checks
    stack = np.array([2.0, 1e-300, 0.0, -1.0, np.nan])[:, None, None]
    assert [cholesky_raises(a) for a in stack] == [False, False, True, True, False]
    assert linalg._cholesky(stack)[1].nonzero()[0].tolist() == [2, 3]


def test_eigh_kernel_is_np_linalg_eigh():
    # ObjectivePair builds call numpy's eigh kernel as np.linalg.eigh does:
    # the same bits, and LinAlgError, with no warning, where it fails
    rng = np.random.default_rng(12)
    for d in (1, 4, 30):
        a = linalg.symmetrize(rng.standard_normal((d, d)))
        vals, vecs = linalg._eigh(a)
        want_vals, want_vecs = np.linalg.eigh(a)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            linalg._eigh(np.full((3, 3), np.nan))


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
        with pytest.raises(InvalidInput):
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

    @pytest.mark.parametrize("metric", [None, np.diag([1.0, 2.0, 3.0])])
    def test_zero_column_basis_gives_the_zero_projector(self, metric):
        p = linalg.project(np.zeros((3, 0)), metric)
        assert p.shape == (3, 3)
        assert np.array_equal(p, np.zeros((3, 3)))


def test_a_basis_that_is_not_orthonormal_is_rejected():
    a = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput):
        convert.basis(a, "start basis", tol=1e-10)
