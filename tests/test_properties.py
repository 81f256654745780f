"""Property tests of the three solvers against the eigenspace oracle.

Every solver runs through ``estimators._solve`` with its ``ALGORITHMS``
preset, so the tests see what the estimators and the command line run.
The examples are derandomized and kept small, so the whole file takes a
few seconds.
"""

import hypothesis
import numpy as np
from hypothesis import strategies as st

from envest import estimators, linalg, simulate
from envest.objective import ObjectivePair, j_value

ALGOS = tuple(estimators.ALGORITHMS)
PROPERTY = hypothesis.settings(
    max_examples=25, deadline=None, derandomize=True, database=None
)


def solve(algo, m, u_mat, u):
    return estimators._solve(algo, m, u_mat, u, estimators.solver_settings(algo))


def random_basis(rng, d):
    return linalg.orthonormalize(rng.standard_normal((d, d)))


@PROPERTY
@hypothesis.given(d=st.integers(3, 7), u=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_tied_pair_in_the_complement(d, u, seed):
    # M's eigenvectors in the tied pair are fixed only up to rotation; the
    # envelope, span(Gamma), is not, and every solver must find it
    u = min(u, d - 2)
    rng = np.random.default_rng(seed)
    q = random_basis(rng, d)
    gamma, gamma0 = q[:, :u], q[:, u:]
    a = rng.uniform(0.0, 1.0, (u, u))
    omega = a @ a.T + 0.1 * np.eye(u)
    lam0 = rng.uniform(0.2, 3.0, d - u)
    lam0[1] = lam0[0]
    m = linalg.symmetrize(gamma @ omega @ gamma.T + (gamma0 * lam0) @ gamma0.T)
    beta = gamma @ rng.uniform(0.5, 1.5, (u, u))
    u_mat = linalg.symmetrize(beta @ beta.T)
    oracle = simulate.oracle_envelope(m, u_mat)
    hypothesis.assume(oracle.shape[1] == u)
    for algo in ALGOS:
        fit = solve(algo, m, u_mat, u)
        assert linalg.subspace_distance(fit.basis, oracle) < 1e-6, algo


@PROPERTY
@hypothesis.given(d=st.integers(1, 6), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_dimension_edges(d, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    m = linalg.symmetrize(a @ a.T + 0.5 * np.eye(d))
    b = rng.standard_normal((d, min(rank, d)))
    u_mat = linalg.symmetrize(b @ b.T)
    pair = ObjectivePair.from_m_u(m, u_mat)
    for u in sorted({max(1, d - 1), d}):
        for algo in ALGOS:
            fit = solve(algo, m, u_mat, u)
            assert fit.basis.shape == (d, u), algo
            linalg.check_orthonormal(fit.basis, tol=1e-10)
            assert np.isfinite(j_value(pair, fit.basis)), algo


@PROPERTY
@hypothesis.given(
    p=st.integers(1, 3), r=st.integers(2, 5), u=st.integers(1, 5), seed=st.integers(0, 2**32 - 1)
)
def test_near_singular_conditional_covariance_is_ridged(p, r, u, seed):
    # the last response is an exact linear function of the predictors, so
    # S_{Y|X} is singular up to rounding and the estimator must ridge it
    u = min(u, r)
    rng = np.random.default_rng(seed)
    n = 40
    x = rng.standard_normal((n, p))
    y = 1.0 + x @ rng.standard_normal((p, r)) + rng.standard_normal((n, r))
    y[:, -1] = 2.0 + x @ rng.standard_normal(p)
    data = estimators.RegressionData(x, y)
    for algo in ALGOS:
        fit = estimators.response_envelope(data, u, algo)
        assert "Ridged" in fit.fit.diagnostics, algo
        assert np.isfinite(fit.objective), algo


@PROPERTY
@hypothesis.given(
    d=st.integers(2, 8), u=st.integers(1, 7), n=st.integers(30, 300), seed=st.integers(0, 2**31)
)
def test_warm_refinement_never_above_the_sequential_fit(d, u, n, seed):
    u = min(u, d - 1)
    inst = simulate.generate_instance(d, u, seed)
    kit = estimators.covariance_kit(simulate.sample_data(inst, n, seed + 1))
    m, u_mat = kit.s_y_given_x, linalg.symmetrize(kit.s_y - kit.s_y_given_x)
    pair = ObjectivePair.from_m_u(m, u_mat)
    sequential = j_value(pair, solve("onedim", m, u_mat, u).basis)
    assert j_value(pair, solve("fg-warm", m, u_mat, u).basis) <= sequential + 1e-10
