"""The public API's one contract, generated from ``envest.__all__``.

Every function that ``envest`` exports, and the constructors
``ObjectivePair.from_m_u``, ``ObjectivePair.from_pair`` and
``RegressionData``, is called with valid arguments (``valid_calls``), and
then with each of its required arguments, and each of the optional ones
named in ``OPTIONAL``, replaced in turn by each value of ``MALFORMED``.
Such a call may succeed (``np.int64(2)`` is an integer, ``2.0`` a valid
tolerance), but what it raises must be an ``EnvestError``, and a value of
the wrong type, a string or a bare object, raises ``InvalidInput``.
"""

import inspect
import math

import numpy as np
import pytest

import envest
from envest import EnvestError, InvalidInput, ObjectivePair, RegressionData

MALFORMED = {
    "True": True, "nan": math.nan, "-1": -1, "10**30": 10**30, "'x'": "x", "None": None,
    "2.0": 2.0, "int64(2)": np.int64(2), "[[1.0]]": [[1.0]], "object()": object(),
}
# values no argument of the API takes, whatever it is
WRONG_TYPE = ("'x'", "object()")
OPTIONAL = ("settings", "start", "p1", "metric", "algo", "seed")
# counts of repeated work are not bounded: given 10**30 they start that much
# work, as asked, and would not return
UNBOUNDED = ("replications", "b")
CONSTRUCTORS = {
    "ObjectivePair.from_m_u": ObjectivePair.from_m_u,
    "ObjectivePair.from_pair": ObjectivePair.from_pair,
    "RegressionData": RegressionData,
}


def public_callables():
    """The functions of ``envest.__all__`` and the three constructors, by name."""
    out = {name: getattr(envest, name) for name in envest.__all__
           if inspect.isfunction(getattr(envest, name))}
    return {**out, **CONSTRUCTORS}


def valid_calls():
    """A valid keyword call of every public callable, on problems of d = 4."""
    inst = envest.generate_instance(4, 2, 0)
    m, u = inst.m, inst.u_mat
    data = envest.sample_data(inst, 20, 1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 2))
    xy = RegressionData(x, x @ rng.standard_normal((2, 4)) + rng.standard_normal((20, 4)))
    return {
        "constrained_mean_envelope": dict(y=data.y, u=1),
        "covariance_kit": dict(data=xy),
        "eigenvector_scan_start": dict(m_hat=m, u_hat=u, u=2),
        "fix_column_signs": dict(v=inst.gamma),
        "generate_instance": dict(d=4, u=2, seed=0),
        "grassmann_fit": dict(m_hat=m, u_hat=u, u=2, start=inst.gamma),
        "j_value": dict(pair=ObjectivePair.from_m_u(m, u), gamma=inst.gamma),
        "mean_envelope": dict(y=data.y, u=1),
        "onedim_fit": dict(m_hat=m, u_hat=u, u=2),
        "oracle_envelope": dict(m=m, u_mat=u),
        "orthonormal_complement": dict(g=inst.gamma),
        "orthonormalize": dict(a=x[:4]),
        "partial_envelope": dict(data=xy, p1=1, u=1),
        "population_experiment": dict(d=4, u=2, replications=1, algo_set=("onedim",)),
        "predictor_envelope": dict(data=xy, u=1),
        "project": dict(a=inst.gamma, metric=m),
        "residual_bootstrap": dict(data=xy, kind="partial", u=1, b=3, p1=1),
        "response_envelope": dict(data=xy, u=1),
        "sample_data": dict(instance=inst, n=20, seed=1),
        "sample_experiment": dict(d=4, u=2, n=20, replications=1, algo_set=("onedim",)),
        "select_dimension_bic": dict(data=xy, kind="partial", u_max=2, p1=1),
        "select_dimension_cv": dict(data=xy, kind="response", u_max=2, folds=3),
        "subspace_distance": dict(a=inst.gamma, b=inst.gamma[:, :1]),
        "symmetrize": dict(a=m),
        "ObjectivePair.from_m_u": dict(m=m, u=u),
        "ObjectivePair.from_pair": dict(m=m, m_plus_u=m + u),
        "RegressionData": dict(x=x, y=data.y),
    }


def replaced(fn):
    """The names of the arguments of fn that the contract replaces: its
    required parameters and the optional ones of ``OPTIONAL``."""
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params
            if p.default is inspect.Parameter.empty or p.name in OPTIONAL]


def escapes(name):
    """(calls made, the calls whose outcome breaks the contract)."""
    fn, call = public_callables()[name], valid_calls()[name]
    fn(**call)  # the valid call succeeds
    made, broken = 0, []
    for arg in replaced(fn):
        for label, value in MALFORMED.items():
            if label == "10**30" and arg in UNBOUNDED:
                continue
            made += 1
            try:
                fn(**{**call, arg: value})
            except EnvestError as exc:
                if label in WRONG_TYPE and not isinstance(exc, InvalidInput):
                    broken.append(f"{arg}={label}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # the contract's breach, reported below
                broken.append(f"{arg}={label}: {type(exc).__name__}: {exc}")
    return made, broken


def test_every_public_callable_has_a_valid_call():
    assert sorted(valid_calls()) == sorted(public_callables())


@pytest.mark.parametrize("name", sorted(public_callables()))
def test_a_malformed_argument_raises_only_a_package_error(name):
    made, broken = escapes(name)
    assert made, "no argument was replaced"
    assert not broken, "\n".join(broken)
