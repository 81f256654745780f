"""Shared fixtures: the two heavy population sweeps are computed once per
session because both the consistency tests and the acceptance gate read
them.  The terminal summary prints one line per acceptance criterion."""

import numpy as np
import pytest

from envest import onedim, simulate
from envest.errors import NoConvergence

ACCEPTANCE_RESULTS = {}


def record_criterion(number, passed, detail=""):
    """Remember a criterion outcome for the end-of-run summary."""
    ACCEPTANCE_RESULTS[number] = (passed, detail)
    return passed


def cholesky_raises(a):
    """Whether np.linalg.cholesky rejects the matrix a."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return True
    return False


def stuck(m, message="stuck"):
    """The NoConvergence of an onedim.fit of m whose first direction fails:
    step_index 0 and, in partial, the fit of no directions."""
    partial = onedim.EnvelopeFit(np.zeros((m.shape[0], 0)), [], [], 0.0)
    return NoConvergence(message, step_index=0, partial=partial)


def route_fits(monkeypatch, outcome):
    """Pass each problem of every sequential fit through outcome(m, u, result).

    Every onedim fit, made alone by onedim.fit or with others, is made by
    onedim.fit_many, which gives one EnvelopeFit or package error per
    ObjectivePair; outcome sees them in problem order, with the pair's M,
    and returns the one to use.
    """
    real = onedim.fit_many

    def fit_many(pairs, u, settings=None):
        results = real(pairs, u, settings)
        return [outcome(pair.m, u, result) for pair, result in zip(pairs, results)]

    monkeypatch.setattr(onedim, "fit_many", fit_many)


@pytest.fixture(scope="session")
def population_sweep_small():
    # 100 exact (M, U) pairs at (d, u) = (10, 3), sequential solver
    return simulate.population_experiment(10, 3, 100, ("onedim",), seed=1000)


@pytest.fixture(scope="session")
def population_sweep_medium():
    # 100 exact pairs at (30, 10); both solvers so timings are comparable
    return simulate.population_experiment(30, 10, 100, ("onedim", "fg"), seed=2000)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        line = f"[criterion {number}] {verdict}"
        if detail:
            line += f" {detail}"
        terminalreporter.write_line(line)
