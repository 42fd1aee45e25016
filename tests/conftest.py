"""Shared helpers for the test suite."""

import re

import numpy as np

from symdiag import SymMat2, SymMat3, compose_rotation


def sym3(m):
    """SymMat3 from a dense array, symmetrizing rounding noise."""
    return SymMat3.from_array(m)


def random_sym3(rng):
    """One SymMat3 with components uniform in [-1, 1]."""
    return SymMat3(*rng.uniform(-1.0, 1.0, 6))


def random_sym2(rng):
    return SymMat2(*rng.uniform(-1.0, 1.0, 3))


def clustered_sym3(rng, gap):
    """Q . diag(lam, lam + gap, lam + 2) . Q^T as criterion 4 builds it."""
    lam = rng.uniform(-3.0, 3.0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return sym3((q * np.array([lam, lam + gap, lam + 2.0])) @ q.T)


def graded_rows(rng, k):
    """(k, 6) unique entries of G U G, U with entries in [-1, 1] and
    G = diag(1, 10^-j, 10^-2j), j in 2..8."""
    g = 10.0 ** -rng.integers(2, 9, k)
    gd = np.stack([np.ones(k), g, g * g], axis=1)
    return rng.uniform(-1.0, 1.0, (k, 6)) * np.concatenate(
        [gd * gd, gd[:, [0]] * gd[:, [1]], gd[:, [0]] * gd[:, [2]],
         gd[:, [1]] * gd[:, [2]]], axis=1)


# Components of structured rows: exact and signed zeros, repeated entries.
STRUCTURED_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0)


def structured_sym3(rng):
    """SymMat3 whose components are drawn from STRUCTURED_VALUES."""
    idx = rng.integers(0, len(STRUCTURED_VALUES), 6)
    return SymMat3(*(STRUCTURED_VALUES[i] for i in idx))


_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::.*test_(criterion_\d+\w*)", report.nodeid)
    if m and report.when == "call":
        _ACCEPTANCE_RESULTS[m.group(1)] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS.items()):
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{name.replace('_', ' ')}: {word}")


def conjugated(angles, lambdas):
    """compose_rotation(angles) . diag(lambdas) . (same)^T as a SymMat3.

    lambdas are placed on the diagonal in the given order; the solver
    reports eigenvalues ordered (largest, smallest, middle), so pass them
    that way when the recovered angles should match the constructing ones.
    """
    d = compose_rotation(angles)
    return sym3((d * np.asarray(lambdas, dtype=float)) @ d.T)
