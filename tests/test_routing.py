"""Routing that never raises.

diagonalize3 picks its branch from compute_pq's classification alone.  The
squared cosines v, w and the double-root s are clamped to [0, 1] when
rounding puts them past an endpoint, and the Jacobi correction repairs
the Generic result a noisy quotient gives.  The reproducers below raised
or were rerouted to DoubleRoot, averaging two distinct eigenvalues, while
an excursion past a clamp slack raised; the property checks that no
finite input in a wide range raises.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdiag import Branch, SymMat3, diagonalize3

REPRODUCERS = {
    # conjugated((1.1802186833398276, 1.5707963264124516,
    # -0.5403101804283121), (3.75614707757316, 2.3063979205545193,
    # 3.637553966954669)): eigenvalues 0.12 apart, v = 1.6e-12 just above
    # V_ZERO_EPS and a noisy w = 1.008; rerouted, residual 1.5e-2
    "separated-spectrum": (3.637553966954669, 2.823312857088202,
                           3.2392321410394778, -1.868416023262404e-10,
                           -1.875729036313013e-10, -0.694403299155778),
    # a g = 1e-3 near-double matrix, rerouted, residual 1.2e-4
    "near-double": (2.745982163172557, 4.207897607975181, 3.140105309009707,
                    0.2701192262718364, 0.14608790284171325,
                    0.8162368277531025),
    # nearly block-diagonal; the reroute's s = 1.0000224 raised
    "near-block": (0.19623688978344767, 0.7436494398075213,
                   0.19628682014005494, 0.0037279481768126566,
                   -1.3663238669910483e-11, 6.968798725142049e-10),
}


def dense(row):
    a11, a22, a33, a12, a13, a23 = row
    return np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_reproducer_ends_generic_and_accurate(name):
    row = REPRODUCERS[name]
    dec = diagonalize3(SymMat3(*row))
    assert dec.branch is Branch.GENERIC
    assert dec.report.recon_residual <= 1e-12
    want = np.linalg.eigvalsh(dense(row))
    got = sorted((dec.lambda1, dec.lambda2, dec.lambda3))
    norm2 = max(abs(want[0]), abs(want[-1]))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10 * norm2


BOUND = 1e50
ENTRIES = st.one_of(
    st.floats(-BOUND, BOUND),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324)))


@st.composite
def matrices(draw):
    """Six entries of magnitude <= 1e50, as drawn, nearly block-diagonal
    (a12, a13 times 10^-k), with nearly equal diagonal entries, or graded
    (a_ij = x_ij * 10^(e_i + e_j), x_ij in [-1, 1])."""
    shape = draw(st.sampled_from(("plain", "near-block",
                                  "near-equal-diagonal", "graded")))
    if shape == "graded":
        e = [draw(st.integers(-25, 25)) for _ in range(3)]
        x = [draw(st.floats(-1.0, 1.0)) for _ in range(6)]
        return tuple(v * 10.0 ** (e[i] + e[j]) for v, (i, j) in zip(
            x, ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))))
    row = [draw(ENTRIES) for _ in range(6)]
    if shape == "near-block":
        k = draw(st.integers(1, 300))
        row[3] *= 10.0 ** -k
        row[4] *= 10.0 ** -k
    elif shape == "near-equal-diagonal":
        row[1] = row[0] * (1.0 - draw(st.floats(0.0, 1e-6)))
        row[2] = row[0] * (1.0 - draw(st.floats(0.0, 1e-6)))
    return tuple(row)


@settings(derandomize=True, max_examples=2000, deadline=None,
          database=None)
@given(matrices())
@example((3.5492451012449692e16, 3.54924865049007e16, 3.5492451012449692e16,
          5e-324, 1.0, 5e-324))
def test_no_finite_input_raises(row):
    assert all(abs(x) <= BOUND for x in row)
    dec = diagonalize3(SymMat3(*row))
    if dec.branch in (Branch.GENERIC, Branch.ALREADY_DIAGONAL_2D):
        assert dec.report.recon_residual <= 1e-12, row
