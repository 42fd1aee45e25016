"""Routing that never raises, on a normalized matrix.

diagonalize3 picks its branch from compute_pq's classification alone, on
a matrix it has scaled exactly by a power of two (and, when the trace
dominates, shifted by trace/3) so that the classification is relative.
The squared cosines v and w are clamped to [0, 1] when rounding puts them
past an endpoint, and the Jacobi correction repairs the Generic result a
noisy quotient gives.  The reproducers below raised or were rerouted to
DoubleRoot, giving two distinct eigenvalues one repeated value, while an
excursion past a clamp slack raised; the normalized reproducers were
misclassified, or overflowed, before the normalization.  The property
checks over the whole double range that no finite input raises, that
every result but a TripleRoot has a residual of at most 1e-12 and that
every result has accurate eigenvalues.
"""

import math

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


def assert_eigenvalues_accurate(row, dec):
    """Eigenvalues within 1e-10 ||A||_2 of LAPACK's, both taken on A / 2^e
    with 2^e above its largest |entry|: exact, and no square overflows.
    An eigenvalue in the subnormal range carries fewer bits, so the
    rounding of the exact one to a double, 2^-1075 (2^(-1075 - e) on
    A / 2^e), is allowed on top.  The reference is eigh's: eigvalsh's
    root-free QR squares the off-diagonal, and on TINY_SQUARES, where that
    square is subnormal, it is 1e-8 off."""
    e = math.frexp(max(abs(x) for x in row))[1]
    want = np.linalg.eigh(dense([math.ldexp(x, -e) for x in row]))[0]
    got = sorted(math.ldexp(x, -e) for x in dec.lambdas)
    norm2 = max(abs(want[0]), abs(want[-1]))
    tol = 1e-10 * norm2 + math.ldexp(1.0, -1075 - e)
    assert max(abs(g - w) for g, w in zip(got, want)) <= tol, (
        row, dec.branch)


NORMALIZED_REPRODUCERS = {
    # gaps 0.007 and 0.0098 against a mean of 2.77: the max(1, ||A||_F)
    # double-root threshold called it DoubleRoot, eigenvalue error 1.4e-3
    "mean-dominated": (2.7763296841185916, 2.7689457485848834,
                       2.759939963001698, 3.865223933634611e-18,
                       -1.320598838334345e-17, -0.001923035538955658),
    # a double root 63 and a third eigenvalue 5.6e-5 below it, whose cubic
    # the absolute thresholds misjudged: eigenvalue error 8.2e-10 ||A||_2
    "diagonal-double": (63.0, 63.0, 62.999943858046386, 0.0, 0.0, 0.0),
    # a row of U[-1, 1] entries times 1e200: a ** power overflowed
    "huge": (-2.7450000000000003e+199, 4.363e+199, 8.73e+198, -6.152e+199,
             3.3489999999999997e+199, -1.507e+199),
    # the same row times 1e-200: a TripleRoot, eigenvalue error 0.91
    "tiny": (-2.745e-201, 4.363e-201, 8.73e-202, -6.152e-201,
             3.3489999999999994e-201, -1.507e-201),
    # 1234.5 I + 10^-4 U: a DoubleRoot, eigenvalue error 4.2e-7
    "mean-shift": (1234.5003, 1234.4998, 1234.5001, 0.0005, -0.0003, 0.0002),
}


@pytest.mark.parametrize("name", sorted(NORMALIZED_REPRODUCERS))
def test_normalized_reproducer_eigenvalues(name):
    row = NORMALIZED_REPRODUCERS[name]
    assert_eigenvalues_accurate(row, diagonalize3(SymMat3(*row)))


def test_eigenvalue_beyond_the_double_range_overflows():
    # the eigenvalues are 3e308, 0 and 0: no finite result exists
    with pytest.raises(OverflowError):
        diagonalize3(SymMat3(*(1e308,) * 6))


TINY_SQUARES = (1e-159, 0.0, 0.0, 0.0, 0.1, 1e-160)
# eigenvalues +-sqrt(2) 5e-324 and 0, which round to +-5e-324 and 0
SUBNORMAL_EIGENVALUES = (0.0, 0.0, 0.0, 0.0, 5e-324, 5e-324)
# ||A||_2 <= 3 max|a_ij| stays finite
BOUND = 1e307
ENTRIES = st.one_of(
    st.floats(-BOUND, BOUND),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324)))


@st.composite
def matrices(draw):
    """Six entries of magnitude <= 1e307, as drawn, nearly block-diagonal
    (a12, a13 times 10^-k), with nearly equal diagonal entries, graded
    (a_ij = x_ij * 10^(e_i + e_j), x_ij in [-1, 1]), tiny (U[-1, 1] times
    10^-k, k <= 320) or mean-shifted (c I + 10^-i U[-1, 1], |c| in
    [1, 1e4])."""
    shape = draw(st.sampled_from(("plain", "near-block",
                                  "near-equal-diagonal", "graded", "tiny",
                                  "mean-shift")))
    if shape in ("tiny", "mean-shift"):
        u = [draw(st.floats(-1.0, 1.0)) for _ in range(6)]
        if shape == "tiny":
            return tuple(x * 10.0 ** -draw(st.integers(1, 320)) for x in u)
        c = draw(st.floats(1.0, 1e4)) * draw(st.sampled_from((-1.0, 1.0)))
        f = 10.0 ** -draw(st.integers(1, 12))
        return tuple(c * (i < 3) + f * x for i, x in enumerate(u))
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
@example(TINY_SQUARES)
@example(SUBNORMAL_EIGENVALUES)
def test_no_finite_input_raises(row):
    assert all(abs(x) <= BOUND for x in row)
    dec = diagonalize3(SymMat3(*row))
    # a TripleRoot residual is the spread its one eigenvalue leaves out
    if dec.branch is not Branch.TRIPLE_ROOT:
        assert dec.report.recon_residual <= 1e-12, row
    assert_eigenvalues_accurate(row, dec)
