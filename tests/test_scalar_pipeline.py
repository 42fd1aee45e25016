"""The 3x3 solver on plain Python floats.

SymMat3 stores its components as Python floats, compose_rotation writes
rot3x . rot3y . rot3z out in plain floats, and diagonalize3 computes its
residual from the six unique entries.  These tests pin that each of those
gives the numbers of the numpy forms it replaces, and that the
self-reported residual describes the d actually returned.  The Jacobi
correction of Generic and AlreadyDiagonal2D results (_polish_angles) is
pinned by its outcomes: residuals on near-block and near-pi/2 corpora, and
reproducers of wrapped angles.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from symdiag import (
    Angles3,
    Branch,
    SymMat2,
    SymMat3,
    compose_rotation,
    diagonalize2,
    diagonalize3,
    residuals,
    rot2,
    rot3x,
    rot3y,
    rot3z,
)
from symdiag.core import rotation_entries
import symdiag.eig3
from symdiag.eig3 import _polish_angles

N_ROWS = 10_000
# A gap-1e-6 matrix whose corrected phi1 lies across +-pi/2 from the start.
POLISH_WRAP = (1.6497928216124795, 0.7674019634813695, 0.21929287918095133,
               -0.8934358682923136, -0.10124845584288253, 0.06292232848062265)


def uniform_rows(n, seed):
    """Entries uniform in [-1, 1], as criterion 1 draws them."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 6))


def clustered_rows(n, seed, gaps=(0.0, 1e-9, 1e-6, 1e-3)):
    """Q . diag(lam, lam + g, lam + 2) . Q^T as criterion 4 builds them, with
    g over an exact double root and the near-boundary gaps."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 6))
    for i in range(n):
        lam = rng.uniform(-3.0, 3.0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * np.array([lam, lam + gaps[i % len(gaps)], lam + 2.0])) @ q.T
        m = 0.5 * (m + m.T)
        rows[i] = (m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2])
    return rows


@pytest.fixture(scope="module")
def rows():
    return np.vstack([uniform_rows(N_ROWS, 201), clustered_rows(N_ROWS, 202),
                      np.array([POLISH_WRAP])])


def test_components_stored_as_python_floats():
    row = uniform_rows(1, 203)[0]
    a = SymMat3(*row)
    assert all(type(x) is float for x in
               (a.a11, a.a22, a.a33, a.a12, a.a13, a.a23))
    b = SymMat2(*row[:3])
    assert all(type(x) is float for x in (b.a11, b.a22, b.a12))
    assert type(SymMat3(1, 2, 3, 0, 0, 0).a11) is float


def test_numpy_scalar_and_float_inputs_bitwise_equal(rows):
    for row in rows:
        x = diagonalize3(SymMat3(*row))              # numpy float64 scalars
        y = diagonalize3(SymMat3(*row.tolist()))     # Python floats
        assert np.array(x.lambdas).tobytes() == np.array(y.lambdas).tobytes()
        assert (np.array(x.angles.as_tuple()).tobytes()
                == np.array(y.angles.as_tuple()).tobytes())
        assert x.d.tobytes() == y.d.tobytes()


def test_d_bytes_equal_the_array_constructors():
    """The solvers hand D over as floats; the array d builds from them is
    compose_rotation(angles) or rot2(phi), to the byte."""
    rng = np.random.default_rng(205)
    rows3 = np.vstack([uniform_rows(2000, 206),
                       clustered_rows(1500, 207, gaps=(0.0, 1e-9, 1.0)),
                       rng.integers(-3, 4, (2000, 6)).astype(float)])
    for row in rows3:
        dec = diagonalize3(SymMat3(*row))
        assert dec.d.dtype == np.float64 and dec.d.shape == (3, 3)
        assert dec.d.tobytes() == compose_rotation(dec.angles).tobytes(), row
    rows2 = np.vstack([uniform_rows(2000, 208)[:, :3],
                       rng.integers(-3, 4, (2000, 3)).astype(float)])
    for row in rows2:
        dec = diagonalize2(SymMat2(*row))
        assert dec.d.dtype == np.float64 and dec.d.shape == (2, 2)
        assert dec.d.tobytes() == rot2(dec.phi).tobytes(), row


SPECIAL_ANGLES = (0.0, -0.0, 1e-300, -5e-324, 0.3, -0.3, 0.5 * math.pi,
                  -0.5 * math.pi, math.pi, -math.pi, 2.5, -2.5, 7.0)
# In these grid triples one entry sums +0 and a negative product too small
# for a subnormal.  An FMA rounds that exact sum to -0; plain floats round
# the product to -0 first, and -0 + 0 is +0.  So the entry's sign differs
# from numpy's under FMA kernels such as SkylakeX's and agrees under others.
SUBNORMAL_ZERO_TRIPLES = (
    (0.5 * math.pi, 0.0, -5e-324),
    (0.5 * math.pi, -0.0, -5e-324),
    (math.pi, 0.0, -5e-324),
    (math.pi, -0.0, -5e-324),
    (2.5, -5e-324, -5e-324),
    (-2.5, -5e-324, -5e-324),
)


@pytest.fixture(scope="module")
def angle_triples():
    """The special-value grid, then uniform triples in [-2 pi, 2 pi]."""
    triples = list(itertools.product(SPECIAL_ANGLES, repeat=3))
    rng = np.random.default_rng(204)
    return triples + [tuple(t) for t in rng.uniform(
        -2.0 * math.pi, 2.0 * math.pi, (N_ROWS, 3)).tolist()]


def float_product(*factors):
    """The matrix product of the factors, left to right, each entry summed
    left to right over k in plain floats, and + 0.0 at the end."""
    m = factors[0].tolist()
    for f in factors[1:]:
        f = f.tolist()
        m = [[sum(m[i][k] * f[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    return np.array(m) + 0.0


def test_compose_rotation_bitwise_equals_the_float_product(angle_triples):
    for p1, p2, p3 in angle_triples:
        want = float_product(rot3x(p1), rot3y(p2), rot3z(p3))
        # tobytes distinguishes +0 from -0
        assert compose_rotation((p1, p2, p3)).tobytes() == want.tobytes()


def test_compose_rotation_within_4e16_of_matrix_product(angle_triples):
    for p1, p2, p3 in angle_triples:
        want = rot3x(p1) @ rot3y(p2) @ rot3z(p3)
        assert np.max(np.abs(compose_rotation((p1, p2, p3)) - want)) <= 4e-16


def test_compose_rotation_signed_zeros_match_matrix_product(angle_triples):
    differ = set()
    for p in angle_triples:
        want = rot3x(p[0]) @ rot3y(p[1]) @ rot3z(p[2])
        got = compose_rotation(p)
        zero = want == 0.0
        if (np.signbit(got[zero]) != np.signbit(want[zero])).any():
            differ.add(p)
    assert differ <= set(SUBNORMAL_ZERO_TRIPLES), differ - set(
        SUBNORMAL_ZERO_TRIPLES)


def test_reported_residual_matches_oracle(rows):
    # the report is relative to ||A||_F, the oracle to max(1, ||A||_F); no
    # row here has its trace shifted off
    for row in rows:
        a = SymMat3(*row)
        dec = diagonalize3(a)
        recon, _, _ = residuals(a, dec)
        rel = dec.report.recon_residual * a.fro_norm() / a.scale()
        assert abs(rel - recon) <= 1e-15


def test_polished_phi1_wrap_keeps_the_rotation():
    a = SymMat3(*POLISH_WRAP)
    dec = diagonalize3(a)
    recon, _, _ = residuals(a, dec)
    assert recon <= 1e-15
    assert abs(dec.report.recon_residual - recon) <= 1e-15


def test_polish_across_the_range_boundary_keeps_the_rotation():
    # the matrix's angles lie just past +-pi/2 in phi1 or phi2, the start
    # just inside: the correction reads angles back across, and the triple
    # it returns must be wrapped into range without changing the
    # reconstruction
    lambdas = (3.0, -1.0, 0.5)
    eps = 1e-4
    h = 0.5 * math.pi
    for true, start in (((h + eps, 0.4, -0.2), (h - eps, 0.4, -0.2)),
                        ((-h - eps, -0.3, 0.7), (-h + eps, -0.3, 0.7)),
                        ((0.3, h + eps, 0.6), (0.3, h - eps, 0.6))):
        d0 = compose_rotation(true)
        a_arr = (d0 * np.array(lambdas)) @ d0.T
        angles, res, lams = _polish_angles(SymMat3.from_array(a_arr),
                                           lambdas, Angles3(*start), 4.0)
        assert type(angles) is Angles3
        d = compose_rotation(angles)
        assert res <= 1e-12
        assert np.max(np.abs(np.array(lams) - lambdas)) <= 1e-14
        assert np.linalg.norm((d * np.array(lams)) @ d.T - a_arr) <= 1e-12


@pytest.mark.parametrize("x", [1e308, 1e200])
def test_polish_returns_the_start_on_non_finite_values(x):
    # B = D^T A D (at 1e308) or the squared residual (at 1e200) overflows:
    # nothing raises, and the start comes back with an infinite residual,
    # which diagonalize3 does not keep
    a = SymMat3(x, -x, x, x, -x, x)
    start, lambdas = Angles3(0.3, -0.2, 0.1), (1.0, 2.0, 3.0)
    assert _polish_angles(a, lambdas, start, x) == (
        start, math.inf, lambdas)


def near_block_rows(n, seed):
    """Uniform rows with a12 and a13 both scaled by 10^-k, k in 4..16."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (n, 6))
    rows[:, 3:5] *= 10.0 ** -rng.integers(4, 17, (n, 1))
    return rows


def near_half_pi_rows(n, seed):
    """D . diag(lambdas) . D^T for D = compose_rotation of phi2 =
    +-(pi/2 - 10^-k), k in 4..16, phi1 and phi3 uniform in [-1.5, 1.5] and
    eigenvalues uniform in [-3, 3]."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 6))
    for i in range(n):
        phi2 = rng.choice((-1.0, 1.0)) * (0.5 * math.pi
                                          - 10.0 ** -rng.integers(4, 17))
        d = compose_rotation((rng.uniform(-1.5, 1.5), phi2,
                              rng.uniform(-1.5, 1.5)))
        m = (d * rng.uniform(-3.0, 3.0, 3)) @ d.T
        rows[i] = (m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2])
    return rows


@pytest.mark.parametrize("corpus", [near_block_rows, near_half_pi_rows])
def test_correction_leaves_no_generic_result_above_1e12(corpus, monkeypatch):
    # arccos(sqrt(.)) loses digits as phi2 or phi3 nears 0 or pi/2; the
    # Jacobi correction recovers them, also at phi2 = +-pi/2 where the angle
    # parametrization is singular
    calls = []

    def spy(*args):
        calls.append(args)
        return _polish_angles(*args)

    monkeypatch.setattr(symdiag.eig3, "_polish_angles", spy)
    generic = 0
    for row in corpus(2000, 213):
        # no row may raise
        dec = diagonalize3(SymMat3(*row))
        if dec.branch in (Branch.GENERIC, Branch.ALREADY_DIAGONAL_2D):
            generic += 1
            assert dec.report.recon_residual <= 1e-12, row
    assert generic >= 1900 and len(calls) >= 500, (generic, len(calls))


def test_rotation_rows_match_compose_rotation():
    # the polish's D is the D diagonalize3 returns, to the bit
    rng = np.random.default_rng(205)
    for p in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (N_ROWS, 3)).tolist():
        rows = np.array(rotation_entries(*p)).reshape(3, 3)
        assert rows.tobytes() == compose_rotation(p).tobytes()


def triple_root_rows(n, seed):
    """Q . diag(lam, lam + e, lam + 2e) . Q^T with e = 1e-12 * scale: inside
    the triple-root threshold, with a residual of about 1.4e-12."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, 6))
    for i in range(n):
        lam = rng.uniform(-3.0, 3.0)
        e = 1e-12 * max(1.0, math.sqrt(3.0) * abs(lam))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * np.array([lam, lam + e, lam + 2.0 * e])) @ q.T
        m = 0.5 * (m + m.T)
        rows[i] = (m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2])
    return rows


def test_polish_runs_on_generic_results_only(monkeypatch):
    # a DoubleRoot result leaves the correction nothing to do, and no
    # rotation lowers a TripleRoot residual (D . lam I . D^T = lam I), so
    # neither is polished
    calls = []

    def spy(*args):
        calls.append(args)
        return _polish_angles(*args)

    monkeypatch.setattr(symdiag.eig3, "_polish_angles", spy)
    gaps = (0.0, 1e-9)
    bounds = {0.0: 1e-8, 1e-9: 1e-6}   # criterion 4 (a) and (c)
    for i, row in enumerate(clustered_rows(4000, 211, gaps)):
        dec = diagonalize3(SymMat3(*row))
        assert dec.branch is Branch.DOUBLE_ROOT
        assert dec.report.recon_residual <= bounds[gaps[i % 2]]
    residual_triples = 0
    for row in triple_root_rows(1000, 212):
        dec = diagonalize3(SymMat3(*row))
        if dec.branch is Branch.TRIPLE_ROOT:
            residual_triples += dec.report.recon_residual > 1e-12
    assert residual_triples >= 100
    assert not calls

    dec = diagonalize3(SymMat3(*POLISH_WRAP))
    assert dec.branch is Branch.GENERIC
    assert len(calls) >= 1
    assert dec.report.recon_residual <= 1e-15


def test_near_double_within_criterion_4c_bounds():
    for row in clustered_rows(N_ROWS, 210, gaps=(1e-6, 1e-3)):
        a = SymMat3(*row)
        dec = diagonalize3(a)
        assert dec.report.recon_residual <= 1e-6
        err = np.sort(dec.lambdas) - np.linalg.eigvalsh(a.to_array())
        assert np.max(np.abs(err)) <= 1e-6


# The rows of tests/data/integer_input.jsonl whose Generic residual exceeds
# 1e-12, with the angles diagonalize3 gave them before the Jacobi
# correction, when the Gauss-Newton polish served them.  int289 has
# phi2 = pi/2 exactly: there phi1 and phi3 are not separately determined,
# and a read-back of phi1 from rounding-level (d23, d33) would turn its
# angles into another triple with the same D.
INTEGER_FIRING_ANGLES = {
    "int70": (0.7853981633974483, -1.093138017732642, 5.942401331367776e-17),
    "int91": (-0.7853981633974483, -4.9703054583741215e-17,
              -0.2805702130852095),
    "int93": (-6.03851259938313e-31, 1.1780972450961724,
              5.591215369799194e-31),
    "int147": (-0.7853981633974483, 0.7853981633974486,
               3.705769144237564e-22),
    "int221": (-0.4636476090008061, -4.6465398528675985e-18,
               -0.9956653310394308),
    "int256": (-6.400828170170978e-31, 1.2767950250211129,
               6.132642425415056e-31),
    "int289": (1.2767950250211129, 1.5707963267948966,
               -3.2068614139920356e-17),
}


def test_integer_rows_keep_their_angles_through_the_correction(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return _polish_angles(*args)

    monkeypatch.setattr(symdiag.eig3, "_polish_angles", spy)
    path = Path(__file__).parent / "data" / "integer_input.jsonl"
    fired = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        del calls[:]
        dec = diagonalize3(SymMat3(rec["a11"], rec["a22"], rec["a33"],
                                   rec["a12"], rec["a13"], rec["a23"]))
        if calls:
            fired[rec["id"]] = dec
    assert sorted(fired) == sorted(INTEGER_FIRING_ANGLES)
    for key, dec in fired.items():
        assert dec.report.recon_residual <= 1e-15, key
        want = INTEGER_FIRING_ANGLES[key]
        assert max(abs(x - y) for x, y in zip(dec.angles, want)) <= 1e-12, (
            key, dec.angles)
