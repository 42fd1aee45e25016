"""The 3x3 solver on plain Python floats.

SymMat3 stores its components as Python floats, compose_rotation writes
rot3x . rot3y . rot3z out in plain floats, diagonalize3 computes its
residual from the six unique entries, and the Gauss-Newton polish runs on
floats.  These tests pin that each of those gives the numbers of the numpy
forms it replaces (D and the polish: within rounding), and that the
self-reported residual describes the d actually returned.
"""

import itertools
import math

import numpy as np
import pytest

from symdiag import (
    Angles3,
    Branch,
    SymMat2,
    SymMat3,
    compose_rotation,
    diagonalize3,
    residuals,
    rot3x,
    rot3y,
    rot3z,
)
from symdiag.core import rotation_entries
import symdiag.eig3
from symdiag.eig3 import (
    _jacobian6,
    _polish_angles,
    _solve_spd3,
)

N_ROWS = 10_000
# A gap-1e-6 matrix whose Gauss-Newton polish steps phi1 across +-pi/2.
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
    for row in rows:
        a = SymMat3(*row)
        dec = diagonalize3(a)
        recon, _, _ = residuals(a, dec)
        assert abs(dec.report.recon_residual - recon) <= 1e-15


def test_polished_phi1_wrap_keeps_the_rotation():
    a = SymMat3(*POLISH_WRAP)
    dec = diagonalize3(a)
    recon, _, _ = residuals(a, dec)
    assert recon <= 1e-10
    assert abs(dec.report.recon_residual - recon) <= 1e-15


def test_polish_across_the_range_boundary_keeps_the_rotation():
    # the matrix's angles lie just past +-pi/2 in phi1 or phi2, the start
    # just inside: Gauss-Newton steps across, and the triple it returns
    # must be wrapped into range without changing the reconstruction
    lambdas = (3.0, -1.0, 0.5)
    eps = 1e-4
    h = 0.5 * math.pi
    for true, start in (((h + eps, 0.4, -0.2), (h - eps, 0.4, -0.2)),
                        ((-h - eps, -0.3, 0.7), (-h + eps, -0.3, 0.7)),
                        ((0.3, h + eps, 0.6), (0.3, h - eps, 0.6))):
        d0 = compose_rotation(true)
        a_arr = (d0 * np.array(lambdas)) @ d0.T
        angles, res = _polish_angles(SymMat3.from_array(a_arr), lambdas,
                                     Angles3(*start), 4.0)
        d = compose_rotation(angles)
        assert res <= 1e-12
        assert np.linalg.norm((d * np.array(lambdas)) @ d.T - a_arr) <= 1e-12


# Rotation generators (skew matrices) about the fixed basis axes.
GEN1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
GEN2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
GEN3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
UNIQUE = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def numpy_generators(phi1, phi2):
    """The rotated generators skew(omega_k) as matrix products."""
    r1 = rot3x(phi1)
    r12 = r1 @ rot3y(phi2)
    return GEN1, r1 @ GEN2 @ r1.T, r12 @ GEN3 @ r12.T


def numpy_polish(a_arr, lambdas, angles, scale):
    """The Gauss-Newton polish as it was written on numpy 3x3 arrays:
    nine-entry Jacobian columns, np.linalg.solve and np.linalg.norm."""
    lam = np.asarray(lambdas, dtype=float)
    phis = np.array(angles.as_tuple())
    d = compose_rotation(tuple(phis))
    rec = (d * lam) @ d.T
    best = float(np.linalg.norm(rec - a_arr))
    damp = (1e-14 * scale * scale) * np.eye(3)
    for _ in range(2):
        j = np.column_stack([(g @ rec - rec @ g).reshape(9)
                             for g in numpy_generators(phis[0], phis[1])])
        resid = (rec - a_arr).reshape(9)
        phis = phis - np.linalg.solve(j.T @ j + damp, j.T @ resid)
        d = compose_rotation(tuple(phis))
        rec = (d * lam) @ d.T
        best = min(best, float(np.linalg.norm(rec - a_arr)))
    return best


def test_rotation_rows_match_compose_rotation():
    # the polish's D is the D diagonalize3 returns, to the bit
    rng = np.random.default_rng(205)
    for p in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (N_ROWS, 3)).tolist():
        rows = np.array(rotation_entries(*p)).reshape(3, 3)
        assert rows.tobytes() == compose_rotation(p).tobytes()


def test_jacobian_columns_match_numpy_commutators():
    rng = np.random.default_rng(206)
    for _ in range(2000):
        p = rng.uniform(-math.pi, math.pi, 3).tolist()
        lam = rng.uniform(-3.0, 3.0, 3)
        d = compose_rotation(p)
        rec = (d * lam) @ d.T
        rec = 0.5 * (rec + rec.T)
        scale = max(1.0, float(np.linalg.norm(rec)))
        cols = _jacobian6(p[0], p[1], [rec[ij] for ij in UNIQUE])
        for col, g in zip(cols, numpy_generators(p[0], p[1])):
            ref = g @ rec - rec @ g
            assert max(abs(c - ref[ij]) for c, ij in zip(col, UNIQUE)) \
                <= 1e-14 * scale**2


def test_spd_solve():
    rng = np.random.default_rng(208)
    for _ in range(2000):
        j = rng.standard_normal((6, 3))
        m = j.T @ j + 1e-3 * np.eye(3)
        b = rng.standard_normal(3)
        x = _solve_spd3(m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2],
                        m[2, 2], *b)
        np.testing.assert_allclose(x, np.linalg.solve(m, b),
                                   rtol=1e-9, atol=1e-9)
    # a pivot that is not positive, or a step that is not finite, ends the
    # polish instead of raising
    assert _solve_spd3(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0) is None
    assert _solve_spd3(1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0) is None
    assert _solve_spd3(1.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0, 1.0, 1.0) is None
    assert _solve_spd3(1.0, 0.0, 0.0, 1.0, 0.0, 1.0,
                       math.inf, 1.0, 1.0) is None
    assert _solve_spd3(math.nan, 0.0, 0.0, 1.0, 0.0, 1.0,
                       1.0, 1.0, 1.0) is None


def double_root_polish_args(rows):
    """(a, lambdas, angles, scale) for each DoubleRoot result on ``rows``
    whose relative residual exceeds 1e-12: the repeated pair from
    _double_root_lambdas and degenerate_double's angles, which diagonalize3
    returns unpolished."""
    args = []
    for row in rows:
        a = SymMat3(*row)
        dec = diagonalize3(a)
        if (dec.branch is Branch.DOUBLE_ROOT
                and dec.report.recon_residual > 1e-12):
            args.append((a, dec.lambdas, dec.angles, a.scale()))
    return args


def test_float_polish_no_worse_than_numpy_polish():
    calls = double_root_polish_args(
        clustered_rows(12_000, 209, gaps=(0.0, 1e-9)))
    assert len(calls) >= 5000
    for a, lambdas, angles, scale in calls:
        _, res = _polish_angles(a, lambdas, angles, scale)
        ref = numpy_polish(a.to_array(), lambdas, angles, scale)
        assert res <= 1.05 * ref + 1e-15 * scale


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
    # no rotation lowers a DoubleRoot residual (set by the averaged pair)
    # or a TripleRoot one (D . lam I . D^T = lam I), so neither is polished
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
    assert dec.report.recon_residual <= 1e-10


def test_near_double_within_criterion_4c_bounds():
    for row in clustered_rows(N_ROWS, 210, gaps=(1e-6, 1e-3)):
        a = SymMat3(*row)
        dec = diagonalize3(a)
        assert dec.report.recon_residual <= 1e-6
        err = np.sort(dec.lambdas) - np.linalg.eigvalsh(a.to_array())
        assert np.max(np.abs(err)) <= 1e-6
