"""Angle recovery for 3x3: v/w quotients, sign resolution, degenerate branches."""

import itertools
import math

import numpy as np
import pytest

from symdiag import (
    Angles3,
    Branch,
    SymMat3,
    char_coeffs,
    compute_pq,
    compute_v,
    compute_w,
    compose_rotation,
    degenerate_double,
    diagonalize3,
    eigenvalues3,
    euler_angles,
    f_vectors,
    g_vectors,
    residuals,
    rot3x,
    rot3y,
    rot3z,
    wrapped_diff_mod_pi,
)
from symdiag import SolveReport, eig3
from symdiag.core import rotation_entries
from symdiag.eig3 import NEAR_TIE_EPS, TIE_EPS
from perfbench.workloads import clustered_chunk, near_double_chunk
from conftest import (clustered_sym3, conjugated, graded_rows, random_sym3,
                      structured_sym3, sym3)
import phi1_reference

DIAG321 = SymMat3(3.0, 2.0, 1.0, 0.0, 0.0, 0.0)


def solver_lambdas(a):
    c = char_coeffs(a)
    return eigenvalues3(c, compute_pq(c))


class TestComputeV:
    def test_already_diagonal(self):
        assert compute_v(DIAG321, solver_lambdas(DIAG321)) == pytest.approx(
            1.0, abs=1e-14)

    def test_conjugation_about_e2(self):
        # eigenvalues on the diagonal in solver order (largest, smallest, middle)
        a = conjugated((0.0, 0.7, 0.0), (3.0, 1.0, 2.0))
        v = compute_v(a, solver_lambdas(a))
        assert v == pytest.approx(math.cos(0.7) ** 2, abs=1e-12)

    def test_quarter_turn_gives_zero(self):
        a = conjugated((0.0, 0.5 * math.pi, 0.0), (3.0, 1.0, 2.0))
        assert compute_v(a, solver_lambdas(a)) == pytest.approx(0.0, abs=1e-12)


class TestComputeW:
    def test_already_diagonal(self):
        a = DIAG321
        lams = solver_lambdas(a)
        assert compute_w(a, lams, compute_v(a, lams)) == pytest.approx(
            1.0, abs=1e-14)

    def test_v_zero_forces_w_one(self):
        assert compute_w(DIAG321, solver_lambdas(DIAG321), 0.0) == 1.0

    def test_conjugation(self):
        a = conjugated((0.0, 0.5, 0.9), (3.0, 1.0, 2.0))
        lams = solver_lambdas(a)
        w = compute_w(a, lams, compute_v(a, lams))
        assert w == pytest.approx(math.cos(0.9) ** 2, abs=1e-11)


class TestFGVectors:
    def test_diagonal_matrix(self):
        f1, f2 = f_vectors(SymMat3(1.0, 5.0, 2.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(f1, [0.0, 0.0])
        np.testing.assert_allclose(f2, [3.0, 0.0])

    def test_direct_substitution(self):
        f1, f2 = f_vectors(SymMat3(0.0, 5.0, 1.0, 1.0, 2.0, 3.0))
        np.testing.assert_allclose(f1, [1.0, -2.0])
        np.testing.assert_allclose(f2, [4.0, -6.0])

    def test_g_at_zero_angles(self):
        g1, g2 = g_vectors((3.0, 1.0, 2.0), 0.0, 0.0, 1.0, 1.0)
        np.testing.assert_allclose(g1, [0.0, 0.0])
        np.testing.assert_allclose(g2, [-1.0, 0.0])  # (lambda2 - lambda3, 0)

    def test_norm_identities_on_conjugated_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            phis = rng.uniform(-1.4, 1.4, 3)
            lams = np.sort(rng.uniform(-4.0, 4.0, 3))
            if min(np.diff(lams)) < 0.1:
                continue
            a = conjugated(tuple(phis), (lams[2], lams[0], lams[1]))
            sl = solver_lambdas(a)
            v = compute_v(a, sl)
            w = compute_w(a, sl, v)
            f1, f2 = f_vectors(a)
            g1, g2 = g_vectors(sl, phis[1], phis[2], v, w)
            s = a.scale()
            assert abs(np.linalg.norm(f1) - np.linalg.norm(g1)) <= 1e-10 * s
            assert abs(np.linalg.norm(f2) - np.linalg.norm(g2)) <= 1e-10 * s


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


class TestGVectorSigns:
    def test_negated_angles_flip_the_odd_components(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            lams = tuple(rng.uniform(-4.0, 4.0, 3))
            phi2, phi3 = rng.uniform(-1.5, 1.5, 2)
            v, w = rng.uniform(0.0, 1.0, 2)
            g1, g2 = g_vectors(lams, phi2, phi3, v, w)
            h1, h2 = g_vectors(lams, -phi2, phi3, v, w)
            assert same_bits(h1, [g1[0], -g1[1]])
            assert same_bits(h2, [g2[0], -g2[1]])
            h1, h2 = g_vectors(lams, phi2, -phi3, v, w)
            assert same_bits(h1, [-g1[0], g1[1]])
            assert same_bits(h2, [g2[0], -g2[1]])


def signs_on(a, g, v, w):
    """resolve_signs on A and v, w (scale 1) with _g_components returning
    the hand-built g = (g1x, g1y, g2x, g2y) in place of its formula."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eig3, "_g_components", lambda *args: g)
        return eig3.resolve_signs(a, (3.0, 1.0, 2.0), v, w, 1.0)


def cos2(mag):
    """v (or w) = cos(mag)^2, whose magnitude in resolve_signs is
    math.acos(math.sqrt(v)), mag to rounding."""
    return math.cos(mag) ** 2


class TestSelectSigns:
    # f1 = (cos 0.3, sin 0.3) and f2 = (n2, 0) put psi1 at 0.3 and psi2 at
    # 0.  g1 = (x, t) with x = +-1 puts phi1 at atan(t) - 0.3 for (+, x)
    # and at pi - atan(t) - 0.3 for (+, -x); g2 = (1, 0) puts it at 0 for
    # both.  (+, x) therefore beats (+, -x) by 2 atan(t).

    def select(self, margin, winner_s3=1, n2=1.0):
        """resolve_signs' selected candidate, candidates and near_tie."""
        a = SymMat3(0.0, n2, 0.0, math.cos(0.3), -math.sin(0.3), 0.0)
        g = (float(winner_s3), math.tan(0.5 * margin), 1.0, 0.0)
        _, (s2, s3), candidates, _, _, near_tie = signs_on(
            a, g, cos2(0.4), cos2(0.7))
        # the twin rule negates both selected signs or neither
        return candidates[0 if s2 * s3 == 1 else 1], candidates, near_tie

    def test_better_combo_wins_either_way(self):
        for winner_s3 in (1, -1):
            sel, candidates, _ = self.select(1e-3, winner_s3)
            assert [c[:2] for c in candidates] == [(1, 1), (1, -1)]
            assert candidates[0][4] == pytest.approx(
                0.3 - winner_s3 * 0.5e-3, abs=1e-15)
            assert candidates[1][4] == pytest.approx(
                0.3 + winner_s3 * 0.5e-3, abs=1e-15)
            assert sel is candidates[0 if winner_s3 == 1 else 1]
            assert sel[:2] == (1, winner_s3)

    def test_tie_goes_to_the_first_combo(self):
        for margin in (0.0, 0.05 * TIE_EPS):
            for winner_s3 in (1, -1):
                sel, _, near_tie = self.select(margin, winner_s3)
                assert sel[:2] == (1, 1)
                assert not near_tie

    def test_near_tie_only_inside_the_window(self):
        for margin, expect in ((0.0, False), (0.05 * TIE_EPS, False),
                               (20.0 * TIE_EPS, True),
                               (0.5 * NEAR_TIE_EPS, True),
                               (2.0 * NEAR_TIE_EPS, False), (1e-3, False)):
            for winner_s3 in (1, -1):
                _, _, near_tie = self.select(margin, winner_s3)
                assert near_tie is expect, (margin, winner_s3)

    def test_winner_twin_is_not_a_near_tie(self):
        # (-s2, -s3) with phi1 + pi is the winner's rotation, so its mod-pi
        # difference always ties; only a different combination counts.
        for phi3, expect in ((1e-8, True), (0.3, False)):
            dec = diagonalize3(conjugated((0.4, 0.7, phi3), (3.0, 1.0, 2.0)))
            assert dec.branch is Branch.GENERIC
            assert dec.report.near_tie is expect, phi3

    def test_single_route_falls_back_to_the_first_combo(self):
        for winner_s3 in (1, -1):
            sel, candidates, near_tie = self.select(1e-3, winner_s3, n2=0.0)
            assert sel is candidates[0] and sel[:2] == (1, 1)
            assert len(candidates) == 2
            assert all(math.isnan(c[4]) and math.isnan(c[3])
                       for c in candidates)
            assert not near_tie

    @pytest.mark.parametrize("a, g", [
        # f1 = f2 = 0 (a12 = a13 = a23 = 0, a22 = a33), g from its formula
        (SymMat3(2.0, 1.0, 1.0, 0.0, 0.0, 0.0), None),
        # both f-vectors nonzero, g = 0
        (SymMat3(0.0, 2.0, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ])
    def test_neither_route_gives_phi1_zero(self, a, g):
        v, w = cos2(0.4), cos2(0.7)
        if g is None:
            result = eig3.resolve_signs(a, (3.0, 1.0, 2.0), v, w, 1.0)
        else:
            result = signs_on(a, g, v, w)
        angles, signs, candidates, _, _, near_tie = result
        assert all(math.isnan(x) for c in candidates for x in c[2:])
        assert signs == (1, 1)
        assert near_tie is False
        assert same_bits(angles.as_tuple(), (0.0, math.acos(math.sqrt(v)),
                                             math.acos(math.sqrt(w))))


def _four_combo_select(combos, n1, n2, tol_f, cs1, cs2, g):
    """The selection that scored every sign combination in ``combos``,
    twins included: first within TIE_EPS of the best wins, and near_tie
    flags a non-tied runner-up within NEAR_TIE_EPS of the winner."""
    both = n1 > tol_f and n2 > tol_f
    candidates = []
    for s2, s3 in combos:
        p11, p12 = phi1_reference._phi1_candidates(n1, n2, tol_f, cs1, cs2,
                                                   g, s2, s3)
        diff = wrapped_diff_mod_pi(p11, p12) if both else math.nan
        candidates.append((s2, s3, p11, p12, diff))
    candidates = tuple(candidates)
    scored = [c for c in candidates if not math.isnan(c[4])]
    if not scored:
        return candidates[0], candidates, False
    best = min(c[4] for c in scored)
    sel = next(c for c in scored if c[4] <= best + TIE_EPS)
    others = [c[4] for c in scored if c[4] > best + TIE_EPS]
    near_tie = bool(others) and min(others) - sel[4] <= NEAR_TIE_EPS
    return sel, candidates, near_tie


def _scored_signs(a, lambdas, v, w, scale):
    """resolve_signs scoring all four sign combinations with the selection
    above, on the routing chain of phi1_reference."""
    _, _, n1, n2, tol_f, cs1, cs2 = phi1_reference._f_route(a, scale)
    phi2_mag = math.acos(math.sqrt(v))
    phi3_mag = math.acos(math.sqrt(w))
    l1, l2, l3 = lambdas
    g = eig3._g_components(l1 - l2, l2 - l3, phi2_mag, phi3_mag, v, w)
    (s2, s3, p11, p12, _), candidates, near_tie = _four_combo_select(
        ((1, 1), (1, -1), (-1, 1), (-1, -1)), n1, n2, tol_f, cs1, cs2, g)
    angles, signs = phi1_reference._assemble_angles(
        n1, n2, p11, p12, s2, s3, phi2_mag, phi3_mag)
    return angles, signs, candidates, n1, n2, near_tie


class TestTwinScoringPin:
    """Scoring only (+,+) and (+,-) gives bitwise the results of scoring all
    four sign combinations: the twins only ever tie."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(60)
        mats = [random_sym3(rng) for _ in range(2000)]
        for gap in (0.0, 1e-9, 1e-6, 1e-3):
            mats += [clustered_sym3(rng, gap) for _ in range(1000)]
        mats += [structured_sym3(rng) for _ in range(2000)]
        return mats

    def test_matches_scoring_every_combination(self, monkeypatch):
        mats = self.corpus()
        got = [diagonalize3(a) for a in mats]
        calls = []

        def select(*args):
            calls.append(1)
            return _scored_signs(*args)

        monkeypatch.setattr(eig3, "resolve_signs", select)
        seen = {"near_tie": 0, "second": 0}
        for a, dec in zip(mats, got):
            ref = diagonalize3(a)
            assert same_bits(dec.angles.as_tuple(), ref.angles.as_tuple()), a
            assert dec.d.tobytes() == ref.d.tobytes(), a
            assert dec.report.selected_signs == ref.report.selected_signs, a
            assert dec.report.near_tie is ref.report.near_tie, a
            seen["near_tie"] += ref.report.near_tie
            seen["second"] += ref.report.selected_signs in ((1, -1), (-1, 1))
        # the stand-in ran, so the pin compared two different codes
        assert calls
        # the corpus reaches near-ties and (+,-) winners
        assert min(seen.values()) >= 20, seen


def fro2(a):
    """||A||_F^2 by products, as diagonalize3 takes its scale."""
    a11, a22, a33, a12, a13, a23 = a
    return (a11 * a11 + a22 * a22 + a33 * a33
            + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23))


def test_stage_chain_reproduces_generic_results():
    """The public stages, chained by hand, give diagonalize3's Generic
    results bit for bit: diagonalize3 runs no other copy of them.  Rows
    whose chained residual is above the correction's trigger (1e-12) are
    compared up to the angles and eigenvalues, which the Jacobi correction
    may then change; their eigenvalues are checked against eigvalsh.  The
    NEAR_ZERO_F1 matrices are such rows."""
    rng = np.random.default_rng(70)
    compared = polished = 0
    for a in [random_sym3(rng) for _ in range(2000)] + list(NEAR_ZERO_F1):
        dec = diagonalize3(a)
        assert dec.branch is Branch.GENERIC, a
        coeffs = char_coeffs(a)
        lambdas = eigenvalues3(coeffs, compute_pq(coeffs))
        v = compute_v(a, lambdas)
        w = compute_w(a, lambdas, v)
        scale = math.sqrt(fro2(a))
        angles, signs, candidates, n1, n2, near_tie = eig3.resolve_signs(
            a, lambdas, v, w, scale)
        d = rotation_entries(*angles)
        res = eig3._reconstruction_residual(a, d, lambdas, scale)
        report = dec.report
        assert report.selected_signs == signs, a
        assert same_bits(report.phi1_candidates, candidates), a
        assert same_bits([report.f1_norm, report.f2_norm], [n1, n2]), a
        assert report.near_tie is near_tie, a
        if res > 1e-12:
            polished += 1
            err = np.sort(dec.lambdas) - np.linalg.eigvalsh(a.to_array())
            assert np.max(np.abs(err)) <= 1e-14 * a.scale(), a
            continue
        assert same_bits(dec.lambdas, lambdas), a
        assert same_bits(dec.angles.as_tuple(), angles.as_tuple()), a
        assert same_bits(dec.d_entries, d), a
        assert same_bits(report.recon_residual, res), a
        compared += 1
    assert 2 <= polished <= 20 and compared + polished == 2002, (compared,
                                                                 polished)


def test_stage_chain_reproduces_double_root_results():
    """The public stages, chained by hand, give diagonalize3's DoubleRoot
    results bit for bit, report included: diagonalize3 runs no other copy
    of them and returns DoubleRoot results uncorrected.  The distinct root
    is the one of eigenvalues3 that is not bit-equal to another at
    compute_pq's endpoint: l1 at delta = 0 (l2 == l3) and l2 at delta = pi
    (l1 == l3).  Nothing is scored: the report has the signs (1, 1), no
    candidates, no near-tie and the norms of f_vectors."""
    rng = np.random.default_rng(71)
    compared = 0
    for gap in (0.0, 1e-9):
        for _ in range(1000):
            a = clustered_sym3(rng, gap)
            dec = diagonalize3(a)
            if dec.branch is not Branch.DOUBLE_ROOT:
                continue
            coeffs = char_coeffs(a)
            pq = compute_pq(coeffs)
            l1, l2, l3 = eigenvalues3(coeffs, pq)
            assert pq.delta in (0.0, math.pi), a
            if pq.delta == 0.0:
                assert same_bits(l2, l3), a
                lam3 = l1
            else:
                assert same_bits(l1, l3), a
                lam3 = l2
            angles, lambdas = degenerate_double(a, lam3)
            assert lambdas[2] == lam3
            scale = math.sqrt(fro2(a))
            d = rotation_entries(*angles)
            res = eig3._reconstruction_residual(a, d, lambdas, scale)
            assert same_bits(dec.lambdas, lambdas), a
            assert same_bits(dec.angles.as_tuple(), angles.as_tuple()), a
            assert same_bits(dec.d_entries, d), a
            f1, f2 = f_vectors(a)
            report = dec.report
            assert type(report) is SolveReport, a
            assert report == ((1, 1), (), math.hypot(*f1.tolist()),
                              math.hypot(*f2.tolist()), res, False), a
            assert same_bits(report.recon_residual, res), a
            compared += 1
    # the g = 0 and g = 1e-9 rows route to DoubleRoot but for a handful
    assert compared >= 1950, compared


# Where a comparison and a builtin min/max could part: signed zeros, a
# subnormal, 1 +- ulp, values whose squares overflow, infinities and NaN.
EDGE_GRID = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.0 + 2**-52, 1.0 - 2**-53,
             1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan)


def same_value(x, y):
    """Equal floats with the same sign of zero, or both NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def pq_with_builtins(coeffs):
    """compute_pq as written with builtin max calls, the reference of the
    comparisons that replaced them."""
    b, c, d = coeffs
    s = max(1.0, math.sqrt(max(b * b - 2.0 * c, 0.0)))
    p = b * b - 3.0 * c
    q = 2.0 * b**3 - 9.0 * b * c - 27.0 * d
    if p < 0.0:
        if p < -1e-12 * max(1.0, b * b + abs(c)):
            raise ValueError(f"p = {p} is negative beyond rounding tolerance")
        p = 0.0
    if p <= 9.0 * (1e-12 * s) ** 2:
        return (p, q, None, False)
    if 4.0 * p**3 - q * q <= 1e-12 * s**6:
        return (p, q, 0.0 if q >= 0.0 else math.pi, True)
    arg = q / (2.0 * math.sqrt(p**3))
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + eig3.CLAMP_SLACK:
            raise ValueError(f"arccos argument {arg} out of range beyond slack")
        arg = 1.0 if arg > 0.0 else -1.0
    return (p, q, math.acos(arg), False)


class TestComparisonsKeepBuiltinResults:
    """The solve path compares where it called min and max.  Each form
    must return what the builtin returned, NaN and the sign of zero
    included: min(x, 1.0) is `1.0 if 1.0 < x else x`, since
    `x if x < 1.0 else 1.0` turns NaN into 1.0."""

    @pytest.mark.parametrize("slack", [eig3.CLAMP_SLACK, 1e-5])
    def test_clamp_unit(self, slack):
        # clamps every excursion, inside the slack or far past it, and
        # raises on none
        for x in EDGE_GRID + (-slack, 1.0 + slack, -2.0 * slack,
                              1.0 + 2.0 * slack):
            assert same_value(eig3._clamp_unit(x), min(max(x, 0.0), 1.0)), x

    def test_compute_pq_scale_and_tolerance(self):
        for coeffs in itertools.product(EDGE_GRID, repeat=3):
            try:
                want = pq_with_builtins(coeffs)
            except (ArithmeticError, ValueError) as e:
                with pytest.raises(type(e)) as info:
                    compute_pq(eig3.CubicCoeffs(*coeffs))
                assert str(info.value) == str(e), coeffs
                continue
            got = compute_pq(eig3.CubicCoeffs(*coeffs))
            assert type(got) is eig3.PQ, coeffs
            # delta may be None and double_root is a bool
            assert all(w is g or type(w) is type(g) is float
                       and same_value(w, g)
                       for w, g in zip(want, got)), (coeffs, want, got)

    def test_diagonalize3_scale(self, monkeypatch):
        """The scale is ||B||_F of the matrix solved, by products: A's own
        where ||A||_F^2 lies in [1, 2^320], else A's after the power of two
        that puts its largest |entry| in [1, 2); 1 for the zero matrix.
        No row raises, the +-1e300 ones included."""
        scales = []
        residual = eig3._reconstruction_residual

        def spy(*args):
            scales.append(args[3])
            return residual(*args)

        monkeypatch.setattr(eig3, "_reconstruction_residual", spy)
        finite = [x for x in EDGE_GRID if math.isfinite(x)]
        rows = [(x, 0.0, 0.0, 0.0, 0.0, 0.0) for x in finite]
        rows += [(0.0, 0.0, 0.0, x, 0.0, 0.0) for x in finite]
        rows += [(x,) * 6 for x in finite]
        prescaled = 0
        for row in rows:
            n2 = fro2(row)
            if not 1.0 <= n2 <= 2.0 ** 320:
                big = max(abs(x) for x in row)
                e = math.frexp(big)[1] - 1
                n2 = fro2([math.ldexp(x, -e) for x in row])
                prescaled += big > 0.0
            want = math.sqrt(n2) if n2 else 1.0
            del scales[:]
            diagonalize3(SymMat3(*row))
            assert scales and all(same_value(s, want) for s in scales), row
        # 1e-300, 5e-324 and 1e300 rows of each family, and 1 - 2^-53 alone
        assert prescaled == 3 * 5 + 1, prescaled


def routed(p11, p12, v, w):
    """resolve_signs on f1 = (1, 0) and f2 = (2, 0) and a g that puts the
    f1/g1 route at p11 and the f2/g2 route at 2 p12, to rounding: the f2/g2
    route has the longer f-vector and gives phi1.  With both f-vectors
    along the x-axis, (+,-) reads the routes at pi - p11 and -p12, so its
    score ties with (+,+)'s and (+,+) is taken."""
    a = SymMat3(0.0, 2.0, 0.0, 1.0, 0.0, 0.0)
    g = (math.cos(p11), math.sin(p11),
         math.cos(2.0 * p12), math.sin(2.0 * p12))
    return signs_on(a, g, v, w)[:2]


class TestAssembledAnglesInRange:
    """resolve_signs builds Angles3 without its wrap: the magnitudes lie in
    [0, pi/2], where the wrap only maps -pi/2 to pi/2 and -0.0 to 0.0.
    p11 = 0.3 - pi is a half turn from phi1 = 0.3, so both signs flip."""

    def test_minus_half_pi_becomes_half_pi(self):
        # v = 0: the phi2 magnitude is exactly pi/2
        w = cos2(0.2)
        angles, signs = routed(0.3 - math.pi, 0.3, 0.0, w)
        assert signs == (-1, -1)
        assert type(angles) is Angles3
        assert angles.phi1 == pytest.approx(0.3, abs=1e-15)
        assert same_bits(angles.as_tuple()[1:],
                         (0.5 * math.pi, -math.acos(math.sqrt(w))))

    def test_negative_zero_becomes_positive_zero(self):
        # w = 1: the phi3 magnitude is exactly 0
        v = cos2(0.2)
        angles, signs = routed(0.3 - math.pi, 0.3, v, 1.0)
        assert signs == (-1, -1)
        assert angles.phi2 == -math.acos(math.sqrt(v))
        assert angles.phi3 == 0.0
        assert math.copysign(1.0, angles.phi3) == 1.0

    def test_every_result_is_wrapped(self, monkeypatch):
        # a mix reaching all four branches, and results the polish changed
        rng = np.random.default_rng(72)
        mats = [random_sym3(rng) for _ in range(1000)]
        mats += [structured_sym3(rng) for _ in range(3000)]
        for gap in (0.0, 1e-9, 1e-6):
            mats += [clustered_sym3(rng, gap) for _ in range(500)]
        mats += [SymMat3(2.0, 2.0, 2.0, 0.0, 0.0, 0.0),
                 SymMat3(-1.0, -1.0, -1.0, 0.0, 0.0, 0.0)]
        polished = []
        polish = eig3._polish_angles

        def spy(*args):
            result = polish(*args)
            polished.append(result[0])
            return result

        monkeypatch.setattr(eig3, "_polish_angles", spy)
        seen = dict.fromkeys(Branch, 0)
        kept = half_pi = 0
        for a in mats:
            del polished[:]
            dec = diagonalize3(a)
            angles = dec.angles.as_tuple()
            assert type(dec.angles) is Angles3, a
            assert same_bits(angles, Angles3(*angles).as_tuple()), a
            seen[dec.branch] += 1
            kept += bool(polished) and dec.angles is polished[0]
            half_pi += 0.5 * math.pi in angles
        assert min(seen.values()) >= 2 and kept >= 5, (seen, kept)
        # angles at the edge of the interval, where the wrap acts on -pi/2
        assert half_pi >= 5, half_pi


# Generic matrices whose phi1 comes from the f2/g2 route while p11, the
# f1/g1 route's full angle, lies on the other side of +-pi/2: the twin rule
# must compare the returned phi1 with p11, not test p11's range.
TWIN_REPRODUCERS = (
    SymMat3(0.5, 0.5, 1.0, 0.0, 2.0, -1.0),
    SymMat3(1.0, 1.0, -1.0, 0.0, 2.0, -1.0),
    SymMat3(0.0, 0.5, 2.0, -1.0, 0.0, 0.0),
)


class TestTwinRule:
    @pytest.mark.parametrize("a", TWIN_REPRODUCERS)
    def test_reproducers(self, a):
        dec = diagonalize3(a)
        assert dec.branch is Branch.GENERIC
        assert residuals(a, dec)[0] <= 1e-12

    def test_integer_corpus(self):
        rng = np.random.default_rng(20)
        rows = rng.integers(-3, 4, (20000, 6)).astype(float)
        mats = [SymMat3(*row) for row in rows.tolist()]
        ref = np.linalg.eigvalsh(np.stack([m.to_array() for m in mats]))
        for a, want in zip(mats, ref):
            dec = diagonalize3(a)
            assert residuals(a, dec)[0] <= 1e-10, a
            got = np.sort(dec.lambdas)
            assert np.max(np.abs(got - want)) <= 1e-12 * a.scale(), a

    @pytest.mark.parametrize("p11, p12", [
        (0.5 * math.pi - 1e-9, -0.5 * math.pi + 1e-9),
        (-0.5 * math.pi + 1e-9, 0.5 * math.pi - 1e-9),
        (2.0, 2.0 - math.pi),
    ])
    def test_assemble_flips_by_the_routed_phi1(self, p11, p12):
        # n2 > n1 routes phi1 through p12; the angles must span the
        # eigenvectors of the full angle p11 with the unflipped signs
        v, w = cos2(0.4), cos2(0.7)
        phi2_mag, phi3_mag = math.acos(math.sqrt(v)), math.acos(math.sqrt(w))
        angles, signs = routed(p11, p12, v, w)
        assert signs == (-1, -1)
        assert angles.phi1 == pytest.approx(p12, abs=1e-15)
        assert angles.as_tuple()[1:] == (-phi2_mag, -phi3_mag)
        lams = np.array([3.0, 1.0, 2.0])
        got, want = (compose_rotation(angles),
                     compose_rotation((p11, phi2_mag, phi3_mag)))
        np.testing.assert_allclose((got * lams) @ got.T,
                                   (want * lams) @ want.T, atol=1e-8)


# Generic matrices with |f1| ~ 1e-12, phi2 near pi/2 and phi3 = 0.
# Re-estimating sin(2 phi3) by arcsine from f1 divides by 0.5 (l1 - l2)
# cos(phi2), which is rounding noise here, and can turn phi3 to pi/4
# (residual ~1.9).  Angles from the arccos magnitudes and the polish
# reconstruct them below 1e-12.
NEAR_ZERO_F1 = (
    SymMat3(-0.06905354780530093, 2.427897164872534, -1.1764478242265695,
            -2.992500160969221e-13, -1.2811159952207352e-12,
            -0.890510604498563),
    SymMat3(-0.4933062107591377, 0.20383591768497925, 1.5238684106322025,
            -1.150106155821164e-13, -9.062251762475741e-14,
            -2.743390619520784),
)


@pytest.mark.parametrize("a", NEAR_ZERO_F1)
def test_near_zero_f1_generic_reconstructs(a):
    dec = diagonalize3(a)
    assert dec.branch is Branch.GENERIC
    assert dec.report.recon_residual <= 1e-12


class TestDoubleRootFlag:
    def test_set_on_separated_double_roots(self):
        # criterion 4(a)'s construction
        rng = np.random.default_rng(104)
        for _ in range(300):
            lam = rng.uniform(-3.0, 3.0)
            lam3 = lam + math.copysign(rng.uniform(0.5, 3.0),
                                       rng.uniform(-1.0, 1.0))
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = sym3((q * np.array([lam, lam, lam3])) @ q.T)
            assert compute_pq(char_coeffs(a)).double_root

    def test_clear_on_uniform_rows(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            assert not compute_pq(char_coeffs(random_sym3(rng))).double_root

    def test_clear_on_triple_roots(self):
        assert not compute_pq(char_coeffs(
            SymMat3(2.0, 2.0, 2.0, 0.0, 0.0, 0.0))).double_root


class TestRoundTrip:
    def test_known_triple(self):
        a = conjugated((0.3, 0.5, 0.9), (3.0, 1.0, 2.0))
        dec = diagonalize3(a)
        assert dec.branch is Branch.GENERIC
        for got, want in zip(dec.angles.as_tuple(), (0.3, 0.5, 0.9)):
            assert wrapped_diff_mod_pi(got, want) < 1e-10

    def test_random_triples(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 500:
            phis = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 3)
            lams = np.sort(rng.uniform(-4.0, 4.0, 3))
            if min(np.diff(lams)) < 0.1:
                continue
            a = conjugated(tuple(phis), (lams[2], lams[0], lams[1]))
            dec = diagonalize3(a)
            assert wrapped_diff_mod_pi(dec.angles.phi1, phis[0]) < 1e-8
            # phi2/phi3 may appear sign-flipped together with phi1 + pi, which
            # the canonical wrap absorbs into phi1; compare up to that pairing
            flip = 1.0 if abs(dec.angles.phi2 - phis[1]) <= abs(
                dec.angles.phi2 + phis[1]) else -1.0
            assert abs(dec.angles.phi2 - flip * phis[1]) < 1e-8
            assert abs(dec.angles.phi3 - flip * phis[2]) < 1e-8
            done += 1


class TestDegenerateDouble:
    def test_already_diagonal_repeated_pair(self):
        a = SymMat3(2.0, 2.0, 1.0, 0.0, 0.0, 0.0)
        angles, lambdas = degenerate_double(a, 1.0)
        assert same_bits(angles.as_tuple(), (0.0, 0.0, 0.0))
        assert lambdas == (2.0, 2.0, 1.0)

    def test_conjugated_about_e2(self):
        a = conjugated((0.0, 0.6, 0.0), (2.0, 2.0, 1.0))
        dec = diagonalize3(a)
        assert dec.branch is Branch.DOUBLE_ROOT
        assert abs(abs(dec.angles.phi2) - 0.6) < 1e-10
        assert dec.angles.phi3 == 0.0
        assert dec.report.recon_residual < 1e-10

    def test_reordering_repeated_pair_first(self):
        # repeated eigenvalue is the smaller one; must be moved to the front
        a = conjugated((0.4, 0.0, 0.0), (5.0, 1.0, 1.0))
        dec = diagonalize3(a)
        assert dec.branch is Branch.DOUBLE_ROOT
        assert dec.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert dec.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert dec.lambda3 == pytest.approx(5.0, abs=1e-12)
        assert dec.report.recon_residual < 1e-10

    def test_random_double_roots(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            lam = rng.uniform(-3.0, 3.0)
            lam3 = lam + math.copysign(rng.uniform(0.5, 3.0),
                                       rng.uniform(-1.0, 1.0))
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = sym3((q * np.array([lam, lam, lam3])) @ q.T)
            dec = diagonalize3(a)
            assert dec.branch is Branch.DOUBLE_ROOT
            assert dec.report.recon_residual < 1e-8

    @pytest.mark.parametrize("corpus", ["clustered", "near-double",
                                        "graded"])
    def test_accurate_on_seeded_corpora(self, corpus):
        """Every DoubleRoot result of criterion-4 spectra with pair gaps 0
        and 1e-9 (lib-clustered's), 1e-6 and 1e-3 (near-double) and of
        graded rows has eigenvalues within 1e-10 ||A||_2 of eigh's, a
        residual of at most 1e-12 and ||D^T D - I||_F of at most 1e-15."""
        rng = np.random.default_rng(73)
        if corpus == "clustered":
            rows = clustered_chunk(rng, 2000, (0.0, 1e-9))[0]
        elif corpus == "near-double":
            rows = near_double_chunk(rng, 2000)[0]
        else:
            rows = graded_rows(rng, 2000)
        want = np.linalg.eigh(np.stack(
            [SymMat3(*row).to_array() for row in rows.tolist()]))[0]
        doubles = 0
        for row, w in zip(rows.tolist(), want):
            dec = diagonalize3(SymMat3(*row))
            if dec.branch is not Branch.DOUBLE_ROOT:
                continue
            doubles += 1
            err = np.max(np.abs(np.sort(dec.lambdas) - w))
            assert err <= 1e-10 * np.max(np.abs(w)), (row, err)
            assert dec.report.recon_residual <= 1e-12, row
            d = dec.d
            assert np.linalg.norm(d.T @ d - np.eye(3)) <= 1e-15, row
        assert doubles >= 500, doubles


class TestBranchClassification:
    def test_scalar_matrix_triple(self):
        dec = diagonalize3(SymMat3(2.5, 2.5, 2.5, 0.0, 0.0, 0.0))
        assert dec.branch is Branch.TRIPLE_ROOT
        assert dec.lambdas == (2.5, 2.5, 2.5)
        assert dec.angles.as_tuple() == (0.0, 0.0, 0.0)

    def test_distinct_diagonal_is_signed_permutation(self):
        dec = diagonalize3(DIAG321)
        assert sorted(dec.lambdas, reverse=True) == pytest.approx(
            [3.0, 2.0, 1.0], abs=1e-14)
        assert dec.report.recon_residual < 1e-14
        np.testing.assert_allclose(np.abs(dec.d) @ np.abs(dec.d).T, np.eye(3),
                                   atol=1e-12)

    def test_one_zero_f_vector_flagged(self):
        dec = diagonalize3(DIAG321)  # f1 = 0, f2 = (1, 0)
        assert dec.branch is Branch.ALREADY_DIAGONAL_2D

    def test_random_generic(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            dec = diagonalize3(random_sym3(rng))
            assert dec.branch in (Branch.GENERIC, Branch.ALREADY_DIAGONAL_2D,
                                  Branch.DOUBLE_ROOT)
            assert dec.report.recon_residual < 1e-10

    def test_near_boundary_gaps_stay_accurate(self):
        rng = np.random.default_rng(45)
        for gap in (1e-3, 1e-6, 1e-9):
            for _ in range(100):
                lam = rng.uniform(-3.0, 3.0)
                q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                a = sym3((q * np.array([lam, lam + gap, lam + 2.0])) @ q.T)
                dec = diagonalize3(a)
                assert dec.report.recon_residual < 1e-6


class TestDecomposition:
    def test_d_matches_angle_composition(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            dec = diagonalize3(random_sym3(rng))
            expect = (rot3x(dec.angles.phi1) @ rot3y(dec.angles.phi2)
                      @ rot3z(dec.angles.phi3))
            np.testing.assert_allclose(dec.d, expect, atol=1e-15)

    def test_residual_report_populated(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            m = random_sym3(rng)
            dec = diagonalize3(m)
            recon, _, _ = residuals(m, dec)
            assert dec.report.recon_residual == pytest.approx(recon, abs=1e-15)

    def test_lambdas_sorted_view(self):
        dec = diagonalize3(DIAG321)
        assert dec.lambdas_sorted() == pytest.approx((3.0, 2.0, 1.0))


class TestEulerAngles:
    def test_zero_triple(self):
        dec = diagonalize3(SymMat3(2.5, 2.5, 2.5, 0.0, 0.0, 0.0))
        assert euler_angles(dec).as_tuple() == (0.0, 0.0, 0.0)

    def test_equals_fixed_axis_angles(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            dec = diagonalize3(random_sym3(rng))
            assert euler_angles(dec) == dec.angles

    def test_rotating_axis_sequence_identity(self):
        # R1 R2 R3 about fixed axes equals R3'' R2' R1 about rotating axes,
        # with R2' = R1 R2 R1^-1 and R3'' = (R2' R1) R3 (R2' R1)^-1
        rng = np.random.default_rng(49)
        for _ in range(1000):
            p1, p2, p3 = rng.uniform(-math.pi, math.pi, 3)
            r1, r2, r3 = rot3x(p1), rot3y(p2), rot3z(p3)
            r2p = r1 @ r2 @ r1.T
            s = r2p @ r1
            r3pp = s @ r3 @ s.T
            np.testing.assert_allclose(r3pp @ r2p @ r1, r1 @ r2 @ r3,
                                       atol=1e-13)
