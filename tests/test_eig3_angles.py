"""Angle recovery for 3x3: v/w quotients, sign resolution, degenerate branches."""

import math

import numpy as np
import pytest

from symdiag import (
    Branch,
    DegenerateEigenvalues,
    NotDoubleRoot,
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
from symdiag.eig3 import NEAR_TIE_EPS, TIE_EPS, _select_signs
from conftest import (clustered_sym3, conjugated, random_sym3, structured_sym3,
                      sym3)

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

    def test_degenerate_gap_raises(self):
        with pytest.raises(DegenerateEigenvalues):
            compute_v(DIAG321, (3.0, 1.0, 1.0))


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

    def test_degenerate_gap_raises(self):
        with pytest.raises(DegenerateEigenvalues):
            compute_w(DIAG321, (2.0, 2.0, 1.0), 0.5)


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


class TestSelectSigns:
    # psi1 = 0.3, psi2 = 0.  g1 = (x, t) with x = +-1 puts phi1 at
    # atan(t) - 0.3 for (+, x) and at pi - atan(t) - 0.3 for (+, -x); g2 =
    # (1, 0) puts it at 0 for both.  (+, x) therefore beats (+, -x) by
    # 2 atan(t).
    CS1 = (math.cos(0.3), math.sin(0.3))
    CS2 = (1.0, 0.0)

    def select(self, margin, winner_s3=1, n2=1.0):
        g = (float(winner_s3), math.tan(0.5 * margin), 1.0, 0.0)
        return _select_signs(1.0, n2, 1e-14, self.CS1, self.CS2, g)

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


def _four_combo_select(combos, n1, n2, tol_f, cs1, cs2, g):
    """The selection that scored every sign combination in ``combos``,
    twins included: first within TIE_EPS of the best wins, and near_tie
    flags a non-tied runner-up within NEAR_TIE_EPS of the winner."""
    both = n1 > tol_f and n2 > tol_f
    candidates = []
    for s2, s3 in combos:
        p11, p12 = eig3._phi1_candidates(n1, n2, tol_f, cs1, cs2, g, s2, s3)
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


def _scored_double(a, lam, lam3, scale):
    """degenerate_double scoring both signs of phi2 with the selection above."""
    if abs(lam - lam3) <= eig3.DEGENERATE_EPS * scale:
        raise NotDoubleRoot("repeated and distinct eigenvalues coincide")
    s = eig3._clamp_unit((a.a11 - lam3) / (lam - lam3), "s", slack=1e-5)
    phi2_mag = math.acos(math.sqrt(s))
    _, _, n1, n2, tol_f, cs1, cs2 = eig3._f_route(a, scale)
    if phi2_mag < 0.125 * math.pi or phi2_mag > 0.375 * math.pi:
        sin2 = min(2.0 * n1 / abs(lam - lam3), 1.0)
        half = 0.5 * math.asin(sin2)
        phi2_mag = half if phi2_mag <= 0.25 * math.pi else 0.5 * math.pi - half
        s = math.cos(phi2_mag) ** 2
    g = eig3._g_components(0.0, lam - lam3, phi2_mag, 0.0, s, 1.0)
    (s2, s3, p11, p12, _), candidates, near_tie = _four_combo_select(
        ((1, 1), (-1, 1)), n1, n2, tol_f, cs1, cs2, g)
    angles, signs = eig3._assemble_angles(n1, n2, p11, p12,
                                          s2, s3, phi2_mag, 0.0)
    return angles, SolveReport(selected_signs=signs,
                               phi1_candidates=candidates, f1_norm=n1,
                               f2_norm=n2, near_tie=near_tie)


class TestTwinScoringPin:
    """Scoring only (+,+) and (+,-), and nothing on the double-root branch,
    gives bitwise the results of scoring all four sign combinations (two on
    the double-root branch): the twins only ever tie."""

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
        calls = {"select": 0, "double": 0}

        def select(*args):
            calls["select"] += 1
            return _four_combo_select(
                ((1, 1), (1, -1), (-1, 1), (-1, -1)), *args)

        def double(*args):
            calls["double"] += 1
            return _scored_double(*args)

        monkeypatch.setattr(eig3, "_select_signs", select)
        monkeypatch.setattr(eig3, "degenerate_double", double)
        seen = {"near_tie": 0, "second": 0, "double": 0}
        for a, dec in zip(mats, got):
            ref = diagonalize3(a)
            assert same_bits(dec.angles.as_tuple(), ref.angles.as_tuple()), a
            assert dec.d.tobytes() == ref.d.tobytes(), a
            assert dec.report.selected_signs == ref.report.selected_signs, a
            assert dec.report.near_tie is ref.report.near_tie, a
            seen["near_tie"] += ref.report.near_tie
            seen["second"] += ref.report.selected_signs in ((1, -1), (-1, 1))
            seen["double"] += ref.branch is Branch.DOUBLE_ROOT
        # both stand-ins ran, so the pin compared two different codes
        assert min(calls.values()) > 0, calls
        # the corpus reaches near-ties, (+,-) winners and double roots
        assert min(seen.values()) >= 20, seen


def test_stage_chain_reproduces_generic_results():
    """The public stages, chained by hand, give diagonalize3's Generic
    results bit for bit: diagonalize3 runs no other copy of them.  Rows
    whose chained residual is above the polish trigger (1e-12) are compared
    up to the angles, which the polish may then change."""
    rng = np.random.default_rng(70)
    compared = polished = 0
    for _ in range(2000):
        a = random_sym3(rng)
        dec = diagonalize3(a)
        assert dec.branch is Branch.GENERIC, a
        coeffs = char_coeffs(a)
        lambdas = eigenvalues3(coeffs, compute_pq(coeffs))
        v = compute_v(a, lambdas)
        w = compute_w(a, lambdas, v)
        scale = a.scale()
        angles, signs, candidates, n1, n2, near_tie = eig3.resolve_signs(
            a, lambdas, v, w, scale)
        d = rotation_entries(*angles)
        res = eig3._reconstruction_residual(a, d, lambdas, scale)
        assert same_bits(dec.lambdas, lambdas), a
        report = dec.report
        assert report.selected_signs == signs, a
        assert same_bits(report.phi1_candidates, candidates), a
        assert same_bits([report.f1_norm, report.f2_norm], [n1, n2]), a
        assert report.near_tie is near_tie, a
        if res > 1e-12:
            polished += 1
            continue
        assert same_bits(dec.angles.as_tuple(), angles.as_tuple()), a
        assert same_bits(dec.d_entries, d), a
        assert same_bits(report.recon_residual, res), a
        compared += 1
    assert polished <= 20 and compared + polished == 2000, (compared,
                                                            polished)


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
        angles, signs = eig3._assemble_angles(1.0, 2.0, p11, p12,
                                              1, -1, 0.4, 0.7)
        assert signs == (-1, 1)
        assert angles.as_tuple() == (p12, -0.4, 0.7)
        lams = np.array([3.0, 1.0, 2.0])
        got, want = (compose_rotation(angles),
                     compose_rotation((p11, 0.4, -0.7)))
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
        angles, _ = degenerate_double(a, 2.0, 1.0, a.scale())
        assert angles.as_tuple() == (0.0, 0.0, 0.0)

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

    def test_coincident_values_rejected(self):
        a = SymMat3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(NotDoubleRoot):
            degenerate_double(a, 1.0, 1.0, a.scale())

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
