"""Closed-form 2x2 diagonalization against direct checks and the Jacobi oracle."""

import math

import numpy as np
import pytest

from symdiag import (
    SymMat2,
    diagonalize2,
    eigenvalues2,
    jacobi_eigen,
    residuals,
    rotation_angle2,
    wrapped_diff_mod_pi,
)
from conftest import random_sym2


class TestEigenvalues2:
    def test_already_diagonal(self):
        assert eigenvalues2(SymMat2(3.0, 1.0, 0.0)) == (3.0, 1.0)

    def test_equal_diagonal_sign_convention(self):
        # a11 = a22: eigenvalues a11 +- a12, larger one first
        assert eigenvalues2(SymMat2(2.0, 2.0, 1.0)) == (3.0, 1.0)

    def test_known_radical_values(self):
        l1, l2 = eigenvalues2(SymMat2(1.0, 0.0, 2.0))
        r = math.sqrt(17.0)
        assert l1 == pytest.approx(0.5 * (1.0 + r), abs=1e-15)
        assert l2 == pytest.approx(0.5 * (1.0 - r), abs=1e-15)

    def test_against_jacobi(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            m = random_sym2(rng)
            l1, l2 = eigenvalues2(m)
            jac = np.sort(jacobi_eigen(m).eigenvalues)
            assert max(abs(np.sort([l1, l2]) - jac)) < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            m = random_sym2(rng)
            sw = SymMat2(m.a22, m.a11, m.a12)
            l1, l2 = eigenvalues2(m)
            s1, s2 = eigenvalues2(sw)
            assert (s1, s2) == pytest.approx((l2, l1))


class TestRotationAngle2:
    def test_already_diagonal(self):
        assert rotation_angle2(SymMat2(3.0, 1.0, 0.0)) == 0.0

    def test_equal_diagonal_gives_quarter_pi(self):
        assert rotation_angle2(SymMat2(2.0, 2.0, 1.0)) == pytest.approx(
            0.25 * math.pi)

    def test_half_arctangent(self):
        phi = rotation_angle2(SymMat2(1.0, 0.0, 2.0))
        assert phi == pytest.approx(0.5 * math.atan(4.0))
        # columns of the rotation are eigenvectors
        m = SymMat2(1.0, 0.0, 2.0)
        dec = diagonalize2(m)
        a = m.to_array()
        for i, lam in enumerate((dec.lambda1, dec.lambda2)):
            assert np.linalg.norm(a @ dec.d[:, i] - lam * dec.d[:, i]) < 1e-14

    def test_scalar_matrix_angle_zero(self):
        assert rotation_angle2(SymMat2(4.0, 4.0, 0.0)) == 0.0

    @pytest.mark.parametrize("entries", [(1e308, -1e308, 5e307),
                                         (1.2e308, -1.2e308, -1e306),
                                         (5e307, -5e307, 1e308),
                                         (2.0**1021 * 1.5, 0.0, 1.0)])
    def test_top_of_the_double_range(self, entries):
        """Where a11 - a22 or 2 a12 overflows, the angle is diagonalize2's,
        which solves the exactly prescaled matrix, not atan2 of inf."""
        m = SymMat2(*entries)
        assert rotation_angle2(m) == diagonalize2(m).phi
        a11, a22, a12 = (math.ldexp(x, -2) for x in entries)
        assert rotation_angle2(m) == pytest.approx(
            0.5 * math.atan2(2.0 * a12, a11 - a22), abs=1e-15)

    def test_swap_flips_sign_mod_pi(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            m = random_sym2(rng)
            if abs(m.a11 - m.a22) < 1e-10 and abs(m.a12) < 1e-10:
                continue
            phi = rotation_angle2(m)
            phi_sw = rotation_angle2(SymMat2(m.a22, m.a11, m.a12))
            assert wrapped_diff_mod_pi(phi_sw, 0.5 * math.pi - phi) < 1e-12 \
                or wrapped_diff_mod_pi(phi_sw, -phi) < 1e-12


class TestDiagonalize2:
    def test_identity(self):
        dec = diagonalize2(SymMat2(1.0, 1.0, 0.0))
        assert (dec.lambda1, dec.lambda2, dec.phi) == (1.0, 1.0, 0.0)
        np.testing.assert_allclose(dec.d, np.eye(2))

    def test_equal_diagonal(self):
        dec = diagonalize2(SymMat2(2.0, 2.0, 1.0))
        assert (dec.lambda1, dec.lambda2) == (3.0, 1.0)
        assert dec.phi == pytest.approx(0.25 * math.pi)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            m = random_sym2(rng)
            dec = diagonalize2(m)
            recon, ortho, eigvec = residuals(m, dec)
            assert recon < 1e-14
            assert ortho < 1e-14
            assert max(eigvec) < 1e-14

    @pytest.mark.parametrize("entries", [(1e-20, 2e-20, 1e-20),
                                         (1e200, 2e200, 1e200)])
    def test_degeneracy_judged_at_the_matrix_scale(self, entries):
        # a max(1, ||A||_F) tolerance called the first matrix a multiple of
        # the identity (phi = 0, relative residual 0.63), and squaring the
        # entries of the second overflowed
        dec = diagonalize2(SymMat2(*entries))
        # checked on A / 2^e, exact, so that no square overflows
        s = math.ldexp(1.0, -math.frexp(max(entries))[1])
        a = np.array([[entries[0], entries[2]], [entries[2], entries[1]]]) * s
        lam = np.array([dec.lambda1, dec.lambda2]) * s
        recon = dec.d @ np.diag(lam) @ dec.d.T
        assert np.linalg.norm(recon - a) <= 1e-14 * np.linalg.norm(a)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(np.sort(lam) - want)) <= 1e-14 * abs(want[1])

    def test_entries_near_the_double_range_are_prescaled(self):
        # a11 + a22, a11 - a22 or the hypot overflowed here, giving inf or
        # NaN eigenvalues without a raise; A * 2^-2 is solved instead, by
        # the public eigenvalues2 stage as well
        dec = diagonalize2(SymMat2(1e308, -1e308, 0.0))
        assert (dec.lambda1, dec.lambda2, dec.phi) == (1e308, -1e308, 0.0)
        assert eigenvalues2(SymMat2(1e308, -1e308, 0.0)) == (1e308, -1e308)
        # an eigenvalue of ~2.7e308 is beyond the double range
        for solve in (diagonalize2, eigenvalues2):
            with pytest.raises(OverflowError):
                solve(SymMat2(1.7e308, 1.7e308, 1e308))

    def test_prescale_is_exact(self):
        # a matrix with an entry above 2^1021 gives the eigenvalues and
        # angle of the same matrix at a smaller power-of-two scale
        rng = np.random.default_rng(25)
        for _ in range(500):
            m = random_sym2(rng)
            k = 1022 - math.frexp(max(map(abs, m)))[1]
            big = SymMat2(*(math.ldexp(x, k) for x in m))
            assert max(map(abs, big)) > 2.0**1021
            small = SymMat2(*(math.ldexp(x, k - 600) for x in m))
            got, want = diagonalize2(big), diagonalize2(small)
            assert (got.lambda1, got.lambda2, got.phi) == (
                math.ldexp(want.lambda1, 600), math.ldexp(want.lambda2, 600),
                want.phi), m
            assert eigenvalues2(big) == (got.lambda1, got.lambda2), m
