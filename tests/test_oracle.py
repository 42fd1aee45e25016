"""Reference implementations: cyclic Jacobi, bracketed cubic roots, residuals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symdiag import (
    ComplexRootsDetected,
    CubicCoeffs,
    EigenDecomp2,
    EigenDecomp3,
    SymMat2,
    SymMat3,
    char_coeffs,
    cubic_roots_reference,
    diagonalize2,
    diagonalize3,
    jacobi_eigen,
    reconstruct,
    residuals,
    rot2,
)
from symdiag import oracle
from conftest import (
    clustered_sym3,
    random_sym2,
    random_sym3,
    structured_sym3,
)


class TestJacobi:
    def test_already_diagonal_no_sweeps(self):
        res = jacobi_eigen(SymMat3(3.0, 2.0, 1.0, 0.0, 0.0, 0.0))
        assert res.sweeps == 0
        np.testing.assert_allclose(np.sort(res.eigenvalues), [1.0, 2.0, 3.0])

    def test_identity(self):
        res = jacobi_eigen(SymMat3(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0, 1.0])

    def test_off_diagonal_ones(self):
        res = jacobi_eigen(SymMat3(0.0, 0.0, 0.0, 1.0, 1.0, 1.0))
        np.testing.assert_allclose(np.sort(res.eigenvalues), [-1.0, -1.0, 2.0],
                                   atol=1e-12)

    def test_accepts_plain_arrays_and_2x2(self):
        res = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(np.sort(res.eigenvalues), [1.0, 3.0])
        res2 = jacobi_eigen(SymMat2(2.0, 2.0, 1.0))
        np.testing.assert_allclose(np.sort(res2.eigenvalues), [1.0, 3.0])

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(51)
        mats = [random_sym3(rng) for _ in range(300)]
        mats += [random_sym2(rng) for _ in range(300)]
        for m in mats:
            res = jacobi_eigen(m)
            ref = np.linalg.eigvalsh(m.to_array())
            assert np.max(np.abs(np.sort(res.eigenvalues) - ref)) < 1e-12
            # eigenvectors diagonalize the matrix
            v = res.eigenvectors
            off = v.T @ m.to_array() @ v - np.diag(res.eigenvalues)
            assert np.linalg.norm(off) < 1e-12

    def test_huge_entries_are_prescaled(self):
        # ||A||_F^2 overflows here: without the power-of-two prescale the
        # threshold is inf and the unrotated diagonal comes back
        m = SymMat3(1.787e192, -1.682e193, 1.277e193, 2.309e192, -7.021e192,
                    -1.919e193)
        res = jacobi_eigen(m)
        ref = np.linalg.eigvalsh(m.to_array())
        assert res.sweeps > 0
        assert (np.max(np.abs(np.sort(res.eigenvalues) - ref))
                <= 1e-12 * np.max(np.abs(ref)))
        v = res.eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(3)) < 1e-12

    def test_prescale_is_exact(self):
        # with its largest |entry| in [0.5, 1), m is exactly what its
        # 2^600 multiple is prescaled to, so the two runs agree bit for bit
        # after the exact scale back
        rng = np.random.default_rng(53)
        for _ in range(200):
            row = rng.uniform(-1.0, 1.0, 6)
            m = SymMat3(*(0.75 * row / np.max(np.abs(row))))
            small = jacobi_eigen(m)
            big = jacobi_eigen(np.ldexp(m.to_array(), 600))
            assert big.sweeps == small.sweeps
            assert (big.eigenvalues.tobytes()
                    == np.ldexp(small.eigenvalues, 600).tobytes())
            assert big.eigenvectors.tobytes() == small.eigenvectors.tobytes()

    def test_rejects_other_shapes(self):
        for shape in ((1, 1), (4, 4), (2, 3)):
            with pytest.raises(ValueError, match="2x2 or 3x3"):
                jacobi_eigen(np.eye(*shape))

    def test_tol_validation(self):
        for tol in (0.0, -1e-13, math.nan, math.inf):
            with pytest.raises(ValueError):
                jacobi_eigen(SymMat2(1.0, 2.0, 0.5), tol=tol)
            with pytest.raises(ValueError):
                jacobi_eigen(SymMat3(1.0, 2.0, 3.0, 0.5, 0.4, 0.3), tol=tol)
            with pytest.raises(ValueError):
                oracle.jacobi_eigen_floats(SymMat2(1.0, 2.0, 0.5), tol=tol)

    def test_float_entry_point_gives_the_array_results(self):
        """jacobi_eigen_floats returns floats, the same as jacobi_eigen's
        arrays bit for bit, prescaled matrices included."""
        rng = np.random.default_rng(54)
        mats = [random_sym3(rng) for _ in range(200)]
        mats += [random_sym2(rng) for _ in range(200)]
        mats += [SymMat3(*np.ldexp(rng.uniform(-1.0, 1.0, 6), 900))
                 for _ in range(50)]
        mats.append(SymMat2(1.5e308, 1.5e308, 1.5e308))  # lambda1 is inf
        for m in mats:
            res = oracle.jacobi_eigen_floats(m)
            arr = jacobi_eigen(m.to_array())
            assert type(res.eigenvalues) is tuple
            assert all(type(x) is float for x in res.eigenvalues)
            assert (np.array(res.eigenvalues).tobytes()
                    == arr.eigenvalues.tobytes()), m
            assert (np.array(res.eigenvectors).tobytes()
                    == arr.eigenvectors.tobytes()), m
            assert (res.sweeps, res.offdiag_final) == (arr.sweeps,
                                                      arr.offdiag_final)

    def test_float_entry_point_takes_symmats_only(self):
        with pytest.raises(TypeError, match="SymMat2 or SymMat3"):
            oracle.jacobi_eigen_floats(np.eye(3))


class TestCubicRootsReference:
    def test_triple_root(self):
        assert cubic_roots_reference(CubicCoeffs(3.0, 3.0, -1.0)) == (
            1.0, 1.0, 1.0)

    def test_distinct_integers(self):
        roots = sorted(cubic_roots_reference(CubicCoeffs(6.0, 11.0, -6.0)))
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_double_root(self):
        roots = sorted(cubic_roots_reference(CubicCoeffs(0.0, -3.0, -2.0)))
        assert roots == pytest.approx([-1.0, -1.0, 2.0], abs=1e-10)

    def test_matches_numpy_roots(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            m = random_sym3(rng)
            a = m.to_array()
            poly = np.poly(a)
            coeffs = CubicCoeffs(b=-poly[1], c=poly[2], d=poly[3])
            got = np.sort(cubic_roots_reference(coeffs))
            ref = np.sort(np.real(np.roots(poly)))
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_complex_roots_rejected(self):
        # l^3 + l has roots 0, +-i
        with pytest.raises(ComplexRootsDetected):
            cubic_roots_reference(CubicCoeffs(b=0.0, c=1.0, d=0.0))

    def test_agrees_with_brentq(self, monkeypatch):
        """The bisection replaced scipy's brentq on the same brackets and
        tolerances; both must land on the same roots."""
        brentq = pytest.importorskip("scipy.optimize").brentq
        rng = np.random.default_rng(81)
        coeffs = [char_coeffs(random_sym3(rng)) for _ in range(2000)]
        got = np.sort([cubic_roots_reference(c) for c in coeffs], axis=1)
        monkeypatch.setattr(
            oracle, "_bisect", lambda f, a, b: brentq(
                f, a, b, xtol=oracle.ROOT_XTOL, rtol=oracle.ROOT_RTOL))
        ref = np.sort([cubic_roots_reference(c) for c in coeffs], axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-13


class TestBisect:
    @staticmethod
    def cubic(x):
        return (x - 1.0) * (x - 2.0) * (x - 3.0)

    def test_same_sign_ends_raise(self):
        for a, b in ((1.5, 1.75), (3.5, 4.0), (0.0, 0.5)):
            with pytest.raises(ValueError, match="different signs"):
                oracle._bisect(self.cubic, a, b)

    def test_nan_end_raises(self):
        with pytest.raises(ValueError):
            oracle._bisect(lambda x: math.nan if x < 0.0 else x, -1.0, 1.0)

    def test_root_at_an_end_is_returned(self):
        assert oracle._bisect(self.cubic, 1.0, 1.5) == 1.0
        assert oracle._bisect(self.cubic, 0.5, 1.0) == 1.0
        assert oracle._bisect(self.cubic, 3.0, 2.5) == 3.0

    def test_exact_zero_at_a_midpoint(self):
        calls = []

        def f(x):
            calls.append(x)
            return self.cubic(x)

        assert oracle._bisect(f, 0.0, 4.0) == 2.0
        assert calls == [0.0, 4.0, 2.0]

    def test_either_orientation(self):
        for a, b in ((2.5, 4.0), (4.0, 2.5)):
            assert oracle._bisect(self.cubic, a, b) == pytest.approx(
                3.0, abs=1e-15)
            assert oracle._bisect(lambda x: -self.cubic(x), a, b) == (
                pytest.approx(3.0, abs=1e-15))

    def test_stops_at_tolerance(self):
        root = math.sqrt(2.0)
        got = oracle._bisect(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(got - root) <= oracle.ROOT_XTOL + oracle.ROOT_RTOL * root

    def test_stops_when_the_midpoint_is_an_end(self, monkeypatch):
        # With no tolerance the bracket shrinks to two adjacent doubles
        # around the sign change, whose midpoint rounds to one of them.
        monkeypatch.setattr(oracle, "ROOT_XTOL", 0.0)
        monkeypatch.setattr(oracle, "ROOT_RTOL", 0.0)
        step = math.nextafter(math.pi, math.inf)
        got = oracle._bisect(lambda x: -1.0 if x < step else 1.0, 0.0, 4.0)
        assert got in (math.pi, step)


class TestReconstruct:
    def test_diagonal(self):
        np.testing.assert_allclose(
            reconstruct(np.eye(3), (3.0, 2.0, 1.0)),
            np.diag([3.0, 2.0, 1.0]))

    def test_quarter_pi_2x2(self):
        np.testing.assert_allclose(
            reconstruct(rot2(0.25 * math.pi), (3.0, 1.0)),
            [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(np.array([[1.0, 0.0], [1.0, 1.0]]), (1.0, 2.0))

    def test_roundtrip_with_solver(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            m = random_sym3(rng)
            dec = diagonalize3(m)
            recon = reconstruct(dec.d, dec.lambdas)
            assert np.linalg.norm(recon - m.to_array()) < 1e-10 * m.scale()


class TestResiduals:
    def test_exact_diagonal_decomposition(self):
        m = SymMat3(3.0, 2.0, 1.0, 0.0, 0.0, 0.0)
        dec = diagonalize3(m)
        recon, ortho, eigvec = residuals(m, dec)
        assert recon < 1e-15
        assert ortho < 1e-15
        assert max(eigvec) < 1e-15

    def test_perturbed_d_shows_in_ortho(self):
        m = SymMat3(3.0, 2.0, 1.0, 0.1, 0.0, 0.0)
        dec = diagonalize3(m)
        d = dec.d.copy()
        d[0, 0] += 1e-6
        object.__setattr__(dec, "d", d)
        _, ortho, _ = residuals(m, dec)
        assert 1e-7 < ortho < 1e-5

    def test_random_within_contract(self):
        rng = np.random.default_rng(54)
        for _ in range(300):
            m = random_sym3(rng)
            recon, ortho, eigvec = residuals(m, diagonalize3(m))
            assert recon < 1e-10
            assert ortho < 1e-12
            assert max(eigvec) < 1e-10

    def test_within_bound_of_exact_residual(self):
        """Each field is within exact_atol of the residual computed exactly,
        with Fraction, from the same d and lambdas.  np.linalg.norm of the
        same differences meets the same bound, so the bound is no looser
        than numpy's own rounding."""
        exact_atol = 1e-15  # the inputs have unit-scale entries

        def lambdas_of(dec):
            return (dec.lambdas if isinstance(dec, EigenDecomp3)
                    else (dec.lambda1, dec.lambda2))

        def norm_reference(a, dec):
            m = a.to_array()
            scale = a.scale()
            lambdas = lambdas_of(dec)
            d = dec.d
            recon = d @ np.diag(lambdas) @ d.T
            return (float(np.linalg.norm(recon - m)) / scale,
                    float(np.linalg.norm(d.T @ d - np.eye(d.shape[0]))),
                    [float(np.linalg.norm(m @ d[:, i] - lam * d[:, i]))
                     / scale for i, lam in enumerate(lambdas)])

        def exact(a, dec):
            m = [[Fraction(x) for x in row] for row in a.to_array().tolist()]
            d = [[Fraction(x) for x in row] for row in dec.d.tolist()]
            lambdas = [Fraction(x) for x in lambdas_of(dec)]
            idx = range(len(d))
            recon = sum((sum(d[i][k] * lambdas[k] * d[j][k] for k in idx)
                         - m[i][j]) ** 2 for i in idx for j in idx)
            ortho = sum((sum(d[k][i] * d[k][j] for k in idx) - (i == j)) ** 2
                        for i in idx for j in idx)
            eigvec = [sum((sum(m[j][k] * d[k][i] for k in idx)
                           - lambdas[i] * d[j][i]) ** 2 for j in idx)
                      for i in idx]
            scale = a.scale()
            return (math.sqrt(recon) / scale, math.sqrt(ortho),
                    [math.sqrt(e) / scale for e in eigvec])

        rng = np.random.default_rng(55)
        mats = [random_sym3(rng) for _ in range(1500)]
        mats += [clustered_sym3(rng, (0.0, 1e-9, 1e-6)[i % 3])
                 for i in range(1500)]
        mats += [structured_sym3(rng) for _ in range(1000)]
        decs = [(m, diagonalize3(m)) for m in mats]
        decs += [(m, diagonalize2(m))
                 for m in (random_sym2(rng) for _ in range(1000))]
        # residuals of ~1e-6, where the off-diagonal weight of 2 in each
        # norm shows far above the bound in both dimensions
        for m, dec in decs[:200] + decs[-200:]:
            d = dec.d + 1e-6 * rng.standard_normal(dec.d.shape)
            decs.append((m, EigenDecomp3(*dec.lambdas, dec.angles, d)
                         if isinstance(dec, EigenDecomp3)
                         else EigenDecomp2(dec.lambda1, dec.lambda2,
                                           dec.phi, d)))
        def flat(res):
            recon, ortho, eigvec = res
            return [recon, ortho, *eigvec]

        for m, dec in decs:
            want = flat(exact(m, dec))
            for got in (residuals(m, dec), norm_reference(m, dec)):
                np.testing.assert_allclose(flat(got), want, rtol=0.0,
                                           atol=exact_atol, err_msg=repr(m))
