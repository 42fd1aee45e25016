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
from symdiag import Angles3, oracle
from symdiag.core import rotation_entries
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

    def test_overflowing_norm_is_prescaled(self):
        """Where squaring an entry overflows, the residuals are those of
        the same matrix and eigenvalues at a smaller power-of-two scale:
        bit for bit those at the scale where the largest |entry| lies in
        [1, 2), so that max(1, ||A||_F) = ||A||_F.  A decomposition with an
        infinite eigenvalue still raises."""
        def unit(entries):
            exp = math.frexp(max(map(abs, entries)))[1] - 1
            return [math.ldexp(x, -exp) for x in entries]

        rng = np.random.default_rng(56)
        for _ in range(200):
            m3 = SymMat3(*unit(random_sym3(rng)))
            m2 = SymMat2(*unit(random_sym2(rng)))
            dec3, dec2 = diagonalize3(m3), diagonalize2(m2)
            for k in (520, 1000):
                big3 = SymMat3(*(math.ldexp(x, k) for x in m3))
                lambdas = (math.ldexp(x, k) for x in dec3.lambdas)
                got = residuals(big3, EigenDecomp3(*lambdas, dec3.angles,
                                                   dec3.d_entries))
                assert got == residuals(m3, dec3), m3
                big2 = SymMat2(*(math.ldexp(x, k) for x in m2))
                got = residuals(big2, EigenDecomp2(
                    math.ldexp(dec2.lambda1, k), math.ldexp(dec2.lambda2, k),
                    dec2.phi, dec2.d_entries))
                assert got == residuals(m2, dec2), m2
        with pytest.raises(OverflowError):
            residuals(SymMat2(1e300, -1e300, 0.0), EigenDecomp2(
                math.inf, -1e300, 0.0, (1.0, 0.0, 0.0, 1.0)))

    def test_2x2_is_the_leading_block_of_its_3x3_embedding(self):
        """A 2x2's residuals are, bit for bit, those of the 3x3 diag(A, 0)
        with D = Rz(phi) and lambda3 = 0, whose third eigenvector residual
        is 0: the identity residuals relies on to use one formula for both
        sizes.  Held at scales whose squares overflow and underflow too."""
        rng = np.random.default_rng(57)
        for k in (0, 520, 1000, -600):
            for _ in range(500):
                a11, a22, a12 = (math.ldexp(x, k) for x in random_sym2(rng))
                m2 = SymMat2(a11, a22, a12)
                dec2 = diagonalize2(m2)
                phi = dec2.phi
                m3 = SymMat3(a11, a22, 0.0, a12, 0.0, 0.0)
                dec3 = EigenDecomp3(dec2.lambda1, dec2.lambda2, 0.0,
                                    Angles3(0.0, 0.0, phi),
                                    rotation_entries(0.0, 0.0, phi))
                recon, ortho, eigvec = residuals(m3, dec3)
                assert repr(residuals(m2, dec2)) == repr(
                    (recon, ortho, eigvec[:2])), m2
                assert repr(eigvec[2]) == "0.0", m2


def residuals_reference(a, dec):
    """residuals as written with a loop around its prescale and a helper
    for the two norms, kept as the bit-for-bit reference.  Where the
    squares are finite but their sum overflows, it prescales as where a
    square overflows."""
    def sym_norm3(e11, e22, e33, e12, e13, e23):
        return math.sqrt(e11 * e11 + e22 * e22 + e33 * e33
                         + 2.0 * (e12 * e12 + e13 * e13 + e23 * e23))

    d = dec.d_entries
    if len(d) == 4:
        a11, a22, a12 = a
        a33 = a13 = a23 = 0.0
        l1, l2, l3 = dec.lambda1, dec.lambda2, 0.0
        d11, d12, d21, d22 = d
        d13 = d23 = d31 = d32 = 0.0
        d33 = 1.0
    else:
        a11, a22, a33, a12, a13, a23 = a
        l1, l2, l3 = dec.lambda1, dec.lambda2, dec.lambda3
        d11, d12, d13, d21, d22, d23, d31, d32, d33 = d
    while True:
        try:
            scale = math.sqrt(a11**2 + a22**2 + a33**2
                              + 2.0 * (a12**2 + a13**2 + a23**2))
            if math.isinf(scale):
                raise OverflowError("the sum of the squares overflows")
            break
        except OverflowError:
            if not (math.isfinite(l1) and math.isfinite(l2)
                    and math.isfinite(l3)):
                raise
            e = 1 - math.frexp(max(map(abs, a)))[1]
            a11, a22, a33, a12, a13, a23, l1, l2, l3 = [
                math.ldexp(x, e)
                for x in (a11, a22, a33, a12, a13, a23, l1, l2, l3)]
    if not scale > 1.0:
        scale = 1.0
    p11, p12, p13 = d11 * l1, d12 * l2, d13 * l3
    p21, p22, p23 = d21 * l1, d22 * l2, d23 * l3
    p31, p32, p33 = d31 * l1, d32 * l2, d33 * l3
    recon = sym_norm3(p11 * d11 + p12 * d12 + p13 * d13 - a11,
                      p21 * d21 + p22 * d22 + p23 * d23 - a22,
                      p31 * d31 + p32 * d32 + p33 * d33 - a33,
                      p11 * d21 + p12 * d22 + p13 * d23 - a12,
                      p11 * d31 + p12 * d32 + p13 * d33 - a13,
                      p21 * d31 + p22 * d32 + p23 * d33 - a23)
    ortho = sym_norm3(d11 * d11 + d21 * d21 + d31 * d31 - 1.0,
                      d12 * d12 + d22 * d22 + d32 * d32 - 1.0,
                      d13 * d13 + d23 * d23 + d33 * d33 - 1.0,
                      d11 * d12 + d21 * d22 + d31 * d32,
                      d11 * d13 + d21 * d23 + d31 * d33,
                      d12 * d13 + d22 * d23 + d32 * d33)
    eigvec = [
        math.sqrt((a11 * d11 + a12 * d21 + a13 * d31 - l1 * d11) ** 2
                  + (a12 * d11 + a22 * d21 + a23 * d31 - l1 * d21) ** 2
                  + (a13 * d11 + a23 * d21 + a33 * d31 - l1 * d31) ** 2)
        / scale,
        math.sqrt((a11 * d12 + a12 * d22 + a13 * d32 - l2 * d12) ** 2
                  + (a12 * d12 + a22 * d22 + a23 * d32 - l2 * d22) ** 2
                  + (a13 * d12 + a23 * d22 + a33 * d32 - l2 * d32) ** 2)
        / scale]
    if len(d) == 9:
        eigvec.append(
            math.sqrt((a11 * d13 + a12 * d23 + a13 * d33 - l3 * d13) ** 2
                      + (a12 * d13 + a22 * d23 + a23 * d33 - l3 * d23) ** 2
                      + (a13 * d13 + a23 * d23 + a33 * d33 - l3 * d33) ** 2)
            / scale)
    return recon / scale, ortho, eigvec


class TestResidualsPin:
    """residuals gives, bit for bit, what residuals_reference gives."""

    def test_bit_identical_to_the_reference(self):
        """20 400 decompositions: 3x3 and 2x2, random, clustered
        (DoubleRoot), structured and small-integer, at unit scale and with
        the entries of each matrix scaled by 2^k, k uniform in
        [-1070, 1020], so that squares underflow, overflow (the prescale)
        or both; and a fifth with D perturbed by 1e-6, so that the
        residuals are far from rounding level."""
        rng = np.random.default_rng(58)
        mats = [random_sym3(rng) for _ in range(3000)]
        mats += [clustered_sym3(rng, (0.0, 1e-9, 1.0)[i % 3])
                 for i in range(1500)]
        mats += [structured_sym3(rng) for _ in range(1000)]
        mats += [SymMat3(*row) for row in rng.integers(-3, 4, (500, 6))]
        mats += [SymMat3(*(math.ldexp(x, k) for x in random_sym3(rng)))
                 for k in rng.integers(-1070, 1021, 6000).tolist()]
        mats += [random_sym2(rng) for _ in range(2000)]
        mats += [SymMat2(*row) for row in rng.integers(-3, 4, (500, 3))]
        mats += [SymMat2(*(math.ldexp(x, k) for x in random_sym2(rng)))
                 for k in rng.integers(-1070, 1021, 2500).tolist()]
        decs = [(m, diagonalize3(m) if isinstance(m, SymMat3)
                 else diagonalize2(m)) for m in mats]
        for m, dec in decs[::5]:
            d = tuple(x + 1e-6 * rng.standard_normal()
                      for x in dec.d_entries)
            decs.append((m, EigenDecomp3(*dec.lambdas, dec.angles, d)
                         if isinstance(dec, EigenDecomp3)
                         else EigenDecomp2(dec.lambda1, dec.lambda2,
                                           dec.phi, d)))
        assert len(decs) >= 20_000
        prescaled = 0
        for m, dec in decs:
            assert repr(residuals(m, dec)) == repr(
                residuals_reference(m, dec)), m
            prescaled += max(map(abs, m)) > 2.0**511
        assert prescaled > 1000

    @pytest.mark.parametrize("m, dec", [
        (SymMat3(1e300, 1.0, -1e300, 0.0, 0.0, 0.0),
         EigenDecomp3(math.inf, 1.0, -1e300, Angles3(0.0, 0.0, 0.0),
                      rotation_entries(0.0, 0.0, 0.0))),
        (SymMat3(1e300, 1.0, -1e300, 0.0, 0.0, 0.0),
         EigenDecomp3(1e300, math.nan, -1e300, Angles3(0.0, 0.0, 0.0),
                      rotation_entries(0.0, 0.0, 0.0))),
        (SymMat2(1e300, -1e300, 0.0),
         EigenDecomp2(1e300, -math.inf, 0.0, (1.0, 0.0, 0.0, 1.0))),
    ])
    def test_same_raise_on_a_non_finite_eigenvalue(self, m, dec):
        """Where a square overflows and an eigenvalue is not finite, both
        raise OverflowError."""
        with pytest.raises(OverflowError):
            residuals_reference(m, dec)
        with pytest.raises(OverflowError):
            residuals(m, dec)

    @pytest.mark.parametrize("m", [
        SymMat3(1.2e154, 1.2e154, 1.2e154, 1.2e154, 1.1e154, 1.2e154),
        SymMat2(1.3e154, -1.2e154, 1.25e154),
    ])
    def test_prescaled_where_the_sum_of_squares_overflows(self, m):
        """Every square is finite but their sum is not.  The residuals are
        those of the matrix and eigenvalues scaled by the power of two that
        puts the largest |entry| in [1, 2), bit for bit, and not 0."""
        assert all(math.isfinite(x**2) for x in m)
        k = 3 if isinstance(m, SymMat3) else 2  # the diagonal entries
        assert math.isinf(sum(x**2 for x in m[:k])
                          + 2.0 * sum(x**2 for x in m[k:]))
        e = 1 - math.frexp(max(map(abs, m)))[1]
        small = type(m)(*(math.ldexp(x, e) for x in m))
        if isinstance(m, SymMat3):
            dec = diagonalize3(m)
            dec_small = EigenDecomp3(
                *(math.ldexp(x, e) for x in dec.lambdas), dec.angles,
                dec.d_entries)
        else:
            dec = diagonalize2(m)
            dec_small = EigenDecomp2(
                math.ldexp(dec.lambda1, e), math.ldexp(dec.lambda2, e),
                dec.phi, dec.d_entries)
        got = residuals(m, dec)
        assert repr(got) == repr(residuals(small, dec_small)), m
        assert got[0] > 0.0 and max(got[2]) > 0.0, got
        assert repr(got) == repr(residuals_reference(m, dec)), m

    def test_same_values_on_a_non_finite_eigenvalue_at_unit_scale(self):
        """Where no square overflows, neither raises, and both give the
        same inf and nan."""
        m = SymMat3(2.0, 1.0, 0.5, 0.0, 0.0, 0.0)
        for lambdas in ((math.inf, 1.0, 0.5), (2.0, math.nan, 0.5),
                        (2.0, 1.0, -math.inf)):
            dec = EigenDecomp3(*lambdas, Angles3(0.0, 0.0, 0.0),
                               rotation_entries(0.0, 0.0, 0.0))
            assert repr(residuals(m, dec)) == repr(
                residuals_reference(m, dec))
