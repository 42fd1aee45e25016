"""Value types, angle wrapping and rotation constructors."""

import math
import pickle

import numpy as np
import pytest

from symdiag import (
    AngleOfZeroVector,
    Angles3,
    Branch,
    CubicCoeffs,
    EigenDecomp2,
    EigenDecomp3,
    NonFiniteInput,
    PQ,
    SolveReport,
    SymMat2,
    SymMat3,
    angle_of,
    compose_rotation,
    diagonalize2,
    diagonalize3,
    rot2,
    rot3x,
    rot3y,
    rot3z,
    wrap_half_pi,
    wrap_pi,
    wrapped_diff_mod_pi,
)

SQ2 = math.sqrt(2.0) / 2.0


class TestWrapping:
    def test_wrap_pi_interval(self):
        for phi in np.linspace(-20.0, 20.0, 1001):
            r = wrap_pi(phi)
            assert -math.pi < r <= math.pi
            assert abs(math.remainder(r - phi, 2.0 * math.pi)) < 1e-12

    def test_wrap_pi_boundary(self):
        assert wrap_pi(math.pi) == math.pi
        assert wrap_pi(-math.pi) == math.pi
        assert wrap_pi(0.0) == 0.0

    def test_wrap_half_pi_interval(self):
        for phi in np.linspace(-20.0, 20.0, 1001):
            r = wrap_half_pi(phi)
            assert -0.5 * math.pi < r <= 0.5 * math.pi
            assert abs(math.remainder(r - phi, math.pi)) < 1e-12

    def test_wrap_half_pi_boundary(self):
        assert wrap_half_pi(0.5 * math.pi) == 0.5 * math.pi
        assert wrap_half_pi(-0.5 * math.pi) == 0.5 * math.pi

    def test_wrapped_diff_symmetric_and_periodic(self):
        assert wrapped_diff_mod_pi(0.3, 0.3 + math.pi) < 1e-15
        assert wrapped_diff_mod_pi(0.3, 0.4) == pytest.approx(0.1)
        assert wrapped_diff_mod_pi(1.5, -1.5) == pytest.approx(math.pi - 3.0)


class TestRot2:
    def test_identity(self):
        np.testing.assert_allclose(rot2(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(rot2(0.5 * math.pi),
                                   [[0.0, -1.0], [1.0, 0.0]], atol=1e-16)

    def test_eighth_turn(self):
        np.testing.assert_allclose(rot2(0.25 * math.pi),
                                   [[SQ2, -SQ2], [SQ2, SQ2]], atol=1e-16)


class TestRot3:
    def test_rot3x_identity(self):
        np.testing.assert_allclose(rot3x(0.0), np.eye(3))

    def test_rot3y_quarter_turn_layout(self):
        # the +sin sits in the upper-right corner for the e2 axis
        np.testing.assert_allclose(
            rot3y(0.5 * math.pi),
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], atol=1e-16)

    def test_rot3z_quarter_turn(self):
        np.testing.assert_allclose(
            rot3z(0.5 * math.pi),
            [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-16)


class TestComposeRotation:
    def test_identity(self):
        np.testing.assert_allclose(compose_rotation((0.0, 0.0, 0.0)), np.eye(3))

    def test_single_factor(self):
        np.testing.assert_allclose(compose_rotation((0.5 * math.pi, 0.0, 0.0)),
                                   rot3x(0.5 * math.pi))

    def test_orthogonality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = compose_rotation(tuple(rng.uniform(-math.pi, math.pi, 3)))
            assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-14

    def test_accepts_angles3(self):
        a = Angles3(0.1, 0.2, 0.3)
        np.testing.assert_allclose(compose_rotation(a),
                                   compose_rotation((0.1, 0.2, 0.3)))


class TestAngleOf:
    def test_axes(self):
        assert angle_of((1.0, 0.0)) == 0.0
        assert angle_of((0.0, -1.0)) == -0.5 * math.pi
        assert angle_of((-1.0, 0.0)) == math.pi  # half-open (-pi, pi]

    def test_zero_vector_raises(self):
        with pytest.raises(AngleOfZeroVector):
            angle_of((0.0, 0.0))


class TestValueTypes:
    def test_symmat3_roundtrip(self):
        m = SymMat3(1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        assert SymMat3.from_array(m.to_array()) == m

    def test_symmat3_from_array_symmetrizes(self):
        a = np.array([[1.0, 0.1, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert SymMat3.from_array(a).a12 == pytest.approx(0.2)

    def test_fro_norm(self):
        m = SymMat3(1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        assert m.fro_norm() == pytest.approx(np.linalg.norm(m.to_array()))
        m2 = SymMat2(1.0, 2.0, 0.5)
        assert m2.fro_norm() == pytest.approx(np.linalg.norm(m2.to_array()))

    def test_scale_floor_is_one(self):
        assert SymMat3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).scale() == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            SymMat3(math.nan, 0, 0, 0, 0, 0)
        with pytest.raises(NonFiniteInput):
            SymMat2(math.inf, 0, 0)
        with pytest.raises(NonFiniteInput):
            Angles3(math.nan, 0.0, 0.0)

    def test_angles3_normalized_at_construction(self):
        a = Angles3(math.pi, 2.0, -2.0)
        assert abs(a.phi1) < 1e-15
        assert -0.5 * math.pi < a.phi2 <= 0.5 * math.pi
        assert -0.5 * math.pi < a.phi3 <= 0.5 * math.pi

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (9,), (3, 3, 1)])
    def test_from_array_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shape \(%s" % shape[0]):
            SymMat3.from_array(np.arange(float(np.prod(shape))).reshape(shape))


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


def one_of_each():
    """One instance of every value type, with distinct field values."""
    angles = Angles3(0.1, 0.2, 0.3)
    report = SolveReport((1, -1), ((1, 1, 0.1, 0.2, 0.1),), 1.5, 2.5, 1e-16,
                         True)
    return [SymMat2(1.0, 2.0, 0.5), SymMat3(1.0, 2.0, 3.0, 0.1, 0.2, 0.3),
            angles, report, CubicCoeffs(1.0, 2.0, 3.0), PQ(1.0, 2.0, 0.5),
            EigenDecomp2(3.0, 1.0, 0.25, np.eye(2)),
            EigenDecomp3(3.0, 1.0, 2.0, angles, np.eye(3),
                         Branch.DOUBLE_ROOT, report)]


class TestValueTypeContract:
    """Construction, immutability, equality and pickling of the value
    types; the same behaviour whatever they are built from."""

    FIELDS = {
        SymMat2: ("a11", "a22", "a12"),
        SymMat3: ("a11", "a22", "a33", "a12", "a13", "a23"),
        Angles3: ("phi1", "phi2", "phi3"),
        SolveReport: ("selected_signs", "phi1_candidates", "f1_norm",
                      "f2_norm", "recon_residual", "near_tie"),
        CubicCoeffs: ("b", "c", "d"),
        PQ: ("p", "q", "delta", "double_root"),
        EigenDecomp2: ("lambda1", "lambda2", "phi", "d"),
        EigenDecomp3: ("lambda1", "lambda2", "lambda3", "angles", "d",
                       "branch", "report"),
    }

    def test_positional_and_keyword_construction_in_field_order(self):
        for obj in one_of_each():
            names = self.FIELDS[type(obj)]
            values = [getattr(obj, k) for k in names]
            by_position = type(obj)(*values)
            by_keyword = type(obj)(**dict(zip(names, values)))
            for built in (by_position, by_keyword):
                for k, v in zip(names, values):
                    got = getattr(built, k)
                    assert got is v or (type(got) is float
                                        and same_bits(got, v)), (obj, k)

    def test_defaults(self):
        r = SolveReport()
        assert (r.selected_signs, r.phi1_candidates, r.f1_norm, r.f2_norm,
                r.near_tie) == ((1, 1), (), 0.0, 0.0, False)
        assert math.isnan(r.recon_residual)
        pq = PQ(1.0, 2.0)
        assert pq.delta is None and pq.double_root is False
        dec = EigenDecomp3(1.0, 1.0, 1.0, Angles3(0.0, 0.0, 0.0), np.eye(3))
        assert dec.branch is Branch.GENERIC
        assert dec.report == SolveReport()

    def test_numpy_components_stored_as_python_floats(self):
        row = np.random.default_rng(3).uniform(-1.0, 1.0, 6)
        for m in (SymMat3(*row), SymMat2(*row[:3]),
                  SymMat3(*row.astype(np.float32)), SymMat2(1, 2, True)):
            for k in self.FIELDS[type(m)]:
                assert type(getattr(m, k)) is float, (m, k)
        m = SymMat3(*row)
        assert same_bits([getattr(m, k) for k in self.FIELDS[SymMat3]], row)

    @pytest.mark.parametrize("cls", [SymMat2, SymMat3, Angles3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     np.float64(math.nan)])
    def test_non_finite_component_raises(self, cls, bad):
        n = len(self.FIELDS[cls])
        for i in range(n):
            args = [0.5] * n
            args[i] = bad
            with pytest.raises(NonFiniteInput, match=cls.__name__):
                cls(*args)

    @pytest.mark.parametrize("cls", [SymMat2, SymMat3, Angles3])
    @pytest.mark.parametrize("bad, exc", [("1.0", TypeError),
                                          (None, TypeError),
                                          (10**400, OverflowError)])
    def test_non_number_component_raises(self, cls, bad, exc):
        n = len(self.FIELDS[cls])
        for i in range(n):
            args = [0.5] * n
            args[i] = bad
            with pytest.raises(exc):
                cls(*args)

    def test_angles3_wraps_bitwise_like_wrap_half_pi(self):
        cases = (0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi, -0.0,
                 0.0, 2.0, -2.0, 7.5, 1e-300)
        for phi in cases:
            a = Angles3(phi, -phi, 0.3)
            assert same_bits([a.phi1, a.phi2, a.phi3],
                             [wrap_half_pi(phi), wrap_half_pi(-phi),
                              wrap_half_pi(0.3)]), phi

    def test_fields_cannot_be_assigned(self):
        for obj in one_of_each():
            for k in self.FIELDS[type(obj)]:
                with pytest.raises(AttributeError):
                    setattr(obj, k, 0.0)
                with pytest.raises(AttributeError):
                    delattr(obj, k)

    def test_same_type_equality(self):
        for obj, twin in zip(one_of_each(), one_of_each()):
            assert obj == twin and not obj != twin, type(obj)
            assert hash(obj) == hash(twin), type(obj)
        assert SymMat3(1, 2, 3, 0, 0, 0) != SymMat3(1, 2, 3, 0, 0, 1e-300)
        assert Angles3(0.1, 0.2, 0.3) != Angles3(0.1, 0.2, -0.3)

    def test_decomposition_equality_ignores_d(self):
        dec2, dec3 = one_of_each()[-2:]
        assert EigenDecomp3(3.0, 1.0, 2.0, dec3.angles, -np.eye(3),
                            dec3.branch, dec3.report) == dec3
        assert EigenDecomp2(3.0, 1.0, 0.25, -np.eye(2)) == dec2
        assert EigenDecomp3(3.0, 1.0, 2.0, dec3.angles, dec3.d,
                            Branch.GENERIC, dec3.report) != dec3
        assert EigenDecomp2(3.0, 1.0, 0.5, dec2.d) != dec2

    def test_pickle_round_trip(self):
        solved = [diagonalize2(SymMat2(1.0, 2.0, 0.5)),
                  diagonalize3(SymMat3(1.0, 2.0, 3.0, 0.1, 0.2, 0.3))]
        for obj in one_of_each() + solved:
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj) and back == obj, type(obj)
            if isinstance(obj, (EigenDecomp2, EigenDecomp3)):
                assert isinstance(obj.d, np.ndarray), type(obj)
                assert back.d.tobytes() == obj.d.tobytes()

    def test_repr_names_the_fields(self):
        assert repr(SymMat3(1, 2, 3, 0.1, 0.2, 0.3)) == (
            "SymMat3(a11=1.0, a22=2.0, a33=3.0, a12=0.1, a13=0.2, a23=0.3)")
        assert repr(Angles3(0.1, 0.2, 0.3)) == (
            "Angles3(phi1=0.1, phi2=0.2, phi3=0.3)")
        assert repr(EigenDecomp2(3.0, 1.0, 0.25, np.eye(2))).startswith(
            "EigenDecomp2(lambda1=3.0, lambda2=1.0, phi=0.25, d=array(")
        assert repr(diagonalize2(SymMat2(3.0, 1.0, 0.0))).startswith(
            "EigenDecomp2(lambda1=3.0, lambda2=1.0, phi=0.0, d=array(")
        assert ", d=array([[" in repr(diagonalize3(SymMat3(3, 2, 1, 0, 0, 0)))

    def test_solver_d_is_built_on_first_read_and_kept(self):
        """The solvers hand D over as floats; d builds the float64 array
        from them once, and d_entries gives the floats whichever is held."""
        for n, dec in ((2, diagonalize2(SymMat2(1.0, 2.0, 0.5))),
                       (3, diagonalize3(SymMat3(1.0, 2.0, 3.0, 0.1, 0.2,
                                                0.3)))):
            entries = dec.d_entries
            assert type(entries) is tuple and len(entries) == n * n
            assert all(type(x) is float for x in entries)
            d = dec.d
            assert d is dec.d
            assert d.dtype == np.float64 and d.shape == (n, n)
            assert same_bits(d.ravel().tolist(), entries)
            assert same_bits(dec.d_entries, entries)
            with pytest.raises(AttributeError):
                dec.d = d.copy()
            assert dec.d is d

    def test_replace_goes_through_the_checks(self):
        m = SymMat3(1, 2, 3, 0, 0, 0)
        assert m._replace(a23=np.float64(0.5)) == SymMat3(1, 2, 3, 0, 0, 0.5)
        assert type(m._replace(a23=np.float64(0.5)).a23) is float
        with pytest.raises(NonFiniteInput):
            m._replace(a11=math.nan)
        assert Angles3(0.1, 0.2, 0.3)._replace(phi1=math.pi).phi1 == 0.0
