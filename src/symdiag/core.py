"""Shared value types and rotation-matrix constructors.

The solver works on Python floats; numpy is imported only by what returns
or takes an array (to_array, from_array, the rot* constructors,
compose_rotation and a decomposition's d), on its first call.  The
symmetric inputs (SymMat2, SymMat3), the angle triple (Angles3) and the
solve diagnostics (SolveReport) are named tuples, so they unpack, index,
hash and compare as tuples do: SymMat3(3, 2, 1, 0, 0, 0) == (3.0, 2.0,
1.0, 0.0, 0.0, 0.0), and two of them with equal values compare equal
whatever their types.  The decomposition results (EigenDecomp2,
EigenDecomp3) are __slots__ records that compare field by field, leaving
out D; they keep D as its float entries until d is read.  Everything here
is immutable after construction and safe to share between threads, except
that the first read of d stores the array it builds (building it twice
gives equal arrays, and either is kept).
"""

import enum
import math
from typing import NamedTuple


class NonFiniteInput(ValueError):
    """A matrix or vector component is NaN or infinite."""


class AngleOfZeroVector(ValueError):
    """angle_of was called with the zero vector."""


# the value-type constructors run on every solve; aliases save a lookup
_isfinite = math.isfinite
_tuple_new = tuple.__new__


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInput(f"{name}: non-finite component {v!r}")


def _checked_make(cls, values):
    """_make, and so _replace, through the checking constructor."""
    return cls(*values)


def wrap_pi(phi):
    """Wrap an angle to the half-open interval (-pi, pi]."""
    r = math.remainder(phi, 2.0 * math.pi)
    if r <= -math.pi:
        r = math.pi
    return r + 0.0 if r != 0.0 else 0.0


def wrap_half_pi(phi):
    """Canonical mod-pi representative in (-pi/2, pi/2].

    Eigenvector pairs +/-v make every rotation angle meaningful only mod pi,
    so solver outputs are reduced to this interval.
    """
    r = math.remainder(phi, math.pi)
    if r <= -0.5 * math.pi:
        r = 0.5 * math.pi
    return r if r != 0.0 else 0.0


def wrapped_diff_mod_pi(a, b):
    """Distance between two angles on the circle of period pi (range [0, pi/2])."""
    return abs(math.remainder(a - b, math.pi))


class _SymMat2(NamedTuple):
    a11: float
    a22: float
    a12: float


class SymMat2(_SymMat2):
    """Symmetric 2x2 matrix stored by its unique components, as Python floats.

    A named tuple (a11, a22, a12).  Construction raises NonFiniteInput on
    a NaN or infinite component and converts the rest to float.
    """

    __slots__ = ()

    def __new__(cls, a11, a22, a12):
        if not (_isfinite(a11) and _isfinite(a22) and _isfinite(a12)):
            _require_finite("SymMat2", a11, a22, a12)
        return _tuple_new(cls, (float(a11), float(a22), float(a12)))

    _make = classmethod(_checked_make)

    def to_array(self):
        import numpy as np
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def fro_norm(self):
        return math.sqrt(self.a11**2 + self.a22**2 + 2.0 * self.a12**2)

    def scale(self):
        """max(1, ||A||_F), the normalizer used by all tolerances."""
        return max(1.0, self.fro_norm())


class _SymMat3(NamedTuple):
    a11: float
    a22: float
    a33: float
    a12: float
    a13: float
    a23: float


class SymMat3(_SymMat3):
    """Symmetric 3x3 matrix stored by its six unique components, as Python
    floats.

    A named tuple (a11, a22, a33, a12, a13, a23).  Construction raises
    NonFiniteInput on a NaN or infinite component and converts the rest to
    float: rows sliced from numpy arrays arrive as numpy scalars, whose
    arithmetic takes numpy's slow scalar path, so the whole solver runs on
    plain floats with the same IEEE values.  Symmetry is structural: a21 =
    a12 etc. by construction, never checked.
    """

    __slots__ = ()

    def __new__(cls, a11, a22, a33, a12, a13, a23):
        if not (_isfinite(a11) and _isfinite(a22) and _isfinite(a33)
                and _isfinite(a12) and _isfinite(a13) and _isfinite(a23)):
            _require_finite("SymMat3", a11, a22, a33, a12, a13, a23)
        return _tuple_new(cls, (float(a11), float(a22), float(a33),
                                float(a12), float(a13), float(a23)))

    _make = classmethod(_checked_make)

    @classmethod
    def from_array(cls, m):
        """The symmetric part of a 3x3 array; any other shape raises
        ValueError."""
        import numpy as np
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"SymMat3.from_array needs a 3x3 array, "
                             f"got shape {m.shape}")
        return cls(m[0, 0], m[1, 1], m[2, 2],
                   0.5 * (m[0, 1] + m[1, 0]),
                   0.5 * (m[0, 2] + m[2, 0]),
                   0.5 * (m[1, 2] + m[2, 1]))

    def to_array(self):
        import numpy as np
        return np.array([[self.a11, self.a12, self.a13],
                         [self.a12, self.a22, self.a23],
                         [self.a13, self.a23, self.a33]])

    def fro_norm(self):
        return math.sqrt(self.a11**2 + self.a22**2 + self.a33**2
                         + 2.0 * (self.a12**2 + self.a13**2 + self.a23**2))

    def scale(self):
        return max(1.0, self.fro_norm())


class _Angles3(NamedTuple):
    phi1: float
    phi2: float
    phi3: float


class Angles3(_Angles3):
    """Rotation angles (phi1, phi2, phi3) about the fixed basis axes e1, e2, e3.

    Per the Euler-sequence identity these same values, applied in reverse
    order about rotating axes, give the Euler angles of the eigenvectors.
    A named tuple: construction raises NonFiniteInput on a NaN or infinite
    angle and stores each angle as wrap_half_pi of it, in (-pi/2, pi/2].
    """

    __slots__ = ()

    def __new__(cls, phi1, phi2, phi3):
        if not (_isfinite(phi1) and _isfinite(phi2) and _isfinite(phi3)):
            _require_finite("Angles3", phi1, phi2, phi3)
        return _tuple_new(cls, (wrap_half_pi(phi1), wrap_half_pi(phi2),
                                wrap_half_pi(phi3)))

    _make = classmethod(_checked_make)

    def as_tuple(self):
        return tuple(self)


class Branch(enum.Enum):
    GENERIC = "Generic"
    TRIPLE_ROOT = "TripleRoot"
    DOUBLE_ROOT = "DoubleRoot"
    ALREADY_DIAGONAL_2D = "AlreadyDiagonal2D"


class SolveReport(NamedTuple):
    """Diagnostics for one 3x3 solve, as a named tuple.

    phi1_candidates holds one entry per examined sign combination:
    (sign2, sign3, phi1 from the f1/g1 route, phi1 from the f2/g2 route,
    wrapped difference mod pi).  The Generic and AlreadyDiagonal2D branches
    examine (1, 1) and (1, -1), the two distinct rotations; DoubleRoot has
    one entry, (1, 1); TripleRoot none.  Entries are NaN where the
    corresponding route was unavailable.  near_tie flags a selection where
    the other, non-tied combination came within 1e-6 of the winner.
    """

    selected_signs: tuple = (1, 1)
    phi1_candidates: tuple = ()
    f1_norm: float = 0.0
    f2_norm: float = 0.0
    recon_residual: float = math.nan
    near_tie: bool = False


class _Decomp:
    """Immutable __slots__ record: fields are set once, by __init__.

    D is stored in the slot _d, either as the array it was given or as its
    entries row by row, a tuple of floats, as the solvers hand it over.
    The d property returns the array, building it from the entries on its
    first read and keeping it; d_entries returns the floats.  Assigning d
    raises, as for every field; object.__setattr__ sets it, as it sets any
    field.  Equality and hashing use every field but d; repr uses every
    field, pickling every field with D as stored.
    """

    __slots__ = ()

    def _get_d(self):
        d = self._d
        if type(d) is tuple:
            import numpy as np
            d = np.array(d).reshape(self._n, self._n)
            object.__setattr__(self, "_d", d)
        return d

    def _set_d(self, d):
        object.__setattr__(self, "_d", d)

    d = property(_get_d, _set_d, doc="D as an n x n array: the one given, "
                 "or the float64 array built from the entries.")

    @property
    def d_entries(self):
        """D's entries row by row, as Python floats, without building the
        array (from it, when d was given as one)."""
        d = self._d
        return d if type(d) is tuple else tuple(d.ravel().tolist())

    def _key(self):
        return tuple(getattr(self, k) for k in self._fields if k != "d")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{k}={getattr(self, k)!r}" for k in self._fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, "_d" if k == "d" else k)
                                 for k in self._fields)


class EigenDecomp2(_Decomp):
    """Result of diagonalizing a SymMat2: A = D . diag(l1, l2) . D^T.

    d may be given as a 2x2 array or as its entries row by row, a tuple of
    four floats.
    """

    __slots__ = ("lambda1", "lambda2", "phi", "_d")
    _fields = ("lambda1", "lambda2", "phi", "d")
    _n = 2

    def __init__(self, lambda1, lambda2, phi, d):
        _set2_lambda1(self, lambda1)
        _set2_lambda2(self, lambda2)
        _set2_phi(self, phi)
        _set2_d(self, d)

    @classmethod
    def from_angle(cls, lambda1, lambda2, phi):
        """The decomposition with D = rot2(phi), kept as its entries."""
        c, s = math.cos(phi), math.sin(phi)
        return cls(lambda1, lambda2, phi, (c, -s, s, c))


class EigenDecomp3(_Decomp):
    """Result of diagonalizing a SymMat3: A = D . diag(l1, l2, l3) . D^T.

    Eigenvalues are reported in the order the angle equations assume (the
    cubic-solution order, possibly permuted so a repeated pair comes first);
    they are deliberately not sorted.  d may be given as a 3x3 array or as
    its entries row by row, a tuple of nine floats; diagonalize3 gives
    rotation_entries(*angles), so d equals compose_rotation(angles): a
    fixed-order float product, at most 1.1e-16 per entry from numpy's
    matrix product and independent of the BLAS kernel.
    """

    __slots__ = ("lambda1", "lambda2", "lambda3", "angles", "_d", "branch",
                 "report")
    _fields = ("lambda1", "lambda2", "lambda3", "angles", "d", "branch",
               "report")
    _n = 3

    def __init__(self, lambda1, lambda2, lambda3, angles, d,
                 branch=Branch.GENERIC, report=SolveReport()):
        _set3_lambda1(self, lambda1)
        _set3_lambda2(self, lambda2)
        _set3_lambda3(self, lambda3)
        _set3_angles(self, angles)
        _set3_d(self, d)
        _set3_branch(self, branch)
        _set3_report(self, report)

    @property
    def lambdas(self):
        return (self.lambda1, self.lambda2, self.lambda3)

    def lambdas_sorted(self):
        """Convenience descending view; the solver order is authoritative."""
        return tuple(sorted(self.lambdas, reverse=True))


# The __init__s write each slot through its descriptor's __set__, which
# skips the raising __setattr__ and the name lookup of object.__setattr__.
_set2_lambda1, _set2_lambda2, _set2_phi, _set2_d = (
    getattr(EigenDecomp2, k).__set__ for k in EigenDecomp2.__slots__)
(_set3_lambda1, _set3_lambda2, _set3_lambda3, _set3_angles, _set3_d,
 _set3_branch, _set3_report) = (
    getattr(EigenDecomp3, k).__set__ for k in EigenDecomp3.__slots__)


def rot2(phi):
    """2-dimensional anti-clockwise rotation matrix."""
    import numpy as np
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def rot3x(phi1):
    """Anti-clockwise rotation about the fixed axis e1."""
    import numpy as np
    c, s = math.cos(phi1), math.sin(phi1)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot3y(phi2):
    """Anti-clockwise rotation about the fixed axis e2 (note +sin upper right)."""
    import numpy as np
    c, s = math.cos(phi2), math.sin(phi2)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot3z(phi3):
    """Anti-clockwise rotation about the fixed axis e3."""
    import numpy as np
    c, s = math.cos(phi3), math.sin(phi3)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_entries(phi1, phi2, phi3):
    """rot3x(phi1) . rot3y(phi2) . rot3z(phi3) as nine floats, row by row:
    the one D behind compose_rotation and the polish.  Each entry is summed
    in plain floats, without FMA; "+ 0.0" gives the +0 a matrix product
    sums to where an entry is -0."""
    c1, s1 = math.cos(phi1), math.sin(phi1)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    c3, s3 = math.cos(phi3), math.sin(phi3)
    s1s2, c1s2 = s1 * s2, c1 * s2
    return (c2 * c3 + 0.0, -c2 * s3 + 0.0, s2 + 0.0,
            s1s2 * c3 + c1 * s3 + 0.0, c1 * c3 - s1s2 * s3 + 0.0,
            -s1 * c2 + 0.0,
            s1 * s3 - c1s2 * c3 + 0.0, c1s2 * s3 + s1 * c3 + 0.0,
            c1 * c2 + 0.0)


def compose_rotation(angles):
    """Product rot3x(phi1) . rot3y(phi2) . rot3z(phi3), in exactly that order:
    rotation_entries as a 3x3 array, at most 1.1e-16 per entry from numpy's
    matrix product and, unlike it, independent of the BLAS kernel."""
    import numpy as np
    return np.array(rotation_entries(*angles)).reshape(3, 3)


def angle_of(r):
    """Anti-clockwise angle of a 2-vector w.r.t. the positive x-axis, in (-pi, pi]."""
    x, y = float(r[0]), float(r[1])
    if x == 0.0 and y == 0.0:
        raise AngleOfZeroVector("angle_of requires a nonzero vector")
    a = math.atan2(y, x)
    if a == -math.pi:
        a = math.pi
    return a
