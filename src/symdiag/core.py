"""Shared value types and rotation-matrix constructors.

Matrices are plain dense numpy arrays; the symmetric inputs, angle triples
and decomposition results are small frozen dataclasses.  Everything here is
immutable after construction and safe to share between threads.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class NonFiniteInput(ValueError):
    """A matrix or vector component is NaN or infinite."""


class AngleOfZeroVector(ValueError):
    """angle_of was called with the zero vector."""


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInput(f"{name}: non-finite component {v!r}")


def _store_finite_floats(obj):
    """Check every field of a matrix value type and store it as a Python float.

    Rows sliced from numpy arrays arrive as numpy scalars, whose arithmetic
    takes numpy's slow scalar path; converting once here keeps the whole
    solver on plain floats.  The values (IEEE doubles) are unchanged.
    """
    fields = obj.__dict__
    for k, v in fields.items():
        if not math.isfinite(v):
            raise NonFiniteInput(
                f"{type(obj).__name__}: non-finite component {v!r}")
        fields[k] = float(v)


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


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored by its unique components, as Python floats."""

    a11: float
    a22: float
    a12: float

    def __post_init__(self):
        _store_finite_floats(self)

    def to_array(self):
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def fro_norm(self):
        return math.sqrt(self.a11**2 + self.a22**2 + 2.0 * self.a12**2)

    def scale(self):
        """max(1, ||A||_F), the normalizer used by all tolerances."""
        return max(1.0, self.fro_norm())


@dataclass(frozen=True)
class SymMat3:
    """Symmetric 3x3 matrix stored by its six unique components, as Python
    floats.

    Symmetry is structural: a21 = a12 etc. by construction, never checked.
    """

    a11: float
    a22: float
    a33: float
    a12: float
    a13: float
    a23: float

    def __post_init__(self):
        _store_finite_floats(self)

    @classmethod
    def from_array(cls, m):
        m = np.asarray(m, dtype=float)
        return cls(a11=m[0, 0], a22=m[1, 1], a33=m[2, 2],
                   a12=0.5 * (m[0, 1] + m[1, 0]),
                   a13=0.5 * (m[0, 2] + m[2, 0]),
                   a23=0.5 * (m[1, 2] + m[2, 1]))

    def to_array(self):
        return np.array([[self.a11, self.a12, self.a13],
                         [self.a12, self.a22, self.a23],
                         [self.a13, self.a23, self.a33]])

    def fro_norm(self):
        return math.sqrt(self.a11**2 + self.a22**2 + self.a33**2
                         + 2.0 * (self.a12**2 + self.a13**2 + self.a23**2))

    def scale(self):
        return max(1.0, self.fro_norm())


@dataclass(frozen=True)
class Angles3:
    """Rotation angles (phi1, phi2, phi3) about the fixed basis axes e1, e2, e3.

    Per the Euler-sequence identity these same values, applied in reverse
    order about rotating axes, give the Euler angles of the eigenvectors.
    Each angle is normalized to (-pi/2, pi/2] at construction.
    """

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        _require_finite("Angles3", self.phi1, self.phi2, self.phi3)
        object.__setattr__(self, "phi1", wrap_half_pi(self.phi1))
        object.__setattr__(self, "phi2", wrap_half_pi(self.phi2))
        object.__setattr__(self, "phi3", wrap_half_pi(self.phi3))

    def as_tuple(self):
        return (self.phi1, self.phi2, self.phi3)


class Branch(enum.Enum):
    GENERIC = "Generic"
    TRIPLE_ROOT = "TripleRoot"
    DOUBLE_ROOT = "DoubleRoot"
    ALREADY_DIAGONAL_2D = "AlreadyDiagonal2D"


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics for one 3x3 solve.

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


@dataclass(frozen=True)
class EigenDecomp2:
    """Result of diagonalizing a SymMat2: A = D . diag(l1, l2) . D^T."""

    lambda1: float
    lambda2: float
    phi: float
    d: np.ndarray = field(compare=False)

    @classmethod
    def from_angle(cls, lambda1, lambda2, phi):
        return cls(lambda1=lambda1, lambda2=lambda2, phi=phi, d=rot2(phi))


@dataclass(frozen=True)
class EigenDecomp3:
    """Result of diagonalizing a SymMat3: A = D . diag(l1, l2, l3) . D^T.

    Eigenvalues are reported in the order the angle equations assume (the
    cubic-solution order, possibly permuted so a repeated pair comes first);
    they are deliberately not sorted.  d equals
    rot3x(phi1) . rot3y(phi2) . rot3z(phi3) by construction.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    angles: Angles3
    d: np.ndarray = field(compare=False)
    branch: Branch = Branch.GENERIC
    report: SolveReport = field(default_factory=SolveReport)

    @property
    def lambdas(self):
        return (self.lambda1, self.lambda2, self.lambda3)

    def lambdas_sorted(self):
        """Convenience descending view; the solver order is authoritative."""
        return tuple(sorted(self.lambdas, reverse=True))


def rot2(phi):
    """2-dimensional anti-clockwise rotation matrix."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def rot3x(phi1):
    """Anti-clockwise rotation about the fixed axis e1."""
    c, s = math.cos(phi1), math.sin(phi1)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot3y(phi2):
    """Anti-clockwise rotation about the fixed axis e2 (note +sin upper right)."""
    c, s = math.cos(phi2), math.sin(phi2)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot3z(phi3):
    """Anti-clockwise rotation about the fixed axis e3."""
    c, s = math.cos(phi3), math.sin(phi3)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def compose_rotation(angles):
    """Product rot3x(phi1) . rot3y(phi2) . rot3z(phi3), in exactly that order.

    Every entry of rot3x . rot3y is a single product plus exact zeros, so it
    is written out; the "+ 0.0" gives the +0 a matrix product sums to where
    that single product is -0.  The result is bitwise that of the two
    matrix products.
    """
    if isinstance(angles, Angles3):
        p1, p2, p3 = angles.as_tuple()
    else:
        p1, p2, p3 = angles
    c1, s1 = math.cos(p1), math.sin(p1)
    c2, s2 = math.cos(p2), math.sin(p2)
    xy = np.array([[c2, 0.0, s2 + 0.0],
                   [s1 * s2 + 0.0, c1, -s1 * c2 + 0.0],
                   [-c1 * s2 + 0.0, s1 + 0.0, c1 * c2]])
    return xy @ rot3z(p3)


def angle_of(r):
    """Anti-clockwise angle of a 2-vector w.r.t. the positive x-axis, in (-pi, pi]."""
    x, y = float(r[0]), float(r[1])
    if x == 0.0 and y == 0.0:
        raise AngleOfZeroVector("angle_of requires a nonzero vector")
    a = math.atan2(y, x)
    if a == -math.pi:
        a = math.pi
    return a
