"""Closed-form diagonalization of a 3x3 real symmetric matrix.

Eigenvalues come from the trigonometric solution of the characteristic
cubic; the orthogonal factor D is recovered as three rotation angles
(phi1, phi2, phi3) about the fixed basis axes.  On the generic branch the
squared cosines of phi2 and phi3 are rational in the matrix entries and
eigenvalues, clamped to [0, 1] (_clamp_unit), which leaves their signs.
D is invariant under (phi1 + pi, -phi2, -phi3), so resolve_signs scores
(+,+) and (+,-) by how well two estimates of phi1 agree, in one
straight-line routing body (_route_phi1) on the g-vector formula
(_g_components), with the twin rule that keeps the signs right when an
angle is wrapped by pi (as _half_turn_apart, which the Jacobi correction
calls).  One Jacobi correction (_polish_angles) recovers the digits
arccos(sqrt(.)) loses near 0 and pi/2.  The double-root branch
(degenerate_double) scores nothing: the distinct root's eigenvector gives
phi1 and phi2, and eig2's kernel on the pair's 2x2 block gives phi3 and
the pair.  compute_pq's classification alone picks the branch, and
diagonalize3 builds each solve's one SolveReport, on A normalized as it
says.

Eigenvalues are kept in the order the angle equations assume:
lambda1 >= lambda3 >= lambda2 from the cosine placement in the cubic
solution, or (pair, pair, distinct) on the double-root branch.
"""

import math
from typing import NamedTuple

# compose_rotation is not called here: diagonalize3 hands rotation_entries'
# floats to EigenDecomp3.  It stays a name of this module, which the
# benchmark's layer trace (perfbench/spans.py) patches.
from .core import (
    Angles3,
    Branch,
    EigenDecomp3,
    SolveReport,
    SymMat3,
    compose_rotation,
    rotation_entries,
    wrap_half_pi,
)
from .eig2 import _solve2

# CubicCoeffs, PQ, SolveReport and Angles3 are built once per solve;
# tuple.__new__ fills them without running a Python-level __new__.
_tuple_new = tuple.__new__
_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
_TWO_PI_3 = 2.0 * math.pi / 3.0
_ZERO_ANGLES = Angles3(0.0, 0.0, 0.0)  # of every TripleRoot result
# A global name is read faster than an Enum member through its class.
_GENERIC = Branch.GENERIC
_TRIPLE_ROOT = Branch.TRIPLE_ROOT
_DOUBLE_ROOT = Branch.DOUBLE_ROOT
_ALREADY_DIAGONAL_2D = Branch.ALREADY_DIAGONAL_2D
# The solve path compares where it would call min or max, which costs more
# than the comparison.  max(a, x) is written `x if x > a else a` and
# min(a, x) `x if x < a else a`: both return what the builtin returns, NaN
# and the first of equal arguments included.

# f-vector norms at or below F_ZERO_EPS * scale are treated as zero.
F_ZERO_EPS = 1e-14
# Below V_ZERO_EPS the w quotient is rounding noise; the v = 0 rule gives w = 1.
V_ZERO_EPS = 1e-12
# compute_pq's arccos argument may round past +-1 by at most CLAMP_SLACK;
# anything worse means broken input.  The squared cosines are clamped.
CLAMP_SLACK = 1e-9
# Two sign combinations tie when their wrapped differences are this close.
TIE_EPS = 1e-12
# A non-tied runner-up inside NEAR_TIE_EPS of the winner is surfaced.
NEAR_TIE_EPS = 1e-6


class CubicCoeffs(NamedTuple):
    """Coefficients of the characteristic cubic l^3 - b l^2 + c l + d = 0."""

    b: float
    c: float
    d: float

    def scale(self):
        # sum of squared eigenvalues is b^2 - 2c
        return max(1.0, math.sqrt(max(self.b * self.b - 2.0 * self.c, 0.0)))


class PQ(NamedTuple):
    """Cubic invariants p, q and the arccos angle delta (absent near p = 0).

    double_root records compute_pq's classification of a repeated pair.
    """

    p: float
    q: float
    delta: float | None = None
    double_root: bool = False


def char_coeffs(a: SymMat3) -> CubicCoeffs:
    """Characteristic-cubic coefficients from the matrix entries.

    det(l I - A) = l^3 - b l^2 + c l + d: b is the trace, c the sum of the
    principal 2x2 minors and d = -det(A) (tests/test_identities.py).
    """
    a11, a22, a33, a12, a13, a23 = a
    b = a11 + a22 + a33
    c = a11 * a22 + a11 * a33 + a22 * a33 - a12**2 - a13**2 - a23**2
    d = (a11 * a23**2 + a22 * a13**2 + a33 * a12**2
         - a11 * a22 * a33 - 2.0 * a12 * a13 * a23)
    return _tuple_new(CubicCoeffs, (b, c, d))


def pq_expanded(a: SymMat3) -> tuple:
    """p and q evaluated directly from the matrix entries (the expanded forms).

    Algebraically identical to the b,c,d route; kept as an independent
    evaluation path so the two can be checked against each other.
    """
    off2 = a.a12**2 + a.a13**2 + a.a23**2
    p = 0.5 * ((a.a11 - a.a22) ** 2 + (a.a11 - a.a33) ** 2
               + (a.a22 - a.a33) ** 2) + 3.0 * off2
    q = (18.0 * (a.a11 * a.a22 * a.a33 + 3.0 * a.a12 * a.a13 * a.a23)
         + 2.0 * (a.a11**3 + a.a22**3 + a.a33**3)
         + 9.0 * (a.a11 + a.a22 + a.a33) * off2
         - 3.0 * (a.a11 + a.a22) * (a.a11 + a.a33) * (a.a22 + a.a33)
         - 27.0 * (a.a11 * a.a23**2 + a.a22 * a.a13**2 + a.a33 * a.a12**2))
    return p, q


def compute_pq(coeffs: CubicCoeffs) -> PQ:
    """Cubic invariants p = b^2 - 3c, q = 2b^3 - 9bc - 27d and the angle delta.

    4p^3 - q^2 = 27 (l1 - l2)^2 (l1 - l3)^2 (l2 - l3)^2, so the discriminant
    marks a repeated root; tests/test_identities.py checks this, and p and q
    against pq_expanded, symbolically.
    p is a sum of squares, so a tiny negative value is rounding and is
    clamped to zero.  delta is only defined above the triple-root threshold.
    Near a double root q/(2 sqrt(p^3)) legitimately rounds past +-1 and is
    clamped; an excursion beyond CLAMP_SLACK indicates broken input.
    """
    b, c, d = coeffs
    # CubicCoeffs.scale(), max(1, sqrt(max(t, 0))): sqrt(t) <= 1 for t <= 1
    t = b * b - 2.0 * c
    s = math.sqrt(t) if t > 1.0 else 1.0
    p = b * b - 3.0 * c
    q = 2.0 * b**3 - 9.0 * b * c - 27.0 * d
    if p < 0.0:
        t = b * b + abs(c)
        if p < -1e-12 * (t if t > 1.0 else 1.0):  # max(1, t)
            raise ValueError(f"p = {p} is negative beyond rounding tolerance")
        p = 0.0
    # triple root: p scales as A^2
    if p <= 9.0 * (1e-12 * s) ** 2:
        return _tuple_new(PQ, (p, q, None, False))
    # double root: 4p^3 - q^2 scales as A^6.  The computed discriminant of
    # an exact double root is rounding noise up to a few 1e-14 * scale^6;
    # random matrices with all gaps resolvable sit above ~1e-6 * scale^6,
    # and 1e-12 * scale^6 splits those populations.  The arccos argument
    # is then +-1 up to (possibly large relative) rounding in q; the sign
    # of q decides the endpoint.
    p3 = p**3
    if 4.0 * p3 - q * q <= 1e-12 * s**6:
        return _tuple_new(PQ, (p, q, 0.0 if q >= 0.0 else math.pi, True))
    arg = q / (2.0 * math.sqrt(p3))
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + CLAMP_SLACK:
            raise ValueError(f"arccos argument {arg} out of range beyond slack")
        arg = 1.0 if arg > 0.0 else -1.0
    return _tuple_new(PQ, (p, q, math.acos(arg), False))


def eigenvalues3(coeffs: CubicCoeffs, pq: PQ) -> tuple:
    """The three real roots via the trigonometric formulas.

    The cosine placement orders them lambda1 >= lambda3 >= lambda2
    (delta/3 lies in [0, pi/3]); no sorting is applied here.  At
    compute_pq's double-root endpoints two roots are bit-equal: delta = 0
    gives l2 == l3, as cos(2pi/3) = cos(-2pi/3), and delta = pi gives
    l1 == l3, as _TWO_PI_3 is exactly 2 (pi/3) and third - _TWO_PI_3 is
    exactly -third.
    """
    b = coeffs.b
    if pq.delta is None:
        lam = b / 3.0
        return (lam, lam, lam)
    sp = math.sqrt(pq.p)
    third = pq.delta / 3.0
    l1 = (b + 2.0 * sp * math.cos(third)) / 3.0
    l2 = (b + 2.0 * sp * math.cos(third + _TWO_PI_3)) / 3.0
    l3 = (b + 2.0 * sp * math.cos(third - _TWO_PI_3)) / 3.0
    return (l1, l2, l3)


def _clamp_unit(x):
    """x clamped to [0, 1]: a quotient the paper reads as a squared cosine
    that rounding put past an endpoint.  min(max(x, 0.0), 1.0), so -0.0
    and NaN come back unchanged."""
    return 0.0 if 0.0 > x else 1.0 if 1.0 < x else x


def compute_v(a: SymMat3, lambdas) -> float:
    """v = cos(phi2)^2, rational in the entries and eigenvalues (on
    A = D diag(l1, l2, l3) D^T, checked in tests/test_identities.py).

    Unchanged by A -> 2^-e A and A -> A - m I; a zero gap divides by 0.
    """
    l1, l2, l3 = lambdas
    num = (a.a12**2 + a.a13**2
           + (a.a11 - l3) * (a.a11 + l3 - l1 - l2))
    return _clamp_unit(num / ((l2 - l3) * (l3 - l1)))


def compute_w(a: SymMat3, lambdas, v) -> float:
    """w = cos(phi3)^2; for v = 0 the quotient degenerates and w = 1."""
    if v <= V_ZERO_EPS:
        return 1.0
    l1, l2, l3 = lambdas
    return _clamp_unit((a.a11 - l3 + (l3 - l2) * v) / ((l1 - l2) * v))


def f_vectors(a: SymMat3):
    """The two entry-built 2-vectors used to recover phi1: f1 = (a12, -a13)
    and f2 = (a22 - a33, -2 a23), as _route_phi1 builds them."""
    import numpy as np
    return np.array((a.a12, -a.a13)), np.array((a.a22 - a.a33, -2.0 * a.a23))


def _g_components(gap12, gap23, phi2, phi3, v, w):
    """(g1x, g1y, g2x, g2y) with gap12 = l1 - l2 and gap23 = l2 - l3.

    g1x is odd in phi3, g1y in phi2, g2y in both and g2x is even, so the
    components for signed angles are those for the magnitudes with signs
    applied.
    """
    c2, s2 = math.cos(phi2), math.sin(phi2)
    s3x2 = math.sin(2.0 * phi3)
    return (0.5 * gap12 * c2 * s3x2,
            0.5 * (gap12 * w + gap23) * (2.0 * s2 * c2),
            gap12 * (1.0 + (v - 2.0) * w) + gap23 * v,
            gap12 * s2 * s3x2)


def g_vectors(lambdas, phi2, phi3, v, w):
    """The eigenvalue/angle-built 2-vectors: g1 = R(phi1) f1, g2 = R(2 phi1) f2."""
    import numpy as np
    l1, l2, l3 = lambdas
    g1x, g1y, g2x, g2y = _g_components(l1 - l2, l2 - l3, phi2, phi3, v, w)
    return np.array([g1x, g1y]), np.array([g2x, g2y])


def _half_turn_apart(full, rep):
    """Whether rep is nearer full + pi than full on the circle of period 2pi.

    D is invariant under (phi1 + pi, -phi2, -phi3) and (phi1, phi2 + pi,
    -phi3): the twin rule.  So when the angle returned is rep but the
    rotation found has angle full, the angles after it must be negated
    exactly when this holds.  False when either angle is NaN.
    """
    return abs(math.remainder(full - rep, 2.0 * math.pi)) > 0.5 * math.pi


def _route_phi1(a: SymMat3, g, phi2_mag, phi3_mag, scale):
    """phi1 from the f/g routes, the signs of phi2 and phi3, and the angles.

    g is _g_components at the magnitudes phi2_mag, phi3_mag in [0, pi/2].
    With the f-vectors' norms n1, n2 and directions (c, s) = (cos psi, sin
    psi), phi1 is the angle of R(-psi1) g1 (the f1/g1 route, p11) and 2 phi1
    that of R(-psi2) g2 (the f2/g2 route, 2 p12), in (-pi, pi] as angle_of
    gives it.  A route needs its f-vector above tol_f = F_ZERO_EPS * scale
    and its g-vector nonzero, and is NaN otherwise.  Its rotated g-vector is
    then nonzero: (c, s) is a unit vector to rounding, and c gx + s gy =
    c gy - s gx = 0 with unrounded products would give c s gx^2 = -c s gy^2,
    so only an underflowing product can zero both.  On what diagonalize3
    passes (scale >= 1 after its normalization, no eigenvalue gap below
    ~3e-12 * scale, the cosines and sines of the magnitudes 0 or above
    ~6e-17) a nonzero g component exceeds ~1e-45, far above the
    subnormals, so no zero-vector check is made.

    (+,+) and (+,-), the two distinct rotations, are scored: flipping phi3
    negates g1x on the f1/g1 route and g2y on the f2/g2 route.  With both
    routes available the smaller wrapped mod-pi difference between the two
    phi1 estimates wins and a tie within TIE_EPS goes to (+,+); near_tie
    flags a loser more than TIE_EPS and at most NEAR_TIE_EPS behind.  With
    a single route (+,+) is used.

    phi1 is returned as wrap_half_pi of the routed estimate: p11, unless it
    is NaN or p12 is available with the longer f-vector (0 when neither
    route is available).  The f1/g1 route carries the full mod-2pi value
    p11 of the rotation found; the f2/g2 route only determines phi1 mod pi.
    So the twin rule compares the returned phi1 with p11, whichever route
    gave it, and flips both selected signs when they are a half turn apart.
    With f1 = 0 (p11 NaN) the sign choice is immaterial and nothing flips.
    Returns what resolve_signs returns.
    """
    _, a22, a33, a12, a13, a23 = a
    f1x, f1y = a12, -a13
    f2x, f2y = a22 - a33, -2.0 * a23
    n1 = math.hypot(f1x, f1y)
    n2 = math.hypot(f2x, f2y)
    tol_f = F_ZERO_EPS * scale
    g1x, g1y, g2x, g2y = g
    # The route angles of (+,+), p11 and p12, and of (+,-), q11 and q12.
    # R(-psi) g = (c gx + s gy, c gy - s gx) comes from four products; the
    # (+,-) route negates g1x or g2y, which negates two of them exactly.
    p11 = q11 = p12 = q12 = math.nan
    if n1 > tol_f and (g1x != 0.0 or g1y != 0.0):
        c, s = f1x / n1, f1y / n1
        cx, sy, sx, cy = c * g1x, s * g1y, s * g1x, c * g1y
        p11 = math.atan2(cy - sx, cx + sy)
        if p11 == -math.pi:
            p11 = math.pi
        q11 = math.atan2(sx + cy, sy - cx)
        if q11 == -math.pi:
            q11 = math.pi
    if n2 > tol_f and (g2x != 0.0 or g2y != 0.0):
        c, s = f2x / n2, f2y / n2
        cx, sy, sx, cy = c * g2x, s * g2y, s * g2x, c * g2y
        t = math.atan2(cy - sx, cx + sy)
        p12 = 0.5 * (math.pi if t == -math.pi else t)
        t = math.atan2(-sx - cy, cx - sy)
        q12 = 0.5 * (math.pi if t == -math.pi else t)
    # wrapped_diff_mod_pi of each pair; NaN with one route only
    d1 = abs(math.remainder(p11 - p12, math.pi))
    d2 = abs(math.remainder(q11 - q12, math.pi))
    candidates = ((1, 1, p11, p12, d1), (1, -1, q11, q12, d2))
    # a NaN difference compares false: (+,+), no near-tie
    s3 = 1
    if d1 > d2 + TIE_EPS:
        s3, p11, p12, near_tie = -1, q11, q12, d1 - d2 <= NEAR_TIE_EPS
    else:
        near_tie = d2 > d1 + TIE_EPS and d2 - d1 <= NEAR_TIE_EPS
    # x != x: x is NaN.  wrap_half_pi and _half_turn_apart are written out,
    # as every generic solve runs them here.
    phi1 = p12 if p11 != p11 or (n2 > n1 and p12 == p12) else p11
    if phi1 != phi1:
        phi1 = 0.0
    else:
        phi1 = math.remainder(phi1, math.pi)
        if phi1 <= -_HALF_PI:
            phi1 = _HALF_PI
        elif phi1 == 0.0:
            phi1 = 0.0  # and not -0.0
    s2 = 1
    if abs(math.remainder(p11 - phi1, _TWO_PI)) > _HALF_PI:
        s2, s3 = -1, -s3
    # phi1 is wrapped and the magnitudes lie in [0, pi/2], where wrap_half_pi
    # changes only -0.0 (to +0.0, as "+ 0.0" does) and -pi/2 (to pi/2):
    # Angles3 takes that case, and any angle out of range or NaN.
    phi2 = s2 * phi2_mag + 0.0
    phi3 = s3 * phi3_mag + 0.0
    if -_HALF_PI < phi2 <= _HALF_PI and -_HALF_PI < phi3 <= _HALF_PI:
        angles = _tuple_new(Angles3, (phi1, phi2, phi3))
    else:
        angles = Angles3(phi1, phi2, phi3)
    return angles, (s2, s3), candidates, n1, n2, near_tie


def resolve_signs(a: SymMat3, lambdas, v, w, scale):
    """Select the signs of phi2 and phi3 and recover phi1.

    v and w are as compute_v and compute_w return them, in [0, 1].  Only
    (+,+) and (+,-) of (+-arccos sqrt(v), +-arccos sqrt(w)) are scored, by
    _route_phi1.  Near 0 or pi/2 the arccos of a square root amplifies
    rounding in v and w, which diagonalize3's Jacobi correction recovers.
    With both f-vectors at or below tol_f, phi1 = 0; such a matrix has two
    eigenvalues within ~3e-14 * scale, so compute_pq classifies it
    DoubleRoot first.  scale is ||A||_F.  Returns (angles, selected_signs,
    phi1_candidates, f1_norm, f2_norm, near_tie), the SolveReport fields
    but the residual.
    """
    phi2_mag = math.acos(math.sqrt(v))
    phi3_mag = math.acos(math.sqrt(w))
    l1, l2, l3 = lambdas
    return _route_phi1(
        a, _g_components(l1 - l2, l2 - l3, phi2_mag, phi3_mag, v, w),
        phi2_mag, phi3_mag, scale)


def degenerate_double(a: SymMat3, lam3):
    """Angles and eigenvalues of A whose spectrum is a pair and lam3.

    "Most distinct eigenvalue first, then a 2x2" (Scherzinger & Dohrmann
    2008): D's third column, (sin phi2, -sin phi1 cos phi2, cos phi1 cos
    phi2), is lam3's eigenvector, the longest cross product (x, y, z) of two
    rows of A - lam3 I with z >= 0; lam3 lies a gap of order ||A|| from the
    pair on what diagonalize3 passes, so it is accurate to ~u ||A|| / gap.
    So phi1 = atan2(-y, z) and phi2 = atan2(x, hypot(y, z)) in [-pi/2,
    pi/2], where -pi/2 is mapped to pi/2 (phi1 with its twin, -phi2) and
    -0.0 to 0.0, as Angles3 stores them.  A rotation inside the pair is
    phi3, as Rx(phi1) Ry(phi2) Rz(0) Rz(theta) = Rx(phi1) Ry(phi2) Rz(theta):
    eig2's kernel on the block of A over the first two columns of
    Rx(phi1) Ry(phi2) gives phi3 and the pair.  Returns (angles, (lambda1,
    lambda2, lam3)).
    """
    a11, a22, a33, a12, a13, a23 = a
    b11, b22, b33 = a11 - lam3, a22 - lam3, a33 - lam3
    # the rows r1, r2, r3 of A - lam3 I: r1 x r2, r1 x r3 or r2 x r3
    x, y, z = (a12 * a23 - a13 * b22, a13 * a12 - b11 * a23,
               b11 * b22 - a12 * a12)
    n = x * x + y * y + z * z
    u, v, w = (a12 * b33 - a13 * a23, a13 * a13 - b11 * b33,
               b11 * a23 - a12 * a13)
    m = u * u + v * v + w * w
    if m > n:
        x, y, z, n = u, v, w, m
    u, v, w = (b22 * b33 - a23 * a23, a23 * a13 - a12 * b33,
               a12 * a23 - b22 * a13)
    if u * u + v * v + w * w > n:
        x, y, z = u, v, w
    if z < 0.0:
        x, y, z = -x, -y, -z
    phi1 = math.atan2(-y, z + 0.0) + 0.0  # atan2(0.0, -0.0) is pi
    phi2 = math.atan2(x, math.hypot(y, z))
    if phi1 <= -_HALF_PI:
        phi1, phi2 = _HALF_PI, -phi2
    phi2 = _HALF_PI if phi2 <= -_HALF_PI else phi2 + 0.0
    c1, s1 = math.cos(phi1), math.sin(phi1)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    # A times the columns (c2, p2, p3) and (0, c1, s1) of Rx(phi1) Ry(phi2)
    p2, p3 = s1 * s2, -c1 * s2
    ap1 = a11 * c2 + a12 * p2 + a13 * p3
    ap2 = a12 * c2 + a22 * p2 + a23 * p3
    ap3 = a13 * c2 + a23 * p2 + a33 * p3
    aq1, aq2, aq3 = (a12 * c1 + a13 * s1, a22 * c1 + a23 * s1,
                     a23 * c1 + a33 * s1)
    l1, l2, phi3 = _solve2(c2 * ap1 + p2 * ap2 + p3 * ap3,
                           c1 * aq2 + s1 * aq3,
                           c2 * aq1 + p2 * aq2 + p3 * aq3)
    return _tuple_new(Angles3, (phi1, phi2, phi3)), (l1, l2, lam3)


def _derotated(rows, c1, s1):
    """rot3x(phi1)^T . D from the rows of D, with c1, s1 = cos, sin(phi1)."""
    r1, r2, r3 = rows
    return (r1, [c1 * x + s1 * y for x, y in zip(r2, r3)],
            [c1 * y - s1 * x for x, y in zip(r2, r3)])


def _polish_angles(a: SymMat3, lambdas, angles, scale):
    """One Jacobi correction of a closed-form result.

    From D = rotation_entries(*angles), B = D^T A D is nearly diagonal, so
    two cyclic sweeps of Jacobi rotations J on its six unique entries, with
    D <- D J, converge quadratically; lambdas <- diag(B).  The angles are
    read back de-rotated: phi1 = atan2(-d23, d33), then phi2 and phi3 from
    rot3x(phi1)^T D = rot3y(phi2) rot3z(phi3) (_derotated), which gives D
    to rounding even where phi1 is poorly determined.  Where |(d23, d33)|
    = |cos phi2| is at rounding level any phi1 fits (gimbal lock), and the
    incoming one is kept.  Returns (angles, absolute residual of
    rotation_entries(*angles), lambdas), or, when a value is not finite,
    the start with an infinite residual.  scale is unused but traced.
    """
    a11, a22, a33, a12, a13, a23 = a
    d = rotation_entries(*angles)
    rows = [list(d[0:3]), list(d[3:6]), list(d[6:9])]
    acols = [(a11 * x + a12 * y + a13 * z, a12 * x + a22 * y + a23 * z,
              a13 * x + a23 * y + a33 * z) for x, y, z in zip(*rows)]
    b = [[x * u + y * v + z * w for u, v, w in acols]
         for x, y, z in zip(*rows)]
    # diag(B), and off[r] = b_pq for {p, q, r} = {0, 1, 2}
    lam, off = [b[0][0], b[1][1], b[2][2]], [b[1][2], b[0][2], b[0][1]]
    for _ in range(2):
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            bpq = off[r]
            if bpq == 0.0:
                continue
            # B <- J^T B J, J[p][p] = J[q][q] = c, J[p][q] = -J[q][p] = s
            theta = 0.5 * (lam[q] - lam[p]) / bpq
            t = math.copysign(1.0, theta) / (abs(theta)
                                             + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            lam[p], lam[q] = lam[p] - t * bpq, lam[q] + t * bpq
            brp, brq = off[q], off[p]
            off[r], off[q], off[p] = 0.0, c * brp - s * brq, s * brp + c * brq
            for row in rows:
                dp, dq = row[p], row[q]
                row[p], row[q] = c * dp - s * dq, s * dp + c * dq
    d23, d33 = rows[1][2], rows[2][2]
    p1 = (angles[0] if math.hypot(d23, d33) <= 1e-15
          else math.atan2(-d23, d33))
    (_, _, e13), (e21, e22, _), (_, _, e33) = _derotated(
        rows, math.cos(p1), math.sin(p1))
    p2, p3 = math.atan2(e13, e33), math.atan2(e21, e22)
    # Wrapping phi3 by pi only flips two columns of D; an odd wrap of phi1
    # or phi2 must negate the angles after it (the twin rule).
    if _half_turn_apart(p1, wrap_half_pi(p1)):
        p2, p3 = -p2, -p3
    if _half_turn_apart(p2, wrap_half_pi(p2)):
        p3 = -p3
    # Angles3 without its finiteness check: a NaN reaches the residual
    corrected = _tuple_new(Angles3, (wrap_half_pi(p1), wrap_half_pi(p2),
                                     wrap_half_pi(p3)))
    # _reconstruction_residual's sum, unscaled; a call here would replace
    # the residual the benchmark's layer trace compares this result with
    e = [x - y for x, y in zip(_reconstruct6(rotation_entries(*corrected),
                                             lam), a)]
    res = math.sqrt(e[0] * e[0] + e[1] * e[1] + e[2] * e[2]
                    + 2.0 * (e[3] * e[3] + e[4] * e[4] + e[5] * e[5]))
    return (corrected, res, tuple(lam)) if res < math.inf else (
        angles, math.inf, lambdas)


def _reconstruct6(d, lambdas):
    """The entries (11, 22, 33, 12, 13, 23) of D . diag(lambdas) . D^T,
    from the nine entries of D, row by row."""
    d11, d12, d13, d21, d22, d23, d31, d32, d33 = d
    l1, l2, l3 = lambdas
    e11, e12, e13 = d11 * l1, d12 * l2, d13 * l3
    e21, e22, e23 = d21 * l1, d22 * l2, d23 * l3
    e31, e32, e33 = d31 * l1, d32 * l2, d33 * l3
    return (e11 * d11 + e12 * d12 + e13 * d13,
            e21 * d21 + e22 * d22 + e23 * d23,
            e31 * d31 + e32 * d32 + e33 * d33,
            e11 * d21 + e12 * d22 + e13 * d23,
            e11 * d31 + e12 * d32 + e13 * d33,
            e21 * d31 + e22 * d32 + e23 * d33)


def _reconstruction_residual(a: SymMat3, d, lambdas, scale):
    """||D . diag(lambdas) . D^T - A||_F / scale over the six unique entries,
    from the nine entries of D, row by row."""
    m11, m22, m33, m12, m13, m23 = _reconstruct6(d, lambdas)
    a11, a22, a33, a12, a13, a23 = a
    r11, r22, r33 = m11 - a11, m22 - a22, m33 - a33
    r12, r13, r23 = m12 - a12, m13 - a13, m23 - a23
    return math.sqrt(r11 * r11 + r22 * r22 + r33 * r33
                     + 2.0 * (r12 * r12 + r13 * r13 + r23 * r23)) / scale


def _normalized(x):
    """e, x times 2^-e (largest |entry| in [1, 2)) and its ||.||_F^2."""
    e = math.frexp(max(map(abs, x)))[1] - 1
    y = _tuple_new(SymMat3, [math.ldexp(v, -e) for v in x])
    return e, y, (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
                  + 2.0 * (y[3] * y[3] + y[4] * y[4] + y[5] * y[5]))


def diagonalize3(a: SymMat3) -> EigenDecomp3:
    """Full closed-form decomposition A = D . diag(lambdas) . D^T.

    Normalizes once: outside 1 <= ||A||_F^2 <= 2^320, A is scaled by 2^-e1;
    where t^2 >= 3 (1 - 1/256) ||A||_F^2 for the trace t, m = t/3 comes off
    the diagonal and the rest, scaled by 2^-e2, is solved, or is a TripleRoot
    at m below compute_pq's triple-root bound.  D is unchanged; eigenvalues
    and f-vector norms map back as (m + l 2^e2) 2^e1, or overflow.
    Classifies into triple-root, double-root and generic branches from the
    cubic invariants, and nothing is rerouted or caught: compute_v and
    compute_w clamp their quotients, and outside DoubleRoot the
    discriminant threshold keeps every eigenvalue gap above ~1e-8 * scale,
    so neither divides by 0.  A Generic or AlreadyDiagonal2D result whose
    relative residual exceeds 1e-12 goes through the Jacobi correction
    (_polish_angles), whose angles and eigenvalues are kept when they
    lower it.  DoubleRoot and TripleRoot results are neither corrected nor
    scored: their reports carry the signs (1, 1), no candidates and no
    near-tie.  The solve's one SolveReport is built here, with the residual
    relative to the matrix solved.
    """
    a11, a22, a33, a12, a13, a23 = a
    fro2 = (a11 * a11 + a22 * a22 + a33 * a33
            + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23))
    e1, e2, m, triple = 0, 0, -0.0, False  # l + -0.0 is l, even l = -0.0
    if not 1.0 <= fro2 <= 2.0 ** 320:
        e1, a, fro2 = _normalized(a)
        a11, a22, a33, a12, a13, a23 = a
    t = a11 + a22 + a33
    if t * t >= 3.0 * (1.0 - 1.0 / 256.0) * fro2:  # >= for the zero matrix
        lam = t / 3.0
        e, b, fro2_b = _normalized((a11 - lam, a22 - lam, a33 - lam,
                                    a12, a13, a23))
        # compute_pq's p <= 9e-24 ||A||_F^2, as p = 1.5 ||A - lam I||_F^2
        triple = math.ldexp(fro2_b, 2 * e) <= 6e-24 * fro2
        if not triple:
            m, e2, a, fro2 = lam, e, b, fro2_b
    scale = math.sqrt(fro2) or 1.0  # 0 only for the zero matrix

    if not triple:
        coeffs = char_coeffs(a)
        pq = compute_pq(coeffs)
        lambdas = eigenvalues3(coeffs, pq)
    if triple or pq.double_root:
        if triple:
            lambdas, angles = (lam, lam, lam), _ZERO_ANGLES
            branch = _TRIPLE_ROOT
        else:
            # the distinct root: l2 == l3 at delta = 0, l1 == l3 at delta = pi
            angles, lambdas = degenerate_double(
                a, lambdas[0] if pq.delta == 0.0 else lambdas[1])
            branch = _DOUBLE_ROOT
        # nothing is scored: f_vectors(a)'s norms, as _route_phi1 takes them
        _, a22, a33, a12, a13, a23 = a
        n1, n2 = math.hypot(a12, -a13), math.hypot(a22 - a33, -2.0 * a23)
        signs, candidates, near_tie = (1, 1), (), False
    else:
        v = compute_v(a, lambdas)
        w = compute_w(a, lambdas, v)
        angles, signs, candidates, n1, n2, near_tie = resolve_signs(
            a, lambdas, v, w, scale)
        tol_f = F_ZERO_EPS * scale
        branch = (_ALREADY_DIAGONAL_2D
                  if n1 <= tol_f or n2 <= tol_f else _GENERIC)

    d = rotation_entries(*angles)
    recon_res = _reconstruction_residual(a, d, lambdas, scale)
    if recon_res > 1e-12 and (branch is _GENERIC
                              or branch is _ALREADY_DIAGONAL_2D):
        corrected, abs_res, lams = _polish_angles(a, lambdas, angles, scale)
        if abs_res / scale < recon_res:
            # abs_res / scale: the corrected d's _reconstruction_residual
            angles, lambdas, recon_res = corrected, lams, abs_res / scale
            d = rotation_entries(*angles)
    if e1 or m:  # normalized; m = t/3 != 0 wherever it was shifted off
        lambdas = [math.ldexp(m + math.ldexp(v, e2), e1) for v in lambdas]
        n1, n2 = math.ldexp(n1, e1 + e2), math.ldexp(n2, e1 + e2)
    report = _tuple_new(SolveReport, (signs, candidates, n1, n2, recon_res,
                                      near_tie))
    return EigenDecomp3(lambdas[0], lambdas[1], lambdas[2], angles, d,
                        branch, report)


def euler_angles(dec: EigenDecomp3) -> Angles3:
    """The Euler angles of the eigenvectors.

    Numerically identical to dec.angles: the fixed-axis product
    R1(phi1) R2(phi2) R3(phi3) equals the Euler sequence about rotating
    axes with the same angles applied in reverse order, so no transformation
    is needed; this operation fixes that semantic contract.
    """
    return dec.angles
