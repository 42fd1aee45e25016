"""Closed-form diagonalization of a 3x3 real symmetric matrix.

Eigenvalues come from the trigonometric solution of the characteristic
cubic; the orthogonal factor D is recovered as three rotation angles
(phi1, phi2, phi3) about the fixed basis axes.  The squared cosines of
phi2 and phi3 are rational in the matrix entries and eigenvalues, which
leaves their signs.  D is invariant under (phi1 + pi, -phi2, -phi3), so
only (+,+) and (+,-) are distinct rotations; the generic branch picks the
one whose two independent estimates of phi1 (one from each of two 2-vector
identities) agree, scoring both in straight-line code (_select_signs).
The double-root branch (phi3 = 0) has one rotation left and scores
nothing.  Both branches share the f-vectors (_f_route), the g-vector
formula (_g_components), the phi1 estimate of each route (_route_angle),
the choice of the returned phi1 (_assemble_angles) and, with the polish,
the twin rule that keeps the signs right when an angle is wrapped by pi
(_half_turn_apart).  The generic branch recovers the digits
arccos(sqrt(.)) loses near 0 and pi/2 by the Gauss-Newton polish alone
(_polish_angles); the double-root branch, which is not polished, by its
own arcsine swap (_half_asin).  resolve_signs returns the SolveReport
fields as a tuple, and diagonalize3 builds the one report of a generic
solve with the final residual.

Eigenvalues are kept in the order the angle equations assume:
lambda1 >= lambda3 >= lambda2 from the cosine placement in the cubic
solution, or (repeated, repeated, distinct) on the double-root branch.
"""

import math
from typing import NamedTuple

# compose_rotation is not called here: diagonalize3 hands rotation_entries'
# floats to EigenDecomp3.  It stays a name of this module, which the
# benchmark's layer trace (perfbench/spans.py) patches.
from .core import (
    AngleOfZeroVector,
    Angles3,
    Branch,
    EigenDecomp3,
    SolveReport,
    SymMat3,
    compose_rotation,
    rotation_entries,
    wrap_half_pi,
    wrapped_diff_mod_pi,
)

# CubicCoeffs, PQ and SolveReport are built once per solve; tuple.__new__
# fills the named tuple without running its Python-level __new__.
_tuple_new = tuple.__new__

# f-vector norms at or below F_ZERO_EPS * max(1, ||A||_F) are treated as zero.
F_ZERO_EPS = 1e-14
# Eigenvalue gaps below DEGENERATE_EPS * scale poison the v/w quotients.
DEGENERATE_EPS = 1e-12
# Below V_ZERO_EPS the w quotient is rounding noise; the v = 0 rule gives w = 1.
V_ZERO_EPS = 1e-12
# Domain arguments (arccos operands, squared cosines) may round past their
# boundary by at most CLAMP_SLACK; anything worse means misclassification.
CLAMP_SLACK = 1e-9
# Two sign combinations tie when their wrapped differences are this close.
TIE_EPS = 1e-12
# A non-tied runner-up inside NEAR_TIE_EPS of the winner is surfaced.
NEAR_TIE_EPS = 1e-6


class DegenerateEigenvalues(ValueError):
    """An eigenvalue gap needed by the generic branch is numerically zero."""


class BothFVectorsZero(ValueError):
    """f1 = f2 = 0: the matrix is diagonal with two equal diagonal entries."""


class NotDoubleRoot(ValueError):
    """degenerate_double was called with all three eigenvalues equal."""


class DomainExcursion(ValueError):
    """A squared cosine left [0, 1] beyond slack: the branch classification
    does not fit this matrix."""


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
    """Characteristic-cubic coefficients from the matrix entries."""
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

    p is a sum of squares, so a tiny negative value is rounding and is
    clamped to zero.  delta is only defined above the triple-root threshold.
    Near a double root q/(2 sqrt(p^3)) legitimately rounds past +-1 and is
    clamped; an excursion beyond CLAMP_SLACK indicates broken input.
    """
    b, c, d = coeffs
    s = coeffs.scale()
    p = b * b - 3.0 * c
    q = 2.0 * b**3 - 9.0 * b * c - 27.0 * d
    if p < 0.0:
        if p < -1e-12 * max(1.0, b * b + abs(c)):
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
    if 4.0 * p**3 - q * q <= 1e-12 * s**6:
        return _tuple_new(PQ, (p, q, 0.0 if q >= 0.0 else math.pi, True))
    arg = q / (2.0 * math.sqrt(p**3))
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + CLAMP_SLACK:
            raise ValueError(f"arccos argument {arg} out of range beyond slack")
        arg = 1.0 if arg > 0.0 else -1.0
    return _tuple_new(PQ, (p, q, math.acos(arg), False))


def eigenvalues3(coeffs: CubicCoeffs, pq: PQ) -> tuple:
    """The three real roots via the trigonometric formulas.

    The cosine placement orders them lambda1 >= lambda3 >= lambda2
    (delta/3 lies in [0, pi/3]); no sorting is applied here.
    """
    b = coeffs.b
    if pq.delta is None:
        lam = b / 3.0
        return (lam, lam, lam)
    sp = math.sqrt(pq.p)
    third = pq.delta / 3.0
    l1 = (b + 2.0 * sp * math.cos(third)) / 3.0
    l2 = (b + 2.0 * sp * math.cos(third + 2.0 * math.pi / 3.0)) / 3.0
    l3 = (b + 2.0 * sp * math.cos(third - 2.0 * math.pi / 3.0)) / 3.0
    return (l1, l2, l3)


def _clamp_unit(x, what, slack=CLAMP_SLACK):
    if x < -slack or x > 1.0 + slack:
        raise DomainExcursion(f"{what} = {x} outside [0, 1] beyond slack")
    return min(max(x, 0.0), 1.0)


def compute_v(a: SymMat3, lambdas) -> float:
    """v = cos(phi2)^2, rational in the entries and eigenvalues.

    Requires the generic branch: the denominator gaps (l2 - l3)(l3 - l1)
    must be resolvable, else the caller misrouted a degenerate matrix.
    """
    l1, l2, l3 = lambdas
    tol = DEGENERATE_EPS * max(1.0, abs(l1), abs(l2), abs(l3))
    if abs(l2 - l3) <= tol or abs(l3 - l1) <= tol:
        raise DegenerateEigenvalues("gap (l2-l3) or (l3-l1) below tolerance")
    num = (a.a12**2 + a.a13**2
           + (a.a11 - l3) * (a.a11 + l3 - l1 - l2))
    return _clamp_unit(num / ((l2 - l3) * (l3 - l1)), "v")


def compute_w(a: SymMat3, lambdas, v) -> float:
    """w = cos(phi3)^2; for v = 0 the quotient degenerates and w = 1."""
    if v <= V_ZERO_EPS:
        return 1.0
    l1, l2, l3 = lambdas
    tol = DEGENERATE_EPS * max(1.0, abs(l1), abs(l2), abs(l3))
    if abs(l1 - l2) <= tol:
        raise DegenerateEigenvalues("gap (l1-l2) below tolerance")
    return _clamp_unit((a.a11 - l3 + (l3 - l2) * v) / ((l1 - l2) * v), "w")


def _f_route(a: SymMat3, scale):
    """The f-vectors f1, f2 with their norms, zero tolerance and directions.

    cs1/cs2 are the (cos, sin) of the f-vector angles psi1, psi2; an
    f-vector at or below tol_f gets the placeholder direction (1, 0).
    """
    _, a22, a33, a12, a13, a23 = a
    f1x, f1y = a12, -a13
    f2x, f2y = a22 - a33, -2.0 * a23
    n1 = math.hypot(f1x, f1y)
    n2 = math.hypot(f2x, f2y)
    tol_f = F_ZERO_EPS * scale
    cs1 = (f1x / n1, f1y / n1) if n1 > tol_f else (1.0, 0.0)
    cs2 = (f2x / n2, f2y / n2) if n2 > tol_f else (1.0, 0.0)
    return (f1x, f1y), (f2x, f2y), n1, n2, tol_f, cs1, cs2


def f_vectors(a: SymMat3):
    """The two entry-built 2-vectors used to recover phi1."""
    import numpy as np
    f1, f2 = _f_route(a, a.scale())[:2]
    return np.array(f1), np.array(f2)


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


def _route_angle(n, tol_f, cs, gx, gy):
    """angle_of(R(-psi) . g) for one f/g route, computed without building
    the matrix; NaN where the route is unavailable.

    n is the f-vector's norm and cs = (cos psi, sin psi) its direction.  A
    route needs both its f-vector above tol_f and its g-vector nonzero; the
    latter can underflow to exactly zero for nearly diagonal matrices whose
    angle quotients round to their endpoints.
    """
    if n > tol_f and (gx != 0.0 or gy != 0.0):
        cos_psi, sin_psi = cs
        x = cos_psi * gx + sin_psi * gy
        y = -sin_psi * gx + cos_psi * gy
        if x == 0.0 and y == 0.0:
            raise AngleOfZeroVector("angle_of requires a nonzero vector")
        a = math.atan2(y, x)
        return math.pi if a == -math.pi else a
    return math.nan


def _phi1_candidates(n1, n2, tol_f, cs1, cs2, g, s2, s3):
    """phi1 estimate from each f/g route; NaN where the route is unavailable.

    g holds the g-vector components at the angle magnitudes; s2, s3 are the
    signs of phi2 and phi3.  The f1/g1 route gives phi1, the f2/g2 route
    2 phi1.
    """
    g1x, g1y, g2x, g2y = g
    return (_route_angle(n1, tol_f, cs1, s3 * g1x, s2 * g1y),
            0.5 * _route_angle(n2, tol_f, cs2, g2x, s2 * s3 * g2y))


def _select_signs(n1, n2, tol_f, cs1, cs2, g):
    """Pick (+,+) or (+,-), the two distinct rotations, by phi1 agreement.

    Both are scored in straight-line code, as _phi1_candidates would score
    them: flipping phi3 negates g1x on the f1/g1 route and g2y on the f2/g2
    route.  With both routes available, the smaller wrapped mod-pi
    difference between the two phi1 estimates wins and a tie within
    TIE_EPS goes to (+,+); near_tie flags a loser more than TIE_EPS and at
    most NEAR_TIE_EPS behind.  With a single route (+,+) is used.  Returns
    the selected (s2, s3, p11, p12, diff), both candidates and near_tie.
    """
    g1x, g1y, g2x, g2y = g
    p11 = _route_angle(n1, tol_f, cs1, g1x, g1y)
    q11 = _route_angle(n1, tol_f, cs1, -g1x, g1y)
    p12 = 0.5 * _route_angle(n2, tol_f, cs2, g2x, g2y)
    q12 = 0.5 * _route_angle(n2, tol_f, cs2, g2x, -g2y)
    # wrapped_diff_mod_pi of each pair; NaN with one route only
    d1 = abs(math.remainder(p11 - p12, math.pi))
    d2 = abs(math.remainder(q11 - q12, math.pi))
    first, second = candidates = ((1, 1, p11, p12, d1),
                                  (1, -1, q11, q12, d2))
    # a NaN difference compares false: (+,+), no near-tie
    if d1 > d2 + TIE_EPS:
        return second, candidates, d1 - d2 <= NEAR_TIE_EPS
    return first, candidates, d2 > d1 + TIE_EPS and d2 - d1 <= NEAR_TIE_EPS


def _half_turn_apart(full, rep):
    """Whether rep is nearer full + pi than full on the circle of period 2pi.

    D is invariant under (phi1 + pi, -phi2, -phi3) and (phi1, phi2 + pi,
    -phi3): the twin rule.  So when the angle returned is rep but the
    rotation found has angle full, the angles after it must be negated
    exactly when this holds.  False when either angle is NaN.
    """
    return abs(math.remainder(full - rep, 2.0 * math.pi)) > 0.5 * math.pi


def _half_asin(x, mag):
    """The theta in [0, pi/2] with sin(2 theta) = min(|x|, 1), on the same
    side of pi/4 as the estimate mag."""
    half = 0.5 * math.asin(min(abs(x), 1.0))
    return half if mag <= 0.25 * math.pi else 0.5 * math.pi - half


def _assemble_angles(n1, n2, p11, p12, s2, s3, phi2_mag, phi3_mag):
    """Final triple with a consistent phi1 representative.

    phi1 is returned as wrap_half_pi of the routed estimate: p11, unless
    it is NaN or p12 is available with the longer f-vector (0 when neither
    route is available).  The f1/g1 route carries the full mod-2pi value
    p11 of the rotation found; the f2/g2 route only determines phi1 mod pi.
    So the twin rule compares the returned phi1 with p11, whichever route
    gave it, and flips both selected signs when they are a half turn apart.
    With f1 = 0 (p11 NaN) the sign choice is immaterial and nothing flips.
    """
    phi1 = p12 if math.isnan(p11) or (n2 > n1 and not math.isnan(p12)) else p11
    phi1 = 0.0 if math.isnan(phi1) else wrap_half_pi(phi1)
    if _half_turn_apart(p11, phi1):
        s2, s3 = -s2, -s3
    return Angles3(phi1, s2 * phi2_mag, s3 * phi3_mag), (s2, s3)


def resolve_signs(a: SymMat3, lambdas, v, w, scale):
    """Select the signs of phi2 and phi3 and recover phi1.

    v and w are as compute_v and compute_w return them, already in [0, 1].
    Only (+,+) and (+,-) of (+-arccos sqrt(v), +-arccos sqrt(w)) are
    scored, by _select_signs in straight-line code: D is invariant under
    (phi1 + pi, -phi2, -phi3), and _assemble_angles flips to that twin by
    _half_turn_apart.  The magnitudes are taken as they come; near 0 or
    pi/2 the arccos of a square root amplifies rounding in v and w, and
    diagonalize3's Gauss-Newton polish recovers what that costs the
    residual.  Both f-vectors zero means the matrix is diagonal with a
    repeated entry and must go to the double-root branch.  scale is
    a.scale().  Returns the angles and the SolveReport fields but the
    residual: (angles, selected_signs, phi1_candidates, f1_norm, f2_norm,
    near_tie); diagonalize3 builds the one report of the solve.
    """
    _, _, n1, n2, tol_f, cs1, cs2 = _f_route(a, scale)
    if n1 <= tol_f and n2 <= tol_f:
        raise BothFVectorsZero("matrix is diagonal with two equal entries")

    phi2_mag = math.acos(math.sqrt(v))
    phi3_mag = math.acos(math.sqrt(w))
    l1, l2, l3 = lambdas
    g = _g_components(l1 - l2, l2 - l3, phi2_mag, phi3_mag, v, w)
    (s2, s3, p11, p12, _), candidates, near_tie = _select_signs(
        n1, n2, tol_f, cs1, cs2, g)
    angles, signs = _assemble_angles(n1, n2, p11, p12,
                                     s2, s3, phi2_mag, phi3_mag)
    return angles, signs, candidates, n1, n2, near_tie


def degenerate_double(a: SymMat3, lam, lam3, scale):
    """Angles for the double-root case lambda1 = lambda2 = lam.

    Here cos(phi2)^2 = (a11 - lam3)/(lam - lam3) and phi3 = 0.  D is
    invariant under (phi1 + pi, -phi2, -phi3), so both signs of phi2 give
    one rotation: nothing is scored and phi2 is taken >= 0 (before the twin
    rule of _assemble_angles).  phi1 comes from the f/g routes, with the
    generic branch's _g_components at lambda1 = lambda2 = lam, phi3 = 0,
    v = cos(phi2)^2 and w = 1.  scale is a.scale().
    """
    if abs(lam - lam3) <= DEGENERATE_EPS * scale:
        raise NotDoubleRoot("repeated and distinct eigenvalues coincide")
    # a near-double matrix legitimately pushes s outside [0, 1] by O(gap),
    # not just by rounding, hence the wider slack than the generic branch
    s = _clamp_unit((a.a11 - lam3) / (lam - lam3), "s", slack=1e-5)
    phi2_mag = math.acos(math.sqrt(s))
    _, _, n1, n2, tol_f, cs1, cs2 = _f_route(a, scale)

    # |g1| = |f1| gives |sin(2 phi2)| = 2|f1| / |lam - lam3| straight from the
    # entries.  Near phi2 = 0 or pi/2 the arccos(sqrt(s)) route square-root
    # amplifies rounding (and any slight deviation from an exact double
    # root), while the arcsin route is linear there; swap it in away from
    # pi/4, keeping the quadrant decided by s.
    if phi2_mag < 0.125 * math.pi or phi2_mag > 0.375 * math.pi:
        phi2_mag = _half_asin(2.0 * n1 / (lam - lam3), phi2_mag)
        s = math.cos(phi2_mag) ** 2

    g = _g_components(0.0, lam - lam3, phi2_mag, 0.0, s, 1.0)
    p11, p12 = _phi1_candidates(n1, n2, tol_f, cs1, cs2, g, 1, 1)
    # an already diagonal matrix has no usable route and gets phi1 = 0: any
    # phi1 rotates within the repeated eigenspace
    angles, signs = _assemble_angles(n1, n2, p11, p12, 1, 1, phi2_mag, 0.0)
    candidate = (1, 1, p11, p12, wrapped_diff_mod_pi(p11, p12))
    report = SolveReport(selected_signs=signs, phi1_candidates=(candidate,),
                         f1_norm=n1, f2_norm=n2)
    return angles, report


def _jacobian6(phi1, phi2, rec):
    """The columns dM/dphi_k, k = 1, 2, 3, of M = D . diag(lambdas) . D^T.

    rec and each column hold six unique entries (11, 22, 33, 12, 13, 23).
    dD/dphi_k = skew(omega_k) . D makes column k the commutator
    skew(omega_k) . M - M . skew(omega_k) = P + P^T, P = skew(omega_k) . M.
    """
    c1, s1 = math.cos(phi1), math.sin(phi1)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    m11, m22, m33, m12, m13, m23 = rec
    cols = []
    # omega_1 = e1, omega_2 = rot3x(phi1) e2, omega_3 = rot3x . rot3y e3
    for x, y, z in ((1.0, 0.0, 0.0), (0.0, c1, s1), (s2, -s1 * c2, c1 * c2)):
        cols.append((2.0 * (y * m13 - z * m12),
                     2.0 * (z * m12 - x * m23),
                     2.0 * (x * m23 - y * m13),
                     y * m23 - z * m22 + z * m11 - x * m13,
                     y * m33 - z * m23 + x * m12 - y * m11,
                     z * m13 - x * m33 + x * m22 - y * m12))
    return cols


def _solve_spd3(a11, a12, a13, a22, a23, a33, b1, b2, b3):
    """x with A . x = b for a symmetric positive definite 3x3 A, by LDL^T.

    Returns None when a pivot is not positive or x is not finite.
    """
    if not a11 > 0.0:
        return None
    l21, l31 = a12 / a11, a13 / a11
    d2 = a22 - l21 * a12
    if not d2 > 0.0:
        return None
    t = a23 - l31 * a12
    l32 = t / d2
    d3 = a33 - l31 * a13 - l32 * t
    if not d3 > 0.0:
        return None
    y2 = b2 - l21 * b1
    x3 = (b3 - l31 * b1 - l32 * y2) / d3
    x2 = y2 / d2 - l32 * x3
    x1 = b1 / a11 - l21 * x2 - l31 * x3
    if math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3):
        return x1, x2, x3
    return None


def _polish_angles(a: SymMat3, lambdas, angles, scale):
    """Damped Gauss-Newton on the reconstruction residual over the angles.

    The closed-form recovery is exact in exact arithmetic, but isolated
    conditioning corners (an angle within rounding distance of 0 or pi/2)
    can leave a few orders of magnitude on the table; one or two quadratic
    steps recover them.  Returns the improved angles and absolute residual.
    diagonalize3 calls it on Generic and AlreadyDiagonal2D results only.

    Everything is computed on the six unique entries of symmetric 3x3
    matrices, in floats.  The residual norm is the Frobenius norm, so the
    off-diagonal entries are weighted by 2 (_dot6).  The Jacobian uses
    dD/dphi_k = skew(omega_k) . D for D = rot3x(phi1) . rot3y(phi2) .
    rot3z(phi3), with omega_1 = e1, omega_2 = rot3x(phi1) e2 and omega_3 =
    rot3x(phi1) rot3y(phi2) e3 (see _jacobian6).  A step comes from the
    normal equations (J^T J + 1e-14 scale^2 I) x = J^T r; when they cannot
    be solved (a pivot that is not positive, a step that is not finite)
    the best angles so far are returned.
    """
    p = angles
    rec = _reconstruct6(rotation_entries(*p), lambdas)
    r = _residual6(rec, a)
    best_res, best = math.sqrt(_dot6(r, r)), p
    damp = 1e-14 * scale * scale
    for _ in range(2):
        j1, j2, j3 = _jacobian6(p[0], p[1], rec)
        step = _solve_spd3(
            _dot6(j1, j1) + damp, _dot6(j1, j2), _dot6(j1, j3),
            _dot6(j2, j2) + damp, _dot6(j2, j3), _dot6(j3, j3) + damp,
            _dot6(j1, r), _dot6(j2, r), _dot6(j3, r))
        if step is None:
            break
        p = (p[0] - step[0], p[1] - step[1], p[2] - step[2])
        rec = _reconstruct6(rotation_entries(*p), lambdas)
        r = _residual6(rec, a)
        res = math.sqrt(_dot6(r, r))
        if res < best_res:
            best_res, best = res, p
    # Angles3 wraps each angle by pi on its own.  For phi3 that only flips
    # two columns of D; an odd wrap of phi1 or phi2 must negate the angles
    # after it (the twin rule).
    p1, p2, p3 = best
    if _half_turn_apart(p1, wrap_half_pi(p1)):
        p2, p3 = -p2, -p3
    if _half_turn_apart(p2, wrap_half_pi(p2)):
        p3 = -p3
    return Angles3(p1, p2, p3), best_res


def _double_root_lambdas(lambdas):
    """Reorder so the repeated pair (the closest two roots, averaged) comes first."""
    l1, l2, l3 = lambdas
    gaps = (abs(l1 - l2), abs(l1 - l3), abs(l2 - l3))
    k = gaps.index(min(gaps))
    if k == 0:
        return 0.5 * (l1 + l2), l3
    if k == 1:
        return 0.5 * (l1 + l3), l2
    return 0.5 * (l2 + l3), l1


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


def _residual6(rec, a: SymMat3):
    """rec - A over the six unique entries."""
    return (rec[0] - a.a11, rec[1] - a.a22, rec[2] - a.a33,
            rec[3] - a.a12, rec[4] - a.a13, rec[5] - a.a23)


def _dot6(x, y):
    """Frobenius inner product of two symmetric matrices given by their
    six unique entries (11, 22, 33, 12, 13, 23)."""
    return (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
            + 2.0 * (x[3] * y[3] + x[4] * y[4] + x[5] * y[5]))


def _reconstruction_residual(a: SymMat3, d, lambdas, scale):
    """||D . diag(lambdas) . D^T - A||_F / scale over the six unique entries,
    from the nine entries of D, row by row: sqrt(_dot6(r, r)) / scale for
    r = _residual6(_reconstruct6(d, lambdas), a), written out."""
    m11, m22, m33, m12, m13, m23 = _reconstruct6(d, lambdas)
    a11, a22, a33, a12, a13, a23 = a
    r11, r22, r33 = m11 - a11, m22 - a22, m33 - a33
    r12, r13, r23 = m12 - a12, m13 - a13, m23 - a23
    return math.sqrt(r11 * r11 + r22 * r22 + r33 * r33
                     + 2.0 * (r12 * r12 + r13 * r13 + r23 * r23)) / scale


def diagonalize3(a: SymMat3) -> EigenDecomp3:
    """Full closed-form decomposition A = D . diag(lambdas) . D^T.

    Classifies into triple-root, double-root and generic branches from the
    cubic invariants; a generic-branch failure (both f-vectors zero, or an
    eigenvalue gap below tolerance) reroutes to the double-root handling.
    A Generic or AlreadyDiagonal2D result whose relative residual exceeds
    1e-12 goes through _polish_angles, and the polished angles are kept
    when they lower it.  DoubleRoot and TripleRoot results are returned
    unpolished, because no rotation lowers their residual: a DoubleRoot
    residual comes from averaging the two closest roots, and D . lam I .
    D^T = lam I leaves a TripleRoot residual to the eigenvalue alone.
    """
    coeffs = char_coeffs(a)
    pq = compute_pq(coeffs)
    scale = a.scale()

    if pq.delta is None:
        lam = coeffs.b / 3.0
        lambdas = (lam, lam, lam)
        angles = Angles3(0.0, 0.0, 0.0)
        n1, n2 = _f_route(a, scale)[2:4]
        signs, candidates, near_tie = (1, 1), (), False
        branch = Branch.TRIPLE_ROOT
    else:
        lambdas = eigenvalues3(coeffs, pq)
        branch = None
        if not pq.double_root:
            try:
                v = compute_v(a, lambdas)
                w = compute_w(a, lambdas, v)
                angles, signs, candidates, n1, n2, near_tie = resolve_signs(
                    a, lambdas, v, w, scale)
            except (BothFVectorsZero, DegenerateEigenvalues, DomainExcursion):
                pass  # the generic quotients do not fit: reroute
            else:
                tol_f = F_ZERO_EPS * scale
                branch = (Branch.ALREADY_DIAGONAL_2D
                          if n1 <= tol_f or n2 <= tol_f else Branch.GENERIC)
        if branch is None:
            lam, lam3 = _double_root_lambdas(lambdas)
            lambdas = (lam, lam, lam3)
            angles, report = degenerate_double(a, lam, lam3, scale)
            signs, candidates, n1, n2, _, near_tie = report
            branch = Branch.DOUBLE_ROOT

    d = rotation_entries(*angles)
    recon_res = _reconstruction_residual(a, d, lambdas, scale)
    if recon_res > 1e-12 and (branch is Branch.GENERIC
                              or branch is Branch.ALREADY_DIAGONAL_2D):
        polished, abs_res = _polish_angles(a, lambdas, angles, scale)
        if abs_res / scale < recon_res:
            angles = polished
            d = rotation_entries(*angles)
            # the residual of the d returned, not of the unwrapped polish
            recon_res = _reconstruction_residual(a, d, lambdas, scale)
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
