"""The parent chain of the phi1 routing, kept verbatim as a bit-for-bit
reference for eig3.resolve_signs, which folds it into one body.

resolve_signs here is eig3's entry point as it was written over _f_route,
_select_signs, four _route_angle calls and _assemble_angles.
tests/test_phi1_routing.py swaps it in for eig3's to compare whole solves;
tests/test_eig3_angles.py builds its four-combination scoring on the same
helpers and _phi1_candidates.
"""

import math

from symdiag.core import AngleOfZeroVector, Angles3, SymMat3, wrap_half_pi
from symdiag.eig3 import (F_ZERO_EPS, NEAR_TIE_EPS, TIE_EPS, _HALF_PI,
                          _g_components, _half_turn_apart, _tuple_new)


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
    # phi1 is wrapped and the magnitudes lie in [0, pi/2], where wrap_half_pi
    # changes only -0.0 (to +0.0, as "+ 0.0" does) and -pi/2 (to pi/2):
    # Angles3 takes that case, and any angle out of range or NaN.
    phi2 = s2 * phi2_mag + 0.0
    phi3 = s3 * phi3_mag + 0.0
    if -_HALF_PI < phi2 <= _HALF_PI and -_HALF_PI < phi3 <= _HALF_PI:
        return _tuple_new(Angles3, (phi1, phi2, phi3)), (s2, s3)
    return Angles3(phi1, phi2, phi3), (s2, s3)


def resolve_signs(a: SymMat3, lambdas, v, w, scale):
    """Select the signs of phi2 and phi3 and recover phi1.

    v and w are as compute_v and compute_w return them, already in [0, 1].
    Only (+,+) and (+,-) of (+-arccos sqrt(v), +-arccos sqrt(w)) are
    scored, by _select_signs in straight-line code: D is invariant under
    (phi1 + pi, -phi2, -phi3), and _assemble_angles flips to that twin by
    _half_turn_apart.  The magnitudes are taken as they come; near 0 or
    pi/2 the arccos of a square root amplifies rounding in v and w, and
    diagonalize3's Jacobi correction recovers what that costs the
    residual.  With both f-vectors at or below tol_f both routes are NaN
    and phi1 = 0; such a matrix has two eigenvalues within ~3e-14 * scale,
    so compute_pq classifies it DoubleRoot before it gets here.  scale is
    ||A||_F.  Returns the angles and the SolveReport fields but the
    residual: (angles, selected_signs, phi1_candidates, f1_norm, f2_norm,
    near_tie); diagonalize3 builds the one report of the solve.
    """
    _, _, n1, n2, tol_f, cs1, cs2 = _f_route(a, scale)
    phi2_mag = math.acos(math.sqrt(v))
    phi3_mag = math.acos(math.sqrt(w))
    l1, l2, l3 = lambdas
    g = _g_components(l1 - l2, l2 - l3, phi2_mag, phi3_mag, v, w)
    (s2, s3, p11, p12, _), candidates, near_tie = _select_signs(
        n1, n2, tol_f, cs1, cs2, g)
    angles, signs = _assemble_angles(n1, n2, p11, p12,
                                     s2, s3, phi2_mag, phi3_mag)
    return angles, signs, candidates, n1, n2, near_tie
