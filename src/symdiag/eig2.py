"""Closed-form diagonalization of a 2x2 real symmetric matrix.

Eigenvalues come from the quadratic formula with a sign convention that
keeps lambda1 attached to a11: interchanging a11 and a22 interchanges the
eigenvalues and flips the sign of the rotation angle.  One kernel on
floats (_solve2) serves every 2x2 solve, eig3's double-root block too.
"""

import math

from .core import EigenDecomp2, SymMat2

# |a11 - a22| and |a12| both below DEGENERACY_EPS * max|a_ij| means the
# matrix is treated as a scalar multiple of the identity: phi = 0.
DEGENERACY_EPS = 1e-14
# Beyond this largest |entry|, a11 + a22, a11 - a22 or the hypot in
# eigenvalues2 can overflow; eigenvalues2 and diagonalize2 solve A * 2^-2
# instead.
_PRESCALE_ABOVE = 2.0**1021


def _prescaled(a: SymMat2):
    """(A, 0), or (A * 2^-2, 2) where the largest |entry| exceeds
    _PRESCALE_ABOVE: the matrix to solve and the exponent that maps its
    eigenvalues back.  The scaling is exact, and a matrix in the subnormal
    range is left as given, so it loses no bit."""
    a11, a22, a12 = a
    top = _PRESCALE_ABOVE
    if -top <= a11 <= top and -top <= a22 <= top and -top <= a12 <= top:
        return a, 0
    return SymMat2(*[math.ldexp(x, -2) for x in a]), 2


def _solve2(a11, a22, a12):
    """(lambda1, lambda2, phi) of [[a11, a12], [a12, a22]], no entry above
    _PRESCALE_ABOVE: the quadratic formula, lambda1 on the sign(a11 - a22)
    branch, and half the quadrant-aware arctangent of 2 a12 over a11 - a22
    on sign-corrected arguments, consistent with that branch (the
    single-argument arctangent would be, but divides by zero at a11 = a22).
    """
    d = a11 - a22
    # sign(0) = +1 keeps the lambda1 >= lambda2 ordering in the tie case
    s = -1.0 if d < 0.0 else 1.0
    t = a11 + a22
    r = s * math.hypot(d, 2.0 * a12)
    eps = DEGENERACY_EPS * max(abs(a11), abs(a22), abs(a12))
    # x = |d| >= 0, or -0.0 with y != 0, puts phi in [-pi/4, pi/4], where
    # wrap_half_pi only turns -0.0 into 0.0, as "+ 0.0" does
    phi = 0.0 if abs(d) <= eps and abs(a12) <= eps else 0.5 * math.atan2(
        2.0 * a12 * s, d * s) + 0.0
    return 0.5 * (t + r), 0.5 * (t - r), phi


def eigenvalues2(a: SymMat2):
    """Both eigenvalues, lambda1 carrying the sign(a11 - a22) branch.

    Raises OverflowError where an eigenvalue leaves the double range.
    """
    a, e = _prescaled(a)
    l1, l2, _ = _solve2(*a)
    return math.ldexp(l1, e), math.ldexp(l2, e)


def rotation_angle2(a: SymMat2):
    """Anti-clockwise angle of the eigenvectors w.r.t. the basis, in (-pi/2, pi/2].

    _solve2's angle, evaluated on A * 2^-2 where diagonalize2 prescales,
    so that neither argument overflows; the angle is that of A.
    """
    return _solve2(*_prescaled(a)[0])[2]


def diagonalize2(a: SymMat2) -> EigenDecomp2:
    """Full closed-form decomposition A = D . diag(l1, l2) . D^T.

    A matrix with an entry above _PRESCALE_ABOVE is solved as A * 2^-2,
    its eigenvalues mapped back by ldexp, which raises OverflowError where
    one leaves the double range; the angle needs no mapping.
    """
    a, e = _prescaled(a)
    l1, l2, phi = _solve2(*a)
    return EigenDecomp2.from_angle(math.ldexp(l1, e), math.ldexp(l2, e), phi)
