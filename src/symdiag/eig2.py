"""Closed-form diagonalization of a 2x2 real symmetric matrix.

Eigenvalues come from the quadratic formula with a sign convention that
keeps lambda1 attached to a11: interchanging a11 and a22 interchanges the
eigenvalues and flips the sign of the rotation angle.
"""

import math

from .core import EigenDecomp2, SymMat2, wrap_half_pi

# |a11 - a22| and |a12| both below DEGENERACY_EPS * max|a_ij| means the
# matrix is treated as a scalar multiple of the identity: phi = 0.
DEGENERACY_EPS = 1e-14
# Beyond this largest |entry|, a11 + a22, a11 - a22 or the hypot in
# eigenvalues2 can overflow; eigenvalues2 and diagonalize2 solve A * 2^-2
# instead.
_PRESCALE_ABOVE = 2.0**1021


def _sign(x):
    # sign(0) = +1 keeps the lambda1 >= lambda2 ordering in the tie case
    return -1.0 if x < 0.0 else 1.0


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


def _eigenvalues2(a: SymMat2, e):
    """The eigenvalues of A * 2^e; ldexp raises OverflowError where one
    leaves the double range."""
    t = a.a11 + a.a22
    r = _sign(a.a11 - a.a22) * math.hypot(a.a11 - a.a22, 2.0 * a.a12)
    return math.ldexp(0.5 * (t + r), e), math.ldexp(0.5 * (t - r), e)


def eigenvalues2(a: SymMat2):
    """Both eigenvalues, lambda1 carrying the sign(a11 - a22) branch.

    Raises OverflowError where an eigenvalue leaves the double range.
    """
    return _eigenvalues2(*_prescaled(a))


def rotation_angle2(a: SymMat2):
    """Anti-clockwise angle of the eigenvectors w.r.t. the basis, in (-pi/2, pi/2].

    Half the quadrant-aware arctangent of 2*a12 over a11 - a22, evaluated on
    sign-corrected arguments so the branch stays consistent with the
    eigenvalue convention (the plain single-argument arctangent would, but
    divides by zero when a11 = a22).  It is evaluated on A * 2^-2 where
    diagonalize2 prescales, so that neither argument overflows; the angle
    is that of A.
    """
    return _rotation_angle2(_prescaled(a)[0])


def _rotation_angle2(a: SymMat2):
    """rotation_angle2 of a matrix _prescaled leaves as it is."""
    eps = DEGENERACY_EPS * max(abs(a.a11), abs(a.a22), abs(a.a12))
    if abs(a.a11 - a.a22) <= eps and abs(a.a12) <= eps:
        return 0.0
    s = _sign(a.a11 - a.a22)
    return wrap_half_pi(0.5 * math.atan2(2.0 * a.a12 * s, (a.a11 - a.a22) * s))


def diagonalize2(a: SymMat2) -> EigenDecomp2:
    """Full closed-form decomposition A = D . diag(l1, l2) . D^T.

    A matrix with an entry above _PRESCALE_ABOVE is solved as A * 2^-2,
    its eigenvalues mapped back as eigenvalues2 maps them (OverflowError
    where one leaves the double range); the angle needs no mapping.
    """
    a, e = _prescaled(a)
    l1, l2 = _eigenvalues2(a, e)
    return EigenDecomp2.from_angle(l1, l2, _rotation_angle2(a))
