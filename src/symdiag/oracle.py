"""Independent reference implementations for verifying the closed-form solvers.

Nothing here shares a code path with the trigonometric formulas: the
eigensolver is classical cyclic Jacobi, and the cubic roots come from
bisection of brackets on the characteristic polynomial.  Both are written
here on the standard library and numpy alone, and numpy is imported by
jacobi_eigen and reconstruct, which take and return arrays, on their first
call: importing this module loads the standard library only.  Jacobi
rotates the rows of a 2x2 or 3x3 held as Python floats; its float entry
point, jacobi_eigen_floats, takes a SymMat2 or SymMat3 and returns floats,
so ``symdiag verify`` and ``symdiag bench`` pay for its arithmetic and
generic list loops only, without an array round trip.
"""

import math
from typing import NamedTuple

from .core import SymMat2, SymMat3
from .eig3 import CubicCoeffs

MAX_SWEEPS = 100
# Beyond this largest |entry| the squared Frobenius norm in the stopping
# threshold overflows; such matrices are scaled by an exact power of two.
JACOBI_PRESCALE_ABOVE = 2.0**500
# |poly| at a critical point below this (times scale^3) marks a double root
DOUBLE_ROOT_POLY_EPS = 1e-11
# Bisection stops once its bracket is narrower than
# ROOT_XTOL + ROOT_RTOL * |midpoint| (scipy's brentq stopping rule).
ROOT_XTOL = 1e-15
ROOT_RTOL = 4 * math.ulp(1.0)


class NoConvergence(RuntimeError):
    """Jacobi failed to converge; unreachable for symmetric input in practice."""


class ComplexRootsDetected(ValueError):
    """The cubic is not real-rooted: its coefficients did not come from a
    symmetric matrix."""


class JacobiResult(NamedTuple):
    """Eigenvalues, eigenvectors as the columns of V, sweeps taken and the
    final off-diagonal norm.  jacobi_eigen gives eigenvalues and V as
    arrays; jacobi_eigen_floats gives the eigenvalues as a tuple of floats
    and V as its rows, lists of floats."""

    eigenvalues: "numpy.ndarray | tuple"
    eigenvectors: "numpy.ndarray | list"
    sweeps: int
    offdiag_final: float


# the cyclic-by-row rotation order for each supported size
_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def jacobi_eigen(a, tol=1e-13) -> JacobiResult:
    """jacobi_eigen_floats on a SymMat2, SymMat3 or a symmetric 2x2 or 3x3
    array-like, with the eigenvalues and V returned as float64 arrays.

    Any other shape raises ValueError.  The eigenvalues are the same
    floats as jacobi_eigen_floats gives.
    """
    import numpy as np
    if isinstance(a, (SymMat2, SymMat3)):
        res = jacobi_eigen_floats(a, tol)
    else:
        m = np.array(a, dtype=float)
        if m.shape not in ((2, 2), (3, 3)):
            raise ValueError(
                f"expected a 2x2 or 3x3 matrix, got shape {m.shape}")
        res = _jacobi(m.tolist(), tol)
    return JacobiResult(np.array(res.eigenvalues), np.array(res.eigenvectors),
                        res.sweeps, res.offdiag_final)


def jacobi_eigen_floats(a, tol=1e-13) -> JacobiResult:
    """Cyclic-by-row Jacobi rotations on a SymMat2 or SymMat3, in Python
    floats: numpy is neither imported nor called.

    Stops when the squared off-diagonal sum drops to tol^2 * max(1,
    ||A||_F^2).  A matrix whose largest |entry| exceeds
    JACOBI_PRESCALE_ABOVE is first scaled by 2^-e, with e from frexp of
    that entry, so that ||A||_F^2 stays finite; the eigenvalues and the
    final off-diagonal norm are scaled back by 2^e, both exactly.
    """
    if isinstance(a, SymMat3):
        a11, a22, a33, a12, a13, a23 = a
        m = [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
    elif isinstance(a, SymMat2):
        a11, a22, a12 = a
        m = [[a11, a12], [a12, a22]]
    else:
        raise TypeError(f"expected a SymMat2 or SymMat3, "
                        f"got {type(a).__name__}")
    return _jacobi(m, tol)


def _ldexp(x, exp):
    """x * 2^exp, exactly; +-inf where that overflows, as numpy's ldexp."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


def _jacobi(m, tol):
    """The rotations of jacobi_eigen_floats on m, the rows of a 2x2 or
    3x3 as lists of floats, which it overwrites."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    exp = 0
    biggest = max(abs(x) for row in m for x in row)
    if biggest > JACOBI_PRESCALE_ABOVE:
        exp = math.frexp(biggest)[1]
        m = [[math.ldexp(x, -exp) for x in row] for row in m]
    n = len(m)
    pairs = _PAIRS[n]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    thresh = tol * tol * max(1.0, sum(x * x for row in m for x in row))

    sweeps = 0
    off = sum(m[p][q] ** 2 for p, q in pairs)
    while off > thresh:
        if sweeps >= MAX_SWEEPS:
            raise NoConvergence(f"no convergence after {MAX_SWEEPS} sweeps")
        for p, q in pairs:
            apq = m[p][q]
            if apq == 0.0:
                continue
            # stable rotation: smaller root of t^2 + 2 t theta - 1 = 0
            theta = 0.5 * (m[q][q] - m[p][p]) / apq
            t = math.copysign(1.0, theta) / (abs(theta)
                                             + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            # m <- J^T m J and v <- v J, where J is the identity with
            # J[p][p] = J[q][q] = c and J[p][q] = -J[q][p] = s
            for row in m + v:
                rp, rq = row[p], row[q]
                row[p] = c * rp - s * rq
                row[q] = s * rp + c * rq
            mp, mq = m[p], m[q]
            m[p] = [c * x - s * y for x, y in zip(mp, mq)]
            m[q] = [s * x + c * y for x, y in zip(mp, mq)]
        sweeps += 1
        off = sum(m[p][q] ** 2 for p, q in pairs)
    return JacobiResult(tuple(_ldexp(m[i][i], exp) for i in range(n)), v,
                        sweeps, math.ldexp(math.sqrt(off), exp))


def _bisect(f, a, b):
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    Halves the bracket until it is narrower than ROOT_XTOL + ROOT_RTOL *
    |midpoint| or the midpoint rounds to one of its ends, and returns the
    midpoint.  An exact zero at an end or at a midpoint is returned at
    once.  Raises ValueError when f(a) and f(b) have the same sign, as
    brentq does, and also when either of them is NaN.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError("f(a) and f(b) must have different signs")
    neg, pos = (a, b) if fa < 0.0 else (b, a)
    while True:
        mid = 0.5 * neg + 0.5 * pos
        if (mid == neg or mid == pos
                or abs(pos - neg) < ROOT_XTOL + ROOT_RTOL * abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            neg = mid
        else:
            pos = mid


def cubic_roots_reference(coeffs: CubicCoeffs):
    """Three real roots of l^3 - b l^2 + c l + d by bracketing and bisection.

    The critical points (b +- sqrt(p))/3 split the line into three brackets;
    all roots lie within (b +- 2 sqrt(p))/3.  A near-zero polynomial value at
    a critical point is a double root there.  Each simple root is found by
    ``_bisect`` to brentq's stopping tolerances, ROOT_XTOL and ROOT_RTOL.
    Deliberately slow and unconditionally reliable.
    """
    b, c, d = coeffs.b, coeffs.c, coeffs.d

    def poly(x):
        return ((x - b) * x + c) * x + d

    s = coeffs.scale()
    p = b * b - 3.0 * c
    if p < -1e-12 * s * s:
        # p is a sum of squares for any symmetric matrix; a genuinely
        # negative value means one real and two complex roots
        raise ComplexRootsDetected("cubic has complex roots (p < 0)")
    p = max(p, 0.0)
    if p <= 9.0 * (1e-12 * s) ** 2:
        lam = b / 3.0
        return (lam, lam, lam)
    sp = math.sqrt(p)
    x_lo = (b - sp) / 3.0   # local maximum
    x_hi = (b + sp) / 3.0   # local minimum
    f_lo = poly(x_lo)
    f_hi = poly(x_hi)
    ptol = DOUBLE_ROOT_POLY_EPS * s**3
    if f_lo < -ptol or f_hi > ptol:
        raise ComplexRootsDetected("cubic has complex roots")

    margin = max(1e-8 * s, 1e-8 * sp)
    lo = (b - 2.0 * sp) / 3.0 - margin
    hi = (b + 2.0 * sp) / 3.0 + margin

    if abs(f_lo) <= ptol:
        # double root at the local maximum, simple root to the right
        return (x_lo, x_lo, _bisect(poly, x_hi, hi))
    if abs(f_hi) <= ptol:
        return (_bisect(poly, lo, x_lo), x_hi, x_hi)
    return (_bisect(poly, lo, x_lo),
            _bisect(poly, x_lo, x_hi),
            _bisect(poly, x_hi, hi))


def reconstruct(d, lambdas):
    """D . diag(lambdas) . D^T for a decomposition candidate."""
    import numpy as np
    d = np.asarray(d, dtype=float)
    if float(np.linalg.norm(d.T @ d - np.eye(d.shape[0]))) > 1e-10:
        raise ValueError("d is not orthogonal within 1e-10")
    return d @ np.diag(lambdas) @ d.T


def _sym_norm3(e11, e22, e33, e12, e13, e23):
    """Frobenius norm of a symmetric 3x3 from its six unique entries."""
    return math.sqrt(e11 * e11 + e22 * e22 + e33 * e33
                     + 2.0 * (e12 * e12 + e13 * e13 + e23 * e23))


def _sym_norm2(e11, e22, e12):
    """Frobenius norm of a symmetric 2x2 from its three unique entries."""
    return math.sqrt(e11 * e11 + e22 * e22 + 2.0 * (e12 * e12))


def _eigvec_res3(a, x, y, z, lam):
    """||A v - lam v|| for the column v = (x, y, z)."""
    a11, a22, a33, a12, a13, a23 = a
    return math.sqrt((a11 * x + a12 * y + a13 * z - lam * x) ** 2
                     + (a12 * x + a22 * y + a23 * z - lam * y) ** 2
                     + (a13 * x + a23 * y + a33 * z - lam * z) ** 2)


def _eigvec_res2(a, x, y, lam):
    """||A v - lam v|| for the column v = (x, y)."""
    a11, a22, a12 = a
    return math.sqrt((a11 * x + a12 * y - lam * x) ** 2
                     + (a12 * x + a22 * y - lam * y) ** 2)


def residuals(a, dec):
    """(relative reconstruction residual, orthogonality defect, eigenvector residuals).

    Works for both EigenDecomp2 and EigenDecomp3, on Python floats: D
    comes from ``dec.d_entries`` (the floats the solver stored, or those of
    the array the record was built with) and A from the fields of the
    SymMat, so no array is built and numpy is not imported.
    recon_rel is ||D diag(lambdas) D^T - A||_F / scale and ortho is
    ||D^T D - I||_F.  Both differences are symmetric, so each norm sums
    the squares of its six (3x3) or three (2x2) unique entries with the
    off-diagonal ones weighted by 2; every entry is a left-to-right sum
    over k of (d_ik lambda_k) d_jk, or of d_ki d_kj, less a_ij or the
    identity.  Eigenvector residual i is ||A d_i - lambda_i d_i|| / scale,
    each component ((a_j1 x_1 + a_j2 x_2) + a_j3 x_3) - lambda_i x_j for
    the column x = d_i.  No BLAS call is made, so the bits do not depend
    on which kernel numpy's BLAS picks for the CPU (its dot products may
    fuse and reorder), and the cost is float arithmetic only.
    """
    scale = a.scale()
    d = dec.d_entries
    if len(d) == 4:
        d11, d12, d21, d22 = d
        l1, l2 = dec.lambda1, dec.lambda2
        p11, p12, p21, p22 = d11 * l1, d12 * l2, d21 * l1, d22 * l2
        recon = _sym_norm2(p11 * d11 + p12 * d12 - a.a11,
                           p21 * d21 + p22 * d22 - a.a22,
                           p11 * d21 + p12 * d22 - a.a12)
        ortho = _sym_norm2(d11 * d11 + d21 * d21 - 1.0,
                           d12 * d12 + d22 * d22 - 1.0,
                           d11 * d12 + d21 * d22)
        eigvec = [_eigvec_res2(a, d11, d21, l1) / scale,
                  _eigvec_res2(a, d12, d22, l2) / scale]
        return recon / scale, ortho, eigvec
    d11, d12, d13, d21, d22, d23, d31, d32, d33 = d
    l1, l2, l3 = dec.lambda1, dec.lambda2, dec.lambda3
    # the rows of D diag(lambdas)
    p11, p12, p13 = d11 * l1, d12 * l2, d13 * l3
    p21, p22, p23 = d21 * l1, d22 * l2, d23 * l3
    p31, p32, p33 = d31 * l1, d32 * l2, d33 * l3
    recon = _sym_norm3(p11 * d11 + p12 * d12 + p13 * d13 - a.a11,
                       p21 * d21 + p22 * d22 + p23 * d23 - a.a22,
                       p31 * d31 + p32 * d32 + p33 * d33 - a.a33,
                       p11 * d21 + p12 * d22 + p13 * d23 - a.a12,
                       p11 * d31 + p12 * d32 + p13 * d33 - a.a13,
                       p21 * d31 + p22 * d32 + p23 * d33 - a.a23)
    ortho = _sym_norm3(d11 * d11 + d21 * d21 + d31 * d31 - 1.0,
                       d12 * d12 + d22 * d22 + d32 * d32 - 1.0,
                       d13 * d13 + d23 * d23 + d33 * d33 - 1.0,
                       d11 * d12 + d21 * d22 + d31 * d32,
                       d11 * d13 + d21 * d23 + d31 * d33,
                       d12 * d13 + d22 * d23 + d32 * d33)
    eigvec = [_eigvec_res3(a, d11, d21, d31, l1) / scale,
              _eigvec_res3(a, d12, d22, d32, l2) / scale,
              _eigvec_res3(a, d13, d23, d33, l3) / scale]
    return recon / scale, ortho, eigvec
