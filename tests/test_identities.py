"""The paper's identities, checked symbolically on the code's own formulas.

The stages run on sympy expressions instead of floats.  A ``Traced`` value
carries an exact sympy expression together with a float sample of it:
arithmetic acts on both, and comparisons read the sample.  So a stage takes
the branch it takes on the sample matrix, and its result is the exact
formula it computed.  D = Rx(phi1) Ry(phi2) Rz(phi3) is written in
ci = cos(phi_i) and si = sin(phi_i), and A = D diag(l1, l2, l3) D^T.  An
identity in the angles holds when the difference of its sides reduces to
zero modulo ci^2 + si^2 = 1.
"""

import math
import operator

import sympy

from symdiag import (
    CubicCoeffs,
    SymMat3,
    char_coeffs,
    compute_pq,
    compute_v,
    compute_w,
    degenerate_double,
    pq_expanded,
)
from symdiag.eig3 import _derotated, _g_components


def _lift(x):
    # a float constant of the code enters as the rational it equals
    return x if isinstance(x, Traced) else Traced(sympy.Rational(x), x)


def _arithmetic(op):
    """op on both parts, as the operator and its reflected form."""
    def forward(self, other):
        other = _lift(other)
        return Traced(op(self.expr, other.expr), op(self.sample, other.sample))

    def reverse(self, other):
        other = _lift(other)
        return Traced(op(other.expr, self.expr), op(other.sample, self.sample))

    return forward, reverse


def _comparison(op):
    """op on the samples: the branch the stage takes on the sample."""
    return lambda self, other: op(self.sample, _lift(other).sample)


class Traced:
    """An exact sympy expression and a float sample of it."""

    __slots__ = ("expr", "sample")

    def __init__(self, expr, sample):
        self.expr = expr
        self.sample = sample

    __add__, __radd__ = _arithmetic(operator.add)
    __sub__, __rsub__ = _arithmetic(operator.sub)
    __mul__, __rmul__ = _arithmetic(operator.mul)
    __truediv__, __rtruediv__ = _arithmetic(operator.truediv)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __float__(self):
        # math.sqrt and math.acos take the sample: the stages feed their
        # results only to thresholds and to the arccos angle
        return float(self.sample)

    def __neg__(self):
        return Traced(-self.expr, -self.sample)

    def __abs__(self):
        return Traced(sympy.Abs(self.expr), abs(self.sample))

    def __pow__(self, k):
        return Traced(self.expr**k, self.sample**k)


def traced_mat(symbols, samples):
    """A SymMat3 of Traced entries (the constructor wants finite floats)."""
    return tuple.__new__(SymMat3, [Traced(e, x)
                                   for e, x in zip(symbols, samples)])


def expr(x):
    return x.expr if isinstance(x, Traced) else sympy.Rational(x)


# A generic symmetric matrix, with the sample the stages branch on.
ENTRIES = sympy.symbols("a11 a22 a33 a12 a13 a23")
ENTRY_SAMPLE = (0.5, 0.25, -0.3, 0.1, 0.2, -0.4)

# A = D diag(l1, l2, l3) D^T, sampled at the angles (0.3, 0.5, 0.7) and
# eigenvalues in the order compute_v assumes, l1 >= l3 >= l2.
C1, S1, C2, S2, C3, S3 = TRIG = sympy.symbols("c1 s1 c2 s2 c3 s3")
LAMBDAS = sympy.symbols("l1 l2 l3")
ANGLE_SAMPLE = (0.3, 0.5, 0.7)
LAMBDA_SAMPLE = (3.0, 1.0, 2.0)
PYTHAGORAS = [S1**2 + C1**2 - 1, S2**2 + C2**2 - 1, S3**2 + C3**2 - 1]


def rotations():
    """Rx(phi1), Ry(phi2) and Rz(phi3) in ci and si."""
    return (sympy.Matrix([[1, 0, 0], [0, C1, -S1], [0, S1, C1]]),
            sympy.Matrix([[C2, 0, S2], [0, 1, 0], [-S2, 0, C2]]),
            sympy.Matrix([[C3, -S3, 0], [S3, C3, 0], [0, 0, 1]]))


def conjugated_symbols():
    """The six unique entries of D diag(l1, l2, l3) D^T, and their samples."""
    rx, ry, rz = rotations()
    d = rx * ry * rz
    a = (d * sympy.diag(*LAMBDAS) * d.T).expand()
    entries = [a[0, 0], a[1, 1], a[2, 2], a[0, 1], a[0, 2], a[1, 2]]
    at = {}
    for phi, c, s in zip(ANGLE_SAMPLE, TRIG[::2], TRIG[1::2]):
        at[c], at[s] = math.cos(phi), math.sin(phi)
    at.update(zip(LAMBDAS, LAMBDA_SAMPLE))
    return entries, [float(e.subs(at)) for e in entries]


def vanishes_on_the_circle(poly):
    """Whether poly lies in the ideal of ci^2 + si^2 - 1: the three
    generators have coprime leading terms si^2, so they are a Groebner
    basis and the remainder of the division is zero exactly then."""
    gens = TRIG + LAMBDAS
    _, remainder = sympy.reduced(sympy.expand(poly), PYTHAGORAS, *gens,
                                 order="lex")
    return remainder == 0


def quotient_of(x):
    """Numerator and denominator of a Traced quotient."""
    return sympy.fraction(sympy.together(x.expr))


def test_reduction_keeps_what_is_not_on_the_circle():
    assert vanishes_on_the_circle(C1**2 * (S2**2 + C2**2 - 1))
    assert not vanishes_on_the_circle(C2**2 - 1)
    assert not vanishes_on_the_circle(S3**2 + C3**2)


def test_char_coeffs_are_the_invariants():
    """det(l I - A) = l^3 - tr(A) l^2 + I2(A) l - det(A), so the cubic
    l^3 - b l^2 + c l + d has b = tr(A), c = I2(A) (the sum of the principal
    2x2 minors) and d = -det(A)."""
    a11, a22, a33, a12, a13, a23 = ENTRIES
    m = sympy.Matrix([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])
    b, c, d = (expr(x) for x in char_coeffs(traced_mat(ENTRIES,
                                                        ENTRY_SAMPLE)))
    minors = sum(m.extract(ij, ij).det() for ij in ([0, 1], [0, 2], [1, 2]))
    assert sympy.expand(b - m.trace()) == 0
    assert sympy.expand(c - minors) == 0
    assert sympy.expand(d + m.det()) == 0


def test_char_coeffs_of_a_conjugated_diagonal():
    """On A = D diag(l) D^T the coefficients are the elementary symmetric
    functions of the eigenvalues, for every rotation D."""
    entries, samples = conjugated_symbols()
    l1, l2, l3 = LAMBDAS
    b, c, d = (expr(x) for x in char_coeffs(traced_mat(entries, samples)))
    assert vanishes_on_the_circle(b - (l1 + l2 + l3))
    assert vanishes_on_the_circle(c - (l1 * l2 + l1 * l3 + l2 * l3))
    assert vanishes_on_the_circle(d + l1 * l2 * l3)


def test_compute_pq_equals_pq_expanded():
    """p = b^2 - 3c and q = 2b^3 - 9bc - 27d from char_coeffs are exactly
    pq_expanded's forms in the entries."""
    a = traced_mat(ENTRIES, ENTRY_SAMPLE)
    pq = compute_pq(char_coeffs(a))
    p, q = pq_expanded(a)
    assert not pq.double_root and pq.delta is not None
    assert sympy.expand(expr(pq.p) - expr(p)) == 0
    assert sympy.expand(expr(pq.q) - expr(q)) == 0


def test_discriminant_is_the_product_of_squared_gaps():
    """4p^3 - q^2 = 27 (l1 - l2)^2 (l1 - l3)^2 (l2 - l3)^2 for the cubic
    with the eigenvalues as roots: compute_pq's discriminant test is a test
    for a repeated eigenvalue."""
    l1, l2, l3 = LAMBDAS
    x1, x2, x3 = LAMBDA_SAMPLE
    coeffs = tuple.__new__(CubicCoeffs, (
        Traced(l1 + l2 + l3, x1 + x2 + x3),
        Traced(l1 * l2 + l1 * l3 + l2 * l3, x1 * x2 + x1 * x3 + x2 * x3),
        Traced(-l1 * l2 * l3, -x1 * x2 * x3)))
    pq = compute_pq(coeffs)
    p, q = expr(pq.p), expr(pq.q)
    gaps = 27 * ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
    assert sympy.expand(4 * p**3 - q**2 - gaps) == 0


def test_compute_v_is_cos_phi2_squared():
    """(a12^2 + a13^2 + (a11 - l3)(a11 + l3 - l1 - l2)) / ((l2 - l3)(l3 - l1))
    = cos(phi2)^2 on A = D diag(l) D^T."""
    entries, samples = conjugated_symbols()
    lambdas = tuple(Traced(s, x) for s, x in zip(LAMBDAS, LAMBDA_SAMPLE))
    v = compute_v(traced_mat(entries, samples), lambdas)
    num, den = quotient_of(v)
    assert vanishes_on_the_circle(num - C2**2 * den)


def test_compute_w_is_cos_phi3_squared():
    """(a11 - l3 + (l3 - l2) v) / ((l1 - l2) v) = cos(phi3)^2 on
    A = D diag(l) D^T, with v from compute_v."""
    entries, samples = conjugated_symbols()
    a = traced_mat(entries, samples)
    lambdas = tuple(Traced(s, x) for s, x in zip(LAMBDAS, LAMBDA_SAMPLE))
    w = compute_w(a, lambdas, compute_v(a, lambdas))
    num, den = quotient_of(w)
    assert vanishes_on_the_circle(num - C3**2 * den)


class TracedMath:
    """The math module for a stage whose angles are Traced: cos and sin
    act on the expression, in the angle symbols, and on the sample."""

    @staticmethod
    def cos(x):
        return Traced(sympy.cos(x.expr), math.cos(x.sample))

    @staticmethod
    def sin(x):
        return Traced(sympy.sin(x.expr), math.sin(x.sample))


ANGLES = sympy.symbols("phi1 phi2 phi3")


def in_ci_si(x):
    """A Traced expression in the angle symbols, rewritten in ci and si."""
    trig = {}
    for phi, c, s in zip(ANGLES, TRIG[::2], TRIG[1::2]):
        trig[sympy.cos(phi)], trig[sympy.sin(phi)] = c, s
    return sympy.expand_trig(expr(x)).subs(trig)


def test_g_vectors_are_the_rotated_f_vectors(monkeypatch):
    """On A = D diag(l1, l2, l3) D^T, _g_components' vectors are the
    f-vectors rotated by phi1 and 2 phi1: g1 = R(phi1) f1 and
    g2 = R(2 phi1) f2, with f1 = (a12, -a13), f2 = (a22 - a33, -2 a23),
    v = c2^2 and w = c3^2.  So each route reads phi1 back as the angle
    from f to g, from the eigenvalues, phi2 and phi3 alone."""
    monkeypatch.setattr("symdiag.eig3.math", TracedMath)
    (_, a22, a33, a12, a13, a23), _ = conjugated_symbols()
    l1, l2, l3 = (Traced(s, x) for s, x in zip(LAMBDAS, LAMBDA_SAMPLE))
    phi2, phi3 = (Traced(s, x) for s, x in zip(ANGLES[1:], ANGLE_SAMPLE[1:]))
    v = Traced(C2**2, math.cos(phi2.sample) ** 2)
    w = Traced(C3**2, math.cos(phi3.sample) ** 2)
    g1x, g1y, g2x, g2y = map(in_ci_si, _g_components(
        l1 - l2, l2 - l3, phi2, phi3, v, w))
    f1x, f1y = a12, -a13
    f2x, f2y = a22 - a33, -2 * a23
    cos2, sin2 = C1**2 - S1**2, 2 * S1 * C1
    assert vanishes_on_the_circle(g1x - (C1 * f1x - S1 * f1y))
    assert vanishes_on_the_circle(g1y - (S1 * f1x + C1 * f1y))
    assert vanishes_on_the_circle(g2x - (cos2 * f2x - sin2 * f2y))
    assert vanishes_on_the_circle(g2y - (sin2 * f2x + cos2 * f2y))


class SplitMath(TracedMath):
    """TracedMath for degenerate_double: its two atan2 calls give phi1 and
    phi2 in turn, with the sample the arguments give, and are recorded."""

    def __init__(self):
        self.atan2_args = []

    def atan2(self, y, x):
        self.atan2_args.append((y, x))
        angle = ANGLES[len(self.atan2_args) - 1]
        return Traced(angle, math.atan2(float(y), float(x)))

    @staticmethod
    def hypot(x, y):
        return Traced(sympy.sqrt(x.expr**2 + y.expr**2),
                      math.hypot(x.sample, y.sample))


def test_double_root_split_reads_d_back(monkeypatch):
    """On A = D diag(l1, l2, l3) D^T, for any l1 and l2, the cross product
    of two rows of A - l3 I that degenerate_double takes is parallel to D's
    third column (s2, -s1 c2, c1 c2), as a positive multiple at the sample:
    its atan2 calls read phi1 and phi2 back.  The block of A over the first
    two columns of Rx(phi1) Ry(phi2), which degenerate_double hands to
    eig2's kernel, is then Rz(phi3) diag(l1, l2) Rz(phi3)^T: a rotation
    inside the pair is exactly phi3, as Rz(0) Rz(phi3) = Rz(phi3)."""
    traced_math = SplitMath()
    blocks = []
    monkeypatch.setattr("symdiag.eig3.math", traced_math)
    monkeypatch.setattr("symdiag.eig3._solve2",
                        lambda *args: blocks.append(args) or (0, 0, 0))
    entries, samples = conjugated_symbols()
    l1, l2, l3 = LAMBDAS
    degenerate_double(traced_mat(entries, samples),
                      Traced(l3, LAMBDA_SAMPLE[2]))
    (minus_y, z), (x, _) = traced_math.atan2_args
    column = (S2, -S1 * C2, C1 * C2)
    v = (expr(x), -expr(minus_y), expr(z))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert vanishes_on_the_circle(v[i] * column[j] - v[j] * column[i])
    # the atan2 samples are phi1 and phi2 of D, not their twins
    got = [math.atan2(float(y), float(x)) for y, x in traced_math.atan2_args]
    assert max(abs(g - w) for g, w in zip(got, ANGLE_SAMPLE)) < 1e-12
    (b11, b22, b12), = blocks
    assert vanishes_on_the_circle(in_ci_si(b11) - (C3**2 * l1 + S3**2 * l2))
    assert vanishes_on_the_circle(in_ci_si(b22) - (S3**2 * l1 + C3**2 * l2))
    assert vanishes_on_the_circle(in_ci_si(b12) - C3 * S3 * (l1 - l2))
    rz = rotations()[2]
    assert rz.subs({C3: 1, S3: 0}) * rz == rz


def test_derotated_rotation_gives_the_read_back_angles():
    """The Jacobi correction reads its angles back from D = Rx Ry Rz:
    (-d23, d33) = c2 (s1, c1) gives phi1, and _derotated's Rx(phi1)^T D
    equals Ry(phi2) Rz(phi3), whose entries 13 and 33 are (s2, c2) and 21
    and 22 are (s3, c3)."""
    rx, ry, rz = rotations()
    d = rx * ry * rz
    assert sympy.expand(-d[1, 2] - C2 * S1) == 0
    assert sympy.expand(d[2, 2] - C2 * C1) == 0
    rows = [list(d.row(i)) for i in range(3)]
    derotated = sympy.Matrix(_derotated(rows, C1, S1))
    assert all(vanishes_on_the_circle(x) for x in derotated - ry * rz)


# diagonalize3 solves 2^-e A, and A - m I where the trace dominates: a
# shift m and a scale k = 2^-e, with samples.
SHIFT, SCALE = sympy.symbols("m k")
SHIFT_SAMPLE, SCALE_SAMPLE = 0.75, 0.25


def _shifted(entries, m):
    a11, a22, a33, a12, a13, a23 = entries
    return (a11 - m, a22 - m, a33 - m, a12, a13, a23)


def _pq(entries):
    pq = compute_pq(char_coeffs(tuple.__new__(SymMat3, entries)))
    return expr(pq.p), expr(pq.q)


def test_compute_pq_under_shift_and_scale():
    """p and q of A - m I are those of A, and p and q of k A are k^2 p and
    k^3 q: the cubic's invariants see the spread of the spectrum, not its
    mean, and the classification on 2^-e A is that on A."""
    a = traced_mat(ENTRIES, ENTRY_SAMPLE)
    p, q = _pq(a)
    m, k = Traced(SHIFT, SHIFT_SAMPLE), Traced(SCALE, SCALE_SAMPLE)
    p_m, q_m = _pq(_shifted(a, m))
    assert sympy.expand(p_m - p) == 0
    assert sympy.expand(q_m - q) == 0
    p_k, q_k = _pq([k * x for x in a])
    assert sympy.expand(p_k - SCALE**2 * p) == 0
    assert sympy.expand(q_k - SCALE**3 * q) == 0


def _same_quotient(x, y):
    (nx, dx), (ny, dy) = quotient_of(x), quotient_of(y)
    return sympy.expand(nx * dy - ny * dx) == 0


def test_angle_quotients_under_shift_and_scale():
    """compute_v's and compute_w's quotients are unchanged by
    (A, l) -> (A - m I, l - m) and by (A, l) -> (k A, k l): the angles
    of the normalized matrix are those of A.  The entries are generic
    symbols, sampled at a conjugated diagonal so that v and w lie inside
    (0, 1), where the clamp passes the quotient through."""
    a = traced_mat(ENTRIES, conjugated_symbols()[1])
    lambdas = tuple(Traced(s, x) for s, x in zip(LAMBDAS, LAMBDA_SAMPLE))
    v = compute_v(a, lambdas)
    w = compute_w(a, lambdas, v)
    m, k = Traced(SHIFT, SHIFT_SAMPLE), Traced(SCALE, SCALE_SAMPLE)
    for b, mu in ((_shifted(a, m), [x - m for x in lambdas]),
                  ([k * x for x in a], [k * x for x in lambdas])):
        b = tuple.__new__(SymMat3, b)
        v_b = compute_v(b, mu)
        assert _same_quotient(v_b, v)
        assert _same_quotient(compute_w(b, mu, v_b), w)
