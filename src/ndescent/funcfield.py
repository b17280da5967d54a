"""The function field of an elliptic curve, and leading terms at O.

Elements are (u(x) + v(x) y)/w(x) with y^2 reduced to x^3 + a x + b.
The local parameter at O is t = x/y.  There x = t^-2 (1 + O(t^4)) and
y = t^-3 (1 + O(t^4)) (Silverman, AEC IV.1), so u(x) leads at order
-2 deg u and v(x) y at order -3 - 2 deg v, each with the leading
coefficient of its polynomial.  The two orders differ in parity, so
they never cancel, and the leading term at O (all the pipeline
normalises by) is read off the degrees with no series expansion.

A function regular off O is (u + v y)/1, in the coordinate ring
K[x, y]/(y^2 - x^3 - a x - b).  Miller functions here and translated
functions in descent_funcs are built there, on pairs (u, v), by ring
products and exact division by polynomials in x, with no gcd: a zero
remainder certifies membership in the ring (Hess, JSC 33 (2002)).
"""

from fractions import Fraction

from .fields import FieldElement, Poly, poly_gcd, poly_x
from .curve import PoleAtP, slope


class FunctionFieldElement:
    """(u + v*y)/w on y^2 = x^3 + a x + b, with u, v, w in K[x], w monic,
    gcd(u, v, w) = 1.  This form is unique, so == is structural.  A
    constant w leaves gcd(u, v, w) a unit, so no gcd is taken then."""

    __slots__ = ("curve", "u", "v", "w")

    def __init__(self, curve, u, v, w):
        K = curve.field
        u, v, w = (Poly([p], K) if not isinstance(p, Poly) else p if p.tower == K
                   else p.lift_to(K) for p in (u, v, w))
        if w.is_zero():
            raise ZeroDivisionError("zero denominator")
        if w.degree > 0:
            g = poly_gcd(poly_gcd(u, v), w)
            if g.degree > 0:
                u, v, w = u // g, v // g, w // g
        lc = w.lc()
        if not (lc == 1):
            inv = lc.inverse()
            u, v, w = inv * u, inv * v, inv * w
        self.curve, self.u, self.v, self.w = curve, u, v, w

    @staticmethod
    def const(curve, c):
        return FunctionFieldElement(curve, Poly([c], curve.field), 0, 1)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = FunctionFieldElement.const(self.curve, other)
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.w == other.w

    def __neg__(self):
        return FunctionFieldElement(self.curve, -self.u, -self.v, self.w)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return FunctionFieldElement.const(self.curve, other)
        if isinstance(other, FunctionFieldElement):
            if not (other.curve == self.curve):
                raise ValueError("elements on different curves")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u = self.u * o.w + o.u * self.w
        v = self.v * o.w + o.v * self.w
        return FunctionFieldElement(self.curve, u, v, self.w * o.w)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u, v = _ring_mul(self.curve.rhs_poly(), (self.u, self.v), (o.u, o.v))
        return FunctionFieldElement(self.curve, u, v, self.w * o.w)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        rhs = self.curve.rhs_poly()
        # 1/(u + vy) = (u - vy)/(u^2 - v^2 rhs)
        den = self.u * self.u - rhs * (self.v * self.v)
        # cannot fire: u + v y != 0, and u^2 = v^2 (x^3 + a x + b) with v != 0
        # would make a polynomial of odd degree a square in K(x)
        assert not den.is_zero(), "u^2 = v^2 (x^3+ax+b) is impossible for u+vy != 0"
        return FunctionFieldElement(self.curve, self.w * self.u, -(self.w * self.v), den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def evaluate(self, p):
        """Value at an affine point (over any extension of the base field).
        Raises PoleAtP if the point is at infinity or the reduced
        denominator vanishes there (even a removable 0/0 is refused)."""
        if p.is_infinity:
            raise PoleAtP("evaluation at O")
        wx = self.w(p.x)
        if wx.is_zero():
            raise PoleAtP("denominator vanishes at the point")
        return (self.u(p.x) + self.v(p.x) * p.y) / wx

    def laurent(self):
        """The leading term (order, coefficient) of the expansion at O in
        t = x/y, exact.  w is monic, so the order is the larger pole of
        u and v y (module docstring) plus 2 deg w, and the coefficient is
        that of u or of v.  Raises ValueError on the zero function."""
        u, v = self.u, self.v
        if v.is_zero() or (not u.is_zero() and u.degree > v.degree + 1):
            order, lead = -2 * u.degree, u.lc()
        else:
            order, lead = -2 * v.degree - 3, v.lc()
        return order + 2 * self.w.degree, lead

    def __repr__(self):
        return "FunctionFieldElement((%r) + (%r) y, / %r)" % (self.u, self.v, self.w)


def _ring_mul(rhs, a, b):
    """The product of u1 + v1 y and u2 + v2 y, as pairs (u, v) of
    polynomials in x, with y^2 = rhs."""
    (u1, v1), (u2, v2) = a, b
    return u1 * u2 + rhs * (v1 * v2), u1 * v2 + v1 * u2


def _exact_div(a, w):
    """(u + v y)/w for a = (u, v) and a nonzero polynomial w.  Raises
    ArithmeticError unless w divides u and v, that is unless the
    quotient lies in the coordinate ring."""
    (qu, ru), (qv, rv) = divmod(a[0], w), divmod(a[1], w)
    if not (ru.is_zero() and rv.is_zero()):
        raise ArithmeticError("(u + v y)/w is not in the coordinate ring")
    return qu, qv


def miller_function(t, n):
    """A function with divisor n(t) - n(O) for an n-torsion point t,
    normalized so its Laurent expansion at O is t^{-n}(1 + O(t)).

    Built by the chain f_{m+1} = f_m l_{mT,T} / v_{(m+1)T} in the
    coordinate ring: the lines multiply into one numerator, divided
    exactly by the product of the verticals at the end; a remainder
    raises ArithmeticError."""
    curve = t.curve
    if t.is_infinity:
        raise ValueError("no function for the zero point")
    if not (n * t).is_infinity:
        raise ValueError("point is not n-torsion")
    K, rhs = curve.field, curve.rhs_poly()
    x, one, zero = poly_x(K), Poly([1], K), Poly([], K)
    num, den, acc = (one, zero), one, t
    for _ in range(1, n):
        nxt = acc + t
        if nxt.is_infinity:  # t = -acc: the vertical x - x(acc)
            num = _ring_mul(rhs, num, (x - acc.x, zero))
        else:  # y - lam x - nu through acc and t, over x - x(acc + t)
            lam = slope(acc, t)
            num = _ring_mul(rhs, num, (-(lam * x) - (acc.y - lam * acc.x), one))
            den = den * (x - nxt.x)
        acc = nxt
    f = FunctionFieldElement(curve, *_exact_div(num, den), 1)
    ordv, lead = f.laurent()
    if ordv != -n:
        raise ArithmeticError("miller chain has pole order %d at O, not %d" % (-ordv, n))
    return f * lead.inverse()
