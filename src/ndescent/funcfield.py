"""The function field of an elliptic curve, and leading terms at O.

Elements are (u(x) + v(x) y)/w(x) with y^2 reduced to x^3 + a x + b.
The local parameter at O is t = x/y.  There x = t^-2 (1 + O(t^4)) and
y = t^-3 (1 + O(t^4)) (Silverman, AEC IV.1), so u(x) leads at order
-2 deg u and v(x) y at order -3 - 2 deg v, each with the leading
coefficient of its polynomial.  The two orders differ in parity, so
they never cancel, and the leading term at O (all the pipeline
normalises by) is read off the degrees with no series expansion.

A function is stored as (u + v y)/w with a monic w that its builder
fixes, and no gcd is taken.  The library builds only Miller functions,
regular off O, with w = 1, in the coordinate ring
K[x, y]/(y^2 - x^3 - a x - b): on pairs (u, v), by ring products and
exact division by polynomials in x; a zero remainder certifies
membership in the ring (Hess, JSC 33 (2002)).  A stored function is
only scaled, evaluated and expanded at O, so it has no field
arithmetic.
"""

from .fields import Poly, poly_x
from .curve import PoleAtP, slope


class FunctionFieldElement:
    """(u + v*y)/w on y^2 = x^3 + a x + b: u, v, w in K[x], w monic and
    gcd(u, v, w) = 1, stored as the builder gives it (module docstring)."""

    __slots__ = ("curve", "u", "v", "w")

    def __init__(self, curve, u, v, w):
        self.curve, self.u, self.v, self.w = curve, u, v, w

    @classmethod
    def const(cls, curve, c):
        K = curve.field
        return cls(curve, Poly([c], K), Poly([], K), Poly([1], K))

    def scale(self, c):
        """c times the function, for a constant c."""
        return FunctionFieldElement(self.curve, c * self.u, c * self.v, self.w)

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
    f = FunctionFieldElement(curve, *_exact_div(num, den), one)
    ordv, lead = f.laurent()
    if ordv != -n:
        raise ArithmeticError("miller chain has pole order %d at O, not %d" % (-ordv, n))
    return f.scale(lead.inverse())
