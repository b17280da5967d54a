"""The function field of an elliptic curve, and leading terms at O.

Elements are (u(x) + v(x) y)/w(x) with y^2 reduced to x^3 + a x + b.
The local parameter at O is t = x/y.  There x = t^-2 (1 + O(t^4)) and
y = t^-3 (1 + O(t^4)) (Silverman, AEC IV.1), so u(x) leads at order
-2 deg u and v(x) y at order -3 - 2 deg v, each with the leading
coefficient of its polynomial.  The two orders differ in parity, so
they never cancel, and the leading term at O (all the pipeline
normalises by) is read off the degrees with no series expansion.
"""

from fractions import Fraction

from .fields import FieldElement, Poly, poly_gcd, poly_x
from .curve import PoleAtP, slope


class FunctionFieldElement:
    """(u + v*y)/w on y^2 = x^3 + a x + b, with u, v, w in K[x], w monic,
    gcd(u, v, w) = 1.  This form is unique, so == is structural."""

    __slots__ = ("curve", "u", "v", "w")

    def __init__(self, curve, u, v, w):
        K = curve.field
        if not isinstance(u, Poly):
            u = Poly([u], K)
        if not isinstance(v, Poly):
            v = Poly([v], K)
        if not isinstance(w, Poly):
            w = Poly([w], K)
        u = u.lift_to(K) if u.tower != K else u
        v = v.lift_to(K) if v.tower != K else v
        w = w.lift_to(K) if w.tower != K else w
        if w.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(poly_gcd(u, v), w)
        if g.degree > 0:
            u, v, w = u // g, v // g, w // g
        lc = w.lc()
        if not (lc == 1):
            inv = lc.inverse()
            u, v, w = inv * u, inv * v, inv * w
        self.curve = curve
        self.u = u
        self.v = v
        self.w = w

    @staticmethod
    def const(curve, c):
        return FunctionFieldElement(curve, Poly([c], curve.field), 0, 1)

    @staticmethod
    def coordinate_x(curve):
        return FunctionFieldElement(curve, poly_x(curve.field), 0, 1)

    @staticmethod
    def coordinate_y(curve):
        return FunctionFieldElement(curve, 0, Poly([1], curve.field), 1)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = FunctionFieldElement.const(self.curve, other)
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.w == other.w

    def __neg__(self):
        return self._raw(-self.u, -self.v, self.w)

    def _raw(self, u, v, w):
        return FunctionFieldElement(self.curve, u, v, w)

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
        return self._raw(u, v, self.w * o.w)

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
        rhs = self.curve.rhs_poly()
        u = self.u * o.u + rhs * (self.v * o.v)
        v = self.u * o.v + self.v * o.u
        return self._raw(u, v, self.w * o.w)

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
        return self._raw(self.w * self.u, -(self.w * self.v), den)

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


def line_through(p1, p2):
    """The function cutting the line through p1 and p2 on the curve
    (tangent if p1 = p2, vertical x - x0 if p1 + p2 = O).
    div = (p1) + (p2) + (-(p1+p2)) - 3(O), or (p1) + (-p1) - 2(O) if vertical."""
    curve = p1.curve
    if p1.is_infinity or p2.is_infinity:
        raise ValueError("lines need affine points")
    if p1.x == p2.x and p1.y == -p2.y:
        return vertical_through(p1)
    lam = slope(p1, p2)
    nu = p1.y - lam * p1.x
    return FunctionFieldElement(curve, -(lam * poly_x(curve.field)) - nu,
                                Poly([1], curve.field), 1)


def vertical_through(p):
    curve = p.curve
    if p.is_infinity:
        raise ValueError("no vertical line through O")
    x = poly_x(curve.field)
    return FunctionFieldElement(curve, x - p.x, 0, 1)


def miller_function(t, n):
    """A function with divisor n(t) - n(O) for an n-torsion point t,
    normalized so its Laurent expansion at O is t^{-n}(1 + O(t)).

    Built by the double-and-add chain f_{m+1} = f_m l_{mT,T} / v_{(m+1)T}."""
    curve = t.curve
    if t.is_infinity:
        raise ValueError("no function for the zero point")
    if not (n * t).is_infinity:
        raise ValueError("point is not n-torsion")
    f = FunctionFieldElement.const(curve, 1)
    acc = t
    for m in range(1, n):
        # multiply by the function with divisor (acc) + (t) - (acc+t) - (O)
        nxt = acc + t
        if nxt.is_infinity:
            f = f * vertical_through(acc)
        else:
            f = f * (line_through(acc, t) / vertical_through(nxt))
        acc = nxt
    ordv, lead = f.laurent()
    if ordv != -n:
        raise ArithmeticError("miller chain has pole order %d at O, not %d" % (-ordv, n))
    return f * lead.inverse()
