"""The Miller functions of E[3], stored as functions on the curve.

A function is stored as (u(x) + v(x) y)/w(x) on y^2 = x^3 + a x + b,
in the form its builder fixes, with no gcd taken.  The library builds
only the constant 1 and, for T != O in E[3], F_T with divisor
3(T) - 3(O): the tangent y - lam x - nu at the flex T (miller_function).
A stored function is only evaluated, so there is no field arithmetic.

At O, in t = x/y, x = t^-2 (1 + O(t^4)) and y = t^-3 (1 + O(t^4))
(Silverman, AEC IV.1), so u(x) leads at order -2 deg u and v(x) y at
-3 - 2 deg v, each with its polynomial's leading coefficient; the
parities differ, so the two never cancel.
"""

from .fields import Poly
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
        that of u or of v.  Raises ValueError on the zero function.  No
        library code calls it; it stays because perfbench/spans.py times
        it by name."""
        u, v = self.u, self.v
        if v.is_zero() or (not u.is_zero() and u.degree > v.degree + 1):
            order, lead = -2 * u.degree, u.lc()
        else:
            order, lead = -2 * v.degree - 3, v.lc()
        return order + 2 * self.w.degree, lead

    def __repr__(self):
        return "FunctionFieldElement((%r) + (%r) y, / %r)" % (self.u, self.v, self.w)


def miller_function(t, n):
    """F_T = y - lam x - nu, the tangent at T != O in E[3] (n = 3), with
    lam = slope(T, T) and nu = y_T - lam x_T: div F_T = 3(T) - 3(O), and
    F_T = t^-3 (1 + O(t)) at O.

    The certificate is the flex identity rhs(x) - (lam x + nu)^2 =
    (x - x_T)^3, as lam^2 = 3 x_T, 2 lam nu = a - 3 x_T^2 and
    nu^2 = b + x_T^3.  Proof: F_T is a polynomial in x and y, so its
    only pole is O, of order 3, with leading coefficient v = 1 (module
    docstring).  At a zero P, y_P = lam x_P + nu, so the identity gives
    (x_P - x_T)^3 = y_P^2 - y_P^2 = 0, then y_P = y_T: P = T.  A divisor
    has degree 0, so div F_T = 3(T) - 3(O), which also certifies 3T = O.

    Raises ValueError for n != 3, for O or y_T = 0 (slope), and for a
    point whose flex identity fails."""
    if n != 3:
        raise ValueError("n = %d: Miller functions are the tangents at flexes, n = 3" % n)
    curve = t.curve
    lam = slope(t, t)
    nu = t.y - lam * t.x
    if not (lam * lam == 3 * t.x and 2 * lam * nu == curve.a - 3 * t.x ** 2
            and nu * nu == curve.b + t.x ** 3):
        raise ValueError("the tangent at the point is no flex: it is not in E[3]")
    one = Poly([1], curve.field)
    return FunctionFieldElement(curve, Poly([-nu, -lam], curve.field), one, one)
