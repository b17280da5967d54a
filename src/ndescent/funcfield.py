"""The function field of an elliptic curve, and Laurent expansions at O.

Elements are (u(x) + v(x) y)/w(x) with y^2 reduced to x^3 + a x + b.
The local parameter at O is t = x/y; expansions are exact truncated
Laurent series used to normalize leading coefficients and residues.
"""

from fractions import Fraction

from .fields import FieldElement, Poly, poly_gcd, poly_x
from .curve import PoleAtP


class LaurentSeries:
    """sum_{i=val}^{prec-1} coeffs[i-val] t^i + O(t^prec), exact coeffs."""

    __slots__ = ("tower", "val", "coeffs", "prec")

    def __init__(self, tower, val, coeffs, prec):
        assert prec - val == len(coeffs)
        self.tower = tower
        self.val = val
        self.coeffs = list(coeffs)
        self.prec = prec

    @staticmethod
    def scalar(tower, c, prec):
        if isinstance(c, (int, Fraction)):
            c = tower.from_fraction(c)
        coeffs = [c.lift_to(tower)] + [tower.zero()] * (prec - 1)
        return LaurentSeries(tower, 0, coeffs, prec)

    @staticmethod
    def parameter(tower, prec):
        coeffs = [tower.zero()] * (prec - 1)
        coeffs[0] = tower.one()
        return LaurentSeries(tower, 1, coeffs, prec)

    def coeff(self, i):
        assert i < self.prec, "coefficient beyond known precision"
        if i < self.val:
            return self.tower.zero()
        return self.coeffs[i - self.val]

    def normalized(self):
        """Trim leading zero coefficients (raises the valuation)."""
        k = 0
        while k < len(self.coeffs) and self.coeffs[k].is_zero():
            k += 1
        return LaurentSeries(self.tower, self.val + k, self.coeffs[k:], self.prec)

    def leading(self):
        """(order, coefficient) of the lowest nonzero term."""
        s = self.normalized()
        assert s.coeffs, "series is zero to its precision"
        return s.val, s.coeffs[0]

    def is_zero_to_precision(self):
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, prec):
        assert prec <= self.prec
        if prec <= self.val:
            return LaurentSeries(self.tower, prec, [], prec)
        return LaurentSeries(self.tower, self.val, self.coeffs[: prec - self.val], prec)

    def __neg__(self):
        return LaurentSeries(self.tower, self.val, [-c for c in self.coeffs], self.prec)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = LaurentSeries.scalar(self.tower, other, max(self.prec, 1))
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val)
        coeffs = [self.coeff(i) + other.coeff(i) for i in range(val, prec)]
        return LaurentSeries(self.tower, val, coeffs, prec)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = LaurentSeries.scalar(self.tower, other, max(self.prec, 1))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            if isinstance(other, (int, Fraction)):
                other = self.tower.from_fraction(other)
            return LaurentSeries(self.tower, self.val,
                                 [other * c for c in self.coeffs], self.prec)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        n = prec - val
        zero = self.tower.zero()
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            jmax = min(len(other.coeffs), n - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.tower, val, out, prec)

    __rmul__ = __mul__

    def inverse(self):
        s = self.normalized()
        assert s.coeffs and not s.coeffs[0].is_zero(), "cannot invert zero series"
        n = s.prec - s.val
        lead = s.coeffs[0].inverse()
        unit = [c * lead for c in s.coeffs]  # 1 + c1 t + ...
        inv = [s.tower.zero()] * n
        inv[0] = s.tower.one()
        for i in range(1, n):
            acc = s.tower.zero()
            for j in range(1, i + 1):
                acc = acc + unit[j] * inv[i - j]
            inv[i] = -acc
        inv = [c * lead for c in inv]
        return LaurentSeries(s.tower, -s.val, inv, n - s.val)

    def __truediv__(self, other):
        return self * other.inverse()

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs[:6]):
            if not c.is_zero():
                parts.append("(%r) t^%d" % (c, self.val + i))
        return "LaurentSeries(%s + O(t^%d))" % (" + ".join(parts) or "0", self.prec)


def curve_series(curve, prec):
    """Expansions of (x, y) in the local parameter t = x/y at O.

    Returns (x_series, y_series) exact to O(t^prec).  Uses the fixed
    point s = t^3 + a t s^2 + b s^3 for s = 1/y.
    """
    cached = getattr(curve, "_series_cache", None)
    if cached is None or cached[0] < prec:
        K = curve.field
        W = prec + 8
        t = LaurentSeries.parameter(K, W)
        a, b = curve.a, curve.b
        t3 = t * t * t
        s = t3
        # each pass refines s by at least four t-orders
        for _ in range(W // 4 + 2):
            s = (t3 + a * (t * (s * s)) + b * (s * s * s)).truncate(W)
        y = s.inverse()
        x = t * y
        curve._series_cache = (min(x.prec, y.prec), x, y)
        cached = curve._series_cache
    return cached[1].truncate(prec), cached[2].truncate(prec)


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
        assert not w.is_zero(), "zero denominator"
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
            assert other.curve == self.curve, "elements on different curves"
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
        assert not self.is_zero(), "inverse of zero function"
        rhs = self.curve.rhs_poly()
        # 1/(u + vy) = (u - vy)/(u^2 - v^2 rhs)
        den = self.u * self.u - rhs * (self.v * self.v)
        assert not den.is_zero(), "u^2 = v^2 (x^3+ax+b) is impossible for u+vy != 0"
        return self._raw(self.w * self.u, -(self.w * self.v), den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        assert isinstance(k, int)
        if k < 0:
            return self.inverse() ** (-k)
        out = FunctionFieldElement.const(self.curve, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def derivative(self):
        """d/dx along the curve, using y' = (3x^2 + a)/(2y)."""
        c = self.curve
        du, dv, dw = self.u.derivative(), self.v.derivative(), self.w.derivative()
        w2 = self.w * self.w
        main = self._raw(du * self.w - self.u * dw, dv * self.w - self.v * dw, w2)
        # v * y' = v * rhs' / (2y) = (v rhs' / 2) * y / rhs
        rhs = c.rhs_poly()
        half = Fraction(1, 2)
        vterm = FunctionFieldElement(c, 0, half * (self.v * rhs.derivative()), rhs * self.w)
        return main + vterm

    def laurent(self, prec):
        """Expansion at O in t = x/y, exact to O(t^prec)."""
        d = max(self.u.degree, self.v.degree, self.w.degree, 1)
        W = prec + 3 * (d + 2)
        while True:
            xs, ys = curve_series(self.curve, W)
            un = _poly_series(self.u, xs, self.curve.field, W)
            vn = _poly_series(self.v, xs, self.curve.field, W)
            wn = _poly_series(self.w, xs, self.curve.field, W)
            if wn.is_zero_to_precision():
                W += 8
                continue
            num = un + vn * ys
            res = num * wn.inverse()
            if res.prec >= prec:
                return res.truncate(prec)
            W += prec - res.prec + 4
        # unreachable

    def __repr__(self):
        return "FunctionFieldElement((%r) + (%r) y, / %r)" % (self.u, self.v, self.w)


def _poly_series(p, xs, tower, prec):
    if p.is_zero():
        return LaurentSeries.scalar(tower, 0, prec)
    acc = None
    for c in reversed(list(p.coeffs)):
        acc = LaurentSeries.scalar(tower, c, prec) if acc is None else acc * xs + c
    return acc


def line_through(p1, p2):
    """The function cutting the line through p1 and p2 on the curve
    (tangent if p1 = p2, vertical x - x0 if p1 + p2 = O).
    div = (p1) + (p2) + (-(p1+p2)) - 3(O), or (p1) + (-p1) - 2(O) if vertical."""
    curve = p1.curve
    assert not (p1.is_infinity or p2.is_infinity), "lines need affine points"
    x = poly_x(curve.field)
    if p1.x == p2.x and p1.y == -p2.y:
        return FunctionFieldElement(curve, x - p1.x, 0, 1)
    if p1 == p2:
        lam = (3 * p1.x ** 2 + curve.a) / (2 * p1.y)
    else:
        lam = (p2.y - p1.y) / (p2.x - p1.x)
    nu = p1.y - lam * p1.x
    return FunctionFieldElement(curve, -(lam * x) - nu, Poly([1], curve.field), 1)


def vertical_through(p):
    curve = p.curve
    assert not p.is_infinity
    x = poly_x(curve.field)
    return FunctionFieldElement(curve, x - p.x, 0, 1)


def miller_function(t, n):
    """A function with divisor n(t) - n(O) for an n-torsion point t,
    normalized so its Laurent expansion at O is t^{-n}(1 + O(t)).

    Built by the double-and-add chain f_{m+1} = f_m l_{mT,T} / v_{(m+1)T}."""
    curve = t.curve
    assert not t.is_infinity, "no function for the zero point"
    assert (n * t).is_infinity, "point is not n-torsion"
    one = FunctionFieldElement.const(curve, 1)
    f = one
    acc = t
    for m in range(1, n):
        # multiply by the function with divisor (acc) + (t) - (acc+t) - (O)
        nxt = acc + t
        if nxt.is_infinity:
            f = f * vertical_through(acc)
        else:
            f = f * (line_through(acc, t) / vertical_through(nxt))
        acc = nxt
    assert acc.is_infinity
    ordv, lead = f.laurent(-n + 3).leading()
    assert ordv == -n, "miller chain has wrong pole order at O"
    return f * lead.inverse()
