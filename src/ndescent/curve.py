"""Elliptic curves y^2 = x^3 + a x + b over a field tower.

Points, chord-tangent arithmetic, division polynomials, the rational
n-torsion table, and the two-torsion-argument function r.
"""

import operator
from functools import reduce

from .fields import Poly, _into, _ladder, poly_x, roots_in_field


class TorsionNotRational(Exception):
    """The n-torsion is not fully rational over the given field.

    .count is the number of rational n-torsion points found (including O).
    """

    def __init__(self, count, n):
        self.count = count
        super().__init__("found %d of %d rational n-torsion points over the base field"
                         % (count, n * n))


class PoleAtP(Exception):
    """Evaluation hit a pole (or a 0/0 the formula cannot resolve)."""


class Curve:
    """y^2 = x^3 + a*x + b with nonzero discriminant."""

    def __init__(self, field, a, b):
        self.field = field
        self.a, self.b = _into(a, field), _into(b, field)
        disc = -16 * (4 * self.a ** 3 + 27 * self.b ** 2)
        if disc.is_zero():
            raise ValueError("singular curve: discriminant is zero")
        self.disc = disc
        self._divpoly = {}  # m -> f_m, see _divpoly
        self._data = {}  # n -> descent_funcs.CurveData

    def rhs(self, x):
        return x ** 3 + self.a * x + self.b

    def contains(self, x, y):
        return (y * y - self.rhs(x)).is_zero()

    def base_change(self, field):
        """The same equation over an extension field; ValueError for a
        field that does not extend this one."""
        return Curve(field, self.a, self.b)

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.b == other.b

    def __repr__(self):
        return "Curve(y^2 = x^3 + (%r)x + (%r))" % (self.a, self.b)


class Point:
    """A point on a Curve: either the point at infinity or affine (x, y)."""

    __slots__ = ("curve", "x", "y", "is_infinity")

    def __init__(self, curve, x, y):
        self.curve = curve
        x, y = _into(x, curve.field), _into(y, curve.field)
        if not curve.contains(x, y):
            raise ValueError("point is not on the curve")
        self.x = x
        self.y = y
        self.is_infinity = False

    @staticmethod
    def at_infinity(curve):
        p = Point.__new__(Point)
        p.curve = curve
        p.x = None
        p.y = None
        p.is_infinity = True
        return p

    def key(self):
        if self.is_infinity:
            return (0,)
        return (1,) + self.x.key() + self.y.key()

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __neg__(self):
        if self.is_infinity:
            return self
        return Point(self.curve, self.x, -self.y)

    def __add__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if self.x == other.x and self.y == -other.y:
            return Point.at_infinity(self.curve)
        lam = slope(self, other)
        x3 = lam * lam - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return Point(self.curve, x3, y3)

    def __rmul__(self, m):
        if m < 0:
            return (-m) * (-self)
        return _ladder(self, m, Point.at_infinity(self.curve), operator.add)

    def __repr__(self):
        if self.is_infinity:
            return "Point(O)"
        return "Point(%r, %r)" % (self.x, self.y)


def _multiples(t, n):
    """[O, t, 2t, ..., (n-1)t], by chained additions."""
    out = [Point.at_infinity(t.curve)]
    for _ in range(n - 1):
        out.append(out[-1] + t)
    return out


def slope(t1, t2):
    """The slope of the line through t1 and t2 (tangent if equal).
    Both points affine, t1 + t2 != O."""
    if t1.is_infinity or t2.is_infinity:
        raise ValueError("a slope needs affine points")
    if t1.x == t2.x:
        if not (t1.y == t2.y) or t1.y.is_zero():
            raise ValueError("vertical line has no slope")
        return (3 * t1.x ** 2 + t1.curve.a) / (2 * t1.y)
    return (t2.y - t1.y) / (t2.x - t1.x)


def r_constant(t1, t2):
    """The constant of r_{(t1,t2)} for affine t1, t2: x(t1) when
    t1 + t2 = O, else slope(t1, t2).  r_eval is a function of t1 + t2
    alone minus this, and geometry.quadrics_for_C takes r's constants
    from here."""
    if t1.x == t2.x and t1.y == -t2.y:
        return t1.x
    return slope(t1, t2)


def r_eval(t1, t2, p):
    """The function r_{(t1,t2)} with divisor (t1)+(t2)-(O)-(t1+t2),
    normalized as: 1 if either argument is O; else h - r_constant(t1, t2),
    with h = x if W = t1+t2 is O and h = (y + y(W))/(x - x(W)) otherwise.
    Raises PoleAtP when the formula cannot be evaluated at p."""
    if t1.is_infinity or t2.is_infinity:
        return t1.curve.field.one()
    if p.is_infinity:
        raise PoleAtP("r has a pole at O")
    w = t1 + t2
    if w.is_infinity:
        h = p.x
    elif p.x == w.x:
        raise PoleAtP("formula for r degenerates at +-(t1+t2)")
    else:
        h = (p.y + w.y) / (p.x - w.x)
    return h - r_constant(t1, t2)


def _division(f, m, y4):
    """f_m = psi_m for odd m and psi_m/(2y) for even m, into the dict f
    that holds f_0 .. f_4 (_divpoly), polynomials or values, with
    y4 = 16 rhs^2 = (2y)^4.  The usual recursions (Washington, Elliptic
    Curves, 3.2) then stay in x alone:

        f_{2k}   = f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2),
        f_{2k+1} = f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3,

    the odd one with its term of even-index factors times y4.  Products
    skip the factors f_1 = f_2 = 1; for m >= 5 each keeps a factor."""
    if m not in f:
        def prod(*idx):
            return reduce(operator.mul, [_division(f, i, y4) for i in idx if i > 2])
        k = m // 2
        if m % 2 == 0:
            f[m] = prod(k) * (prod(k + 2, k - 1, k - 1) - prod(k - 2, k + 1, k + 1))
        else:
            t1, t2 = prod(k + 2, k, k, k), prod(k - 1, k + 1, k + 1, k + 1)
            f[m] = y4 * t1 - t2 if k % 2 == 0 else t1 - y4 * t2
    return f[m]


def _divpoly(curve, m):
    """f_m as a polynomial in x (_division), cached on the curve, from
    f_0 = 0, f_1 = f_2 = 1, f_3 = 3x^4 + 6ax^2 + 12bx - a^2 and
    f_4 = 2(x^6 + 5ax^4 + 20bx^3 - 5a^2x^2 - 4abx - 8b^2 - a^3)."""
    cache = curve._divpoly
    if not cache:
        K, a, b = curve.field, curve.a, curve.b
        one = Poly([1], K)
        cache.update(enumerate([  # coefficients from the constant term up
            Poly([], K), one, one, Poly([-a * a, 12 * b, 6 * a, 0, 3], K),
            Poly([-2 * (8 * b * b + a ** 3), -8 * a * b, -10 * a * a, 40 * b, 10 * a, 0, 2], K)]))
    if m not in cache:
        rhs = Poly([curve.b, curve.a, 0, 1], curve.field)
        _division(cache, m, 16 * rhs * rhs)
    return cache[m]


def _odd(m):
    if m < 1 or m % 2 == 0:
        raise ValueError("division polynomials are taken for odd m >= 1, not %d" % m)


def division_polynomial(curve, m):
    """The division polynomial psi_m as a polynomial in x, for odd m >= 1.
    Raises ValueError for other m (for even m, psi_m has a factor y)."""
    _odd(m)
    return _divpoly(curve, m)


def division_value(curve, m, x):
    """psi_m(x) for odd m >= 1 and x in the curve's field or an extension:
    the recursion of _divpoly run on values from f_3(x) and f_4(x), so
    == division_polynomial(curve, m)(x) with no f_m, m > 4, built and no
    value kept.  ValueError for other m."""
    _odd(m)
    one, f3, f4 = x.tower.one(), _divpoly(curve, 3), _divpoly(curve, 4)
    f = {0: x.tower.zero(), 1: one, 2: one, 3: f3(x), 4: f4(x)}
    r = curve.rhs(x)
    return _division(f, m, 16 * r * r)


class TorsionTable:
    """The rational n-torsion arranged as i*T1 + j*T2, with indices (i, j)
    in lex order: the one map between E[n], its index pairs and their
    flat positions k = i*n + j, and the group law on indices.
    generators holds the indices (1, 0) and (0, 1) of T1 and T2.
    ValueError unless the n^2 points are distinct."""

    def __init__(self, curve, n, t1, t2):
        self.curve = curve
        self.n = n
        self.t1 = t1
        self.t2 = t2
        self.indices = tuple((i, j) for i in range(n) for j in range(n))
        self.generators = ((1, 0), (0, 1))
        m1, m2 = _multiples(t1, n), _multiples(t2, n)
        self.points = [m1[i] + m2[j] for i, j in self.indices]
        if len({p.key() for p in self.points}) != n * n:
            raise ValueError("torsion basis is not independent")

    def point(self, i, j):
        return self.points[self.flat((i, j))]

    def flat(self, ij):
        """The position of index ij in table order, reduced mod n."""
        return (ij[0] % self.n) * self.n + (ij[1] % self.n)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def neg_index(self, ij):
        i, j = ij
        return ((-i) % self.n, (-j) % self.n)

    def add_index(self, ij, kl):
        return ((ij[0] + kl[0]) % self.n, (ij[1] + kl[1]) % self.n)


def torsion_table(curve, n):
    """Find the full rational n-torsion and pick a deterministic basis.

    Raises TorsionNotRational(count, n) if fewer than n^2 points are rational
    (count includes O), and ValueError unless n is odd and at least 3.
    Basis: the first pair (T1, T2) of affine points, in the coordinate
    sort order, for which TorsionTable finds the n^2 points i T1 + j T2
    distinct.  Then (i, j) -> i T1 + j T2 is a homomorphism
    (Z/n)^2 -> E[n] with n^2 distinct images, so a bijection, for every
    n.  A point extends to a basis of (Z/n)^2 exactly when it has order
    n, so T1 is the first point of order n.  No T2 in the cyclic group
    of T1 gives n^2 distinct points, so TorsionTable is tried on none.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n = %d: only odd n >= 3 is supported" % n)
    psi = division_polynomial(curve, n)
    # the points are distinct: psi_n is squarefree on a nonsingular curve,
    # and y^2 = rhs(x0) is nonzero since odd n has no 2-torsion
    pts = [Point.at_infinity(curve)]
    x = poly_x(curve.field)
    for x0 in roots_in_field(psi):
        for y0 in roots_in_field(x * x - curve.rhs(x0)):
            pts.append(Point(curve, x0, y0))
    if len(pts) < n * n:
        raise TorsionNotRational(len(pts), n)
    affine = sorted(pts[1:], key=lambda p: p.key())
    for t1 in affine:
        cyclic = {p.key() for p in _multiples(t1, n)}
        for t2 in (t for t in affine if t.key() not in cyclic):
            try:
                return TorsionTable(curve, n, t1, t2)
            except ValueError:
                continue
    # cannot be reached: E[n] = (Z/n)^2 has a basis, and both its points are affine
    raise ArithmeticError("no two points of E[n] form a basis")
