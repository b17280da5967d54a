"""Exact arithmetic in towers of number fields over Q.

A tower is a chain Q = K_0 < K_1 < ... < K_r where each level is a
monogenic extension K_i = K_{i-1}[t_i]/(m_i(t_i)) with m_i monic and
irreducible over the level below.  K_r has the Q-basis of monomials
t_1^e_1 ... t_r^e_r (0 <= e_i < deg m_i), listed with t_1 fastest and
t_r most significant.  An element is its coordinate vector in this
basis, stored flat as a tuple of Python ints over one positive
denominator and kept in lowest terms (Cohen, GTM 138, section 4.2.1),
so equal elements have equal data and every comparison is exact.

Each tower multiplies with a sparse table of structure constants
b_i b_j = sum_k c_ijk b_k, built once from its minimal polynomial and
the multiplication of the level below.  The same table gives the
matrix of multiplication by an element, and an inverse solves a y = 1
with it over the integers.  Polynomials are Poly objects with
FieldElement coefficients; factoring uses sympy over Q and Trager's
norm method up each level.

A new level is certified irreducible when it is built.  A binomial
x^p - a with p prime is irreducible as soon as a is not a p-th power
(Lang, Algebra, VI Thm 9.1), and nonresidue_witness proves that
cheaply: it looks for a prime l = 1 mod p at which the tower embeds
into Q_l (each level's minimal polynomial has a simple root mod l, so
Hensel lifts it) and a reduces to a unit that is not a p-th power mod
l.  When no prime in a fixed list witnesses, the level is factored as
above; the witness never declares a polynomial reducible, so every
ReducibleExtension comes from factoring.  root_or_extend is the one way
to take a p-th root: the witness first, then the roots in the field,
else a new level x^p - a.
"""

import operator
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm


class ReducibleExtension(Exception):
    """Raised by tower_extend when the proposed minimal polynomial factors."""


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x))


# ---------------------------------------------------------------------------
# towers and elements
# ---------------------------------------------------------------------------

class FieldTower:
    """A number field presented as a tower of monogenic extensions of Q.

    FieldTower() is Q, and FieldTower(base, name, minpoly) the level
    base[name]/(minpoly), minpoly a Poly over the certified tower base.
    levels: tuple of (generator name, minimal polynomial) where the
    minimal polynomial is a monic tuple of coefficients (ascending),
    elements of the tower one level down.  Irreducibility is certified
    at construction: a reducible level raises ReducibleExtension.
    """

    def __init__(self, base=None, name=None, minpoly=None):
        self._modl = {}  # prime l -> _images_mod(l), filled lazily
        if base is None:
            self.levels, self.degrees, self.degree, self._sig = (), (), 1, ()
            self._base = self._minpoly = None
            self._table, self._tden = [[((0, 1),)]], 1
            return
        if minpoly.degree < 1 or not minpoly.is_monic():
            raise ValueError("minimal polynomial must be monic and nonconstant")
        if _kummer_witness(minpoly) is None:
            factors = factor_poly(minpoly)
            if len(factors) != 1 or factors[0][1] != 1:
                raise ReducibleExtension("minimal polynomial is reducible over its base")
        self._base, self._minpoly = base, minpoly
        self.levels = base.levels + ((name, minpoly.coeffs),)
        self.degrees = base.degrees + (minpoly.degree,)
        self.degree = base.degree * minpoly.degree
        self._sig = base._sig + ((name, tuple((c._num, c._den) for c in minpoly.coeffs)),)
        self._table, self._tden = _structure_constants(base, minpoly)

    @staticmethod
    def rationals():
        return FieldTower()

    @property
    def nlevels(self):
        return len(self.levels)

    def zero(self):
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, q):
        q = _fr(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def gen(self):
        """The generator of the top level."""
        if not self.levels:
            raise ValueError("Q has no generator")
        num = [0] * self.degree
        num[self.degree // self.degrees[-1]] = 1
        return FieldElement(self, num, 1)

    def element(self, flat):
        """Build an element from its flattened coordinate vector over Q."""
        if len(flat) != self.degree:
            raise ValueError("coordinate vector has wrong length")
        flat = [_fr(c) for c in flat]
        den = lcm(*(q.denominator for q in flat))
        return FieldElement(self, [q.numerator * (den // q.denominator) for q in flat], den)

    def __eq__(self, other):
        if not isinstance(other, FieldTower):
            return NotImplemented
        return self._sig == other._sig

    def __hash__(self):
        return hash(self.nlevels) ^ hash(self.degrees)

    def is_prefix_of(self, other):
        return self._sig == other._sig[: self.nlevels]

    def __repr__(self):
        if not self.levels:
            return "FieldTower(Q)"
        return "FieldTower(Q(%s), degree %d)" % (", ".join(n for n, _ in self.levels), self.degree)

    def _images_mod(self, l):
        """The images mod l of the basis monomials under t_i -> r_i, where
        each r_i is the least simple root mod l of the level's minimal
        polynomial (its coefficients mapped by the earlier roots), or None
        when some level has no such root or a coefficient is not
        l-integral.  By Hensel's lemma t_i -> r_i is then the reduction of
        an embedding of the field into Q_l.  Cached per prime."""
        if self._base is None:
            return (1,)
        if l in self._modl:
            return self._modl[l]
        out, below = None, self._base._images_mod(l)
        f = None if below is None else [_image_mod(c, below, l) for c in self._minpoly.coeffs]
        if f is not None and None not in f:
            df = [i * c for i, c in enumerate(f)][1:]
            r = next((r for r in range(l)
                      if _horner_mod(f, r, l) == 0 and _horner_mod(df, r, l) != 0), None)
            if r is not None:
                out = tuple(m * pow(r, e, l) % l for e in range(len(f) - 1) for m in below)
        self._modl[l] = out
        return out


def _image_mod(a, images, l):
    """The image mod l of an element, given the images of the basis
    monomials of its tower; None if its denominator is divisible by l."""
    if a._den % l == 0:
        return None
    return sum(x * m for x, m in zip(a._num, images)) * pow(a._den, -1, l) % l


def _horner_mod(f, r, l):
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % l
    return acc


# The odd primes nonresidue_witness tries, in increasing order.  Those
# that split in the tower and are 1 mod p have positive density among
# all primes, so a non-p-th power is almost always caught by a few.
def _is_prime(k):
    """Trial division; k is at most a few hundred here."""
    return k > 1 and all(k % d for d in range(2, isqrt(k) + 1))


_WITNESS_PRIMES = tuple(l for l in range(3, 400) if _is_prime(l))


def nonresidue_witness(a, p):
    """A prime l proving that a is not a p-th power in its field, or None.

    l is odd with l = 1 mod p, the field embeds into Q_l with basis
    images _images_mod(l), and the image v of a mod l is a unit with
    v^((l-1)/p) != 1 mod l: then the image of a in Q_l is no p-th power,
    so neither is a.  None proves nothing.  Integers and pow only."""
    tw = a.tower
    for l in _WITNESS_PRIMES:
        if l % p != 1:
            continue
        images = tw._images_mod(l)
        if images is None:
            continue
        v = _image_mod(a, images, l)
        if v and pow(v, (l - 1) // p, l) != 1:
            return l
    return None


def _kummer_witness(f):
    """For a binomial f = x^p - a with p prime, nonresidue_witness(a, p):
    a prime that certifies f irreducible, since x^p - a is irreducible
    whenever a is not a p-th power (Lang, Algebra, VI Thm 9.1).  None
    for other polynomials or when no prime witnesses."""
    p = f.degree
    if not _is_prime(p) or any(not c.is_zero() for c in f.coeffs[1:-1]):
        return None
    return nonresidue_witness(-f.coeffs[0], p)


def _structure_constants(base, m):
    """The multiplication table of base[t]/(m) in the flat basis
    b_{k*S+i} = c_i t^k (c_i the basis of base, S its degree).  Returns
    (table, den): table[p][q] is a tuple of the pairs (k, c) with c != 0
    and b_p b_q = sum c b_k / den."""
    S, d = base.degree, m.degree
    unit = [base.element([int(i == k) for k in range(S)]) for i in range(S)]
    x = poly_x(base)
    powers = [(x ** e) % m for e in range(2 * d - 1)]
    flat = {}
    for p in range(S * d):
        k, i = divmod(p, S)
        for q in range(p, S * d):
            l, j = divmod(q, S)
            c = _mul(unit[i], unit[j])
            flat[p, q] = [f for e in range(d) for f in _mul(c, powers[k + l].coeff(e)).flatten()]
    den = lcm(*(f.denominator for v in flat.values() for f in v))
    table = [[None] * (S * d) for _ in range(S * d)]
    for (p, q), v in flat.items():
        table[p][q] = table[q][p] = tuple((k, f.numerator * (den // f.denominator))
                                          for k, f in enumerate(v) if f)
    return table, den


# The two kernels below take elements of one tower (equal towers, not
# merely prefix-related).  The operators coerce and then call them, and
# every computation inside this module calls them directly.

def _mul(a, b):
    """Multiply with the structure-constant table of the tower."""
    tw = a.tower
    acc = [0] * tw.degree
    table = tw._table
    bnz = [(j, y) for j, y in enumerate(b._num) if y]
    for i, x in enumerate(a._num):
        if x:
            row = table[i]
            for j, y in bnz:
                xy = x * y
                for k, c in row[j]:
                    acc[k] += xy * c
    return FieldElement(tw, acc, a._den * b._den * tw._tden)


def _ladder(x, k, one, op):
    """x combined k >= 0 times under the associative op, from one:
    square-and-multiply (double-and-add when op adds)."""
    out = one
    while k:
        if k & 1:
            out = op(out, x)
        x = op(x, x)
        k >>= 1
    return out


def _inv(a):
    """Invert by solving a y = 1 on the regular representation (Cohen,
    GTM 138, 4.2): column j of a's multiplication matrix M is a b_j, read
    off the structure constants, and Gauss-Jordan elimination on the
    integer system M y = e_0 keeps each row primitive."""
    tw = a.tower
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero")
    d, table = tw.degree, tw._table
    # the rows of [M | e_0], where a b_j = sum_k M[k][j] b_k / (a._den tw._tden)
    rows = [[0] * d + [int(k == 0)] for k in range(d)]
    for i, x in enumerate(a._num):
        if x:
            for j, entries in enumerate(table[i]):
                for k, c in entries:
                    rows[k][j] += x * c
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col]), None)
        if piv is None:
            raise ValueError("minimal polynomial is reducible over its base")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col]
        for r, row in enumerate(rows):
            if r != col and (f := row[col]):
                row = [p[col] * u - f * v for u, v in zip(row, p)]
                g = gcd(*row) or 1
                rows[r] = [u // g for u in row]
    # rows[k][k] y_k = rows[k][d], and a^-1 = a._den tw._tden y
    den = lcm(*(r[k] for k, r in enumerate(rows)))
    scale = a._den * tw._tden
    return FieldElement(tw, [r[d] * (den // r[k]) * scale for k, r in enumerate(rows)], den)


class FieldElement:
    """An element of a FieldTower: integer coordinates over one positive
    denominator, in lowest terms.  All arithmetic is exact."""

    __slots__ = ("tower", "_num", "_den")

    def __init__(self, tower, num, den):
        g = gcd(den, *num)
        if den < 0:
            g = -g
        self.tower = tower
        self._num = tuple(num) if g == 1 else tuple(c // g for c in num)
        self._den = den // g

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, FieldElement):
            st, ot = self.tower, other.tower
            if st is ot or st._sig == ot._sig:
                return self, other
            if st.is_prefix_of(ot):
                return self.lift_to(ot), other
            if ot.is_prefix_of(st):
                return self, other.lift_to(st)
            raise ValueError("elements of incompatible towers")
        if isinstance(other, (int, Fraction)):
            return self, self.tower.from_fraction(other)
        return self, None

    def lift_to(self, tower):
        """Reinterpret in a tower having this element's tower as a prefix."""
        if not self.tower.is_prefix_of(tower):
            raise ValueError("not a prefix tower")
        return FieldElement(tower, self._num + (0,) * (tower.degree - len(self._num)), self._den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        da, db = a._den, b._den
        if da == db:
            return FieldElement(a.tower, [x + y for x, y in zip(a._num, b._num)], da)
        return FieldElement(a.tower, [x * db + y * da for x, y in zip(a._num, b._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        da, db = a._den, b._den
        if da == db:
            return FieldElement(a.tower, [x - y for x, y in zip(a._num, b._num)], da)
        return FieldElement(a.tower, [x * db - y * da for x, y in zip(a._num, b._num)], da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.tower, [-x for x in self._num], self._den)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return _mul(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return _mul(a, _inv(b))

    def inverse(self):
        return _inv(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else _inv(self)
        return _ladder(base, abs(k), self.tower.one(), _mul)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            try:
                a, b = self._pair(other)
            except ValueError:
                return False
            return a._num == b._num and a._den == b._den
        return NotImplemented

    def __hash__(self):
        flat = self.flatten()
        while flat and flat[-1] == 0:
            flat.pop()
        return hash(tuple(flat))

    def flatten(self):
        """Coordinate vector over Q, outermost generator most significant."""
        return [Fraction(x, self._den) for x in self._num]

    def coords_over(self, subtower):
        """Coordinates over a prefix tower, as a list of its elements.
        The list runs over the basis monomials in the generators above
        the subtower, innermost generator fastest."""
        if not subtower.is_prefix_of(self.tower):
            raise ValueError("not a prefix tower")
        s = subtower.degree
        return [FieldElement(subtower, self._num[k:k + s], self._den)
                for k in range(0, len(self._num), s)]

    def key(self):
        """Deterministic sort key: the flattened coordinate vector."""
        return tuple(self.flatten())

    def as_fraction(self):
        """The value as a Fraction; raises ValueError if not rational."""
        if any(self._num[1:]):
            raise ValueError("element is not rational")
        return Fraction(self._num[0], self._den)

    def __repr__(self):
        return "FieldElement([%s] in %r)" % (", ".join(map(str, self.flatten())), self.tower)


# ---------------------------------------------------------------------------
# polynomials over a tower
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial with FieldElement coefficients."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, coeffs, tower=None):
        elems = [c if isinstance(c, FieldElement) else _fr(c) for c in coeffs]
        if tower is None:
            tower = FieldTower.rationals()
            for c in elems:
                if isinstance(c, FieldElement):
                    if tower.is_prefix_of(c.tower):
                        tower = c.tower
                    elif not c.tower.is_prefix_of(tower):
                        raise ValueError("coefficients from incompatible towers")
        final = [c.lift_to(tower) if isinstance(c, FieldElement) else tower.from_fraction(c)
                 for c in elems]
        self.tower, self.coeffs = tower, Poly._of(tower, final).coeffs

    @staticmethod
    def _of(tower, coeffs):
        """A Poly from coefficients already in tower, trailing zeros dropped."""
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        p = object.__new__(Poly)
        p.tower, p.coeffs = tower, tuple(coeffs)
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.lc() == 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.tower.zero()

    def _pair(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = Poly([other], None if isinstance(other, (int, Fraction)) else other.tower)
        if not isinstance(other, Poly):
            return None, None
        if self.tower is other.tower or self.tower == other.tower:
            return self, other
        if self.tower.is_prefix_of(other.tower):
            return self.lift_to(other.tower), other
        if other.tower.is_prefix_of(self.tower):
            return self, other.lift_to(self.tower)
        raise ValueError("polynomials over incompatible towers")

    def lift_to(self, tower):
        return Poly._of(tower, [c.lift_to(tower) for c in self.coeffs])

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        z = a.tower.zero()
        return Poly._of(a.tower, [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=z)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        z = a.tower.zero()
        return Poly._of(a.tower, [x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=z)])

    def __neg__(self):
        return Poly._of(self.tower, [-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        tw = a.tower
        if a.is_zero() or b.is_zero():
            return Poly._of(tw, [])
        out = [tw.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x.is_zero():
                for j, y in enumerate(b.coeffs):
                    out[i + j] = out[i + j] + _mul(x, y)
        return Poly._of(tw, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        tw, n = a.tower, len(b.coeffs)
        inv = _inv(b.lc())
        rem = list(a.coeffs)
        quot = [tw.zero()] * max(0, len(rem) - n + 1)
        for k in range(len(rem) - n, -1, -1):
            c = quot[k] = _mul(rem[k + n - 1], inv)
            if not c.is_zero():
                for j, y in enumerate(b.coeffs):
                    rem[k + j] = rem[k + j] - _mul(c, y)
        return Poly._of(tw, quot), Poly._of(tw, rem[:n - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take an integer exponent >= 0")
        return _ladder(self, k, Poly([1], self.tower), operator.mul)

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    def monic(self):
        if self.is_zero():
            return self
        inv = _inv(self.lc())
        return Poly._of(self.tower, [_mul(c, inv) for c in self.coeffs])

    def derivative(self):
        tw = self.tower
        return Poly._of(tw, [_mul(c, tw.from_fraction(i)) for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation at a field element, a rational, or any
        ring-like argument (functions, polys)."""
        if isinstance(x, (int, Fraction)):
            x = self.tower.from_fraction(x)
        if isinstance(x, FieldElement):
            acc, x = self.tower.zero()._pair(x)  # both in the larger tower
            p = self if acc.tower is self.tower else self.lift_to(acc.tower)
            for c in reversed(p.coeffs):
                acc = _mul(acc, x) + c
            return acc
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return self.tower.zero() if acc is None else acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            mono = "1" if i == 0 else ("x" if i == 1 else "x^%d" % i)
            parts.append("(%r)*%s" % (c, mono))
        return "Poly(%s)" % " + ".join(parts)


def poly_gcd(p, q):
    a, b = p._pair(q)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_x(tower):
    return Poly([tower.zero(), tower.one()], tower)


# ---------------------------------------------------------------------------
# factorization: sympy over Q, Trager's norm method up each tower level
# ---------------------------------------------------------------------------


def _factor_rational(f):
    """Factor a nonzero Poly over Q into monic irreducibles; returns a
    list of (Poly, multiplicity).  sympy is imported here, on the first
    factorisation, since importing it takes seconds."""
    import sympy
    cs = [c.as_fraction() for c in reversed(f.coeffs)]
    spoly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in cs],
                       sympy.Symbol("x"), domain="QQ")
    _, factors = spoly.factor_list()
    return [(Poly([Fraction(c.numerator, c.denominator) for c in reversed(g.all_coeffs())],
                  f.tower).monic(), mult)
            for g, mult in factors]


def _resultant(a, b):
    """Resultant of two Polys over one tower, via the Euclidean recursion.
    With a monic this is the product of b over the roots of a."""
    res = a.tower.one()
    while True:
        if a.is_zero():
            return a.tower.zero()
        if a.degree == 0:
            return _mul(res, a.coeffs[0] ** max(b.degree, 0))
        if b.is_zero():
            return a.tower.zero()
        if b.degree == 0:
            return _mul(res, b.coeffs[0] ** a.degree)
        r = b % a
        # res(a,b) = lc(a)^(deg b - deg r) * (-1)^(deg a * deg r) * res(r, a)
        res = _mul(res, a.lc() ** (b.degree - r.degree))
        if (a.degree * max(r.degree, 0)) % 2 == 1:
            res = -res
        a, b = r, a


def _norm_poly(g):
    """Norm of a monic Poly g over a tower down to the tower one level
    below, computed by evaluation at rational points and Lagrange
    interpolation."""
    tw = g.tower
    base, m = tw._base, tw._minpoly
    xs = []
    v = 0
    while len(xs) < g.degree * m.degree + 1:
        xs.append(Fraction(v))
        v = -v if v > 0 else -v + 1
    # g(c) is a polynomial in the level generator over the base
    vals = [_resultant(m, Poly._of(base, g(c).coords_over(base))) for c in xs]
    out = Poly._of(base, [])
    for i, (xi, yi) in enumerate(zip(xs, vals)):
        num = Poly([1], base)
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i != j:
                num = num * Poly([-xj, 1], base)
                den *= xi - xj
        out = out + num * _mul(yi, base.from_fraction(1 / den))
    return out


def _sqfree_parts(f):
    """Yun's squarefree decomposition of a monic Poly: [(part, mult)]."""
    fp = f.derivative()
    a = poly_gcd(f, fp)
    if a.degree == 0:
        return [(f, 1)]
    b = f // a
    d = fp // a - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        p = poly_gcd(b, d)
        if p.degree > 0:
            out.append((p, i))
        b = b // p
        d = d // p - b.derivative()
        i += 1
    return out


def _shift_by_gen(f, s):
    """Substitute x -> x + s*theta into f (degree >= 1), theta the top
    generator of its tower."""
    tw = f.tower
    return f(Poly([_mul(tw.gen(), tw.from_fraction(s)), tw.one()], tw))


def _factor_data(f):
    """Factor a nonzero Poly into monic irreducibles: [(Poly, mult)]."""
    f = f.monic()
    if f.degree == 0:
        return []
    tw = f.tower
    if tw._base is None:
        return _factor_rational(f)
    out = []
    for part, mult in _sqfree_parts(f):
        if part.degree == 1:
            out.append((part, mult))
            continue
        s = 0
        while True:
            norm = _norm_poly(_shift_by_gen(part, -s))
            if poly_gcd(norm, norm.derivative()).degree == 0:
                break
            s = -s if s > 0 else -s + 1
        subfactors = _factor_data(norm)
        if len(subfactors) == 1 and subfactors[0][1] == 1:
            out.append((part, mult))
            continue
        remaining = part
        for q, _m in subfactors:
            h = poly_gcd(remaining, _shift_by_gen(q.lift_to(tw), s))
            if h.degree >= 1:
                out.append((h, mult))
                remaining, rem = divmod(remaining, h)
                if not rem.is_zero():
                    raise ArithmeticError("a norm factor does not divide its part")
        if remaining.degree != 0:
            raise ArithmeticError("norm factorization did not recombine")
    return out


def factor_poly(poly):
    """Factor a Poly over its tower into monic irreducibles.

    Returns a list of (Poly, multiplicity), sorted deterministically
    (degree first, then coefficient key).  The leading unit is dropped.
    """
    if poly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out = _factor_data(poly)
    out.sort(key=lambda fm: (fm[0].degree, [c.key() for c in fm[0].coeffs]))
    return out


def roots_in_field(poly):
    """All roots of poly in its own field, with multiplicity, sorted."""
    roots = []
    for f, mult in factor_poly(poly):
        if f.degree == 1:
            roots.extend([-f.coeff(0)] * mult)
    roots.sort(key=lambda r: r.key())
    return roots


def tower_extend(base, coeffs, name):
    """Extend a tower by a monic irreducible polynomial, given by its
    coefficients over base (constant first), with generator name.
    Raises ValueError unless it is monic and nonconstant, and
    ReducibleExtension if it factors.
    """
    return FieldTower(base, name, Poly(coeffs, base))


def root_or_extend(a, p, name):
    """A p-th root of a, for p prime: (r, K) with r the root of least
    key() in a's field K when one exists, else (t, L) with L = K[t]/(t^p - a)
    and t its generator.  A non-residue witness proves there is no root
    without factoring; otherwise the roots are found by factoring."""
    K = a.tower
    if nonresidue_witness(a, p) is None:
        roots = roots_in_field(poly_x(K) ** p - a)
        if roots:
            return roots[0], K
    ext = tower_extend(K, [-a] + [K.zero()] * (p - 1) + [K.one()], name=name)
    return ext.gen(), ext
