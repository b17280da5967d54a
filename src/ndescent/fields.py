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
FieldElement coefficients.

Roots in K are found by one l-adic rule, roots_in_field, at the
degree-1 primes lambda of the tower: a prime where f has no root mod
lambda proves it has none in K; otherwise each simple residue is
Hensel-lifted and its root recovered by lattice reduction, kept only if
f(r) == 0 exactly.  The same rule certifies every new level
irreducible, and root_or_extend takes a p-th root with it: the root of
least key in K when there is one, else a new level x^p - a.  The runtime
uses the standard library only.
"""

import operator
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm


class ReducibleExtension(Exception):
    """Raised by tower_extend when the proposed minimal polynomial has a
    root in its base; roots holds them all, sorted by key()."""

    def __init__(self, msg, roots):
        super().__init__(msg)
        self.roots = roots


class NoCertificate(ValueError):
    """Raised when the l-adic rule of roots_in_field finds no certificate:
    no prime proves a root list complete, or a proposed level is neither
    of degree <= 3 nor x^p - a with p prime.  A ValueError, so the CLI
    exits 1 when it comes from a tower in a file and 2 otherwise."""


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
    at construction.  A level has degree >= 2 (ValueError otherwise).
    One of degree 2 or 3, or x^p - a with p prime (Lang, Algebra, VI
    Thm 9.1), is irreducible exactly when it has no root in its base:
    roots_in_field decides, and a root raises ReducibleExtension.  Any
    other level raises NoCertificate.
    """

    def __init__(self, base=None, name=None, minpoly=None):
        self._modl = {}  # prime l -> _images_mod(l), filled lazily
        if base is None:
            self.levels, self.degrees, self.degree, self._sig = (), (), 1, ()
            self._base = self._minpoly = None
            self._table, self._tden = [[((0, 1),)]], 1
            return
        if minpoly.degree < 2 or not minpoly.is_monic():
            raise ValueError("minimal polynomial must be monic of degree >= 2: "
                             "a level of degree 1 would add nothing")
        p = minpoly.degree
        if p > 3 and not (_is_prime(p) and all(c.is_zero() for c in minpoly.coeffs[1:-1])):
            raise NoCertificate("a level of degree %d must be x^p - a with p prime" % p)
        if roots := roots_in_field(minpoly):
            raise ReducibleExtension("minimal polynomial is reducible: it has a root in its base",
                                     roots)
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
        each r_i is the least root mod l of the level's minimal polynomial
        (its coefficients mapped by the earlier roots), or None when some
        level has no root mod l, a multiple one, or a coefficient that is
        not l-integral.  By Hensel's lemma t_i -> r_i is then the reduction
        of an embedding of the field into Q_l: a degree-1 prime lambda
        above l.  Cached per prime."""
        if self._base is None:
            return (1,)
        if l in self._modl:
            return self._modl[l]
        below = self._base._images_mod(l)
        res = _residues(self._minpoly.coeffs, below, l)
        out = None
        if res:
            out = tuple(m * pow(res[0], e, l) % l for e in range(self._minpoly.degree) for m in below)
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


def _is_prime(k):
    """Trial division; k is below _PRIME_CAP here."""
    return k > 1 and all(k % d for d in range(2, isqrt(k) + 1))


# roots_in_field walks the primes below _PRIME_CAP.  For an irreducible f
# of degree >= 2 over K some element of its Galois group fixes no root
# (Jordan's theorem), so by Chebotarev the degree-1 primes of K at which
# f has no residue have positive density: the walk proves a level
# irreducible at one of the first few primes that decide.  In the
# degree-12 field of gamma on the aux curve 5 primes below 400 decide,
# and 43 below _PRIME_CAP.
_PRIME_CAP = 1 << 12


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
# roots in K: one l-adic rule
# ---------------------------------------------------------------------------


def _residues(coeffs, images, l):
    """The roots mod l of the polynomial with these coefficients
    (ascending, elements of a tower) mapped by the images mod l of the
    tower's basis.  None when images is None, a coefficient is not
    l-integral, or a root is multiple."""
    f = None if images is None else [_image_mod(c, images, l) for c in coeffs]
    if f is None or None in f:
        return None
    vals = [0] * l
    for c in reversed(f):
        vals = [(v * r + c) % l for r, v in enumerate(vals)]
    roots = [r for r, v in enumerate(vals) if v == 0]
    df = [i * c for i, c in enumerate(f)][1:]
    if any(_horner_mod(df, r, l) == 0 for r in roots):
        return None
    return roots


def _newton(f, r, q):
    """The root mod q = l^k of an integer polynomial f that reduces to r,
    a simple root of f mod l (Hensel's lemma): each Newton step doubles
    the l-adic precision."""
    df = [i * c for i, c in enumerate(f)][1:]
    while v := _horner_mod(f, r, q):
        r = (r - v * pow(_horner_mod(df, r, q), -1, q)) % q
    return r


def _lifted_images(tower, l, q):
    """The images mod q = l^k of the basis monomials under the embedding
    into Q_l that _images_mod(l) reduces: each level's root is lifted from
    its residue by _newton."""
    if tower._base is None:
        return (1,)
    below = _lifted_images(tower._base, l, q)
    f = [_image_mod(c, below, q) for c in tower._minpoly.coeffs]
    r = _newton(f, tower._images_mod(l)[len(below)], q)
    return tuple(m * pow(r, e, q) % q for e in range(len(f) - 1) for m in below)


def _lll(rows):
    """LLL-reduce linearly independent integer rows with delta = 3/4, in
    integers only (Cohen, GTM 138, Algorithm 2.6.7): d[i] is the Gram
    determinant of the first i rows and lam[k][j] = d[j+1] mu_kj.  The
    first row returned is at most 2^((n-1)/2) times as long as the
    shortest nonzero vector of the lattice."""
    b = [list(v) for v in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            c = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - c * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= c * d[j + 1]
            for i in range(j):
                lam[k][i] -= c * lam[j][i]

    d[1] = sum(x * x for x in b[0])
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            big = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k + 1]
            d[k] = big
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b


# The lifting precision stays below 2^_MAX_BITS: in the degree-12 field of
# gamma on the aux curve, enough for roots whose coordinates over their
# common denominator have about 110 bits.
_MAX_BITS = 2048


def _lift(f, l, k, residues):
    """(roots, rest): the roots in K of a monic f found at precision
    q = l^k from its simple residues at the degree-1 prime above l, and
    the residues that gave none.  With w the images mod q of the basis
    and a the lift of a residue, the vectors (c_0, ..., c_{d-1}, den) with
    sum c_j w_j = den a mod q form a lattice of determinant q holding a
    root's coordinates over its denominator, which LLL finds once q is
    large enough.  A candidate is kept only if den is prime to l (so it
    reduces to the residue) and f(x) == 0."""
    K, d, q = f.tower, f.tower.degree, l ** k
    w = _lifted_images(K, l, q)
    fq = [_image_mod(c, w, q) for c in f.coeffs]
    rows = [[q] + [0] * d]
    rows += [[-w[j]] + [int(i == j) for i in range(1, d)] + [0] for j in range(1, d)]
    roots, rest = [], []
    for r in residues:
        v = _lll(rows + [[_newton(fq, r, q)] + [0] * (d - 1) + [1]])[0]
        x = FieldElement(K, v[:-1], v[-1]) if v[-1] % l else None
        if x is not None and f(x).is_zero():
            roots.append(x)
        else:
            rest.append(r)
    return roots, rest


def roots_in_field(poly):
    """The roots of poly in its own field K, sorted by key().

    One l-adic rule (as PARI's nfroots: Belabas, J. Symbolic Comput. 37,
    2004) on f = poly.monic(), walking the primes l < _PRIME_CAP.  l
    decides when K has a degree-1 prime lambda above it (_images_mod), f
    is lambda-integral, and every root of f mod lambda is simple; the
    roots of f in K then reduce to distinct residues.  So the roots found
    are all of them once a prime that decides has as many residues (no
    residue: no root), or once every residue at the first prime that
    decides has lifted to an exact root (_lift).  Each further prime that
    decides doubles the lifting precision.

    Raises ValueError for the zero polynomial, and NoCertificate when the
    walk ends without a certificate (always so when f has a repeated
    root in K)."""
    if poly.is_zero():
        raise ValueError("the zero polynomial has no finite root list")
    f = poly.monic()
    K = f.tower
    found, rest, k = [], None, 4
    for l in filter(_is_prime, range(2, _PRIME_CAP)):
        res = _residues(f.coeffs, K._images_mod(l), l)
        if res is None:
            continue
        if len(res) == len(found):
            return sorted(found, key=lambda r: r.key())
        if rest is None:
            l0, rest = l, res
        if l0 ** k < 1 << _MAX_BITS:
            roots, rest = _lift(f, l0, k, rest)
            found += roots
            k *= 2
            if not rest:
                return sorted(found, key=lambda r: r.key())
    raise NoCertificate("no prime below %d certifies the roots of a degree-%d polynomial"
                        % (_PRIME_CAP, f.degree))


def factor_poly(poly):
    """The monic linear factors x - r of poly over its field, one for each
    r in roots_in_field(poly).  No library code calls it; it stays because
    perfbench/spans.py wraps fields.factor_poly by name."""
    return [(poly_x(poly.tower) - r, 1) for r in roots_in_field(poly)]


def tower_extend(base, coeffs, name):
    """Extend a tower by a monic irreducible polynomial, given by its
    coefficients over base (constant first), with generator name.
    Raises ValueError unless it is monic of degree >= 2,
    ReducibleExtension if it has a root in base, and NoCertificate
    (a ValueError) for a level FieldTower cannot certify.
    """
    return FieldTower(base, name, Poly(coeffs, base))


def root_or_extend(a, p, name):
    """A p-th root of a, for p prime: (r, K) with r the root of least
    key() in a's field K when one exists, else (t, L) with L = K[t]/(t^p - a)
    and t its generator.  The one roots_in_field call that certifies the
    level also finds the roots."""
    K = a.tower
    try:
        ext = FieldTower(K, name, poly_x(K) ** p - a)
    except ReducibleExtension as e:
        return e.roots[0], K
    return ext.gen(), ext
