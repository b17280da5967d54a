"""Test references over library objects.

The pipeline never multiplies two elements of the twisted algebra,
differentiates a function or builds an osculating row, so these live
here, as the pairing does in weil_oracle.py.  The tests check the
library's certificates against them:
  - the twisted group algebra of a CSA, with elements as dicts
    {ij: coefficient} over the delta basis in table order: delta, one,
    mult, left_mult_matrix and the reduced trace trd;
  - the affine coordinates (1, x, y, ...) of the embedding and its
    osculating rows;
  - d/dx of a polynomial, and of a function along the curve;
  - the zero matrix, and the unit cochain gamma = 1, with which g_eval
    is the covering map of E itself;
  - a point over an extension field, and affine samples with distinct x
    (the pipeline's one draw filter lives in sample_images);
  - the all-pairs certificates that the generator certificates replace:
    the cocycle identity on all n^6 triples, multiplicativity of a
    trivialisation on all n^4 pairs, and the G-basis as the kernels of
    the stacked translation eigen-equations;
  - the translation operator on L(n^2(O)) with the factor
    psi_n/(psi_n o tau_S), whose eigenvectors kernel_G_basis reads the
    G-basis off as functions (compute_G_basis needs no operator: it
    takes the projection onto each character on values, and g_eval's
    values are tested against these functions), and the composition
    p o f of a polynomial with a function that builds it (a Poly is
    evaluated only at scalars);
  - the coordinate functions x and y;
  - the general function field that the library's one stored form
    replaces: GeneralFunction, a FunctionFieldElement whose constructor
    coerces scalars and divides by gcd(u, v, w), with +, -, *, /,
    inverse, == and is_zero, the product _ring_mul of the coordinate
    ring K[x, y]/(y^2 - x^3 - a x - b) that its * takes, and the
    polynomial gcd poly_gcd;
  - the function-field forms that the closed forms replace, with a gcd
    normalisation after every product: the Miller chain, double and add
    over line and vertical functions, which the tangents of
    funcfield.miller_function are tested against, and the translated
    coordinates on L(d(O)) built from the addition formulas as functions
    of P, which the tangent-line M_T of compute_embedding are tested
    against; and that normalisation itself, taken whatever the
    denominator;
  - the sums of products that fields._dot takes in one pass, as left
    folds of the operators * and +: a dot product, a matrix times a
    vector, a matrix product and a polynomial product;
  - the determinant as the Leibniz sum over permutations, which
    ExactMatrix.det takes from its one Gauss-Jordan pass;
  - the file reader of coordinates through one Fraction per string,
    which serialize.elem_from_json replaces by one pass over integers;
  - a tower's structure constants through the Fraction coordinates of
    each product, which fields._structure_constants reads as integers;
  - the E[3] indices in table order, and a seeded cochain over a
    quadratic field.
"""

import itertools
import random
import re
from fractions import Fraction
from math import lcm

from ndescent.algebra import CertificationFailed
from ndescent.curve import Point, division_polynomial, slope
from ndescent.descent_funcs import EigenspaceDimensionError, affine_sample, weil
from ndescent.fields import FieldElement, Poly, poly_x
from ndescent.funcfield import FunctionFieldElement
from ndescent.linalg import ExactMatrix
from ndescent.serialize import ParseError


def poly_gcd(p, q):
    a, b = p._pair(q)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _ring_mul(rhs, a, b):
    """The product of u1 + v1 y and u2 + v2 y, as pairs (u, v) of
    polynomials in x, with y^2 = rhs."""
    (u1, v1), (u2, v2) = a, b
    return u1 * u2 + rhs * (v1 * v2), u1 * v2 + v1 * u2


class GeneralFunction(FunctionFieldElement):
    """(u + v*y)/w on y^2 = x^3 + a x + b, with u, v, w in K[x], w monic,
    gcd(u, v, w) = 1.  This form is unique, so == is structural, and it
    compares any FunctionFieldElement by its stored (u, v, w).  A
    constant w leaves gcd(u, v, w) a unit, so no gcd is taken then."""

    __slots__ = ()

    def __init__(self, curve, u, v, w):
        K = curve.field
        u, v, w = (Poly([p], K) if not isinstance(p, Poly) else p if p.tower == K
                   else p.lift_to(K) for p in (u, v, w))
        if w.is_zero():
            raise ZeroDivisionError("zero denominator")
        if w.degree > 0:
            g = poly_gcd(poly_gcd(u, v), w)
            if g.degree > 0:
                u, v, w = (divmod(p, g)[0] for p in (u, v, w))
        lc = w.lc()
        if not (lc == 1):
            inv = lc.inverse()
            u, v, w = inv * u, inv * v, inv * w
        super().__init__(curve, u, v, w)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = GeneralFunction.const(self.curve, other)
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.w == other.w

    def __neg__(self):
        return GeneralFunction(self.curve, -self.u, -self.v, self.w)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return GeneralFunction.const(self.curve, other)
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
        return GeneralFunction(self.curve, u, v, self.w * o.w)

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
        return GeneralFunction(self.curve, u, v, self.w * o.w)

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
        return GeneralFunction(self.curve, self.w * self.u, -(self.w * self.v), den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * general(o).inverse()


def general(f):
    """A FunctionFieldElement as a GeneralFunction, for its arithmetic."""
    return GeneralFunction(f.curve, f.u, f.v, f.w)


def coordinate_x(curve):
    return GeneralFunction(curve, poly_x(curve.field), 0, 1)


def coordinate_y(curve):
    return GeneralFunction(curve, 0, Poly([1], curve.field), 1)


def delta(csa, ij):
    K = csa.table.curve.field
    out = {k: K.zero() for k in csa.table.indices}
    out[ij] = K.one()
    return out


def one(csa):
    return delta(csa, (0, 0))


def mult(csa, x, y):
    out = {k: None for k in csa.table.indices}
    for a, xa in x.items():
        if xa.is_zero():
            continue
        for b, yb in y.items():
            if yb.is_zero():
                continue
            t = csa.table.add_index(a, b)
            term = csa.structure[a, b] * xa * yb
            out[t] = term if out[t] is None else out[t] + term
    zero = csa.table.curve.field.zero()
    return {k: (v if v is not None else zero) for k, v in out.items()}


def left_mult_matrix(csa, x):
    """Matrix of y -> x * y on coordinate vectors in table order."""
    table = csa.table
    rows = [[None] * len(table) for _ in table]
    zero = table.curve.field.zero()
    for bcol, b in enumerate(table.indices):
        for a, xa in x.items():
            t = table.add_index(a, b)
            trow = table.flat(t)
            term = csa.structure[a, b] * xa
            cur = rows[trow][bcol]
            rows[trow][bcol] = term if cur is None else cur + term
    rows = [[e if e is not None else zero for e in r] for r in rows]
    return ExactMatrix(rows, csa.table.curve.field)


def trd(csa, x):
    """Reduced trace: trace of left multiplication divided by n."""
    return left_mult_matrix(csa, x).trace() * Fraction(1, csa.table.n)


def embedding_values(curve, n, p):
    """The coordinates (1, x, y, x^2, ...) of the embedding by L(n(O)) at
    an affine point, in the monomial order of descent_funcs."""
    return ([p.x ** i for i in range(n // 2 + 1)]
            + [p.x ** i * p.y for i in range((n - 3) // 2 + 1)])


def dual_row(emb, p):
    """The osculating hyperplane of the degree-3 embedding at an affine
    point, its tangent line, as a coefficient vector."""
    field = emb.table.curve.field
    if p.y.is_zero():
        # vertical tangent at a two-torsion point
        drow = [field.zero(), field.zero(), field.one()]
    else:
        drow = [field.zero(), field.one(), slope(p, p)]
    kern = ExactMatrix([embedding_values(p.curve, 3, p), drow]).kernel_basis()
    assert len(kern) == 1
    return kern[0]


def poly_derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:], p.tower)


def derivative(f):
    """d/dx along the curve, using y' = (3x^2 + a)/(2y)."""
    c = f.curve
    du, dv, dw = poly_derivative(f.u), poly_derivative(f.v), poly_derivative(f.w)
    main = GeneralFunction(c, du * f.w - f.u * dw, dv * f.w - f.v * dw, f.w * f.w)
    # v * y' = v * rhs' / (2y) = (v rhs' / 2) * y / rhs
    rhs = c.rhs_poly()
    vterm = GeneralFunction(c, 0, Fraction(1, 2) * (f.v * poly_derivative(rhs)), rhs * f.w)
    return main + vterm


def zero_matrix(nrows, ncols, tower):
    z = tower.zero()
    return ExactMatrix([[z] * ncols for _ in range(nrows)], tower)


def unit_cochain(table):
    return {ij: table.curve.field.one() for ij in table.indices}


def index_pairs():
    """The E[3] indices (i, j) in table order."""
    return [divmod(k, 3) for k in range(9)]


def seeded_cochain(field, seed):
    """A cochain on E[3] with nonzero values in a quadratic field, each
    coordinate drawn from -5..5 by random.Random(seed), in table order;
    a zero draw is drawn again."""
    rng = random.Random(seed)
    z = {}
    for ij in index_pairs():
        while True:
            e = field.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if not e.is_zero():
                break
        z[ij] = e
    return z


def base_change(p, field):
    """The point p of a curve as a point of the curve over an extension
    field."""
    c = p.curve.base_change(field)
    if p.is_infinity:
        return Point.at_infinity(c)
    return Point(c, p.x.lift_to(field), p.y.lift_to(field))


def distinct_samples(curve, n, rng, prefix, count):
    """count points of affine_sample with distinct x, the k-th over a
    level named prefix + str(k); a draw that repeats an earlier x is
    dropped and drawn again."""
    points, seen = [], set()
    while len(points) < count:
        p = affine_sample(curve, n, rng, "%s%d" % (prefix, len(points)))
        x = p.x.as_fraction()
        if x not in seen:
            seen.add(x)
            points.append(p)
    return points


def cocycle_failure_all_pairs(table, c):
    """The first (a, b, d) in table order at which c(a,b) c(a+b,d) =
    c(a,b+d) c(b,d) fails, or None: all n^6 triples."""
    idx = table.indices
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for d in idx:
                bd = table.add_index(b, d)
                if not (c[(a, b)] * c[(ab, d)] == c[(a, bd)] * c[(b, d)]):
                    return a, b, d
    return None


def certify_trivialisation_all_pairs(triv, eps):
    """tau(delta_O) = 1, tau(delta_a) tau(delta_b) = c(a,b) tau(delta_{a+b})
    on all n^4 pairs, c(a, -a) != 0 and tr tau(delta_a) = 0 for a != O.
    Returns c over the base field; raises CertificationFailed with
    witness ("unit",), ("multiplicative", a, b) or ("span", a)."""
    table, n, L = triv.table, triv.table.n, triv.field
    mats = triv.matrices
    if not (mats[(0, 0)] == ExactMatrix.identity(n, L)):
        raise CertificationFailed(("unit",))
    idx = table.indices
    structure = {(a, b): eps[a, b] * triv.rho.values[a, b] for a in idx for b in idx}
    for a in idx:
        for b in idx:
            cab = structure[(a, b)].lift_to(L)
            if not (mats[a] * mats[b] == mats[table.add_index(a, b)].scale(cab)):
                raise CertificationFailed(("multiplicative", a, b))
    for a in idx:
        if structure[(a, table.neg_index(a))].is_zero() or (
                a != (0, 0) and not mats[a].trace().is_zero()):
            raise CertificationFailed(("span", a))
    return structure


def psi_ratio(table, s):
    """psi_n / (psi_n o tau_S), with divisor n^2(-S) - n^2(O)."""
    curve = table.curve
    psi = division_polynomial(curve, table.n)
    fx = coordinate_x(curve)
    lam = (coordinate_y(curve) - s.y) / (fx - s.x)
    xs = lam * lam - fx - s.x  # x o tau_S
    return GeneralFunction(curve, psi, 0, 1) / compose(psi, xs)


def compose(p, f):
    """p o f for a polynomial p and a function f, by Horner's rule."""
    acc = GeneralFunction.const(f.curve, 0)
    for c in reversed(p.coeffs):
        acc = acc * f + c
    return acc


def translation_operator(table, s):
    """Matrix of h -> (h o tau_S) * psi_n / (psi_n o tau_S) on L(n^2(O)),
    columns indexed by the monomial basis."""
    if s.is_infinity:
        raise ValueError("the translation operator needs an affine torsion point, not O")
    ij = table.indices[table.points.index(s)]
    cols = translated_coords(table, ij, table.n ** 2, psi_ratio(table, s))
    return ExactMatrix([list(r) for r in zip(*cols)], table.curve.field)


def kernel_G_basis(table, eps):
    """The G-basis with each G_T psi_n read off the kernel of the stacked
    (L1 - chi_T(T1)) and (L2 - chi_T(T2)); raises EigenspaceDimensionError
    unless every kernel is a line."""
    curve, n = table.curve, table.n
    K = curve.field
    psi = division_polynomial(curve, n)
    nx = n * n // 2 + 1
    L1 = translation_operator(table, table.t1)
    L2 = translation_operator(table, table.t2)
    ident = ExactMatrix.identity(n * n, K)
    funcs = {(0, 0): GeneralFunction.const(curve, 1)}
    for ij in table.indices[1:]:
        ev1, ev2 = (weil(eps, g, ij) for g in table.generators)
        stacked = ExactMatrix((L1 - ident.scale(ev1)).rows + (L2 - ident.scale(ev2)).rows, K)
        kern = stacked.kernel_basis()
        if len(kern) != 1:
            raise EigenspaceDimensionError("joint eigenspace for %s has dimension %d"
                                           % ((ij,), len(kern)))
        g = GeneralFunction(curve, Poly(kern[0][:nx], K), Poly(kern[0][nx:], K), psi)
        _, lead = g.laurent()
        funcs[ij] = g * (lead.inverse() * Fraction(1, n))
    return funcs


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
    return GeneralFunction(curve, -(lam * poly_x(curve.field)) - nu,
                           Poly([1], curve.field), 1)


def vertical_through(p):
    curve = p.curve
    if p.is_infinity:
        raise ValueError("no vertical line through O")
    x = poly_x(curve.field)
    return GeneralFunction(curve, x - p.x, 0, 1)


def miller_chain(t, n):
    """A function with divisor n(t) - n(O) and leading coefficient 1 at O,
    for an n-torsion point t, in the function field: the chain
    f_{m+1} = f_m l_{mT,T} / v_{(m+1)T}, normalised after every step."""
    curve = t.curve
    f = GeneralFunction.const(curve, 1)
    acc = t
    for _ in range(1, n):
        nxt = acc + t
        if nxt.is_infinity:
            f = f * vertical_through(acc)
        else:
            f = f * (line_through(acc, t) / vertical_through(nxt))
        acc = nxt
    _, lead = f.laurent()
    return f * lead.inverse()


def _exponents(d):
    """Exponents (i, j) with x^i y^j in L(d(O)): j <= 1, 2i + 3j <= d."""
    return ([(i, 0) for i in range(d // 2 + 1)]
            + [(i, 1) for i in range((d - 3) // 2 + 1)])


def _coords(f, d, ij):
    """Coordinates of u + v y, for the pair f = (u, v), over the monomial
    basis of L(d(O)).  Raises CertificationFailed(("translation", ij))
    if it is not in that space."""
    (u, v), nx, ny = f, d // 2 + 1, (d - 1) // 2  # the x^i and x^i y of _exponents(d)
    if u.degree >= nx or v.degree >= ny:
        raise CertificationFailed(("translation", ij),
                                  "a translated function is not in L(%d(O))" % d)
    return [u.coeff(k) for k in range(nx)] + [v.coeff(k) for k in range(ny)]


def translated_coords(table, ij, d, f):
    """The coordinates of (h o tau_S) f over the monomials h of L(d(O)),
    S the table point ij, in the function field: x o tau_S and y o tau_S
    from the addition formulas as functions of P, and each (h o tau_S) f
    normalised by a gcd; a column with a pole off O raises
    ("translation", ij), as one outside L(d(O)) does.  For d = n and
    f = F_{-S}, the rows are those of Mtilde_S in compute_embedding."""
    curve, s = table.curve, table.point(*ij)
    fx = coordinate_x(curve)
    fy = coordinate_y(curve)
    lam = (fy - s.y) / (fx - s.x)
    xs = lam * lam - fx - s.x
    ys = lam * (s.x - xs) - s.y
    xpow = [GeneralFunction.const(curve, 1)]
    for _ in range(d // 2):
        xpow.append(xpow[-1] * xs)
    cols = [(xpow[i] * ys if j else xpow[i]) * f for i, j in _exponents(d)]
    if any(c.w.degree != 0 for c in cols):
        raise CertificationFailed(("translation", ij), "a translated function has a pole off O")
    return [_coords((c.u, c.v), d, ij) for c in cols]


def gcd_normalised(u, v, w):
    """(u + v y)/w as (u, v, w) divided by gcd(u, v, w), w made monic:
    the stored form of GeneralFunction, with the gcd taken even for a
    constant w."""
    g = poly_gcd(poly_gcd(u, v), w)
    u, v, w = (divmod(p, g)[0] for p in (u, v, w))
    c = w.lc().inverse()
    return c * u, c * v, c * w


def naive_dot(xs, ys):
    """x_0 y_0 + x_1 y_1 + ..., folded from the left, each product and
    partial sum a reduced element; the operators lift across towers."""
    out = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out = out + x * y
    return out


def naive_mat_vec(m, v):
    return [naive_dot(r, v) for r in m.rows]


def naive_mat_mul(a, b):
    return [[naive_dot(r, c) for c in zip(*b.rows)] for r in a.rows]


def leibniz_det(m):
    """The determinant as the signed sum over permutations, with no
    elimination: sum_s sign(s) prod_i m[i, s(i)]."""
    n, total = m.nrows, m.tower.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = m.tower.one()
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def naive_poly_mul(p, q):
    """The coefficients of p q, each a left fold over i + j = k; [] when
    either is zero, as the zero Poly has no coefficients."""
    a, b = p.coeffs, q.coeffs
    return [naive_dot(*zip(*[(a[i], b[k - i]) for i in range(len(a)) if 0 <= k - i < len(b)]))
            for k in range(len(a) + len(b) - 1)] if a and b else []


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_elem_from_json(tower, j):
    """An element from its "p/q" strings, each read by Fraction once its
    shape has matched; ParseError for any string that one rejects."""
    if not isinstance(j, list) or len(j) != tower.degree:
        raise ParseError("coordinate vector has wrong length for the tower")
    coords = []
    for s in j:
        if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
            raise ParseError("bad rational %r" % (s,))
        try:
            coords.append(Fraction(s))
        except (ValueError, ZeroDivisionError):  # past the digit limit, or q = 0
            raise ParseError("bad rational %r" % (s,))
    return tower.element(coords)


def fraction_structure_constants(base, m):
    """The table and denominator of fields._structure_constants for
    base[t]/(m), with every product flattened to Fractions and the table
    scaled by the lcm of their denominators."""
    S, d = base.degree, m.degree
    unit = [base.element([int(i == k) for k in range(S)]) for i in range(S)]
    x = poly_x(base)
    powers = [(x ** e) % m for e in range(2 * d - 1)]
    flat = {}
    for p in range(S * d):
        k, i = divmod(p, S)
        for q in range(p, S * d):
            l, j = divmod(q, S)
            c = unit[i] * unit[j]
            flat[p, q] = [f for e in range(d) for f in (c * powers[k + l].coeff(e)).flatten()]
    den = lcm(*(f.denominator for v in flat.values() for f in v))
    table = [[None] * (S * d) for _ in range(S * d)]
    for (p, q), v in flat.items():
        table[p][q] = table[q][p] = tuple((k, f.numerator * (den // f.denominator))
                                          for k, f in enumerate(v) if f)
    return table, den
