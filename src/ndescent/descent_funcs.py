"""Torsion-indexed functions and matrices attached to the degree-n embedding.

Builds, for a curve with fully rational n-torsion:
  - F_T with divisor n(T) - n(O), leading Laurent coefficient 1;
  - the epsilon table eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1)),
    which is 1/F_{T2}(-T1) (let P -> O) unless T1 + T2 = O, and the
    Weil pairing e_n(T1,T2) = eps(T1,T2)/eps(T2,T1);
  - G_T with divisor [n]*(T) - [n]*(O) and residue 1/n at O in t = x/y,
    as joint eigenvectors of translation operators on L(n^2(O)), the
    symmetric cubes of the 3 x 3 translation matrices of T1 and T2, found
    by projection onto each character of E[n];
  - the translation matrices M_T with f(P+T) proportional to M_T f(P),
    read off for T1 and T2 in the coordinate ring, every other M_T a
    product of those, and row 0 certifying the scale (compute_embedding);
  - the embedding: the M_T as the standard trivialisation of the
    untwisted algebra, alpha -> sum alpha(T) M_T.

CurveData.of(curve, n) holds the per-curve part of this: the table, the
Miller functions, epsilon, the G-basis and the embedding, and the one
store of verdicts, CurveData.once.
"""

from functools import cached_property

from .fields import FieldElement, Poly, _dot, poly_x, root_or_extend
from .linalg import ExactMatrix
from .curve import Point, division_polynomial, torsion_table, PoleAtP
from .funcfield import FunctionFieldElement, _exact_div, _ring_mul, miller_function
from .algebra import CertificationFailed, RhoTable, Trivialisation, certify_once


class EigenspaceDimensionError(Exception):
    """A joint translation eigenspace did not have dimension one."""


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


def _translated_coords(table, ij, d, f):
    """For each monomial h of L(d(O)), the coordinates of (h o tau_S) f
    over that basis, S the table point ij and f = (u, v) the function
    u + v y of the coordinate ring.  P + S is
    (X/(x - s_x)^2, Y/(x - s_x)^3) with X, Y in the coordinate ring, so
    (x o tau_S)^i f is built one factor X at a time, each product divided
    exactly by (x - s_x)^2, and a y-column product by (x - s_x)^3.  If f
    vanishes to order d at -S, as F_{-S} does for d = n, all is regular;
    else a remainder raises ("translation", ij)."""
    curve, s = table.curve, table.point(*ij)
    K, rhs = curve.field, curve.rhs_poly()
    lin = poly_x(K) - s.x
    sq = lin * lin
    # lambda = (y - s_y)/(x - s_x), x o tau_S = lambda^2 - x - s_x and
    # y o tau_S = lambda (s_x - x o tau_S) - s_y, over common denominators
    dy = (Poly([-s.y], K), Poly([1], K))
    u, v = _ring_mul(rhs, dy, dy)
    X = (u - (lin + 2 * s.x) * sq, v)
    u, v = _ring_mul(rhs, dy, (sq * s.x - X[0], -X[1]))
    Y = (u - sq * lin * s.y, v)
    try:
        xpow = [f]
        for _ in range(d // 2):
            xpow.append(_exact_div(_ring_mul(rhs, X, xpow[-1]), sq))
        cols = [_exact_div(_ring_mul(rhs, Y, xpow[i]), sq * lin) if j else xpow[i]
                for i, j in _exponents(d)]
    except ArithmeticError:
        raise CertificationFailed(("translation", ij),
                                  "a translated function is not regular off O")
    return [_coords(c, d, ij) for c in cols]


def compute_miller_table(table):
    """F_T for every table point; F_O = 1.  A Miller chain gives F_T for
    the first of each +-T in table order, and F_{-T} = -u + v y: u - v y
    = F_T o [-1] has divisor n(-T) - n(O) and leads with (-1)^n at O, as
    t = x/y goes to -t.  It passes the check ending a chain: order -n, lead 1."""
    out, n = {}, table.n
    for ij, t in zip(table.indices, table):
        neg = table.neg_index(ij)
        if t.is_infinity:
            out[ij] = FunctionFieldElement.const(table.curve, 1)
        elif neg not in out:
            out[ij] = miller_function(t, n)
        else:
            out[ij] = FunctionFieldElement(t.curve, -out[neg].u, out[neg].v, out[neg].w)
            if out[ij].laurent() != (-n, 1):
                raise ArithmeticError("F_{-T} for %s does not lead with t^-%d at O" % ((ij,), n))
    return out


def weil(eps, ij, kl):
    """The Weil pairing e_n(T1,T2) = eps(T1,T2)/eps(T2,T1)."""
    return eps[ij, kl] / eps[kl, ij]


def compute_epsilon(table, millers):
    """The table of eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1)),
    from the Miller functions of compute_miller_table, as a dict keyed by
    pairs of table indices.

    The value does not depend on P.  Every F_T leads at O with t^-n and
    coefficient 1, so P -> O gives eps(T1,T2) = 1/F_{T2}(-T1), unless
    T1 = O (eps = 1) or T1 + T2 = O (P = -T1 gives
    1/(F_{T1}(-T1) F_{-T1}(-2T1))).

    Half of the values come from their mirrors.  compute_miller_table
    builds F_{-T} = -u + v y from F_T = u + v y, so F_{-T}(P) = -F_T(-P)
    exactly for T != O; F_O = 1 has no such mirror.  So for T1, T2 != O,
    eps(-T1,-T2) = 1/F_{-T2}(T1) = -eps(T1,T2), and when T1 + T2 = O
    both factors change sign and eps(-T1,-T2) = eps(T1,T2).  The first
    pair of each mirror in table order is evaluated and the second read
    off it.  A mirror's values are zero or a pole exactly when its first
    pair's are, so a zero or a pole raises
    CertificationFailed(("epsilon", ij, kl)) at the first such pair in
    table order, as evaluating every pair would."""
    one = table.curve.field.one()
    values = {}
    for ij, t1, neg in zip(table.indices, table, [-t for t in table]):
        for kl in table.indices:
            sum_zero = table.add_index(ij, kl) == (0, 0)
            mirror = table.neg_index(ij), table.neg_index(kl)
            if mirror in values and (0, 0) not in (ij, kl):
                values[ij, kl] = values[mirror] if sum_zero else -values[mirror]
                continue
            try:
                if t1.is_infinity:
                    den = one
                elif sum_zero:
                    den = millers[ij].evaluate(neg) * millers[kl].evaluate(-(t1 + t1))
                else:
                    den = millers[kl].evaluate(neg)
                values[ij, kl] = den.inverse()
            except (PoleAtP, ZeroDivisionError):
                raise CertificationFailed(("epsilon", ij, kl),
                                          "a Miller value in epsilon is zero or a pole")
    return values


def _orbit(table, L1, L2, w):
    """The matrix of columns o_S = L1^i L2^j e_w, S = (i, j) in table
    order, certified to be shifted by the generators: L_g o_S = o_{S+g}
    for every S and g = T1, T2.  Of these 2 n^2 identities, the n^2 - 1
    that build the orbit hold as built, and each of the other n^2 + 1
    costs one matrix-vector product.  EigenspaceDimensionError if one
    fails."""
    K, ops = L1.tower, dict(zip(table.generators, (L1, L2)))
    e = [K.zero()] * len(table.indices)
    e[w] = K.one()
    o, built = {(0, 0): e}, set()
    for ij in table.indices[1:]:  # row 0 along T2, then each row from the one above
        g = table.generators[0 if ij[0] else 1]
        prev = table.add_index(ij, table.neg_index(g))
        o[ij] = ops[g].mat_vec(o[prev])
        built.add((prev, g))
    if not all(ops[g].mat_vec(o[ij]) == o[table.add_index(ij, g)]
               for ij in table.indices for g in table.generators if (ij, g) not in built):
        raise EigenspaceDimensionError("the orbit of e_%d is not shifted by L1 and L2" % w)
    return ExactMatrix([o[ij] for ij in table.indices], K).transpose()


def _translation_operator(table, g):
    """L_g: h -> (h o tau_g) psi_3/(psi_3 o tau_g) on L(9(O)), columns
    indexed by the monomials 1, x, ..., x^4, y, ..., x^3 y of _exponents(9).

    psi_3/(psi_3 o tau_g) and F_{-g}^3 have divisor 9(-g) - 9(O), so
    L_g = c_g [h -> (h o tau_g) F_{-g}^3].  Column m of the symmetric
    cube of Mtilde_g (row f: (f o tau_g) F_{-g} over 1, x, y, as in
    compute_embedding) holds the cubic in (1, x, y) of
    (m o tau_g) F_{-g}^3.  x^4 and x^3 y take the columns of
    x y^2 - a x^2 - b x and y^3 - a x y - b y, and a cubic reduces to the
    basis by y^2 = x^3 + a x + b, x y^2 = x^4 + a x^2 + b x and
    y^3 = x^3 y + a x y + b y; coordinates over a basis are unique.
    L_g psi_3 = psi_3, whose x^4 coordinate is its leading coefficient,
    fixes c_g."""
    from .geometry import _symmetric_cube  # that module imports this one
    curve = table.curve
    K, a, b = curve.field, curve.a, curve.b
    f = miller_function(table.point(*table.neg_index(g)), 3)
    cube = _symmetric_cube(ExactMatrix(_translated_coords(table, g, 3, (f.u, f.v)), K))

    def reduced(c):  # a cubic in (1, x, y), plane_monomials(3) order
        c1, cx, cy, cxx, cxy, cyy, cxxx, cxxy, cxyy, cyyy = c
        return [c1 + b * cyy, cx + a * cyy + b * cxyy, cxx + a * cxyy, cxxx + cyy, cxyy,
                cy + b * cyyy, cxy + a * cyyy, cxxy, cyyy]
    s1, sx, sy, sxx, sxy, _, sxxx, sxxy, sxyy, syyy = map(reduced, zip(*cube.rows))
    x4 = [p - a * q - b * r for p, q, r in zip(sxyy, sxx, sx)]
    x3y = [p - a * q - b * r for p, q, r in zip(syyy, sxy, sy)]
    op = ExactMatrix([s1, sx, sxx, sxxx, x4, sy, sxy, sxxy, x3y], K).transpose()
    psi = division_polynomial(curve, 3)
    return op.scale(psi.lc() / _dot(op.rows[4], [psi.coeff(k) for k in range(9)]))


def compute_G_basis(table, eps):
    """G_T with divisor [n]*(T) - [n]*(O), coefficient of t^{-1} equal 1/n,
    for n = 3 (ValueError for any other n).

    G_T psi_n lies in L(n^2(O)), of dimension n^2, and is a joint
    eigenvector of the translation operators L1, L2 of T1, T2 with the
    character chi_T(S) = e_n(S, T) as eigenvalues: L1 v = chi_T(T1) v and
    L2 v = chi_T(T2) v.  L_g is h -> (h o tau_g) psi_n/(psi_n o tau_g),
    built from the 3 x 3 translation matrix (_translation_operator).  The
    eigenvector is found by projection (Serre, Linear Representations of
    Finite Groups, 2.6): v = sum_S chi_T(S)^{-1} o_S, S = i T1 + j T2,
    over the orbit o_(i,j) = L1^i L2^j e_w; w runs through e_1, e_2, ...
    until v != 0.  _orbit certifies L_g o_S = o_{S+g}, and every
    chi_T(T1), chi_T(T2) is checked to be an n-th root of unity, so
    S -> chi_T(T1)^i chi_T(T2)^j is a character of E[n] and
    L1 v = chi_T(T1) v, L2 v = chi_T(T2) v hold exactly.  psi_n, that
    is G_O psi_n, is certified by the eigenvalue equations of chi_O.  The
    n^2 characters are checked to be distinct, so the n^2 certified
    eigenvectors are linearly independent and fill L(n^2(O)): every joint
    eigenspace is a line, and v is G_T psi_n up to the scalar the residue
    fixes.

    Returns the dict ij -> G_T, with G_O = 1.  Each G_T is stored as
    (u + v y)/den: den is psi_n made monic, and (u, v)
    is the certified eigenvector scaled by (n lead)^{-1}, lead its
    leading coefficient at O, so the residue is 1/n.  This form is
    reduced with no gcd taken.  For T != O, u + v y = G_T psi_n has
    divisor [n]*(T) - n^2(O), so it vanishes at no S != O in E[n].  The
    roots of den are the x(S) of those S, and a common root x(S) of u
    and v would make u + v y vanish at S; so gcd(u, v, den) = 1.

    Raises EigenspaceDimensionError if two characters coincide, if one is
    no character of E[n], if psi_n or an orbit fails its certificate, or
    if no w gives v != 0 (the eigenspace is then 0)."""
    curve, n = table.curve, table.n
    if n != 3:
        raise ValueError("n = %d: the G-basis is built for n = 3 only" % n)
    K = curve.field
    psi = division_polynomial(curve, n)
    nx = n * n // 2 + 1  # how many coordinates are those of u in (u + v y)/psi_n
    psi_v = [psi.coeff(k) for k in range(n * n)]  # deg psi_n < nx: no y-part
    L1, L2 = (_translation_operator(table, g) for g in table.generators)
    chars = {ij: tuple(weil(eps, g, ij) for g in table.generators) for ij in table.indices}
    if len(set(chars.values())) != n * n:
        raise EigenspaceDimensionError("two translation characters coincide")
    if not all(ev ** n == 1 for ch in chars.values() for ev in ch):
        raise EigenspaceDimensionError("a translation eigenvalue is no n-th root of unity")
    if not (L1.mat_vec(psi_v) == psi_v and L2.mat_vec(psi_v) == psi_v):
        raise EigenspaceDimensionError("psi_%d is not fixed by translation" % n)

    orbits = []  # orbits[w]: the certified columns L1^i L2^j e_w

    def projection(ij):
        """sum_S chi_T(S)^{-1} o_S for the first w with a nonzero sum."""
        inv1, inv2 = (ev.inverse() for ev in chars[ij])
        weights = [inv1 ** i * inv2 ** j for i, j in table.indices]
        for w in range(n * n):
            if w == len(orbits):
                orbits.append(_orbit(table, L1, L2, w))
            v = orbits[w].mat_vec(weights)
            if any(not e.is_zero() for e in v):
                return v
        raise EigenspaceDimensionError("joint eigenspace for %s has dimension 0" % (ij,))

    funcs = {(0, 0): FunctionFieldElement.const(curve, 1)}
    den = psi.monic()
    for ij in table.indices[1:]:
        v = projection(ij)
        g = FunctionFieldElement(curve, Poly(v[:nx], K), Poly(v[nx:], K), den)
        ordv, lead = g.laurent()
        if ordv != -1:
            raise ArithmeticError("G_T for %s has pole order %d at O, not 1" % ((ij,), -ordv))
        funcs[ij] = g.scale((lead * n).inverse())
    return funcs


def _frozen(x):
    """x in a once key: a dict as its keys and frozen values, a matrix as row tuples."""
    if isinstance(x, dict):
        return tuple(x), tuple(map(_frozen, x.values()))
    return tuple(map(tuple, x.rows)) if isinstance(x, ExactMatrix) else x


class CurveData:
    """The per-(curve, n) data of the pipeline, each computed on first
    use: the torsion table, the Miller functions, epsilon, the G-basis and
    the embedding; and what once keeps.  Get it with CurveData.of."""

    def __init__(self, curve, n):
        self.curve = curve
        self.n = n
        self.kept = {}  # once's key -> (value, failure)

    @classmethod
    def of(cls, curve, n):
        """The one CurveData of this curve object and n, kept on the curve."""
        return curve._data.setdefault(n, cls(curve, n))

    def once(self, check, *data):
        """check() once per == data on this curve: its value, or the
        CertificationFailed it raised, raised again.  data names the check
        and holds all it reads beyond this CurveData, copied by _frozen, so
        data changed in place is checked again."""
        key = tuple(map(_frozen, data))
        kept = self.kept.get(key)  # a tuple's hash is not cached: hash the key once here
        if kept is None:
            try:
                kept = check(), None
            except CertificationFailed as e:
                kept = None, (e.witness, str(e))
            self.kept[key] = kept
        value, failure = kept
        if failure:
            raise CertificationFailed(*failure)
        return value

    def passed(self, *data):
        """Whether once has run a check on == data, and it returned None."""
        return self.kept.get(tuple(map(_frozen, data))) == (None, None)

    @cached_property
    def table(self):
        return torsion_table(self.curve, self.n)

    @cached_property
    def millers(self):
        return compute_miller_table(self.table)

    @cached_property
    def eps(self):
        return compute_epsilon(self.table, self.millers)

    @cached_property
    def gbasis(self):
        return compute_G_basis(self.table, self.eps)

    @cached_property
    def emb(self):
        return compute_embedding(self.table, self.eps, self.millers)


def affine_sample(curve, n, rng, name):
    """A deterministic-random affine point off E[n^2], over the base field
    when the cubic is a square there, else over a quadratic extension.
    psi_n divides psi_{n^2}, so the one psi_{n^2} check also rejects
    E[n]; callers that need distinct points skip repeated x themselves."""
    psi_nn = division_polynomial(curve, n * n)
    K = curve.field
    while True:
        xe = FieldElement(K, (rng.randint(-40, 40),) + (0,) * (K.degree - 1), rng.randint(1, 8))
        if psi_nn(xe).is_zero():
            continue
        ysq = curve.rhs(xe)
        if ysq.is_zero():
            continue
        y, L = root_or_extend(ysq, 2, name)
        if L != K:
            curve = curve.base_change(L)
        return Point(curve, xe, y)


def compute_embedding(table, eps, millers, seed=0):
    """The matrices M_T with f(P+T) proportional to M_T f(P), scaled so
    that F_T(P) = (fdual_O . M_T^{-1} f(P)) / (fdual_O . f(P)).

    F_{-T} has divisor n(-T) - n(O), so (h o tau_T) F_{-T} lies in
    L(n(O)) for each basis function h of L(n(O)); its coordinates are
    the row of h in Mtilde_T, and Mtilde_T f(P) = F_{-T}(P) f(P+T).
    Only the constants of L(n(O)) have no pole at O, so fdual_O is e_1,
    and the first coordinate of Mtilde_T^{-1} f(P) = f(P-T)/F_{-T}(P-T)
    is 1/F_{-T}(P-T).  The scale is therefore
    1/(F_T(P) F_{-T}(P-T)) = eps(T, -T), and M_T = eps(T, -T) Mtilde_T.
    Mtilde_g is read off for g = T1, T2 only; in table order every other M_T
    is eps(g, b)^{-1} M_g M_b, T = g + b, so a scalar times eps(T, -T)
    Mtilde_T.  Row 0 of Mtilde_T holds the coordinates of F_{-T}, and
    checking row 0 of every M_T against the Miller table certifies that
    scalar to be 1, or raises CertificationFailed(("embedding", T)); the
    products alone pass a character twist {chi(T) M_T}.  A Miller function
    with w != 1 is not in the coordinate ring and raises
    CertificationFailed(("translation", T)).  M_O is the identity.
    Returns the standard trivialisation of the untwisted algebra,
    certified by certify_once.  seed has no effect; it is
    accepted for older callers."""
    n, K = table.n, table.curve.field
    matrices = {(0, 0): ExactMatrix.identity(n, K)}
    for ij in table.indices[1:]:
        neg = table.neg_index(ij)
        f = millers[neg]
        if not (f.w == 1):
            raise CertificationFailed(("translation", ij), "F_{-T} is not in the coordinate ring")
        scale, f_neg = eps[ij, neg], (f.u, f.v)
        if ij in table.generators:
            m = ExactMatrix(_translated_coords(table, ij, n, f_neg), K).scale(scale)
        else:
            g, b = ((0, 1), (ij[0], ij[1] - 1)) if ij[1] else ((1, 0), (ij[0] - 1, 0))
            m = (matrices[g] * matrices[b]).scale(eps[g, b].inverse())
        if not (m.rows[0] == [scale * c for c in _coords(f_neg, n, ij)]):
            raise CertificationFailed(("embedding", ij), "row 0 of M_T is not eps(T,-T) F_{-T}")
        matrices[ij] = m
    emb = Trivialisation(table, RhoTable.trivial(table), K, matrices, "standard")
    certify_once(emb, eps)
    return emb


def tau_1(triv, alpha):
    """A trivialisation applied to an algebra element:
    alpha -> sum_T alpha(T) tau(delta_T), for the embedding the standard
    alpha -> sum_T alpha(T) M_T.

    alpha: a nonempty dict ij -> FieldElement, an index it leaves out
    counting as zero.  Entry (r, c) of the sum is row n r + c of the
    matrix of all M_T entries applied to alpha, so one sum each."""
    n, ijs = triv.table.n, list(alpha)
    stacked = ExactMatrix([[triv.matrices[ij].rows[r][c] for ij in ijs]
                           for r in range(n) for c in range(n)])
    flat = stacked.mat_vec([alpha[ij] for ij in ijs])
    return ExactMatrix([flat[r * n:r * n + n] for r in range(n)])

