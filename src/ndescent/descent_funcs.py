"""Torsion-indexed functions and matrices attached to the degree-n embedding.

Builds, for a curve with fully rational n-torsion:
  - F_T with divisor n(T) - n(O), leading Laurent coefficient 1: for
    n = 3 the tangent at the flex T (funcfield.miller_function);
  - the epsilon table eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1))
    and the Weil pairing e_n(T1,T2) = eps(T1,T2)/eps(T2,T1);
  - G_T with divisor [n]*(T) - [n]*(O) and residue 1/n at O in t = x/y,
    a character sum of x^k/psi_n over the E[n]-orbit of the point;
  - the translation matrices M_T with f(P+T) proportional to M_T f(P),
    in closed form from the tangent at the flex T, row 0 checked against
    F_{-T} and the generators' on E[n] (compute_embedding);
  - the embedding: the M_T as the standard trivialisation of the
    untwisted algebra, alpha -> sum alpha(T) M_T.

CurveData.of(curve, n) holds the per-curve part of this: the table, the
Miller functions, epsilon, the G-basis and the embedding, and the one
store of verdicts, CurveData.once.
"""

from functools import cached_property

from .fields import FieldElement, Poly, _dot, _inverses, root_or_extend
from .linalg import ExactMatrix
from .curve import (Point, division_polynomial, division_value, slope, torsion_table,
                    PoleAtP)
from .funcfield import FunctionFieldElement, miller_function
from .algebra import CertificationFailed, RhoTable, Trivialisation, certify_once


class EigenspaceDimensionError(Exception):
    """Two G-basis characters coincide, an e_n value is no n-th root of 1, or all lead_T(k) = 0."""


def compute_miller_table(table):
    """F_T for every table point: F_O = 1, and the tangent of
    miller_function at every other T."""
    return {ij: FunctionFieldElement.const(table.curve, 1) if t.is_infinity
            else miller_function(t, table.n) for ij, t in zip(table.indices, table)}


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

    Half of the values come from their mirrors.  The tangent at -T is
    F_{-T} = y + lam x + nu, so F_{-T}(P) = -F_T(-P) for T != O, and for
    T1, T2 != O eps(-T1,-T2) = -eps(T1,T2), or +eps(T1,T2) when
    T1 + T2 = O, where both factors change sign.  The first pair of each
    mirror in table order is evaluated; a mirror is zero or a pole exactly
    when its first pair is, so CertificationFailed(("epsilon", ij, kl))
    names the first failing pair in table order, as evaluating all would."""
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


def _leading(chi_inv, terms):
    """(k, lead_T(k)) for the first k with lead_T(k) != 0, from chi_inv and
    terms[k] = [x_S^k r_S] over S != O in table order (compute_G_basis)."""
    for k, row in enumerate(terms):
        lead = _dot(chi_inv, row)
        if not lead.is_zero():
            return k, lead
    raise EigenspaceDimensionError("no x^k/psi, k < %d, has a nonzero chi_T part" % len(terms))


def compute_G_basis(table, eps):
    """G_T with divisor [n]*(T) - [n]*(O) and t^{-1} coefficient 1/n at O,
    for n = 3 (ValueError for any other n), in closed form.  With psi =
    psi_3 made monic, chi_T(i T1 + j T2) = e_3(T1, T)^i e_3(T2, T)^j and
    r_S = -1/(2 y_S psi'(x_S)), k is the first in 0..4 with
    lead_T(k) = sum_{S != O} chi_T(S)^{-1} x_S^k r_S != 0 (T != O), and
    G_T = H_T / (3 lead_T(k)) for the character sum
    H_T(P) = sum_{S in E[3]} chi_T(S)^{-1} x(P+S)^k / psi(x(P+S)); G_O = 1.
    1. Reindexing S -> S - R gives H_T o tau_R = chi_T(R) H_T (a character).
    2. x^k/psi is regular at O for k <= 4, since x^4/psi = 1 + O(t^4),
       and its poles are simple, at E[3] - O.  So H_T lies in L([3]*(O)).
    3. The nine characters are distinct, so the chi_T-eigenspace of
       L([3]*(O)) is the line of G_T (Serre, Linear Representations, 2.6).
    4. Only the terms with S != O have a pole at O.  There
       x(P+S) = x_S - 2 y_S t + O(t^2), because dx/2y = -dt (1 + O(t)) is
       translation invariant (Silverman, AEC, III.5 and IV.1), so x^k/psi
       at P+S is x_S^k r_S t^{-1} + O(1).  H_T leads with lead_T(k) t^{-1}
       and G_T with t^{-1}/3, so H_T = 3 lead_T(k) G_T.
    5. Some k <= 4 works.  The x^k/psi, k = 0..4, have the distinct orders
       8 - 2k at O, so they span the even part of L([3]*(O)), which holds
       G_T - G_{-T}, since G_T o [-1] = -G_{-T}.  The chi_T part of
       G_T - G_{-T} is G_T (chi_{-T} = chi_T^{-1} != chi_T), and that of
       x^k/psi is H_T/9, so not every H_T is zero.
    Checked: the characters are distinct and every e_3 value is a cube
    root of unity; a failure, or no k, raises EigenspaceDimensionError.
    Returns (table, psi, weights) for geometry.g_eval: weights[ij] = (k, c)
    for T != O, c[S] = chi_T(S)^{-1} / (3 lead_T(k)), both in table order."""
    curve, n = table.curve, table.n
    if n != 3:
        raise ValueError("n = %d: the G-basis is built for n = 3 only" % n)
    # chi_T(T1)^{-1}, chi_T(T2)^{-1}: e_3(T, g) = e_3(g, T)^{-1}
    chars = {ij: tuple(weil(eps, ij, g) for g in table.generators) for ij in table.indices}
    if len(set(chars.values())) != n * n:
        raise EigenspaceDimensionError("two translation characters coincide")
    if not all(ev ** n == 1 for ch in chars.values() for ev in ch):
        raise EigenspaceDimensionError("a translation eigenvalue is no n-th root of unity")
    psi = division_polynomial(curve, n).monic()
    dpsi = Poly([k * c for k, c in enumerate(psi.coeffs)][1:], curve.field)
    torsion = list(table)[1:]
    terms = [_inverses([-2 * s.y * dpsi(s.x) for s in torsion])]  # [r_S]
    for _ in range(psi.degree):  # terms[k] = [x_S^k r_S], k = 0..4
        terms.append([s.x * e for s, e in zip(torsion, terms[-1])])
    weights = {}
    for ij in table.indices[1:]:
        chi_inv = [chars[ij][0] ** i * chars[ij][1] ** j for i, j in table.indices]
        k, lead = _leading(chi_inv[1:], terms)
        scale = (n * lead).inverse()
        weights[ij] = k, [scale * c for c in chi_inv]
    return table, psi, weights


def _frozen(x):
    """x in a once key: a dict as its keys and frozen values, a matrix as row tuples."""
    if isinstance(x, dict):
        return tuple(x), tuple(map(_frozen, x.values()))
    return tuple(map(tuple, x.rows)) if isinstance(x, ExactMatrix) else x


class CurveData:
    """The per-(curve, n) data of the pipeline, each computed on first
    use: the torsion table, the Miller functions, epsilon, the G-basis and
    the embedding; and what once keeps, the one store of the verdicts of
    the checks and of the tables the serialize loaders decode, for as
    long as the CurveData lives.  Get it with CurveData.of."""

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
    E[n]; it is taken at x by value (curve.division_value), so no
    polynomial of degree (n^4 - 1)/2 is built.  Callers that need distinct
    points skip repeated x themselves."""
    K = curve.field
    while True:
        xe = FieldElement(K, (rng.randint(-40, 40),) + (0,) * (K.degree - 1), rng.randint(1, 8))
        if division_value(curve, n * n, xe).is_zero():
            continue
        ysq = curve.rhs(xe)
        if ysq.is_zero():
            continue
        y, L = root_or_extend(ysq, 2, name)
        if L != K:
            curve = curve.base_change(L)
        return Point(curve, xe, y)


def _tangent_translation(t):
    """Mtilde_T on (1, x, y) for T != O in E[3], from the tangent
    y = lam x + nu at the flex T (compute_embedding)."""
    lam = slope(t, t)
    nu = t.y - lam * t.x
    c = 2 * lam * t.x + 3 * nu
    return [[nu, lam, 1], [t.x * c, -(lam * t.x + 2 * nu), t.x], [-t.y * c, -lam * t.y, t.y]]


def compute_embedding(table, eps, millers, seed=0):
    """The matrices M_T with f(P+T) proportional to M_T f(P), f = (1, x, y),
    scaled so that F_T(P) = (fdual_O . M_T^{-1} f(P)) / (fdual_O . f(P)),
    for n = 3 (ValueError for any other n).  M_O is the identity.

    F_{-T} has divisor n(-T) - n(O), so (h o tau_T) F_{-T} lies in L(n(O))
    for h in L(n(O)), and Mtilde_T f(P) = F_{-T}(P) f(P+T) defines Mtilde_T.
    Only the constants of L(n(O)) have no pole at O, so fdual_O = e_1, and
    the first coordinate of Mtilde_T^{-1} f(P) = f(P-T)/F_{-T}(P-T) is
    1/F_{-T}(P-T): the scale is 1/(F_T(P) F_{-T}(P-T)) = eps(T, -T), and
    M_T = eps(T, -T) Mtilde_T.

    Each T != O is a flex, with tangent y = lam x + nu, lam = slope(T, T):
    F_T = y - lam x - nu, s = F_{-T} = y + lam x + nu and, with u = x - x_T,
    F_T s = u^3, whose x^2 coefficient gives lam^2 = 3 x_T.  The chord
    through P and T has slope m = (y - y_T)/u = lam + F_T/u = lam + u^2/s.
    So x(P+T) = m^2 - x - x_T gives, with c = 2 lam x_T + 3 nu and term by
    term in 1, x, x^2, y and x y,
      s x(P+T) = (lam^2 - x - x_T) s + 2 lam u^2 + u F_T
               = x_T c - (lam x_T + 2 nu) x + x_T y,
    then x_T s - s x(P+T) = 2 y_T u, and y(P+T) = m (x_T - x(P+T)) - y_T
    gives s y(P+T) = 2 y_T (y - y_T) - y_T s = -y_T c - lam y_T x + y_T y.
    With s = nu + lam x + y, these are the rows of _tangent_translation.

    Checks, each raising CertificationFailed: row 0 of every M_T is
    eps(T, -T) times the coordinates of the Miller table's F_{-T}, which
    lies in span(1, x, y) (("embedding", T); this fixes the scale); for
    g = T1, T2 and all S in E[3], M_g f(S) is a nonzero multiple of
    f(S + g), f(O) = (0, 0, 1) (("translation", g); O, T1, T2 and T1 + T2
    are in general position, so with row 0 this fixes M_g); and
    certify_once, whose products M_g M_b = c(g, b) M_{g+b} fix every
    other M_T.  Returns the standard trivialisation of the untwisted
    algebra.  seed has no effect.  No library code passes it; it stays
    because perfbench/workload.py does."""
    if table.n != 3:
        raise ValueError("n = %d: the embedding is built for n = 3 only" % table.n)
    K = table.curve.field
    matrices, fs = {(0, 0): ExactMatrix.identity(3, K)}, {(0, 0): [K.zero(), K.zero(), K.one()]}
    for ij, t in zip(table.indices[1:], list(table)[1:]):
        neg = table.neg_index(ij)
        f, scale = millers[neg], eps[ij, neg]
        m = ExactMatrix(_tangent_translation(t), K).scale(scale)
        if not (f.w == 1 and f.u.degree <= 1 and f.v.degree <= 0 and m.rows[0] == [
                scale * c for c in (f.u.coeff(0), f.u.coeff(1), f.v.coeff(0))]):
            raise CertificationFailed(("embedding", ij), "row 0 of M_T is not eps(T,-T) F_{-T}")
        matrices[ij], fs[ij] = m, [K.one(), t.x, t.y]
    for g in table.generators:
        for ij in table.indices:
            kl = table.add_index(g, ij)
            v, k = matrices[g].mat_vec(fs[ij]), 2 if kl == (0, 0) else 0  # fs[kl][k] = 1
            if v[k].is_zero() or not (v == [v[k] * e for e in fs[kl]]):
                raise CertificationFailed(("translation", g), "M_g f(S) is no multiple of f(S + g)")
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

