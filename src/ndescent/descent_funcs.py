"""Torsion-indexed functions and matrices attached to the degree-n embedding.

Builds, for a curve with fully rational n-torsion:
  - F_T with divisor n(T) - n(O), leading Laurent coefficient 1;
  - the epsilon table eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1)),
    which is 1/F_{T2}(-T1) (let P -> O) unless T1 + T2 = O, and the
    Weil pairing e_n(T1,T2) = eps(T1,T2)/eps(T2,T1);
  - G_T with divisor [n]*(T) - [n]*(O) and residue 1/n at O in t = x/y,
    as joint eigenvectors of translation operators on L(n^2(O));
  - the translation matrices M_T with f(P+T) proportional to M_T f(P),
    scaled so F_T(P) = (fdual_O . M_T^{-1} f(P)) / (fdual_O . f(P)).
    M_T = eps(T, -T) Mtilde_T, where Mtilde_T is the transpose of
    h -> (h o tau_T) F_{-T} on L(n(O)), read off in the function field
    by the helper that also gives the G-basis its operators
    h -> (h o tau_S) psi_n/(psi_n o tau_S) on L(n^2(O)).  fdual_O is
    e_1, since only the constants of L(n(O)) have no pole at O, and the
    product check M_T M_{-T} = eps(T, -T) certifies the scale;
  - the embedding: the M_T as the standard trivialisation of the
    untwisted algebra, alpha -> sum alpha(T) M_T.

CurveData.of(curve, n) holds the per-curve part of this: the table, the
Miller functions, epsilon, the G-basis and the embedding.
"""

from fractions import Fraction
from functools import cached_property

from .fields import Poly, root_or_extend
from .linalg import ExactMatrix
from .curve import Point, division_polynomial, torsion_table, PoleAtP
from .funcfield import FunctionFieldElement, miller_function
from .algebra import (CertificationFailed, RhoTable, Trivialisation,
                      certify_trivialisation)


class EigenspaceDimensionError(Exception):
    """A joint translation eigenspace did not have dimension one."""


def _exponents(d):
    """Exponents (i, j) with x^i y^j in L(d(O)): j <= 1, 2i + 3j <= d."""
    return ([(i, 0) for i in range(d // 2 + 1)]
            + [(i, 1) for i in range((d - 3) // 2 + 1)])


def _coords(ffe, d, ij):
    """Coordinates of a function over the monomial basis of L(d(O)).
    Raises CertificationFailed(("translation", ij)) if it is not in
    that space."""
    exps = _exponents(d)
    nx = sum(1 for _, j in exps if j == 0)
    if ffe.w.degree != 0 or ffe.u.degree >= nx or ffe.v.degree >= len(exps) - nx:
        raise CertificationFailed(("translation", ij),
                                  "a translated function is not in L(%d(O))" % d)
    K = ffe.curve.field
    return ([ffe.u.coeff(k).lift_to(K) for k in range(nx)]
            + [ffe.v.coeff(k).lift_to(K) for k in range(len(exps) - nx)])


def _translated_coords(table, ij, d, factor):
    """For each monomial h of L(d(O)), the coordinates of
    (h o tau_S) * factor(x o tau_S) over that basis, S the table point ij."""
    curve, s = table.curve, table.point(*ij)
    fx = FunctionFieldElement.coordinate_x(curve)
    fy = FunctionFieldElement.coordinate_y(curve)
    # addition formulas for P + S as functions of P = (x, y)
    lam = (fy - s.y) / (fx - s.x)
    xs = lam * lam - fx - s.x
    ys = lam * (s.x - xs) - s.y
    f = factor(xs)
    xpow = [FunctionFieldElement.const(curve, 1)]
    for _ in range(d // 2):
        xpow.append(xpow[-1] * xs)
    return [_coords((xpow[i] * ys if j else xpow[i]) * f, d, ij) for i, j in _exponents(d)]


def translation_operator(table, s):
    """Matrix of h -> (h o tau_S) * psi_n / (psi_n o tau_S) on L(n^2(O)),
    columns indexed by the monomial basis."""
    curve, n = table.curve, table.n
    if s.is_infinity:
        raise ValueError("the translation operator needs an affine torsion point, not O")
    psi = division_polynomial(curve, n)
    psi_ffe = FunctionFieldElement(curve, psi, 0, 1)
    cols = _translated_coords(table, table.index(s), n * n, lambda xs: psi_ffe / psi(xs))
    return ExactMatrix(cols, curve.field).transpose()


def compute_miller_table(table):
    """F_T for every table point; F_O = 1."""
    out = {}
    for ij, t in zip(table.indices, table):
        if t.is_infinity:
            out[ij] = FunctionFieldElement.const(table.curve, 1)
        else:
            out[ij] = miller_function(t, table.n)
    return out


class EpsilonTable:
    """eps(T1,T2) for all pairs of table points, and the Weil pairing."""

    def __init__(self, values):
        self.values = values  # dict (ij, kl) -> FieldElement

    def eps(self, ij, kl):
        return self.values[(ij, kl)]

    def weil(self, ij, kl):
        return self.values[(ij, kl)] / self.values[(kl, ij)]


def compute_epsilon(table, millers):
    """The table of eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1)),
    from the Miller functions of compute_miller_table.

    The value does not depend on P.  Every F_T leads at O with t^-n and
    coefficient 1, so P -> O gives eps(T1,T2) = 1/F_{T2}(-T1), unless
    T1 = O (eps = 1) or T1 + T2 = O (P = -T1 gives
    1/(F_{T1}(-T1) F_{-T1}(-2T1))).  A zero or a pole among these values
    raises CertificationFailed(("epsilon", ij, kl))."""
    one = table.curve.field.one()
    values = {}
    for ij, t1 in zip(table.indices, table):
        for kl in table.indices:
            try:
                if t1.is_infinity:
                    den = one
                elif table.add_index(ij, kl) == (0, 0):
                    den = millers[ij].evaluate(-t1) * millers[kl].evaluate(-(t1 + t1))
                else:
                    den = millers[kl].evaluate(-t1)
                values[(ij, kl)] = den.inverse()
            except (PoleAtP, ZeroDivisionError):
                raise CertificationFailed(("epsilon", ij, kl),
                                          "a Miller value in epsilon is zero or a pole")
    return EpsilonTable(values)


class GBasis:
    """G_T for all T in the table, with G_O = 1."""

    def __init__(self, table, funcs):
        self.table = table
        self.funcs = funcs  # dict ij -> FunctionFieldElement

    def __getitem__(self, ij):
        return self.funcs[ij]


def compute_G_basis(table, eps):
    """G_T with divisor [n]*(T) - [n]*(O), coefficient of t^{-1} equal 1/n.

    G_T psi_n lies in L(n^2(O)) and is a joint eigenvector of the
    translation operators for the table basis, with eigenvalues given by
    the Weil pairing.  Raises EigenspaceDimensionError if any joint
    eigenspace is not a line."""
    curve, n = table.curve, table.n
    K = curve.field
    psi = division_polynomial(curve, n)
    nx = n * n // 2 + 1  # how many coordinates are those of u in (u + v y)/psi_n
    L1 = translation_operator(table, table.t1)
    L2 = translation_operator(table, table.t2)
    ident = ExactMatrix.identity(n * n, K)
    funcs = {(0, 0): FunctionFieldElement.const(curve, 1)}
    for ij, t in zip(table.indices, table):
        if t.is_infinity:
            continue
        ev1 = eps.weil(table.index(table.t1), ij)
        ev2 = eps.weil(table.index(table.t2), ij)
        stacked = ExactMatrix(
            (L1 - ident.scale(ev1)).rows + (L2 - ident.scale(ev2)).rows, K)
        kern = stacked.kernel_basis()
        if len(kern) != 1:
            raise EigenspaceDimensionError(
                "joint eigenspace for %s has dimension %d" % ((ij,), len(kern)))
        c = kern[0]
        g = FunctionFieldElement(curve, Poly(c[:nx], K), Poly(c[nx:], K), psi)
        ordv, lead = g.laurent()
        if ordv != -1:
            raise ArithmeticError("G_T for %s has pole order %d at O, not 1" % ((ij,), -ordv))
        funcs[ij] = g * (lead.inverse() * Fraction(1, n))
    return GBasis(table, funcs)


class CurveData:
    """The per-(curve, n) data of the pipeline, each computed on first
    use: the torsion table, the Miller functions, epsilon, the G-basis
    and the embedding.  Get it with CurveData.of(curve, n)."""

    def __init__(self, curve, n):
        self.curve = curve
        self.n = n

    @classmethod
    def of(cls, curve, n):
        """The one CurveData of this curve object and n, kept on the curve."""
        return curve._data.setdefault(n, cls(curve, n))

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
        xe = K.from_fraction(Fraction(rng.randint(-40, 40), rng.randint(1, 8)))
        if psi_nn(xe).is_zero():
            continue
        ysq = curve.rhs(xe)
        if ysq.is_zero():
            continue
        y, L = root_or_extend(ysq, 2, name)
        if L != K:
            curve, xe = curve.base_change(L), xe.lift_to(L)
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
    M_O is the identity.  Returns the standard trivialisation of the
    untwisted algebra, certified by certify_trivialisation: on all pairs
    M_{T1} M_{T2} = eps(T1,T2) M_{T1+T2}, which on (T, -T) checks the
    scale against the exact scalar Mtilde_T Mtilde_{-T}, and the traces
    that prove the span.  seed has no effect; it is accepted for older
    callers."""
    n, K = table.n, table.curve.field
    matrices = {(0, 0): ExactMatrix.identity(n, K)}
    for ij, t in zip(table.indices, table):
        if t.is_infinity:
            continue
        neg = table.neg_index(ij)
        f_neg = millers[neg]
        mtilde = ExactMatrix(_translated_coords(table, ij, n, lambda xs: f_neg), K)
        matrices[ij] = mtilde.scale(eps.eps(ij, neg))
    emb = Trivialisation(table, RhoTable.trivial(table), K, matrices, "standard")
    certify_trivialisation(emb, eps)
    return emb


def tau_1(triv, alpha):
    """A trivialisation applied to an algebra element:
    alpha -> sum_T alpha(T) tau(delta_T), for the embedding the standard
    alpha -> sum_T alpha(T) M_T.

    alpha: dict ij -> FieldElement, an index it leaves out counting as
    zero (or a length-n^2 list in table order)."""
    if not isinstance(alpha, dict):
        alpha = dict(zip(triv.table.indices, alpha))
    out = None
    for ij, a in alpha.items():
        term = triv.M(ij).scale(a)
        out = term if out is None else out + term
    return out

