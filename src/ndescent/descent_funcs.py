"""Torsion-indexed functions and matrices attached to the degree-n embedding.

Builds, for a curve with fully rational n-torsion:
  - F_T with divisor n(T) - n(O), leading Laurent coefficient 1;
  - the epsilon table eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1))
    and the Weil pairing e_n(T1,T2) = eps(T1,T2)/eps(T2,T1);
  - G_T with divisor [n]*(T) - [n]*(O) and residue 1/n at O in t = x/y,
    as joint eigenvectors of translation operators on L(n^2(O));
  - the translation matrices M_T with f(P+T) proportional to M_T f(P),
    scaled so F_T(P) = (fdual_O . M_T^{-1} f(P)) / (fdual_O . f(P));
  - the standard trivialisation alpha -> sum alpha(T) M_T.
"""

import random
from fractions import Fraction
from functools import cached_property

from .fields import ReducibleExtension, tower_extend
from .linalg import ExactMatrix, split_row
from .curve import Point, division_polynomial, torsion_table, PoleAtP
from .funcfield import FunctionFieldElement, miller_function
from .algebra import CertificationFailed


class EigenspaceDimensionError(Exception):
    """A joint translation eigenspace did not have dimension one."""


class DegenerateSample(Exception):
    """Sampling kept producing degenerate linear systems."""


def _exponents(d):
    """Exponents (i, j) with x^i y^j in L(d(O)): j <= 1, 2i + 3j <= d."""
    return ([(i, 0) for i in range(d // 2 + 1)]
            + [(i, 1) for i in range((d - 3) // 2 + 1)])


def _monomials(x, y, d):
    """The monomial basis of L(d(O)) at x, y: coordinate functions or a
    point's coordinates."""
    return [x ** i * y if j else x ** i for i, j in _exponents(d)]


def monomial_exponents(n):
    """Exponents (i, j) with x^i y^j in L(n^2(O))."""
    return _exponents(n * n)


def v_basis(curve, n):
    """The monomial basis of L(n^2(O)) as function field elements."""
    return _monomials(FunctionFieldElement.coordinate_x(curve),
                      FunctionFieldElement.coordinate_y(curve), n * n)


def _v_coords(ffe, n):
    """Coordinates of a function lying in L(n^2(O)) over the monomial basis."""
    assert ffe.w.degree == 0, "function has affine poles, not in L(n^2(O))"
    K = ffe.curve.field
    exps = monomial_exponents(n)
    nx = sum(1 for _, j in exps if j == 0)
    coords = []
    assert ffe.u.degree < nx and ffe.v.degree < len(exps) - nx
    for k in range(nx):
        coords.append(ffe.u.coeff(k))
    for k in range(len(exps) - nx):
        coords.append(ffe.v.coeff(k))
    return [c.lift_to(K) for c in coords]


def _from_v_coords(curve, n, coords):
    basis = v_basis(curve, n)
    out = FunctionFieldElement.const(curve, 0)
    for c, h in zip(coords, basis):
        if not c.is_zero():
            out = out + c * h
    return out


def translation_operator(table, s):
    """Matrix of h -> (h o tau_S) * psi_n / (psi_n o tau_S) on L(n^2(O)),
    columns indexed by the monomial basis."""
    curve, n = table.curve, table.n
    assert not s.is_infinity
    K = curve.field
    fx = FunctionFieldElement.coordinate_x(curve)
    fy = FunctionFieldElement.coordinate_y(curve)
    # addition formulas for P + S as functions of P = (x, y)
    lam = (fy - s.y) / (fx - s.x)
    xs = lam * lam - fx - s.x
    ys = lam * (s.x - xs) - s.y
    psi = division_polynomial(curve, n)
    ratio = FunctionFieldElement(curve, psi, 0, 1) / psi(xs)
    cols = []
    xpow = [FunctionFieldElement.const(curve, 1)]
    for _ in range(n * n // 2):
        xpow.append(xpow[-1] * xs)
    for i, j in monomial_exponents(n):
        h = xpow[i]
        if j:
            h = h * ys
        cols.append(_v_coords(h * ratio, n))
    return ExactMatrix([[cols[j][i] for j in range(n * n)] for i in range(n * n)], K)


def compute_miller_table(table):
    """F_T for every table point; F_O = 1."""
    out = {}
    for k, t in enumerate(table):
        ij = divmod(k, table.n)
        if t.is_infinity:
            out[ij] = FunctionFieldElement.const(table.curve, 1)
        else:
            out[ij] = miller_function(t, table.n)
    return out


class EpsilonTable:
    """eps(T1,T2) for all pairs of table points, and the Weil pairing."""

    def __init__(self, table, values):
        self.table = table
        self.values = values  # dict (ij, kl) -> FieldElement

    def eps(self, ij, kl):
        return self.values[(ij, kl)]

    def weil(self, ij, kl):
        return self.values[(ij, kl)] / self.values[(kl, ij)]

    def weil_points(self, p, q):
        return self.weil(self.table.index(p), self.table.index(q))


def compute_epsilon(table, millers):
    """The table of eps(T1,T2) = F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P-T1)),
    from the Miller functions of compute_miller_table.

    The value does not depend on P outside {O, T1, T1+T2}; P runs over
    the torsion table in order and the first usable point is taken."""
    n = table.n
    values = {}
    for k1, t1 in enumerate(table):
        ij = divmod(k1, n)
        for k2, t2 in enumerate(table):
            kl = divmod(k2, n)
            tsum = t1 + t2
            fsum = millers[table.index(tsum)]
            f1 = millers[ij]
            f2 = millers[kl]
            one = table.curve.field.one()
            val = None
            for p in table:
                if p.is_infinity or p == t1 or p == tsum:
                    continue
                q = p - t1
                if q.is_infinity:
                    continue
                try:
                    a = one if tsum.is_infinity else fsum.evaluate(p)
                    b = one if t1.is_infinity else f1.evaluate(p)
                    c = one if t2.is_infinity else f2.evaluate(q)
                except PoleAtP:
                    continue
                if b.is_zero() or c.is_zero():
                    continue
                val = a / (b * c)
                break
            assert val is not None, "no usable evaluation point for epsilon"
            values[(ij, kl)] = val
    return EpsilonTable(table, values)


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
    psi_ffe = FunctionFieldElement(curve, psi, 0, 1)
    L1 = translation_operator(table, table.t1)
    L2 = translation_operator(table, table.t2)
    ident = ExactMatrix.identity(n * n, K)
    funcs = {(0, 0): FunctionFieldElement.const(curve, 1)}
    for k, t in enumerate(table):
        ij = divmod(k, n)
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
        g = _from_v_coords(curve, n, kern[0]) / psi_ffe
        ordv, lead = g.laurent(2).leading()
        assert ordv == -1, "G_T should have a simple pole at O"
        funcs[ij] = g * (lead.inverse() * Fraction(1, n))
    return GBasis(table, funcs)


class CurveData:
    """The per-(curve, n) data of the pipeline, each computed on first
    use: the torsion table, the Miller functions, epsilon and the
    G-basis.  Get it with CurveData.of(curve, n)."""

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


def dual_vector_at_O(curve, n):
    """Coefficients of the hyperplane osculating the degree-n embedding
    at the image of O, over the basis of L(n(O)).

    Computed as the kernel of the matrix of polar-part coefficients of
    the basis expansions at O."""
    basis = embedding_basis(curve, n)
    K = curve.field
    series = [h.laurent(0) for h in basis]
    rows = []
    for order in range(-n, 0):
        rows.append([s.coeff(order) for s in series])
    kern = ExactMatrix(rows, K).kernel_basis()
    assert len(kern) == 1, "osculating hyperplane at O is not unique"
    v = kern[0]
    lead = next(c for c in v if not c.is_zero())
    return [c / lead for c in v]


def embedding_basis(curve, n):
    """The basis of L(n(O)) giving the degree-n embedding: x^i y^j with
    j <= 1 and 2i + 3j <= n."""
    return _monomials(FunctionFieldElement.coordinate_x(curve),
                      FunctionFieldElement.coordinate_y(curve), n)


def embedding_values(curve, n, p):
    """The affine coordinate vector of the embedding at an affine point."""
    assert not p.is_infinity, "the embedding vector at O is a limit, not a value"
    return _monomials(p.x, p.y, n)


def affine_sample(curve, n, rng, name, used_x):
    """A deterministic-random affine non-torsion point, over the base field
    when the cubic is a square there, else over a quadratic extension."""
    psi_n = division_polynomial(curve, n)
    psi_nn = division_polynomial(curve, n * n)
    K = curve.field
    while True:
        x0 = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if x0 in used_x:
            continue
        xe = K.from_fraction(x0)
        if psi_n(xe).is_zero() or psi_nn(xe).is_zero():
            continue
        ysq = curve.rhs(xe)
        if ysq.is_zero():
            continue
        used_x.add(x0)
        try:
            ext = tower_extend(K, [-ysq, K.zero(), K.one()], name=name)
        except ReducibleExtension as e:
            # z - y0 divides z^2 - ysq; the root of smaller key is the sample
            y0 = -e.factor[0]
            return Point(curve, xe, min(y0, -y0, key=lambda y: y.key()))
        return Point(curve.base_change(ext), xe.lift_to(ext), ext.gen())


def _cross_rows(fq, fp):
    """Linear constraints (rows over the point's field) saying that the
    vector f(Q) is parallel to M f(P); unknowns are the n^2 entries of M
    in row-major order."""
    n = len(fq)
    zero = fq[0].tower.zero()
    rows = []
    for b in range(n):
        for c in range(b + 1, n):
            # fq[b] (M f(P))[c] - fq[c] (M f(P))[b] = 0
            row = [zero] * (n * n)
            for k in range(n):
                row[c * n + k] = row[c * n + k] + fq[b] * fp[k]
                row[b * n + k] = row[b * n + k] - fq[c] * fp[k]
            rows.append(row)
    return rows


class Embedding:
    """The degree-n embedding data: dual vector at O and the matrices M_T."""

    def __init__(self, table, dual_O, matrices):
        self.table = table
        self.curve = table.curve
        self.n = table.n
        self.dual_O = dual_O
        self.matrices = matrices  # dict ij -> ExactMatrix over the base field

    def M(self, ij):
        return self.matrices[ij]


def compute_embedding(table, eps, millers, seed=0):
    """The matrices M_T with f(P+T) proportional to M_T f(P), scaled so
    that F_T(P) = (fdual_O . M_T^{-1} f(P)) / (fdual_O . f(P)).

    M_O is the identity.  Certifies M_{T1} M_{T2} = eps(T1,T2) M_{T1+T2}
    on all pairs and the vanishing traces.  Raises DegenerateSample if
    random sampling keeps giving underdetermined systems."""
    curve, n = table.curve, table.n
    K = curve.field
    dual_O = dual_vector_at_O(curve, n)
    rng = random.Random(seed)
    used_x = set()
    samples = []
    matrices = {(0, 0): ExactMatrix.identity(n, K)}
    for k, t in enumerate(table):
        ij = divmod(k, n)
        if t.is_infinity:
            continue
        rows = []
        nsamples = 0
        mtilde = None
        while True:
            while len(samples) <= nsamples:
                samples.append(affine_sample(curve, n, rng, "s%d" % len(samples), used_x))
            p = samples[nsamples]
            nsamples += 1
            tq = t if p.curve.field == K else t.base_change(p.curve.field)
            q = p + tq
            if q.is_infinity:
                continue
            fp = embedding_values(p.curve, n, p)
            fq = embedding_values(p.curve, n, q)
            for row in _cross_rows(fq, fp):
                rows.extend(split_row(row, K))
            if nsamples < n + 2:
                continue
            kern = ExactMatrix(rows, K).kernel_basis()
            if len(kern) == 1:
                mtilde = ExactMatrix([kern[0][r * n:(r + 1) * n] for r in range(n)], K)
                break
            assert kern, "translation matrix constraints are inconsistent"
            if nsamples >= n + 7:
                raise DegenerateSample(
                    "M_T system still has a %d-dimensional kernel" % len(kern))
        # scale by Prop (fdual_O . M^{-1} f(P)) / (fdual_O . f(P)) = F_T(P)
        minv = mtilde.inverse()
        ft = millers[ij]
        scaled = None
        for p in table:
            if p.is_infinity or p == t:
                continue
            try:
                fval = ft.evaluate(p)
            except PoleAtP:
                continue
            fp = embedding_values(curve, n, p)
            num = _dot(dual_O, minv.mat_vec(fp))
            den = _dot(dual_O, fp)
            if den.is_zero():
                continue
            if scaled is None:
                assert not num.is_zero(), "osculating numerator vanished at a good point"
                # mtilde = kappa M with num/den = kappa^{-1} F_T(p)
                kappa = fval * den / num
                scaled = mtilde.scale(kappa.inverse())
                minv_scaled = scaled.inverse()
            else:
                lhs = _dot(dual_O, minv_scaled.mat_vec(fp))
                if not (lhs == fval * den):
                    raise CertificationFailed(("scaling", ij))
                break
        else:
            raise CertificationFailed(("scaling", ij, "too few points"))
        matrices[ij] = scaled
    emb = Embedding(table, dual_O, matrices)
    _certify_embedding(emb, eps)
    return emb


def _dot(u, v):
    s = None
    for a, b in zip(u, v):
        t = a * b
        s = t if s is None else s + t
    return s


def _certify_embedding(emb, eps):
    table, n = emb.table, emb.n
    for k1 in range(n * n):
        ij = divmod(k1, n)
        m1 = emb.matrices[ij]
        if ij != (0, 0) and not m1.trace().is_zero():
            raise CertificationFailed(("trace", ij))
        for k2 in range(n * n):
            kl = divmod(k2, n)
            m2 = emb.matrices[kl]
            target = table.add_index(ij, kl)
            prod = m1 * m2
            expect = emb.matrices[target].scale(eps.eps(ij, kl))
            if not (prod == expect):
                raise CertificationFailed(("product", ij, kl))


def tau_1(emb, alpha):
    """The standard trivialisation: alpha -> sum_T alpha(T) M_T.

    alpha: dict ij -> FieldElement (or a length-n^2 list in table order)."""
    n = emb.n
    if not isinstance(alpha, dict):
        alpha = {divmod(k, n): v for k, v in enumerate(alpha)}
    out = None
    for ij, m in emb.matrices.items():
        term = m.scale(alpha[ij])
        out = term if out is None else out + term
    return out


def dual_row(emb, p):
    """The osculating hyperplane of the embedding at an affine point
    (the tangent line for n = 3), as a coefficient vector."""
    assert emb.n == 3, "osculating rows only implemented for n = 3"
    curve = emb.curve
    fp = embedding_values(curve, emb.n, p)
    if p.y.is_zero():
        # vertical tangent at a two-torsion point
        drow = [curve.field.zero(), curve.field.zero(), curve.field.one()]
    else:
        yprime = (3 * p.x ** 2 + curve.a) / (2 * p.y)
        drow = [curve.field.zero(), curve.field.one(), yprime]
    kern = ExactMatrix([fp, drow]).kernel_basis()
    assert len(kern) == 1
    return kern[0]
