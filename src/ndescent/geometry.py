"""The covering curve in P(R): its quadrics, the Segre step, and the
final plane equations.

Coordinates on P(R) are z_T in torsion-table order.  Quadrics cut out
the image of the covering; a trivialisation of the twisted algebra turns
sampled covering points into rank-1 matrices whose column factors
interpolate to a degree-n curve in P^{n-1}.
"""

import itertools
import random
from fractions import Fraction

from .linalg import ExactMatrix, split_row
from .curve import slope, division_polynomial, PoleAtP
from .descent_funcs import CurveData, affine_sample
from .algebra import (RhoTable, BadBasePoint, validate_rho, build_csa,
                      solve_gamma, certify_trivialisation, CertificationFailed)


class RankNotOne(Exception):
    """A matrix that should factor as column times row does not."""


class KernelTooBig(Exception):
    """More than one curve through the sampled points; resample."""


class KernelEmpty(Exception):
    """No curve of the right degree through the sampled points."""


class QuadricSystem:
    """Quadratic forms in the z_T, each a dict {(a, b): coeff} with
    a <= b flat torsion indices.  Coefficients live in the base field."""

    def __init__(self, field, n, forms):
        self.field = field
        self.n = n
        self.dim = n * n
        self.forms = forms

    def __len__(self):
        return len(self.forms)

    def __eq__(self, other):
        if not isinstance(other, QuadricSystem):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.forms == other.forms)

    def monomials(self):
        out = []
        for a in range(self.dim):
            for b in range(a, self.dim):
                out.append((a, b))
        return out

    def coefficient_matrix(self):
        zero = self.field.zero()
        mono = self.monomials()
        return ExactMatrix([[f.get(m, zero) for m in mono] for f in self.forms],
                           self.field)

    def rank(self):
        return self.coefficient_matrix().rank()

    def evaluate(self, form, z):
        """The form at a coordinate vector (entries may live upstairs)."""
        tot = None
        for ab in sorted(form):
            a, b = ab
            t = form[ab] * z[a] * z[b]
            tot = t if tot is None else tot + t
        return tot

    def evaluate_all(self, z):
        return [self.evaluate(f, z) for f in self.forms]


def quadrics_for_C(curve, table, rho):
    """The n^2 (n^2 - 3)/2 independent quadrics vanishing on the image
    of the rho-twisted covering in P(R).

    Group 1 chains each +-orbit {T, -T} against a reference orbit:

      (x(T) - x(Tref)) z_O^2 + rho(T,-T) z_T z_{-T}
                             - rho(Tref,-Tref) z_Tref z_{-Tref}.

    Group 2, per target T != O, chains the unordered decompositions
    T = D1 + D2 with D1, D2 != O against a reference decomposition:

      (lambda(ref) - lambda(D)) z_O z_T - rho(D1,D2) z_D1 z_D2
                                        + rho(ref1,ref2) z_ref1 z_ref2

    with lambda the slope of the line through the decomposition."""
    n = table.n
    K = curve.field
    assert n % 2 == 1, "even n needs the doubled-orbit variants"
    zero = K.zero()

    def flat(ij):
        return ij[0] * n + ij[1]

    def mono(k1, k2):
        return (k1, k2) if k1 <= k2 else (k2, k1)

    forms = []
    orbits = []
    seen = set()
    for k in range(1, n * n):
        ij = divmod(k, n)
        if ij in seen:
            continue
        seen.add(ij)
        seen.add(table.neg_index(ij))
        orbits.append(ij)
    ref = orbits[0]
    refm = mono(flat(ref), flat(table.neg_index(ref)))
    refc = rho.value(ref, table.neg_index(ref))
    refx = table.point(*ref).x
    for ij in orbits[1:]:
        form = {(0, 0): table.point(*ij).x - refx}
        form[mono(flat(ij), flat(table.neg_index(ij)))] = rho.value(ij, table.neg_index(ij))
        form[refm] = form.get(refm, zero) - refc
        forms.append(form)
    assert len(forms) == (n * n - 3) // 2

    for kt in range(1, n * n):
        tij = divmod(kt, n)
        decomps = []
        for kd in range(1, n * n):
            d1 = divmod(kd, n)
            d2 = ((tij[0] - d1[0]) % n, (tij[1] - d1[1]) % n)
            if d2 == (0, 0) or flat(d1) > flat(d2):
                continue
            decomps.append((d1, d2))
        dref = decomps[0]
        lam_ref = slope(table.point(*dref[0]), table.point(*dref[1]))
        refm = mono(flat(dref[0]), flat(dref[1]))
        refc = rho.value(dref[0], dref[1])
        for d1, d2 in decomps[1:]:
            lam = slope(table.point(*d1), table.point(*d2))
            form = {mono(0, kt): lam_ref - lam}
            form[mono(flat(d1), flat(d2))] = -rho.value(d1, d2)
            form[refm] = form.get(refm, zero) + refc
            forms.append(form)

    assert len(forms) == n * n * (n * n - 3) // 2
    out = QuadricSystem(K, n, forms)
    if out.rank() != len(forms):
        raise CertificationFailed(("quadric-rank",))
    return out


def quadrics_for_E(curve, table):
    """The same quadrics for the trivial twist: the image of E itself."""
    return quadrics_for_C(curve, table, RhoTable.trivial(table))


def g_eval(curve, gbasis, gamma, p):
    """Coordinates (gamma(T)^{-1} G_T(P))_T of the covering map, in
    table order; gamma = None means the untwisted map on E itself.

    P must stay away from the n^2-torsion, where the G_T share zeros
    and poles."""
    table = gbasis.table
    n = table.n
    if p.is_infinity:
        raise BadBasePoint("the covering coordinates degenerate at O")
    psi = division_polynomial(curve, n * n)
    if psi(p.x).is_zero():
        raise BadBasePoint("point lies over the n^2-torsion")
    out = []
    for k in range(n * n):
        ij = divmod(k, n)
        try:
            val = gbasis[ij].evaluate(p)
        except PoleAtP:
            raise BadBasePoint("covering coordinate has a pole at the point")
        if gamma is not None:
            val = gamma[ij].inverse() * val
        out.append(val)
    return out


def lambda_eval(triv, z):
    """The Segre image of a point P from its covering coordinates
    z = g_eval(curve, gbasis, gamma, P): apply the trivialisation and
    project onto trace zero,

        sum_T z_T tau(delta_T)  -  (Tr/n) 1.

    The result has trace zero; rank 1 is what a valid trivialisation
    guarantees, anything else raises RankNotOne."""
    n = triv.n
    out = None
    for k in range(n * n):
        term = triv.matrices[divmod(k, n)].scale(z[k])
        out = term if out is None else out + term
    tr = out.trace()
    proj = out - ExactMatrix.identity(n, out.tower).scale(tr * Fraction(1, n))
    assert proj.trace().is_zero()
    rank = proj.rank() if not proj.is_zero() else 0
    if rank != 1:
        raise RankNotOne("Segre image has rank %d" % rank)
    return proj


def extract_point(m):
    """Factor a rank-1 matrix as column times row.

    Returns (column, row): the first nonzero column, and the row scaled
    so that col . row reassembles the matrix exactly."""
    ncols = m.ncols
    col = None
    for j in range(ncols):
        c = m.col(j)
        if any(not e.is_zero() for e in c):
            col = c
            break
    if col is None:
        raise RankNotOne("zero matrix has no column factor")
    i0 = next(i for i, e in enumerate(col) if not e.is_zero())
    piv = col[i0].inverse()
    row = [piv * e for e in m.row(i0)]
    for i in range(m.nrows):
        for j in range(ncols):
            if not (col[i] * row[j] == m[i, j]):
                raise RankNotOne("matrix is not a column times a row")
    return col, row


def sample_images(curve, gbasis, gamma, qs, triv, seed, prefix):
    """Images in P^{n-1} of affine points P drawn, from the given seed,
    on the curve over the field of gamma: each the column factor of the
    Segre image of P, scaled so its first nonzero entry is 1.  The
    quadratic extension of the k-th point, if it needs one, is named
    prefix + k.  One g_eval per point serves the quadric check and the
    Segre step.

    Raises CertificationFailed if a quadric of qs does not vanish at the
    covering coordinates of P, and RankNotOne if the Segre image is not
    a column times a row."""
    L = next(iter(gamma.values())).tower
    cx = curve if L == curve.field else curve.base_change(L)
    rng = random.Random(seed)
    used_x = set()
    for k in itertools.count():
        p = affine_sample(cx, gbasis.table.n, rng, "%s%d" % (prefix, k), used_x)
        z = g_eval(curve, gbasis, gamma, p)
        for i, val in enumerate(qs.evaluate_all(z)):
            if not val.is_zero():
                raise CertificationFailed(("quadric", i),
                                          "quadric %d does not vanish at a sample" % i)
        col, _ = extract_point(lambda_eval(triv, z))
        unit = next(e for e in col if not e.is_zero()).inverse()
        yield [unit * e for e in col]


class PlaneCurveEquation:
    """A degree-n form in three variables over the base field, scaled so
    the first nonzero coefficient in graded lex order (x1 > x2 > x3)
    equals 1."""

    def __init__(self, field, n, monomials, coeffs):
        self.field = field
        self.n = n
        self.monomials = list(monomials)
        self.coeffs = list(coeffs)

    def __eq__(self, other):
        if not isinstance(other, PlaneCurveEquation):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.monomials == other.monomials and self.coeffs == other.coeffs)

    def evaluate(self, point):
        assert len(point) == 3
        tot = None
        for e, c in zip(self.monomials, self.coeffs):
            t = c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
            tot = t if tot is None else tot + t
        return tot

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


def plane_monomials(n):
    """Degree-n exponent triples in graded lex order, x1 > x2 > x3."""
    out = []
    for e1 in range(n, -1, -1):
        for e2 in range(n - e1, -1, -1):
            out.append((e1, e2, n - e1 - e2))
    return out


def interpolate_plane_curve(points, field):
    """The ternary cubic through the given projective points, with
    coefficients in the given field.

    Points may live in extension towers; each vanishing condition is
    split into base-field conditions coordinatewise.  The kernel of the
    monomial-evaluation matrix must be exactly a line."""
    mono = plane_monomials(3)
    if len(points) < len(mono):
        raise ValueError("need at least %d points" % len(mono))
    rows = []
    for pt in points:
        if len(pt) != 3:
            raise ValueError("a point of P^2 has 3 coordinates, not %d" % len(pt))
        vals = [pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] for e in mono]
        rows.extend(split_row(vals, field))
    kern = ExactMatrix(rows, field).kernel_basis()
    if not kern:
        raise KernelEmpty("no cubic through the sampled points")
    if len(kern) > 1:
        raise KernelTooBig("kernel has dimension %d" % len(kern))
    v = kern[0]
    lead = next(c for c in v if not c.is_zero()).inverse()
    return PlaneCurveEquation(field, 3, mono, [lead * c for c in v])


def descend(curve, n, rho, triv, seed=0, gbasis=None):
    """The full pipeline: quadrics for the twisted covering, certified
    algebra, gamma, sampling, Segre images, and the plane cubic.

    The supplied trivialisation is re-certified and must twist the same
    rho.  Returns a dict with the quadric system, the algebra, the
    cubic, gamma, and a report of every check run."""
    if n != 3:
        raise ValueError("n = %d: only cubic descent is wired end to end" % n)
    data = CurveData.of(curve, n)
    table, eps = data.table, data.eps

    rho = validate_rho(table, rho.values)
    if not (triv.rho.values == rho.values):
        raise ValueError("trivialisation twists a different rho")
    qs = quadrics_for_C(curve, table, rho)
    csa = build_csa(table, eps, rho)
    gamma, field = solve_gamma(table, rho)
    if field.is_prefix_of(triv.field):
        field = triv.field
        gamma = {ij: g.lift_to(field) for ij, g in gamma.items()}
    elif not triv.field.is_prefix_of(field):
        raise ValueError("trivialisation field is incompatible with the gamma extension")
    certify_trivialisation(triv, eps)
    if gbasis is None:
        gbasis = data.gbasis

    images = sample_images(curve, gbasis, gamma, qs, triv, seed, "w")
    held = 5
    points = [next(images) for _ in range(len(plane_monomials(3)) + held)]
    for rounds in range(4):
        try:
            cubic = interpolate_plane_curve(points[:-held], curve.field)
            break
        except KernelTooBig:
            if rounds == 3:
                raise
            points.extend(next(images) for _ in range(held))
    for k, pt in enumerate(points[-held:]):
        if not cubic.evaluate(pt).is_zero():
            raise CertificationFailed(("held-out", k),
                                      "held-out image point misses the cubic")

    report = {
        "n": n,
        "seed": seed,
        "samples": len(points),
        "rho_validated": True,
        "quadric_count": len(qs),
        "quadric_rank": len(qs),
        "quadric_vanishing": True,
        "csa_certified": True,
        "gamma_levels": len(field.levels),
        "gamma_coboundary": True,
        "trivialisation_certified": True,
        "lambda_rank_one": True,
        "interpolation_kernel": 1,
        "held_out": held,
        "held_out_pass": True,
        "summary": "all checks pass",
    }
    return {"quadrics": qs, "csa": csa, "trivialisation": triv, "gamma": gamma,
            "plane_curve": cubic, "report": report, "seed": seed}
