"""The covering curve in P(R): its quadrics, the Segre step, and the
final plane equations.

Coordinates on P(R) are z_T in torsion-table order.  Quadrics cut out
the image of the covering; a trivialisation of the twisted algebra turns
sampled covering points into rank-1 matrices whose column factors
interpolate to a degree-n curve in P^{n-1}.
"""

import itertools
import random

from .linalg import ExactMatrix, split_row
from .curve import slope, division_polynomial, PoleAtP
from .descent_funcs import CurveData, affine_sample, tau_1
from .algebra import (CSA, RhoTable, BadBasePoint, certify_trivialisation,
                      CertificationFailed)


class RankNotOne(Exception):
    """A matrix that should factor as column times row does not."""


class KernelTooBig(Exception):
    """More than one curve through the given points."""


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

    def rank(self):
        """The rank of the coefficient matrix, forms by monomials."""
        zero = self.field.zero()
        return ExactMatrix([[f.get(m, zero) for m in self.monomials()] for f in self.forms],
                           self.field).rank()

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

    with lambda the slope of the line through the decomposition.

    Each form owns a monomial no other form has: z_T z_{-T} for its
    orbit (no group 2 form has weight O), z_D1 z_D2 for its
    decomposition.  The owned columns are a diagonal minor, so the forms
    have full row rank once every owned coefficient is nonzero; a zero
    one raises CertificationFailed(("quadric-rank",))."""
    n = table.n
    K = curve.field
    if n % 2 == 0:
        raise ValueError("n = %d: even n needs the doubled-orbit variants" % n)
    zero = K.zero()
    flat = table.flat

    def mono(k1, k2):
        return (k1, k2) if k1 <= k2 else (k2, k1)

    forms = []
    owned = []  # the coefficient of each form's owned monomial
    idx = table.indices[1:]
    orbits = [ij for ij in idx if flat(ij) < flat(table.neg_index(ij))]
    ref = orbits[0]
    refm = mono(flat(ref), flat(table.neg_index(ref)))
    refc = rho.value(ref, table.neg_index(ref))
    refx = table.point(*ref).x
    for ij in orbits[1:]:
        form = {(0, 0): table.point(*ij).x - refx}
        owned.append(rho.value(ij, table.neg_index(ij)))
        form[mono(flat(ij), flat(table.neg_index(ij)))] = owned[-1]
        form[refm] = form.get(refm, zero) - refc
        forms.append(form)

    for tij in idx:
        kt = flat(tij)
        decomps = [(d1, table.add_index(tij, table.neg_index(d1))) for d1 in idx]
        decomps = [(d1, d2) for d1, d2 in decomps if d2 != (0, 0) and flat(d1) <= flat(d2)]
        dref = decomps[0]
        lam_ref = slope(table.point(*dref[0]), table.point(*dref[1]))
        refm = mono(flat(dref[0]), flat(dref[1]))
        refc = rho.value(dref[0], dref[1])
        for d1, d2 in decomps[1:]:
            lam = slope(table.point(*d1), table.point(*d2))
            form = {mono(0, kt): lam_ref - lam}
            owned.append(-rho.value(d1, d2))
            form[mono(flat(d1), flat(d2))] = owned[-1]
            form[refm] = form.get(refm, zero) + refc
            forms.append(form)

    if any(c.is_zero() for c in owned):
        raise CertificationFailed(("quadric-rank",))
    return QuadricSystem(K, n, forms)


def quadrics_for_E(curve, table):
    """The same quadrics for the trivial twist: the image of E itself."""
    return quadrics_for_C(curve, table, RhoTable.trivial(table))


def g_eval(curve, gbasis, gamma, p):
    """Coordinates (gamma(T)^{-1} G_T(P))_T of the covering map, in
    table order; the unit cochain gamma = 1 gives the map on E itself.

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
    for ij in table.indices:
        try:
            val = gbasis[ij].evaluate(p)
        except PoleAtP:
            raise BadBasePoint("covering coordinate has a pole at the point")
        out.append(gamma[ij].inverse() * val)
    return out


def lambda_eval(triv, z):
    """The Segre image of a point P from its covering coordinates
    z = g_eval(curve, gbasis, gamma, P):

        sum_{T != O} z_T tau(delta_T).

    This is sum_T z_T tau(delta_T) projected onto trace zero, once
    certify_trivialisation has proved tau(delta_O) = 1 and
    tr tau(delta_T) = 0 for T != O: the trace of the full sum is then
    n z_O, so the projection only removes z_O.  descend and verify reach
    this only after that certificate has passed.  Rank 1 is what a valid
    trivialisation guarantees, and extract_point raises RankNotOne for
    anything else.  Returns (image, u), u the column factor extract_point
    certified."""
    proj = tau_1(triv, dict(zip(triv.table.indices[1:], z[1:])))
    return proj, extract_point(proj)[0]


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


def _x_key(x):
    """An x-coordinate as a Fraction when it is rational, else as it is:
    sample points over different quadratic extensions compare by it."""
    try:
        return x.as_fraction()
    except ValueError:
        return x


def sampling_field(gamma, field, triv):
    """gamma and the field sample_images draws on, for descend and verify
    alike: the trivialisation's field, with gamma lifted to it, when that
    extends gamma's field, else gamma's own.  Raises ValueError when
    neither field extends the other."""
    if field.is_prefix_of(triv.field):
        return {ij: g.lift_to(triv.field) for ij, g in gamma.items()}, triv.field
    if not triv.field.is_prefix_of(field):
        raise ValueError("trivialisation field is incompatible with the gamma extension")
    return gamma, field


def sample_images(curve, gbasis, gamma, qs, triv, seed):
    """Images in P^{n-1} of the E[n] orbits of affine base points P drawn,
    from the given seed, on the curve over the field of gamma.  Each base
    point P runs g_eval, lambda_eval, extract_point and the quadric check
    once, which gives u, the column factor of its Segre image; then, for
    S in table order (S = O first), the image of P + S is tau(delta_S) u,
    scaled so its first nonzero entry is 1.  The one draw filter: a draw
    that shares an x-coordinate with a point of an earlier orbit (its
    base point included) is skipped, so no image repeats.

    Three identities give the orbit.  compute_G_basis certifies
    G_T o tau_S = e_n(S, T) G_T, so the covering coordinates of P + S
    are D_S z(P), with D_S = diag(e_n(S, T))_T; the twist by gamma(T)^{-1}
    commutes with D_S.  Each form q of qs is checked to have one weight
    w_q, the sum a + b in E[n] of all its monomials z_a z_b; e_n(S, .) is
    a character, so q(D_S z) = e_n(S, w_q) q(z), and q vanishes on the
    orbit once it vanishes at z(P).  And rho is symmetric, so tau(delta_S)
    conjugates tau(delta_T) by c(S, T)/c(T, S) = e_n(S, T); the Segre
    image of P + S is therefore tau(delta_S) lambda(P) tau(delta_S)^{-1},
    whose column factor is tau(delta_S) u.

    Raises CertificationFailed(("quadric-weight", i)) if form i mixes
    weights, RankNotOne if the Segre image of a base point is not a
    column times a row, and CertificationFailed(("quadric", i)) if form i
    does not vanish at z(P), before any image of P is yielded."""
    table = gbasis.table
    n, idx = table.n, table.indices
    for i, form in enumerate(qs.forms):
        weights = {table.add_index(idx[a], idx[b]) for a, b in form}
        if len(weights) != 1:
            raise CertificationFailed(("quadric-weight", i),
                                      "quadric %d mixes E[n]-weights" % i)
    L = next(iter(gamma.values())).tower
    cx = curve if L == curve.field else curve.base_change(L)
    rng = random.Random(seed)
    orbit_x = []
    for k in itertools.count():
        p = affine_sample(cx, n, rng, "w%d" % k)
        if _x_key(p.x) in orbit_x:
            continue
        orbit_x.extend(_x_key((p + table.point(*s)).x) for s in idx)
        z = g_eval(curve, gbasis, gamma, p)
        _, u = lambda_eval(triv, z)
        for i, val in enumerate(qs.evaluate_all(z)):
            if not val.is_zero():
                raise CertificationFailed(("quadric", i),
                                          "quadric %d does not vanish at a sample" % i)
        for s in idx:
            image = triv.M(s).mat_vec(u)
            unit = next(e for e in image if not e.is_zero()).inverse()
            yield [unit * e for e in image]


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
        if len(point) != 3:
            raise ValueError("a point of P^2 has 3 coordinates, not %d" % len(point))
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


_HELD_OUT = 5  # image points drawn past the interpolation set, each checked on the cubic


def descend(curve, n, rho, triv, seed=0, gbasis=None):
    """The full pipeline: certified algebra, gamma, quadrics for the
    twisted covering, sampling, Segre images, and the plane cubic.

    Each fact is certified once.  The supplied trivialisation must twist
    the same rho (else ValueError), and certify_trivialisation re-checks
    it; gamma is rho.gamma, whose solve_gamma ran check_coboundary,
    over the field sampling_field picks.  Those two certificates imply
    everything validate_rho and build_csa check, so neither runs here:
    - rho = d(gamma), so rho is nonzero, symmetric and a cocycle;
    - tau(delta_O) = 1 and tau(delta_O)^2 = c(O,O) tau(delta_O) force
      c(O,O) = eps(O,O) rho(O,O) = 1, so rho(O,O) = 1;
    - a certified trivialisation makes A (x) L = M_n(L), which gives the
      unit, associativity, a one-dimensional center and c(a,-a) != 0.
    The algebra saved is CSA(table, rho, c), with c = eps rho the
    structure constants the trivialisation was certified against.

    The 10 interpolation images and the 5 held-out images come from the
    E[n] orbits of two base points (see sample_images): z(P + S) =
    D_S z(P) and the image of P + S is tau(delta_S) u.  The held-out
    images are the first base image, computed in full, and four of its
    translates; the cubic goes through the other four translates and
    the first six images of the second orbit.

    Returns a dict with the quadric system, the algebra, the
    cubic, gamma, and a report of every check run."""
    if n != 3:
        raise ValueError("n = %d: only cubic descent is wired end to end" % n)
    data = CurveData.of(curve, n)
    table, eps = data.table, data.eps

    if not (triv.rho.values == rho.values):
        raise ValueError("trivialisation twists a different rho")
    csa = CSA(table, rho, certify_trivialisation(triv, eps))
    gamma, field = sampling_field(*rho.gamma, triv)
    qs = quadrics_for_C(curve, table, rho)
    if gbasis is None:
        gbasis = data.gbasis

    # 10 distinct points of the irreducible cubic C lie on no other cubic
    # (O_C(3H - D) has negative degree), so the interpolation kernel is a line
    images = sample_images(curve, gbasis, gamma, qs, triv, seed)
    points = [next(images) for _ in range(len(plane_monomials(n)) + _HELD_OUT)]
    cubic = interpolate_plane_curve(points[_HELD_OUT:], curve.field)
    for k, pt in enumerate(points[:_HELD_OUT]):
        if not cubic.evaluate(pt).is_zero():
            raise CertificationFailed(("held-out", k),
                                      "held-out image point misses the cubic")
    report = descent_report(n, seed, len(qs), len(field.levels))
    return {"quadrics": qs, "csa": csa, "trivialisation": triv, "gamma": gamma,
            "plane_curve": cubic, "report": report, "seed": seed}


def descent_report(n, seed, quadric_count, gamma_levels):
    """The report of a descend run, every check of which has passed;
    verify rebuilds it from the parts of a descent file.  The flags name
    the facts, not the functions: "rho_validated" and "csa_certified"
    hold by the trivialisation and coboundary certificates (see descend),
    "quadric_rank" by the owned monomials of quadrics_for_C."""
    return {
        "n": n,
        "seed": seed,
        "samples": len(plane_monomials(n)) + _HELD_OUT,
        "rho_validated": True,
        "quadric_count": quadric_count,
        "quadric_rank": quadric_count,
        "quadric_vanishing": True,
        "csa_certified": True,
        "gamma_levels": gamma_levels,
        "gamma_coboundary": True,
        "trivialisation_certified": True,
        "lambda_rank_one": True,
        "interpolation_kernel": 1,
        "held_out": _HELD_OUT,
        "held_out_pass": True,
        "summary": "all checks pass",
    }
