"""Obstruction algebras attached to a cocycle on the rational n-torsion.

A weighting rho on pairs of torsion points (symmetric, normalized,
satisfying the cocycle identity) twists the multiplication

    delta_{T1} * delta_{T2} = eps(T1,T2) rho(T1,T2) delta_{T1+T2}

into a central simple algebra of dimension n^2.  When rho = d(gamma) is
a coboundary the algebra is trivialized by delta_T -> gamma(T) M_T.
"""

from fractions import Fraction

from .fields import nonresidue_witness, poly_x, roots_in_field, tower_extend
from .linalg import ExactMatrix
from .curve import r_eval, PoleAtP


class CertificationFailed(Exception):
    """A certification of user-supplied or derived data failed.

    .witness identifies the first failing identity."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or "certification failed at %r" % (witness,))


class BadBasePoint(Exception):
    """The supplied curve point cannot be used (wrong field or n-torsion)."""


class RhoTable:
    """A symmetric normalized 2-cocycle on the torsion table, as a dict
    of values keyed by pairs of table indices."""

    def __init__(self, table, values):
        self.table = table
        self.values = values

    def value(self, ij, kl):
        return self.values[(ij, kl)]

    def is_trivial(self):
        return all(v == 1 for v in self.values.values())

    @staticmethod
    def trivial(table):
        one = table.curve.field.one()
        n = table.n
        values = {}
        for a in range(n * n):
            for b in range(n * n):
                values[(divmod(a, n), divmod(b, n))] = one
        return RhoTable(table, values)


def _indices(n):
    return [divmod(k, n) for k in range(n * n)]


def validate_rho(table, values):
    """Check the split-torsion criterion for a weighting: all values
    nonzero, symmetric, and satisfying the cocycle identity
    rho(U,V) rho(U+V,W) = rho(U,V+W) rho(V,W).  Returns the table
    normalized so that rho(O,O) = 1.

    Raises CertificationFailed with a witness on the first violation."""
    n = table.n
    idx = _indices(n)
    K = table.curve.field
    vals = {}
    for a in idx:
        for b in idx:
            v = values[(a, b)]
            if isinstance(v, (int, Fraction)):
                v = K.from_fraction(v)
            if v.is_zero():
                raise CertificationFailed(("nonzero", a, b), "rho vanishes at %r" % ((a, b),))
            vals[(a, b)] = v
    for a in idx:
        for b in idx:
            if not (vals[(a, b)] == vals[(b, a)]):
                raise CertificationFailed(("symmetry", a, b),
                                          "rho is not symmetric at %r" % ((a, b),))
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for c in idx:
                bc = table.add_index(b, c)
                lhs = vals[(a, b)] * vals[(ab, c)]
                rhs = vals[(a, bc)] * vals[(b, c)]
                if not (lhs == rhs):
                    raise CertificationFailed(("cocycle", a, b, c),
                                              "cocycle identity fails at %r" % ((a, b, c),))
    c0 = vals[((0, 0), (0, 0))]
    if not (c0 == 1):
        inv = c0.inverse()
        vals = {k: v * inv for k, v in vals.items()}
    for a in idx:
        assert vals[((0, 0), a)] == 1, "normalized cocycle should have rho(O,.) = 1"
    return RhoTable(table, vals)


def partial(table, alpha):
    """The coboundary d(alpha)(T1,T2) = alpha(T1) alpha(T2) / alpha(T1+T2)."""
    n = table.n
    idx = _indices(n)
    K = table.curve.field
    a = {}
    for k in idx:
        v = alpha[k]
        if isinstance(v, (int, Fraction)):
            v = K.from_fraction(v)
        assert not v.is_zero(), "alpha must be nonvanishing"
        a[k] = v
    values = {}
    for u in idx:
        for v in idx:
            values[(u, v)] = a[u] * a[v] / a[table.add_index(u, v)]
    return RhoTable(table, values)


def rho_from_point(table, q):
    """The weighting rho(T1,T2) = r_{(T1,T2)}(Q) for a base point Q on the
    curve over the base field, not n-torsion."""
    curve, n = table.curve, table.n
    if q.is_infinity or not (q.curve == curve):
        raise BadBasePoint("base point must be an affine point on the curve over the base field")
    if (n * q).is_infinity:
        raise BadBasePoint("base point must not be n-torsion")
    values = {}
    for a in _indices(n):
        t1 = table.point(*a)
        for b in _indices(n):
            t2 = table.point(*b)
            try:
                values[(a, b)] = r_eval(t1, t2, q)
            except PoleAtP:
                raise BadBasePoint("r is not defined at the base point")
    return validate_rho(table, values)


class CSA:
    """The twisted group algebra with delta_{T1} delta_{T2} =
    eps(T1,T2) rho(T1,T2) delta_{T1+T2}, certified central simple."""

    def __init__(self, table, rho, structure):
        self.table = table
        self.rho = rho
        self.structure = structure  # dict (ij, kl) -> FieldElement
        self.n = table.n
        self.field = table.curve.field

    def c(self, a, b):
        return self.structure[(a, b)]

    def delta(self, ij):
        out = {k: self.field.zero() for k in _indices(self.n)}
        out[ij] = self.field.one()
        return out

    def one(self):
        return self.delta((0, 0))

    def mult(self, x, y):
        out = {k: None for k in _indices(self.n)}
        for a, xa in x.items():
            if xa.is_zero():
                continue
            for b, yb in y.items():
                if yb.is_zero():
                    continue
                t = self.table.add_index(a, b)
                term = self.c(a, b) * xa * yb
                out[t] = term if out[t] is None else out[t] + term
        zero = self.field.zero()
        return {k: (v if v is not None else zero) for k, v in out.items()}

    def left_mult_matrix(self, x):
        """Matrix of y -> x * y on coordinate vectors in table order."""
        n = self.n
        idx = _indices(n)
        rows = [[None] * (n * n) for _ in range(n * n)]
        zero = self.field.zero()
        for bcol, b in enumerate(idx):
            for a, xa in x.items():
                t = self.table.add_index(a, b)
                trow = t[0] * n + t[1]
                term = self.c(a, b) * xa
                cur = rows[trow][bcol]
                rows[trow][bcol] = term if cur is None else cur + term
        rows = [[e if e is not None else zero for e in r] for r in rows]
        return ExactMatrix(rows, self.field)

    def trd(self, x):
        """Reduced trace: trace of left multiplication divided by n."""
        return self.left_mult_matrix(x).trace() * Fraction(1, self.n)


def build_csa(table, eps, rho):
    """Assemble the twisted algebra and certify it is central simple:
    unit, associativity on all index triples, center of dimension one,
    and nondegenerate trace form, all by explicit linear algebra."""
    n = table.n
    idx = _indices(n)
    K = table.curve.field
    structure = {}
    for a in idx:
        for b in idx:
            structure[(a, b)] = eps.eps(a, b) * rho.value(a, b)
    A = CSA(table, rho, structure)
    # unit
    for a in idx:
        if not (A.c((0, 0), a) == 1 and A.c(a, (0, 0)) == 1):
            raise CertificationFailed(("unit", a), "delta_O is not a unit")
    # associativity via the structure constants
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for c in idx:
                bc = table.add_index(b, c)
                if not (A.c(a, b) * A.c(ab, c) == A.c(a, bc) * A.c(b, c)):
                    raise CertificationFailed(("associativity", a, b, c))
    # center: x commutes with every delta_U iff x_V (c(V,U) - c(U,V)) = 0
    # for every pair (U,V) separately (the products land on distinct
    # basis vectors); stack one row per pair and take the kernel
    zero = K.zero()
    rows = []
    for u in idx:
        for kv, v in enumerate(idx):
            diff = A.c(v, u) - A.c(u, v)
            if diff.is_zero():
                continue
            row = [zero] * (n * n)
            row[kv] = diff
            rows.append(row)
    center_dim = len(ExactMatrix(rows, K).kernel_basis()) if rows else n * n
    if center_dim != 1:
        raise CertificationFailed(("center", center_dim),
                                  "center has dimension %d" % center_dim)
    # trace form on the regular representation: delta_a delta_b is
    # c(a,b) delta_{a+b}, and left multiplication by delta_s permutes the
    # basis lines with no fixed line unless s = O, where (the unit check
    # having passed) it is the identity; so its trace is n^2 c(a,b) when
    # a + b = O and 0 otherwise
    gram = [[A.c(a, b) * (n * n) if table.add_index(a, b) == (0, 0) else zero
             for b in idx] for a in idx]
    rank = ExactMatrix(gram, K).rank()
    if rank != n * n:
        raise CertificationFailed(("trace-form", rank),
                                  "trace form has rank %d" % rank)
    return A


def _nth_root(field, a, n, name):
    """An n-th root of a, in the field when possible, else by extending
    the tower by x^n - a (irreducible for prime n once no root exists).
    A non-residue witness proves there is no root without factoring.
    Returns (root, field)."""
    if nonresidue_witness(a, n) is None:
        rr = roots_in_field(poly_x(field) ** n - a, field)
        if rr:
            return rr[0], field
    coeffs = [field.zero()] * n + [field.one()]
    coeffs[0] = -a
    ext = tower_extend(field, coeffs, name=name)
    return ext.gen(), ext


def solve_gamma(table, rho):
    """gamma: E[n] -> Kbar with d(gamma) = rho, possibly over an extension.

    With basis T1, T2 and A_m = prod_{k=1}^{n-1} rho(T_m, k T_m), pick
    alpha = A_1^{1/n}, beta = A_2^{1/n}; then with the partial products
    c_m(i) = prod_{k=1}^{i-1} rho(T_m, k T_m),

       gamma(i T1 + j T2) = alpha^i beta^j / (c_1(i) c_2(j) rho(iT1, jT2)).

    Returns (gamma dict, field).  The coboundary identity is re-checked
    exactly on every pair of torsion points."""
    n = table.n
    K = table.curve.field
    assert rho.value((0, 0), (0, 0)) == 1, "rho must be normalized"
    # c_m(i) = prod_{k=1}^{i-1} rho(T_m, k T_m); the empty products are 1
    c1 = [K.one(), K.one()]
    c2 = [K.one(), K.one()]
    for i in range(2, n + 1):
        c1.append(c1[-1] * rho.value((1, 0), ((i - 1) % n, 0)))
        c2.append(c2[-1] * rho.value((0, 1), (0, (i - 1) % n)))
    a1 = c1[n]
    a2 = c2[n]
    alpha, L = _nth_root(K, a1, n, "g1")
    beta, L = _nth_root(L, a2.lift_to(L), n, "g2")
    gamma = {}
    apow = [L.one()]
    bpow = [L.one()]
    for _ in range(n - 1):
        apow.append(apow[-1] * alpha.lift_to(L))
        bpow.append(bpow[-1] * beta)
    for i in range(n):
        for j in range(n):
            den = (c1[i] * c2[j] * rho.value((i, 0), (0, j))).lift_to(L)
            gamma[(i, j)] = apow[i] * bpow[j] / den
    check_coboundary(table, gamma, rho)
    return gamma, L


def check_coboundary(table, gamma, rho):
    """Check d(gamma) = rho exactly on every pair of torsion points, in
    the field of gamma.  Raises CertificationFailed(("coboundary", a, b))
    at the first pair where it fails."""
    L = next(iter(gamma.values())).tower
    for a in _indices(table.n):
        for b in _indices(table.n):
            lhs = gamma[a] * gamma[b] / gamma[table.add_index(a, b)]
            if not (lhs == rho.value(a, b).lift_to(L)):
                raise CertificationFailed(("coboundary", a, b),
                                          "gamma does not satisfy d(gamma) = rho")


class Trivialisation:
    """An isomorphism of the twisted algebra with the n x n matrices,
    given by its values on the delta basis."""

    def __init__(self, table, rho, field, matrices, mode, gamma=None):
        self.table = table
        self.rho = rho
        self.field = field
        self.matrices = matrices  # dict ij -> ExactMatrix over field
        self.mode = mode
        self.gamma = gamma
        self.n = table.n

    def of_basis(self, ij):
        return self.matrices[ij]


def certify_trivialisation(triv, eps):
    """tau(delta_O) = 1, tau(delta_a) tau(delta_b) = c(a,b) tau(delta_{a+b})
    on all pairs, and the images span the matrix algebra."""
    table, n = triv.table, triv.n
    L = triv.field
    ident = ExactMatrix.identity(n, L)
    if not (triv.matrices[(0, 0)] == ident):
        raise CertificationFailed(("unit",), "trivialisation does not send delta_O to 1")
    for a in _indices(n):
        ma = triv.matrices[a]
        for b in _indices(n):
            c = (eps.eps(a, b) * triv.rho.value(a, b)).lift_to(L)
            target = triv.matrices[table.add_index(a, b)].scale(c)
            if not (ma * triv.matrices[b] == target):
                raise CertificationFailed(("multiplicative", a, b),
                                          "trivialisation is not multiplicative at %r" % ((a, b),))
    rows = []
    for a in _indices(n):
        m = triv.matrices[a]
        rows.append([m[i, j] for i in range(n) for j in range(n)])
    rank = ExactMatrix(rows, L).rank()
    if rank != n * n:
        raise CertificationFailed(("span", rank),
                                  "images only span a %d-dimensional space" % rank)


def trivialize(emb, eps, rho, mode="standard", matrices=None, gamma=None):
    """Build and certify a trivialisation of the algebra twisted by rho.

    mode "standard": delta_T -> M_T (needs rho trivial).
    mode "gamma": delta_T -> gamma(T) M_T with d(gamma) = rho, solving
    for gamma (and extending the field) when not supplied.
    mode "user": take the given matrices as they are.

    Every mode ends with full certification; a bad combination raises
    CertificationFailed."""
    table = emb.table
    K = table.curve.field
    if mode == "standard":
        mats = dict(emb.matrices)
        triv = Trivialisation(table, rho, K, mats, mode)
    elif mode == "gamma":
        if gamma is None:
            gamma, L = solve_gamma(table, rho)
        else:
            L = next(iter(gamma.values())).tower
        mats = {}
        for ij, m in emb.matrices.items():
            lifted = ExactMatrix([[e.lift_to(L) for e in row] for row in m.rows], L)
            mats[ij] = lifted.scale(gamma[ij])
        triv = Trivialisation(table, rho, L, mats, mode, gamma)
    elif mode == "user":
        if matrices is None:
            raise ValueError("user mode needs matrices")
        L = matrices[(0, 0)].tower
        triv = Trivialisation(table, rho, L, dict(matrices), mode, gamma)
    else:
        raise ValueError("unknown trivialisation mode %r" % mode)
    certify_trivialisation(triv, eps)
    return triv
