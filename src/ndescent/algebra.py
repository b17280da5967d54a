"""Obstruction algebras attached to a cocycle on the rational n-torsion.

A weighting rho on pairs of torsion points (symmetric, normalized,
satisfying the cocycle identity) twists the multiplication

    delta_{T1} * delta_{T2} = eps(T1,T2) rho(T1,T2) delta_{T1+T2}

into a central simple algebra of dimension n^2.  When rho = d(gamma) is
a coboundary the algebra is trivialized by delta_T -> gamma(T) M_T.
"""

from fractions import Fraction
from functools import cached_property

from .fields import root_or_extend
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
    of values keyed by pairs of table indices.  Rational values are taken
    into the curve's field."""

    def __init__(self, table, values):
        K = table.curve.field
        self.table = table
        self.values = {k: K.from_fraction(v) if isinstance(v, (int, Fraction)) else v
                       for k, v in values.items()}

    def value(self, ij, kl):
        return self.values[(ij, kl)]

    @cached_property
    def gamma(self):
        """(gamma, field) = solve_gamma(table, self), computed on first use:
        a gamma-mode trivialize and a descend on the same rho solve once."""
        return solve_gamma(self.table, self)

    @staticmethod
    def trivial(table):
        one, idx = table.curve.field.one(), table.indices
        return RhoTable(table, {(a, b): one for a in idx for b in idx})


def _cocycle_failure(table, c):
    """The first (a, b, d) in table order at which c(a,b) c(a+b,d) =
    c(a,b+d) c(b,d) fails, or None.  For a weighting this is the cocycle
    identity; for structure constants, associativity of the algebra."""
    idx = table.indices
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for d in idx:
                bd = table.add_index(b, d)
                if not (c[(a, b)] * c[(ab, d)] == c[(a, bd)] * c[(b, d)]):
                    return a, b, d
    return None


def validate_rho(table, values):
    """Check the split-torsion criterion for a weighting: all values
    nonzero, symmetric, and satisfying the cocycle identity
    rho(U,V) rho(U+V,W) = rho(U,V+W) rho(V,W).  Returns the table
    normalized so that rho(O,O) = 1.

    Raises CertificationFailed with a witness on the first violation."""
    idx = table.indices
    rho = RhoTable(table, {(a, b): values[(a, b)] for a in idx for b in idx})
    vals = rho.values
    for a in idx:
        for b in idx:
            if vals[(a, b)].is_zero():
                raise CertificationFailed(("nonzero", a, b), "rho vanishes at %r" % ((a, b),))
    for a in idx:
        for b in idx:
            if not (vals[(a, b)] == vals[(b, a)]):
                raise CertificationFailed(("symmetry", a, b),
                                          "rho is not symmetric at %r" % ((a, b),))
    bad = _cocycle_failure(table, vals)
    if bad is not None:
        raise CertificationFailed(("cocycle",) + bad, "cocycle identity fails at %r" % (bad,))
    c0 = vals[((0, 0), (0, 0))]
    if not (c0 == 1):
        inv = c0.inverse()
        rho = RhoTable(table, {k: v * inv for k, v in vals.items()})
    # the cocycle identity at (O, O, a) gives rho(O, a) = rho(O, O) = 1
    return rho


def partial(table, alpha):
    """The coboundary d(alpha)(T1,T2) = alpha(T1) alpha(T2) / alpha(T1+T2),
    alpha a dict from table indices to FieldElements."""
    idx = table.indices
    for k in idx:
        if alpha[k].is_zero():
            raise ZeroDivisionError("alpha vanishes at %r" % (k,))
    return RhoTable(table, {(u, v): alpha[u] * alpha[v] / alpha[table.add_index(u, v)]
                            for u in idx for v in idx})


def rho_from_point(table, q):
    """The weighting rho(T1,T2) = r_{(T1,T2)}(Q) for a base point Q on the
    curve over the base field, not n-torsion."""
    curve, n = table.curve, table.n
    if q.is_infinity or not (q.curve == curve):
        raise BadBasePoint("base point must be an affine point on the curve over the base field")
    if (n * q).is_infinity:
        raise BadBasePoint("base point must not be n-torsion")
    values = {}
    for a, t1 in zip(table.indices, table):
        for b, t2 in zip(table.indices, table):
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

    def c(self, a, b):
        return self.structure[(a, b)]


def build_csa(table, eps, rho):
    """Assemble the twisted algebra and certify it is central simple:
    unit, associativity on all index triples, center of dimension one,
    and nondegenerate trace form.  Both the center condition and the Gram
    matrix of the trace form are monomial in the delta basis, so the
    center's dimension and the form's rank are exact counts."""
    n, idx = table.n, table.indices
    structure = {(a, b): eps.eps(a, b) * rho.value(a, b) for a in idx for b in idx}
    A = CSA(table, rho, structure)
    # unit
    for a in idx:
        if not (A.c((0, 0), a) == 1 and A.c(a, (0, 0)) == 1):
            raise CertificationFailed(("unit", a), "delta_O is not a unit")
    # associativity via the structure constants
    bad = _cocycle_failure(table, structure)
    if bad is not None:
        raise CertificationFailed(("associativity",) + bad)
    # center: x commutes with every delta_U iff x_V (c(V,U) - c(U,V)) = 0
    # for every pair (U,V) separately (the products land on distinct
    # basis vectors), so the center is spanned by the delta_V with
    # c(V,U) = c(U,V) for all U
    center_dim = sum(1 for v in idx if all(A.c(v, u) == A.c(u, v) for u in idx))
    if center_dim != 1:
        raise CertificationFailed(("center", center_dim),
                                  "center has dimension %d" % center_dim)
    # trace form on the regular representation: delta_a delta_b is
    # c(a,b) delta_{a+b}, and left multiplication by delta_s permutes the
    # basis lines with no fixed line unless s = O, where (the unit check
    # having passed) it is the identity; so its trace is n^2 c(a,b) when
    # b = -a and 0 otherwise, one entry per row of the Gram matrix
    rank = sum(1 for a in idx if not A.c(a, table.neg_index(a)).is_zero())
    if rank != n * n:
        raise CertificationFailed(("trace-form", rank),
                                  "trace form has rank %d" % rank)
    return A


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
    if not (rho.value((0, 0), (0, 0)) == 1):
        raise ValueError("rho must be normalized to rho(O, O) = 1")
    # c_m(i) = prod_{k=1}^{i-1} rho(T_m, k T_m); the empty products are 1
    c1 = [K.one(), K.one()]
    c2 = [K.one(), K.one()]
    for i in range(2, n + 1):
        c1.append(c1[-1] * rho.value((1, 0), (i - 1, 0)))
        c2.append(c2[-1] * rho.value((0, 1), (0, i - 1)))
    alpha, L = root_or_extend(c1[n], n, "g1")  # c_1(n) = A_1
    beta, L = root_or_extend(c2[n].lift_to(L), n, "g2")
    gamma = {}
    apow = [L.one()]
    bpow = [L.one()]
    for _ in range(n - 1):
        apow.append(apow[-1] * alpha.lift_to(L))
        bpow.append(bpow[-1] * beta)
    for i, j in table.indices:
        den = (c1[i] * c2[j] * rho.value((i, 0), (0, j))).lift_to(L)
        gamma[(i, j)] = apow[i] * bpow[j] / den
    check_coboundary(table, gamma, rho)
    return gamma, L


def check_coboundary(table, gamma, rho):
    """Check d(gamma) = rho exactly on every pair of torsion points, in
    the field of gamma.  Raises CertificationFailed(("coboundary", a, b))
    at the first pair where it fails."""
    L = next(iter(gamma.values())).tower
    for (a, b), v in partial(table, gamma).values.items():
        if not (v == rho.value(a, b).lift_to(L)):
            raise CertificationFailed(("coboundary", a, b),
                                      "gamma does not satisfy d(gamma) = rho")


MODES = ("standard", "gamma", "user")


class Trivialisation:
    """An isomorphism of the twisted algebra with the n x n matrices,
    given by its values M(ij) = tau(delta_ij) on the delta basis.  The
    embedding's matrices M_T are the standard one of the untwisted
    algebra."""

    def __init__(self, table, rho, field, matrices, mode, gamma=None):
        self.table = table
        self.rho = rho
        self.field = field
        self.matrices = matrices  # dict ij -> ExactMatrix over field
        self.mode = mode
        self.gamma = gamma
        self.n = table.n

    def M(self, ij):
        return self.matrices[ij]


def certify_trivialisation(triv, eps):
    """tau(delta_O) = 1, tau(delta_a) tau(delta_b) = c(a,b) tau(delta_{a+b})
    on all pairs, where c = eps rho, and the images span the matrix algebra.
    Returns c, the structure constants over the base field, as a dict
    keyed by pairs of table indices.

    The span is read off the traces: every c(a, -a) is nonzero and
    tr tau(delta_a) = 0 for a != O.  Suppose sum_a x_a tau(delta_a) = 0.
    Multiplying on the left by tau(delta_{-b}) gives
    sum_a x_a c(-b, a) tau(delta_{a-b}) = 0, and on taking the trace only
    a = b survives, leaving n c(-b, b) x_b = 0, so x_b = 0.  Conversely,
    when no c(a, b) vanishes and the images span, the algebra is M_n and
    so central: each tau(delta_a) is a unit, and for a != O some
    tau(delta_u) conjugates it to c(u,a)/c(a,u) != 1 times itself, so its
    trace is zero.

    A trivialisation that passes is an algebra isomorphism A (x) L = M_n(L),
    so it certifies what build_csa checks on c: delta_O is the unit
    (c(O, a) = c(a, O) = 1), A is associative, its center is one
    dimensional, and every tau(delta_a) is a unit, so no c(a, b) is zero.

    Raises CertificationFailed with witness ("unit",),
    ("multiplicative", a, b) or ("span", a) at the first failure."""
    table, n, L = triv.table, triv.n, triv.field
    mats = triv.matrices
    if not (mats[(0, 0)] == ExactMatrix.identity(n, L)):
        raise CertificationFailed(("unit",), "trivialisation does not send delta_O to 1")

    idx = table.indices
    structure = {(a, b): eps.eps(a, b) * triv.rho.value(a, b) for a in idx for b in idx}
    c = {ab: v.lift_to(L) for ab, v in structure.items()}
    for a in idx:
        for b in idx:
            if not (mats[a] * mats[b] == mats[table.add_index(a, b)].scale(c[(a, b)])):
                raise CertificationFailed(("multiplicative", a, b),
                                          "trivialisation is not multiplicative at %r"
                                          % ((a, b),))
    for a in idx:
        if c[(a, table.neg_index(a))].is_zero() or (a != (0, 0)
                                                    and not mats[a].trace().is_zero()):
            raise CertificationFailed(("span", a),
                                      "span test fails at %r: c(a, -a) = 0 or a nonzero trace"
                                      % (a,))
    return structure


def trivialize(emb, eps, rho, mode="standard", matrices=None, gamma=None):
    """Build and certify a trivialisation of the algebra twisted by rho.

    mode "standard": delta_T -> M_T (needs rho trivial); gamma is ignored.
    mode "gamma": delta_T -> gamma(T) M_T with (gamma, L) = rho.gamma
    (solve_gamma, extending the field if need be); gamma is ignored.
    mode "user": take the given matrices as they are, and carry gamma.

    Every mode ends with full certification of the matrices; a bad
    combination raises CertificationFailed.  Each stored gamma is
    certified once: the gamma-mode rho.gamma by the check_coboundary in
    solve_gamma, and the gamma a user-mode trivialisation carries by
    check_coboundary."""
    table = emb.table
    K = table.curve.field
    if mode == "standard":
        mats = dict(emb.matrices)
        triv = Trivialisation(table, rho, K, mats, mode)
    elif mode == "gamma":
        g, L = rho.gamma
        mats = {}
        for ij, m in emb.matrices.items():
            lifted = ExactMatrix([[e.lift_to(L) for e in row] for row in m.rows], L)
            mats[ij] = lifted.scale(g[ij])
        triv = Trivialisation(table, rho, L, mats, mode, g)
    elif mode == "user":
        if matrices is None:
            raise ValueError("user mode needs matrices")
        L = matrices[(0, 0)].tower
        triv = Trivialisation(table, rho, L, dict(matrices), mode, gamma)
    else:
        raise ValueError("unknown trivialisation mode %r" % mode)
    certify_trivialisation(triv, eps)
    if mode == "user" and gamma is not None:
        check_coboundary(table, gamma, rho)
    return triv
