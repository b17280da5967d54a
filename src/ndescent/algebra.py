"""Obstruction algebras attached to a cocycle on the rational n-torsion.

A weighting rho on pairs of torsion points (symmetric, normalized,
satisfying the cocycle identity) twists the multiplication

    delta_{T1} * delta_{T2} = eps(T1,T2) rho(T1,T2) delta_{T1+T2}

into a central simple algebra of dimension n^2.  When rho = d(gamma) is
a coboundary the algebra is trivialized by delta_T -> gamma(T) M_T.
"""

from fractions import Fraction

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

    @property
    def gamma(self):
        """(gamma, field) = solve_gamma(table, self), solved once per ==
        values on the curve (CurveData.once)."""
        return _owner(self.table).once(lambda: solve_gamma(self.table, self),
                                       "gamma", self.values)

    @staticmethod
    def trivial(table):
        one, idx = table.curve.field.one(), table.indices
        return RhoTable(table, {(a, b): one for a in idx for b in idx})


def _owner(table):
    """The CurveData that keeps the verdicts of the table's curve and n."""
    from .descent_funcs import CurveData  # that module imports this one
    return CurveData.of(table.curve, table.n)


def _zero_failure(table, c):
    """The first pair (a, b) in table order with c(a, b) = 0, or None."""
    idx = table.indices
    return next(((a, b) for a in idx for b in idx if c[(a, b)].is_zero()), None)


def _cocycle_failure(table, c):
    """The first (g, b, d), g a generator of the table and b, d in table
    order, at which c(g,b) c(g+b,d) = c(g,b+d) c(b,d) fails, or None.
    For a weighting this is the cocycle identity; for structure
    constants, associativity of the algebra.  c must be nowhere zero.

    These 2 n^4 triples imply the identity on all n^6.  In the twisted
    group algebra with delta_a delta_b = c(a,b) delta_{a+b}, the identity
    at (a, b, d) says (delta_a delta_b) delta_d = delta_a (delta_b delta_d).
    The left nucleus {x : (xy)z = x(yz) for all y, z} is a subspace, and
    it is closed under products: for x, x' in it,
    ((x x')y)z = (x(x'y))z = x((x'y)z) = x(x'(yz)) = (x x')(yz).  The
    triples checked put delta_T1 and delta_T2 in it.  As c is nowhere
    zero, delta_{iT1+jT2} is a nonzero multiple of delta_T1^i delta_T2^j
    (delta_O of delta_T1^n), so every delta_a is in the nucleus, which is
    the identity on every triple."""
    idx = table.indices
    for g in table.generators:
        for b in idx:
            gb = table.add_index(g, b)
            for d in idx:
                bd = table.add_index(b, d)
                if not (c[(g, b)] * c[(gb, d)] == c[(g, bd)] * c[(b, d)]):
                    return g, b, d
    return None


def _cocycle_once(table, c):
    """_cocycle_failure(table, c), run once per == c on the curve.  Its
    callers reach it only on a c with no zero, so a passing ("cocycle", c)
    verdict says c is nowhere zero and a cocycle."""
    return _owner(table).once(lambda: _cocycle_failure(table, c), "cocycle", c)


def _check_associative(table, c):
    """Certify structure constants c nowhere zero and associative.
    Raises CertificationFailed(("nonzero", a, b)) at the first zero, else
    ("associativity", g, b, d) at the first failing triple of
    _cocycle_failure."""
    bad = _zero_failure(table, c)
    if bad is not None:
        raise CertificationFailed(("nonzero",) + bad,
                                  "structure constant vanishes at %r" % (bad,))
    bad = _cocycle_once(table, c)
    if bad is not None:
        raise CertificationFailed(("associativity",) + bad,
                                  "structure constants are not associative at %r" % (bad,))


def _check_rho(table, vals):
    """validate_rho's checks on a table of values, in its order."""
    bad = _zero_failure(table, vals)
    if bad is not None:
        raise CertificationFailed(("nonzero",) + bad, "rho vanishes at %r" % (bad,))
    for a in table.indices:
        for b in table.indices:
            if not (vals[(a, b)] == vals[(b, a)]):
                raise CertificationFailed(("symmetry", a, b),
                                          "rho is not symmetric at %r" % ((a, b),))
    bad = _cocycle_once(table, vals)
    if bad is not None:
        raise CertificationFailed(("cocycle",) + bad, "cocycle identity fails at %r" % (bad,))


def validate_rho(table, values):
    """Check the split-torsion criterion for a weighting: all values
    nonzero, symmetric, and satisfying the cocycle identity
    rho(U,V) rho(U+V,W) = rho(U,V+W) rho(V,W).  Returns the table
    normalized so that rho(O,O) = 1.  The checks run on it once per ==
    table on the curve (CurveData.once): the scale moves no zero and keeps
    symmetry and the cocycle identity, both sides of which have degree 2.

    Raises CertificationFailed with a witness on the first violation."""
    idx = table.indices
    rho = RhoTable(table, {(a, b): values[(a, b)] for a in idx for b in idx})
    c0 = rho.values[(0, 0), (0, 0)]
    if not (c0 == 1 or c0.is_zero()):
        inv = c0.inverse()
        rho = RhoTable(table, {k: v * inv for k, v in rho.values.items()})
    _owner(table).once(lambda: _check_rho(table, rho.values), "rho", rho.values)
    # the cocycle identity at (O, O, a) gives rho(O, a) = rho(O, O) = 1
    return rho


def partial(table, alpha):
    """The coboundary d(alpha)(T1,T2) = alpha(T1) alpha(T2) / alpha(T1+T2),
    alpha a dict from table indices to FieldElements, each inverted once."""
    idx = table.indices
    inv = {}
    for k in idx:
        if alpha[k].is_zero():
            raise ZeroDivisionError("alpha vanishes at %r" % (k,))
        inv[k] = alpha[k].inverse()
    return RhoTable(table, {(u, v): alpha[u] * alpha[v] * inv[table.add_index(u, v)]
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


def _structure(table, eps, rho):
    """The structure constants c = eps rho, keyed by pairs of table indices."""
    idx = table.indices
    return {(a, b): eps[a, b] * rho.values[a, b] for a in idx for b in idx}


def build_csa(table, eps, rho):
    """Assemble the twisted algebra and certify it is central simple:
    unit, structure constants nowhere zero, associativity, center of
    dimension one, and so a nondegenerate trace form.  The center
    condition is monomial in the delta basis, so the center's dimension
    is an exact count.  Associativity is checked on the generator
    triples of _cocycle_failure, which needs c nowhere zero.

    The trace form on the regular representation: delta_a delta_b is
    c(a,b) delta_{a+b}, and left multiplication by delta_s permutes the
    basis lines with no fixed line unless s = O, where (the unit check
    having passed) it is the identity; so its trace is n^2 c(a,b) when
    b = -a and 0 otherwise, one entry per row of the Gram matrix, and c
    nowhere zero makes the form nondegenerate."""
    idx, c = table.indices, _structure(table, eps, rho)
    # unit
    for a in idx:
        if not (c[(0, 0), a] == 1 and c[a, (0, 0)] == 1):
            raise CertificationFailed(("unit", a), "delta_O is not a unit")
    _check_associative(table, c)
    # center: x commutes with every delta_U iff x_V (c(V,U) - c(U,V)) = 0
    # for every pair (U,V) separately (the products land on distinct
    # basis vectors), so the center is spanned by the delta_V with
    # c(V,U) = c(U,V) for all U
    center_dim = sum(1 for v in idx if all(c[v, u] == c[u, v] for u in idx))
    if center_dim != 1:
        raise CertificationFailed(("center", center_dim),
                                  "center has dimension %d" % center_dim)
    return CSA(table, rho, c)


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
    if not (rho.values[(0, 0), (0, 0)] == 1):
        raise ValueError("rho must be normalized to rho(O, O) = 1")
    # c_m(i) = prod_{k=1}^{i-1} rho(T_m, k T_m); the empty products are 1
    c1 = [K.one(), K.one()]
    c2 = [K.one(), K.one()]
    for i in range(2, n + 1):
        c1.append(c1[-1] * rho.values[(1, 0), (i - 1, 0)])
        c2.append(c2[-1] * rho.values[(0, 1), (0, i - 1)])
    alpha, L = root_or_extend(c1[n], n, "g1")  # c_1(n) = A_1
    beta, L = root_or_extend(c2[n].lift_to(L), n, "g2")
    gamma = {}
    apow = [L.one()]
    bpow = [L.one()]
    for _ in range(n - 1):
        apow.append(apow[-1] * alpha)
        bpow.append(bpow[-1] * beta)
    for i, j in table.indices:
        gamma[(i, j)] = apow[i] * bpow[j] / (c1[i] * c2[j] * rho.values[(i, 0), (0, j)])
    check_coboundary(table, gamma, rho)
    return gamma, L


def check_coboundary(table, gamma, rho):
    """Check d(gamma) = rho exactly on every pair of torsion points, in
    the field of gamma.  Raises CertificationFailed(("coboundary", a, b))
    at the first pair where it fails."""
    for (a, b), v in partial(table, gamma).values.items():
        if not (v == rho.values[a, b]):
            raise CertificationFailed(("coboundary", a, b),
                                      "gamma does not satisfy d(gamma) = rho")


MODES = ("standard", "gamma", "user")


class Trivialisation:
    """An isomorphism of the twisted algebra with the n x n matrices,
    given by its values matrices[ij] = tau(delta_ij) on the delta basis.
    The embedding's matrices M_T are the standard one of the untwisted
    algebra."""

    def __init__(self, table, rho, field, matrices, mode, gamma=None):
        self.table = table
        self.rho = rho
        self.field = field
        self.matrices = matrices  # dict ij -> ExactMatrix over field
        self.mode = mode
        self.gamma = gamma

    def M(self, ij):  # matrices[ij], which the library reads; perfbench/workload.py calls M
        return self.matrices[ij]


def certify_trivialisation(triv, eps):
    """Certify that the trivialisation is an algebra isomorphism onto the
    matrices: with c = eps rho, check
      - tau(delta_O) = 1;
      - c nowhere zero;
      - c(g,b) c(g+b,d) = c(g,b+d) c(b,d) for g in {T1, T2} and all b, d;
      - tau(delta_g) tau(delta_b) = c(g,b) tau(delta_{g+b}) for g in
        {T1, T2} and all b, which is 2 n^2 products;
      - tr tau(delta_a) = 0 for a != O.
    Returns c, the structure constants over the base field, as a dict
    keyed by pairs of table indices.

    Multiplicativity on all pairs follows.  By _cocycle_failure, the
    cocycle identity then holds on all triples; at (O, O, b) and
    (a, O, O) it makes c(O, b) = c(a, O) = c(O, O) =: k for all a, b.
    The product at (g, O) is tau(delta_g) = k tau(delta_g).  If k != 1,
    both tau(delta_g) are zero, and the products at (g, b) give
    c(g,b) tau(delta_{g+b}) = 0, so every tau(delta_a) is zero, against
    tau(delta_O) = 1; hence k = 1, and multiplicativity holds for a = O
    and every b.  If it holds for a and every b, then
    tau(delta_{g+a}) = c(g,a)^{-1} tau(delta_g) tau(delta_a), so
    tau(delta_{g+a}) tau(delta_b) = c(g,a)^{-1} c(a,b) c(g,a+b)
    tau(delta_{g+a+b}), and the cocycle identity at (g, a, b) turns the
    scalar into c(g+a, b).  By induction along a = i T1 + j T2 it holds
    on all pairs.  A tampered tau(delta_a) is still caught, as a is
    g + b for b = a - g.

    The span is read off the traces, as c(-b, b) is nonzero.  Suppose
    sum_a x_a tau(delta_a) = 0.  Multiplying on the left by
    tau(delta_{-b}) gives sum_a x_a c(-b, a) tau(delta_{a-b}) = 0, and on
    taking the trace only a = b survives, leaving n c(-b, b) x_b = 0, so
    x_b = 0.  Conversely, when no c(a, b) vanishes and the images span,
    the algebra is M_n and so central: each tau(delta_a) is a unit, and
    for a != O some tau(delta_u) conjugates it to c(u,a)/c(a,u) != 1
    times itself, so its trace is zero.

    A trivialisation that passes is an algebra isomorphism A (x) L = M_n(L),
    so it certifies what build_csa checks on c: delta_O is the unit
    (c(O, a) = c(a, O) = 1), A is associative, its center is one
    dimensional, and no c(a, b) is zero.

    The check on c is skipped when rho and eps hold passing cocycle
    verdicts (_cocycle_once), as a validated rho and the embedding's eps
    do: both are nowhere zero, so c is, and at each triple checked the
    product of the identities for eps and rho is the identity for c.
    certify_once keeps the verdict of the whole, reused only on == data.

    Raises CertificationFailed with witness ("unit",), ("nonzero", a, b),
    ("associativity", g, b, d), ("multiplicative", g, b) or ("span", a)
    at the first failure, in that order."""
    table, mats = triv.table, triv.matrices
    if not (mats[(0, 0)] == ExactMatrix.identity(table.n, triv.field)):
        raise CertificationFailed(("unit",), "trivialisation does not send delta_O to 1")

    idx, structure = table.indices, _structure(table, eps, triv.rho)
    owner = _owner(table)
    if not (owner.passed("cocycle", triv.rho.values) and owner.passed("cocycle", eps)):
        _check_associative(table, structure)
    for g in table.generators:
        for b in idx:
            if not (mats[g] * mats[b] == mats[table.add_index(g, b)].scale(structure[(g, b)])):
                raise CertificationFailed(("multiplicative", g, b),
                                          "trivialisation is not multiplicative at %r"
                                          % ((g, b),))
    for a in idx:
        if a != (0, 0) and not mats[a].trace().is_zero():
            raise CertificationFailed(("span", a),
                                      "span test fails at %r: a nonzero trace" % (a,))
    return structure


def certify_once(triv, eps):
    """certify_trivialisation(triv, eps) once per == field, matrices, rho
    and eps on the curve (CurveData.once): a copy of its result."""
    return dict(_owner(triv.table).once(lambda: certify_trivialisation(triv, eps),
                                        "trivialisation", triv.field, triv.matrices,
                                        triv.rho.values, eps))


def trivialize(emb, eps, rho, mode="standard", matrices=None, gamma=None):
    """Build and certify a trivialisation of the algebra twisted by rho.

    mode "standard": delta_T -> M_T (needs rho trivial); gamma is ignored.
    mode "gamma": delta_T -> gamma(T) M_T with (gamma, L) = rho.gamma
    (solve_gamma, extending the field if need be); gamma is ignored.
    mode "user": take the given matrices as they are, and carry gamma.

    Every mode ends with full certification of the matrices
    (certify_once); a bad combination raises CertificationFailed.  Each
    stored gamma is certified once: the gamma-mode rho.gamma by the
    check_coboundary in solve_gamma, and the gamma a user-mode
    trivialisation carries by check_coboundary."""
    table = emb.table
    K = table.curve.field
    if mode == "standard":
        mats = dict(emb.matrices)
        triv = Trivialisation(table, rho, K, mats, mode)
    elif mode == "gamma":
        g, L = rho.gamma
        mats = {ij: m.scale(g[ij]) for ij, m in emb.matrices.items()}
        triv = Trivialisation(table, rho, L, mats, mode, g)
    elif mode == "user":
        if matrices is None:
            raise ValueError("user mode needs matrices")
        L = matrices[(0, 0)].tower
        triv = Trivialisation(table, rho, L, dict(matrices), mode, gamma)
    else:
        raise ValueError("unknown trivialisation mode %r" % mode)
    certify_once(triv, eps)
    if mode == "user" and gamma is not None:
        check_coboundary(table, gamma, rho)
    return triv
