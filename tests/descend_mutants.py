"""Inputs that descend must refuse with CertificationFailed although it no
longer runs validate_rho or build_csa: each breaks one fact that only the
trivialisation and coboundary certificates still check.  Shared by the
in-process tests and the python -O run in tests/test_geometry.py."""

from ndescent.algebra import RhoTable, Trivialisation, trivialize
from ndescent.linalg import ExactMatrix

# the first identity each mutant breaks, as descend reports it
WITNESSES = {"swap": ("coboundary", (0, 1), (1, 0)),
             "zero": ("nonzero", (1, 0), (0, 1)),
             "unnormalised": ("multiplicative", (1, 0), (0, 0))}


def descend_mutants(data):
    """name -> (rho, trivialisation) on the curve of ``data`` (a CurveData).

    swap: sigma swaps T1 and T2, rho(a, b) = eps(sa, sb)/eps(a, b) and
    tau(delta_a) = M_{sa}.  The trivialisation certifies, but rho is an
    asymmetric cocycle, so it is no coboundary.
    zero: the trivial rho with rho(T1, T2) = 0, and the embedding's matrices.
    unnormalised: rho = 2 everywhere, a symmetric cocycle with
    rho(O, O) != 1, and the embedding's matrices."""
    table, eps, emb = data.table, data.eps, data.emb
    K = table.curve.field
    trivial = RhoTable.trivial(table)

    def swap(ij):
        return ij[1], ij[0]

    swapped = RhoTable(table, {(a, b): eps.eps(swap(a), swap(b)) / eps.eps(a, b)
                               for a, b in trivial.values})
    zero = RhoTable(table, dict(trivial.values))
    zero.values[((1, 0), (0, 1))] = K.zero()
    doubled = RhoTable(table, {k: K.from_fraction(2) for k in trivial.values})
    out = {"swap": (swapped, Trivialisation(table, swapped, K,
                                            {ij: emb.M(swap(ij)) for ij in emb.matrices},
                                            "user"))}
    for name, rho in (("zero", zero), ("unnormalised", doubled)):
        out[name] = (rho, Trivialisation(table, rho, K, dict(emb.matrices), "user"))
    return out


def changed_in_place(data):
    """(rho, trivialisation): the trivial rho and a user-mode copy of the
    embedding's matrices, certified by trivialize, then one entry of
    tau(delta_T1) changed in place.  descend must certify it again, and
    the product tau(delta_T1) tau(delta_T2) fails."""
    rho = RhoTable.trivial(data.table)
    mats = {ij: ExactMatrix(m.rows, m.tower) for ij, m in data.emb.matrices.items()}
    triv = trivialize(data.emb, data.eps, rho, mode="user", matrices=mats)
    row = triv.M((1, 0)).rows[0]
    row[1] = row[1] + 1
    return rho, triv
