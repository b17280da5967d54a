import ast
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ndescent
from ndescent import algebra
from ndescent.curve import Point
from ndescent.linalg import ExactMatrix
from ndescent.algebra import (BadBasePoint, CertificationFailed, RhoTable,
                              Trivialisation, build_csa, certify_trivialisation,
                              partial, rho_from_point, solve_gamma, trivialize,
                              validate_rho)
from oracles import (certify_trivialisation_all_pairs, cocycle_failure_all_pairs, delta,
                     index_pairs, left_mult_matrix, mult, one, seeded_cochain, trd, zero_matrix)
from test_fields import PROFILE


def test_validate_trivial(table):
    rho = RhoTable.trivial(table)
    got = validate_rho(table, rho.values)
    assert all(v == 1 for v in got.values.values())
    assert got.values[(1, 2), (2, 2)] == 1


def test_rho_table_takes_rational_values(table):
    # descend certifies a rho table as it is given, so ints must be field elements
    rho = RhoTable(table, {k: 1 for k in RhoTable.trivial(table).values})
    assert rho.values == RhoTable.trivial(table).values
    assert all(v.tower == table.curve.field for v in rho.values.values())


def test_validate_rejects_zero(table):
    rho = RhoTable.trivial(table)
    vals = dict(rho.values)
    vals[((1, 0), (0, 1))] = table.curve.field.zero()
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, vals)
    assert ei.value.witness[0] == "nonzero"


def test_validate_rejects_asymmetry(table, field):
    rho = RhoTable.trivial(table)
    vals = dict(rho.values)
    vals[((1, 0), (0, 1))] = field.from_fraction(2)
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, vals)
    assert ei.value.witness[0] == "symmetry"


def test_validate_rejects_cocycle_failure(table, field):
    rho = RhoTable.trivial(table)
    vals = dict(rho.values)
    vals[((1, 0), (0, 1))] = field.from_fraction(2)
    vals[((0, 1), (1, 0))] = field.from_fraction(2)
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, vals)
    assert ei.value.witness[0] == "cocycle"


def test_validate_normalizes(table, field):
    # ints and Fractions are taken into the field, as RhoTable does
    for five in (field.from_fraction(5), 5, Fraction(5)):
        vals = {k: five for k in RhoTable.trivial(table).values}
        got = validate_rho(table, vals)
        assert got.values[(0, 0), (0, 0)] == 1
        assert all(v == 1 and v.tower == field for v in got.values.values())


def test_partial_is_coboundary(table, field):
    z = seeded_cochain(field, 20)
    raw = partial(table, z)
    for a in index_pairs():
        for b in index_pairs():
            ab = table.add_index(a, b)
            assert raw.values[a, b] == z[a] * z[b] / z[ab]
    # it passes validation after normalization
    rho = validate_rho(table, raw.values)
    assert rho.values[(0, 0), (0, 0)] == 1


def test_rho_from_point_frozen(aux_table, aux_field):
    q = Point(aux_table.curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    rho = rho_from_point(aux_table, q)
    assert rho.values[(1, 0), (0, 1)] == aux_field.element(
        [Fraction(221, 127), Fraction(102, 127), Fraction(10, 127), Fraction(200, 127)])
    assert rho.values[(1, 1), (2, 2)] == aux_field.element(
        [Fraction(7), Fraction(-6), Fraction(0), Fraction(0)])
    assert rho.values[(0, 0), (2, 2)] == 1


def test_rho_from_point_bad_base(aux_table, aux_curve):
    with pytest.raises(BadBasePoint):
        rho_from_point(aux_table, Point.at_infinity(aux_curve))
    with pytest.raises(BadBasePoint):
        rho_from_point(aux_table, aux_table.t1)


def test_rho_from_point_wrong_curve(aux_table, curve, field):
    p = Point(curve, field.from_fraction(12), field.from_fraction(36))
    with pytest.raises(BadBasePoint):
        rho_from_point(aux_table, p)


def test_csa_trivial(table, eps, field):
    csa = build_csa(table, eps, RhoTable.trivial(table))
    for a in index_pairs():
        for b in index_pairs():
            assert csa.structure[a, b] == eps[a, b]
    unit = one(csa)
    assert trd(csa, unit) == field.from_fraction(3)
    for ij in index_pairs():
        d = delta(csa, ij)
        if ij != (0, 0):
            assert trd(csa, d).is_zero()
        assert mult(csa, unit, d) == d
        assert mult(csa, d, unit) == d


def test_csa_commutative_center(table, eps):
    # rho = 1/eps makes every structure constant 1: the group algebra of
    # E[3], commutative, so its center is all nine delta lines
    rho = RhoTable(table, {(a, b): eps[a, b].inverse()
                           for a in index_pairs() for b in index_pairs()})
    with pytest.raises(CertificationFailed) as ei:
        build_csa(table, eps, rho)
    assert ei.value.witness == ("center", 9)


def test_csa_rejects_non_associative(table, eps, field):
    # the same broken weighting that validate_rho rejects: build_csa does
    # not validate rho, so its associativity check fails at the same
    # generator triple
    rho = RhoTable.trivial(table)
    rho.values[((1, 0), (0, 1))] = field.from_fraction(2)
    rho.values[((0, 1), (1, 0))] = field.from_fraction(2)
    with pytest.raises(CertificationFailed) as ei:
        build_csa(table, eps, rho)
    assert ei.value.witness == ("associativity", (1, 0), (0, 1), (0, 1))
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, rho.values)
    assert ei.value.witness == ("cocycle", (1, 0), (0, 1), (0, 1))


def test_csa_rejects_a_zero_structure_constant(table, eps, field):
    # associativity is checked on generator triples only, which needs c
    # nowhere zero
    rho = RhoTable.trivial(table)
    rho.values[((1, 1), (2, 1))] = field.zero()
    with pytest.raises(CertificationFailed) as ei:
        build_csa(table, eps, rho)
    assert ei.value.witness == ("nonzero", (1, 1), (2, 1))


def test_cocycle_check_needs_both_generators(table, field):
    # rho = 2 where both points have T2-coordinate 1: rho(T1, .) = 1, so
    # every identity on T1's rows holds, and only T2's rows fail
    rho = RhoTable(table, {(a, b): 2 if a[1] == b[1] == 1 else 1
                           for a in index_pairs() for b in index_pairs()})
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, rho.values)
    assert ei.value.witness[:2] == ("cocycle", (0, 1))
    assert cocycle_failure_all_pairs(table, rho.values) is not None


def test_csa_left_mult_matrix(table, eps, field):
    csa = build_csa(table, eps, RhoTable.trivial(table))
    rng = random.Random(4)
    x = {ij: field.from_fraction(rng.randint(-3, 3)) for ij in index_pairs()}
    y = {ij: field.from_fraction(rng.randint(-3, 3)) for ij in index_pairs()}
    m = left_mult_matrix(csa, x)
    got = m.mat_vec([y[ij] for ij in index_pairs()])
    want = mult(csa, x, y)
    assert got == [want[ij] for ij in index_pairs()]


def test_csa_twisted(table, eps, field):
    z = seeded_cochain(field, 21)
    rho = validate_rho(table, partial(table, z).values)
    csa = build_csa(table, eps, rho)
    for a in index_pairs():
        for b in index_pairs():
            assert csa.structure[a, b] == eps[a, b] * rho.values[a, b]


def test_solve_gamma_coboundary_stays_in_field(table, field):
    z = seeded_cochain(field, 22)
    rho = validate_rho(table, partial(table, z).values)
    gamma, L = solve_gamma(table, rho)
    assert L == field  # the cube roots exist already
    for a in index_pairs():
        for b in index_pairs():
            ab = table.add_index(a, b)
            assert gamma[a] * gamma[b] / gamma[ab] == rho.values[a, b]


def test_solve_gamma_extends_for_point_rho(aux_table, aux_field):
    q = Point(aux_table.curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    rho = rho_from_point(aux_table, q)
    gamma, L = solve_gamma(aux_table, rho)
    assert aux_field.is_prefix_of(L)
    for a in index_pairs():
        for b in index_pairs():
            ab = aux_table.add_index(a, b)
            assert gamma[a] * gamma[b] / gamma[ab] == rho.values[a, b].lift_to(L)


def test_trivialize_standard(emb, eps, table):
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    assert triv.mode == "standard"
    assert triv.field == table.curve.field
    for ij in index_pairs():
        assert triv.M(ij) == emb.M(ij)


def test_trivialize_gamma_mode(emb, eps, table, field):
    z = seeded_cochain(field, 23)
    rho = validate_rho(table, partial(table, z).values)
    triv = trivialize(emb, eps, rho, mode="gamma")
    assert triv.mode == "gamma"
    # gamma is rho's own, solved once and kept on the table
    assert rho.gamma is rho.gamma and triv.gamma is rho.gamma[0]
    # certify_trivialisation returns the structure constants it checked
    assert certify_trivialisation(triv, eps) == build_csa(table, eps, rho).structure
    # tau(delta_a) = gamma(a) M_a
    for ij in index_pairs():
        assert triv.M(ij) == emb.M(ij).scale(triv.gamma[ij])


def _off_by_two_gamma(table):
    # gamma = 1 except gamma(T1) = 2: d(gamma) is not the trivial rho
    K = table.curve.field
    gamma = {ij: K.one() for ij in index_pairs()}
    gamma[(1, 0)] = K.from_fraction(2)
    return gamma


def test_trivialize_checks_a_carried_gamma(emb, eps, table):
    # the matrices certify for the trivial rho, but the gamma carried
    # along with them is not a coboundary for it
    rho = RhoTable.trivial(table)
    with pytest.raises(CertificationFailed) as ei:
        trivialize(emb, eps, rho, mode="user", matrices=dict(emb.matrices),
                   gamma=_off_by_two_gamma(table))
    assert ei.value.witness == ("coboundary", (0, 1), (1, 0))
    good = {ij: table.curve.field.one() for ij in index_pairs()}
    triv = trivialize(emb, eps, rho, mode="user", matrices=dict(emb.matrices), gamma=good)
    assert triv.gamma is good


def test_trivialize_user_mode(emb, eps, table, field):
    z = seeded_cochain(field, 24)
    rho = validate_rho(table, partial(table, z).values)
    mats = {ij: emb.M(ij).scale(z[ij] / z[(0, 0)]) for ij in index_pairs()}
    triv = trivialize(emb, eps, rho, mode="user", matrices=mats)
    assert triv.mode == "user"


def test_trivialize_rejects_wrong_rho(emb, eps, table, field):
    z = seeded_cochain(field, 25)
    rho = validate_rho(table, partial(table, z).values)
    # standard matrices do not trivialize a nontrivial twist
    with pytest.raises(CertificationFailed) as ei:
        trivialize(emb, eps, rho, mode="user", matrices=dict(emb.matrices))
    assert ei.value.witness[0] == "multiplicative"


def test_certify_rejects_tampering(emb, eps, table):
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    mats = dict(triv.matrices)
    mats[(1, 0)] = mats[(1, 0)].scale(table.curve.field.from_fraction(2))
    bad = Trivialisation(table, triv.rho, triv.field, mats, "user")
    with pytest.raises(CertificationFailed):
        certify_trivialisation(bad, eps)


def test_validate_rho_runs_again_on_a_changed_value(table, field, monkeypatch):
    # == values reuse the verdict; one value changed in place is new data
    calls = []
    real = algebra._check_rho
    monkeypatch.setattr(algebra, "_check_rho", lambda *a: calls.append(a) or real(*a))
    values = partial(table, seeded_cochain(field, 64)).values
    rho = validate_rho(table, values)
    assert validate_rho(table, dict(values)).values == rho.values
    assert len(calls) == 1
    rho.values[((1, 0), (0, 1))] = rho.values[((1, 0), (0, 1))] * 2
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, rho.values)
    assert ei.value.witness == ("symmetry", (0, 1), (1, 0))
    assert len(calls) == 2


def test_a_different_eps_gets_no_reuse(emb, eps, table, field, monkeypatch):
    # the embedding's eps holds a passing cocycle verdict and the standard
    # trivialisation a passing verdict; eps with eps(T1, T2) doubled is
    # other data, so the trivialisation is certified again against it and
    # the cocycle identity of c = eps rho is checked, not inherited
    rho = RhoTable.trivial(table)
    trivialize(emb, eps, rho)
    calls = []
    real = algebra.certify_trivialisation
    monkeypatch.setattr(algebra, "certify_trivialisation",
                        lambda *a: calls.append(a) or real(*a))
    trivialize(emb, eps, rho)
    assert calls == []
    other = dict(eps)
    other[((1, 0), (0, 1))] = other[((1, 0), (0, 1))] * 2
    with pytest.raises(CertificationFailed) as ei:
        trivialize(emb, other, rho)
    assert ei.value.witness[0] == "associativity"
    assert len(calls) == 1


def _commutative(table, eps, K):
    # rho = 1/eps makes every structure constant 1: the group algebra,
    # which the identity matrices represent without spanning
    rho = RhoTable(table, {k: v.inverse() for k, v in eps.items()})
    return rho, {ij: ExactMatrix.identity(3, K) for ij in index_pairs()}


def _unit_only(table, eps, K):
    # rho vanishes off the pairs that contain O, so every product of two
    # nonunit deltas is 0, as is every nonunit image
    rho = RhoTable(table, {(a, b): K.one() if (0, 0) in (a, b) else K.zero()
                           for a in index_pairs() for b in index_pairs()})
    return rho, {ij: ExactMatrix.identity(3, K) if ij == (0, 0) else zero_matrix(3, 3, K)
                 for ij in index_pairs()}


@pytest.mark.parametrize("build, witness", [(_commutative, ("span", (0, 1))),
                                            (_unit_only, ("nonzero", (0, 1), (0, 1)))],
                         ids=["trace", "c-of-a-minus-a"])
def test_certify_rejects_multiplicative_map_that_does_not_span(build, witness, eps, table,
                                                               field):
    # unit and products hold, but the images do not span: the commutative
    # case fails on a nonzero trace, and the other on c(a, -a) = 0, which
    # the nowhere-zero check on c finds first
    rho, mats = build(table, eps, field)
    with pytest.raises(CertificationFailed) as ei:
        certify_trivialisation(Trivialisation(table, rho, field, mats, "user"), eps)
    assert ei.value.witness == witness


def _accepts(certify, *args):
    try:
        certify(*args)
    except CertificationFailed:
        return False
    return True


@settings(PROFILE, max_examples=16)
@given(st.integers(0, 2 ** 16), st.sampled_from(["none", "matrix", "rho", "zero"]),
       st.integers(0, 80))
def test_generator_certificates_agree_with_all_pairs(emb, eps, table, field, seed, kind, pos):
    # a unit twist z: rho = d(z), normalised, and tau(delta_a) = z(a)/z(O) M_a;
    # then at most one entry is tampered with: one matrix scaled, one rho
    # value off the generator rows changed, or one c(a, b) set to zero
    z = seeded_cochain(field, seed)
    rho = validate_rho(table, partial(table, z).values)
    mats = {ij: emb.M(ij).scale(z[ij] / z[(0, 0)]) for ij in index_pairs()}
    a, b = index_pairs()[pos // 9], index_pairs()[pos % 9]
    if kind == "matrix":
        mats[b] = mats[b].scale(field.from_fraction(2))
    elif kind == "rho":
        off = [(u, v) for u in index_pairs() if u not in table.generators for v in index_pairs()]
        rho.values[off[pos % len(off)]] *= 2
    elif kind == "zero":
        rho.values[(a, b)] = field.zero()
    triv = Trivialisation(table, rho, field, mats, "user")
    ok = _accepts(certify_trivialisation, triv, eps)
    assert ok == _accepts(certify_trivialisation_all_pairs, triv, eps) == (kind == "none")
    c = {k: eps[k] * v for k, v in rho.values.items()}
    on_generators = (algebra._zero_failure(table, c) is None
                     and algebra._cocycle_failure(table, c) is None)
    assert on_generators == (cocycle_failure_all_pairs(table, c) is None) == (kind != "zero"
                                                                           and kind != "rho")


def test_certify_rejects_a_map_multiplicative_along_T1_only(emb, eps, table, field):
    # tau(delta_{iT1 + jT2}) = 2^j M_{iT1 + jT2} keeps every product with
    # delta_T1, so only the products with delta_T2 can reject it
    mats = {(i, j): emb.M((i, j)).scale(field.from_fraction(2 ** j)) for i, j in index_pairs()}
    triv = Trivialisation(table, RhoTable.trivial(table), field, mats, "user")
    with pytest.raises(CertificationFailed) as ei:
        certify_trivialisation(triv, eps)
    assert ei.value.witness == ("multiplicative", (0, 1), (0, 2))
    assert not _accepts(certify_trivialisation_all_pairs, triv, eps)


def test_e_n_tables_are_read_one_way():
    # eps is a plain dict and the G-basis a plain tuple, rho and the
    # structure constants are read through .values and .structure, and a
    # matrix through .rows: no wrapper class or forwarding method is
    # left, and c = eps rho is built by one function
    pkg = os.path.dirname(os.path.abspath(ndescent.__file__))
    classes, calls, products = [], [], []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef) and node.name in ("EpsilonTable", "GBasis"):
                    classes.append((name[:-3], node.name))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("value", "eps", "c", "row", "col"):
                    calls.append((name[:-3], node.lineno, node.func.attr))
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                        and {"eps", "rho"} <= {getattr(n, "id", getattr(n, "attr", None))
                                               for n in ast.walk(node)}:
                    products.append((name[:-3], getattr(top, "name", None)))
    assert classes == [] and calls == []
    assert products == [("algebra", "_structure")]
