import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import ndescent
from ndescent import algebra, cli, descent_funcs, geometry
from ndescent.fields import tower_extend
from ndescent.curve import Curve, Point, r_eval, torsion_table
from ndescent.linalg import ExactMatrix
from ndescent import serialize as ser
from ndescent.algebra import (BadBasePoint, CertificationFailed, RhoTable, build_csa,
                              check_coboundary, partial, rho_from_point, solve_gamma, trivialize,
                              validate_rho)
from ndescent.cli import main
from ndescent.descent_funcs import CurveData, affine_sample, weil
from ndescent.geometry import (KernelEmpty, KernelTooBig, PlaneCurveEquation,
                               RankNotOne, descend, extract_point, g_eval,
                               interpolate_plane_curve, lambda_eval,
                               plane_monomials, quadrics_for_C, quadrics_for_E)
from descend_mutants import WITNESSES, changed_in_place, descend_mutants
from oracles import distinct_samples, unit_cochain, zero_matrix


def _idx():
    return [divmod(k, 3) for k in range(9)]


def _z_values(field, seed):
    rng = random.Random(seed)
    out = {}
    for ij in _idx():
        while True:
            e = field.element([Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
            if not e.is_zero():
                break
        out[ij] = e
    return out


def _samples(curve, count, seed=0):
    # independent points, each over its own single quadratic extension
    return distinct_samples(curve, 3, random.Random(seed), "q", count)


def _oracle_cubic(field):
    monos = plane_monomials(3)
    coeffs = {(3, 0, 0): field.one(),
              (1, 0, 2): field.from_fraction(Fraction(1, 432)),
              (0, 3, 0): field.from_fraction(Fraction(-1, 432))}
    return PlaneCurveEquation(field, 3, [coeffs.get(m, field.zero()) for m in monos])


def test_quadric_count_and_rank(curve, table):
    qs = quadrics_for_E(curve, table)
    assert len(qs) == 27
    assert qs.rank() == 27
    assert qs.field == curve.field
    assert len(qs.monomials()) == 45


def test_quadrics_trivial_rho_match(curve, table):
    qs1 = quadrics_for_E(curve, table)
    qs2 = quadrics_for_C(curve, table, RhoTable.trivial(table))
    assert qs1 == qs2


def test_quadrics_vanish_on_direct_images(curve, table, gbasis):
    qs = quadrics_for_E(curve, table)
    for p in _samples(curve, 3, seed=2):
        z = g_eval(p.curve, gbasis, unit_cochain(table), p)
        vals = qs.evaluate_all(z)
        assert all(v.is_zero() for v in vals)


def test_twisted_quadrics_vanish_on_twisted_images(curve, table, gbasis, field):
    z = _z_values(field, 31)
    rho = validate_rho(table, partial(table, z).values)
    qs = quadrics_for_C(curve, table, rho)
    gamma, L = solve_gamma(table, rho)
    assert L == field
    for p in _samples(curve, 2, seed=3):
        vec = g_eval(p.curve, gbasis, gamma, p)
        assert all(v.is_zero() for v in qs.evaluate_all(vec))


def test_g_eval_bad_points(curve, table, gbasis):
    with pytest.raises(BadBasePoint):
        g_eval(curve, gbasis, unit_cochain(table), Point.at_infinity(curve))
    with pytest.raises(BadBasePoint):
        g_eval(curve, gbasis, unit_cochain(table), table.t1)


def test_lambda_eval_rank_one(curve, table, eps, emb, gbasis):
    from ndescent.algebra import RhoTable
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    for p in _samples(curve, 3, seed=4):
        m, u = lambda_eval(triv, g_eval(curve, gbasis, unit_cochain(table), p))
        assert m.trace().is_zero()
        assert m.rank() == 1
        col, row = extract_point(m)
        assert col == u
        # the column is the embedded point (1 : x : y) up to scale
        assert not col[0].is_zero()
        s = col[0].inverse()
        assert col[1] * s == p.x
        assert col[2] * s == p.y
        # and the row kills it (trace zero)
        dot = None
        for u, v in zip(col, row):
            dot = u * v if dot is None else dot + u * v
        assert dot.is_zero()


def test_lambda_eval_rejects_bad_trivialisation(curve, table, eps, emb, gbasis, field):
    from ndescent.algebra import RhoTable, Trivialisation
    mats = dict(emb.matrices)
    mats[(1, 2)] = mats[(1, 2)].scale(field.from_fraction(3))
    bad = Trivialisation(table, RhoTable.trivial(table), field, mats, "user")
    p = _samples(curve, 1, seed=5)[0]
    with pytest.raises(RankNotOne):
        lambda_eval(bad, g_eval(curve, gbasis, unit_cochain(table), p))


def test_extract_point_shapes(field):
    one = field.one()
    two = field.from_fraction(2)
    m = ExactMatrix([[one, two], [two, two * two]])
    col, row = extract_point(m)
    for i in range(2):
        for j in range(2):
            assert col[i] * row[j] == m.rows[i][j]
    with pytest.raises(RankNotOne):
        extract_point(ExactMatrix.identity(2, field))
    with pytest.raises(RankNotOne):
        extract_point(zero_matrix(2, 2, field))


def test_plane_monomials():
    monos = plane_monomials(3)
    assert monos == [(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
                     (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)]
    assert all(sum(m) == 3 for m in monos)


def test_interpolate_recovers_curve_cubic(curve, field):
    pts = [[p.curve.field.one(), p.x, p.y] for p in _samples(curve, 10, seed=6)]
    cub = interpolate_plane_curve(pts, field)
    assert cub == _oracle_cubic(field)
    for p in pts:
        assert cub.evaluate(p).is_zero()


def test_interpolate_kernel_empty(field):
    rng = random.Random(9)
    pts = []
    while len(pts) < 10:
        v = [field.from_fraction(rng.randint(-40, 40)) for _ in range(3)]
        if not all(e.is_zero() for e in v):
            pts.append(v)
    with pytest.raises(KernelEmpty):
        interpolate_plane_curve(pts, field)


def test_interpolate_kernel_too_big(field):
    p = [field.one(), field.from_fraction(2), field.from_fraction(3)]
    with pytest.raises(KernelTooBig):
        interpolate_plane_curve([list(p) for _ in range(10)], field)


def test_descend_trivial_rho(curve, table, eps, emb, gbasis, field):
    rho = RhoTable.trivial(table)
    triv = trivialize(emb, eps, rho)
    out = descend(curve, 3, rho, triv, seed=0, gbasis=gbasis)
    assert out["plane_curve"] == _oracle_cubic(field)
    rep = out["report"]
    assert rep["summary"] == "all checks pass"
    assert rep["quadric_count"] == 27 and rep["quadric_rank"] == 27
    assert rep["interpolation_kernel"] == 1
    assert rep["held_out"] == 5 and rep["held_out_pass"]
    # direct images of E lie on the output cubic
    for p in _samples(curve, 2, seed=8):
        z = g_eval(p.curve, gbasis, unit_cochain(table), p)
        _, col = lambda_eval(triv, z)
        assert out["plane_curve"].evaluate(col).is_zero()


def test_descend_coboundary_rho(curve, table, eps, emb, gbasis, field):
    z = _z_values(field, 33)
    rho = validate_rho(table, partial(table, z).values)
    triv = trivialize(emb, eps, rho, mode="gamma")
    out = descend(curve, 3, rho, triv, seed=1, gbasis=gbasis)
    assert out["plane_curve"] == _oracle_cubic(field)
    assert out["report"]["summary"] == "all checks pass"
    assert out["seed"] == 1
    # the structure constants the trivialisation certified are build_csa's
    assert out["csa"].structure == build_csa(table, eps, rho).structure
    assert out["csa"].rho is rho


def test_descend_rejects_mismatched_rho(curve, table, eps, emb, gbasis, field):
    z1 = _z_values(field, 34)
    z2 = _z_values(field, 35)
    rho1 = validate_rho(table, partial(table, z1).values)
    rho2 = validate_rho(table, partial(table, z2).values)
    triv = trivialize(emb, eps, rho2, mode="gamma")
    with pytest.raises(ValueError):
        descend(curve, 3, rho1, triv, gbasis=gbasis)


def test_descend_golden_artifact(curve, table, eps, emb, tmp_path):
    # the reference artifact: same-seed output must stay byte-identical
    rho = RhoTable.trivial(table)
    out = descend(curve, 3, rho, trivialize(emb, eps, rho), seed=7)
    path = tmp_path / "golden.json"
    ser.save(str(path), ser.descent_to_json(out, curve))
    data = path.read_bytes()
    assert len(data) == 9017
    assert hashlib.sha256(data).hexdigest() == (
        "f244654ac24704fbb18352081eefd7e3bcf757d3c5bc3a1c04efef89e86b0e35")


def test_quadrics_artifacts_pinned(curve, table, field, aux_curve, aux_field):
    # quadrics_to_json of a seeded coboundary twist of the reference curve
    # and of the aux curve's rho from (7, 17), byte for byte as the two
    # group loops wrote them before the one rule by weight replaced them
    aux_table = CurveData.of(aux_curve, 3).table
    q = Point(aux_curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    cases = [(curve, table, validate_rho(table, partial(table, _z_values(field, 44)).values),
              "ab37d08b2cfed3a36b7aed081c0b4ea98205753db07e0988081af3c818a23357"),
             (aux_curve, aux_table, rho_from_point(aux_table, q),
              "939374eda163ce008a2422c82f2255835af00c12586c70af6c9d65483b7ed3f2")]
    for c, t, rho, digest in cases:
        body = ser.dumps_canonical(ser.quadrics_to_json(quadrics_for_C(c, t, rho), c, rho))
        assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_quadric_rule_is_r_at_nP(curve, table, field, gbasis):
    # rho(D) z_D1 z_D2 = r_D(nP) z_O z_W at the image of P for every
    # decomposition W = D1 + D2 with D1, D2 != O, which the forms of
    # quadrics_for_C chain by r's constants
    rho = validate_rho(table, partial(table, _z_values(field, 45)).values)
    gamma, L = rho.gamma
    p = affine_sample(curve if L == field else curve.base_change(L), 3, random.Random(5), "s")
    z = g_eval(curve, gbasis, gamma, p)
    for d1 in table.indices[1:]:
        for d2 in table.indices[1:]:
            w = table.add_index(d1, d2)
            r = r_eval(table.point(*d1), table.point(*d2), 3 * p)
            assert rho.values[d1, d2] * z[table.flat(d1)] * z[table.flat(d2)] == \
                r * z[0] * z[table.flat(w)]


def test_descend_rejects_unsupported_n(curve, table, eps, emb):
    rho = RhoTable.trivial(table)
    with pytest.raises(ValueError):
        descend(curve, 5, rho, trivialize(emb, eps, rho))


def test_descend_builds_curve_data_once(field, monkeypatch):
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("torsion_table", "compute_miller_table", "compute_epsilon"):
        counted(descent_funcs, name)
    counted(geometry, "g_eval")
    counted(geometry, "affine_sample")
    counted(geometry.QuadricSystem, "evaluate_all")
    counted(ExactMatrix, "rank")
    for name in ("validate_rho", "build_csa", "solve_gamma"):
        counted(algebra, name)
    curve = Curve(field, 0, -432)  # a fresh curve object: nothing built yet
    data = CurveData.of(curve, 3)
    assert CurveData.of(curve, 3) is data
    rho = RhoTable.trivial(data.table)
    triv = trivialize(data.emb, data.eps, rho)
    for seed in (7, 8):
        out = descend(curve, 3, rho, triv, seed=seed)
        assert out["report"]["samples"] == 15
    # one draw, one covering evaluation and one quadric check per base
    # point, two base points per descend, and none inside lambda_eval; the
    # quadric rank is certified without a rank computation, rho and the
    # algebra by the trivialisation and the coboundary, and gamma is
    # solved once for the rho of both runs
    assert calls == {"torsion_table": 1, "compute_miller_table": 1,
                     "compute_epsilon": 1, "g_eval": 4, "affine_sample": 4,
                     "evaluate_all": 4, "solve_gamma": 1}
    # a gamma-mode trivialize and a descend on the same rho solve gamma once
    z = _z_values(field, 36)
    twisted = validate_rho(data.table, partial(data.table, z).values)
    calls.clear()
    out = descend(curve, 3, twisted, trivialize(data.emb, data.eps, twisted, mode="gamma"),
                  seed=9)
    assert out["gamma"] == twisted.gamma[0]
    assert calls["solve_gamma"] == 1
    assert calls["validate_rho"] == calls["build_csa"] == 0


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_descend_certifies_rho_without_validate_rho(curve, name):
    # each mutant breaks a fact validate_rho or build_csa would catch;
    # the trivialisation and coboundary certificates must catch it instead
    rho, triv = descend_mutants(CurveData.of(curve, 3))[name]
    with pytest.raises(CertificationFailed) as exc:
        descend(curve, 3, rho, triv)
    assert exc.value.witness == WITNESSES[name]


_MUTANTS_UNDER_O = r"""
import sys
from ndescent.algebra import CertificationFailed
from ndescent.curve import Curve
from ndescent.descent_funcs import CurveData, affine_sample
from ndescent.fields import FieldTower, tower_extend
from ndescent.geometry import descend
from descend_mutants import WITNESSES, descend_mutants

if not sys.flags.optimize:
    sys.exit("run under python -O")
K = tower_extend(FieldTower.rationals(), [1, 1, 1], name="zeta3")
curve = Curve(K, 0, -432)
for name, (rho, triv) in sorted(descend_mutants(CurveData.of(curve, 3)).items()):
    try:
        descend(curve, 3, rho, triv)
    except CertificationFailed as e:
        if e.witness == WITNESSES[name]:
            continue
    sys.exit("%s: descend did not raise CertificationFailed%r" % (name, WITNESSES[name]))
print("ok")
"""


def _under_python_O(script):
    """The stripped stdout of script run by python -O, which must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout.strip()


def test_descend_mutants_under_python_O():
    assert _under_python_O(_MUTANTS_UNDER_O) == "ok"


def test_a_workload_twist_is_certified_once(field, monkeypatch):
    # a twist as perfbench's coboundary_descent runs it, on a fresh curve
    # whose table, eps and embedding are built apart from its CurveData:
    # the trivialisation that trivialize certified is == to descend's, so
    # its 2 n^2 products run once, and the cocycle identity is checked on
    # rho only, as c = eps rho inherits it from rho and the embedding's eps
    curve = Curve(field, 0, -432)
    table = torsion_table(curve, 3)
    millers = descent_funcs.compute_miller_table(table)
    eps = descent_funcs.compute_epsilon(table, millers)
    gbasis = descent_funcs.compute_G_basis(table, eps)
    emb = descent_funcs.compute_embedding(table, eps, millers)
    z = _z_values(field, 61)
    z[(0, 0)] = field.one()
    calls = Counter()
    for owner, name in ((ExactMatrix, "__mul__"), (algebra, "_cocycle_failure")):
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=getattr(owner, name):
                            calls.update([name]) or real(*a))
    rho = validate_rho(table, partial(table, z).values)
    mats = {ij: emb.M(ij).scale(z[ij]) for ij in _idx()}
    triv = trivialize(emb, eps, rho, mode="user", matrices=mats)
    descend(curve, 3, rho, triv, seed=5, gbasis=gbasis)
    assert calls == {"__mul__": 2 * 3 ** 2, "_cocycle_failure": 1}


def test_descend_recertifies_a_trivialisation_changed_in_place(curve):
    # trivialize certified the matrices; one entry changed in place
    # makes data no verdict was reached on
    rho, triv = changed_in_place(CurveData.of(curve, 3))
    with pytest.raises(CertificationFailed) as exc:
        descend(curve, 3, rho, triv)
    assert exc.value.witness == ("multiplicative", (1, 0), (0, 1))


_IN_PLACE_UNDER_O = r"""
import sys
from ndescent.algebra import CertificationFailed
from ndescent.curve import Curve
from ndescent.descent_funcs import CurveData, affine_sample
from ndescent.fields import FieldTower, tower_extend
from ndescent.geometry import descend
from descend_mutants import changed_in_place

if not sys.flags.optimize:
    sys.exit("run under python -O")
K = tower_extend(FieldTower.rationals(), [1, 1, 1], name="zeta3")
curve = Curve(K, 0, -432)
rho, triv = changed_in_place(CurveData.of(curve, 3))
try:
    descend(curve, 3, rho, triv)
except CertificationFailed as e:
    print(e.witness)
"""


def test_descend_recertifies_a_trivialisation_changed_in_place_under_python_O():
    assert _under_python_O(_IN_PLACE_UNDER_O) == "('multiplicative', (1, 0), (0, 1))"


def test_descend_solves_gamma_again_for_values_changed_in_place(curve, field):
    # rho.gamma is read, then rho.values are replaced in place by those
    # of another coboundary d(z): descend samples with the gamma of the
    # new values
    data = CurveData.of(curve, 3)
    rho = validate_rho(data.table, partial(data.table, _z_values(field, 62)).values)
    assert rho.gamma
    z = _z_values(field, 63)
    rho.values.update(validate_rho(data.table, partial(data.table, z).values).values)
    mats = {ij: data.emb.M(ij).scale(z[ij] / z[(0, 0)]) for ij in _idx()}
    out = descend(curve, 3, rho, trivialize(data.emb, data.eps, rho, mode="user",
                                            matrices=mats), seed=2)
    check_coboundary(data.table, out["gamma"], rho)


def _normalized(v):
    unit = next(e for e in v if not e.is_zero()).inverse()
    return [unit * e for e in v]


def _orbit_images(triv, u):
    # the images tau(delta_S) u of the E[n] orbit of u's base point, S in
    # table order
    return [_normalized(triv.M(s).mat_vec(u)) for s in _idx()]


def _ref_user_twist(curve, field):
    # a coboundary twist in user mode: the gamma-mode matrices conjugated
    # by a fixed invertible A, so the images are A times the gamma-mode ones
    data = CurveData.of(curve, 3)
    z = _z_values(field, 36)
    rho = validate_rho(data.table, partial(data.table, z).values)
    a = ExactMatrix([[field.from_fraction(x) for x in row]
                     for row in ([1, 1, 0], [0, 1, 2], [1, 0, 1])], field)
    a_inv = a.inverse()
    mats = {ij: a * m * a_inv
            for ij, m in trivialize(data.emb, data.eps, rho, mode="gamma").matrices.items()}
    triv = trivialize(data.emb, data.eps, rho, mode="user", matrices=mats)
    gamma, _ = solve_gamma(data.table, rho)
    return data, rho, triv, gamma


def _aux_point_twist(curve, field):
    # the twist by the point (7, 17), not a coboundary over K, in gamma mode
    data = CurveData.of(curve, 3)
    q = Point(curve, field.from_fraction(7), field.from_fraction(17))
    rho = rho_from_point(data.table, q)
    triv = trivialize(data.emb, data.eps, rho, mode="gamma")
    return data, rho, triv, triv.gamma


@pytest.mark.parametrize("case, sample_degree", [("ref", 4), ("aux", 24)])
def test_orbit_images_match_full_computation(case, sample_degree, curve, field,
                                             aux_curve, aux_field, monkeypatch):
    # the identities descend's proof rests on: z(P + S) = D_S z(P) and the
    # image of P + S is tau(delta_S) u.  D_S z(P), computed here from the
    # Weil pairing, is == g_eval at P + S, the quadrics vanish there, and
    # tau(delta_S) u is == lambda_eval's image at P + S
    if case == "ref":
        data, rho, triv, gamma = _ref_user_twist(curve, field)
    else:
        data, rho, triv, gamma = _aux_point_twist(aux_curve, aux_field)
    drawn = []
    real = geometry.affine_sample
    monkeypatch.setattr(geometry, "affine_sample",
                        lambda *a: drawn.append(real(*a)) or drawn[-1])
    qs = quadrics_for_C(data.curve, data.table, rho)
    u = next(geometry.sample_images(data.curve, data.gbasis, gamma, qs, triv, 2))
    orbit = _orbit_images(triv, u)
    p, = drawn
    assert p.x.tower.degree == sample_degree
    zp = g_eval(data.curve, data.gbasis, gamma, p)
    for k, s in enumerate(_idx()):
        dz = [weil(data.eps, s, t) * v for t, v in zip(_idx(), zp)]
        z = g_eval(data.curve, data.gbasis, gamma, p + data.table.point(*s))
        assert dz == z
        assert all(v.is_zero() for v in qs.evaluate_all(dz))
        _, col = lambda_eval(triv, z)
        assert orbit[k] == _normalized(col)
    assert orbit[0] == u
    assert len(set(map(tuple, orbit))) == 9


def _trivial_sampling(table, eps, emb):
    rho = RhoTable.trivial(table)
    gamma, _ = solve_gamma(table, rho)
    return rho, gamma, trivialize(emb, eps, rho)


def _first_witness(curve, gbasis, gamma, qs, triv):
    with pytest.raises(CertificationFailed) as exc:
        next(geometry.sample_images(curve, gbasis, gamma, qs, triv, 0))
    return exc.value.witness


def test_each_quadric_owns_a_private_monomial(curve, table, field, aux_curve, aux_field):
    # the rank certificate of quadrics_for_C: every form has a monomial
    # that no other form has, with a nonzero coefficient
    data, rho, _, _ = _aux_point_twist(aux_curve, aux_field)
    z = _z_values(field, 37)
    for qs in (quadrics_for_C(curve, table, validate_rho(table, partial(table, z).values)),
               quadrics_for_C(aux_curve, data.table, rho)):
        seen = Counter(m for f in qs.forms for m in f)
        assert all(any(seen[m] == 1 and not c.is_zero() for m, c in f.items())
                   for f in qs.forms)


@pytest.mark.parametrize("pair", [((1, 0), (2, 0)), ((1, 0), (2, 1))])
def test_quadric_rank_rejects_a_zero_owned_coefficient(curve, table, field, pair):
    # a raw rho with rho(T, -T) = 0 on a non-reference orbit (group 1) or
    # rho(D1, D2) = 0 on a non-reference decomposition of T = (0, 1) (group 2)
    values = dict(RhoTable.trivial(table).values)
    values[pair] = values[pair[::-1]] = field.zero()
    with pytest.raises(CertificationFailed) as exc:
        quadrics_for_C(curve, table, RhoTable(table, values))
    assert exc.value.witness == ("quadric-rank",)


def test_sample_images_rejects_a_form_that_misses_the_sample(curve, table, eps, emb,
                                                             gbasis, field):
    # z_O^2 has one weight, and z_O = G_O(P) is nonzero
    rho, gamma, triv = _trivial_sampling(table, eps, emb)
    qs = quadrics_for_C(curve, table, rho)
    qs.forms[5] = {(0, 0): field.one()}
    assert _first_witness(curve, gbasis, gamma, qs, triv) == ("quadric", 5)


def test_descend_skips_a_base_point_in_an_earlier_orbit(curve, table, eps, emb, field,
                                                        monkeypatch):
    # the second draw is P1 + T1, whose images would repeat those of P1:
    # it is skipped before g_eval, and a third draw takes its place
    drawn, evaluated = [], []
    real_sample, real_g_eval = geometry.affine_sample, geometry.g_eval

    def sample(*args):
        drawn.append(drawn[0] + table.t1 if len(drawn) == 1 else real_sample(*args))
        return drawn[-1]

    def g_eval_at(curve, gbasis, gamma, p):
        evaluated.append(p)
        return real_g_eval(curve, gbasis, gamma, p)
    monkeypatch.setattr(geometry, "affine_sample", sample)
    monkeypatch.setattr(geometry, "g_eval", g_eval_at)
    rho = RhoTable.trivial(table)
    out = descend(curve, 3, rho, trivialize(emb, eps, rho), seed=7)
    assert out["plane_curve"] == _oracle_cubic(field)
    assert out["report"]["held_out_pass"]
    assert len(drawn) == 3
    assert evaluated == [drawn[0], drawn[2]]


def test_descend_aux_point_rho_gamma_mode(aux_curve, aux_field, tmp_path):
    # the only path where gamma extends the tower: the samples and the
    # Segre step run over Q(zeta3, sqrt2, g1, g2) and its extensions
    data = CurveData.of(aux_curve, 3)
    q = Point(aux_curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    rho = rho_from_point(data.table, q)
    triv = trivialize(data.emb, data.eps, rho, mode="gamma")
    out = descend(aux_curve, 3, rho, triv, seed=3)
    rep = out["report"]
    assert rep["gamma_levels"] == 3
    assert rep["held_out"] == 5 and rep["held_out_pass"]
    assert out["plane_curve"].field == aux_field
    # the cubic of this twist, which is not a coboundary over K
    cubic = ser.dumps_canonical(ser.plane_to_json(out["plane_curve"])).encode()
    assert hashlib.sha256(cubic).hexdigest() == \
        "ed8bd2ab0aeddf382fd6c0b5d1aae4aba999b0ac7bf26881b0c242d522ceb8d2"
    curve_path, out_path = tmp_path / "aux.json", tmp_path / "descent.json"
    ser.save(curve_path, ser.curve_to_json(aux_curve))
    ser.save(out_path, ser.descent_to_json(out, aux_curve))
    assert main(["verify", "--curve", str(curve_path), str(out_path)]) == 0


def _user_coboundary_twist(curve, field, seed):
    # a coboundary twist rho = dz in user mode, tau(delta_T) = z(T) M_T
    data = CurveData.of(curve, 3)
    z = _z_values(field, seed)
    z[(0, 0)] = field.one()
    rho = validate_rho(data.table, partial(data.table, z).values)
    mats = {ij: data.emb.M(ij).scale(z[ij]) for ij in _idx()}
    return data, rho, trivialize(data.emb, data.eps, rho, mode="user", matrices=mats)


def _golden_twist(curve, field):
    data = CurveData.of(curve, 3)
    rho = RhoTable.trivial(data.table)
    return data, rho, trivialize(data.emb, data.eps, rho)


_PENCIL_CASES = {
    "golden": lambda c, f, ac, af: _golden_twist(c, f) + (7,),
    "user-coboundary": lambda c, f, ac, af: _user_coboundary_twist(c, f, 38) + (2,),
    "conjugated": lambda c, f, ac, af: _ref_user_twist(c, f)[:3] + (4,),
    "aux-gamma": lambda c, f, ac, af: _aux_point_twist(ac, af)[:3] + (3,),
}


@pytest.mark.parametrize("case", sorted(_PENCIL_CASES))
def test_pencil_cubic_equals_interpolation(case, curve, field, aux_curve, aux_field):
    # the cubic pinned in the pencil is == to the one interpolated through
    # 10 images of the orbits of descend's two base points: the last four
    # of the first orbit, and the first six of the second
    data, rho, triv, seed = _PENCIL_CASES[case](curve, field, aux_curve, aux_field)
    out = descend(data.curve, 3, rho, triv, seed=seed)
    images = geometry.sample_images(data.curve, data.gbasis, out["gamma"], out["quadrics"],
                                    triv, seed)
    first, second = (_orbit_images(triv, next(images)) for _ in range(2))
    want = interpolate_plane_curve(first[5:] + second[:6], data.curve.field)
    assert out["plane_curve"] == want
    assert all(c.tower == data.curve.field for c in out["plane_curve"].coeffs)


def _pencils(data):
    return sum(key[0] == "pencil" for key in data.kept)


def test_pencil_is_built_once_per_pair_of_generator_classes(field, monkeypatch):
    # tau(delta_g) is a scalar times M_g for the golden task and the
    # coboundary twists, so they share one pencil; the conjugated twist
    # has other generator classes and builds a second one
    kernels = Counter()
    real = ExactMatrix.kernel_basis
    monkeypatch.setattr(ExactMatrix, "kernel_basis",
                        lambda m: kernels.update([m.nrows]) or real(m))
    curve = Curve(field, 0, -432)  # a fresh curve object: no pencil kept yet
    data, rho, triv = _golden_twist(curve, field)
    descend(curve, 3, rho, triv, seed=7)
    for seed in (40, 41, 42):
        _, rho, triv = _user_coboundary_twist(curve, field, seed)
        descend(curve, 3, rho, triv, seed=seed)
    assert kernels == {20: 1} and _pencils(data) == 1
    _, rho, triv, _ = _ref_user_twist(curve, field)
    descend(curve, 3, rho, triv, seed=4)
    assert kernels == {20: 2} and _pencils(data) == 2


@pytest.mark.parametrize("which", ["ref", "aux"])
def test_pencil_has_dimension_two(which, curve, aux_curve):
    # the generators of the embedding fix a pencil of cubics up to their
    # determinants, and each basis cubic satisfies F o A = det(A) F
    data = CurveData.of(curve if which == "ref" else aux_curve, 3)
    mats = [data.emb.M(g) for g in data.table.generators]
    rows = [r for a in mats for r in
            (geometry._symmetric_cube(a) - ExactMatrix.identity(10, a.tower).scale(a.det())).rows]
    assert len(ExactMatrix(rows).kernel_basis()) == 2
    pencil = geometry._pencil(data, data.emb)
    assert len(pencil) == 2
    for f in pencil:
        for a in mats:
            assert geometry._symmetric_cube(a).mat_vec(f.coeffs) == [a.det() * c
                                                                     for c in f.coeffs]


def test_symmetric_cube_is_substitution(curve, field):
    # (Sym^3(A) c)(x) = F(A x) for F with coefficients c, at a few points x
    a = _ref_user_twist(curve, field)[2].M((1, 1))
    f = _oracle_cubic(field)
    g = PlaneCurveEquation(field, 3, geometry._symmetric_cube(a).mat_vec(f.coeffs))
    rng = random.Random(11)
    for _ in range(4):
        x = [field.from_fraction(rng.randint(-9, 9)) for _ in range(3)]
        assert g.evaluate(x) == f.evaluate(a.mat_vec(x))


def test_pin_cubic_refuses_a_base_point_of_the_pencil(curve, field, table):
    # every cubic of the pencil passes through the images of E[3], O's
    # (0 : 0 : 1) and T1's (1 : x(T1) : y(T1)) among them
    data = CurveData.of(curve, 3)
    pencil = geometry._pencil(data, data.emb)
    for u in ([field.zero(), field.zero(), field.one()], [field.one(), table.t1.x, table.t1.y]):
        with pytest.raises(geometry.PencilBasePoint):
            geometry._pin_cubic(pencil, u, field)


def test_plane_curve_evaluate_matches_the_monomial_sum(curve, field):
    # the evaluation that skips zero coefficients and shares powers is
    # == to the plain sum of c x1^e1 x2^e2 x3^e3, over an extension too
    f = _oracle_cubic(field)
    dense = PlaneCurveEquation(field, 3, [field.from_fraction(k - 4) * field.gen()
                                          for k in range(10)])
    for p in _samples(curve, 2, seed=12):
        pt = [p.curve.field.one() + p.x, p.x * p.y, p.y]
        for cub in (f, dense):
            want = sum((c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                        for e, c in zip(cub.monomials, cub.coeffs)), field.zero())
            assert cub.evaluate(pt) == want


def test_descend_checks_every_image_past_the_pinning_one(curve, table, eps, emb, monkeypatch):
    # the second image, moved off C, fails the held-out check
    real = geometry.sample_images

    def moved(*args):
        for k, pt in enumerate(real(*args)):
            yield [pt[0], pt[1] + 1, pt[2]] if k == 1 else pt
    monkeypatch.setattr(geometry, "sample_images", moved)
    rho = RhoTable.trivial(table)
    with pytest.raises(CertificationFailed) as exc:
        descend(curve, 3, rho, trivialize(emb, eps, rho), seed=7)
    assert exc.value.witness == ("held-out", 1)


def test_descend_takes_two_images(curve, table, eps, emb, monkeypatch):
    # one pins the cubic and one is checked on it: the rest of an image's
    # orbit would check nothing more (see descend)
    taken = []
    real = geometry.sample_images

    def counted(*args):
        for pt in real(*args):
            taken.append(pt)
            yield pt
    monkeypatch.setattr(geometry, "sample_images", counted)
    rho = RhoTable.trivial(table)
    descend(curve, 3, rho, trivialize(emb, eps, rho), seed=7)
    assert len(taken) == 2


def _base_x(monkeypatch, run):
    # the x-coordinates, as Fractions, of the base points sample_images
    # evaluates while run() runs
    xs, real = [], geometry.g_eval
    monkeypatch.setattr(geometry, "g_eval",
                        lambda c, gb, gm, p: xs.append(p.x.as_fraction()) or real(c, gb, gm, p))
    run()
    return xs


def test_descend_draws_are_pinned(curve, field, aux_curve, aux_field, monkeypatch):
    # the base points of the golden descent (seed 7) and of the aux
    # gamma-mode twist (seed 3): the draw filter keeps the sequence fixed
    _, rho, triv = _golden_twist(curve, field)
    assert _base_x(monkeypatch, lambda: descend(curve, 3, rho, triv, seed=7)) == \
        [Fraction(1, 3), Fraction(10)]
    _, rho, triv, _ = _aux_point_twist(aux_curve, aux_field)
    assert _base_x(monkeypatch, lambda: descend(aux_curve, 3, rho, triv, seed=3)) == \
        [Fraction(-10, 3), Fraction(7, 8)]


def test_verify_fresh_image_is_pinned(curve, field, tmp_path, monkeypatch):
    # the one image verify draws for the golden descent, with seed 7 + 1
    _, rho, triv = _golden_twist(curve, field)
    curve_path, out_path = tmp_path / "curve.json", tmp_path / "golden.json"
    ser.save(curve_path, ser.curve_to_json(curve))
    ser.save(out_path, ser.descent_to_json(descend(curve, 3, rho, triv, seed=7), curve))
    drawn, real = [], cli.sample_images

    def recorded(*args):
        for pt in real(*args):
            drawn.append([ser.elem_to_json(e) for e in pt])
            yield pt
    monkeypatch.setattr(cli, "sample_images", recorded)
    assert main(["verify", "--curve", str(curve_path), str(out_path)]) == 0
    assert drawn == [[["1", "0", "0", "0"], ["-39156/6889", "0", "2592/6889", "0"],
                      ["-12543948/571787", "0", "-171072/571787", "0"]]]
