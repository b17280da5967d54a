import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import ndescent
from ndescent import algebra, descent_funcs, geometry
from ndescent.fields import tower_extend
from ndescent.curve import Curve, Point
from ndescent.linalg import ExactMatrix
from ndescent import serialize as ser
from ndescent.algebra import (BadBasePoint, CertificationFailed, RhoTable, build_csa,
                              partial, rho_from_point, solve_gamma, trivialize, validate_rho)
from ndescent.cli import main
from ndescent.descent_funcs import CurveData
from ndescent.geometry import (KernelEmpty, KernelTooBig, PlaneCurveEquation,
                               RankNotOne, descend, extract_point, g_eval,
                               interpolate_plane_curve, lambda_eval,
                               plane_monomials, quadrics_for_C, quadrics_for_E)
from descend_mutants import WITNESSES, descend_mutants
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
    return PlaneCurveEquation(field, 3, monos,
                              [coeffs.get(m, field.zero()) for m in monos])


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
            assert col[i] * row[j] == m[i, j]
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
from ndescent.descent_funcs import CurveData
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


def test_descend_mutants_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    run = subprocess.run([sys.executable, "-O", "-c", _MUTANTS_UNDER_O],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "ok"


def _normalized(v):
    unit = next(e for e in v if not e.is_zero()).inverse()
    return [unit * e for e in v]


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
    # z(P + S) = D_S z(P) and the image of P + S is tau(delta_S) u: D_S z(P),
    # computed here from the Weil pairing, is == g_eval at P + S, the
    # quadrics vanish there, and the image is == lambda_eval's at P + S
    if case == "ref":
        data, rho, triv, gamma = _ref_user_twist(curve, field)
    else:
        data, rho, triv, gamma = _aux_point_twist(aux_curve, aux_field)
    drawn = []
    real = geometry.affine_sample
    monkeypatch.setattr(geometry, "affine_sample",
                        lambda *a: drawn.append(real(*a)) or drawn[-1])
    qs = quadrics_for_C(data.curve, data.table, rho)
    images = geometry.sample_images(data.curve, data.gbasis, gamma, qs, triv, 2)
    orbit = [next(images) for _ in range(9)]
    p, = drawn
    assert p.x.tower.degree == sample_degree
    zp = g_eval(data.curve, data.gbasis, gamma, p)
    for k, s in enumerate(_idx()):
        dz = [data.eps.weil(s, t) * v for t, v in zip(_idx(), zp)]
        z = g_eval(data.curve, data.gbasis, gamma, p + data.table.point(*s))
        assert dz == z
        assert all(v.is_zero() for v in qs.evaluate_all(dz))
        _, col = lambda_eval(triv, z)
        assert orbit[k] == _normalized(col)
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


def test_sample_images_rejects_a_mixed_weight_form(curve, table, eps, emb, gbasis, field):
    # z_O z_(0,1) has weight (0,1), and form 0, of group 1, has weight O
    rho, gamma, triv = _trivial_sampling(table, eps, emb)
    qs = quadrics_for_C(curve, table, rho)
    qs.forms[0][(0, 1)] = field.one()
    assert _first_witness(curve, gbasis, gamma, qs, triv) == ("quadric-weight", 0)


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
