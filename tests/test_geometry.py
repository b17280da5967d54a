import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndescent import descent_funcs, geometry
from ndescent.fields import tower_extend
from ndescent.curve import Curve, Point
from ndescent.linalg import ExactMatrix
from ndescent import serialize as ser
from ndescent.algebra import (BadBasePoint, RhoTable, partial, rho_from_point,
                              solve_gamma, trivialize, validate_rho)
from ndescent.cli import main
from ndescent.descent_funcs import CurveData, affine_sample
from ndescent.geometry import (KernelEmpty, KernelTooBig, PlaneCurveEquation,
                               RankNotOne, descend, extract_point, g_eval,
                               interpolate_plane_curve, lambda_eval,
                               plane_monomials, quadrics_for_C, quadrics_for_E)


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
    rng = random.Random(seed)
    used = set()
    return [affine_sample(curve, 3, rng, "q%d" % k, used) for k in range(count)]


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
        z = g_eval(p.curve, gbasis, None, p)
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
        g_eval(curve, gbasis, None, Point.at_infinity(curve))
    with pytest.raises(BadBasePoint):
        g_eval(curve, gbasis, None, table.t1)


def test_lambda_eval_rank_one(curve, table, eps, emb, gbasis):
    from ndescent.algebra import RhoTable
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    for p in _samples(curve, 3, seed=4):
        m = lambda_eval(triv, g_eval(curve, gbasis, None, p))
        assert m.trace().is_zero()
        assert m.rank() == 1
        col, row = extract_point(m)
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
        lambda_eval(bad, g_eval(curve, gbasis, None, p))


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
        extract_point(ExactMatrix.zero(2, 2, field))


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
        z = g_eval(p.curve, gbasis, None, p)
        m = lambda_eval(triv, z)
        col, _ = extract_point(m)
        assert out["plane_curve"].evaluate(col).is_zero()


def test_descend_coboundary_rho(curve, table, eps, emb, gbasis, field):
    z = _z_values(field, 33)
    rho = validate_rho(table, partial(table, z).values)
    triv = trivialize(emb, eps, rho, mode="gamma")
    out = descend(curve, 3, rho, triv, seed=1, gbasis=gbasis)
    assert out["plane_curve"] == _oracle_cubic(field)
    assert out["report"]["summary"] == "all checks pass"
    assert out["seed"] == 1


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
    curve = Curve(field, 0, -432)  # a fresh curve object: nothing built yet
    data = CurveData.of(curve, 3)
    assert CurveData.of(curve, 3) is data
    rho = RhoTable.trivial(data.table)
    triv = trivialize(data.emb, data.eps, rho)
    samples = 0
    for seed in (7, 8):
        out = descend(curve, 3, rho, triv, seed=seed)
        samples += out["report"]["samples"]
    # one covering evaluation per sampled image, none inside lambda_eval
    assert calls == {"torsion_table": 1, "compute_miller_table": 1,
                     "compute_epsilon": 1, "g_eval": samples}


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
    curve_path, out_path = tmp_path / "aux.json", tmp_path / "descent.json"
    ser.save(curve_path, ser.curve_to_json(aux_curve))
    ser.save(out_path, ser.descent_to_json(out, aux_curve))
    assert main(["verify", "--curve", str(curve_path), str(out_path)]) == 0
