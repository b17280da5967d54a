"""Acceptance gate: one test per criterion, every check exact, no
tolerances anywhere.  Each test prints a single pass line; a failed
assert is the fail line."""

import json
import random
import time
from fractions import Fraction

import pytest

from ndescent.fields import FieldTower, tower_extend
from ndescent.curve import Curve, Point, r_eval, torsion_table
from ndescent.linalg import ExactMatrix
from ndescent.descent_funcs import compute_epsilon, compute_miller_table, weil
from ndescent.algebra import (CertificationFailed, RhoTable, Trivialisation,
                              build_csa, certify_trivialisation, partial,
                              rho_from_point, solve_gamma, trivialize,
                              validate_rho)
from ndescent.geometry import (RankNotOne, descend, extract_point, g_eval,
                               interpolate_plane_curve, lambda_eval,
                               quadrics_for_C, quadrics_for_E)
from ndescent import serialize as ser
from ndescent.cli import main
from weil_oracle import aux_pair, weil_pairing_oracle
from oracles import (GeneralFunction, delta, distinct_samples, dual_row, mult, one, trd,
                     unit_cochain)


def _idx():
    return [divmod(k, 3) for k in range(9)]


def _samples(curve, count, seed):
    return distinct_samples(curve, 3, random.Random(seed), "a", count)


def _unit_z(field, seed):
    rng = random.Random(seed)
    z = {}
    for ij in _idx():
        while True:
            e = field.element([Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
            if not e.is_zero():
                break
        z[ij] = e
    z[(0, 0)] = field.one()
    return z


def test_criterion_01_torsion():
    t0 = time.monotonic()
    field = tower_extend(FieldTower.rationals(), [1, 1, 1], name="zeta3")
    curve = Curve(field, 0, -432)
    table = torsion_table(curve, 3)
    assert len(table) == 9
    seen = set()
    for p in table:
        assert p.is_infinity or (3 * p).is_infinity
        seen.add(p.key())
    assert len(seen) == 9
    eps = compute_epsilon(table, compute_miller_table(table))
    w = weil(eps, (1, 0), (0, 1))
    assert not (w == field.one())
    assert w ** 3 == field.one()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print("criterion 1 PASS: 9 torsion points, basis pairing of exact order 3 (%.2fs)" % elapsed)


def test_criterion_02_g_basis(gbasis, table, field):
    assert gbasis[(0, 0)] == GeneralFunction.const(table.curve, 1)
    third = field.from_fraction(Fraction(1, 3))
    for ij in _idx():
        if ij == (0, 0):
            continue
        assert gbasis[ij].laurent() == (-1, third)
    rng = random.Random(202)
    pairs = [(rng.choice(_idx()), rng.choice(_idx())) for _ in range(10)]
    for p in _samples(table.curve, 3, seed=203):
        q = 3 * p
        for a, b in pairs:
            lhs = gbasis[a].evaluate(p) * gbasis[b].evaluate(p)
            rhs = gbasis[table.add_index(a, b)].evaluate(p) * \
                r_eval(table.point(*a), table.point(*b), q)
            assert lhs == rhs
    print("criterion 2 PASS: G_O = 1, residues 1/3, r identity at 3 points x 10 pairs")


def test_criterion_03_quadrics(curve, table, gbasis, field):
    qs = quadrics_for_E(curve, table)
    assert len(qs) == 27
    assert qs.rank() == 27
    for p in _samples(curve, 3, seed=301):
        z = g_eval(p.curve, gbasis, unit_cochain(table), p)
        assert all(v.is_zero() for v in qs.evaluate_all(z))
    z = _unit_z(field, 302)
    rho = validate_rho(table, partial(table, z).values)
    qt = quadrics_for_C(curve, table, rho)
    assert len(qt) == 27 and qt.rank() == 27
    gamma, L = solve_gamma(table, rho)
    for p in _samples(curve, 2, seed=303):
        vec = g_eval(p.curve, gbasis, gamma, p)
        assert all(v.is_zero() for v in qt.evaluate_all(vec))
    print("criterion 3 PASS: 27 quadrics of rank 27, vanishing on direct and twisted images")


def test_criterion_04_epsilon_and_matrices(eps, emb, table, curve, field):
    r1, r2 = aux_pair(curve)
    big = r1.curve.field
    for a in _idx():
        for b in _idx():
            quot = eps[a, b] / eps[b, a]
            w = weil(eps, a, b)
            assert quot == w
            # independent Miller oracle; the library pairing is the
            # opposite orientation of f_S(D_T)/f_T(D_S)
            o = weil_pairing_oracle(table.point(*b), table.point(*a), 3, r1, r2)
            assert w.lift_to(big) == o
    assert emb.M((0, 0)) == ExactMatrix.identity(3, field)
    for ij in _idx():
        if ij != (0, 0):
            assert emb.M(ij).trace().is_zero()
    for a in _idx():
        for b in _idx():
            ab = table.add_index(a, b)
            assert emb.M(a) * emb.M(b) == emb.M(ab).scale(eps[a, b])
    rows = [[emb.M(ij).rows[i][j] for i in range(3) for j in range(3)] for ij in _idx()]
    assert ExactMatrix(rows, field).rank() == 9
    print("criterion 4 PASS: epsilon quotient is the pairing (oracle checked), M identities hold")


def test_criterion_05_tau1_and_algebra(emb, eps, table, field):
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    certify_trivialisation(triv, eps)  # multiplicativity on all 81 pairs
    csa = build_csa(table, eps, RhoTable.trivial(table))
    deltas = {ij: delta(csa, ij) for ij in _idx()}
    unit = one(csa)
    for a in _idx():
        assert mult(csa, unit, deltas[a]) == deltas[a]
        assert mult(csa, deltas[a], unit) == deltas[a]
        for b in _idx():
            ab = mult(csa, deltas[a], deltas[b])
            for c in _idx():
                left = mult(csa, ab, deltas[c])
                right = mult(csa, deltas[a], mult(csa, deltas[b], deltas[c]))
                assert left == right
    # center: both products x delta_b and delta_b x land on the same
    # basis vectors, so the commutator constraint is diagonal in a
    rows = []
    for b in _idx():
        for a in _idx():
            row = [field.zero()] * 9
            row[_idx().index(a)] = csa.structure[a, b] - csa.structure[b, a]
            rows.append(row)
    kern = ExactMatrix(rows, field).kernel_basis()
    assert len(kern) == 1
    bil = [[trd(csa, mult(csa, deltas[a], deltas[b])) for b in _idx()] for a in _idx()]
    assert ExactMatrix(bil, field).rank() == 9
    print("criterion 5 PASS: tau_1 multiplicative on 81 pairs; algebra associative, "
          "unit, center 1, trace form rank 9")


def test_criterion_06_segre_factorisation(emb, eps, table, gbasis, curve):
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    for p in _samples(curve, 3, seed=601):
        m, _ = lambda_eval(triv, g_eval(curve, gbasis, unit_cochain(table), p))
        assert m.trace().is_zero()
        assert m.rank() == 1
        # m equals lambda_E(P) = sum_{T != O} G_T(P) M_T
        direct = None
        for ij in _idx():
            if ij == (0, 0):
                continue
            term = emb.M(ij).scale(gbasis[ij].evaluate(p))
            direct = term if direct is None else direct + term
        assert m == direct
        # and factors through the point and its osculating hyperplane
        col = [p.curve.field.one(), p.x, p.y]
        row = dual_row(emb, p)
        outer = ExactMatrix([[col[i] * row[j] for j in range(3)] for i in range(3)])
        scale = None
        for i in range(3):
            for j in range(3):
                if not outer.rows[i][j].is_zero():
                    scale = m.rows[i][j] / outer.rows[i][j]
                    break
            if scale is not None:
                break
        assert scale is not None and not scale.is_zero()
        assert m == outer.scale(scale)
    print("criterion 6 PASS: Segre image is G-weighted M sum = point x osculating row, "
          "rank 1 trace 0 at 3 points")


def test_criterion_07_covering_diagram(table, gbasis, millers, curve):
    for p in _samples(curve, 3, seed=701):
        z = g_eval(p.curve, gbasis, unit_cochain(table), p)
        q = 3 * p
        for a in _idx():
            for b in _idx():
                za = z[3 * a[0] + a[1]]
                zb = z[3 * b[0] + b[1]]
                ab = table.add_index(a, b)
                zab = z[3 * ab[0] + ab[1]]
                assert za * zb / zab == r_eval(table.point(*a), table.point(*b), q)
        for ij in _idx():
            if ij == (0, 0):
                continue
            g = gbasis[ij].evaluate(p)
            assert millers[ij].evaluate(q) == g * g * g
    print("criterion 7 PASS: d(g(P)) = r(3P) on all pairs and F_T(3P) = G_T(P)^3, 3 points")


def test_criterion_08_z_twist_coherence(table, eps, field):
    for seed in (801, 802, 803):
        z = _unit_z(field, seed)
        rho = validate_rho(table, partial(table, z).values)
        twisted = build_csa(table, eps, rho)      # certification is built in
        plain = build_csa(table, eps, RhoTable.trivial(table))
        for a in _idx():
            for b in _idx():
                ab = table.add_index(a, b)
                assert twisted.structure[a, b] * z[ab] == z[a] * z[b] * plain.structure[a, b]
    print("criterion 8 PASS: 3 random z twists certify and z intertwines the products")


def test_criterion_09_end_to_end(curve, table, eps, emb, gbasis, field):
    t0 = time.monotonic()
    z = _unit_z(field, 901)
    rho = validate_rho(table, partial(table, z).values)
    mats = {ij: emb.M(ij).scale(z[ij]) for ij in _idx()}
    triv = trivialize(emb, eps, rho, mode="user", matrices=mats)
    out = descend(curve, 3, rho, triv, seed=0, gbasis=gbasis)
    cubic = out["plane_curve"]
    assert cubic.field == field
    assert not cubic.is_zero()
    assert out["report"]["interpolation_kernel"] == 1
    assert out["report"]["held_out"] == 5
    assert out["report"]["held_out_pass"]
    # rho = 1: the output cubic contains the direct images (1 : x : y)
    plain = trivialize(emb, eps, RhoTable.trivial(table))
    out1 = descend(curve, 3, RhoTable.trivial(table), plain, seed=0, gbasis=gbasis)
    for p in _samples(curve, 3, seed=902):
        col = [p.curve.field.one(), p.x, p.y]
        assert out1["plane_curve"].evaluate(col).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print("criterion 9 PASS: end-to-end descent gives one exact plane cubic (%.1fs)" % elapsed)


def test_criterion_10_point_rho_path(aux_table, aux_field):
    q = Point(aux_table.curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    rho = rho_from_point(aux_table, q)          # includes validate_rho
    eps2 = compute_epsilon(aux_table, compute_miller_table(aux_table))
    build_csa(aux_table, eps2, rho)             # certification is built in
    gamma, L = solve_gamma(aux_table, rho)
    for a in _idx():
        for b in _idx():
            ab = aux_table.add_index(a, b)
            assert gamma[a] * gamma[b] / gamma[ab] == rho.values[a, b].lift_to(L)
    print("criterion 10 PASS: point-derived rho validates, algebra certifies, "
          "d(gamma) = rho on 81 pairs")


def test_criterion_11_negative_paths(table, eps, emb, gbasis, field, curve, tmp_path):
    # tampered rho is rejected with a witness
    vals = dict(RhoTable.trivial(table).values)
    vals[((1, 0), (0, 1))] = field.from_fraction(5)
    with pytest.raises(CertificationFailed) as ei:
        validate_rho(table, vals)
    assert ei.value.witness[0] == "symmetry"
    # tampered trivialisation fails certification
    triv = trivialize(emb, eps, RhoTable.trivial(table))
    mats = dict(triv.matrices)
    mats[(2, 1)] = mats[(2, 1)].scale(field.from_fraction(7))
    bad = Trivialisation(table, triv.rho, field, mats, "user")
    with pytest.raises(CertificationFailed):
        certify_trivialisation(bad, eps)
    # and produces RankNotOne when pushed through the Segre map
    p = _samples(curve, 1, seed=1101)[0]
    with pytest.raises(RankNotOne):
        lambda_eval(bad, g_eval(curve, gbasis, unit_cochain(table), p))
    # cmd_verify exits 3 on a tampered artifact
    rhopath = tmp_path / "rho.json"
    curvepath = tmp_path / "curve.json"
    ser.save(curvepath, ser.curve_to_json(curve))
    good = validate_rho(table, partial(table, _unit_z(field, 1102)).values)
    ser.save(rhopath, ser.rho_to_json(good))
    j = json.loads(rhopath.read_text())
    j["values"]["1,0|0,1"] = ["23", "0"]
    badpath = tmp_path / "badrho.json"
    badpath.write_text(json.dumps(j))
    assert main(["verify", "--curve", str(curvepath), str(badpath)]) == 3
    print("criterion 11 PASS: tampered rho, trivialisation and artifacts are rejected")
