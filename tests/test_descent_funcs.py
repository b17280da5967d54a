import hashlib
import random
from fractions import Fraction

import pytest

from ndescent import fields
from ndescent import serialize as ser
from ndescent.fields import tower_extend
from ndescent.curve import Point, r_eval
from ndescent.funcfield import FunctionFieldElement
from ndescent.linalg import ExactMatrix
from ndescent.descent_funcs import CurveData, affine_sample, tau_1
from weil_oracle import aux_pair, weil_pairing_oracle
from oracles import base_change, derivative, distinct_samples, dual_row, embedding_values


def _sample_point(curve):
    K = curve.field
    k1 = tower_extend(K, [-curve.rhs(K.from_fraction(1)), 0, 1], name="sp")
    return Point(curve.base_change(k1), k1.from_fraction(1), k1.gen())


def test_epsilon_frozen_values(eps, field):
    z = field.gen()
    half = Fraction(1, 72)
    assert eps.eps((1, 0), (0, 1)) == field.element([half, -half])
    assert eps.eps((0, 1), (1, 0)) == field.element([Fraction(-1, 36), -half])
    assert eps.eps((1, 1), (2, 2)) == field.element([Fraction(-1, 5184), Fraction(0)])
    for ij in [(0, 0), (1, 2), (2, 1)]:
        assert eps.eps((0, 0), ij) == field.one()
        assert eps.eps(ij, (0, 0)) == field.one()


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_epsilon_against_definition(which, curve, aux_curve):
    # eps is read off one Miller value per pair; the definition
    # F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P - T1)) must give the same value
    # at points over quadratic extensions
    data = CurveData.of(curve if which == "reference" else aux_curve, 3)
    table, millers = data.table, data.millers
    for p in distinct_samples(data.curve, 3, random.Random(17), "e", 3):
        L = p.curve.field
        for k1, t1 in enumerate(table):
            q = p + (-base_change(t1, L))
            for k2 in range(9):
                ij, kl = divmod(k1, 3), divmod(k2, 3)
                want = (millers[table.add_index(ij, kl)].evaluate(p)
                        / (millers[ij].evaluate(p) * millers[kl].evaluate(q)))
                assert data.eps.eps(ij, kl).lift_to(L) == want


def test_weil_from_epsilon_quotient(eps, field):
    # the commutator of epsilon is the pairing
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    a, b = (i1, j1), (i2, j2)
                    assert eps.eps(a, b) / eps.eps(b, a) == eps.weil(a, b)
    assert eps.weil((1, 0), (0, 1)) == field.gen()


def test_weil_bilinear_nondegenerate(eps, table, field):
    idx = [(i, j) for i in range(3) for j in range(3)]
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for c in idx:
                assert eps.weil(ab, c) == eps.weil(a, c) * eps.weil(b, c)
            assert eps.weil(a, b) * eps.weil(b, a) == field.one()
    # nondegeneracy on the basis
    w = eps.weil((1, 0), (0, 1))
    assert not (w == field.one())
    assert w ** 3 == field.one()


def test_weil_against_miller_oracle(eps, table, curve):
    # independent cross-check; the library pairing is the inverse
    # orientation of f_S(D_T)/f_T(D_S)
    r1, r2 = aux_pair(curve)
    big = r1.curve.field
    z = curve.field.gen().lift_to(big)
    o = weil_pairing_oracle(table.t1, table.t2, 3, r1, r2)
    assert o == z * z
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    got = weil_pairing_oracle(table.point(i1, j1),
                                              table.point(i2, j2), 3, r1, r2)
                    want = eps.weil((i2, j2), (i1, j1)).lift_to(big)
                    assert got == want


def test_g_basis_residue(gbasis, table, field):
    third = field.from_fraction(Fraction(1, 3))
    one = FunctionFieldElement.const(table.curve, 1)
    assert gbasis[(0, 0)] == one
    for i in range(3):
        for j in range(3):
            if (i, j) == (0, 0):
                continue
            assert gbasis[(i, j)].laurent() == (-1, third)


def test_g_basis_eigenproperty(gbasis, eps, table):
    p = _sample_point(table.curve)
    for i in range(3):
        for j in range(3):
            if (i, j) == (0, 0):
                continue
            g = gbasis[(i, j)]
            base = g.evaluate(p)
            for si in range(3):
                for sj in range(3):
                    s = base_change(table.point(si, sj), p.curve.field)
                    w = eps.weil((si, sj), (i, j))
                    assert g.evaluate(p + s) == w * base


def test_g_r_identity(gbasis, table):
    # G_{T1} G_{T2} = G_{T1+T2} (r_{(T1,T2)} o [3])
    p = _sample_point(table.curve)
    q = 3 * p
    rng = random.Random(7)
    idx = [(i, j) for i in range(3) for j in range(3)]
    pairs = [(rng.choice(idx), rng.choice(idx)) for _ in range(10)]
    for a, b in pairs:
        lhs = gbasis[a].evaluate(p) * gbasis[b].evaluate(p)
        ab = table.add_index(a, b)
        rhs = gbasis[ab].evaluate(p) * r_eval(table.point(*a), table.point(*b), q)
        assert lhs == rhs


def test_embedding_matrices(emb, eps, table, field):
    assert emb.M((0, 0)) == ExactMatrix.identity(3, field)
    for i in range(3):
        for j in range(3):
            m = emb.M((i, j))
            assert m.tower == field
            if (i, j) != (0, 0):
                assert m.trace().is_zero()
    # structure constants on a few pairs
    for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((1, 1), (1, 1))]:
        ab = table.add_index(a, b)
        assert emb.M(a) * emb.M(b) == emb.M(ab).scale(eps.eps(a, b))


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_translation_matrices_at_fresh_points(which, curve, aux_curve):
    # M_T is read off in the function field; its defining properties
    # must hold at points over quadratic extensions it never saw
    data = CurveData.of(curve if which == "reference" else aux_curve, 3)
    emb = data.emb
    for p in distinct_samples(data.curve, 3, random.Random(11), "m", 3):
        assert p.curve.field.nlevels == data.curve.field.nlevels + 1
        fp = embedding_values(p.curve, 3, p)
        for ij in emb.matrices:
            m = emb.M(ij)
            t = base_change(data.table.point(*ij), p.curve.field)
            fq = embedding_values(p.curve, 3, p + t)
            mf = m.mat_vec(fp)
            # f(P+T) is parallel to M_T f(P): every 2x2 minor vanishes
            for b in range(3):
                for c in range(b + 1, 3):
                    assert fq[b] * mf[c] == fq[c] * mf[b]
            # F_T(P) (fdual_O . f(P)) = fdual_O . M_T^{-1} f(P), where
            # fdual_O = e_1 picks the constant coordinate
            assert (data.millers[ij].evaluate(p) * fp[0]
                    == m.inverse().mat_vec(fp)[0])


def test_aux_embedding_matrices_pinned(aux_curve):
    # the golden artifact pins the reference curve's M_T; this pins the
    # aux curve's, over the degree-4 field
    m = CurveData.of(aux_curve, 3).emb.matrices
    body = ser.dumps_canonical({"%d,%d" % ij: ser.matrix_to_json(m[ij]) for ij in m})
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "be76266816a208ba9e10d75df241265672d30b769fc4dcaab97a8a071372d7e7")


def test_embedding_values(curve, field, table):
    p = table.point(2, 1)
    assert embedding_values(curve, 3, p) == [field.one(), p.x, p.y]


def test_tau_1_on_delta_basis(emb, field):
    idx = [divmod(k, 3) for k in range(9)]
    for ij in idx:
        alpha = {kl: field.zero() for kl in idx}
        alpha[ij] = field.one()
        assert tau_1(emb, alpha) == emb.M(ij)
        assert tau_1(emb, {ij: field.one()}) == emb.M(ij)
    # linearity on a combination
    alpha = {ij: field.from_fraction(k + 1) for k, ij in enumerate(idx)}
    got = tau_1(emb, alpha)
    want = None
    for ij in idx:
        term = emb.M(ij).scale(alpha[ij])
        want = term if want is None else want + term
    assert got == want


def test_dual_row_osculates(emb, table):
    p = _sample_point(table.curve)
    x = FunctionFieldElement.coordinate_x(p.curve)
    y = FunctionFieldElement.coordinate_y(p.curve)
    h = dual_row(emb, p)
    form = h[0] + x * h[1] + y * h[2]
    assert form.evaluate(p).is_zero()
    assert derivative(form).evaluate(p).is_zero()


def test_affine_sample(curve):
    rng = random.Random(3)
    p = affine_sample(curve, 3, rng, "s0")
    assert not p.is_infinity
    assert p.curve.field.nlevels == curve.field.nlevels + 1
    assert not (9 * p).is_infinity  # off E[9], so off E[3] too
    q = affine_sample(p.curve, 3, rng, "s1")
    assert q.curve.field.nlevels == curve.field.nlevels + 2


def test_affine_sample_witnessed_without_factoring(curve, monkeypatch):
    # every sample of this seed needs a quadratic extension, and each new
    # level y^2 - rhs(x) was seen by roots_in_field to have no residue at
    # some prime that decides
    empty = set()
    residues = fields._residues

    def recorded(coeffs, images, l):
        out = residues(coeffs, images, l)
        if out == []:
            empty.add(coeffs)
        return out
    monkeypatch.setattr(fields, "_residues", recorded)
    points = distinct_samples(curve, 3, random.Random(0), "w", 15)
    for p in points:
        L = p.curve.field
        assert L.nlevels == curve.field.nlevels + 1
        assert L.levels[-1][1] in empty
