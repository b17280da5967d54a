import hashlib
import inspect
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndescent import descent_funcs, fields, funcfield
from ndescent import serialize as ser
from ndescent.fields import tower_extend
from ndescent.curve import Point, division_polynomial, r_eval
from ndescent.linalg import ExactMatrix
from ndescent.algebra import CertificationFailed, Trivialisation, certify_trivialisation
from ndescent.descent_funcs import (CurveData, EigenspaceDimensionError, affine_sample,
                                    compute_G_basis, compute_embedding, tau_1, weil)
from weil_oracle import aux_pair, weil_pairing_oracle
from oracles import (GeneralFunction, base_change, coordinate_x, coordinate_y, derivative,
                     distinct_samples, dual_row, embedding_values, gcd_normalised, general,
                     kernel_G_basis, miller_chain, psi_ratio, translated_coords)
from test_funcfield import traced_calls


def _sample_point(curve):
    K = curve.field
    k1 = tower_extend(K, [-curve.rhs(K.from_fraction(1)), 0, 1], name="sp")
    return Point(curve.base_change(k1), k1.from_fraction(1), k1.gen())


def test_epsilon_frozen_values(eps, field):
    z = field.gen()
    half = Fraction(1, 72)
    assert eps[(1, 0), (0, 1)] == field.element([half, -half])
    assert eps[(0, 1), (1, 0)] == field.element([Fraction(-1, 36), -half])
    assert eps[(1, 1), (2, 2)] == field.element([Fraction(-1, 5184), Fraction(0)])
    for ij in [(0, 0), (1, 2), (2, 1)]:
        assert eps[(0, 0), ij] == field.one()
        assert eps[ij, (0, 0)] == field.one()


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
                assert data.eps[ij, kl].lift_to(L) == want


def test_weil_from_epsilon_quotient(eps, field):
    # the commutator of epsilon is the pairing
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    a, b = (i1, j1), (i2, j2)
                    assert eps[a, b] / eps[b, a] == weil(eps, a, b)
    assert weil(eps, (1, 0), (0, 1)) == field.gen()


def test_weil_bilinear_nondegenerate(eps, table, field):
    idx = [(i, j) for i in range(3) for j in range(3)]
    for a in idx:
        for b in idx:
            ab = table.add_index(a, b)
            for c in idx:
                assert weil(eps, ab, c) == weil(eps, a, c) * weil(eps, b, c)
            assert weil(eps, a, b) * weil(eps, b, a) == field.one()
    # nondegeneracy on the basis
    w = weil(eps, (1, 0), (0, 1))
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
                    want = weil(eps, (i2, j2), (i1, j1)).lift_to(big)
                    assert got == want


def test_g_basis_residue(gbasis, table, field):
    third = field.from_fraction(Fraction(1, 3))
    one = GeneralFunction.const(table.curve, 1)
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
                    w = weil(eps, (si, sj), (i, j))
                    assert g.evaluate(p + s) == w * base


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_g_basis_equals_kernel_oracle(which, curve, aux_curve):
    # the projected eigenvectors, normalised, are the kernel vectors
    data = CurveData.of(curve if which == "reference" else aux_curve, 3)
    want = kernel_G_basis(data.table, data.eps)
    for ij in data.table.indices:
        assert data.gbasis[ij] == want[ij]


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_g_basis_stored_form_is_reduced(which, curve, aux_curve):
    # each G_T is stored as built, with no gcd: w is psi_n made monic,
    # and (u, v, w) is already the gcd-normalised form, for the reason
    # compute_G_basis gives
    data = CurveData.of(curve if which == "reference" else aux_curve, 3)
    den = division_polynomial(data.curve, 3).monic()
    for ij in data.table.indices[1:]:
        g = data.gbasis[ij]
        assert g.w == den
        assert (g.u, g.v, g.w) == gcd_normalised(g.u, g.v, g.w)


def test_g_basis_rejects_a_weil_value_that_is_no_eigenvalue(table, eps):
    # eps(T1, T2) doubled makes e_n(T1, T2) twice a cube root of unity,
    # which no eigenvalue of L1 (of order 3) matches
    bad = dict(eps)
    bad[((1, 0), (0, 1))] = bad[((1, 0), (0, 1))] * 2
    with pytest.raises(EigenspaceDimensionError):
        compute_G_basis(table, bad)
    with pytest.raises(EigenspaceDimensionError):
        kernel_G_basis(table, bad)


def test_certificates_run_on_generators(curve, monkeypatch):
    # one certify_trivialisation makes 2 n^2 matrix products, and the
    # G-basis is projected, with no kernel computed
    data = CurveData.of(curve, 3)
    emb = data.emb  # built, and so certified once, before counting
    calls = Counter()
    for name in ("__mul__", "kernel_basis"):
        fn = getattr(ExactMatrix, name)

        def wrapper(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ExactMatrix, name, wrapper)
    certify_trivialisation(emb, data.eps)
    assert calls == {"__mul__": 2 * 3 ** 2}
    calls.clear()
    compute_G_basis(data.table, data.eps)
    assert calls["kernel_basis"] == 0


def test_translations_run_on_generators(curve, monkeypatch):
    # a fresh CurveData translates in the function field twice on L(n(O))
    # for the embedding and twice on L(n^2(O)) for the G-basis, each time
    # with a power of a Miller function as the factor, never psi_n
    # divided by its translate
    assert not hasattr(descent_funcs, "translation_operator")
    translate = descent_funcs._translated_coords
    calls = []

    def counted(table, ij, d, f):
        calls.append((ij, d, f))
        return translate(table, ij, d, f)
    monkeypatch.setattr(descent_funcs, "_translated_coords", counted)
    data = CurveData(curve, 3)
    data.gbasis, data.emb  # build both, the G-basis first
    assert Counter(d for _, d, _ in calls) == {3: 2, 9: 2}
    for ij, d, f in calls:
        assert ij in data.table.generators
        f_neg = general(data.millers[data.table.neg_index(ij)])
        want = f_neg if d == 3 else f_neg * f_neg * f_neg
        assert want.w == 1 and f == (want.u, want.v)


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_coordinate_ring_equals_function_field_oracles(which, curve, aux_curve):
    # Miller functions, translated coordinates on L(n(O)) and L(n^2(O)),
    # every M_T and eps are == to the gcd-normalising function-field
    # chains, for every T != O; on L(n^2(O)) with F_{-T}^n and with the
    # factor psi_n/(psi_n o tau_T) of the translation operator oracle
    data = CurveData.of(curve if which == "reference" else aux_curve, 3)
    table, millers, eps = data.table, data.millers, data.eps
    n, K = table.n, data.curve.field
    oracle_millers = {(0, 0): millers[(0, 0)]}
    for ij, t in zip(table.indices[1:], list(table)[1:]):
        oracle_millers[ij] = miller_chain(t, n)
        assert millers[ij] == oracle_millers[ij]
        neg = table.neg_index(ij)
        f = general(millers[neg])
        for d, g in ((n, f), (n * n, f * f * f), (n * n, psi_ratio(table, t))):
            assert g.w == 1
            assert descent_funcs._translated_coords(table, ij, d, (g.u, g.v)) == (
                translated_coords(table, ij, d, g))
        mtilde = ExactMatrix(translated_coords(table, ij, n, f), K)
        assert data.emb.M(ij) == mtilde.scale(eps[ij, neg])
    assert descent_funcs.compute_epsilon(table, oracle_millers) == eps


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_miller_table_chains_one_of_each_pair(which, curve, aux_curve, monkeypatch):
    # a Miller chain runs for the first of each pair +-T in table order,
    # (n^2 - 1)/2 in all, and every F_{-T} derived as -u + v y is == to
    # the chain's own F_{-T}
    table = CurveData.of(curve if which == "reference" else aux_curve, 3).table
    chained, real = [], descent_funcs.miller_function
    monkeypatch.setattr(descent_funcs, "miller_function",
                        lambda t, n: chained.append(t.key()) or real(t, n))
    millers = descent_funcs.compute_miller_table(table)
    assert len(chained) == (table.n ** 2 - 1) // 2
    derived = [(ij, t) for ij, t in zip(table.indices[1:], list(table)[1:])
               if t.key() not in chained]
    assert len(derived) == len(chained) and all((-t).key() in chained for _, t in derived)
    for ij, t in derived:
        f, g = millers[ij], funcfield.miller_function(t, table.n)
        assert (f.u, f.v, f.w) == (g.u, g.v, g.w)


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_miller_table_catches_an_unsigned_negation(which, curve, aux_curve, monkeypatch):
    # F_T o [-1] = u - v y has the divisor of F_{-T} but leads at O with
    # (-1)^n = -1: the Laurent check that ends a chain refuses it
    table = CurveData.of(curve if which == "reference" else aux_curve, 3).table
    source = inspect.getsource(descent_funcs.compute_miller_table)
    derived = "-out[neg].u, out[neg].v"
    assert source.count(derived) == 1
    scope = dict(vars(descent_funcs))
    exec(source.replace(derived, "out[neg].u, -out[neg].v"), scope)
    with pytest.raises(ArithmeticError, match="does not lead"):
        scope["compute_miller_table"](table)


@pytest.mark.parametrize("d, pole", [(3, True), (9, False)])
def test_translation_remainder_certifies_the_ring(table, millers, d, pole):
    # x o tau_{T1} has a double pole at -T1.  With pole, the factor is
    # F_{-T2}, which does not vanish there, so (x o tau_{T1}) F_{-T2} is
    # not in the coordinate ring; F_{-T1} vanishes to order 3 < 9 at -T1,
    # so (x o tau_{T1})^4 F_{-T1} is not either.  Each leaves a remainder
    f = millers[(0, 2) if pole else (2, 0)]
    with pytest.raises(CertificationFailed) as err:
        descent_funcs._translated_coords(table, (1, 0), d, (f.u, f.v))
    assert err.value.witness == ("translation", (1, 0))


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_curve_data_takes_no_gcd(which, curve, aux_curve):
    # every function a fresh CurveData builds is stored in the form its
    # builder fixes: no polynomial gcd runs, and neither the modules that
    # build the functions nor fields binds one
    for module in (fields, funcfield, descent_funcs):
        assert not hasattr(module, "poly_gcd")
    data = CurveData(curve if which == "reference" else aux_curve, 3)
    pkg = os.path.dirname(os.path.abspath(funcfield.__file__))
    called = {name for path, name in traced_calls(lambda: (data.gbasis, data.emb))
              if os.path.dirname(path) == pkg}
    assert "miller_function" in called
    assert not [name for name in called if "gcd" in name.lower()]


def test_certificates_miss_a_character_twist(emb, eps, table, field):
    # chi(i T1 + j T2) = zeta3^i is a character of E[n]; the twisted
    # family {chi(T) M_T} has the same products, so the generator
    # certificate passes it, and only compute_embedding's row-0 check
    # against the Miller table tells it from the embedding
    zeta = field.gen()
    twisted = Trivialisation(table, emb.rho, field,
                             {ij: emb.M(ij).scale(zeta ** ij[0]) for ij in table.indices},
                             "standard")
    certify_trivialisation(twisted, eps)


def test_embedding_rejects_a_twisted_generator(table, eps, millers, field, monkeypatch):
    # the T1 translation scaled by zeta3 twists every M_T by a character;
    # the products are certified as before, and row 0 of M_{T1} fails
    zeta = field.gen()
    translate = descent_funcs._translated_coords

    def twisted(table, ij, d, f):
        rows = translate(table, ij, d, f)
        return [[zeta * c for c in r] for r in rows] if ij == (1, 0) else rows
    monkeypatch.setattr(descent_funcs, "_translated_coords", twisted)
    with pytest.raises(CertificationFailed) as err:
        compute_embedding(table, eps, millers)
    assert err.value.witness == ("embedding", (1, 0))


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
        assert emb.M(a) * emb.M(b) == emb.M(ab).scale(eps[a, b])


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_translation_matrices_at_fresh_points(which, curve, aux_curve):
    # M_T is read off in the function field for T1 and T2 and built as
    # a product of those for every other T, with its scale certified by
    # row 0 against the Miller table; its defining properties must hold
    # at points over quadratic extensions it never saw
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
    x = coordinate_x(p.curve)
    y = coordinate_y(p.curve)
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
