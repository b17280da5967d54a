import ast
import hashlib
import inspect
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndescent import cli, descent_funcs, fields, funcfield
from ndescent import serialize as ser
from ndescent.fields import Poly, tower_extend
from ndescent.curve import Curve, Point, PoleAtP, r_eval, slope
from ndescent.linalg import ExactMatrix
from ndescent.algebra import (CertificationFailed, RhoTable, Trivialisation,
                              certify_trivialisation, partial, trivialize, validate_rho)
from ndescent.descent_funcs import (CurveData, EigenspaceDimensionError, affine_sample,
                                    compute_G_basis, compute_embedding, tau_1, weil)
from ndescent.geometry import RankNotOne, descend, g_eval
from weil_oracle import aux_pair, weil_pairing_oracle
from oracles import (GeneralFunction, base_change, coordinate_x, coordinate_y, derivative,
                     distinct_samples, dual_row, embedding_values, general, kernel_G_basis,
                     miller_chain, seeded_cochain, translated_coords, unit_cochain)
from test_funcfield import traced_calls


_CURVES = {"reference": "curve", "aux": "aux_curve", "hesse": "hesse_curve"}


def _curve_data(request, which):
    return CurveData.of(request.getfixturevalue(_CURVES[which]), 3)


@pytest.fixture(scope="module")
def oracle_G(request):
    """kernel_G_basis(table, eps) of a curve of _CURVES, built on first use."""
    built = {}

    def get(which):
        if which not in built:
            data = _curve_data(request, which)
            built[which] = kernel_G_basis(data.table, data.eps)
        return built[which]
    return get


def _oracle_values(want, table, p):
    """The oracle's G_T(P) in table order."""
    return [want[ij].evaluate(p) for ij in table.indices]


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


@pytest.mark.parametrize("which", list(_CURVES))
def test_epsilon_against_definition(which, request):
    # eps is read off one Miller value per pair; the definition
    # F_{T1+T2}(P) / (F_{T1}(P) F_{T2}(P - T1)) must give the same value
    # at points over quadratic extensions
    data = _curve_data(request, which)
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


def test_g_basis_residue(oracle_gbasis, gbasis, table, field):
    # the kernel oracle's G_T has G_O = 1 and leads at O with t^{-1}/3;
    # g_eval's values are == to the oracle's
    third = field.from_fraction(Fraction(1, 3))
    assert oracle_gbasis[(0, 0)] == GeneralFunction.const(table.curve, 1)
    for ij in table.indices[1:]:
        assert oracle_gbasis[ij].laurent() == (-1, third)
    for p in distinct_samples(table.curve, 3, random.Random(23), "r", 3):
        assert g_eval(gbasis, unit_cochain(table), p) == (
            _oracle_values(oracle_gbasis, table, p))


def test_g_basis_eigenproperty(gbasis, eps, table):
    # G_T o tau_S = e_n(S, T) G_T, on g_eval's values at P and P + S
    p = _sample_point(table.curve)
    unit = unit_cochain(table)
    base = g_eval(gbasis, unit, p)
    for s in table.indices:
        z = g_eval(gbasis, unit, p + base_change(table.point(*s), p.curve.field))
        assert z == [weil(eps, s, ij) * v for ij, v in zip(table.indices, base)]


@pytest.mark.parametrize("which", list(_CURVES))
def test_g_basis_equals_kernel_oracle(which, request, oracle_G):
    # the closed form's values are those of the kernel vectors, normalised,
    # at points over quadratic extensions
    data = _curve_data(request, which)
    want = oracle_G(which)
    for p in distinct_samples(data.curve, 3, random.Random(29), "k", 3):
        assert p.curve.field.nlevels == data.curve.field.nlevels + 1
        assert g_eval(data.gbasis, unit_cochain(data.table), p) == (
            _oracle_values(want, data.table, p))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("which", ["reference", "hesse"])
def test_g_basis_with_each_power_equals_kernel_oracle(which, k, request, oracle_G,
                                                      monkeypatch):
    # H_T = 3 lead_T(k) G_T holds for every k, not only the first with
    # lead_T(k) != 0: forced on every T where lead_T(k) != 0, each power
    # gives the oracle's values.  Where lead_T(k) = 0 (on the reference
    # curve, a = 0, for some T and k = 1..4) the sum H_T itself is zero
    data = _curve_data(request, which)
    real, calls, zero_sums = descent_funcs._leading, [], {}

    def forced(chi_inv, terms):  # called for each T != O in table order
        calls.append(data.table.indices[1 + len(calls)])
        lead = fields._dot(chi_inv, terms[k])
        if lead.is_zero():
            zero_sums[calls[-1]] = k, [data.curve.field.one()] + chi_inv
            return real(chi_inv, terms)
        return k, lead
    monkeypatch.setattr(descent_funcs, "_leading", forced)
    gbasis = compute_G_basis(data.table, data.eps)
    table, psi, weights = gbasis
    assert k in {kk for kk, _ in weights.values()}
    assert bool(zero_sums) == (which == "reference" and k > 0)
    sums = table, psi, zero_sums
    want = oracle_G(which)
    for p in distinct_samples(data.curve, 3, random.Random(31), "f", 2):
        assert g_eval(gbasis, unit_cochain(data.table), p) == (
            _oracle_values(want, data.table, p))
        if zero_sums:
            assert all(v.is_zero() for v in g_eval(sums, unit_cochain(data.table), p)[1:])


def test_g_basis_rejects_a_weil_value_that_is_no_eigenvalue(table, eps):
    # eps(T1, T2) doubled makes e_n(T1, T2) twice a cube root of unity,
    # which no eigenvalue of L1 (of order 3) matches
    bad = dict(eps)
    bad[((1, 0), (0, 1))] = bad[((1, 0), (0, 1))] * 2
    with pytest.raises(EigenspaceDimensionError):
        compute_G_basis(table, bad)
    with pytest.raises(EigenspaceDimensionError):
        kernel_G_basis(table, bad)


def test_g_basis_rejects_coinciding_characters(table, eps):
    # eps made symmetric: every Weil value is 1, a cube root of unity, and
    # the nine characters coincide, so an eigenspace is no line
    bad = {(a, b): eps[min(a, b), max(a, b)] for a, b in eps}
    with pytest.raises(EigenspaceDimensionError, match="coincide"):
        compute_G_basis(table, bad)


def test_g_basis_rejects_a_zero_lead_for_every_power(table, eps, monkeypatch):
    # with every x_S^k r_S zero, no k gives lead_T(k) != 0
    real = descent_funcs._leading
    monkeypatch.setattr(descent_funcs, "_leading",
                        lambda chi_inv, terms: real(chi_inv, [[0 * e for e in row]
                                                              for row in terms]))
    with pytest.raises(EigenspaceDimensionError):
        compute_G_basis(table, eps)


@pytest.mark.parametrize("which", list(_CURVES))
def test_descend_rejects_every_doubled_weight_row(which, request):
    # the closed form carries no certificate of its own: z(P) is certified
    # at every base point by the rank-one Segre image and the quadrics, so
    # G_T doubled for any one T != O, by its weight row, makes descend raise
    data = _curve_data(request, which)
    rho = RhoTable.trivial(data.table)
    triv = trivialize(data.emb, data.eps, rho)
    descend(data.curve, 3, rho, triv, seed=7, gbasis=data.gbasis)
    table, psi, weights = data.gbasis
    for ij, (k, c) in weights.items():
        doubled = table, psi, {**weights, ij: (k, [2 * e for e in c])}
        with pytest.raises((RankNotOne, CertificationFailed)):
            descend(data.curve, 3, rho, triv, seed=7, gbasis=doubled)


def test_certificates_run_on_generators(curve, monkeypatch):
    # one certify_trivialisation makes 2 n^2 matrix products, and the
    # G-basis is a closed form, with no kernel computed
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
    # a fresh CurveData builds no matrix product: each M_T is the closed
    # form of the tangent at T, so the 2 n^2 products of data.emb are those
    # of its one certificate; the G-basis runs no Miller chain, and no
    # translation in the function field or the coordinate ring is left
    assert not any(hasattr(descent_funcs, name) for name in
                   ("translation_operator", "_translation_operator", "_orbit", "_symmetric_cube",
                    "_translated_coords", "_coords", "_exponents"))
    tangent, chain, mul = (descent_funcs._tangent_translation, descent_funcs.miller_function,
                           ExactMatrix.__mul__)
    closed, chained, products = [], [], []
    monkeypatch.setattr(descent_funcs, "_tangent_translation",
                        lambda t: closed.append(t) or tangent(t))
    monkeypatch.setattr(descent_funcs, "miller_function",
                        lambda t, n: chained.append(t) or chain(t, n))
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: products.append(a) or mul(a, b))
    data = CurveData.of(Curve(curve.field, curve.a, curve.b), 3)  # its own store of verdicts
    data.eps  # the Miller table, which the G-basis reads through eps
    chained.clear()
    data.gbasis
    assert closed == [] and chained == []
    data.emb
    assert closed == list(data.table)[1:] and len(products) == 2 * 3 ** 2


@pytest.mark.parametrize("which", list(_CURVES))
def test_coordinate_ring_equals_function_field_oracles(which, request):
    # Miller functions, every M_T and eps are == to the gcd-normalising
    # function-field chains, M_T as eps(T, -T) times the translated
    # coordinates of F_{-T} on L(n(O)), for every T != O
    data = _curve_data(request, which)
    table, millers, eps = data.table, data.millers, data.eps
    n, K = table.n, data.curve.field
    oracle_millers = {(0, 0): millers[(0, 0)]}
    for ij, t in zip(table.indices[1:], list(table)[1:]):
        oracle_millers[ij] = miller_chain(t, n)
        assert millers[ij] == oracle_millers[ij]
        neg = table.neg_index(ij)
        f = general(millers[neg])
        assert f.w == 1
        mtilde = ExactMatrix(translated_coords(table, ij, n, f), K)
        assert data.emb.M(ij) == mtilde.scale(eps[ij, neg])
    assert descent_funcs.compute_epsilon(table, oracle_millers) == eps


@pytest.mark.parametrize("k", [k for k in range(-6, 7) if k != 1])
def test_hesse_family_equals_the_oracles(k, field, tmp_path, capsys):
    # y^2 = x^3 - 27k(k^3 + 8)x + 54(k^6 - 20k^3 - 8) has rational
    # 3-torsion over Q(zeta3), and is singular only at k = 1.  On each
    # curve every F_T is == to the oracle's Miller chain, every M_T to
    # eps(T, -T) times the oracle's translated coordinates of its F_{-T},
    # and eps to compute_epsilon over the oracle's chains
    curve = Curve(field, -27 * k * (k ** 3 + 8), 54 * (k ** 6 - 20 * k ** 3 - 8))
    data = CurveData.of(curve, 3)
    table, eps = data.table, data.eps
    chains = {(0, 0): data.millers[(0, 0)]}
    for ij, t in zip(table.indices[1:], list(table)[1:]):
        chains[ij] = miller_chain(t, 3)
        assert data.millers[ij] == chains[ij]
        mtilde = ExactMatrix(translated_coords(table, ij, 3, miller_chain(-t, 3)), field)
        assert data.emb.M(ij) == mtilde.scale(eps[ij, table.neg_index(ij)])
    assert descent_funcs.compute_epsilon(table, chains) == eps
    # the Weil values are e_3(i T1 + j T2, k T1 + l T2) = e_3(T1, T2)^(il - jk),
    # so the oracle's e_3(T1, T) for every T fixes all 81 (aux_pair builds
    # its two quadratic levels on each of the 12 curves)
    e12 = weil(eps, (1, 0), (0, 1))
    for (i, j) in table.indices:
        for (m, l) in table.indices:
            assert weil(eps, (i, j), (m, l)) == e12 ** ((i * l - j * m) % 3)
    r1, r2 = aux_pair(curve)
    for ij, t in zip(table.indices, table):
        want = weil(eps, ij, (1, 0)).lift_to(r1.curve.field)
        assert weil_pairing_oracle(table.t1, t, 3, r1, r2) == want
    # g_eval is == to the kernel G-basis at 2 points over quadratic extensions
    oracle = kernel_G_basis(table, eps)
    for p in distinct_samples(curve, 3, random.Random(k), "h", 2):
        assert g_eval(data.gbasis, unit_cochain(table), p) == _oracle_values(oracle, table, p)
    # descend passes on the trivial rho and on a seeded coboundary twist,
    # whose saved artifact verify passes in-process
    rho = RhoTable.trivial(table)
    out = descend(curve, 3, rho, trivialize(data.emb, eps, rho), seed=7)
    assert out["report"]["held_out_pass"]
    z = seeded_cochain(field, 40 + k)
    rho = validate_rho(table, partial(table, z).values)
    mats = {ij: data.emb.M(ij).scale(z[ij] / z[(0, 0)]) for ij in table.indices}
    out = descend(curve, 3, rho, trivialize(data.emb, eps, rho, mode="user", matrices=mats),
                  seed=k + 10)
    paths = [str(tmp_path / "curve.json"), str(tmp_path / "descent.json")]
    ser.save(paths[0], ser.curve_to_json(curve))
    ser.save(paths[1], ser.descent_to_json(out, curve))
    capsys.readouterr()
    assert cli.main(["verify", "--curve", *paths]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_miller_table_takes_one_tangent_per_point(which, curve, aux_curve, monkeypatch):
    # miller_function runs once for every T != O, in table order, and
    # each F_T is stored as its tangent y - lam x - nu: u = -lam x - nu,
    # v = 1 and w = 1, with lam = slope(T, T) and nu = y_T - lam x_T
    table = CurveData.of(curve if which == "reference" else aux_curve, 3).table
    K = table.curve.field
    called, real = [], descent_funcs.miller_function
    monkeypatch.setattr(descent_funcs, "miller_function",
                        lambda t, n: called.append(t) or real(t, n))
    millers = descent_funcs.compute_miller_table(table)
    assert called == list(table)[1:]
    assert millers[(0, 0)].u == Poly([1], K) and millers[(0, 0)].v.is_zero()
    for ij, t in zip(table.indices[1:], called):
        lam = slope(t, t)
        f = millers[ij]
        assert (f.u, f.v, f.w) == (Poly([lam * t.x - t.y, -lam], K), Poly([1], K), Poly([1], K))


def test_library_has_no_miller_chain():
    # funcfield keeps no coordinate-ring product, exact division or
    # scaling, and compute_miller_table calls miller_function once and
    # derives no F_{-T} from a stored F_T
    tree = ast.parse(inspect.getsource(funcfield))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined and not defined & {"_ring_mul", "_exact_div", "scale"}
    body = ast.parse(inspect.getsource(descent_funcs.compute_miller_table))
    calls = [node.func.id for node in ast.walk(body)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("miller_function") == 1
    reads = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert not reads & {"u", "v", "w", "neg_index", "laurent"}


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


def _patch_tangent(monkeypatch, table, change):
    """compute_embedding's closed form, with rows -> change(ij, rows) for
    the table point ij."""
    real = descent_funcs._tangent_translation
    monkeypatch.setattr(descent_funcs, "_tangent_translation",
                        lambda t: change(table.indices[table.points.index(t)], real(t)))


def test_embedding_rejects_a_twisted_generator(table, eps, millers, field, monkeypatch):
    # the closed form twisted by chi(i T1 + j T2) = zeta3^i has the
    # products of the embedding, so the certificate passes it
    # (test_certificates_miss_a_character_twist), and row 0 of M_{T1} fails
    zeta = field.gen()
    _patch_tangent(monkeypatch, table,
                   lambda ij, rows: [[zeta ** ij[0] * c for c in r] for r in rows])
    with pytest.raises(CertificationFailed) as err:
        compute_embedding(table, eps, millers)
    assert err.value.witness == ("embedding", (1, 0))


@pytest.mark.parametrize("entry", range(9))
@pytest.mark.parametrize("target, kind", [((1, 0), "translation"), ((1, 1), "multiplicative")])
def test_embedding_rejects_every_entry_mutant(target, kind, entry, table, eps, millers,
                                              monkeypatch):
    # 1 added to any one entry of Mtilde_T is caught: in row 0 by the
    # Miller table, in the other rows of the generator T1 by the E[3]
    # check, and in those of T1 + T2 by the products of certify_once
    r, c = divmod(entry, 3)

    def mutant(ij, rows):
        if ij == target:
            rows[r][c] = rows[r][c] + 1
        return rows
    _patch_tangent(monkeypatch, table, mutant)
    with pytest.raises(CertificationFailed) as err:
        compute_embedding(table, eps, millers)
    assert err.value.witness[0] == ("embedding" if r == 0 else kind)


def test_embedding_checks_the_translations_on_e3(table, eps, millers, monkeypatch):
    # the E[3] check alone: M_{T2} with rows 1 and 2 swapped keeps row 0,
    # so the Miller table passes it, and f(O) = (0, 0, 1) goes to
    # (1, y_{T2}, x_{T2}) up to the scale, which is no multiple of f(T2)
    _patch_tangent(monkeypatch, table,
                   lambda ij, rows: [rows[0], rows[2], rows[1]] if ij == (0, 1) else rows)
    with pytest.raises(CertificationFailed) as err:
        compute_embedding(table, eps, millers)
    assert err.value.witness == ("translation", (0, 1))


def test_embedding_refuses_an_f_outside_the_span(table, eps, millers, curve):
    # F_{-T1} + x^2 has the coordinates of F_{-T1} on 1, x and y, but it is
    # not in span(1, x, y), so row 0 of M_{T1} does not certify it
    bad = dict(millers)
    bad[(2, 0)] = general(millers[(2, 0)]) + coordinate_x(curve) * coordinate_x(curve)
    with pytest.raises(CertificationFailed) as err:
        compute_embedding(table, eps, bad)
    assert err.value.witness == ("embedding", (1, 0))


def test_epsilon_refuses_a_pole_in_a_caller_table(table, millers):
    # F_{T2} over x - x(T2) has a pole at -T2, where eps(T2, T2) =
    # 1/F_{T2}(-T2) evaluates it: the pole half of the certificate
    bad = dict(millers)
    f = millers[(0, 1)]
    bad[(0, 1)] = funcfield.FunctionFieldElement(table.curve, f.u, f.v,
                                                 Poly([-table.t2.x, 1], table.curve.field))
    with pytest.raises(CertificationFailed) as err:
        descent_funcs.compute_epsilon(table, bad)
    assert err.value.witness == ("epsilon", (0, 1), (0, 1))
    assert isinstance(err.value.__context__, PoleAtP)


def test_epsilon_inverts_only_its_values(curve, monkeypatch):
    # evaluate divides by w(x) only when w(x) != 1, and every Miller
    # function has w = 1: compute_epsilon on the reference curve inverts
    # 53 times (97 when evaluate also divided by w(x) = 1), and every
    # value is == to the one of the dividing evaluate
    data = CurveData.of(Curve(curve.field, curve.a, curve.b), 3)
    table, millers = data.table, data.millers
    inverted = []
    real = fields._inv
    monkeypatch.setattr(fields, "_inv", lambda a: inverted.append(a) or real(a))
    eps = descent_funcs.compute_epsilon(table, millers)
    assert len(inverted) == 53
    monkeypatch.setattr(funcfield.FunctionFieldElement, "evaluate", lambda f, p: (
        f.u(p.x) + f.v(p.x) * p.y) / f.w(p.x))
    assert descent_funcs.compute_epsilon(table, millers) == eps
    assert len(inverted) == 53 + 97


def test_descent_funcs_imports_no_private_funcfield_name():
    # the translation matrices need no coordinate-ring arithmetic: what
    # descent_funcs imports from funcfield is public
    tree = ast.parse(inspect.getsource(descent_funcs))
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "funcfield"
             for a in node.names]
    assert names and not [name for name in names if name.startswith("_")]


def test_embedding_refuses_n_other_than_3(table, eps, millers, monkeypatch):
    monkeypatch.setattr(table, "n", 5)
    with pytest.raises(ValueError, match="n = 5"):
        compute_embedding(table, eps, millers)


def test_g_r_identity(gbasis, table):
    # G_{T1} G_{T2} = G_{T1+T2} (r_{(T1,T2)} o [3]), on g_eval's values
    p = _sample_point(table.curve)
    q = 3 * p
    z = g_eval(gbasis, unit_cochain(table), p)
    rng = random.Random(7)
    idx = [(i, j) for i in range(3) for j in range(3)]
    pairs = [(rng.choice(idx), rng.choice(idx)) for _ in range(10)]
    for a, b in pairs:
        lhs = z[table.flat(a)] * z[table.flat(b)]
        ab = table.add_index(a, b)
        rhs = z[table.flat(ab)] * r_eval(table.point(*a), table.point(*b), q)
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
    # M_T is the closed form of the tangent at T, with its scale
    # certified by row 0 against the Miller table; its defining
    # properties must hold at points over quadratic extensions it never saw
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


# sha256 over affine_sample seeds 0..59 of (x.key(), y.key(), the field's
# degree, the key of the new level's minimal polynomial), recorded with
# psi_9 tested as a polynomial, so the value form must draw the same points
_DRAWS_SHA256 = {
    "reference": "86b1c9064bc0551a49deae447ccc8eb91988d2115fc27231872f319f80ae4dc0",
    "aux": "563806cbab26e3ed98a05ae48b50bace690ca6fc7e4da49a7518ede7800f89fa",
    "hesse": "d78812f1a49f7eaa3365098034ff9e329271f6451755b2980a34158d1f3e5e89"}


@pytest.mark.parametrize("which", sorted(_DRAWS_SHA256))
def test_affine_sample_draws_are_pinned(which, request):
    # psi_9 is tested at the drawn x by value: the draws are unchanged,
    # and a fresh curve object builds no f_m past the base cases f_0..f_4
    c = request.getfixturevalue(_CURVES[which])
    fresh = Curve(c.field, c.a, c.b)
    rows = []
    for seed in range(60):
        p = affine_sample(fresh, 3, random.Random(seed), "s")
        L = p.curve.field
        rows.append((p.x.key(), p.y.key(), L.degree, tuple(e.key() for e in L.levels[-1][1])))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _DRAWS_SHA256[which]
    assert max(fresh._divpoly) == 4


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
