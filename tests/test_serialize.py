import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndescent.fields import FieldTower, tower_extend
from ndescent.curve import Curve, Point
from ndescent.algebra import (RhoTable, build_csa, partial, trivialize,
                              validate_rho)
from ndescent.geometry import descend, quadrics_for_C
from ndescent import serialize as ser
from oracles import fraction_elem_from_json


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


def test_canonical_dumps_stable():
    a = ser.dumps_canonical({"b": 1, "a": [1, 2]})
    b = ser.dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1}'


def test_save_load_roundtrip(tmp_path, curve):
    path = tmp_path / "curve.json"
    ser.save(path, ser.curve_to_json(curve))
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    j = ser.load(path)
    got = ser.curve_from_json(j)
    assert got == curve
    assert got.field == curve.field


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ser.ParseError):
        ser.load(p)
    p2 = tmp_path / "nokind.json"
    p2.write_text("{\"a\": 1}")
    with pytest.raises(ser.ParseError):
        ser.load(p2)


def test_tower_roundtrip(field):
    L = tower_extend(field, [-2, 0, 1], name="sqrt2")
    M = tower_extend(L, [L.gen() * (-1), 0, 0, 1], name="crt")
    j = ser.tower_to_json(M)
    back = ser.tower_from_json(j)
    assert back == M
    e = M.gen() + L.gen().lift_to(M) * 2
    assert ser.elem_from_json(back, ser.elem_to_json(e)) == e


def test_two_level_tower_json_is_identical_after_roundtrip(aux_field):
    j = ser.tower_to_json(aux_field)
    assert j == [{"name": "zeta3", "minpoly": ["1", "1", "1"]},
                 {"name": "sqrt2", "minpoly": [["-2", "0"], ["0", "0"], ["1", "0"]]}]
    back = ser.tower_from_json(json.loads(ser.dumps_canonical(j)))
    assert ser.dumps_canonical(ser.tower_to_json(back)) == ser.dumps_canonical(j)
    e = aux_field.element([Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7)])
    ej = ser.elem_to_json(e)
    assert ser.elem_to_json(ser.elem_from_json(back, ej)) == ej == ["1/3", "-2", "0", "5/7"]


def test_elem_json_is_flat_strings(field):
    e = field.element([Fraction(1, 3), Fraction(-7)])
    assert ser.elem_to_json(e) == ["1/3", "-7"]
    with pytest.raises(ser.ParseError):
        ser.elem_from_json(field, ["1/3"])


_THIRTY_DIGITS = "-" + "1234567890" * 3


@pytest.mark.parametrize("s", ["0", "-0", "007", "2/4", "-3/6", _THIRTY_DIGITS])
def test_decoder_accepts_what_fraction_reads(field, s):
    # one pass over the integers of each string decodes == to one Fraction
    # per coordinate: the same coordinates over the same lowest denominator
    for j in ([s, "5/6"], ["-7/4", s]):
        assert ser.elem_from_json(field, j) == fraction_elem_from_json(field, j)


@pytest.mark.parametrize("s", ["1/0", "+1", "1/-2", "", "/2", "1/", " 1", "1e3", "9" * 5000,
                               1, None],
                         ids=["zero-den", "plus", "neg-den", "empty", "no-num", "no-den",
                              "space", "exponent", "5000-digits", "int", "none"])
def test_decoder_rejects_what_fraction_rejects(field, s):
    for decode in (ser.elem_from_json, fraction_elem_from_json):
        with pytest.raises(ser.ParseError):
            decode(field, ["1", s])


_ZETA3 = tower_extend(FieldTower.rationals(), [1, 1, 1], name="zeta3")
_AUX = tower_extend(_ZETA3, [-2, 0, 1], name="sqrt2")
_COORDS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                                                     st.integers(1, 10 ** 12)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from([_ZETA3, _AUX]).flatmap(
    lambda K: st.tuples(st.just(K), st.lists(_COORDS, min_size=K.degree, max_size=K.degree))))
def test_elem_json_round_trip(args):
    # the encoder writes str(Fraction) of each coordinate, and the decoder
    # reads it back to the same element
    K, coords = args
    e = K.element(coords)
    assert ser.elem_to_json(e) == [str(c) for c in e.flatten()]
    assert ser.elem_from_json(K, ser.elem_to_json(e)) == e


def test_curve_hash_detects_mismatch(curve, field):
    other = Curve(field, 0, -54)
    j = ser.curve_to_json(curve)
    j2 = dict(j)
    j2["hash"] = ser.curve_hash(other)
    with pytest.raises(ser.ParseError):
        ser.curve_from_json(j2)


def test_torsion_roundtrip(table, curve):
    j = ser.torsion_to_json(table)
    assert j["kind"] == "torsion"
    back = ser.torsion_from_json(j, curve)
    for i in range(3):
        for jj in range(3):
            assert back.point(i, jj) == table.point(i, jj)


def test_torsion_rejects_other_curve(table, field):
    other = Curve(field, 0, -54)
    j = ser.torsion_to_json(table)
    with pytest.raises(ser.ParseError):
        ser.torsion_from_json(j, other)


def test_point_roundtrip_and_guard(curve, field, table):
    p = table.point(2, 1)
    j = ser.point_to_json(p)
    assert ser.point_from_json(j, curve) == p
    tampered = json.loads(json.dumps(j))
    tampered["x"] = ["1", "0"]
    with pytest.raises(ser.ParseError):
        ser.point_from_json(tampered, curve)
    assert ser.point_file_from_json(j, curve) == p


def test_rho_roundtrip(table, field):
    z = _z_values(field, 41)
    rho = validate_rho(table, partial(table, z).values)
    j = ser.rho_to_json(rho)
    back = ser.rho_from_json(j, table)
    assert back.values == rho.values
    j2 = json.loads(json.dumps(j))
    del j2["values"][next(iter(j2["values"]))]
    with pytest.raises(ser.ParseError):
        ser.rho_from_json(j2, table)


def test_csa_roundtrip(table, eps, field):
    z = _z_values(field, 42)
    rho = validate_rho(table, partial(table, z).values)
    csa = build_csa(table, eps, rho)
    j = ser.csa_to_json(csa)
    back = ser.csa_from_json(j, table)
    for a in _idx():
        for b in _idx():
            assert back.structure[a, b] == csa.structure[a, b]
    assert back.rho.values == rho.values


def test_triv_roundtrip_all_modes(table, eps, emb, field):
    trivial = RhoTable.trivial(table)
    t1 = trivialize(emb, eps, trivial)
    z = _z_values(field, 43)
    rho = validate_rho(table, partial(table, z).values)
    t2 = trivialize(emb, eps, rho, mode="gamma")
    for t in (t1, t2):
        j = ser.triv_to_json(t)
        back = ser.triv_from_json(j, table)
        assert back.mode == t.mode
        assert back.field == t.field
        for ij in _idx():
            assert back.M(ij) == t.M(ij)
        if t.gamma is None:
            assert back.gamma is None
        else:
            assert all(back.gamma[ij] == t.gamma[ij] for ij in _idx())


def test_quadrics_roundtrip(curve, table, field):
    z = _z_values(field, 44)
    rho = validate_rho(table, partial(table, z).values)
    qs = quadrics_for_C(curve, table, rho)
    j = ser.quadrics_to_json(qs, curve, rho)
    back = ser.quadrics_from_json(j, table)
    assert back == qs
    rback = ser.quadrics_rho_from_json(j, table)
    assert rback.values == rho.values


def test_descent_roundtrip(curve, table, eps, emb, gbasis, field):
    rho = RhoTable.trivial(table)
    triv = trivialize(emb, eps, rho)
    out = descend(curve, 3, rho, triv, seed=0, gbasis=gbasis)
    j = ser.descent_to_json(out, curve)
    back = ser.descent_from_json(j, table)
    assert back["plane_curve"] == out["plane_curve"]
    assert back["quadrics"] == out["quadrics"]
    assert back["report"] == out["report"]
    assert back["seed"] == 0
    # byte identical when rebuilt
    assert ser.dumps_canonical(j) == ser.dumps_canonical(ser.descent_to_json(out, curve))


def test_descent_bytes_deterministic(curve, table, eps, emb, gbasis):
    rho = RhoTable.trivial(table)
    triv = trivialize(emb, eps, rho)
    a = descend(curve, 3, rho, triv, seed=7, gbasis=gbasis)
    b = descend(curve, 3, rho, triv, seed=7, gbasis=gbasis)
    assert ser.dumps_canonical(ser.descent_to_json(a, curve)) == \
        ser.dumps_canonical(ser.descent_to_json(b, curve))
