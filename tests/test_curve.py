import ast
import hashlib
import os
import random
from fractions import Fraction

import pytest

import ndescent
from ndescent import curve as curve_module
from ndescent.fields import FieldTower, Poly, tower_extend
from ndescent.curve import (Curve, Point, PoleAtP, TorsionNotRational, _divpoly,
                            division_polynomial, r_constant, r_eval, slope, torsion_table)
from oracles import base_change, distinct_samples


def F(x):
    return Fraction(x)


def test_point_arithmetic(curve, field):
    p = Point(curve, field.from_fraction(12), field.from_fraction(36))
    o = Point.at_infinity(curve)
    assert (p + o) == p
    assert (p + (-p)) == o
    assert 3 * p == o          # (12, 36) is 3-torsion
    assert 2 * p == -p


def test_point_must_lie_on_curve(curve, field):
    with pytest.raises(ValueError):
        Point(curve, field.from_fraction(1), field.from_fraction(1))


def test_division_polynomial_small(curve, field):
    psi3 = division_polynomial(curve, 3)
    # 3x^4 + 6ax^2 + 12bx - a^2 with a = 0, b = -432
    assert psi3.degree == 4
    assert psi3 == 3 * Poly([0, 1], field) ** 4 - 5184 * Poly([0, 1], field)
    assert psi3(field.from_fraction(5)).as_fraction() == F(-24045)
    assert psi3(field.from_fraction(12)).is_zero()
    # E[3] is contained in E[9], so psi_9 vanishes at 3-torsion x too
    psi9 = division_polynomial(curve, 9)
    assert psi9.degree == 40
    assert psi9(field.from_fraction(12)).is_zero()
    assert not psi9(field.from_fraction(5)).is_zero()


_PSI_3_TO_9 = {
    "reference": "eee9af4fcebbd2a879859760b76db3d8d7555bfef93c436804179b65b52bbd2c",
    "aux": "4d1b1f7b35eacf3b4cb71abbc99f189ba17e5ad59d7aea2f392820e48bcf0dcc"}


@pytest.mark.parametrize("which", sorted(_PSI_3_TO_9))
def test_division_polynomials_pinned(which, curve, aux_curve):
    # psi_3 .. psi_9, coefficient by coefficient: the torsion table rests
    # on psi_3 and the samples on psi_9
    c = curve if which == "reference" else aux_curve
    keys = [[e.key() for e in division_polynomial(c, m).coeffs] for m in (3, 5, 7, 9)]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == _PSI_3_TO_9[which]


@pytest.mark.parametrize("which", ["reference", "aux", "a != 0"])
def test_division_polynomials_give_x_of_multiples(which, curve, aux_curve, field):
    # x(mP) = x - psi_{m-1} psi_{m+1} / psi_m^2 with psi_m = f_m for odd m
    # and 2y f_m for even m, so the even f_m are checked too
    c = {"reference": curve, "aux": aux_curve,
         "a != 0": Curve(field, 2, field.gen() - 3)}[which]
    for p in distinct_samples(c, 3, random.Random(5), "x", 2):
        x, rhs = p.x, p.curve.rhs(p.x)
        f = [_divpoly(c, m)(x) for m in range(11)]
        for m in range(2, 10):
            if m % 2:
                want = x - 4 * rhs * f[m - 1] * f[m + 1] / (f[m] * f[m])
            else:
                want = x - f[m - 1] * f[m + 1] / (4 * rhs * f[m] * f[m])
            assert (m * p).x == want


def test_torsion_table_frozen(table, field):
    z = field.gen()
    want = {
        (0, 0): None,
        (0, 1): (field.zero(), -12 - 24 * z),
        (0, 2): (field.zero(), 12 + 24 * z),
        (1, 0): (-12 - 12 * z, field.from_fraction(-36)),
        (1, 1): (12 * z, field.from_fraction(-36)),
        (1, 2): (field.from_fraction(12), field.from_fraction(-36)),
        (2, 0): (-12 - 12 * z, field.from_fraction(36)),
        (2, 1): (field.from_fraction(12), field.from_fraction(36)),
        (2, 2): (12 * z, field.from_fraction(36)),
    }
    assert len(table) == 9
    for ij, xy in want.items():
        p = table.point(*ij)
        if xy is None:
            assert p.is_infinity
        else:
            assert p.x == xy[0] and p.y == xy[1]


def test_aux_torsion_basis_frozen(aux_table):
    # the basis is the first independent pair in key order; on the aux
    # curve over Q(zeta3, sqrt2), coordinates in flatten() order
    t1, t2 = aux_table.t1, aux_table.t2
    assert [p.x.flatten() for p in (t1, t2)] == [[-6, -6, 0, 0], [0, 0, 0, 0]]
    assert [p.y.flatten() for p in (t1, t2)] == [[0, 0, -9, 0], [0, 0, -3, -6]]
    # an affine point of E[3] has order 3, so T1 extends to a basis
    assert (3 * t1).is_infinity and len(aux_table) == 9


@pytest.mark.parametrize("which", ["reference", "aux"])
def test_torsion_table_builds_one_table(which, curve, aux_curve, table, aux_table,
                                        monkeypatch):
    # no T2 in the cyclic group of T1 is tried, so the first table built
    # is the basis, the same one as before
    built = []

    class Counted(curve_module.TorsionTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(curve_module, "TorsionTable", Counted)
    E, want = (curve, table) if which == "reference" else (aux_curve, aux_table)
    got = torsion_table(E, 3)
    assert len(built) == 1
    assert got.t1 == want.t1 and got.t2 == want.t2 and got.points == want.points


def test_table_group_structure(table):
    for i1 in range(3):
        for j1 in range(3):
            a = table.point(i1, j1)
            for i2 in range(3):
                for j2 in range(3):
                    b = table.point(i2, j2)
                    assert a + b == table.point(*table.add_index((i1, j1), (i2, j2)))
            assert -a == table.point(*table.neg_index((i1, j1)))


def test_torsion_not_rational_over_q():
    E = Curve(FieldTower.rationals(), 0, -432)
    with pytest.raises(TorsionNotRational) as ei:
        torsion_table(E, 3)
    assert ei.value.count == 3  # O and (12, +-36) only


def test_slope(table, field):
    t1, t2 = table.t1, table.t2
    lam = slope(t1, t2)
    # the chord really passes through both points
    assert t1.y - lam * t1.x == t2.y - lam * t2.x
    with pytest.raises(ValueError):
        slope(t1, -t1)


def test_r_eval(table, field):
    t1, t2 = table.t1, table.t2
    K1 = tower_extend(field, [431, 0, 1], name="y431")
    E1 = table.curve.base_change(K1)
    p = Point(E1, K1.from_fraction(1), K1.gen())
    v = r_eval(t1, t2, p)
    assert v.flatten() == [F("-154/157"), F("196/157"), F("13/157"), F("12/157")]
    # r(t1, -t1) is x - x(t1)
    w = r_eval(t1, -t1, p)
    assert w == p.x - t1.x.lift_to(K1)
    # its constant: x(t1) on a vertical line, else the chord's or tangent's slope
    assert r_constant(t1, -t1) == t1.x
    assert r_constant(t1, t2) == slope(t1, t2) and r_constant(t1, t1) == slope(t1, t1)
    assert r_eval(table.point(0, 0), t1, p) == K1.one()
    with pytest.raises(PoleAtP):
        r_eval(t1, t2, Point.at_infinity(E1))
    with pytest.raises(PoleAtP):
        r_eval(t1, t2, t1 + t2)


def test_base_change(curve, field, table):
    L = tower_extend(field, [-2, 0, 1], name="sqrt2")
    cl = curve.base_change(L)
    assert cl.field == L
    p = base_change(table.t1, L)
    assert cl.contains(p.x, p.y)
    assert 3 * p == Point.at_infinity(cl)


def test_torsion_table_rejects_unsupported_n(curve):
    for n in (1, 2, 4):
        with pytest.raises(ValueError):
            torsion_table(curve, n)


def test_table_indices_and_flat(table):
    # indices are the table order, flat is its inverse, and each index
    # names the point at its position
    assert table.indices == tuple((i, j) for i in range(3) for j in range(3))
    for k, (ij, p) in enumerate(zip(table.indices, table)):
        assert table.flat(ij) == k and table.point(*ij) == p


def _index_derivations(tree):
    """(line, what) for each divmod call and each x % n or x % <name>.n,
    leaving out string formatting ("..." % n)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "divmod":
            out.append((node.lineno, "divmod"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and not (isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)):
            r = node.right
            if (isinstance(r, ast.Name) and r.id == "n") or (
                    isinstance(r, ast.Attribute) and r.attr == "n"
                    and isinstance(r.value, ast.Name)):
                out.append((node.lineno, "%% %s" % ast.unparse(r)))
    return out


def test_torsion_indices_have_one_owner():
    # curve.TorsionTable is the one owner of E[n] indexing: its indices,
    # flat, add_index and neg_index.  No other module that works with
    # torsion indices derives one from a flat position or reduces mod n
    pkg = os.path.dirname(os.path.abspath(ndescent.__file__))
    found = []
    for name in ("algebra", "descent_funcs", "geometry", "serialize", "cli"):
        with open(os.path.join(pkg, name + ".py")) as fh:
            tree = ast.parse(fh.read())
        found += [(name,) + hit for hit in _index_derivations(tree)]
    assert found == []


def test_r_constants_have_one_owner():
    # curve.r_constant holds r's constants, x(T1) or slope(T1, T2), for
    # r_eval and the quadrics alike: outside curve.py a slope is taken
    # only for the tangent at a flex, which gives F_T and M_T, and
    # quadrics_for_C reads r_constant
    pkg = os.path.dirname(os.path.abspath(ndescent.__file__))
    calls = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "curve.py":
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        f = node.func
                        called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                        if called in ("slope", "r_constant"):
                            calls.append((name[:-3], getattr(top, "name", None), called))
    assert calls == [("descent_funcs", "_tangent_translation", "slope"),
                     ("funcfield", "miller_function", "slope"),
                     ("geometry", "quadrics_for_C", "r_constant")]
