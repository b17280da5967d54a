import ast
import os
import random
import sys

import pytest
from hypothesis import assume, given, strategies as st

from ndescent import funcfield
from ndescent.fields import Poly
from ndescent.curve import Curve, Point, PoleAtP
from ndescent.descent_funcs import CurveData, affine_sample
from ndescent.funcfield import FunctionFieldElement, miller_function
from ndescent.geometry import g_eval
from test_fields import PROFILE, _AUX, _ZETA3, _elements
from oracles import (GeneralFunction, coordinate_x, coordinate_y, derivative, gcd_normalised,
                     line_through, unit_cochain, vertical_through)


def traced_calls(run):
    """(file path, qualified name) of every Python function that run()
    calls, recorded with sys.settrace."""
    called = set()

    def tracer(frame, event, arg):
        called.add((os.path.abspath(frame.f_code.co_filename), frame.f_code.co_qualname))
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return called


def test_coordinate_relation(curve):
    x = coordinate_x(curve)
    y = coordinate_y(curve)
    assert y * y == x * x * x - 432
    assert (y / x) * x == y
    assert (x / y) * (y / x) == FunctionFieldElement.const(curve, 1)


def test_laurent_orders(curve, field):
    x = coordinate_x(curve)
    y = coordinate_y(curve)
    assert x.laurent() == (-2, field.one())
    assert y.laurent() == (-3, field.one())
    # x^3 / y^2 = 1 + O(t) at O
    u = x * x * x / (y * y)
    assert u.laurent() == (0, field.one())
    # t = x/y is the local parameter itself
    assert (x / y).laurent() == (1, field.one())


def test_evaluate(curve, field, table):
    x = coordinate_x(curve)
    y = coordinate_y(curve)
    p = table.point(2, 1)  # (12, 36)
    h = (x * x + y) / (x - 3)
    assert h.evaluate(p) == field.from_fraction(20)
    with pytest.raises(PoleAtP):
        h.evaluate(Point.at_infinity(curve))
    with pytest.raises(PoleAtP):
        (x - 12).inverse().evaluate(p)


def test_derivative(curve):
    x = coordinate_x(curve)
    y = coordinate_y(curve)
    assert derivative(x) == FunctionFieldElement.const(curve, 1)
    # 2 y y' = rhs'(x) = 3x^2
    assert derivative(y) * y * 2 == x * x * 3
    q = x * y
    assert derivative(q) == y + x * derivative(y)


def test_line_functions(curve, table):
    t1, t2 = table.t1, table.t2
    l = line_through(t1, t2)
    assert l.evaluate(t1).is_zero()
    assert l.evaluate(t2).is_zero()
    assert l.evaluate(-(t1 + t2)).is_zero()
    assert not l.evaluate(t1 + t2).is_zero()
    v = vertical_through(t1)
    assert v.evaluate(t1).is_zero()
    assert v.evaluate(-t1).is_zero()


def test_miller_function_divisor(table, field):
    t = table.t1
    f = miller_function(t, 3)
    # normalized leading coefficient at O
    assert f.laurent() == (-3, field.one())
    assert f.evaluate(t).is_zero()
    # no other zeros among the table points
    for p in table:
        if p.is_infinity or p == t:
            continue
        assert not f.evaluate(p).is_zero()


def test_miller_function_refuses_what_is_no_flex(table, field, monkeypatch):
    # the flex identity is the certificate: a point off E[3], a 2-torsion
    # point, O, another n, and a perturbed tangent slope are all refused
    q = Point(Curve(field, 0, -54), 7, 17)  # of infinite order
    two = Point(Curve(field, -1, 0), 0, 0)  # y = 0: the tangent is vertical
    for t, n in ((q, 3), (two, 3), (table.point(0, 0), 3), (table.t1, 2), (table.t1, 9)):
        with pytest.raises(ValueError):
            miller_function(t, n)
    real = funcfield.slope
    monkeypatch.setattr(funcfield, "slope", lambda a, b: real(a, b) + 1)
    with pytest.raises(ValueError, match="no flex"):
        miller_function(table.t1, 3)


@pytest.mark.parametrize("which", ["curve", "aux_curve", "hesse_curve"])
def test_tangent_times_its_mirror_is_the_vertical_cubed(which, request):
    # F_T F_{-T} = y^2 - (lam x + nu)^2 = (x - x_T)^3 in the oracle's
    # function field, the flex identity as functions; F_T leads at O with
    # t^-3 and coefficient 1, and vanishes at T but not at -T
    curve = request.getfixturevalue(which)
    data = CurveData.of(curve, 3)
    x, one = coordinate_x(curve), curve.field.one()
    for ij, t in zip(data.table.indices[1:], list(data.table)[1:]):
        f, g = data.millers[ij], data.millers[data.table.neg_index(ij)]
        assert GeneralFunction(curve, f.u, f.v, f.w) * g == _power(x - t.x, 3)
        assert f.laurent() == (-3, one)
        assert f.evaluate(t).is_zero() and not f.evaluate(-t).is_zero()


def test_every_funcfield_function_is_reached(curve):
    # a fresh CurveData build and one covering evaluation reach every
    # function and method that funcfield.py defines, so the class cannot
    # regrow arithmetic that only tests call; __repr__ aside, and laurent,
    # which the library no longer calls and perfbench/spans.py times by name
    with open(funcfield.__file__) as fh:
        tree = ast.parse(fh.read())
    defined = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            defined.add(top.name)
        elif isinstance(top, ast.ClassDef):
            defined.update("%s.%s" % (top.name, node.name) for node in top.body
                           if isinstance(node, ast.FunctionDef))
    exempt = {"FunctionFieldElement.__repr__", "FunctionFieldElement.laurent"}
    assert exempt <= defined
    defined -= exempt
    data = CurveData(curve, 3)

    def run():
        p = affine_sample(curve, 3, random.Random(0), "g")
        g_eval(data.gbasis, unit_cochain(data.table), p)
        data.emb
    here = os.path.abspath(funcfield.__file__)
    reached = {name for path, name in traced_calls(run) if path == here}
    assert defined - reached == set()


def test_miller_frozen_values(millers, table, field):
    z = field.gen()
    assert millers[(1, 0)].evaluate(table.point(0, 1)) == -48 - 24 * z
    assert millers[(1, 1)].evaluate(table.point(2, 1)) == -72 - 72 * z


# ---------------------------------------------------------------------------
# the leading term at O on random nonzero (u + v y)/w: multiplicative,
# ultrametric, and fixed on constants, x and y, which pins it down on K(E)*
# ---------------------------------------------------------------------------

_CURVES = [Curve(_ZETA3, 0, -432), Curve(_AUX, 0, -54)]


def _polys(K, maxdeg):
    return st.lists(_elements(K), max_size=maxdeg + 1).map(lambda cs: Poly(cs, K))


def _triples(curve):
    K = curve.field
    return st.tuples(_polys(K, 3), _polys(K, 2), _polys(K, 2).filter(lambda w: not w.is_zero()))


def _functions(curve):
    return _triples(curve).map(lambda uvw: GeneralFunction(curve, *uvw)
                               ).filter(lambda f: not f.is_zero())


_two_functions = st.sampled_from(_CURVES).flatmap(
    lambda E: st.tuples(_functions(E), _functions(E)))


@PROFILE
@given(st.sampled_from(_CURVES).flatmap(
    lambda E: st.tuples(st.just(E), _triples(E), _functions(E), _functions(E))))
def test_stored_form_is_gcd_normalised(args):
    # the oracle's constructor skips the gcd for a constant denominator;
    # the stored form must still be the reduced one, for raw triples and
    # for products, whose denominator is constant when both factors are
    # polynomials in x, y
    curve, uvw, f, g = args
    h = GeneralFunction(curve, *uvw)
    assert (h.u, h.v, h.w) == gcd_normalised(*uvw)
    for k in (f, g, f * g, f + g):
        assert (k.u, k.v, k.w) == gcd_normalised(k.u, k.v, k.w)
    ring = GeneralFunction(curve, f.u, f.v, 1) * GeneralFunction(curve, g.u, g.v, 1)
    assert ring.w == 1
    assert (ring.u, ring.v, ring.w) == gcd_normalised(ring.u, ring.v, ring.w)


@PROFILE
@given(_two_functions)
def test_leading_term_of_product(fg):
    f, g = fg
    (of, cf), (og, cg) = f.laurent(), g.laurent()
    assert (f * g).laurent() == (of + og, cf * cg)


@PROFILE
@given(_two_functions)
def test_leading_term_of_inverse(fg):
    f, _ = fg
    order, lead = f.laurent()
    assert f.inverse().laurent() == (-order, lead.inverse())


@PROFILE
@given(_two_functions)
def test_leading_term_of_sum(fg):
    f, g = sorted(fg, key=lambda h: h.laurent()[0])
    assume(f.laurent()[0] < g.laurent()[0])
    assert (f + g).laurent() == f.laurent()


@PROFILE
@given(st.sampled_from(_CURVES).flatmap(
    lambda E: st.tuples(st.just(E), _elements(E.field).filter(lambda c: not c.is_zero()))))
def test_leading_term_of_constant(args):
    curve, c = args
    assert FunctionFieldElement.const(curve, c).laurent() == (0, c)


def _power(f, k):
    """f^k by repeated products; a negative k inverts f first."""
    base = f if k >= 0 else f.inverse()
    out = GeneralFunction.const(f.curve, 1)
    for _ in range(abs(k)):
        out = out * base
    return out


@PROFILE
@given(st.sampled_from(_CURVES), st.integers(-3, 3), st.integers(-3, 3))
def test_leading_term_of_monomial(curve, i, j):
    x = coordinate_x(curve)
    y = coordinate_y(curve)
    assert (_power(x, i) * _power(y, j)).laurent() == (-2 * i - 3 * j, curve.field.one())
