import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ndescent
from ndescent.fields import (FieldTower, FieldElement, Poly, ReducibleExtension,
                             factor_poly, nonresidue_witness, poly_gcd, poly_x,
                             roots_in_field, tower_extend)


def test_rationals():
    Q = FieldTower.rationals()
    assert Q.nlevels == 0
    assert Q.degree == 1
    a = Q.from_fraction(Fraction(3, 7))
    b = Q.from_fraction(2)
    assert (a + b).as_fraction() == Fraction(17, 7)
    assert (a * b).as_fraction() == Fraction(6, 7)
    assert (a / b).as_fraction() == Fraction(3, 14)
    assert a.flatten() == [Fraction(3, 7)]


def test_cyclotomic_arithmetic(field):
    # zeta^2 + zeta + 1 = 0
    z = field.gen()
    assert field.degree == 2
    assert (z * z + z + 1).is_zero()
    assert z ** 3 == field.one()
    # (2 zeta + 1)^2 = -3
    s = 2 * z + 1
    assert s * s == field.from_fraction(-3)
    assert z.inverse() == z * z
    assert (1 / z) * z == field.one()


def test_element_flatten_roundtrip(field):
    rng = random.Random(11)
    for _ in range(50):
        flat = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2)]
        e = field.element(flat)
        assert e.flatten() == flat
    with pytest.raises(ValueError):
        field.element([Fraction(1)])


def test_inverse_property(field):
    rng = random.Random(12)
    for _ in range(40):
        flat = [Fraction(rng.randint(-20, 20)) for _ in range(2)]
        e = field.element(flat)
        if e.is_zero():
            continue
        assert e * e.inverse() == field.one()


def test_tower_extension_and_lift(field):
    L = tower_extend(field, [-2, 0, 0, 1], name="cbrt2")
    assert L.degree == 6
    assert L.degrees == (2, 3)
    assert field.is_prefix_of(L)
    assert not L.is_prefix_of(field)
    c = L.gen()
    assert c ** 3 == L.from_fraction(2)
    z = field.gen().lift_to(L)
    assert (z * z + z + 1).is_zero()
    # mixed arithmetic lifts automatically
    assert (field.gen() + c) - c == z


def test_coords_over(field):
    L = tower_extend(field, [-2, 0, 1], name="sqrt2")
    z = field.gen().lift_to(L)
    w = L.gen()
    e = z + 3 * w + w * z
    lo, hi = e.coords_over(field)
    assert lo == field.gen()
    assert hi == field.from_fraction(3) + field.gen()
    back = lo.lift_to(L) + hi.lift_to(L) * w
    assert back == e


def test_reducible_extension_rejected(field):
    # x^2 + x + 1 splits over Q(zeta3)
    with pytest.raises(ReducibleExtension) as ei:
        tower_extend(field, [1, 1, 1], name="again")
    fac = ei.value.factor
    assert len(fac) == 2  # a linear factor is the witness


def test_rational_non_square_that_is_a_square_in_K(field):
    # -3 is not a square in Q but is (2 zeta + 1)^2 in Q(zeta3): no prime
    # may witness it, and Trager finds the split
    minus3 = field.from_fraction(-3)
    assert nonresidue_witness(FieldTower.rationals().from_fraction(-3), 2) is not None
    assert nonresidue_witness(minus3, 2) is None
    with pytest.raises(ReducibleExtension) as ei:
        tower_extend(field, [3, 0, 1], name="s")
    root = -ei.value.factor[0]
    assert root * root == minus3


def test_roots_in_field(field):
    # x^3 - 1728 = (x - 12)(x - 12 zeta)(x - 12 zeta^2) over Q(zeta3)
    p = Poly([-1728, 0, 0, 1], field)
    roots = roots_in_field(p)
    assert len(roots) == 3
    z = field.gen()
    assert set(tuple(r.flatten()) for r in roots) == \
        set(tuple(v.flatten()) for v in [field.from_fraction(12), 12 * z, 12 * z * z])
    for r in roots:
        assert p(r).is_zero()
    # over Q only the rational root is found
    assert len(roots_in_field(Poly([-1728, 0, 0, 1]))) == 1


def test_factor_poly(field):
    z = field.gen()
    p = Poly([1, 1, 1])  # x^2 + x + 1 over Q: irreducible
    assert len(factor_poly(p)) == 1
    fs = factor_poly(p, field)
    assert [f.degree for f, _ in fs] == [1, 1]
    assert set(tuple((-f.coeff(0)).flatten()) for f, _ in fs) == \
        set(tuple(v.flatten()) for v in [z, z * z])
    # multiplicity
    q = Poly([1, 1, 1]) * Poly([1, 1, 1]) * Poly([-2, 1])
    fs = factor_poly(q, field)
    assert sorted(m for _, m in fs) == [1, 2, 2]


def test_poly_arithmetic(field):
    x = poly_x(field)
    p = x ** 4 - 3 * x + 1
    q = x ** 2 + field.gen() * x
    d, r = divmod(p, q)
    assert d * q + r == p
    assert r.degree < q.degree
    g = poly_gcd(p * q, q)
    assert g == q.monic()
    assert p(field.from_fraction(2)) == field.from_fraction(11)
    assert p.derivative() == 4 * x ** 3 - 3


def test_element_key_orders_deterministically(field):
    vals = [field.gen(), field.one(), -field.gen(), field.zero()]
    keys = [v.key() for v in vals]
    assert len(set(keys)) == 4
    assert sorted(keys) == sorted(keys, key=lambda k: k)


# ---------------------------------------------------------------------------
# property tests over three tower shapes: Q, Q(zeta3), Q(zeta3, sqrt2)
# ---------------------------------------------------------------------------

_Q = FieldTower.rationals()
_ZETA3 = tower_extend(_Q, [1, 1, 1], name="zeta3")
_AUX = tower_extend(_ZETA3, [-2, 0, 1], name="sqrt2")
_TOWERS = [_Q, _ZETA3, _AUX]

# A fixed, derandomized profile keeps the suite deterministic.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow])

_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _elements(tower):
    return st.lists(_rationals, min_size=tower.degree,
                    max_size=tower.degree).map(tower.element)


_tower_and_three = st.sampled_from(_TOWERS).flatmap(
    lambda K: st.tuples(st.just(K), _elements(K), _elements(K), _elements(K)))


@PROFILE
@given(_tower_and_three)
def test_ring_axioms(args):
    K, a, b, c = args
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + K.zero() == a and a * K.one() == a
    assert (a - a).is_zero() and a + (-a) == K.zero()
    assert (a * K.zero()).is_zero()


@PROFILE
@given(_tower_and_three)
def test_inverse_is_two_sided(args):
    K, a, _, _ = args
    if a.is_zero():
        return
    assert a * a.inverse() == 1
    assert a.inverse() * a == K.one()
    assert a / a == 1


@PROFILE
@given(st.sampled_from(_TOWERS).flatmap(
    lambda K: st.tuples(st.just(K), st.lists(_rationals, min_size=K.degree,
                                             max_size=K.degree))))
def test_flatten_element_roundtrip(args):
    K, flat = args
    e = K.element(flat)
    assert e.flatten() == flat
    assert K.element(e.flatten()) == e
    assert e.key() == tuple(flat)


def _monomials_over(sub, K):
    """The basis monomials of K over the prefix tower sub, innermost
    generator fastest (the order of coords_over)."""
    monos = [K.one()]
    for lvl in range(sub.nlevels, K.nlevels):
        g = K.gen(lvl)
        monos = [m * g ** i for i in range(K.degrees[lvl]) for m in monos]
    return monos


@PROFILE
@given(_tower_and_three)
def test_coords_over_recombines(args):
    K, a, _, _ = args
    for s in range(K.nlevels + 1):
        sub = _TOWERS[s]
        assert sub.is_prefix_of(K)
        coords = a.coords_over(sub)
        monos = _monomials_over(sub, K)
        assert len(coords) == len(monos) == K.degree // sub.degree
        total = K.zero()
        for c, m in zip(coords, monos):
            assert c.tower == sub
            total = total + c.lift_to(K) * m
        assert total == a


def _factor_inputs(K):
    """Monic products of a few small factors over K, so that factoring has
    something to find: linear factors, a repeated factor, and a quadratic."""
    small = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree).map(
        lambda v: K.element([Fraction(c) for c in v]))
    linear = small.map(lambda r: Poly([-r, 1], K))
    quad = st.tuples(small, small).map(lambda ab: Poly([ab[0], ab[1], 1], K))
    return st.tuples(st.lists(linear, min_size=0, max_size=2),
                     st.lists(quad, min_size=0, max_size=1),
                     st.integers(1, 2)).filter(lambda t: t[0] or t[1])


@settings(PROFILE, max_examples=12)
@given(st.sampled_from(_TOWERS).flatmap(
    lambda K: st.tuples(st.just(K), _factor_inputs(K))))
def test_factor_poly_multiplies_back(args):
    K, (linears, quads, power) = args
    p = Poly([1], K)
    for f in linears + quads:
        p = p * f
    p = p ** power if p.degree <= 2 else p
    fs = factor_poly(p)
    back = Poly([1], K)
    for f, m in fs:
        assert f.is_monic() and f.degree >= 1
        back = back * f ** m
    assert back == p.monic()
    assert sum(f.degree * m for f, m in fs) == p.degree


_binomials = st.sampled_from(_TOWERS).flatmap(
    lambda K: st.tuples(st.sampled_from([2, 3]),
                        _elements(K).filter(lambda a: not a.is_zero())))


@PROFILE
@given(_binomials)
def test_nonresidue_witness_agrees_with_factoring(args):
    # a witness proves x^p - a irreducible, so it never fires on a p-th
    # power, and whenever it fires Trager finds one simple factor
    p, a = args
    assert nonresidue_witness(a ** p, p) is None
    if nonresidue_witness(a, p) is not None:
        fs = factor_poly(poly_x(a.tower) ** p - a)
        assert len(fs) == 1 and fs[0][1] == 1


_UNDER_O = r"""
import sys
from fractions import Fraction
from ndescent.fields import (FieldTower, Poly, ReducibleExtension, factor_poly,
                             poly_x, tower_extend)
from ndescent.curve import Curve, Point, slope
from ndescent.funcfield import FunctionFieldElement
from ndescent.linalg import ExactMatrix
from ndescent.descent_funcs import (CurveData, Embedding, _certify_embedding,
                                    compute_embedding, dual_row)
from ndescent.algebra import CertificationFailed, RhoTable, trivialize
from ndescent.geometry import interpolate_plane_curve, quadrics_for_C

if not sys.flags.optimize:
    sys.exit("run under python -O")
Q = FieldTower.rationals()
K = tower_extend(Q, [1, 1, 1], name="zeta3")
data = CurveData.of(Curve(K, 0, -432), 3)
table, eps, millers = data.table, data.eps, data.millers
zero_rho = RhoTable(table, {k: K.zero() for k in RhoTable.trivial(table).values})
idx = [divmod(k, 3) for k in range(9)]
identities = Embedding(table, None, {ij: ExactMatrix.identity(3, K) for ij in idx})
zeros = Embedding(table, None, {ij: identities.M(ij) if ij == (0, 0)
                                else ExactMatrix.zero(3, 3, K) for ij in idx})
# F_T times y: no longer the scale of M_T at a second torsion point
wrong_f = dict(millers)
wrong_f[(0, 1)] = millers[(0, 1)] * FunctionFieldElement.coordinate_y(data.curve)
# F_{-T} for T = (0, 1) times y: (h o tau_T) F_{-T} y leaves L(3(O))
pole_f = dict(millers)
pole_f[(0, 2)] = millers[(0, 2)] * FunctionFieldElement.coordinate_y(data.curve)
quintic = Embedding(table, None, {})
quintic.n = 5  # what an embedding of degree 5 would report
ones = [K.one()] * 3
cases = [
    (ValueError, lambda: Point(data.curve, 1, 1)),
    (ValueError, lambda: slope(table.t1, -table.t1)),
    (CertificationFailed, lambda: quadrics_for_C(data.curve, table, zero_rho)),
    (CertificationFailed, lambda: _certify_embedding(identities, eps)),
    (CertificationFailed, lambda: _certify_embedding(zeros, eps)),
    (CertificationFailed, lambda: compute_embedding(table, eps, wrong_f)),
    (CertificationFailed, lambda: compute_embedding(table, eps, pole_f)),
    (ValueError, lambda: trivialize(identities, eps, RhoTable.trivial(table), mode="user")),
    (ValueError, lambda: interpolate_plane_curve([ones] * 9, K)),
    (ValueError, lambda: interpolate_plane_curve([ones] * 9 + [ones[:2]], K)),
    (ValueError, lambda: dual_row(quintic, table.t1)),
    (ValueError, lambda: K.element([Fraction(1)])),
    (ValueError, lambda: K.gen().as_fraction()),
    (ValueError, lambda: K.gen(3)),
    (ValueError, lambda: K.gen().lift_to(Q)),
    (ValueError, lambda: tower_extend(K, [1, 0, 2])),
    (ValueError, lambda: tower_extend(K, [3])),
    (ValueError, lambda: factor_poly(Poly([], K))),
    (ValueError, lambda: Poly([], K).lc()),
    (ReducibleExtension, lambda: tower_extend(K, [1, 1, 1])),
    (ZeroDivisionError, lambda: K.zero().inverse()),
    (ZeroDivisionError, lambda: K.one() / 0),
    (ZeroDivisionError, lambda: divmod(poly_x(K), Poly([], K))),
]
for k, (exc, run) in enumerate(cases):
    try:
        run()
    except exc:
        continue
    print("case %d did not raise %s" % (k, exc.__name__))
    sys.exit(1)
print("ok")
"""


def test_caller_errors_raise_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "ok"
