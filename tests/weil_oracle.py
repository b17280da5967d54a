"""Independent Weil pairing oracle.

Computes e_n(S, T) = f_S(D_T) / f_T(D_S) with D_S = (S + R2) - (R2) and
D_T = (T + R1) - (R1), where f_S is the function with divisor
n(S + R2) - n(R2), built by a Miller chain seeded with the function
cutting (S + R2) + (O) - (S) - (R2).  Everything is evaluated through
chord and vertical lines at explicit points; none of the package's
function field or pairing code is used.
"""

from ndescent.curve import Point
from ndescent.fields import tower_extend
from oracles import base_change


def _chord_slope(a, b):
    if a.x == b.x:
        return (3 * a.x ** 2 + a.curve.a) / (2 * a.y)
    return (b.y - a.y) / (b.x - a.x)


def _line_value(a, b, p):
    # the line through a and b (tangent if equal), evaluated at p
    if (a + b).is_infinity:
        return p.x - a.x
    lam = _chord_slope(a, b)
    return p.y - lam * p.x - (a.y - lam * a.x)


def _vert_value(a, p):
    return p.x - a.x


def _shifted_miller(t, n, r, num, den):
    """Value at (num) - (den) of the function with divisor n(t+r) - n(r)."""
    a = t + r

    def seed(p):
        return _vert_value(a, p) / _line_value(t, r, p)

    f = seed(num) / seed(den)
    v = t
    for bit in bin(n)[3:]:
        f = f * f * (_line_value(v, v, num) / _line_value(v, v, den))
        vv = v + v
        if not vv.is_infinity:
            f = f * (_vert_value(vv, den) / _vert_value(vv, num))
        v = vv
        if bit == "1":
            f = f * (seed(num) / seed(den))
            f = f * (_line_value(v, t, num) / _line_value(v, t, den))
            vv = v + t
            if not vv.is_infinity:
                f = f * (_vert_value(vv, den) / _vert_value(vv, num))
            v = vv
    assert v.is_infinity
    return f


def aux_pair(curve):
    """Two affine non-torsion points with x = 1 and x = 2 over a chained
    tower of two quadratic extensions of the curve's base field."""
    K = curve.field
    k1 = tower_extend(K, [-curve.rhs(K.from_fraction(1)), 0, 1], name="wa")
    k2 = tower_extend(k1, [-curve.rhs(k1.from_fraction(2)), 0, 1], name="wb")
    c = curve.base_change(k2)
    r1 = Point(c, k2.from_fraction(1), k1.gen().lift_to(k2))
    r2 = Point(c, k2.from_fraction(2), k2.gen())
    return r1, r2


def weil_pairing_oracle(s, t, n, r1, r2):
    field = r1.curve.field
    if s.is_infinity or t.is_infinity:
        return field.one()
    sx, tx = base_change(s, field), base_change(t, field)
    num = _shifted_miller(sx, n, r2, tx + r1, r1)
    den = _shifted_miller(tx, n, r1, sx + r2, r2)
    return num / den
