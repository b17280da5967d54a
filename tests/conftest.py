"""Shared fixtures: the reference curve y^2 = x^3 - 432 over Q(zeta3)
with full rational 3-torsion, the auxiliary curve y^2 = x^3 - 54 over
Q(zeta3, sqrt2), and a Hesse curve with a != 0 over Q(zeta3).
Everything is session scoped because the torsion table and the
embedding are reused by most of the suite; the per-curve fixtures are
those of the curve's CurveData, which descend reuses."""

import pytest

from ndescent.fields import FieldTower, tower_extend
from ndescent.curve import Curve
from ndescent.descent_funcs import CurveData
from oracles import kernel_G_basis


@pytest.fixture(scope="session")
def field():
    return tower_extend(FieldTower.rationals(), [1, 1, 1], name="zeta3")


@pytest.fixture(scope="session")
def curve(field):
    return Curve(field, 0, -432)


@pytest.fixture(scope="session")
def table(curve):
    return CurveData.of(curve, 3).table


@pytest.fixture(scope="session")
def millers(curve):
    return CurveData.of(curve, 3).millers


@pytest.fixture(scope="session")
def eps(curve):
    return CurveData.of(curve, 3).eps


@pytest.fixture(scope="session")
def gbasis(curve):
    return CurveData.of(curve, 3).gbasis


@pytest.fixture(scope="session")
def oracle_gbasis(curve):
    """The reference curve's G-basis as functions, read off the kernels of
    the translation operators in the function field (tests/oracles.py)."""
    data = CurveData.of(curve, 3)
    return kernel_G_basis(data.table, data.eps)


@pytest.fixture(scope="session")
def emb(curve):
    return CurveData.of(curve, 3).emb


@pytest.fixture(scope="session")
def aux_field(field):
    return tower_extend(field, [-2, 0, 1], name="sqrt2")


@pytest.fixture(scope="session")
def aux_curve(aux_field):
    return Curve(aux_field, 0, -54)


@pytest.fixture(scope="session")
def aux_table(aux_curve):
    return CurveData.of(aux_curve, 3).table


@pytest.fixture(scope="session")
def hesse_curve(field):
    # k = 2 in the Hesse family y^2 = x^3 - 27k(k^3 + 8)x + 54(k^6 - 20k^3 - 8),
    # whose 3-torsion is rational over Q(zeta3); k = 0 is the reference
    # curve (Artebani and Dolgachev, Enseign. Math. 55 (2009))
    return Curve(field, -864, -5616)
