"""Shared fixtures: the reference curve y^2 = x^3 - 432 over Q(zeta3)
with full rational 3-torsion, and the auxiliary curve y^2 = x^3 - 54
over Q(zeta3, sqrt2).  Everything is session scoped because the torsion
table and the embedding are reused by most of the suite; the per-curve
fixtures are those of the curve's CurveData, which descend reuses."""

import pytest

from ndescent.fields import FieldTower, tower_extend
from ndescent.curve import Curve
from ndescent.descent_funcs import CurveData


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
