import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndescent.geometry import QuadricSystem
from ndescent.linalg import ExactMatrix, NoSolution
from oracles import leibniz_det, naive_mat_mul, naive_mat_vec, zero_matrix
from test_fields import (_AUX, _Q, _ZETA3, PROFILE, _two_towers, data, larger_of, lifted_first,
                         same, sparse_elements)


def _mat(field, rows):
    return ExactMatrix([[field.from_fraction(Fraction(v)) for v in r] for r in rows])


def test_basic_ops(field):
    a = _mat(field, [[1, 2], [3, 4]])
    b = _mat(field, [[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a * b == _mat(field, [[2, 1], [4, 3]])
    assert a.scale(field.from_fraction(2)) == _mat(field, [[2, 4], [6, 8]])
    assert a.transpose() == _mat(field, [[1, 3], [2, 4]])
    assert a.trace() == field.from_fraction(5)
    assert a.det() == field.from_fraction(-2)
    assert a.rank() == 2
    assert a.inverse() * a == ExactMatrix.identity(2, field)


def test_rank_and_kernel_over_extension(field):
    z = field.gen()
    one = field.one()
    m = ExactMatrix([[one, z], [z * z, z * z * z]])
    # second row = z^2 * first row
    assert m.rank() == 1
    kern = m.kernel_basis()
    assert len(kern) == 1
    v = kern[0]
    for i in range(2):
        s = m.rows[i][0] * v[0] + m.rows[i][1] * v[1]
        assert s.is_zero()


def test_solve(field):
    a = _mat(field, [[2, 1], [1, 3]])
    b = [field.from_fraction(5), field.from_fraction(10)]
    x = a.solve(b)
    got = a.mat_vec(x)
    assert all(u == v for u, v in zip(got, b))
    assert a.solve(b) == x
    singular = _mat(field, [[1, 1], [1, 1]])
    with pytest.raises(NoSolution):
        singular.solve([field.one(), field.zero()])


def test_rank_nullity(field):
    rng = random.Random(5)
    for _ in range(15):
        rows = [[field.element([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
                 for _ in range(4)] for _ in range(3)]
        m = ExactMatrix(rows)
        assert m.rank() + len(m.kernel_basis()) == 4


def test_mixed_tower_entries(field):
    # rational entries lift into the common tower of the matrix
    one = field.one()
    m = ExactMatrix([[one, field.zero()], [field.gen(), one]])
    assert m.tower == field
    assert m.det() == one


def test_identity_and_zero(field):
    i3 = ExactMatrix.identity(3, field)
    z = zero_matrix(3, 3, field)
    assert i3 * i3 == i3
    assert (i3 - i3) == z
    assert all(e.is_zero() for r in z.rows for e in r)
    assert i3.trace() == field.from_fraction(3)


# ---------------------------------------------------------------------------
# the one-pass sums of products against left folds of * and +
# ---------------------------------------------------------------------------

# (matrix tower, operand tower): the same, an extension, a prefix
_PAIRS = [(_ZETA3, _ZETA3), (_ZETA3, _AUX), (_AUX, _ZETA3), (_Q, _AUX)]
_SHAPES = st.tuples(st.sampled_from(_PAIRS), st.integers(1, 4), st.integers(1, 4),
                    st.integers(1, 4))


def _matrices(tower, nrows, ncols):
    return st.lists(st.lists(sparse_elements(tower), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: ExactMatrix(rows, tower))


@PROFILE
@given(_SHAPES.flatmap(lambda a: st.tuples(
    _matrices(a[0][0], a[1], a[2]),
    st.lists(sparse_elements(a[0][1]), min_size=a[2], max_size=a[2]))))
def test_mat_vec_is_the_naive_product(mv):
    m, v = mv
    got, want = m.mat_vec(v), naive_mat_vec(m, v)
    assert len(got) == m.nrows and all(same(a, b) for a, b in zip(got, want))


@PROFILE
@given(_SHAPES.flatmap(lambda a: st.tuples(
    _matrices(a[0][0], a[1], a[2]), _matrices(a[0][1], a[2], a[3]))))
def test_matrix_product_is_the_naive_product(ab):
    a, b = ab
    prod, want = a * b, naive_mat_mul(a, b)
    assert prod.tower == (b.tower if a.tower.is_prefix_of(b.tower) else a.tower)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert all(same(x, y) for r, w in zip(prod.rows, want) for x, y in zip(r, w))


@PROFILE
@given(st.sampled_from([_Q, _ZETA3, _AUX]).flatmap(
    lambda t: st.integers(1, 4).flatmap(lambda n: _matrices(t, n, n))))
def test_det_is_the_leibniz_sum(m):
    # the determinant comes from the pivots of the one Gauss-Jordan pass,
    # negated for each row swap; sparse entries make swaps and singular
    # matrices common
    assert same(m.det(), leibniz_det(m))


# ---------------------------------------------------------------------------
# the tower rule in products: towers of the chain Q < Q(zeta3) <
# Q(zeta3, sqrt2), re-read ones among them, give the data of lifting first
# ---------------------------------------------------------------------------

def _lifted_matrix(m, tower):
    return ExactMatrix([lifted_first(r, tower) for r in m.rows], tower)


@PROFILE
@given(st.tuples(_two_towers, st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda a: st.tuples(_matrices(a[0][0], a[1], a[2]), _matrices(a[0][1], a[2], a[1]),
                        st.lists(sparse_elements(a[0][1]), min_size=a[2], max_size=a[2]))))
def test_mixed_products_give_the_data_of_lifting_first(mbv):
    m, b, v = mbv
    L = larger_of(m.tower, b.tower)
    ml, bl = _lifted_matrix(m, L), _lifted_matrix(b, L)
    assert data(m.mat_vec(v)) == data(ml.mat_vec(lifted_first(v, L)))
    for got, want in (m * b, ml * bl), (b * m, bl * ml):
        assert got.tower == L and [data(r) for r in got.rows] == [data(r) for r in want.rows]


_MONOMIALS = [(a, b) for a in range(4) for b in range(a, 4)]  # n = 2: four coordinates


def _forms(tower):
    return st.lists(st.dictionaries(st.sampled_from(_MONOMIALS), sparse_elements(tower),
                                    min_size=1, max_size=4), min_size=1, max_size=3)


@PROFILE
@given(_two_towers.flatmap(lambda kl: st.tuples(
    st.just(kl[0]), _forms(kl[0]), st.lists(sparse_elements(kl[1]), min_size=4, max_size=4))))
def test_mixed_quadric_evaluation_gives_the_data_of_lifting_first(kfz):
    K, forms, z = kfz
    L = larger_of(K, z[0].tower)
    lifted = [dict(zip(f, lifted_first(f.values(), L))) for f in forms]
    want = QuadricSystem(L, 2, lifted).evaluate_all(lifted_first(z, L))
    assert data(QuadricSystem(K, 2, forms).evaluate_all(z)) == data(want)
