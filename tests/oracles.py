"""Test references over library objects.

The pipeline never multiplies two elements of the twisted algebra,
differentiates a function or builds an osculating row, so these live
here, as the pairing does in weil_oracle.py.  The tests check the
library's certificates against them:
  - the twisted group algebra of a CSA, with elements as dicts
    {ij: coefficient} over the delta basis in table order: delta, one,
    mult, left_mult_matrix and the reduced trace trd;
  - the affine coordinates (1, x, y, ...) of the embedding and its
    osculating rows;
  - d/dx of a polynomial, and of a function along the curve;
  - the zero matrix, and the unit cochain gamma = 1, with which g_eval
    is the covering map of E itself;
  - a point over an extension field, and affine samples with distinct x
    (the pipeline's one draw filter lives in sample_images).
"""

from fractions import Fraction

from ndescent.curve import Point, slope
from ndescent.descent_funcs import affine_sample
from ndescent.fields import Poly
from ndescent.funcfield import FunctionFieldElement
from ndescent.linalg import ExactMatrix


def delta(csa, ij):
    K = csa.table.curve.field
    out = {k: K.zero() for k in csa.table.indices}
    out[ij] = K.one()
    return out


def one(csa):
    return delta(csa, (0, 0))


def mult(csa, x, y):
    out = {k: None for k in csa.table.indices}
    for a, xa in x.items():
        if xa.is_zero():
            continue
        for b, yb in y.items():
            if yb.is_zero():
                continue
            t = csa.table.add_index(a, b)
            term = csa.c(a, b) * xa * yb
            out[t] = term if out[t] is None else out[t] + term
    zero = csa.table.curve.field.zero()
    return {k: (v if v is not None else zero) for k, v in out.items()}


def left_mult_matrix(csa, x):
    """Matrix of y -> x * y on coordinate vectors in table order."""
    table = csa.table
    rows = [[None] * len(table) for _ in table]
    zero = table.curve.field.zero()
    for bcol, b in enumerate(table.indices):
        for a, xa in x.items():
            t = table.add_index(a, b)
            trow = table.flat(t)
            term = csa.c(a, b) * xa
            cur = rows[trow][bcol]
            rows[trow][bcol] = term if cur is None else cur + term
    rows = [[e if e is not None else zero for e in r] for r in rows]
    return ExactMatrix(rows, csa.table.curve.field)


def trd(csa, x):
    """Reduced trace: trace of left multiplication divided by n."""
    return left_mult_matrix(csa, x).trace() * Fraction(1, csa.table.n)


def embedding_values(curve, n, p):
    """The coordinates (1, x, y, x^2, ...) of the embedding by L(n(O)) at
    an affine point, in the monomial order of descent_funcs."""
    return ([p.x ** i for i in range(n // 2 + 1)]
            + [p.x ** i * p.y for i in range((n - 3) // 2 + 1)])


def dual_row(emb, p):
    """The osculating hyperplane of the degree-3 embedding at an affine
    point, its tangent line, as a coefficient vector."""
    field = emb.table.curve.field
    if p.y.is_zero():
        # vertical tangent at a two-torsion point
        drow = [field.zero(), field.zero(), field.one()]
    else:
        drow = [field.zero(), field.one(), slope(p, p)]
    kern = ExactMatrix([embedding_values(p.curve, 3, p), drow]).kernel_basis()
    assert len(kern) == 1
    return kern[0]


def poly_derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:], p.tower)


def derivative(f):
    """d/dx along the curve, using y' = (3x^2 + a)/(2y)."""
    c = f.curve
    du, dv, dw = poly_derivative(f.u), poly_derivative(f.v), poly_derivative(f.w)
    main = FunctionFieldElement(c, du * f.w - f.u * dw, dv * f.w - f.v * dw, f.w * f.w)
    # v * y' = v * rhs' / (2y) = (v rhs' / 2) * y / rhs
    rhs = c.rhs_poly()
    vterm = FunctionFieldElement(c, 0, Fraction(1, 2) * (f.v * poly_derivative(rhs)), rhs * f.w)
    return main + vterm


def zero_matrix(nrows, ncols, tower):
    z = tower.zero()
    return ExactMatrix([[z] * ncols for _ in range(nrows)], tower)


def unit_cochain(table):
    return {ij: table.curve.field.one() for ij in table.indices}


def base_change(p, field):
    """The point p of a curve as a point of the curve over an extension
    field."""
    c = p.curve.base_change(field)
    if p.is_infinity:
        return Point.at_infinity(c)
    return Point(c, p.x.lift_to(field), p.y.lift_to(field))


def distinct_samples(curve, n, rng, prefix, count):
    """count points of affine_sample with distinct x, the k-th over a
    level named prefix + str(k); a draw that repeats an earlier x is
    dropped and drawn again."""
    points, seen = [], set()
    while len(points) < count:
        p = affine_sample(curve, n, rng, "%s%d" % (prefix, len(points)))
        x = p.x.as_fraction()
        if x not in seen:
            seen.add(x)
            points.append(p)
    return points
