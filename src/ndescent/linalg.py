"""Exact linear algebra over field towers.

Matrices hold FieldElement entries in one tower, which construction
finds and brings every entry into by the tower rule of ndescent.fields.
Everything runs Gauss-Jordan with exact division.  A matrix product or
matrix-vector product brings its operands into one tower once and takes
each entry as one fields._dot, reduced once.
"""

from .fields import _common_tower, _dot, _into, _larger


class NoSolution(Exception):
    pass


def _require(ok, message):
    """A caller's shape or tower error is a ValueError, under python -O too."""
    if not ok:
        raise ValueError(message)


class ExactMatrix:

    __slots__ = ("tower", "nrows", "ncols", "rows")

    def __init__(self, rows, tower=None):
        rows = [list(r) for r in rows]
        _require(rows and rows[0], "matrix needs at least one row and column")
        ncols = len(rows[0])
        _require(all(len(r) == ncols for r in rows), "ragged rows")
        if tower is None:
            tower = _common_tower(e for r in rows for e in r)
        self.tower = tower
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = [[_into(e, tower) for e in r] for r in rows]

    @staticmethod
    def identity(n, tower):
        one, zero = tower.one(), tower.zero()
        return ExactMatrix([[one if i == j else zero for j in range(n)] for i in range(n)], tower)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows  # entry by entry, shapes included

    def __add__(self, other):
        _require((self.nrows, self.ncols) == (other.nrows, other.ncols), "shapes differ")
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        _require((self.nrows, self.ncols) == (other.nrows, other.ncols), "shapes differ")
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return ExactMatrix([[-a for a in r] for r in self.rows], self.tower)

    def scale(self, c):
        return ExactMatrix([[c * a for a in r] for r in self.rows])

    def _rows_over(self, tower):
        return self.rows if tower is self.tower else [[_into(e, tower) for e in r]
                                                      for r in self.rows]

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            _require(self.ncols == other.nrows, "dimension mismatch")
            tower = _larger(self.tower, other.tower)
            cols = list(zip(*other._rows_over(tower)))
            return ExactMatrix([[_dot(r, c) for c in cols] for r in self._rows_over(tower)],
                               tower)
        return NotImplemented

    def mat_vec(self, v):
        _require(len(v) == self.ncols, "vector length is not the column count")
        tower = _common_tower(v, self.tower)
        v = [_into(e, tower) for e in v]
        return [_dot(r, v) for r in self._rows_over(tower)]

    def trace(self):
        _require(self.nrows == self.ncols, "only square matrices have a trace")
        s = self.tower.zero()
        for i in range(self.nrows):
            s = s + self.rows[i][i]
        return s

    def _rref(self):
        """Reduced row echelon form; returns (rows, pivot column list, pivot
        values), each value negated when its row was swapped in, so that
        their product is the determinant of a square matrix of full rank."""
        rows = [list(r) for r in self.rows]
        pivots, values = [], []
        r = 0
        for c in range(self.ncols):
            pr = None
            for i in range(r, self.nrows):
                if not rows[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            values.append(rows[r][c] if pr == r else -rows[r][c])
            inv = rows[r][c].inverse()
            rows[r] = [inv * e for e in rows[r]]
            for i in range(self.nrows):
                if i == r or rows[i][c].is_zero():
                    continue
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return rows, pivots, values

    def rank(self):
        return len(self._rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column, in
        ascending free-column order."""
        rows, pivots, _ = self._rref()
        pivot_set = set(pivots)
        zero, one = self.tower.zero(), self.tower.one()
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [zero] * self.ncols
            v[free] = one
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][free]
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution of A x = b (free variables zero); NoSolution if none."""
        _require(len(b) == self.nrows, "right-hand side length is not the row count")
        b = [_into(e, self.tower) for e in b]
        aug = ExactMatrix([self.rows[i] + [b[i]] for i in range(self.nrows)], self.tower)
        rows, pivots, _ = aug._rref()
        if pivots and pivots[-1] == self.ncols:
            raise NoSolution("inconsistent linear system")
        x = [self.tower.zero()] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.ncols]
        return x

    def inverse(self):
        _require(self.nrows == self.ncols, "only square matrices invert")
        n = self.nrows
        ident = ExactMatrix.identity(n, self.tower)
        aug = ExactMatrix([self.rows[i] + ident.rows[i] for i in range(n)], self.tower)
        rows, pivots, _ = aug._rref()
        if pivots[:n] != list(range(n)):
            raise NoSolution("matrix is singular")
        return ExactMatrix([r[n:] for r in rows[:n]], self.tower)

    def det(self):
        """The product of the pivot values of _rref, 0 below full rank."""
        _require(self.nrows == self.ncols, "only square matrices have a determinant")
        _, pivots, values = self._rref()
        d = self.tower.one() if len(pivots) == self.nrows else self.tower.zero()
        for v in values:
            d = d * v
        return d

    def __repr__(self):
        return "ExactMatrix(%d x %d over %r)" % (self.nrows, self.ncols, self.tower)

