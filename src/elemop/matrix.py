"""Dense matrices over the Gaussian rationals.

Matrices are immutable, so sharing them across threads is safe; shape
mismatches raise ShapeError naming both shapes.  Vectorization stacks the
columns top to bottom, which makes vec(A*X*B) == kron(B.T, A) * vec(X).

Every operation runs on a matrix's Gaussian-integer form (D, D*A), D the
least common denominator of all real and imaginary parts, held as tuples of
int rows (imaginary rows None when A is real).  The form is canonical, so
`==` and `hash` are taken of it, and each result is built from its form by
`_from_integer_form`, which divides out one gcd.  The form is all a matrix
holds, and nothing writes to a matrix once it is built.  An entry enters
and leaves the form in one int shape, the cell (re, im, den) of
(re + i*im)/den, as a `GaussianRational` stores its ints.  `Matrix(rows)`,
the JSON reader (`elemop.jsonio`) and the generators (`elemop.lab`) all
build the form through `_from_parts` from cells; `Matrix(rows)` takes each
entry's canonical ints as its cell.  The form is read cell by cell only
through `_cells`, one walk over its distinct cells, whose cells
`_from_parts` turns back into the same matrix: the entry readers (`str`,
row indexing, `entries`, `row_list`) build the entries with it and
`scalars._gaussian` when called, and `jsonio` writes entry texts with it.
Indexing by a pair (i, j) builds only that entry, from its one cell.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError
from .scalars import GaussianRational, _gaussian, _parts, as_scalar


class Matrix:
    __slots__ = ("rows", "cols", "_form")

    def __init__(self, rows: Sequence[Sequence]):
        cells = [list(map(_parts, map(as_scalar, row))) for row in rows]
        if cells and cells[0] and any(len(row) != len(cells[0]) for row in cells):
            raise ShapeError("ragged rows: all rows must have equal length")
        built = Matrix._from_parts(cells)
        self.rows, self.cols, self._form = built.rows, built.cols, built._form

    # ---- construction ----------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_integer_form(1, [[int(i == j) for j in range(n)] for i in range(n)], None)

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "Matrix":
        return cls._from_integer_form(1, [[0] * (rows if cols is None else cols)] * rows, None)

    @classmethod
    def _from_parts(cls, cells) -> "Matrix":
        """The matrix of int cells (re, im, den) row by row, any nonzero denominators:
        the form over their lcm, reduced by `_from_integer_form`; the inverse of `_cells`.
        A real input builds no imaginary rows."""
        scale = lcm(*(c[2] for row in cells for c in row))

        def part(k):
            return [[c[k] * (scale // c[2]) for c in row] for row in cells]

        real = not any(c[1] for row in cells for c in row)
        return cls._from_integer_form(scale, part(0), None if real else part(1))

    @classmethod
    def _from_integer_form(cls, scale: int, re, im) -> "Matrix":
        """(re + i*im) / scale for int rows (im may be None)."""
        if not re or not re[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        g = gcd(scale, *chain(*re, *(im or ())))
        re, im = (p and (tuple(map(tuple, p)) if g == 1 else
                         tuple(tuple(x // g for x in row) for row in p)) for p in (re, im))
        out = cls.__new__(cls)
        out.rows, out.cols = len(re), len(re[0])
        out._form = (scale // g, (re, im if im and any(map(any, im)) else None))
        return out

    # ---- shape -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return _is_zero(self._form[1])

    def _shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    # ---- access ----------------------------------------------------------
    def _cells(self, convert) -> list[list]:
        """convert(re, im, scale) of each cell (re + i*im)/scale of the form,
        row by row, in fresh lists: one call and one object per distinct cell."""
        scale, (re, im) = self._form
        cells = [list(zip(rr, ri)) for rr, ri in zip(re, im or repeat(repeat(0)))]
        value = {c: convert(*c, scale) for c in set(chain.from_iterable(cells))}
        return [list(map(value.__getitem__, row)) for row in cells]

    def _entry_rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return tuple(map(tuple, self._cells(_gaussian)))

    def __getitem__(self, key):
        """The entry at an (i, j) key, built from its one cell; for a row
        index or a slice, what the tuple of entry rows gives."""
        if isinstance(key, tuple):
            scale, (re, im) = self._form
            i, j = key
            return _gaussian(re[i][j], im[i][j] if im else 0, scale)
        return self._entry_rows()[key]

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        return ((i, j, e) for i, row in enumerate(self._entry_rows()) for j, e in enumerate(row))

    def row_list(self) -> list[list[GaussianRational]]:
        return self._cells(_gaussian)

    # ---- arithmetic --------------------------------------------------------
    def __add__(self, other):
        return self._combine(other, add, "cannot add {0} and {1}")

    def __sub__(self, other):
        return self._combine(other, sub, "cannot subtract {1} from {0}")

    def _combine(self, other, op, message: str):
        """self op other for op add or sub, over the lcm of the two scales."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(message.format(self._shape_str(), other._shape_str()))
        (sa, (ar, ai)), (sb, (br, bi)) = self._form, other._form
        scale = lcm(sa, sb)
        fa, fb = scale // sa, scale // sb
        return Matrix._from_integer_form(scale, _mix(fa, ar, op, fb, br),
                                         _mix(fa, ai, op, fb, bi) if ai or bi else None)

    def __neg__(self):
        return _moved(self, lambda p: [[-x for x in row] for row in p])

    def __mul__(self, other):
        return self._matmul(other) if isinstance(other, Matrix) else self.__rmul__(other)

    def __rmul__(self, other):
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        # (cr + i*ci)/cs times (re + i*im)/scale
        cr, ci, cs = c.re_num, c.im_num, c.den
        scale, (re, im) = self._form
        return Matrix._from_integer_form(cs * scale, _mix(cr, re, sub, ci, im),
                                         _mix(cr, im, add, ci, re) if im or ci else None)

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self._shape_str()} by {other._shape_str()}")
        (sa, a), (sb, b) = self._form, other._form
        return Matrix._from_integer_form(sa * sb, *_gaussian_matmul(a, b))

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ShapeError(f"cannot raise non-square {self._shape_str()} to a power")
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Matrix.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result

    # ---- square-only helpers ----------------------------------------------
    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ShapeError(f"trace of non-square {self._shape_str()}")
        scale, parts = self._form
        return _gaussian(*_trace(parts), scale)

    @property
    def T(self) -> "Matrix":
        return _moved(self, lambda p: list(zip(*p)))

    def transpose(self) -> "Matrix":
        return self.T

    # ---- value semantics ----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._form == other._form

    def __hash__(self):
        return hash(self._form)

    def __str__(self):
        rows = ("[" + ", ".join(map(str, row)) + "]" for row in self._entry_rows())
        return "[" + ", ".join(rows) + "]"

    def __repr__(self):
        return f"Matrix({self})"


# ---- Z[i] helpers and kernels -------------------------------------------------------
# A Z[i] matrix is a pair (re, im) of int-row sequences, im None when real.
# Products, Kronecker products and matrix-vector steps come back as fresh
# lists; nothing is summed in place.  Each costs one int kernel call (product,
# Kronecker product or step) per real pair of factors, two with one Gaussian
# factor (products only), three (Gauss's trick) with two.  `kron` and
# `operators.superoperator` share `_gaussian_kron`.

def _moved(m: Matrix, move) -> Matrix:
    """The matrix whose form is m's with move applied to each of its parts."""
    scale, parts = m._form
    return Matrix._from_integer_form(scale, *(p and move(p) for p in parts))


def _mix(f, x, op, g, y):
    """op(f*x, g*y) entry by entry for int rows x and y, either None for zeros."""
    return [[op(f * u, g * v) for u, v in zip(p, q)]
            for p, q in zip(x or repeat(repeat(0)), y or repeat(repeat(0)))]


def _trace(x) -> tuple[int, int]:
    """(tr re, tr im) of a square Z[i] matrix (re, im)."""
    (re, im), n = x, range(len(x[0]))
    return sum(re[i][i] for i in n), 0 if im is None else sum(im[i][i] for i in n)


def _is_zero(x) -> bool:
    return not any(map(any, chain(x[0], x[1] or ())))


def _add_rows(x, y):
    """x + y entry by entry for int rows x and y."""
    return [list(map(add, p, q)) for p, q in zip(x, y)]


def _int_matmul(x, y):
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _int_kron(x, y):
    """kron(x, y) for int rows x and y, in one pass."""
    return [[u * v for u in xrow for v in yrow] for xrow in x for yrow in y]


def _gaussian_product(kernel, x, y):
    """kernel(xr + i*xi, yr + i*yi) for a bilinear int kernel; im stays None
    for real x, y.  One kernel call for real x and y, two with one of them
    Gaussian, three (Gauss's trick) with both."""
    (xr, xi), (yr, yi) = x, y
    rr = kernel(xr, yr)
    if xi is None and yi is None:
        return rr, None
    if xi is None or yi is None:  # one factor is real: no i*i term
        return rr, kernel(xr, yi) if xi is None else kernel(xi, yr)
    ii = kernel(xi, yi)
    # im = xr*yi + xi*yr = (xr + xi)(yr + yi) - rr - ii
    ss = kernel(_add_rows(xr, xi), _add_rows(yr, yi))
    return (
        [list(map(sub, p, q)) for p, q in zip(rr, ii)],
        [[s - r - i for s, r, i in zip(*rows)] for rows in zip(ss, rr, ii)],
    )


def _gaussian_matmul(x, y):
    """x y over Z[i] for any conformable shapes."""
    return _gaussian_product(_int_matmul, x, y)


def _gaussian_kron(x, y):
    """kron(x, y) over Z[i] for any shapes."""
    return _gaussian_product(_int_kron, x, y)


def _gaussian_matvec(b, bs, v):
    """(br + i*bi)(vr + i*vi) for a Z[i] matrix b, bs = br + bi (None when b is
    real) and a Z[i] vector v = (vr, vi) of int lists, vi None exactly when b
    is real, as for every iterate of b on a column of b; im stays None for a
    real b.  One int step for a real b, three (Gauss's trick, over the
    caller's bs) for a Gaussian one."""
    (br, bi), (vr, vi) = b, v

    def step(x, y):
        return [sum(map(mul, row, y)) for row in x]

    rr = step(br, vr)
    if bi is None:
        return rr, None
    ii = step(bi, vi)
    ss = step(bs, list(map(add, vr, vi)))
    return list(map(sub, rr, ii)), [s - r - i for s, r, i in zip(ss, rr, ii)]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    (sa, x), (sb, y) = a._form, b._form
    return Matrix._from_integer_form(sa * sb, *_gaussian_kron(x, y))


def vec(x: Matrix) -> Matrix:
    """Column-stack x into an (rows*cols) x 1 column vector."""
    return _moved(x, lambda p: [[e] for col in zip(*p) for e in col])


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of vec for the given target shape."""
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(f"cannot reshape {v.rows}x{v.cols} into {rows}x{cols}: "
                         f"need {rows * cols}x1")
    return _moved(v, lambda p: [[p[j * rows + i][0] for j in range(cols)] for i in range(rows)])


def rank_one(f: Matrix, x: Matrix) -> Matrix:
    """The operator z -> f(z)*x as the matrix x*f, for a row f and column x."""
    if f.rows != 1 or x.cols != 1 or f.cols != x.rows:
        raise ShapeError("rank_one needs a 1xd row and a dx1 column, "
                         f"got {f.rows}x{f.cols} and {x.rows}x{x.cols}")
    return x * f


def matrix_poly(coeffs: Sequence, a: Matrix) -> Matrix:
    """Evaluate the polynomial with the given coefficients (constant first) at a."""
    if not a.is_square:
        raise ShapeError(f"polynomial of non-square {a.rows}x{a.cols}")
    ident, result = Matrix.identity(a.rows), Matrix.zero(a.rows)
    for c in reversed([as_scalar(c) for c in coeffs]):
        result = result * a + c * ident
    return result


def basis_matrix(n: int, i: int, j: int) -> Matrix:
    """The n x n matrix with a single 1 in position (i, j), for 0 <= i, j < n;
    any other position raises ShapeError."""
    if not (0 <= i < n and 0 <= j < n):
        raise ShapeError(f"position ({i}, {j}) is outside a {n}x{n} matrix")
    return Matrix._from_integer_form(
        1, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)], None
    )


def column_vector(entries: Iterable) -> Matrix:
    return Matrix([[e] for e in entries])


def row_vector(entries: Iterable) -> Matrix:
    return Matrix([list(entries)])
