"""Dense matrices over the Gaussian rationals.

Matrices are immutable, so sharing them across threads is safe; shape
mismatches raise ShapeError naming both shapes.  Vectorization stacks the
columns top to bottom, which makes vec(A*X*B) == kron(B.T, A) * vec(X).

Every operation runs on a matrix's Gaussian-integer form (D, D*A), D the
least common denominator of all real and imaginary parts, held as tuples of
int rows (imaginary rows None when A is real), through the Z[i] kernels of
`elemop._zi`.  The form is canonical, so `==` and `hash` are taken of it,
and each result is built from its form by `_from_integer_form`, which
divides out the gcd of the scale and every part.  A scale of 2**64 or more
first takes one gcd with the sum of the parts, and the parts are walked only
when that leaves a factor above 1; a narrower scale walks them at once, and
a scale of 1 not at all (see `_from_integer_form` for why the cutoff).  The form is all a matrix holds, and nothing writes
to a matrix once it is built.  An entry enters and leaves the form in one
int shape, the cell (re, im, den) of (re + i*im)/den, as a
`GaussianRational` stores its ints.  `Matrix(rows)`, the JSON reader
(`elemop.jsonio`) and the generators (`elemop.lab`) all build the form
through `_from_parts` from cells; `Matrix(rows)` takes each entry's
canonical ints as its cell.  The whole form is read through `_cells`, one
walk over its distinct cells, whose cells `_from_parts` turns back into the
same matrix: the entry readers (`str`, row indexing, `row_list`) build the
entries with it and `scalars._gaussian` when called, and `jsonio` writes
entry texts with it.  Indexing by a pair (i, j) builds only that entry, from
its one cell, and `entries` builds each entry only when it reaches it.

Work that chains several steps stays on the form and builds one matrix at
the end: `matrix_poly` runs Horner's rule on Z[i] products over one common
denominator, `A.plus_scalar(c)` forms A + c*I by adding to the diagonal,
and `A.commutes_with(B)` compares the int parts of AB and BA, which share a
scale.  `A ** k` squares and multiplies, about 2*log2(k) products.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from . import _zi
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
        """(re + i*im) / scale for int rows (im may be None), reduced by the
        gcd g of the scale and every entry part.  g divides
        h = gcd(scale, sum of the parts) and is gcd(h, *parts), so a scale of
        2**64 or more takes h first and walks the parts only when h is not 1:
        such a scale is an lcm of wide denominators, and the walk's gcds
        against it stay above 1 for many parts.  A narrower scale is h itself,
        so its parts are walked at once: for the small ints of narrow forms h
        is mostly above 1, so the sum would add a pass, not save the walk.
        A scale of 1 takes no gcd."""
        if not re or not re[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        h = gcd(scale, sum(map(sum, chain(re, im or ())))) if scale >> 64 else scale
        g = 1 if h == 1 else gcd(h, *chain(*re, *(im or ())))
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
        return _zi.is_zero(self._form[1])

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

    def __getitem__(self, key):
        """The entry at an (i, j) key; for a row index, the tuple of that
        row's entries, and for a slice, the tuple of those rows.  Only the
        entries returned are built, each from its own cell."""
        scale, (re, im) = self._form
        if isinstance(key, tuple):
            i, j = key
            return _gaussian(re[i][j], im[i][j] if im else 0, scale)
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(self.rows)[key]))
        return tuple(map(_gaussian, re[key], im[key] if im else repeat(0), repeat(scale)))

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        """(i, j, entry) in row-major order, each entry built from its cell
        only when reached, so a search that stops early builds no more."""
        scale, (re, im) = self._form
        for i, (rr, ri) in enumerate(zip(re, im or repeat(repeat(0)))):
            for j, cell in enumerate(zip(rr, ri)):
                yield i, j, _gaussian(*cell, scale)

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
        return Matrix._from_integer_form(scale, _zi.mix(fa, ar, op, fb, br),
                                         _zi.mix(fa, ai, op, fb, bi) if ai or bi else None)

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
        return Matrix._from_integer_form(cs * scale, _zi.mix(cr, re, sub, ci, im),
                                         _zi.mix(cr, im, add, ci, re) if im or ci else None)

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self._shape_str()} by {other._shape_str()}")
        (sa, a), (sb, b) = self._form, other._form
        return Matrix._from_integer_form(sa * sb, *_zi.gaussian_matmul(a, b))

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ShapeError(f"cannot raise non-square {self._shape_str()} to a power")
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # square and multiply: each factor is a Z[i] product reduced by its gcd
        result, square = None, self
        while k:
            if k & 1:
                result = square if result is None else result * square
            k >>= 1
            if k:
                square = square * square
        return Matrix.identity(self.rows) if result is None else result

    def commutes_with(self, other: "Matrix") -> bool:
        """Whether self * other == other * self, from the two Z[i] products with
        no matrix built: both have the scale of self times that of other, so
        they are equal exactly when their int parts are."""
        for x, y in ((self, other), (other, self)):
            if x.cols != y.rows:
                raise ShapeError(f"cannot multiply {x._shape_str()} by {y._shape_str()}")
        x, y = self._form[1], other._form[1]
        return _zi.gaussian_matmul(x, y) == _zi.gaussian_matmul(y, x)

    # ---- square-only helpers ----------------------------------------------
    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ShapeError(f"trace of non-square {self._shape_str()}")
        scale, parts = self._form
        return _gaussian(*_zi.trace(parts), scale)

    def plus_scalar(self, c) -> "Matrix":
        """self + c*I for a scalar c, on the form over the lcm of self's scale
        and c's denominator: only the diagonal gains a term."""
        if not self.is_square:
            raise ShapeError(f"cannot shift non-square {self._shape_str()} by a scalar")
        c = as_scalar(c)
        scale, x = self._form
        s = lcm(scale, c.den)
        f = s // c.den
        return Matrix._from_integer_form(
            s, *_zi.plus_diagonal(x, (s // scale, 0), (f * c.re_num, f * c.im_num)))

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
        rows = ("[" + ", ".join(map(str, row)) + "]" for row in self.row_list())
        return "[" + ", ".join(rows) + "]"

    def __repr__(self):
        return f"Matrix({self})"


def _moved(m: Matrix, move) -> Matrix:
    """The matrix whose form is m's with move applied to each of its parts."""
    scale, parts = m._form
    return Matrix._from_integer_form(scale, *(p and move(p) for p in parts))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    (sa, x), (sb, y) = a._form, b._form
    return Matrix._from_integer_form(sa * sb, *_zi.gaussian_kron(x, y))


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
    """Evaluate the polynomial with the given coefficients (constant first) at a.

    Horner's rule on the form (D, X), X = D*a: with L the lcm of the
    coefficients' denominators and m the degree, L D^m p(a) = sum_k
    (L c_k) D^(m-k) X^k has Gaussian-integer coefficients, so each step is
    one Z[i] product and a diagonal, and the result is reduced once.
    """
    if not a.is_square:
        raise ShapeError(f"polynomial of non-square {a.rows}x{a.cols}")
    cs = [as_scalar(c) for c in coeffs]
    if not cs:
        return Matrix.zero(a.rows)
    scale, x = a._form
    den, m = lcm(*(c.den for c in cs)), len(cs) - 1

    def term(k, c):  # (L c_k) D^(m-k) as a Gaussian int
        f = den // c.den * scale ** (m - k)
        return f * c.re_num, f * c.im_num

    *low, top = (term(k, c) for k, c in enumerate(cs))
    h = _zi.plus_diagonal(x, top, low.pop()) if low else _zi.plus_diagonal(x, (0, 0), top)
    while low:
        h = _zi.plus_diagonal(_zi.gaussian_matmul(h, x), (1, 0), low.pop())
    return Matrix._from_integer_form(den * scale**m, *h)


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
