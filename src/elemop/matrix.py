"""Dense matrices over the Gaussian rationals.

Matrices are immutable; every operation returns a fresh value, so sharing
across threads is safe.  Shape mismatches raise ShapeError naming both
shapes.  The vectorization convention is column stacking: vec concatenates
the columns top to bottom, which makes vec(A*X*B) == kron(B.T, A) * vec(X).

Every matrix has a Gaussian-integer form (D, D*A), D the lcm of every real
and imaginary denominator, held in a private slot as tuples of int rows
(imaginary rows None when A is real).  The form is canonical: D is the
least positive scale, so two matrices are equal exactly when their forms
are; `==` compares forms when both are at hand, and `hash` is taken of
the form.  Matrix products run on forms, in the one Z[i] product kernel
below, which `nilpotency` also uses; `operators` assembles superoperators
on them.  A matrix built from entries fills its form on first use; a
product or a superoperator keeps only its form and builds its entries the
first time they are read.  Both fills compute one value from immutable
inputs and store it in a single slot assignment, so they are idempotent:
threads racing on a fill store equal values, and a reader never sees a
half-built one.  New entries mean a new Matrix, and tuple rows cannot be
written.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, attrgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError
from .scalars import ZERO, ONE, GaussianRational, as_scalar


class Matrix:
    __slots__ = ("_rows", "rows", "cols", "_form")

    def __init__(self, rows: Sequence[Sequence]):
        coerced = tuple(tuple(as_scalar(e) for e in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        width = len(coerced[0])
        if any(len(row) != width for row in coerced):
            raise ShapeError("ragged rows: all rows must have equal length")
        self._rows = coerced
        self.rows = len(coerced)
        self.cols = width
        self._form = None

    # ---- construction ----------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def _from_integer_form(cls, scale: int, re, im) -> "Matrix":
        """(re + i*im) / scale for int rows (im may be None); entries wait for a read."""
        g = gcd(scale, *chain(*re, *(im or ())))
        re, im = (p and tuple(tuple(x // g for x in row) for row in p) for p in (re, im))
        out = cls.__new__(cls)
        out.rows, out.cols = len(re), len(re[0])
        out._form = (scale // g, (re, im if im and any(map(any, im)) else None))
        return out

    def __getattr__(self, name):
        # only `_rows` is ever unset: a matrix made by _from_integer_form
        # builds its entries here on first read, each distinct value once
        if name != "_rows":
            raise AttributeError(name)
        scale, (re, im) = self._form
        cells = [tuple(zip(rr, ri)) for rr, ri in zip(re, im or repeat(repeat(0)))]
        value = {c: GaussianRational(Fraction(c[0], scale), Fraction(c[1], scale))
                 for c in set(chain.from_iterable(cells))}
        self._rows = tuple(tuple(map(value.__getitem__, row)) for row in cells)
        return self._rows

    def _integer_form(self):
        """(D, (re, im)): D times this matrix as int rows, computed once."""
        if self._form is None:
            rows = self._rows
            scale = lcm(*(p.denominator for row in rows for e in row for p in (e.re, e.im)))
            re, im = (
                tuple(tuple(p.numerator * (scale // p.denominator) for p in map(part, row))
                      for row in rows)
                for part in (attrgetter("re"), attrgetter("im"))
            )
            self._form = (scale, (re, im if any(map(any, im)) else None))
        return self._form

    # ---- shape -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return all(not e for row in self._rows for e in row)

    def _shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    # ---- access ----------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self._rows[i][j]
        return self._rows[key]

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        for i, row in enumerate(self._rows):
            for j, e in enumerate(row):
                yield i, j, e

    def row_list(self) -> list[list[GaussianRational]]:
        return [list(row) for row in self._rows]

    # ---- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self._shape_str()} and {other._shape_str()}")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(
                f"cannot subtract {other._shape_str()} from {self._shape_str()}"
            )
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-e for e in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return Matrix([[e * c for e in row] for row in self._rows])

    def __rmul__(self, other):
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return Matrix([[c * e for e in row] for row in self._rows])

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self._shape_str()} by {other._shape_str()}"
            )
        (sa, a), (sb, b) = self._integer_form(), other._integer_form()
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
        t = ZERO
        for i in range(self.rows):
            t = t + self._rows[i][i]
        return t

    @property
    def T(self) -> "Matrix":
        return Matrix(list(zip(*self._rows)))

    def transpose(self) -> "Matrix":
        return self.T

    # ---- value semantics ----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._form is not None and other._form is not None:
            return self._form == other._form
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        # on the canonical form, so equal matrices hash equal and hashing
        # a product or a superoperator builds no entries
        return hash(self._integer_form())

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self._rows
        ) + "]"

    def __repr__(self):
        return f"Matrix({self})"


# ---- Z[i] product kernel -------------------------------------------------------
# A matrix over Z[i] is a pair (re, im) of sequences of int rows, im None when
# every entry is real.  Products come back as fresh lists, which callers may
# update in place.  The cost is the number of int-matrix products, not the
# size of their entries, so a Gaussian product takes as few as it can: one
# when both factors are real, two when one is, and three (Gauss's trick) when
# neither is.

def _int_matmul(x, y):
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _gaussian_matmul(x, y):
    """(xr + i*xi)(yr + i*yi) for any conformable shapes; im stays None for real x, y."""
    (xr, xi), (yr, yi) = x, y
    rr = _int_matmul(xr, yr)
    if xi is None and yi is None:
        return rr, None
    if xi is None or yi is None:  # one factor is real: no i*i term
        return rr, _int_matmul(xr, yi) if xi is None else _int_matmul(xi, yr)
    ii = _int_matmul(xi, yi)
    # im = xr*yi + xi*yr = (xr + xi)(yr + yi) - rr - ii
    ss = _int_matmul(_int_add(xr, xi), _int_add(yr, yi))
    return (
        [list(map(sub, p, q)) for p, q in zip(rr, ii)],
        [[s - r - i for s, r, i in zip(*rows)] for rows in zip(ss, rr, ii)],
    )


def _int_add(x, y):
    return [list(map(add, p, q)) for p, q in zip(x, y)]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    out = []
    for arow in a.row_list():
        for brow in b.row_list():
            out.append([ae * be for ae in arow for be in brow])
    return Matrix(out)


def vec(x: Matrix) -> Matrix:
    """Column-stack x into an (rows*cols) x 1 column vector."""
    return Matrix([[x[i, j]] for j in range(x.cols) for i in range(x.rows)])


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of vec for the given target shape."""
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(
            f"cannot reshape {v.rows}x{v.cols} into {rows}x{cols}: need {rows * cols}x1"
        )
    return Matrix([[v[j * rows + i, 0] for j in range(cols)] for i in range(rows)])


def rank_one(f: Matrix, x: Matrix) -> Matrix:
    """The operator z -> f(z)*x as the matrix x*f, for a row f and column x."""
    if f.rows != 1 or x.cols != 1 or f.cols != x.rows:
        raise ShapeError(
            f"rank_one needs a 1xd row and a dx1 column, got {f.rows}x{f.cols} and {x.rows}x{x.cols}"
        )
    return x * f


def matrix_poly(coeffs: Sequence, a: Matrix) -> Matrix:
    """Evaluate the polynomial with the given coefficients (constant first) at a."""
    if not a.is_square:
        raise ShapeError(f"polynomial of non-square {a.rows}x{a.cols}")
    scalars = [as_scalar(c) for c in coeffs]
    result = Matrix.zero(a.rows)
    for c in reversed(scalars):
        result = result * a + c * Matrix.identity(a.rows)
    return result


def basis_matrix(n: int, i: int, j: int) -> Matrix:
    """The n x n matrix with a single 1 in position (i, j)."""
    return Matrix(
        [[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)]
    )


def column_vector(entries: Iterable) -> Matrix:
    return Matrix([[e] for e in entries])


def row_vector(entries: Iterable) -> Matrix:
    return Matrix([list(entries)])
