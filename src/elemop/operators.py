"""Elementary operators X -> sum_i A_i X B_i as first-class values.

An operator is a nonempty ordered list of coefficient pairs over one
dimension.  Its constructor is the one check of the coefficients' shapes:
the `make_*` constructors and the criteria leave it to that.  The term list
is a representation, not an identity: two different lists can induce the
same linear map, so `op_equal` compares the superoperator matrices instead.

The superoperator of X -> sum_i A_i X B_i under column-stacking vec is
sum_i kron(B_i.T, A_i); it satisfies superop * vec(X) == vec(op(X)) for
every X, and turns addition, composition and scaling of operators into the
matching matrix operations.

`superoperator()` is the form that `is_nilpotent` and every decision read.
From the coefficients' integer forms (a_i, a_i*A_i) and (b_i, b_i*B_i) (see
`elemop.matrix`), with L the lcm of the a_i*b_i and f_i = L/(a_i*b_i), L
times it is sum_i kron(f_i*b_i*B_i.T, a_i*A_i), one pass of the Z[i]
Kronecker kernel behind `kron` per term, built once with one gcd pass.

Everything else that computes the superoperator or the action on a matrix
runs one pipeline over denominators narrower than such a common scale, in
four steps:
- each coefficient's parts go over a grid of denominators that every term
  shares.  For the superoperator (`_superoperator_cells`) that is a grid
  per entry: entry (k, l) of every B_t.T over alpha[k][l], the lcm of the
  reduced denominators of the B_t[l][k], and entry (i, j) of every A_t over
  beta[i][j], likewise.  For op(X) (`_applied`) it is row i of every A_t
  over R_i, the lcm of that row's own scales across the terms, and column
  j of every B_t over C_j, likewise; X keeps its form (x, x*X);
- each term is one Z[i] kernel call: `gaussian_kron` of the two, or the two
  `gaussian_matmul` calls A_t (x*X) B_t;
- the terms are summed row by row (`_summed`, which `superoperator()`
  shares: the imaginary rows only over the non-real terms, and None when
  every term is real);
- the sum comes back as cells (re, im, den), entry (k*n + i, l*n + j) of
  the superoperator over alpha[k][l]*beta[i][j] and entry (i, j) of op(X)
  over x*R_i*C_j.
`elemop.jsonio` spells those cells for the CLI's `superop` and `apply`, and
`op(X)` builds its matrix from them with `Matrix._from_parts`.
`superoperator()` stays on the common scale because the decisions need the
form, and building the form from the narrow cells was 2.5-5x slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import gcd, lcm

from . import _zi
from .errors import ShapeError
from .matrix import Matrix
from .nilpotency import NilpotencyReport, is_nilpotent
from .scalars import as_scalar


@dataclass(frozen=True)
class ElementaryOperator:
    """A map X -> sum_i A_i X B_i on n x n matrices; immutable."""

    dim: int
    terms: tuple[tuple[Matrix, Matrix], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        if not self.terms:
            raise ShapeError("an elementary operator needs at least one term")
        for k, (a, b) in enumerate(self.terms):
            for side, m in (("left", a), ("right", b)):
                if m.shape != (self.dim, self.dim):
                    raise ShapeError(
                        f"term {k} {side} coefficient is {m.rows}x{m.cols}, "
                        f"expected {self.dim}x{self.dim}"
                    )

    @property
    def length(self) -> int:
        return len(self.terms)

    # ---- action ----------------------------------------------------------
    def __call__(self, x: Matrix) -> Matrix:
        return Matrix._from_parts(self._applied(x))

    def _applied(self, x: Matrix) -> list[list[tuple[int, int, int]]]:
        """The cells of op(x): entry (i, j) over x*R_i*C_j, x the scale of X's
        form, R_i the lcm of row i's own scales in the A_t and C_j that of
        column j's in the B_t."""
        if x.shape != (self.dim, self.dim):
            raise ShapeError(f"operator on {self.dim}x{self.dim} applied to {x.rows}x{x.cols}")
        sx, xf = x._form
        forms = [(a._form, b._form) for a, b in self.terms]
        rows = _scales([a for a, _ in forms], lambda re, im: map(chain, re, im) if im else re)
        cols = _scales([b for _, b in forms], lambda re, im: zip(*re, *(im or ())))
        row_grid, col_grid = [[r] * self.dim for r in rows], [cols] * self.dim
        return _cells([_zi.gaussian_matmul(_zi.gaussian_matmul(_over(*a, row_grid), xf),
                                           _over(*b, col_grid)) for a, b in forms],
                      [[sx * r * c for c in cols] for r in rows])

    def superoperator(self) -> Matrix:
        """sum_i kron(B_i.T, A_i) on the common-scale form that the decisions
        read: see the module docstring."""
        forms = [(a._form, b._form) for a, b in self.terms]
        common = lcm(*(sa * sb for (sa, _), (sb, _) in forms))
        return Matrix._from_integer_form(common, *_summed([_zi.gaussian_kron(
            [p and _zi.scaled(common // (sa * sb), zip(*p)) for p in b], a)
            for (sa, a), (sb, b) in forms]))

    def _superoperator_cells(self) -> list[list[tuple[int, int, int]]]:
        """The cells of the superoperator: entry (k*n + i, l*n + j), which is
        sum_t B_t[l][k] * A_t[i][j], over alpha[k][l] * beta[i][j], alpha[k][l]
        the lcm of the reduced denominators of the B_t[l][k] and beta[i][j]
        that of the A_t[i][j]."""
        n = self.dim
        lefts = [a._form for a, _ in self.terms]
        rights = [(s, [p and list(zip(*p)) for p in parts]) for s, parts in
                  (b._form for _, b in self.terms)]
        flat = [_scales(forms, lambda re, im: zip(chain(*re), chain(*im) if im else repeat(0)))
                for forms in (rights, lefts)]
        alpha, beta = ([f[k:k + n] for k in range(0, n * n, n)] for f in flat)
        return _cells([_zi.gaussian_kron(_over(*bt, alpha), _over(*a, beta))
                       for bt, a in zip(rights, lefts)], _zi.int_kron(alpha, beta))

    # ---- algebra -----------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ElementaryOperator):
            return NotImplemented
        self._need_same_dim(other)
        return ElementaryOperator(self.dim, self.terms + other.terms)

    def compose(self, other: "ElementaryOperator") -> "ElementaryOperator":
        """self after other: terms (A_i C_j, D_j B_i) in lexicographic (i, j).

        The right-hand coefficients compose in reverse because they act from
        the right.
        """
        self._need_same_dim(other)
        terms = tuple(
            (a * c, d * b) for (a, b) in self.terms for (c, d) in other.terms
        )
        return ElementaryOperator(self.dim, terms)

    def __matmul__(self, other):
        if not isinstance(other, ElementaryOperator):
            return NotImplemented
        return self.compose(other)

    def scaled(self, c) -> "ElementaryOperator":
        c = as_scalar(c)
        return ElementaryOperator(
            self.dim, tuple((c * a, b) for (a, b) in self.terms)
        )

    def __mul__(self, other):
        try:
            return self.scaled(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ElementaryOperator":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = identity_operator(self.dim)
        for _ in range(k):
            result = result.compose(self)
        return result

    def _need_same_dim(self, other: "ElementaryOperator") -> None:
        if self.dim != other.dim:
            raise ShapeError(
                f"operators act on different dimensions: {self.dim} vs {other.dim}"
            )


# ---- narrow cells ----------------------------------------------------------

def _scales(forms, lines) -> list[int]:
    """Position by position, the lcm over the forms (scale, parts) of the own
    scale of each line of lines(*parts), a line being a row, a column or an
    entry of both parts: scale // gcd(scale, *line), the lcm of its entries'
    reduced denominators, 1 for a zero line."""
    return [lcm(*own) for own in zip(*([s // gcd(s, *line) for line in lines(*parts)]
                                       for s, parts in forms))]


def _over(scale: int, parts, grid):
    """Int parts over `scale`, with entry (i, j) put over grid[i][j], a
    multiple of its reduced denominator; a row whose grid row is all `scale`
    stays as it is."""
    return [p and [row if all(d == scale for d in ds) else [v * d // scale for v, d in zip(row, ds)]
                   for row, ds in zip(p, grid)] for p in parts]


def _summed(terms):
    """The sum of Z[i] matrices (re, im) as one: the imaginary rows sum only
    the non-real terms and are None when every term is real."""
    ims = [im for _, im in terms if im is not None]
    return reduce(_zi.add_rows, [re for re, _ in terms]), reduce(_zi.add_rows, ims) if ims else None


def _cells(terms, dens) -> list[list[tuple[int, int, int]]]:
    """The cells (re, im, den) of the sum of Z[i] matrices whose entry (i, j)
    is over dens[i][j] in every one of them."""
    re, im = _summed(terms)
    return [list(zip(*rows)) for rows in zip(re, im or repeat(repeat(0)), dens)]


# ---- constructors ----------------------------------------------------------

def make_multiplication(a: Matrix, b: Matrix) -> ElementaryOperator:
    """The length-one operator X -> A X B."""
    return ElementaryOperator(a.rows, ((a, b),))


def make_inner_derivation(a: Matrix) -> ElementaryOperator:
    """The commutator map X -> A X - X A."""
    return make_generalized_derivation(a, a)


def make_generalized_derivation(a: Matrix, b: Matrix) -> ElementaryOperator:
    """The map X -> A X - X B."""
    ident, neg_ident = _identities(a.rows)
    return ElementaryOperator(a.rows, ((a, ident), (neg_ident, b)))


def make_v_operator(a: Matrix, b: Matrix) -> ElementaryOperator:
    """The antisymmetric map X -> A X B - B X A."""
    return ElementaryOperator(a.rows, ((a, b), (-b, a)))


def identity_operator(n: int) -> ElementaryOperator:
    ident = Matrix.identity(n)
    return ElementaryOperator(n, ((ident, ident),))


def zero_operator(n: int) -> ElementaryOperator:
    z = Matrix.zero(n)
    return ElementaryOperator(n, ((z, z),))


@lru_cache(maxsize=16)
def _identities(n: int) -> tuple[Matrix, Matrix]:
    """I and -I of size n, built once per size; matrices are immutable, so
    every derivation of that size shares them."""
    ident = Matrix.identity(n)
    return ident, -ident


# ---- predicates --------------------------------------------------------------

def op_equal(op1: ElementaryOperator, op2: ElementaryOperator) -> bool:
    """Extensional equality: same induced linear map (equal superoperators)."""
    op1._need_same_dim(op2)
    return op1.superoperator() == op2.superoperator()


def op_is_nilpotent(op: ElementaryOperator) -> NilpotencyReport:
    """Nilpotency of the induced map; the index is bounded by dim^2."""
    return is_nilpotent(op.superoperator())
