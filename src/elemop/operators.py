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

Both the superoperator and the action on a matrix are one term sum over
Z[i] (`_term_sum`), from the coefficients' integer forms (a_i, a_i*A_i) and
(b_i, b_i*B_i) (see `elemop.matrix`): with L the lcm of the a_i*b_i and
f_i = L/(a_i*b_i), each term is computed in ints scaled by f_i, the terms
are summed row by row into fresh rows (the imaginary rows only over the
non-real terms, and None when every term is real), and the result is built
once, with one gcd pass in all.  For the superoperator, L times the sum is
sum_i kron(f_i*b_i*B_i.T, a_i*A_i), each term one pass of the Z[i]
Kronecker kernel behind `kron`, and the result keeps that form for
`is_nilpotent`.  For X with form (x, x*X), each term is the two Z[i]
products a_i*A_i (x*X) b_i*B_i, scaled after the product, over L*x.  The
Z[i] kernels are those of `elemop._zi`.

Both keep the form for library callers and for the decisions.  The CLI's
`superop` and `apply` only write their matrix out, so they build neither:
`elemop.jsonio`'s `superoperator_to_obj` and `apply_to_obj` spell each
entry over denominators narrower than the common scale L (or L*x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import lcm

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
        self._need_operand(x)
        sx, xf = x._form
        return self._term_sum(sx, lambda f, a, b: [
            p and _zi.scaled(f, p) for p in _zi.gaussian_matmul(_zi.gaussian_matmul(a, xf), b)])

    def superoperator(self) -> Matrix:
        return self._term_sum(1, lambda f, a, b: _zi.gaussian_kron(
            [p and _zi.scaled(f, zip(*p)) for p in b], a))

    def _term_sum(self, scale: int, term) -> Matrix:
        """sum_i term(f_i, a_i*A_i, b_i*B_i) / (scale*L) over the terms' Z[i]
        forms, L the lcm of the a_i*b_i and f_i = L/(a_i*b_i); each term is a
        Z[i] matrix (re, im), summed row by row into fresh rows (the imaginary
        rows only over the non-real terms), and the sum is built once."""
        forms = [(a._form, b._form) for a, b in self.terms]
        common = lcm(*(sa * sb for (sa, _), (sb, _) in forms))
        terms = [term(common // (sa * sb), a, b) for (sa, a), (sb, b) in forms]
        ims = [im for _, im in terms if im is not None]
        return Matrix._from_integer_form(scale * common,
                                         reduce(_zi.add_rows, [re for re, _ in terms]),
                                         reduce(_zi.add_rows, ims) if ims else None)

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

    def _need_operand(self, x: Matrix) -> None:
        """Reject an X that is not dim x dim."""
        if x.shape != (self.dim, self.dim):
            raise ShapeError(
                f"operator on {self.dim}x{self.dim} applied to {x.rows}x{x.cols}"
            )

    def _need_same_dim(self, other: "ElementaryOperator") -> None:
        if self.dim != other.dim:
            raise ShapeError(
                f"operators act on different dimensions: {self.dim} vs {other.dim}"
            )


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
