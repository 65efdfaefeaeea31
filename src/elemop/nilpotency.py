"""Exact characteristic polynomials and nilpotency decisions.

A square matrix over a field of characteristic zero is nilpotent exactly
when its d-th power vanishes (Cayley-Hamilton), equivalently when its
characteristic polynomial is x^d.  `is_nilpotent` decides by powering and
then re-decides from the characteristic polynomial; the two routes must
agree, and a disagreement raises IntegrityError.

Both routes run on Gaussian integers, not on Q(i).  Let D be the lcm of
the denominators of every real and imaginary part of A; then B = D*A has
entries in Z[i], held as rows of Python ints (real parts, plus imaginary
parts only when some entry of A is non-real).  (D, B) is the form cached
on the Matrix, so `is_nilpotent` and its `char_poly` share one conversion.
Products, traces and zero tests use the Z[i] helpers of `elemop.matrix`,
the ones behind Matrix `*`, `trace` and `is_zero`.
Nilpotency and its index are unchanged by the nonzero factor D, and
B^k = D^k A^k and c_k(B) = D^k c_k(A) for the coefficient c_k of x^(d-k).
Only what leaves the module is scaled back: the witness entry of B^(k-1)
is divided by D^(k-1), and char_poly returns c_k(B) / D^k (the shared
ZERO when it vanishes).

The cost of a decision is the number of d x d products it forms, so each
route forms as few as it can.  The power route squares, S_j = B^(2^j) for
2^j <= d, stopping at the first zero square, then binary-lifts over the
stored squares to the largest m <= d with B^m != 0, never multiplying
past B^d: a non-nilpotent B takes floor(log2 d) + popcount(d) - 1
products instead of d - 1 (4 instead of 8 at 9x9), and a nilpotent one
gets its index m + 1 and its witness B^m on the way.  The
characteristic-polynomial route reads the power sums tr(B^k), k = 1..d,
from s = isqrt(d) baby steps and (d-1)//s giant steps, each power sum past
B^s as the trace of a product it never forms: s - 1 + max(0, (d-1)//s - 1)
products (3 at 9x9, 1 at 4x4, 0 at 2x2) instead of Faddeev-LeVerrier's
d - 2.  It forms its own powers, so the two routes stay independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import mul

from .errors import IntegrityError, ShapeError
from .matrix import Matrix, _gaussian, _gaussian_matmul, _is_zero, _trace
from .scalars import GaussianRational


@dataclass(frozen=True)
class EntryWitness:
    """A nonzero entry pinpointing why a matrix power is not zero."""

    row: int
    col: int
    value: GaussianRational


@dataclass(frozen=True)
class NilpotencyReport:
    """Decision, nilpotency index, and a witness for the penultimate power.

    `index` is the smallest k with M^k == 0 and is present exactly when
    `nilpotent` is true.  For index k > 1 the witness is a nonzero entry of
    M^(k-1); for index 1 (the zero matrix) there is nothing to witness.
    """

    nilpotent: bool
    index: int | None = None
    witness: EntryWitness | None = None


def char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Monic characteristic polynomial det(xI - a), leading coefficient first.

    Le Verrier's method on B = D*a: the power sums p_k = tr(B^k), k = 1..d,
    give the coefficients through Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).  B has entries in
    Z[i], so every p_k and c_k does too and each division by k is exact;
    an inexact one raises IntegrityError.  With s = isqrt(d), only the baby
    steps B^2..B^s and the giant steps B^(2s), B^(3s), .. up to
    B^(((d-1)//s)*s) are formed, and p_k for k = qs + r, 1 <= r <= s, is
    tr(B^r) or tr(B^(qs) B^r), read without forming the product: that is
    s - 1 + max(0, (d-1)//s - 1) products (3 at 9x9, 1 at 4x4, 0 at 2x2).
    """
    if not a.is_square:
        raise ShapeError(f"characteristic polynomial of non-square {a.rows}x{a.cols}")
    scale, b = a._form
    d = a.rows
    s = isqrt(d)
    baby = [None, b]  # baby[r] = B^r, r = 1..s
    while len(baby) <= s:
        baby.append(_gaussian_matmul(baby[-1], b))
    giant = [None, baby[s]]  # giant[q] = B^(qs), q = 1..(d-1)//s
    while len(giant) <= (d - 1) // s:
        giant.append(_gaussian_matmul(giant[-1], baby[s]))
    coeffs, sums = [(1, 0)], [None]  # c_0 = 1 is the coefficient of x^d; sums[k] = p_k
    for k in range(1, d + 1):
        q, r = divmod(k - 1, s)
        sums.append(_trace(baby[r + 1]) if q == 0 else _product_trace(giant[q], baby[r + 1]))
        re, im = sums[k]
        for (cr, ci), (pr, pi) in zip(coeffs[1:], reversed(sums[1:k])):
            re += cr * pr - ci * pi
            im += cr * pi + ci * pr
        coeffs.append((_exact_div(-re, k, a), _exact_div(-im, k, a)))
    return tuple(_gaussian(re, im, scale**k) for k, (re, im) in enumerate(coeffs))


def is_nilpotent(a: Matrix) -> NilpotencyReport:
    """Decide nilpotency of a square matrix, with index and witness.

    The index never exceeds the dimension: if a^d != 0 the matrix is not
    nilpotent at all.
    """
    if not a.is_square:
        raise ShapeError(f"nilpotency of non-square {a.rows}x{a.cols}")
    scale, b = a._form
    d = a.rows
    index = None
    witness = None
    if _is_zero(b):
        index = 1
    else:
        squares = [b]  # S_j = B^(2^j), all nonzero
        while (1 << len(squares)) <= d:
            square = _gaussian_matmul(squares[-1], squares[-1])
            if _is_zero(square):
                break
            squares.append(square)
        # binary lifting: the largest m <= d with B^m != 0, and B^m itself
        m, power = 1 << (len(squares) - 1), squares[-1]
        for j in range(len(squares) - 2, -1, -1):
            if m + (1 << j) <= d:
                lifted = _gaussian_matmul(power, squares[j])
                if not _is_zero(lifted):
                    m, power = m + (1 << j), lifted
        if m < d:
            index = m + 1
            witness = _first_nonzero(power, scale**m)

    by_poly = all(not c for c in char_poly(a)[1:])
    if by_poly != (index is not None):
        raise IntegrityError(
            "power iteration and characteristic polynomial disagree on nilpotency",
            instance=a,
        )
    return NilpotencyReport(nilpotent=index is not None, index=index, witness=witness)


# ---- Gaussian-integer kernel --------------------------------------------------
# Matrices over Z[i] as in `elemop.matrix`: (re, im), im None when real.

def _product_trace(x, y) -> tuple[int, int]:
    """tr(x y) = sum_ij x_ij y_ji, without forming x y."""
    (xr, xi), (yr, yi) = x, y

    def tr(p, q):
        return 0 if p is None or q is None else sum(
            map(mul, chain.from_iterable(p), chain.from_iterable(zip(*q))))

    return tr(xr, yr) - tr(xi, yi), tr(xr, yi) + tr(xi, yr)


def _exact_div(n: int, k: int, a: Matrix) -> int:
    q, r = divmod(n, k)
    if r:
        raise IntegrityError(
            f"Newton identity division by {k} is not exact over Z[i]", instance=a
        )
    return q


def _first_nonzero(x, denominator: int) -> EntryWitness:
    re, im = x
    for i, row in enumerate(re):
        for j, e in enumerate(row):
            f = 0 if im is None else im[i][j]
            if e or f:
                return EntryWitness(i, j, _gaussian(e, f, denominator))
    raise IntegrityError("witness requested for a zero matrix")
