"""Exact characteristic polynomials and nilpotency decisions.

A square matrix over a field of characteristic zero is nilpotent exactly
when its d-th power vanishes (Cayley-Hamilton), equivalently when its
characteristic polynomial is x^d, equivalently when the power sums tr(A^k),
k = 1..d, all vanish (Newton's identities).  `is_nilpotent` decides from
the powers B^k e_j of the unit columns and then checks the verdict from
the power sums: "not nilpotent" needs one nonzero power sum, so that check
stops at the first one, and "nilpotent" needs the characteristic
polynomial to be x^d.  The two routes must agree, and a disagreement raises
IntegrityError.

Both routes run on Gaussian integers, not on Q(i).  Let D be the lcm of
the denominators of every real and imaginary part of A; then B = D*A has
entries in Z[i], held as rows of Python ints (real parts, plus imaginary
parts only when some entry of A is non-real).  (D, B) is the form the
Matrix holds, so `is_nilpotent` and its `char_poly` share one conversion.
Products, matrix-vector steps and traces use the Z[i] kernels of
`elemop._zi`, the ones behind Matrix `*` and `trace`.
Nilpotency and its index are unchanged by the nonzero factor D, and
B^k = D^k A^k and c_k(B) = D^k c_k(A) for the coefficient c_k of x^(d-k).
Only what leaves the module is scaled back: the witness entry of B^(k-1)
is divided by D^(k-1), and char_poly returns c_k(B) / D^k (the shared
ZERO when it vanishes).

The power route forms no d x d product.  It iterates each column j =
0..d-1: the first iterate B e_j is column j of B, read with no arithmetic,
and each later one is one matrix-vector step, a d-th of a product.  A
column stops once its iterate vanishes, at B^(ind_j) e_j after ind_j - 1
steps, or once B^d e_j is still nonzero, which proves B^d != 0 and
returns "not nilpotent" at once: a non-nilpotent B whose first column
survives, an invertible B among them, costs d - 1 steps, and a B whose
leading columns die costs their steps on top.  Otherwise B is nilpotent
of index max_j ind_j, found in sum_j (ind_j - 1) steps (d*(index - 1) for
a dense B, d*(d - 1) at worst).  Column j of B^(index-1) is the last
iterate B^(ind_j - 1) e_j of a column that reaches the index, and zero
for every other column; so the witness, the first nonzero entry of
B^(index-1) in row-major order, is the smallest (row, column) among the
columns that reach the index, each offering the first nonzero row of its
last iterate, and B^(index-1) itself is never formed.  The power-sum
route reads tr(B^k), k = 1..d, from s = isqrt(d) baby steps and (d-1)//s
giant steps, each power sum as the trace of a product it never forms (p_k
for k <= 2s from the half powers B^(k//2) and B^(k - k//2)), and forms
each step only when the next power sum needs it: all d power sums take
fewer products than Faddeev-LeVerrier's d - 2 (`_power_sums` counts
them), and a non-nilpotent B whose first nonzero power sum is tr(B) or
tr(B^2) takes none.  A nilpotent verdict, and a non-nilpotent B whose
first d - 1 power sums vanish (the companion matrix of x^d - c), still
form every step, though a step whose left factor has zero rows costs only
its other rows.  The routes share no powers, so they stay independent
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import isqrt

from . import _zi
from .errors import IntegrityError, ShapeError
from .matrix import Matrix
from .scalars import GaussianRational, _gaussian


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


# the one report `is_nilpotent` returns for every non-nilpotent matrix
NOT_NILPOTENT = NilpotencyReport(nilpotent=False)


def char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Monic characteristic polynomial det(xI - a), leading coefficient first.

    Le Verrier's method on B = D*a: the power sums p_k = tr(B^k), k = 1..d,
    give the coefficients through Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).  B has entries in
    Z[i], so every p_k and c_k does too and each division by k is exact;
    an inexact one raises IntegrityError.  The power sums come from
    `_power_sums`, whose docstring counts the products they take.
    """
    if not a.is_square:
        raise ShapeError(f"characteristic polynomial of non-square {a.rows}x{a.cols}")
    scale, b = a._form
    coeffs, sums = [(1, 0)], []  # c_0 = 1 is the coefficient of x^d; sums = p_1..p_(k-1)
    for k, p in enumerate(_power_sums(b, a.rows), 1):
        re, im = p
        for (cr, ci), (pr, pi) in zip(coeffs[1:], reversed(sums)):
            re += cr * pr - ci * pi
            im += cr * pi + ci * pr
        sums.append(p)
        coeffs.append((_exact_div(-re, k, a), _exact_div(-im, k, a)))
    return tuple(_gaussian(re, im, scale**k) for k, (re, im) in enumerate(coeffs))


def is_nilpotent(a: Matrix) -> NilpotencyReport:
    """Decide nilpotency of a square matrix, with index and witness.

    The index never exceeds the dimension: if a^d != 0 the matrix is not
    nilpotent at all.  The column iterates give the verdict, and the power
    sums tr(B^k) of B = D*a check it: a "not nilpotent" verdict holds once
    one of them is nonzero, so the check stops at the first nonzero one
    (tr(B) or tr(B^2) for most inputs, forming no product), and a
    nilpotent verdict holds when `char_poly(a)` is x^d, which takes every
    power sum.  A disagreement raises IntegrityError with a as its instance.
    """
    if not a.is_square:
        raise ShapeError(f"nilpotency of non-square {a.rows}x{a.cols}")
    scale, b = a._form
    d = a.rows
    br, bi = b
    bs = None if bi is None else _zi.add_rows(br, bi)
    index, witness = 1, None  # witness: the smallest (row, column) reaching the index
    for j, w in enumerate(zip(zip(*br), zip(*bi) if bi else repeat(None))):
        v, k = None, 1  # w = B^k e_j; B e_j is column j of B
        while any(w[0]) or w[1] is not None and any(w[1]):
            if k == d:  # B^d e_j != 0, confirmed by the first nonzero tr(B^k)
                return _checked(any(map(any, _power_sums(b, d))), NOT_NILPOTENT, a)
            v, w, k = w, _zi.gaussian_matvec(b, bs, w), k + 1
        if k < index or k == 1:  # B^k e_j = 0, v = B^(k-1) e_j; no witness below the index
            continue
        re, im = v
        i = next((i for i in range(d) if re[i] or im and im[i]), None)
        if i is None:
            raise IntegrityError("witness requested for a zero matrix", instance=a)
        if k > index or i < witness.row:
            value = _gaussian(re[i], im[i] if im else 0, scale ** (k - 1))
            index, witness = k, EntryWitness(i, j, value)
    # confirmed by char_poly(a) = x^d, which needs every power sum
    return _checked(not any(char_poly(a)[1:]), NilpotencyReport(True, index, witness), a)


def _checked(confirmed: bool, report: NilpotencyReport, a: Matrix) -> NilpotencyReport:
    """report, once the power sums confirm it; IntegrityError against a otherwise."""
    if not confirmed:
        raise IntegrityError(
            "power iteration and characteristic polynomial disagree on nilpotency",
            instance=a,
        )
    return report


# ---- power sums --------------------------------------------------------------
# Matrices over Z[i] as in `elemop._zi`: (re, im), im None when real.

def _power_sums(b, d: int):
    """tr(B^k) as (re, im), k = 1..d, for a d x d Z[i] matrix b = B, lazily.

    With s = isqrt(d), p_k for k <= 2s is tr(B^(k//2) B^(k - k//2)), from
    half powers, and p_k for k = qs + r, q >= 2, 1 <= r <= s, is
    tr(B^(qs) B^r); each is read without forming the product.  The baby
    steps B^2..B^s and the giant steps B^(2s), B^(3s), .. are formed only
    when the next power sum needs them: all d sums take
    s - 1 + max(0, (d-1)//s - 1) products (3 at 9x9, 1 at 4x4, 0 at 2x2),
    p_1 and p_2 none, and the first k <= 2s sums the baby steps up to
    B^(k - k//2).
    """
    s = isqrt(d)
    baby, giant = [None, b], None  # baby[r] = B^r; giant = B^(qs)

    def power(r):
        while len(baby) <= r:
            baby.append(_zi.gaussian_matmul(baby[-1], b))
        return baby[r]

    for k in range(1, d + 1):
        q, r = divmod(k - 1, s)
        if q <= 1:
            yield _zi.trace(b) if k == 1 else _zi.product_trace(power(k // 2), power(k - k // 2))
            continue
        if r == 0:
            giant = _zi.gaussian_matmul(power(s) if q == 2 else giant, power(s))
        yield _zi.product_trace(giant, power(r + 1))


def _exact_div(n: int, k: int, a: Matrix) -> int:
    q, r = divmod(n, k)
    if r:
        raise IntegrityError(
            f"Newton identity division by {k} is not exact over Z[i]", instance=a
        )
    return q

