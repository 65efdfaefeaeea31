"""Exact characteristic polynomials and nilpotency decisions.

A square matrix over a field of characteristic zero is nilpotent exactly
when its d-th power vanishes (Cayley-Hamilton), equivalently when its
characteristic polynomial is x^d.  `is_nilpotent` decides by power
iteration and then re-decides from the characteristic polynomial; the two
routes must agree, and a disagreement raises IntegrityError.

Both routes run on Gaussian integers, not on Q(i).  Let D be the lcm of
the denominators of every real and imaginary part of A; then B = D*A has
entries in Z[i], held as rows of Python ints (real parts, plus imaginary
parts only when some entry of A is non-real).  (D, B) is the form cached
on the Matrix, so `is_nilpotent` and its `char_poly` share one conversion.
Products use the Z[i] kernel of `elemop.matrix`, the one behind Matrix
`*`; only its fresh results are updated in place, never B's tuple rows.
Nilpotency and its index are unchanged by the nonzero factor D, and
B^k = D^k A^k and c_k(B) = D^k c_k(A) for the coefficient c_k of x^(d-k).
Only what leaves the module is scaled back: the witness entry of B^(k-1)
is divided by D^(k-1), and char_poly returns c_k(B) / D^k (the shared
ZERO when it vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IntegrityError, ShapeError
from .matrix import Matrix, _gaussian_matmul
from .scalars import ZERO, GaussianRational


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

    Faddeev-LeVerrier recurrence on B = D*a: M_1 = I, then for k = 1..d
    c_k = -tr(B M_k) / k and M_{k+1} = B M_k + c_k I.  B has entries in
    Z[i], so every c_k and M_k does too and each division by k is exact;
    an inexact one raises IntegrityError.
    """
    if not a.is_square:
        raise ShapeError(f"characteristic polynomial of non-square {a.rows}x{a.cols}")
    scale, b = a._integer_form()
    d = a.rows
    coeffs = [(1, 0)]  # coefficient of x^d
    m = ([[int(i == j) for j in range(d)] for i in range(d)], None)  # I, real
    for k in range(1, d + 1):
        bm = _gaussian_matmul(b, m)
        tr_re, tr_im = _trace(bm)
        c = (_exact_div(-tr_re, k, a), _exact_div(-tr_im, k, a))
        coeffs.append(c)
        m = _add_scalar(bm, c)
    return tuple(_scaled_back(re, im, scale**k) for k, (re, im) in enumerate(coeffs))


def is_nilpotent(a: Matrix) -> NilpotencyReport:
    """Decide nilpotency of a square matrix, with index and witness.

    The index never exceeds the dimension: if a^d != 0 the matrix is not
    nilpotent at all.
    """
    if not a.is_square:
        raise ShapeError(f"nilpotency of non-square {a.rows}x{a.cols}")
    scale, b = a._integer_form()
    d = a.rows
    index = None
    witness = None
    previous = None
    power = b
    for k in range(1, d + 1):
        if _is_zero(power):
            index = k
            if k > 1:
                witness = _first_nonzero(previous, scale ** (k - 1))
            break
        if k < d:
            previous = power
            power = _gaussian_matmul(power, b)

    by_poly = all(not c for c in char_poly(a)[1:])
    if by_poly != (index is not None):
        raise IntegrityError(
            "power iteration and characteristic polynomial disagree on nilpotency",
            instance=a,
        )
    return NilpotencyReport(nilpotent=index is not None, index=index, witness=witness)


# ---- Gaussian-integer kernel --------------------------------------------------
# Matrices over Z[i] as in `elemop.matrix`: (re, im), im None when real.

def _trace(x) -> tuple[int, int]:
    re, im = x
    n = len(re)
    return (
        sum(re[i][i] for i in range(n)),
        0 if im is None else sum(im[i][i] for i in range(n)),
    )


def _add_scalar(x, c):
    """Add c*I to x in place and return it; c = (re, im) is a Gaussian integer."""
    re, im = x
    for i, row in enumerate(re):
        row[i] += c[0]
    if im is not None:
        for i, row in enumerate(im):
            row[i] += c[1]
    return re, im


def _exact_div(n: int, k: int, a: Matrix) -> int:
    q, r = divmod(n, k)
    if r:
        raise IntegrityError(
            f"Faddeev-LeVerrier division by {k} is not exact over Z[i]", instance=a
        )
    return q


def _scaled_back(re: int, im: int, denominator: int) -> GaussianRational:
    """(re + i*im) / denominator, as the shared ZERO or with no imaginary Fraction when real."""
    if not im:
        return GaussianRational(Fraction(re, denominator)) if re else ZERO
    return GaussianRational(Fraction(re, denominator), Fraction(im, denominator))


def _is_zero(x) -> bool:
    re, im = x
    return not any(map(any, re)) and (im is None or not any(map(any, im)))


def _first_nonzero(x, denominator: int) -> EntryWitness:
    re, im = x
    for i, row in enumerate(re):
        for j, e in enumerate(row):
            f = 0 if im is None else im[i][j]
            if e or f:
                return EntryWitness(
                    i, j, GaussianRational(Fraction(e, denominator), Fraction(f, denominator))
                )
    raise IntegrityError("witness requested for a zero matrix")
