"""Seeded random value builders and reference paths shared by the test modules."""

import random
from fractions import Fraction

from elemop import (
    ElementaryOperator,
    EntryWitness,
    GaussianRational,
    Matrix,
    NilpotencyReport,
    ONE,
    ZERO,
    kron,
)


def rand_fraction(rng: random.Random, bound: int = 3) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.choice([d for d in range(-bound, bound + 1) if d != 0])
    return Fraction(num, den)


def rand_scalar(rng: random.Random, bound: int = 3, gaussian: bool = False) -> GaussianRational:
    im = rand_fraction(rng, bound) if gaussian else 0
    return GaussianRational(rand_fraction(rng, bound), im)


def rand_matrix(
    rng: random.Random,
    rows: int,
    cols: int | None = None,
    bound: int = 3,
    gaussian: bool = False,
) -> Matrix:
    cols = rows if cols is None else cols
    return Matrix(
        [[rand_scalar(rng, bound, gaussian) for _ in range(cols)] for _ in range(rows)]
    )


def wide_matrix(
    rng: random.Random, rows: int, cols: int | None = None, gaussian: bool = True
) -> Matrix:
    """32-48-bit numerators over a per-matrix pair of denominators."""
    cols = rows if cols is None else cols
    dens = rng.sample((1, 2, 3, 4, 5, 7, 9, 11), 2)

    def part():
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(32, 48))
        return Fraction(num, rng.choice(dens))

    return Matrix(
        [[GaussianRational(part(), part() if gaussian else 0) for _ in range(cols)]
         for _ in range(rows)]
    )


def rand_operator(
    rng: random.Random, dim: int, length: int, bound: int = 2, gaussian: bool = False
) -> ElementaryOperator:
    terms = tuple(
        (rand_matrix(rng, dim, bound=bound, gaussian=gaussian),
         rand_matrix(rng, dim, bound=bound, gaussian=gaussian))
        for _ in range(length)
    )
    return ElementaryOperator(dim, terms)


# ---- reference nilpotency path ------------------------------------------------
# The decision procedure as it ran before the Gaussian-integer kernel: the
# same two routes, computed with Matrix arithmetic over Q(i) throughout.

def ref_char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Faddeev-LeVerrier over Q(i): c_k = -tr(a M_k) / k, M_{k+1} = a M_k + c_k I."""
    d = a.rows
    ident = Matrix.identity(d)
    coeffs = [ZERO] * (d + 1)
    coeffs[0] = ONE
    m = ident
    for k in range(1, d + 1):
        am = a * m
        coeffs[k] = -(am.trace() / k)
        if k < d:
            m = am + coeffs[k] * ident
    return tuple(coeffs)


def ref_is_nilpotent(a: Matrix) -> NilpotencyReport:
    """Power iteration over Q(i), cross-checked against ref_char_poly."""
    d = a.rows
    index = None
    witness = None
    previous = None
    power = a
    for k in range(1, d + 1):
        if power.is_zero:
            index = k
            if k > 1:
                witness = next(
                    EntryWitness(i, j, e) for i, j, e in previous.entries() if e
                )
            break
        if k < d:
            previous = power
            power = power * a
    by_poly = all(not c for c in ref_char_poly(a)[1:])
    assert by_poly == (index is not None), "reference routes disagree"
    return NilpotencyReport(nilpotent=index is not None, index=index, witness=witness)


# ---- reference superoperator ------------------------------------------------------
# The assembly as it ran before the Gaussian-integer build: kron and Matrix
# addition over Q(i).

def ref_superoperator(op: ElementaryOperator) -> Matrix:
    """sum_i kron(B_i.T, A_i), summed term by term from the zero matrix."""
    s = Matrix.zero(op.dim * op.dim)
    for a, b in op.terms:
        s = s + kron(b.T, a)
    return s


# ---- reference matrix product -------------------------------------------------------
# The product as it ran before the Z[i] kernel: a triple loop over Q(i) entries.

def ref_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a * b summed entry by entry in GaussianRational arithmetic."""
    assert a.cols == b.rows, "reference product of non-conformable shapes"
    out = []
    for arow in a.row_list():
        row = []
        for j in range(b.cols):
            acc = ZERO
            for k, aik in enumerate(arow):
                if aik and b[k, j]:
                    acc = acc + aik * b[k, j]
            row.append(acc)
        out.append(row)
    return Matrix(out)
