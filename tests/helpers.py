"""Seeded random value builders and reference paths shared by the test modules."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from elemop import (
    ElementaryOperator,
    EntryWitness,
    GaussianRational,
    Matrix,
    NilpotencyReport,
    ONE,
    ParseError,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)
from elemop.scalars import _bad_term, _quoted


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


# ---- reference entry reader ----------------------------------------------------------
# What every Matrix entry reader must return, read straight off the form.

def ref_entry_rows(m: Matrix) -> list[list[GaussianRational]]:
    """m's entries, each divided out of its Z[i] form in plain Fraction arithmetic."""
    scale, (re, im) = m._form
    return [[GaussianRational(Fraction(x, scale), Fraction(y, scale)) for x, y in zip(rr, ri)]
            for rr, ri in zip(re, im or [[0] * m.cols] * m.rows)]


# ---- reference matrix arithmetic -----------------------------------------------------
# Matrix arithmetic as it ran before the Z[i] form: entry by entry in
# GaussianRational arithmetic.  Every reference reads its operands through
# `row_list` and builds its result from entries, so none runs on a form.

def ref_identity(n: int) -> Matrix:
    return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def ref_zero(rows: int, cols: int) -> Matrix:
    return Matrix([[ZERO] * cols for _ in range(rows)])


def ref_add(a: Matrix, b: Matrix) -> Matrix:
    assert a.shape == b.shape, "reference sum of different shapes"
    return Matrix([[x + y for x, y in zip(p, q)] for p, q in zip(a.row_list(), b.row_list())])


def ref_neg(a: Matrix) -> Matrix:
    return Matrix([[-x for x in row] for row in a.row_list()])


def ref_scale(c, a: Matrix) -> Matrix:
    c = as_scalar(c)
    return Matrix([[c * x for x in row] for row in a.row_list()])


def ref_transpose(a: Matrix) -> Matrix:
    return Matrix(list(zip(*a.row_list())))


def ref_trace(a: Matrix) -> GaussianRational:
    t = ZERO
    for i, row in enumerate(a.row_list()):
        t = t + row[i]
    return t


def ref_is_zero(a: Matrix) -> bool:
    return all(not e for row in a.row_list() for e in row)


def ref_kron(a: Matrix, b: Matrix) -> Matrix:
    """Block (i, j) is a[i, j] * b."""
    return Matrix([[x * y for x in arow for y in brow]
                   for arow in a.row_list() for brow in b.row_list()])


def ref_vec(x: Matrix) -> Matrix:
    return Matrix([[e] for col in zip(*x.row_list()) for e in col])


def ref_unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    flat = [row[0] for row in v.row_list()]
    return Matrix([[flat[j * rows + i] for j in range(cols)] for i in range(rows)])


def ref_matrix_poly(coeffs, a: Matrix) -> Matrix:
    """Horner's rule with the constant coefficient first."""
    ident = ref_identity(a.rows)
    result = ref_zero(a.rows, a.rows)
    for c in reversed(coeffs):
        result = ref_add(ref_matmul(result, a), ref_scale(c, ident))
    return result


def ref_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a * b summed entry by entry in GaussianRational arithmetic."""
    assert a.cols == b.rows, "reference product of non-conformable shapes"
    brows = b.row_list()
    out = []
    for arow in a.row_list():
        row = []
        for j in range(b.cols):
            acc = ZERO
            for k, aik in enumerate(arow):
                if aik and brows[k][j]:
                    acc = acc + aik * brows[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(out)


def ref_apply(op: ElementaryOperator, x: Matrix) -> Matrix:
    """sum_i A_i X B_i, each product and the sum in GaussianRational arithmetic."""
    result = ref_zero(x.rows, x.cols)
    for a, b in op.terms:
        result = ref_add(result, ref_matmul(ref_matmul(a, x), b))
    return result


# ---- reference wire reader and emitter ------------------------------------------------
# jsonio's matrix reader and emitter as they ran before they worked on the
# Z[i] form: a Matrix of parse_scalar entries, and format_scalar over row_list.

def ref_matrix_from_texts(texts) -> Matrix:
    return Matrix([[parse_scalar(e) for e in row] for row in texts])


def ref_matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[format_scalar(e) for e in row] for row in m.row_list()],
    }


def record_scales(monkeypatch) -> list[int]:
    """The scale of every matrix built from a Z[i] form from now on, in order."""
    scales = []
    build = Matrix._from_integer_form.__func__

    def spy(cls, scale, re, im):
        scales.append(scale)
        return build(cls, scale, re, im)

    monkeypatch.setattr(Matrix, "_from_integer_form", classmethod(spy))
    return scales


# ---- reference generator ------------------------------------------------------
# The unimodular pair as `lab` built it before it worked on int rows: a
# product of elementary Matrix factors, with the same draws in the same order.

def ref_random_unimodular(rng: random.Random, dim: int) -> tuple[Matrix, Matrix]:
    s = s_inv = ref_identity(dim)
    if dim == 1:
        return s, s_inv
    for _ in range(dim + 2):
        i, j = rng.sample(range(dim), 2)
        if rng.random() < 0.25:
            e = ref_identity(dim).row_list()
            e[i], e[j] = e[j], e[i]
            s, s_inv = ref_matmul(Matrix(e), s), ref_matmul(s_inv, Matrix(e))
        else:
            c = rng.choice((-2, -1, 1, 2))
            shear, inverse = ref_identity(dim).row_list(), ref_identity(dim).row_list()
            shear[j][i], inverse[j][i] = as_scalar(c), as_scalar(-c)  # row j += c * row i
            s, s_inv = ref_matmul(Matrix(shear), s), ref_matmul(s_inv, Matrix(inverse))
    return s, s_inv


# The entry draws as `lab` made them before it drew int parts: each part a
# Fraction, each entry a GaussianRational, each matrix built by Matrix(rows).

def ref_rand_fraction(rng: random.Random, bound: int) -> Fraction:
    num = rng.randint(-bound, bound)
    den = 0
    while den == 0:
        den = rng.randint(-bound, bound)
    return Fraction(num, den)


def ref_rand_scalar(rng: random.Random, config) -> GaussianRational:
    re = ref_rand_fraction(rng, config.entry_bound)
    im = ref_rand_fraction(rng, config.entry_bound) if config.gaussian else 0
    return GaussianRational(re, im)


def ref_rand_matrix(rng: random.Random, config) -> Matrix:
    dim = config.dim
    return Matrix([[ref_rand_scalar(rng, config) for _ in range(dim)] for _ in range(dim)])


def ref_gen_nilpotent(rng: random.Random, config) -> Matrix:
    dim = config.dim
    upper = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            upper[i][j] = ref_rand_scalar(rng, config)
    s, s_inv = ref_random_unimodular(rng, dim)
    return ref_matmul(ref_matmul(s, Matrix(upper)), s_inv)


# ---- reference nilpotency path ------------------------------------------------
# The decision procedure as it ran before the Gaussian-integer kernel: the
# same two routes over Q(i), on the reference arithmetic above.

def ref_char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Faddeev-LeVerrier over Q(i): c_k = -tr(a M_k) / k, M_{k+1} = a M_k + c_k I."""
    d = a.rows
    ident = ref_identity(d)
    coeffs = [ZERO] * (d + 1)
    coeffs[0] = ONE
    m = ident
    for k in range(1, d + 1):
        am = ref_matmul(a, m)
        coeffs[k] = -(ref_trace(am) / k)
        if k < d:
            m = ref_add(am, ref_scale(coeffs[k], ident))
    return tuple(coeffs)


def ref_is_nilpotent(a: Matrix) -> NilpotencyReport:
    """Power iteration over Q(i), cross-checked against ref_char_poly."""
    d = a.rows
    index = None
    witness = None
    previous = None
    power = a
    for k in range(1, d + 1):
        if ref_is_zero(power):
            index = k
            if k > 1:
                witness = next(
                    EntryWitness(i, j, e)
                    for i, row in enumerate(previous.row_list()) for j, e in enumerate(row) if e
                )
            break
        if k < d:
            previous = power
            power = ref_matmul(power, a)
    by_poly = all(not c for c in ref_char_poly(a)[1:])
    assert by_poly == (index is not None), "reference routes disagree"
    return NilpotencyReport(nilpotent=index is not None, index=index, witness=witness)


# ---- reference superoperator ------------------------------------------------------
# The assembly as it ran before the Gaussian-integer build: Kronecker
# products and sums over Q(i).

def ref_superoperator(op: ElementaryOperator) -> Matrix:
    """sum_i kron(B_i.T, A_i), summed term by term from the zero matrix."""
    size = op.dim * op.dim
    s = ref_zero(size, size)
    for a, b in op.terms:
        s = ref_add(s, ref_kron(ref_transpose(b), a))
    return s


# ---- reference scalar parser --------------------------------------------------------
# parse_scalar as it ran before the regex split and the one-Fraction term
# parse: a character loop splits the terms, and each term is parsed as a
# string and then signed.  It also read "*i", "-*i", "1+*i" and "2**i" as
# i, -i, 1+i and 2i, forms the library now rejects.

_REF_TERM_BODY = re.compile(r"[0-9]{1,4300}(?:/[0-9]{1,4300})?")


def ref_parse_scalar(text: str) -> GaussianRational:
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty scalar string")
    re_part = None
    im_part = None
    for term in ref_split_terms(stripped):
        value, imaginary = _ref_parse_term(term, text)
        if imaginary:
            if im_part is not None:
                raise ParseError(f"two imaginary terms in scalar {_quoted(text)}")
            im_part = value
        else:
            if re_part is not None:
                raise ParseError(f"two real terms in scalar {_quoted(text)}")
            re_part = value
    return GaussianRational(re_part or 0, im_part or 0)


def ref_split_terms(s: str) -> list[str]:
    terms = []
    start = 0
    for pos in range(1, len(s)):
        if s[pos] in "+-" and s[pos - 1] not in "+-/":
            terms.append(s[start:pos])
            start = pos
    terms.append(s[start:])
    return terms


def _ref_parse_term(term: str, original: str) -> tuple[Fraction, bool]:
    body = term
    sign = 1
    while body and body[0] in "+-":
        if body[0] == "-":
            sign = -sign
        body = body[1:]
    imaginary = body.endswith("i")
    if imaginary:
        body = body[:-1].rstrip("*")
        if not body:
            body = "1"
    if not _REF_TERM_BODY.fullmatch(body):
        raise ParseError(_bad_term(original, term))
    try:
        value = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(_bad_term(original, term)) from exc
    return sign * value, imaginary


# ---- reference scalar arithmetic --------------------------------------------------------
# Q(i) arithmetic as it ran when a scalar held its real and imaginary parts as
# two Fractions, each kept canonical by Fraction itself.  A GaussianRational,
# which computes on its canonical ints, must agree with it value for value.

@dataclass(frozen=True)
class FractionPair:
    re: Fraction
    im: Fraction = Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other):
        other = _pair(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _pair(other)
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _pair(other) - self

    def __mul__(self, other):
        other = _pair(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPair(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __truediv__(self, other):
        return self * _pair(other).inverse()

    def __rtruediv__(self, other):
        return _pair(other) * self.inverse()

    def conjugate(self) -> "FractionPair":
        return FractionPair(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "FractionPair":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionPair(self.re / n, -self.im / n)

    def text(self) -> str:
        """The canonical scalar string: each part as str(Fraction) writes it."""
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"


def _pair(x) -> FractionPair:
    return x if isinstance(x, FractionPair) else FractionPair(Fraction(x))
