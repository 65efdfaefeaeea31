"""Exact scalars: complex numbers with rational real and imaginary parts.

Q(i) is the scalar field of the whole package.  Every quantity here is exact,
so equality of matrices, vanishing of operator powers and polynomial
identities are all decidable without tolerances.  A scalar is held as the
ints (re_num + i*im_num)/den in canonical form, den > 0 and
gcd(re_num, im_num, den) = 1: the 1x1 case of a `Matrix`'s Gaussian-integer
form.  Every operation computes on those ints; `re`, `im` and `norm()` are
`Fraction` views built when read, and a zero part reads as one shared
`Fraction(0)`.

String form, shared with the JSON wire format:

    "3"            integer
    "-2/5"         rational
    "1/2+3/4*i"    complex; the real part is always written when im != 0
    "0-1*i"        pure imaginary

`format_scalar` emits exactly these whitespace-free forms; `parse_scalar`
is tolerant (whitespace, a bare "i", "2i" and "3*i" are all accepted); a
"*" is allowed only between a number and "i", so "*i" and "2**i" are not.
Each unsigned term must be ASCII digits with an optional "/digits"
denominator, each run of digits at most 4,300 long (CPython's default
limit for int strings, which parsing would otherwise be quadratic in when
that limit is lifted); decimals, exponents, underscores, non-ASCII digits
and longer runs are rejected before any digits are converted, so no input
can expand a huge exponent or parse a huge number.  A ParseError quotes
the input and the rejected term in full up to 100 characters; longer ones
are abridged to their first 50 characters and their length, so a rejected
megabyte term gives a message of about a hundred bytes.  `_quoted` is the
one abridger: `elemop.jsonio` and `elemop.cli` show every outside value in
a message through it, a str as here and any other value (a count, a list)
by its repr under the same rule.

`_canonical` divides out one gcd and makes the denominator positive; the
constructor stores through it, and so does `_gaussian`, the builder of every
scalar that an operation, a trace, a coefficient or a parse makes from ints.
A scalar's ints are also its cell: the one int shape, (re, im, den) for
(re + i*im)/den, in which an entry enters a `Matrix` form (`_from_parts`)
and leaves it (`_cells`).  The grammar lives in `_parse_parts`, which returns
the cell of the parts as written, over the lcm of their two denominators and
unreduced, for `parse_scalar` and for `Matrix._from_parts` (through
`elemop.jsonio`); `_cell` builds it, and `elemop.lab` draws cells with it
too.  Text in the spelling `format_scalar` writes (any digits, each run
1-4,300 long: -?d[/d], then optionally +d[/d]*i or -d[/d]*i) is read by one
match; the tokenizer `_read_terms` reads all other text and gives every
error, so a canonical entry costs one regex match and its `int` calls.
The spelling lives in `_format_parts`, which writes a cell, for
`format_scalar` and for `jsonio`'s emission straight from a form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import ParseError

_F0 = Fraction(0)
_DIGITS = r"[0-9]{1,4300}"  # one digit run of the grammar
_TERM_BODY = re.compile(rf"{_DIGITS}(?:/{_DIGITS})?")
# the spelling `format_scalar` writes, with any digits
_SPELLED = re.compile(rf"(-?{_DIGITS})(?:/({_DIGITS}))?"
                      rf"(?:([+-]{_DIGITS})(?:/({_DIGITS}))?\*i)?").fullmatch
_QUOTED_MAX = 100  # longer input is abridged in error messages
# a sign starts a new term unless it follows a sign or a "/"
_split_terms = re.compile(r"(?<=[^+\-/])(?=[+-])").split
_new, _set = object.__new__, object.__setattr__
_parts = attrgetter("re_num", "im_num", "den")  # a scalar's canonical ints


@dataclass(frozen=True, init=False, slots=True)
class GaussianRational:
    """An element of Q(i), immutable and hashable: (re_num + i*im_num) / den
    in canonical form, den > 0 and gcd(re_num, im_num, den) = 1.  It equals,
    and hashes as, the equal int or Fraction."""

    re_num: int
    im_num: int
    den: int

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot build an exact rational from {type(part).__name__}")
        (a, b), (c, d) = re.as_integer_ratio(), im.as_integer_ratio()
        _canonical(self, a * d, c * b, b * d)

    # ---- Fraction views -------------------------------------------------
    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den) if self.re_num else _F0

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den) if self.im_num else _F0

    # ---- predicates -----------------------------------------------------
    def __eq__(self, other):
        """Equal to the equal scalar, int or Fraction: canonical ints compare."""
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _parts(self) == _parts(other)

    def __hash__(self) -> int:
        """A real value hashes as its Fraction, so as an equal int; a non-real one as its ints."""
        if self.im_num:
            return hash(_parts(self))
        return hash(Fraction(self.re_num, self.den))

    def __bool__(self) -> bool:
        return bool(self.re_num or self.im_num)

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_real(self) -> bool:
        return not self.im_num

    # ---- arithmetic ------------------------------------------------------
    def __add__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        (a, b, d), (c, e, f) = _parts(self), _parts(other)
        return _gaussian(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        (a, b, d), (c, e, f) = _parts(self), _parts(other)
        return _gaussian(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        (a, b, d), (c, e, f) = _parts(self), _parts(other)
        return _gaussian(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __neg__(self):
        return _gaussian(-self.re_num, -self.im_num, self.den)

    def __truediv__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        (a, b, d), (c, e, f) = _parts(self), _parts(other)
        if not (n := c * c + e * e):
            raise ZeroDivisionError("division by zero in Q(i)")
        # f(a + bi)(c - ei) / (d(c^2 + e^2))
        return _gaussian(f * (a * c + b * e), f * (b * c - a * e), d * n)

    def __rtruediv__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re_num, -self.im_num, self.den)

    def norm(self) -> Fraction:
        """Squared modulus re^2 + im^2; rational, zero only at zero."""
        a, b, d = _parts(self)
        return Fraction(a * a + b * b, d * d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


def _canonical(z: GaussianRational, re: int, im: int, den: int) -> GaussianRational:
    """Store (re + i*im) / den, den nonzero, into z with den > 0 and one gcd divided out."""
    g = gcd(re, im, den) if den > 0 else -gcd(re, im, den)
    _set(z, "re_num", re // g)
    _set(z, "im_num", im // g)
    _set(z, "den", den // g)
    return z


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    """(re + i*im) / den for ints, den nonzero: the shared ZERO when zero."""
    return _canonical(_new(GaussianRational), re, im, den) if re or im else ZERO


ZERO = GaussianRational()
ONE = GaussianRational(1)
IMAG = GaussianRational(0, 1)


def as_scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, scalar string or GaussianRational into Q(i)."""
    if isinstance(x, str):
        return parse_scalar(x)
    if (z := _coerce(x)) is NotImplemented:
        raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")
    return z


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def format_scalar(z: GaussianRational) -> str:
    """Canonical whitespace-free string form of a scalar."""
    return _format_parts(*_parts(z))


def _format_parts(real: int, imag: int, den: int) -> str:
    """The canonical string of (real + i*imag)/den for ints, den > 0: each
    part as str(Fraction) would write it, the real part always written."""
    if not imag:
        return _ratio(real, den)
    return f"{_ratio(real, den)}{'+' if imag > 0 else '-'}{_ratio(abs(imag), den)}*i"


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0: one gcd, none for a zero."""
    if not num:
        return "0"
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar string; tolerant of whitespace and of "i" shorthands."""
    return _gaussian(*_parse_parts(text))


def _parse_parts(text: str) -> tuple[int, int, int]:
    """The scalar grammar: the cell (re, im, den) of the two parts as written,
    over the lcm of their positive denominators and so unreduced; an absent
    part is 0/1.

    Text spelled as `format_scalar` writes, with any digits, is read by one
    match.  All other text goes to the tokenizer `_read_terms`, and so do a
    zero denominator and a digit run that `int` refuses under a lowered
    int-string limit, so every rejection is the tokenizer's."""
    spelled = _SPELLED(text)
    if spelled:
        re_num, re_den, im_num, im_den = spelled.groups()
        try:
            re_part = int(re_num), int(re_den or 1)
            im_part = (int(im_num), int(im_den or 1)) if im_num else (0, 1)
        except ValueError:  # a digit limit lowered below the grammar's
            pass
        else:
            if re_part[1] and im_part[1]:
                return _cell(re_part, im_part)
    return _read_terms(text)


def _read_terms(text: str) -> tuple[int, int, int]:
    """`_parse_parts` by the tolerant tokenizer: whitespace dropped, the text
    split into signed terms, each term read by `_parse_term`."""
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty scalar string")
    re_part = None
    im_part = None
    for term in _split_terms(stripped):
        value, imaginary = _parse_term(term, text)
        if imaginary:
            if im_part is not None:
                raise ParseError(f"two imaginary terms in scalar {_quoted(text)}")
            im_part = value
        else:
            if re_part is not None:
                raise ParseError(f"two real terms in scalar {_quoted(text)}")
            re_part = value
    return _cell(re_part or (0, 1), im_part or (0, 1))


def _cell(re: tuple[int, int], im: tuple[int, int]) -> tuple[int, int, int]:
    """The cell (re_num + i*im_num)/den of two parts (num, den), any nonzero
    denominators: over the lcm of the two, unreduced."""
    den = lcm(re[1], im[1])
    return re[0] * (den // re[1]), im[0] * (den // im[1]), den


def _parse_term(term: str, original: str) -> tuple[tuple[int, int], bool]:
    body = term.lstrip("+-")
    sign = -1 if term.count("-", 0, len(term) - len(body)) % 2 else 1
    imaginary = body.endswith("i")
    if imaginary:
        body = body[:-1] or "1"
        if body.endswith("*"):  # one "*", and only after a number
            body = body[:-1]
    if not _TERM_BODY.fullmatch(body):
        raise ParseError(_bad_term(original, term))
    num, _, den = body.partition("/")
    try:
        num, den = sign * int(num), int(den or 1)
    except ValueError as exc:  # a digit limit lowered below the grammar's
        raise ParseError(_bad_term(original, term)) from exc
    if not den:
        raise ParseError(_bad_term(original, term))
    return (num, den), imaginary


def _bad_term(original: str, term: str) -> str:
    return f"bad scalar {_quoted(original)}: cannot read term {_quoted(term)}"


def _quoted(value) -> str:
    """An outside value for an error message: a str quoted, any other value
    as its repr; past _QUOTED_MAX characters of either, the first half of
    them and the count."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= _QUOTED_MAX:
        return show(text)
    return f"{show(text[:_QUOTED_MAX // 2])}... ({len(text):,} characters)"
