import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elemop import (
    GaussianRational,
    IMAG,
    Matrix,
    ONE,
    ParseError,
    ZERO,
    as_scalar,
    format_scalar,
    parse_scalar,
)
import elemop.scalars as scalars_module
from elemop.scalars import _cell, _gaussian, _parse_parts, _read_terms, _split_terms
from helpers import FractionPair, ref_parse_scalar, ref_split_terms

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)


def test_basic_arithmetic():
    half = GaussianRational(Fraction(1, 2))
    third = GaussianRational(Fraction(1, 3))
    assert half + third == GaussianRational(Fraction(5, 6))
    assert half - third == GaussianRational(Fraction(1, 6))
    assert half * third == GaussianRational(Fraction(1, 6))
    assert half / third == GaussianRational(Fraction(3, 2))


def test_complex_multiplication():
    # (1+2i)(3-i) = 5+5i
    z = GaussianRational(1, 2) * GaussianRational(3, -1)
    assert z == GaussianRational(5, 5)
    assert IMAG * IMAG == -ONE


def test_division_and_inverse():
    z = GaussianRational(1, 1)
    assert z * z.inverse() == ONE
    assert (ONE / z) * z == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    # a real divisor divides each part, as multiplying by its inverse does
    w = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert w / 3 == GaussianRational(Fraction(1, 6), Fraction(-1, 4))
    for d in (GaussianRational(Fraction(-3, 5)), GaussianRational(0, 2), z):
        assert w / d == w * d.inverse()


@pytest.mark.parametrize("apply", [
    lambda: ONE + 1.5,
    lambda: ONE - 1.5,
    lambda: 1.5 - ONE,
    lambda: ONE / 1.5,
    lambda: 1.5 / ONE,
    lambda: ONE + "1",
], ids=["plus-float", "minus-float", "float-minus", "over-float", "float-over", "plus-str"])
def test_scalar_arithmetic_rejects_what_it_cannot_take(apply):
    with pytest.raises(TypeError):
        apply()


def test_int_and_fraction_coercion():
    z = GaussianRational(Fraction(1, 2))
    assert z + 1 == GaussianRational(Fraction(3, 2))
    assert 2 * z == ONE
    assert Fraction(1, 2) - z == ZERO
    assert 1 / GaussianRational(2) == GaussianRational(Fraction(1, 2))


def test_a_scalar_equals_the_equal_int_or_fraction():
    half = GaussianRational(Fraction(-1, 2))
    assert ONE == 1 and 1 == ONE and ZERO == 0 and 0 == ZERO
    assert half == Fraction(-1, 2) and Fraction(-1, 2) == half and half != -1
    assert GaussianRational(6, 0) == 6 and GaussianRational(Fraction(4, 2)) == Fraction(2)
    assert Matrix([[1, 0], [0, -1]]).trace() == 0
    # equal numbers hash equal, so a scalar reads a dict keyed by an int or a Fraction
    for z, x in [(ONE, 1), (ZERO, 0), (half, Fraction(-1, 2)), (GaussianRational(-7), -7)]:
        assert hash(z) == hash(x)
    assert {1: "one"}[ONE] == "one" and {ONE: "one"}[1] == "one"
    assert {Fraction(-1, 2): "half"}[half] == "half"
    # a non-real value equals no int or Fraction, and hashes its ints
    w = GaussianRational(Fraction(1, 2), 3)
    assert w != Fraction(1, 2) and IMAG != 0 and IMAG != 1
    assert w == GaussianRational(Fraction(1, 2), 3) and hash(w) == hash((1, 6, 2))
    # other types compare unequal, not equal through a coercion
    assert ONE != "1" and not (ONE == "1") and "0" != ZERO


@pytest.mark.parametrize("build", [GaussianRational, as_scalar, lambda x: GaussianRational(0, x)])
def test_a_float_is_no_exact_scalar(build):
    with pytest.raises(TypeError):
        build(1.5)


def test_repr_and_str_are_the_canonical_spelling():
    z = GaussianRational(1, -1)
    assert repr(z) == "GaussianRational('1-1*i')"
    assert str(z) == "1-1*i"


def test_predicates():
    assert ZERO.is_zero and not ZERO
    assert ONE.is_real and ONE
    assert not IMAG.is_real
    assert IMAG.conjugate() == -IMAG
    assert GaussianRational(3, 4).norm() == 25


@pytest.mark.parametrize(
    "value, text",
    [
        (GaussianRational(3), "3"),
        (GaussianRational(Fraction(-2, 5)), "-2/5"),
        (GaussianRational(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4*i"),
        (GaussianRational(0, -1), "0-1*i"),
        (GaussianRational(0, Fraction(2, 7)), "0+2/7*i"),
    ],
)
def test_canonical_emission(value, text):
    assert format_scalar(value) == text
    assert " " not in text


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", GaussianRational(3)),
        ("  -2/5 ", GaussianRational(Fraction(-2, 5))),
        ("1/2 + 3/4*i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("i", IMAG),
        ("-i", -IMAG),
        ("2i", GaussianRational(0, 2)),
        ("3*i", GaussianRational(0, 3)),
        ("1-2i", GaussianRational(1, -2)),
        ("+1", ONE),
        ("-3/4*i+1/2", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("+i", IMAG),
        ("1/2*i", GaussianRational(0, Fraction(1, 2))),
        (" 3 * i ", GaussianRational(0, 3)),
        ("1 + 2 i", GaussianRational(1, 2)),
    ],
)
def test_tolerant_parsing(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("bad", ["", "  ", "1+2", "i+i", "2/0", "x", "1..2", "1+2j"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@pytest.mark.parametrize(
    "bad, term",
    [
        ("1e999999999", "1e999999999"),  # Fraction would expand the exponent
        ("1e5", "1e5"),
        ("1.5", "1.5"),
        ("1_000", "1_000"),
        ("\u0661\u0662", "\u0661\u0662"),  # Arabic-Indic digits
        ("2-1e5*i", "-1e5*i"),
        ("1/-2", "1/-2"),  # a sign after "/" belongs to the term, not a new one
    ],
)
def test_parse_rejects_terms_outside_the_ascii_grammar(bad, term):
    with pytest.raises(ParseError) as info:
        parse_scalar(bad)
    assert str(info.value) == f"bad scalar {bad!r}: cannot read term {term!r}"


@pytest.mark.parametrize(
    "bad, term",
    [("*i", "*i"), ("-*i", "-*i"), ("1+*i", "+*i"), ("2**i", "2**i"), ("2***i", "2***i")],
)
def test_parse_allows_a_star_only_between_a_number_and_i(bad, term):
    with pytest.raises(ParseError) as info:
        parse_scalar(bad)
    assert str(info.value) == f"bad scalar {bad!r}: cannot read term {term!r}"


def test_parse_caps_each_digit_run_without_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match="cannot read term"):
        parse_scalar("7" * 4301)  # rejected under the default limit, as before
    sys.set_int_max_str_digits(0)
    try:
        longest = "7" * 4300
        assert parse_scalar(longest) == GaussianRational(int(longest))
        assert parse_scalar(f"1/{longest}+{longest}*i").im == int(longest)
        for bad, term in [
            ("7" * 4301, "7" * 4301),
            (f"1/{'3' * 4301}", f"1/{'3' * 4301}"),
            (f"2-{'9' * 10**6}*i", f"-{'9' * 10**6}*i"),  # would parse in quadratic time
        ]:
            with pytest.raises(ParseError) as info:
                parse_scalar(bad)
            assert str(info.value) == (
                f"bad scalar {bad[:50]!r}... ({len(bad):,} characters): "
                f"cannot read term {term[:50]!r}... ({len(term):,} characters)"
            )
    finally:
        sys.set_int_max_str_digits(limit)
    # a limit lowered below the grammar's 4,300 digits: int() refuses the run,
    # and the parser reports the term, not int()'s ValueError
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError, match="cannot read term"):
            parse_scalar("7" * 641)
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_errors_quote_up_to_100_characters_and_abridge_longer_text():
    # at the limit the message is today's, quoting input and term in full
    for bad in ("x" * 100, "1." + "5" * 98):
        with pytest.raises(ParseError) as info:
            parse_scalar(bad)
        assert str(info.value) == f"bad scalar {bad!r}: cannot read term {bad!r}"
    # one past it, the input is abridged but the short term is not
    bad = "1+" + "x" * 99
    with pytest.raises(ParseError) as info:
        parse_scalar(bad)
    assert str(info.value) == (
        f"bad scalar {bad[:50]!r}... (101 characters): cannot read term {bad[1:]!r}"
    )
    # the other two messages quote the input the same way
    for bad, kind in ((f"1+{'2' * 100}", "real"), (f"{'3' * 100}*i+i", "imaginary")):
        with pytest.raises(ParseError) as info:
            parse_scalar(bad)
        assert str(info.value) == (
            f"two {kind} terms in scalar {bad[:50]!r}... ({len(bad)} characters)"
        )
    with pytest.raises(ParseError) as info:
        parse_scalar("1+2")
    assert str(info.value) == "two real terms in scalar '1+2'"


# text, counts and the lists and objects a JSON document can hold, some of each
# around the 100-character limit
_leaves = (st.text() | st.text(min_size=90, max_size=110)
           | st.integers() | st.integers(10**89, 10**110))
_outside_values = _leaves | st.recursive(
    _leaves, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=20
)


@given(_outside_values)
def test_quoted_shows_a_value_in_full_up_to_100_characters_and_abridges_longer_ones(value):
    shown = scalars_module._quoted(value)
    if isinstance(value, str):
        # quoted in full up to 100 characters, else its first 50 quoted and its length;
        # never longer than its first 100 characters quoted, whatever its length
        assert shown == (repr(value) if len(value) <= 100
                         else f"{value[:50]!r}... ({len(value):,} characters)")
        assert len(shown) <= len(repr(value[:100]))
        return
    full = repr(value)
    if len(full) <= 100:
        assert shown == full
    else:
        assert shown == f"{full[:50]}... ({len(full):,} characters)" and len(shown) <= 80


# ---- the parser against its reference path ------------------------------------------
# ref_parse_scalar is parse_scalar before the regex split and the one-Fraction
# term parse.  The two agree on every string, value or error message, except
# where a term has a "*" with no number before it or "**" before its "i":
# the reference read those as imaginary terms, and parse_scalar rejects them.

_STAR_WITHOUT_A_NUMBER = re.compile(r"[+-]*(?:\*+|.*\*\*)i")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _assert_matches_reference(text):
    stripped = "".join(text.split())
    assert _split_terms(stripped) == ref_split_terms(stripped)
    outcome = _outcome(parse_scalar, text)
    if any(_STAR_WITHOUT_A_NUMBER.fullmatch(t) for t in ref_split_terms(stripped)):
        assert isinstance(outcome, str)  # rejected; the reference may have accepted
    else:
        assert outcome == _outcome(ref_parse_scalar, text)


@given(st.text(alphabet="0123456789+-/*i ", max_size=24))
def test_parse_matches_the_reference_parser(text):
    _assert_matches_reference(text)


@pytest.mark.parametrize(
    "text",
    ["1/0", "0/0", "-0/5", "007/010", "--3", "+-2/4*i", "7" * 4300, "7" * 4301,
     "1/-2", "3-", "i+i", "1-2*i+"],
)
def test_parse_matches_the_reference_parser_on_edge_cases(text):
    _assert_matches_reference(text)


def test_parse_edge_case_values():
    assert parse_scalar("-0/5") == ZERO
    assert parse_scalar("007/010") == GaussianRational(Fraction(7, 10))
    assert parse_scalar("--3") == GaussianRational(3)
    assert parse_scalar("+-2/4*i") == GaussianRational(0, Fraction(-1, 2))
    assert parse_scalar("7" * 4300) == GaussianRational(int("7" * 4300))
    for bad in ("1/0", "0/0", "7" * 4301):
        with pytest.raises(ParseError, match="cannot read term"):
            parse_scalar(bad)


# ---- the one-match read of canonical text against the tokenizer --------------------

wide_scalars = st.builds(GaussianRational, st.fractions(), st.fractions())


@given(st.one_of(scalars, wide_scalars))
def test_canonical_text_is_read_by_one_match_into_the_tokenizer_cell(z):
    text = format_scalar(z)
    assert scalars_module._SPELLED(text)
    assert _parse_parts(text) == _read_terms(text)


@pytest.mark.parametrize("text, cell", [
    ("007/014", (7, 0, 14)),  # unreduced, as written
    ("-0/5+3/6*i", (0, 15, 30)),  # over the lcm of the two denominators
    ("1/0", "ParseError: bad scalar '1/0': cannot read term '1/0'"),
    ("0-1/0*i", "ParseError: bad scalar '0-1/0*i': cannot read term '-1/0*i'"),
])
def test_the_one_match_and_the_tokenizer_agree_on_spellings_format_never_writes(text, cell):
    assert scalars_module._SPELLED(text)
    assert _outcome(_parse_parts, text) == _outcome(_read_terms, text) == cell


@given(scalars)
def test_parse_inverts_format(z):
    assert parse_scalar(format_scalar(z)) == z


@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO
    if y:
        assert y * y.inverse() == ONE
        assert (x / y) * y == x


def test_division_builds_one_scalar(monkeypatch):
    x, y = GaussianRational(Fraction(1, 2), 3), GaussianRational(2, Fraction(-1, 3))
    assert (x / y) * y == x and (2 / y) * y == GaussianRational(2) and y.inverse() * y == ONE
    calls = []
    canonical = scalars_module._canonical
    monkeypatch.setattr(scalars_module, "_canonical", lambda *args: calls.append(args) or canonical(*args))
    # one formula per quotient; 2 / y also coerces the 2
    for divide, count in ((lambda: x / y, 1), (lambda: 2 / y, 2), (y.inverse, 1)):
        calls.clear()
        divide()
        assert len(calls) == count


@given(scalars, scalars)
def test_results_stay_canonical(x, y):
    for value in (x + y, x - y, x * y):
        for part in (value.re, value.im):
            assert part.denominator > 0
            assert math.gcd(part.numerator, part.denominator) == 1


# ---- the int parts against the Fraction-pair reference ---------------------------------
# (num, den) draws with signed denominators, as lab._rand_part makes them
ratios = st.tuples(st.integers(-60, 60), st.integers(-12, 12).filter(bool))


def _agrees(z, ref):
    """z is the canonical scalar of the reference value ref, read every way."""
    assert type(z) is GaussianRational
    assert z.den > 0 and math.gcd(z.re_num, z.im_num, z.den) == 1
    assert (z.re, z.im) == (ref.re, ref.im)
    assert type(z.re) is type(z.im) is Fraction
    assert z == GaussianRational(ref.re, ref.im)
    assert hash(z) == hash(GaussianRational(ref.re, ref.im))
    assert format_scalar(z) == ref.text()
    assert bool(z) == bool(ref) and z.is_real == ref.is_real
    assert z.norm() == ref.norm() and type(z.norm()) is Fraction


@given(ratios, ratios, ratios, ratios, st.sampled_from(["scalar", "int", "fraction"]))
def test_int_parts_agree_with_the_fraction_pair_reference(xr, xi, yr, yi, kind):
    x = GaussianRational(Fraction(*xr), Fraction(*xi))
    rx = FractionPair(Fraction(*xr), Fraction(*xi))
    _agrees(x, rx)
    if kind == "scalar":
        y, ry = GaussianRational(Fraction(*yr), Fraction(*yi)), FractionPair(Fraction(*yr), Fraction(*yi))
    else:  # a plain operand, coerced forward and reflected
        y = ry = yr[0] if kind == "int" else Fraction(*yr)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b, ra, rb in ((x, y, rx, ry), (y, x, ry, rx)):
            if op is operator.truediv and not rb:
                with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
                    op(a, b)
                with pytest.raises(ZeroDivisionError):
                    op(ra, rb)
            else:
                _agrees(op(a, b), op(ra, rb))
    _agrees(-x, -rx)
    _agrees(x.conjugate(), rx.conjugate())
    if rx:
        _agrees(x.inverse(), rx.inverse())
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
            x.inverse()


@given(ratios, ratios, st.integers(1, 9), st.integers(-9, 9).filter(bool))
def test_every_construction_path_gives_one_canonical_scalar(re_part, im_part, k, m):
    (rn, rd), (imn, imd) = re_part, im_part
    ref = FractionPair(Fraction(rn, rd), Fraction(imn, imd))
    re_value, im_value = ref.re, ref.im
    unreduced = (f"{re_value.numerator * k}/{re_value.denominator * k}"
                 f"{'-' if im_value < 0 else '+'}{abs(im_value.numerator) * k}/"
                 f"{im_value.denominator * k}*i")
    built = [
        GaussianRational(re_value, im_value),
        GaussianRational(re=re_value, im=im_value),
        parse_scalar(unreduced),
        # from ints with signed and unreduced denominators, and from the cell
        # over their lcm, as lab._rand_scalar builds one
        _gaussian(rn * imd, imn * rd, rd * imd),
        _gaussian(m * rn * imd, m * imn * rd, m * rd * imd),
        _gaussian(*_cell(re_part, im_part)),
    ]
    for z in built:
        _agrees(z, ref)
        assert z == built[0] and hash(z) == hash(built[0])
        if not im_value:
            assert z.im is ZERO.im  # the one shared Fraction(0)
    if not ref:
        assert all(z is ZERO for z in built[2:])  # the builder shares ZERO
