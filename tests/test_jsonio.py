import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elemop import (
    ElementaryOperator,
    GaussianRational,
    Matrix,
    ParseError,
    ShapeError,
    fong_sourour_check,
    is_nilpotent,
    thm21_criterion,
    thm23_check,
)
from elemop.jsonio import (
    apply_to_obj,
    check_to_obj,
    dumps,
    matrix_from_obj,
    matrix_texts,
    matrix_to_obj,
    operator_from_obj,
    operator_texts,
    operator_to_obj,
    report_to_obj,
    superoperator_to_obj,
)
from helpers import (
    rand_matrix,
    rand_operator,
    record_scales,
    ref_apply,
    ref_matrix_from_texts,
    ref_matrix_to_obj,
    wide_matrix,
)

J2 = Matrix([[0, 1], [0, 0]])


def test_matrix_round_trip():
    rng = random.Random(60)
    for _ in range(10):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), gaussian=True)
        assert matrix_from_obj(matrix_to_obj(m)) == m


def test_matrix_emission_is_canonical():
    m = Matrix([["1/2", "-2"], ["0-1*i", "1/2+3/4*i"]])
    obj = matrix_to_obj(m)
    assert obj == {
        "rows": 2,
        "cols": 2,
        "entries": [["1/2", "-2"], ["0-1*i", "1/2+3/4*i"]],
    }
    assert all(" " not in s for row in obj["entries"] for s in row)


def test_matrix_parsing_tolerates_ints_and_spaces():
    obj = {"rows": 2, "cols": 2, "entries": [[0, " 1 "], ["0", "1 - 2i"]]}
    assert matrix_from_obj(obj) == Matrix([[0, 1], [0, "1-2i"]])


@pytest.mark.parametrize(
    "obj",
    [
        "not an object",
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 2, "cols": 2, "entries": [["1", "2"]]},
        {"rows": 1, "cols": 2, "entries": [["1"]]},
        {"rows": 1, "cols": 1, "entries": [["bogus"]]},
        {"rows": 1, "cols": 1, "entries": [[1.5]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
    ],
)
def test_matrix_parsing_rejects_bad_documents(obj):
    with pytest.raises(ParseError):
        matrix_from_obj(obj)


ONE = {"rows": 1, "cols": 1, "entries": [["1"]]}


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (matrix_from_obj, {**ONE, "rows": True}, "bad matrix shape: rows=True, cols=1"),
        (matrix_from_obj, {**ONE, "cols": True}, "bad matrix shape: rows=1, cols=True"),
        (operator_from_obj, {"dim": True, "terms": [{"a": ONE, "b": ONE}]},
         "bad operator dimension: True"),
    ],
    ids=["rows", "cols", "dim"],
)
def test_booleans_are_not_shape_fields(parse, obj, message):
    # isinstance(True, int) holds, so a bare int check would read true as 1
    with pytest.raises(ParseError) as info:
        parse(obj)
    assert str(info.value) == message


ONE_TERM = {"a": ONE, "b": ONE}


# every message of the readers, each raised by the parser too
@pytest.mark.parametrize("read, parse, obj, message", [
    (matrix_texts, matrix_from_obj, "not an object", "matrix document must be an object, got str"),
    (matrix_texts, matrix_from_obj, {"rows": 2, "cols": 2},
     "matrix document missing keys: ['entries']"),
    (matrix_texts, matrix_from_obj, {"rows": 0, "cols": 2, "entries": []},
     "bad matrix shape: rows=0, cols=2"),
    (matrix_texts, matrix_from_obj, {"rows": 2, "cols": 2, "entries": [["1", "2"]]},
     "expected 2 entry rows, got [['1', '2']]"),
    (matrix_texts, matrix_from_obj, {"rows": 1, "cols": 1, "entries": "1" * 50},
     "expected 1 entry rows, got '" + "1" * 50 + "'"),
    (matrix_texts, matrix_from_obj, {"rows": 1, "cols": 2, "entries": [["1"]]},
     "entry row 0 is not a list of 2 scalars"),
    (matrix_texts, matrix_from_obj, {"rows": 1, "cols": 2, "entries": [["1", 1.5]]},
     "entry (0, 1) must be a scalar string, got 1.5"),
    (matrix_texts, matrix_from_obj, {"rows": 1, "cols": 1, "entries": [[True]]},
     "entry (0, 0) must be a scalar string, got True"),
    (operator_texts, operator_from_obj, [ONE_TERM], "operator document must be an object, got list"),
    (operator_texts, operator_from_obj, {"dim": 1}, "operator document missing keys: ['terms']"),
    (operator_texts, operator_from_obj, {"dim": 0, "terms": [ONE_TERM]}, "bad operator dimension: 0"),
    (operator_texts, operator_from_obj, {"dim": 1, "terms": []}, "operator needs a nonempty terms list"),
    (operator_texts, operator_from_obj, {"dim": 1, "terms": [ONE_TERM, {"a": ONE}]},
     'term 1 must be an object with "a" and "b" matrices'),
    (operator_texts, operator_from_obj, {"dim": 1, "terms": [{"a": ONE, "b": {**ONE, "cols": 2}}]},
     "entry row 0 is not a list of 2 scalars"),
])
def test_readers_and_parsers_raise_the_same_messages(read, parse, obj, message):
    for function in (read, parse):
        with pytest.raises(ParseError) as info:
            function(obj)
        assert str(info.value) == message


def test_readers_return_entry_texts_and_parse_nothing():
    obj = {"rows": 1, "cols": 4, "entries": [[-12, 0, 10**30, "bogus"]]}
    assert matrix_texts(obj) == [["-12", "0", "1" + "0" * 30, "bogus"]]
    assert operator_texts({"dim": 1, "terms": [{"a": ONE, "b": obj}]}) == (
        1, [([["1"]], [["-12", "0", "1" + "0" * 30, "bogus"]])])
    with pytest.raises(ParseError):
        matrix_from_obj(obj)


def test_readers_agree_with_matrices_of_parse_scalar_entries():
    rng = random.Random(63)
    for _ in range(10):
        obj = matrix_to_obj(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), gaussian=True))
        # JSON ints in some places, spaces and shorthands in others
        obj["entries"][0][0] = rng.randint(-9, 9)
        obj["entries"][-1][-1] = " -3 / 4 + i "
        assert matrix_from_obj(obj) == ref_matrix_from_texts(matrix_texts(obj))
        op = operator_to_obj(rand_operator(rng, rng.randint(1, 3), 2, gaussian=True))
        dim, pairs = operator_texts(op)
        assert operator_from_obj(op) == ElementaryOperator(
            dim, tuple((ref_matrix_from_texts(a), ref_matrix_from_texts(b)) for a, b in pairs))


def test_operator_round_trip():
    rng = random.Random(61)
    for _ in range(8):
        op = rand_operator(rng, rng.randint(1, 3), rng.randint(1, 3), gaussian=True)
        back = operator_from_obj(operator_to_obj(op))
        assert back.dim == op.dim and back.terms == op.terms


@pytest.mark.parametrize(
    "obj",
    [
        {"dim": 2},
        {"dim": 2, "terms": []},
        {"dim": 0, "terms": [{"a": {}, "b": {}}]},
        {"dim": 2, "terms": [{"a": {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]}}]},
    ],
)
def test_operator_parsing_rejects_bad_documents(obj):
    with pytest.raises(ParseError):
        operator_from_obj(obj)


def test_nilpotency_report_serialization():
    assert report_to_obj(is_nilpotent(J2)) == {
        "nilpotent": True,
        "index": 2,
        "witness": {"row": 0, "col": 1, "value": "1"},
    }
    assert report_to_obj(is_nilpotent(Matrix.identity(2))) == {
        "nilpotent": False,
        "index": None,
        "witness": None,
    }
    assert report_to_obj(is_nilpotent(Matrix.zero(2)))["witness"] is None


def test_check_serialization_includes_shifts_only_when_present():
    plain = check_to_obj(thm21_criterion(J2, Matrix.identity(2)))
    assert "lambda" not in plain
    assert plain["hypotheses_hold"] is True and plain["consistent"] is True

    shifted = check_to_obj(thm23_check(J2, J2))
    assert shifted["lambda"] == "0" and shifted["mu"] == "0"

    common = check_to_obj(fong_sourour_check(Matrix.identity(2), Matrix.zero(2)))
    assert common["lambda"] is None
    assert common["hypothesis_failures"]


def test_dumps_is_deterministic_and_round_trips():
    rng = random.Random(62)
    op = rand_operator(rng, 2, 2, gaussian=True)
    text = dumps(operator_to_obj(op))
    assert text == dumps(operator_to_obj(op))
    assert text.endswith("\n")
    reparsed = operator_from_obj(json.loads(text))
    assert reparsed.terms == op.terms


# ---- the readers and the emitter against the entry path ----------------------------
# matrix_from_obj builds the Z[i] form from the texts' integer parts, and
# matrix_to_obj writes each entry from the form's ints; the reference goes
# through parse_scalar, GaussianRational entries and format_scalar.

def _doc(entries) -> dict:
    return {"rows": len(entries), "cols": len(entries[0]), "entries": entries}


def _wide_denominators(seed: int) -> list[list[str]]:
    """A 3x3 matrix whose every part has its own 32-48-bit denominator."""
    rng = random.Random(seed)

    def part():
        return f"{rng.randint(-2**48, 2**48)}/{rng.getrandbits(rng.randint(32, 48)) | 1 << 31}"

    return [[f"{part()}+{part()}*i" for _ in range(3)] for _ in range(3)]


WIRE_CASES = {
    "unreduced": [["2/4", "6/3"], ["-0/5", "007/010"]],
    "tolerant": [["2i", "3*i"], [" 1 / 2 + i ", "- 7 / 3 i"]],
    "json-ints": [[0, -12], [10**30, 7]],
    "pure-imaginary": [["i", "2/3*i"], ["0+5*i", "-0+1/2*i"]],
    "negative-imaginary": [["-i", "1-2/3*i"], ["-7*i", "0-1*i"]],
    "zero": [["0", "0/3"], ["-0", "0*i"]],
    "imaginary-cancels": [["1+0*i", "2-0/4*i"], ["-0*i", "5+0/9*i"]],
    "one-denominator-reduces": [["3/6", "6/6"], ["9/6", "-12/6"]],
    "wide-denominators": _wide_denominators(64),
}


@pytest.mark.parametrize("entries", WIRE_CASES.values(), ids=WIRE_CASES)
def test_reader_and_emitter_match_the_entry_path(entries):
    obj = _doc(entries)
    m, ref = matrix_from_obj(obj), ref_matrix_from_texts(matrix_texts(obj))
    assert m._form == ref._form
    assert dumps(matrix_to_obj(m)) == dumps(ref_matrix_to_obj(ref))


@pytest.mark.parametrize("m", [
    Matrix.zero(2, 3),
    Matrix([["i", "-2*i"], ["1/2*i", "0"]]),
    Matrix([["-1/3*i", "-i"]]),
    Matrix([["1/2"], ["3"], ["-5/4+1/6*i"]]),
    wide_matrix(random.Random(65), 3),
    wide_matrix(random.Random(66), 2, 3, gaussian=False),
], ids=["zero", "pure-imaginary", "negative-imaginary", "mixed", "wide", "wide-real"])
def test_emitter_matches_the_entry_path(m):
    assert matrix_to_obj(m) == ref_matrix_to_obj(m)


def test_reader_builds_over_the_lcm_of_the_denominators(monkeypatch):
    scales = record_scales(monkeypatch)
    m = matrix_from_obj(_doc([["1/6", "1/4"], ["5/6+1/4*i", "2/4"]]))
    assert scales == [12] and m._form[0] == 12


@pytest.mark.parametrize("bad", ["1/0", "0/0", "i+i", "1+2", "7" * 4301, " ", "1.5"])
def test_reader_raises_the_entry_paths_messages(bad):
    texts = [["1/2", bad]]
    with pytest.raises(ParseError) as ours:
        matrix_from_obj(_doc(texts))
    with pytest.raises(ParseError) as reference:
        ref_matrix_from_texts(texts)
    assert str(ours.value) == str(reference.value)


@st.composite
def _entry_texts(draw):
    """A scalar text in any spelling the grammar takes: padded and unreduced
    numbers, "i", "2i" and "3*i" shorthands, either term first, spaces."""
    def number():
        pad = draw(st.sampled_from(["", "0", "00"]))
        den = draw(st.none() | st.integers(1, 2**48))
        return pad + str(draw(st.integers(0, 2**48))) + ("" if den is None else f"/{pad}{den}")

    def imaginary():
        return "i" if draw(st.booleans()) else number() + draw(st.sampled_from(["", "*"])) + "i"

    space = st.sampled_from(["", " "])
    kind = draw(st.sampled_from(["re", "im", "re+im", "im+re"]))
    first = number() if kind.startswith("re") else imaginary()
    text = draw(st.sampled_from(["", "-", "+"])) + draw(space) + first
    if "+" in kind:
        second = imaginary() if kind.endswith("im") else number()
        text += draw(space) + draw(st.sampled_from(["-", "+"])) + draw(space) + second
    return text


_entries = _entry_texts() | st.integers(-2**64, 2**64)


@given(st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=3)))
def test_reader_and_emitter_match_the_entry_path_on_any_spelling(entries):
    obj = _doc(entries)
    m, ref = matrix_from_obj(obj), ref_matrix_from_texts(matrix_texts(obj))
    assert m._form == ref._form
    assert matrix_to_obj(m) == ref_matrix_to_obj(ref)


# ---- the superoperator written from the coefficients' cells ----------------------
# superoperator_to_obj writes each entry over its own products' denominators;
# the reference builds the superoperator's form and writes it.

def _part(bits: int):
    return st.builds(Fraction, st.integers(-2**bits, 2**bits), st.integers(1, 2**bits))


def _squares(draw, dim: int):
    """dim x dim matrices whose entries are zero or real or Gaussian, with
    parts of up to 2 or up to 60 bits."""
    bits = draw(st.sampled_from([2, 60]))
    imaginary = _part(bits) if draw(st.booleans()) else st.just(0)
    entry = st.just(0) | st.builds(GaussianRational, _part(bits), imaginary)
    row = st.lists(entry, min_size=dim, max_size=dim)
    return st.lists(row, min_size=dim, max_size=dim).map(Matrix)


@st.composite
def _operators(draw):
    """Dims 1-4, 1-3 terms, coefficients of `_squares`."""
    dim = draw(st.integers(1, 4))
    matrix = _squares(draw, dim)
    terms = draw(st.lists(st.tuples(matrix, matrix), min_size=1, max_size=3))
    return ElementaryOperator(dim, tuple(terms))


_A2, _B2 = Matrix([["1/2", "i"], ["-3", "2/7-1/3*i"]]), Matrix([["5/6", "0"], ["1/4*i", "-1"]])


@given(_operators())
@example(ElementaryOperator(2, ((_A2, _B2), (-_A2, _B2))))  # every entry cancels to "0"
@example(ElementaryOperator(1, ((Matrix([["-2/3+1/5*i"]]), Matrix([["9/4"]])),)))
@example(operator_from_obj({"dim": 2, "terms": [{  # read from non-canonical text
    "a": _doc([["2/4", " 6/3 "], ["-0/5", "4i"]]),
    "b": _doc([["007/010", "3*i"], ["1", "-2/6"]])}]}))
def test_superoperator_is_written_as_the_form_path_writes_it(op):
    assert superoperator_to_obj(op) == matrix_to_obj(op.superoperator())


def test_a_term_and_its_negation_write_every_entry_as_zero():
    obj = superoperator_to_obj(ElementaryOperator(2, ((_A2, _B2), (-_A2, _B2))))
    assert obj == {"rows": 4, "cols": 4, "entries": [["0"] * 4] * 4}


# ---- op(X) written over each entry's row and column scales ------------------------
# apply_to_obj writes entry (i, j) over X's scale times the lcms of row i's
# scales in the A_t and column j's in the B_t, and op(x) builds its matrix
# from the same cells; the reference sums A_t X B_t in GaussianRational
# arithmetic and writes that.

@st.composite
def _applications(draw):
    """An operator of `_operators()` and an X of `_squares` of its dimension."""
    op = draw(_operators())
    return op, draw(_squares(draw, op.dim))


_X2 = Matrix([["3/5", "-1/2*i"], ["7", "1/9+2*i"]])
_REAL2, _GAUSS2 = Matrix([["1/3", "-2"], ["5/7", "1/6"]]), Matrix([["1/2*i", "3"], ["-4/5", "1+1/8*i"]])
_ZERO_ROW, _ZERO_COL = Matrix([["1/6", "2/5"], ["0", "0"]]), Matrix([["0", "3/4"], ["0", "-1/9*i"]])


@given(_applications())
@example((ElementaryOperator(2, ((_A2, _B2), (-_A2, _B2))), _X2))  # every entry cancels to "0"
@example((ElementaryOperator(1, ((Matrix([["-2/3+1/5*i"]]), Matrix([["9/4"]])),)),
          Matrix([["5/7-i"]])))
@example((ElementaryOperator(2, ((_A2, _B2),)), Matrix.zero(2)))
@example((ElementaryOperator(2, ((_ZERO_ROW, _B2), (_A2, _ZERO_COL))), _X2))  # lines of scale 1
@example((ElementaryOperator(2, ((_REAL2, _GAUSS2),)), _X2))
@example((ElementaryOperator(2, ((_GAUSS2, _REAL2),)), _REAL2))
@example((operator_from_obj({"dim": 2, "terms": [{  # read from non-canonical text
    "a": _doc([["2/4", " 6/3 "], ["-0/5", "4i"]]),
    "b": _doc([["007/010", "3*i"], ["1", "-2/6"]])}]}),
    matrix_from_obj(_doc([["4/6", " -3 "], ["2i", "010/4"]]))))
def test_application_is_written_and_built_as_the_reference_sum(case):
    op, x = case
    ref = ref_apply(op, x)
    assert apply_to_obj(op, x) == ref_matrix_to_obj(ref)
    assert op(x) == ref


def test_a_term_and_its_negation_apply_to_every_entry_as_zero():
    obj = apply_to_obj(ElementaryOperator(2, ((_A2, _B2), (-_A2, _B2))), _X2)
    assert obj == {"rows": 2, "cols": 2, "entries": [["0"] * 2] * 2}


def test_application_rejects_an_x_of_another_shape():
    with pytest.raises(ShapeError) as info:
        apply_to_obj(ElementaryOperator(2, ((_A2, _B2),)), Matrix.identity(3))
    assert str(info.value) == "operator on 2x2 applied to 3x3"
