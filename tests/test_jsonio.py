import json
import random

import pytest

from elemop import (
    ElementaryOperator,
    Matrix,
    ParseError,
    fong_sourour_check,
    is_nilpotent,
    thm21_criterion,
    thm23_check,
)
from elemop.jsonio import (
    check_to_obj,
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    operator_from_obj,
    operator_to_obj,
    report_to_obj,
)
from helpers import rand_matrix, rand_operator

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
