import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import elemop
from elemop import GaussianRational, Matrix, NilpotencyReport, SweepReport, cli, criteria, lab, nilpotency
from elemop.cli import main
from elemop.jsonio import dumps, matrix_from_obj, matrix_to_obj, operator_to_obj
from elemop.operators import make_multiplication, make_v_operator

J2 = Matrix([[0, 1], [0, 0]])
I2 = Matrix.identity(2)
FAMILY_A = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])
FAMILY_B = Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]])


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def matrix_arg(m):
    return json.dumps(matrix_to_obj(m))


def operator_arg(op):
    return json.dumps(operator_to_obj(op))


def test_apply(capsys):
    op = make_v_operator(J2, Matrix([[0, 0], [1, 0]]))
    e11 = Matrix([[1, 0], [0, 0]])
    status, out, _ = run_cli(capsys, "apply", "--op", operator_arg(op), "--x", matrix_arg(e11))
    assert status == 0
    assert json.loads(out) == matrix_to_obj(Matrix([[0, 0], [0, -1]]))


def test_superop(capsys):
    op = make_multiplication(J2, I2)
    status, out, _ = run_cli(capsys, "superop", "--op", operator_arg(op))
    assert status == 0
    doc = json.loads(out)
    assert doc["rows"] == doc["cols"] == 4


def test_nilpotent_matrix_and_operator(capsys):
    status, out, _ = run_cli(capsys, "nilpotent", "--matrix", matrix_arg(J2))
    assert status == 0
    assert json.loads(out) == {
        "nilpotent": True,
        "index": 2,
        "witness": {"row": 0, "col": 1, "value": "1"},
    }
    status, out, _ = run_cli(
        capsys, "nilpotent", "--op", operator_arg(make_multiplication(J2, I2))
    )
    assert status == 0
    assert json.loads(out)["nilpotent"] is True


def test_nilpotent_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(J2)))
    status, out, _ = run_cli(capsys, "nilpotent", "--matrix", str(path))
    assert status == 0 and json.loads(out)["index"] == 2


def test_check_theorem_21(capsys):
    status, out, _ = run_cli(
        capsys, "check", "--theorem", "2.1", "--a", matrix_arg(J2), "--b", matrix_arg(I2)
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["hypotheses_hold"] and doc["conclusion"]["nilpotent"]


def test_check_theorem_22_takes_tuples(capsys):
    n = FAMILY_A - FAMILY_B
    status, out, _ = run_cli(
        capsys,
        "check", "--theorem", "2.2",
        "--a", matrix_arg(n), matrix_arg(-FAMILY_B),
        "--b", matrix_arg(FAMILY_B), matrix_arg(n),
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["hypotheses_hold"] and doc["conclusion"]["nilpotent"]


def test_check_theorem_23_reports_shifts(capsys):
    status, out, _ = run_cli(
        capsys, "check", "--theorem", "2.3",
        "--a", matrix_arg(FAMILY_A), "--b", matrix_arg(FAMILY_B),
    )
    assert status == 0  # hypotheses fail but the result is consistent
    doc = json.loads(out)
    assert not doc["hypotheses_hold"]
    assert doc["conclusion"]["nilpotent"]
    assert doc["lambda"] is None and doc["mu"] is None


def test_check_rejects_tuple_arguments_for_single_criteria(capsys):
    status, _, err = run_cli(
        capsys, "check", "--theorem", "2.1",
        "--a", matrix_arg(J2), matrix_arg(J2), "--b", matrix_arg(I2),
    )
    assert status == 2 and "exactly one" in err


@pytest.mark.parametrize("theorem", ["2.1", "1.1"])
def test_check_rejects_a_pair_of_two_sizes(capsys, theorem):
    status, out, err = run_cli(
        capsys, "check", "--theorem", theorem,
        "--a", matrix_arg(J2), "--b", matrix_arg(Matrix.identity(3)),
    )
    assert status == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_examples_31(capsys):
    status, out, _ = run_cli(capsys, "examples", "--which", "3.1")
    assert status == 0
    doc = json.loads(out)
    assert doc["S_cubed_plus_S_zero"] is True
    assert doc["V_not_nilpotent"] is True


def test_examples_32_with_params(capsys):
    status, out, _ = run_cli(capsys, "examples", "--which", "3.2", "--params", "1,2,3,0,3")
    assert status == 0
    doc = json.loads(out)
    assert doc["V_nilpotent"] is True and doc["no_shift_A"] is True


def test_examples_32_bad_params_exit_2(capsys):
    status, _, err = run_cli(capsys, "examples", "--which", "3.2", "--params", "1,1,3,0,3")
    assert status == 2 and "violated" in err
    status, _, err = run_cli(capsys, "examples", "--which", "3.2", "--params", "1,2,3")
    assert status == 2 and "five" in err


def test_examples_31_takes_no_params_exit_2(capsys):
    status, _, err = run_cli(capsys, "examples", "--which", "3.1", "--params", "1,2,3,0,3")
    assert status == 2 and "--params only applies to --which 3.2" in err


def test_sweep_small_random(capsys):
    status, out, _ = run_cli(
        capsys, "sweep", "--theorem", "2.2", "--dim", "2", "--trials", "5", "--seed", "3"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and doc["instances_tested"] == 10


def test_sweep_identical_invocations_are_byte_identical(capsys):
    argv = ["sweep", "--theorem", "2.3", "--dim", "2", "--trials", "4", "--seed", "11"]
    status1, out1, _ = run_cli(capsys, *argv)
    status2, out2, _ = run_cli(capsys, *argv)
    assert status1 == status2 == 0
    assert out1 == out2


def test_sweep_21_requires_dim_2(capsys):
    status, _, err = run_cli(capsys, "sweep", "--theorem", "2.1", "--dim", "3")
    assert status == 2 and "--dim 2" in err


LARGE_DIM = [
    ["sweep", "--theorem", "2.2", "--dim", "9"],
    ["search", "--target", "2.3", "--dim", "9"],
]


def _patch_sweep_entries(monkeypatch, entry):
    for name in ("sweep_thm", "search_converse_failures"):
        monkeypatch.setattr(lab, name, entry)


@pytest.mark.parametrize("argv", LARGE_DIM, ids=["sweep", "search"])
def test_dim_above_the_cap_exits_2_before_any_trial(capsys, monkeypatch, argv):
    def must_not_run(*args):
        raise AssertionError("a capped --dim reached the sweep")

    _patch_sweep_entries(monkeypatch, must_not_run)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err == "error: --dim 9 is above the cap of 8\n"


def test_dim_at_the_cap_runs(capsys, monkeypatch):
    _patch_sweep_entries(
        monkeypatch,
        lambda theorem, config, trials: SweepReport(theorem, "random", config.to_obj()),
    )
    status, out, _ = run_cli(capsys, "sweep", "--theorem", "2.2", "--dim", "8")
    assert status == 0 and json.loads(out)["config"]["dim"] == 8


@pytest.mark.parametrize("argv", [
    ["sweep", "--theorem", "2.2", "--entry-bound", "11"],
    ["search", "--target", "2.3", "--entry-bound", "11"],
], ids=["sweep", "search"])
def test_entry_bound_above_the_cap_exits_2_before_any_trial(capsys, monkeypatch, argv):
    def must_not_run(*args):
        raise AssertionError("a capped --entry-bound reached the sweep")

    _patch_sweep_entries(monkeypatch, must_not_run)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err == "error: --entry-bound 11 is above the cap of 10\n"


def test_entry_bound_at_the_cap_runs(capsys, monkeypatch):
    _patch_sweep_entries(
        monkeypatch,
        lambda theorem, config, trials: SweepReport(theorem, "random", config.to_obj()),
    )
    status, out, _ = run_cli(capsys, "sweep", "--theorem", "2.2", "--entry-bound", "10")
    assert status == 0 and json.loads(out)["config"]["entry_bound"] == 10


@pytest.mark.parametrize("argv", [
    ["sweep", "--theorem", "2.2", "--trials", "1001"],
    ["search", "--target", "2.3", "--trials", "1001"],
], ids=["sweep", "search"])
def test_trials_above_the_cap_exits_2_before_any_trial(capsys, monkeypatch, argv):
    def must_not_run(*args):
        raise AssertionError("a capped --trials reached the sweep")

    _patch_sweep_entries(monkeypatch, must_not_run)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err == "error: --trials 1001 is above the cap of 1000\n"


def test_trials_at_the_cap_runs(capsys, monkeypatch):
    seen = []
    _patch_sweep_entries(
        monkeypatch,
        lambda theorem, config, trials: seen.append(trials)
        or SweepReport(theorem, "random", config.to_obj()),
    )
    status, _, _ = run_cli(capsys, "sweep", "--theorem", "2.2", "--trials", "1000")
    assert status == 0 and seen == [1000]


# ---- long int flags ----------------------------------------------------------------
#
# Every message that echoes an int flag quotes it through `_quoted`, so a value
# of thousands of digits, or one past CPython's int-string limit, gives a line
# of about a hundred bytes

LONG_INT = "9" * 4299  # the most digits an int string may have


@pytest.mark.parametrize("command", [["sweep", "--theorem", "2.3"], ["search", "--target", "2.3"]],
                         ids=["sweep", "search"])
@pytest.mark.parametrize("flag", ["--dim", "--trials", "--seed", "--entry-bound"])
@pytest.mark.parametrize("value", [LONG_INT, "-" + LONG_INT, "9" * 5000, "x" * 5000],
                         ids=["long", "long-negative", "past-the-limit", "not-an-int"])
def test_a_long_int_flag_is_echoed_abridged(capsys, command, flag, value):
    try:
        status = main([*command, flag, value])
    except SystemExit as exc:  # argparse rejects a value that is not an int
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2 and len(err.splitlines()[-1].encode()) < 200
    assert len(err.encode()) < 400  # argparse prints the usage line first
    assert f"({len(value):,} characters)" in err


@pytest.mark.parametrize("value", ["abc", "1.5", "", "x" * 100])
def test_a_short_bad_int_flag_reads_as_argparse_words_it(capsys, value):
    messages = []
    for kind in (int, cli._int):
        parser = argparse.ArgumentParser(prog="elemop")
        parser.add_argument("--dim", type=kind)
        with pytest.raises(SystemExit):
            parser.parse_args(["--dim", value])
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]


# ---- the size caps on documents ----------------------------------------------------

def _corner_doc(n: int, cols: int | None = None, value: str = "1") -> str:
    """value * E_(0, last): nilpotent of index 2 when square, n > 1 and value != 0."""
    cols = n if cols is None else cols
    return json.dumps({"rows": n, "cols": cols, "entries": [
        [value if (i, j) == (0, cols - 1) else "0" for j in range(cols)] for i in range(n)]})


def _op_doc(n: int, coefficient: int | None = None, value: str = "1") -> str:
    """X -> value*E X I on n x n matrices, the first coefficient `coefficient` x `coefficient`."""
    a, b = json.loads(_corner_doc(coefficient or n, value=value)), json.loads(_corner_doc(n))
    b["entries"] = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return json.dumps({"dim": n, "terms": [{"a": a, "b": b}]})


DIM_CAP, MATRIX_CAP = cli.DIM_CAP, cli.MATRIX_CAP
# the capped argument of each command, as argv at size n
CAPPED = {
    "apply --op": (lambda n: ["apply", "--op", _op_doc(n), "--x", _corner_doc(DIM_CAP)], "--op"),
    "apply --x": (lambda n: ["apply", "--op", _op_doc(DIM_CAP), "--x", _corner_doc(n)], "--x"),
    "superop --op": (lambda n: ["superop", "--op", _op_doc(n)], "--op"),
    "nilpotent --op": (lambda n: ["nilpotent", "--op", _op_doc(n)], "--op"),
    "nilpotent --matrix": (lambda n: ["nilpotent", "--matrix", _corner_doc(n)], "--matrix"),
    "check --a": (lambda n: ["check", "--theorem", "2.1", "--a", _corner_doc(n),
                             "--b", _corner_doc(DIM_CAP)], "--a"),
    "check --b": (lambda n: ["check", "--theorem", "1.1", "--a", _corner_doc(DIM_CAP),
                             "--b", _corner_doc(n)], "--b"),
    "check 2.2 --b": (lambda n: ["check", "--theorem", "2.2", "--a", _corner_doc(DIM_CAP),
                                 _corner_doc(DIM_CAP), "--b", _corner_doc(DIM_CAP),
                                 _corner_doc(n)], "--b"),
}


def _cap(flag: str) -> int:
    return MATRIX_CAP if flag == "--matrix" else DIM_CAP


@pytest.mark.parametrize("case", CAPPED)
def test_document_at_the_cap_runs(capsys, case):
    argv, flag = CAPPED[case]
    status, out, err = run_cli(capsys, *argv(_cap(flag)))
    assert status == 0 and err == ""
    document = json.loads(out)
    if case.startswith("nilpotent"):
        assert document["index"] == 2


def _no_parse(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a capped document reached the parser")

    for name in ("matrix_from_texts", "operator_from_texts"):
        monkeypatch.setattr(elemop.jsonio, name, must_not_run)


@pytest.mark.parametrize("argv, documents", [
    (["superop", "--op", operator_arg(make_v_operator(J2, J2.T))], 4),
    (["apply", "--op", _op_doc(2), "--x", _corner_doc(2)], 3),
    (["nilpotent", "--op", _op_doc(2)], 2),
    (["nilpotent", "--matrix", _corner_doc(2)], 1),
    (["check", "--theorem", "2.2", "--a", _corner_doc(2), _corner_doc(2),
      "--b", _corner_doc(2), _corner_doc(2)], 4),
], ids=["superop", "apply", "nilpotent --op", "nilpotent --matrix", "check"])
def test_each_matrix_document_is_read_once(capsys, monkeypatch, argv, documents):
    read, calls = elemop.jsonio.matrix_texts, []

    def counted(obj):
        calls.append(obj)
        return read(obj)

    monkeypatch.setattr(elemop.jsonio, "matrix_texts", counted)
    status, _, err = run_cli(capsys, *argv)
    assert status == 0 and err == ""
    assert len(calls) == documents


@pytest.mark.parametrize("case", CAPPED)
def test_document_above_the_cap_exits_2_before_parsing(capsys, monkeypatch, case):
    argv, flag = CAPPED[case]
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv(_cap(flag) + 1))
    assert status == 2 and out == ""
    assert err == f"error: {flag} dimension {_cap(flag) + 1} is above the cap of {_cap(flag)}\n"


@pytest.mark.parametrize("argv, message", [
    # one coefficient too large inside a small operator
    (["nilpotent", "--op", _op_doc(2, coefficient=9)], "--op dimension 9 is above the cap of 8"),
    # a wide matrix: the column count is capped too
    (["nilpotent", "--matrix", _corner_doc(1, cols=65)],
     "--matrix dimension 65 is above the cap of 64"),
    (["apply", "--op", _op_doc(2), "--x", _corner_doc(2, cols=9)],
     "--x dimension 9 is above the cap of 8"),
], ids=["coefficient", "matrix-cols", "x-cols"])
def test_every_dimension_of_a_document_is_capped(capsys, monkeypatch, argv, message):
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err == f"error: {message}\n"


def test_malformed_documents_reach_the_parser_errors(capsys):
    # sizes that are not counts, or sit where no dimension is read, are left to jsonio
    for argv, message in [
        (["nilpotent", "--op", "[1, 2]"], "operator document must be an object, got list"),
        (["nilpotent", "--op", '{"dim": "9", "terms": []}'], "bad operator dimension: '9'"),
        (["nilpotent", "--matrix", '{"rows": true, "cols": 1, "entries": [["0"]]}'],
         "bad matrix shape: rows=True, cols=1"),
    ]:
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == "" and err == f"error: {message}\n"


# a JSON count just under CPython's 4,300-digit int-string limit
_HUGE_COUNT = int("9" * 4299)
_ONE = {"rows": 1, "cols": 1, "entries": [["0"]]}


@pytest.mark.parametrize("flag, document, message", [
    ("--matrix", {"rows": "9" * 1_000_000, "cols": 1, "entries": [["0"]]},
     "bad matrix shape: rows='" + "9" * 50 + "'... (1,000,000 characters), cols=1"),
    ("--matrix", {"rows": 1, "cols": 1, "entries": [[["9" * 1_000_000]]]},
     "entry (0, 0) must be a scalar string, got ['" + "9" * 48 + "... (1,000,004 characters)"),
    ("--op", {"dim": "9" * 1_000_000, "terms": []},
     "bad operator dimension: '" + "9" * 50 + "'... (1,000,000 characters)"),
    ("--matrix", {**_ONE, "rows": _HUGE_COUNT},
     "expected " + "9" * 50 + "... (4,299 characters) entry rows, got [['0']]"),
    ("--matrix", {**_ONE, "cols": _HUGE_COUNT},
     "entry row 0 is not a list of " + "9" * 50 + "... (4,299 characters) scalars"),
    ("--op", {"dim": _HUGE_COUNT, "terms": [{"a": _ONE, "b": _ONE}]},
     "--op dimension " + "9" * 50 + "... (4,299 characters) is above the cap of 8"),
], ids=["matrix-rows", "entry", "operator-dim", "row-count", "col-count", "capped-dim"])
def test_a_megabyte_value_in_a_shape_message_is_abridged(capsys, flag, document, message):
    status, out, err = run_cli(capsys, "nilpotent", flag, json.dumps(document))
    assert status == 2 and out == "" and err == f"error: {message}\n"


# ---- the entry caps on documents -------------------------------------------------------

def _fraction(width: int, factors: int) -> str:
    """A fraction "9..9/7..7" that gives a document of one-character entries the
    width `width` in a decision whose entries multiply `factors` of them: its
    length times `factors`, plus its denominator's length, which is as long as
    it can be."""
    for m in range(width, 0, -1):
        length, rest = divmod(width - m, factors)
        if not rest and length - 1 - m >= 1:
            return "9" * (length - 1 - m) + "/" + "7" * m
    raise ValueError(width)


# the decided argument of each command, as argv at entry width w, the flags named, the size
WIDE = {
    "nilpotent --matrix": (lambda w: ["nilpotent", "--matrix", _corner_doc(16, value=_fraction(w, 1))],
                           "--matrix", 16),
    "nilpotent --op": (lambda w: ["nilpotent", "--op", _op_doc(2, value=_fraction(w, 2))], "--op", 4),
    "check": (lambda w: ["check", "--theorem", "2.1", "--a", _corner_doc(3, value=_fraction(w, 2)),
                         "--b", _corner_doc(3)], "--a and --b", 9),
}


def test_the_width_cap_falls_with_the_size_of_the_decision():
    caps = {n: cli._width_cap(n) for n in (1, 2, 3, 4, 9, 16, 25, 36, 49, 64)}
    # witness-bound up to 9x9, time-bound from 16x16, and two-character operators at the --dim cap
    assert caps == {1: 4000, 2: 4000, 3: 2000, 4: 1333, 9: 500, 16: 256, 25: 42, 36: 9,
                    49: 4, 64: 4}


@pytest.mark.parametrize("case", WIDE)
def test_entries_at_the_width_cap_run(capsys, case):
    argv, _, n = WIDE[case]
    status, out, err = run_cli(capsys, *argv(cli._width_cap(n)))
    assert status == 0 and err == ""
    if case.startswith("nilpotent"):
        assert json.loads(out)["index"] == 2


@pytest.mark.parametrize("case", WIDE)
def test_entries_above_the_width_cap_exit_2_before_parsing(capsys, monkeypatch, case):
    argv, flags, n = WIDE[case]
    cap = cli._width_cap(n)
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv(cap + 1))
    assert status == 2 and out == ""
    assert err == (f"error: {flags} entries are {cap + 1} digits wide, "
                   f"above the cap of {cap} for a {n}x{n} decision\n")


def _square(n: int, entry) -> str:
    return json.dumps({"rows": n, "cols": n, "entries": [[entry] * n for _ in range(n)]})


@pytest.mark.parametrize("argv, message", [
    # 256 short fractions: with every denominator distinct their lcm has 256 digits
    (["nilpotent", "--matrix", _square(16, "1/2")], "--matrix entries are 259 digits wide"),
    # a JSON int counts its digits and sign
    (["nilpotent", "--matrix", _square(16, -(10**256))], "--matrix entries are 258 digits wide"),
    # the width of a check adds up every --a and --b: either of these alone is 334 wide
    (["check", "--theorem", "2.2", "--a", _square(3, "1/" + "7" * 30), _square(3, "1/" + "7" * 30),
      "--b", _square(3, "0"), _square(3, "0")], "--a and --b entries are 604 digits wide"),
], ids=["denominators", "json-int", "every-check-document"])
def test_every_entry_counts_toward_the_width(capsys, monkeypatch, argv, message):
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.startswith(f"error: {message}, above the cap of ")


def _doc(entries: list[list[str]]) -> dict:
    return {"rows": len(entries), "cols": len(entries[0]), "entries": entries}


def _one_term(a: str, b: str) -> str:
    return json.dumps({"dim": 1, "terms": [{"a": _doc([[a]]), "b": _doc([[b]])}]})


def _coprime_fractions(digits: int, count: int) -> list[str]:
    """`count` fractions of `digits` characters in all, their denominators pairwise
    coprime: each output digit the bound counts is really there."""
    size = digits // count
    dens = [str(10 ** (size // 2) + k) for k in (1, 3, 7)][:count]  # 10^s+1, +3, +7: coprime
    nums = ["9" * (size - 1 - len(d)) for d in dens]
    out = [f"{n}/{d}" for n, d in zip(nums, dens)]
    out[0] = "9" * (digits - sum(map(len, out))) + out[0]
    return out


def _apply_argv(a: str, b: str, x: str) -> list[str]:
    return ["apply", "--op", _one_term(a, b), "--x", json.dumps(_doc([[x]]))]


# the commands whose outputs are built from their inputs' entries, as argv whose
# bound is `digits`, and the flags named
DIGITS = {
    "superop": (lambda digits: ["superop", "--op", _one_term(*_coprime_fractions(digits, 2))], "--op"),
    "apply": (lambda digits: _apply_argv(*_coprime_fractions(digits, 3)), "--op and --x"),
    # a = b = c = d = 10^s and k = 2*10^s: each output a polynomial of degree <= 4 in them
    "examples": (lambda digits: ["examples", "--which", "3.2", "--params", ",".join(
        ["+" * (digits // 4 - 1000) + "1" + "0" * 199] + ["1" + "0" * 199] * 3 + ["2" + "0" * 199])],
                 "--params"),
}


@pytest.mark.parametrize("argv, flags, digits", [
    # an entry of A X B reads a whole row of A and a whole column of B
    (["apply", "--op", json.dumps({"dim": 2, "terms": [{
        "a": _doc([["7" * 1000, "7" * 1000], ["0", "0"]]),
        "b": _doc([["7" * 1000, "0"], ["7" * 1000, "0"]])}]}),
      "--x", json.dumps(_doc([["1", "0"], ["0", "1"]]))], "--op and --x", 4004),
    # an entry of the superoperator reads one entry of every term's coefficients
    (["superop", "--op", json.dumps({"dim": 1, "terms": [
        {"a": _doc([["7" * 2000]]), "b": _doc([["1"]])}] * 2})], "--op", 4002),
], ids=["apply-row-and-column", "superop-terms"])
def test_every_factor_counts_toward_the_digits(capsys, monkeypatch, argv, flags, digits):
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err == (f"error: {flags} could give an output entry of {digits} digits, "
                   f"above the cap of {cli.DIGITS_CAP}\n")


@pytest.mark.parametrize("case", DIGITS)
def test_input_at_the_digits_cap_runs(capsys, case):
    argv, _ = DIGITS[case]
    status, out, err = run_cli(capsys, *argv(cli.DIGITS_CAP))
    assert status == 0 and err == ""
    if case != "examples":
        (entry,), = json.loads(out)["entries"]
        # the product of the coprime fractions: about DIGITS_CAP digits, under the 4,300 of CPython
        assert cli.DIGITS_CAP - 10 <= len(entry) <= cli.DIGITS_CAP


@pytest.mark.parametrize("case", DIGITS)
def test_input_above_the_digits_cap_exits_2_before_parsing(capsys, monkeypatch, case):
    argv, flags = DIGITS[case]
    _no_parse(monkeypatch)
    monkeypatch.setattr(cli, "parse_scalar", lambda *args: pytest.fail("a piece reached the parser"))
    digits = cli.DIGITS_CAP + (4 if case == "examples" else 1)
    status, out, err = run_cli(capsys, *argv(digits))
    assert status == 2 and out == ""
    assert err == (f"error: {flags} could give an output entry of {digits} digits, "
                   f"above the cap of {cli.DIGITS_CAP}\n")


def _unit_fractions(digits: int, count: int) -> list[str]:
    """`count` fractions 1/q, the q distinct, whose denominators have `digits` characters in all."""
    sizes = [digits // count + (k < digits % count) for k in range(count)]
    return ["1/" + str(10 ** (size - 1) + k + 1) for k, size in enumerate(sizes)]


def _scale_argv(command: str, digits: int) -> list[str]:
    """A dim-2 superop, or apply, request whose denominators have `digits` characters in all."""
    fractions = iter(_unit_fractions(digits, 8 if command == "superop" else 12))

    def matrix():
        return _doc([[next(fractions), next(fractions)], [next(fractions), next(fractions)]])

    op = json.dumps({"dim": 2, "terms": [{"a": matrix(), "b": matrix()}]})
    return ["superop", "--op", op] if command == "superop" else ["apply", "--op", op, "--x",
                                                                  json.dumps(matrix())]


# the commands that put every entry over a common scale, and the flags named
SCALED = {"superop": "--op", "apply": "--op and --x"}


@pytest.mark.parametrize("command", SCALED)
def test_common_scale_at_the_cap_runs(capsys, command):
    status, out, err = run_cli(capsys, *_scale_argv(command, cli.DIGITS_CAP))
    assert status == 0 and err == ""
    assert len(json.loads(out)["entries"]) == (4 if command == "superop" else 2)


@pytest.mark.parametrize("command", SCALED)
def test_common_scale_above_the_cap_exits_2_before_parsing(capsys, monkeypatch, command):
    _no_parse(monkeypatch)
    digits = cli.DIGITS_CAP + 1
    status, out, err = run_cli(capsys, *_scale_argv(command, digits))
    assert status == 2 and out == ""
    assert err == (f"error: {SCALED[command]} denominators could give a common scale of "
                   f"{digits} digits, above the cap of {cli.DIGITS_CAP}\n")


# ---- the term cap on operators and on check's documents -------------------------------

TERMS_CAP = cli.TERMS_CAP
ZERO = json.dumps(_doc([["0"]]))


def _terms_doc(count: int) -> str:
    """X -> sum of `count` terms 0 X 0 on 1 x 1 matrices."""
    return json.dumps({"dim": 1, "terms": [{"a": _doc([["0"]]), "b": _doc([["0"]])}] * count})


def _check_argv(a: int, b: int) -> list[str]:
    return ["check", "--theorem", "2.2", "--a", *[ZERO] * a, "--b", *[ZERO] * b]


# each command that reads a list of terms, as argv with `count` of them, the flag
# named and what it counts
TERMS = {
    "nilpotent --op": (lambda k: ["nilpotent", "--op", _terms_doc(k)], "--op", "terms"),
    "superop": (lambda k: ["superop", "--op", _terms_doc(k)], "--op", "terms"),
    "apply": (lambda k: ["apply", "--op", _terms_doc(k), "--x", ZERO], "--op", "terms"),
    "check --a": (lambda k: _check_argv(k, min(k, TERMS_CAP)), "--a", "documents"),
    "check --b": (lambda k: _check_argv(min(k, TERMS_CAP), k), "--b", "documents"),
}


@pytest.mark.parametrize("case", TERMS)
def test_terms_at_the_cap_run(capsys, case):
    argv, _, _ = TERMS[case]
    status, out, err = run_cli(capsys, *argv(TERMS_CAP))
    assert status == 0 and err == ""
    if case.startswith("check"):
        assert json.loads(out)["consistent"] is True


@pytest.mark.parametrize("case", TERMS)
def test_terms_above_the_cap_exit_2_before_parsing(capsys, monkeypatch, case):
    argv, flag, what = TERMS[case]
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv(TERMS_CAP + 1))
    assert status == 2 and out == ""
    assert err == f"error: {flag} gives {TERMS_CAP + 1} {what}, above the cap of {TERMS_CAP}\n"


@pytest.mark.parametrize("theorem, count, message", [
    ("2.2", TERMS_CAP + 1, f"--a gives {TERMS_CAP + 1} documents, above the cap of {TERMS_CAP}"),
    ("2.1", 2, "--theorem 2.1 takes exactly one --a and one --b"),
])
def test_check_counts_its_documents_before_reading_any(capsys, tmp_path, theorem, count, message):
    # reading any of these would fail on the missing file instead
    missing = str(tmp_path / "missing.json")
    status, out, err = run_cli(capsys, "check", "--theorem", theorem,
                               "--a", *[missing] * count, "--b", missing)
    assert status == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("extra", ["missing-file", "bad-scalar"])
def test_check_rejects_unequal_tuple_counts_before_loading(capsys, monkeypatch, tmp_path, extra):
    # loading the extra --b would fail on the missing file or on "1/0" instead
    _no_parse(monkeypatch)
    unreadable = (str(tmp_path / "missing.json") if extra == "missing-file"
                  else json.dumps(_doc([["1/0"]])))
    status, out, err = run_cli(capsys, "check", "--theorem", "2.2",
                               "--a", ZERO, "--b", ZERO, unreadable)
    assert status == 2 and out == ""
    assert err == ("error: --theorem 2.2 takes equal numbers of --a and --b documents, "
                   "got 1 and 2\n")


@pytest.mark.parametrize("argv, message", [
    # 65 rows named but one given: over the --matrix cap, and malformed
    (["nilpotent", "--matrix", json.dumps({"rows": 65, "cols": 1, "entries": [["0"]]})],
     "expected 65 entry rows, got [['0']]"),
    # a coefficient over the dimension cap in a term without "b"
    (["nilpotent", "--op", json.dumps({"dim": 2, "terms": [{"a": json.loads(_corner_doc(9))}]})],
     'term 0 must be an object with "a" and "b" matrices'),
    # more terms than the cap, the last one malformed
    (["superop", "--op", json.dumps({"dim": 1, "terms": [{"a": _doc([["0"]]), "b": _doc([["0"]])}]
                                     * TERMS_CAP + [{"a": _doc([["0"]]), "b": {}}]})],
     "matrix document missing keys: ['cols', 'entries', 'rows']"),
], ids=["matrix-rows", "operator-dimension", "operator-terms"])
def test_a_malformed_document_over_a_cap_gets_the_shape_message(capsys, monkeypatch, argv, message):
    # every document is shape-checked before any cap is applied to its texts
    _no_parse(monkeypatch)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err == f"error: {message}\n"


def test_search_finds_family_witnesses(capsys):
    status, out, _ = run_cli(
        capsys, "search", "--target", "2.3", "--dim", "3", "--trials", "4", "--seed", "3"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["converse_failures"]
    assert doc["violations"] == []


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status, out, _ = run_cli(
        capsys, "nilpotent", "--matrix", matrix_arg(J2), "-o", str(out_path)
    )
    assert status == 0 and out == ""
    assert json.loads(out_path.read_text())["nilpotent"] is True


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_an_unwritable_output_path_is_an_input_error(tmp_path, capsys, where):
    out_path = tmp_path / "missing" / "out.json" if where == "missing-dir" else tmp_path
    status, out, err = run_cli(
        capsys, "superop", "--op", operator_arg(make_multiplication(J2, I2)), "-o", str(out_path)
    )
    assert status == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_emitted_documents_reparse(capsys):
    _, out, _ = run_cli(capsys, "superop", "--op", operator_arg(make_multiplication(J2, I2)))
    from elemop.jsonio import matrix_from_obj

    assert matrix_from_obj(json.loads(out)).shape == (4, 4)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nilpotent"])  # neither --matrix nor --op
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--theorem", "7.7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--which", "3.1", "--frobnicate"])
    assert exc.value.code == 2


def test_parse_errors_exit_2(capsys):
    status, _, err = run_cli(capsys, "nilpotent", "--matrix", "{not json")
    assert status == 2 and "error:" in err
    status, _, err = run_cli(capsys, "nilpotent", "--matrix", "/nonexistent/m.json")
    assert status == 2
    status, _, err = run_cli(
        capsys, "nilpotent", "--matrix", '{"rows": 2, "cols": 2, "entries": [["1"]]}'
    )
    assert status == 2
    status, _, err = run_cli(
        capsys, "nilpotent", "--matrix", '{"rows": 1, "cols": 1, "entries": [["1e999999999"]]}'
    )
    assert status == 2 and "cannot read term '1e999999999'" in err


def test_invalid_inline_json_is_quoted_abridged(capsys):
    document = '{"dim": 2, "terms": [["' + "1" * 1_000_000  # unterminated
    status, out, err = run_cli(capsys, "superop", "--op", document)
    assert status == 2 and out == ""
    assert len(err) < 300 and "invalid JSON in '{" in err
    assert f"({len(document):,} characters)" in err
    # a short document is still quoted in full
    status, _, err = run_cli(capsys, "superop", "--op", '{"dim": 2')
    assert status == 2 and "invalid JSON in '{\"dim\": 2'" in err


@pytest.mark.parametrize("where", ["inline", "file"])
def test_json_nested_past_the_decoder_stack_is_a_parse_error(capsys, tmp_path, where):
    document = "[" * 100_000
    source = document
    if where == "file":
        source = str(tmp_path / "deep.json")
        Path(source).write_text(document, encoding="utf-8")
    status, out, err = run_cli(capsys, "nilpotent", "--matrix", source)
    assert status == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].startswith("error: invalid JSON in ")


@pytest.mark.parametrize("where", ["inline", "file"])
def test_json_int_over_the_digit_limit_is_a_parse_error(capsys, tmp_path, where):
    # json.loads raises a plain ValueError for an int literal of more digits than
    # CPython converts by default (4,300); it names the document like any other
    document = '{"rows": 1, "cols": 1, "entries": [[' + "7" * 5000 + "]]}"
    source = document
    if where == "file":
        source = str(tmp_path / "wide.json")
        Path(source).write_text(document, encoding="utf-8")
    status, out, err = run_cli(capsys, "nilpotent", "--matrix", source)
    assert status == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 400
    assert lines[0].startswith(f"error: invalid JSON in {cli._quoted(source)}: ")
    assert "4300" in lines[0]


@pytest.mark.parametrize("flag", ["--matrix", "--op"])
def test_inline_array_is_parsed_not_opened(capsys, flag):
    status, out, err = run_cli(capsys, "nilpotent", flag, " [1]")
    assert status == 2 and out == ""
    assert "must be an object, got list" in err
    assert "No such file" not in err


@pytest.mark.parametrize("sweep, theorem", [
    pytest.param(["--theorem", "2.1"], "2.1", id="2.1"),
    pytest.param(["--theorem", "2.1", "--exhaustive"], "2.1", id="2.1-exhaustive"),
    pytest.param(["--theorem", "1.1", "--exhaustive"], "1.1", id="1.1-exhaustive"),
])
def test_sweep_dispatches_to_exhaustive(capsys, monkeypatch, sweep, theorem):
    import elemop.cli as cli_module
    from elemop.lab import SweepReport

    calls = []

    def fake_exhaustive(name):
        calls.append(name)
        return SweepReport(theorem=name, mode="exhaustive", config={"dim": 2})

    monkeypatch.setattr(cli_module.lab, "_sweep_exhaustive", fake_exhaustive)
    status, out, _ = run_cli(capsys, "sweep", *sweep, "--dim", "2")
    assert status == 0 and calls == [theorem]
    assert json.loads(out)["mode"] == "exhaustive"


def test_sweep_11_exhaustive_flag(capsys, monkeypatch):
    import elemop.cli as cli_module
    from elemop.lab import SweepReport

    monkeypatch.setattr(
        cli_module.lab,
        "_sweep_exhaustive",
        lambda name: SweepReport(theorem=name, mode="exhaustive", config={"dim": 2}),
    )
    status, out, _ = run_cli(capsys, "sweep", "--theorem", "1.1", "--dim", "2", "--exhaustive")
    assert status == 0 and json.loads(out)["mode"] == "exhaustive"
    status, _, err = run_cli(capsys, "sweep", "--theorem", "2.2", "--exhaustive")
    assert status == 2 and "--exhaustive" in err


def test_negative_seed_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "sweep", "--theorem", "2.2", "--trials", "1", "--seed", "-4"
    )
    assert status == 2 and "seed" in err


def test_checked_property_failure_exits_1(capsys, monkeypatch):
    import elemop.cli as cli_module
    from elemop.lab import SweepReport

    def fake_sweep(theorem, config, trials):
        return SweepReport(
            theorem=theorem, mode="random", config=config.to_obj(),
            instances_tested=1, violations=[{"reason": "forced"}],
        )

    monkeypatch.setattr(cli_module.lab, "sweep_thm", fake_sweep)
    status, out, _ = run_cli(capsys, "sweep", "--theorem", "2.2", "--trials", "1")
    assert status == 1
    assert json.loads(out)["passed"] is False


def _op9_doc() -> str:
    """A two-term operator of dimension 9 with entries -1, 0 and 1."""
    def m(k):
        return {"rows": 9, "cols": 9,
                "entries": [[str((i * 9 + j + k) % 3 - 1) for j in range(9)] for i in range(9)]}
    return json.dumps({"dim": 9, "terms": [{"a": m(0), "b": m(1)}, {"a": m(2), "b": m(0)}]})


def _unit_fraction_op_doc() -> str:
    """A dim-8 one-term operator of 26.5 KB whose 128 entries are 1/q, each q a
    distinct random 200-digit number: its superoperator would hold 4,096
    entries over a common denominator of about 25,600 digits."""
    rng = random.Random(1)

    def m():
        return _doc([["1/" + str(rng.randrange(10**199, 10**200)) for _ in range(8)]
                     for _ in range(8)])
    return json.dumps({"dim": 8, "terms": [{"a": m(), "b": m()}]})


def _op2000_doc() -> str:
    """A dim-8 operator of 2,000 terms with entries -1, 0 and 1 (1.7 MB)."""
    def m(k):
        return _doc([[str((i * 8 + j + k) % 3 - 1) for j in range(8)] for i in range(8)])
    return json.dumps({"dim": 8, "terms": [{"a": m(k), "b": m(k + 1)} for k in range(2000)]})


E11I = '{"rows":2,"cols":2,"entries":[["i","0"],["0","0"]]}'
# argv placeholders, each replaced by the path of a file holding its document
FILES = {"<op9.json>": _op9_doc, "<op2000.json>": _op2000_doc}
# the CLI as a process: argv, exit code, subprocess timeout, and a check of stdout
PROCESS_CASES = {
    "examples-3.1": (["examples", "--which", "3.1"], 0, None,
                     lambda out: json.loads(out)["S_cubed_plus_S_zero"] is True),
    "unknown-theorem": (["check", "--theorem", "9"], 2, None, None),
    # a real sweep: the subcommand table, the sweep memo and the equivalence checks
    "sweep-2.1": (["sweep", "--theorem", "2.1", "--dim", "2"], 0, None,
                  lambda out: (json.loads(out)["passed"], json.loads(out)["instances_tested"])
                  == (True, 6561)),
    # the other memoised sweep: 6561 pairs, the common-shift hypotheses on 131
    "sweep-1.1-exhaustive": (
        ["sweep", "--theorem", "1.1", "--exhaustive", "--dim", "2"], 0, None,
        lambda out: [json.loads(out)[k] for k in ("passed", "instances_tested", "hypothesis_instances")]
        == [True, 6561, 131]),
    # a --dim above the cap exits 2 before any trial; a sweep that starts runs into the timeout
    "sweep-dim-50": (["sweep", "--theorem", "2.2", "--dim", "50"], 2, 10, None),
    # so does an --entry-bound above its cap: a search at bound 1000 would run for minutes
    "search-entry-bound-1000": (
        ["search", "--target", "2.3", "--dim", "8", "--entry-bound", "1000"], 2, 10, None),
    # and so does a --trials above its cap: 100000 trials would run for hours
    "sweep-trials-100000": (["sweep", "--theorem", "2.2", "--trials", "100000"], 2, 10, None),
    # the column-iterate route on the 3x3 shift: index 3, witness J^2 at row 0, column 2
    "nilpotent-shift": (
        ["nilpotent", "--matrix",
         '{"rows":3,"cols":3,"entries":[["0","1","0"],["0","0","1"],["0","0","0"]]}'], 0, None,
        lambda out: (json.loads(out)["index"], json.loads(out)["witness"]["row"],
                     json.loads(out)["witness"]["col"]) == (3, 0, 2)),
    # one Gaussian x Gaussian term whose imaginary part cancels: i*E11 (x) i*E11 = -E11 (x) E11
    "superop-cancelling-term": (
        ["superop", "--op", f'{{"dim":2,"terms":[{{"a":{E11I},"b":{E11I}}}]}}'], 0, None,
        lambda out: json.loads(out)["entries"][0][0] == "-1" and "*i" not in out),
    # denominators whose common scale is above the digits cap exit 2 before any entry is parsed
    "superop-common-scale": (["superop", "--op", _unit_fraction_op_doc()], 2, 10, None),
    # a two-term operator above the dimension cap exits 2 before it is parsed
    "nilpotent-op-dim-9": (["nilpotent", "--op", "<op9.json>"], 2, 10, None),
    # so does one of more terms than the cap: all 2,000 of these would be decided
    "nilpotent-op-2000-terms": (["nilpotent", "--op", "<op2000.json>"], 2, 10, None),
    # check counts its documents before reading any: comparing every pair of
    # 3,000 per side would run into the timeout
    "check-3000-documents": (_check_argv(3000, 3000), 2, 10, None),
    # JSON nested past the decoder's recursion limit is a parse error, not a crash
    "nested-json": (["nilpotent", "--matrix", "[" * 100000], 2, None, None),
}


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_module_entry_point_runs(tmp_path, case):
    argv, code, timeout, check = PROCESS_CASES[case]
    for name in set(argv) & FILES.keys():
        (tmp_path / name.strip("<>")).write_text(FILES[name](), encoding="utf-8")
    # the child imports the same elemop as this process, installed or not
    src = str(Path(elemop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elemop.cli", *(str(tmp_path / a.strip("<>")) if a in FILES else a
                                               for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    assert proc.returncode == code, proc.stderr
    assert check is None or check(proc.stdout), proc.stdout


@pytest.mark.parametrize("argv, code", [(["examples", "--which", "3.1"], 0),
                                        (["nilpotent", "--matrix", "[1]"], 2)])
def test_module_entry_writes_what_main_writes(capsys, argv, code):
    # `python -m elemop.cli`, as the README documents it, with src on the path
    src = str(Path(elemop.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "elemop.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (main(argv), capsys.readouterr().out.encode())
    assert proc.returncode == code


def test_one_parser_serves_every_call(capsys, monkeypatch):
    import elemop.cli as cli_module

    built = []
    init = argparse.ArgumentParser.__init__

    def spy_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    cli_module.build_parser.cache_clear()
    try:
        request = ["check", "--theorem", "2.1", "--a", matrix_arg(J2), "--b", matrix_arg(I2)]
        first = run_cli(capsys, *request)
        per_build = len(built)
        for argv, code in ((["check"], 2), (["sweep", "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        assert run_cli(capsys, *request) == first
        assert first[0] == 0 and json.loads(first[1])["consistent"] is True
        # one top-level parser (its subparsers and shared parent are built with it)
        assert built.count("elemop") == 1 and len(built) == per_build
    finally:
        cli_module.build_parser.cache_clear()


def test_choices_come_from_the_criterion_table():
    import elemop.cli as cli_module

    assert cli_module.CHECK_CHOICES == ["2.1", "2.2", "2.3", "1.1"]
    assert cli_module.SWEEP_CHOICES == ["2.1", "2.2", "2.3", "1.1"]
    assert cli_module.SEARCH_CHOICES == ["2.1-ext", "2.2", "2.3"]


# ---- exhaustive sweeps take no sampling flags ---------------------------------------

SAMPLING_FLAGS = [("--trials", "1"), ("--seed", "9"), ("--entry-bound", "2"), ("--gaussian",)]


def _forbid_sweeps(monkeypatch):
    import elemop.cli as cli_module

    def fail(*args):
        raise AssertionError("a sweep ran")

    for name in ("_sweep_exhaustive", "sweep_thm"):
        monkeypatch.setattr(cli_module.lab, name, fail)


@pytest.mark.parametrize("sweep", [["--theorem", "2.1"], ["--theorem", "1.1", "--exhaustive"]])
@pytest.mark.parametrize("flag", SAMPLING_FLAGS)
def test_exhaustive_sweep_rejects_sampling_flags(capsys, monkeypatch, sweep, flag):
    _forbid_sweeps(monkeypatch)
    status, out, err = run_cli(capsys, "sweep", *sweep, *flag)
    assert status == 2 and out == ""
    assert err == f"error: {flag[0]} does not apply to an exhaustive sweep\n"


def test_exhaustive_sweep_names_the_first_sampling_flag(capsys, monkeypatch):
    _forbid_sweeps(monkeypatch)
    status, out, err = run_cli(
        capsys, "sweep", "--theorem", "2.1", "--trials", "1", "--seed", "9", "--gaussian"
    )
    assert status == 2 and out == ""
    assert err == "error: --trials does not apply to an exhaustive sweep\n"


def test_exhaustive_11_sweep_needs_dim_2(capsys, monkeypatch):
    _forbid_sweeps(monkeypatch)
    status, out, err = run_cli(capsys, "sweep", "--theorem", "1.1", "--exhaustive", "--dim", "3")
    assert status == 2 and out == ""
    assert err == "error: --exhaustive needs --dim 2\n"


def test_random_sweep_fills_sampling_defaults(capsys, monkeypatch):
    import elemop.cli as cli_module
    from elemop.lab import SweepReport

    seen = []

    def fake_sweep(theorem, config, trials):
        seen.append((config.to_obj(), trials))
        return SweepReport(theorem=theorem, mode="random", config=config.to_obj())

    monkeypatch.setattr(cli_module.lab, "sweep_thm", fake_sweep)
    assert run_cli(capsys, "sweep", "--theorem", "1.1")[0] == 0
    assert run_cli(capsys, "sweep", "--theorem", "2.3", "--trials", "5", "--gaussian")[0] == 0
    assert seen == [
        ({"dim": 2, "entry_bound": 3, "gaussian": False, "seed": 0}, 200),
        ({"dim": 2, "entry_bound": 3, "gaussian": True, "seed": 0}, 5),
    ]


# ---- integrity failures print their instance ------------------------------------------

NILPOTENT_WIDE = Matrix([[0, GaussianRational(Fraction(1, 2), Fraction(-1, 3))], [0, 0]])


def _printed_instance(err: str):
    failed, instance = err.splitlines()
    assert failed.startswith("check failed: ")
    assert instance.startswith("instance: ")
    text = instance[len("instance: "):]
    assert text == json.dumps(json.loads(text), separators=(",", ":"))  # compact
    return json.loads(text)


def _break_char_poly(monkeypatch):
    monkeypatch.setattr(nilpotency, "char_poly", lambda a: (1,) * (a.rows + 1))


def test_nilpotent_route_failure_prints_the_matrix(capsys, monkeypatch):
    _break_char_poly(monkeypatch)
    status, out, err = run_cli(capsys, "nilpotent", "--matrix", matrix_arg(NILPOTENT_WIDE))
    assert status == 1 and out == ""
    assert "disagree" in err
    assert matrix_from_obj(_printed_instance(err)) == NILPOTENT_WIDE


def test_check_route_failure_prints_the_matrix(capsys, monkeypatch):
    _break_char_poly(monkeypatch)
    status, out, err = run_cli(
        capsys, "check", "--theorem", "2.1",
        "--a", matrix_arg(NILPOTENT_WIDE), "--b", matrix_arg(I2),
    )
    assert status == 1 and out == ""
    assert matrix_from_obj(_printed_instance(err)) == NILPOTENT_WIDE


def test_check_biconditional_failure_prints_the_pair(capsys, monkeypatch):
    monkeypatch.setattr(criteria, "op_is_nilpotent", lambda op: NilpotencyReport(False))
    status, out, err = run_cli(
        capsys, "check", "--theorem", "2.1",
        "--a", matrix_arg(NILPOTENT_WIDE), "--b", matrix_arg(I2),
    )
    assert status == 1 and out == ""
    assert "length-one biconditional violated" in err
    a, b = _printed_instance(err)
    assert (matrix_from_obj(a), matrix_from_obj(b)) == (NILPOTENT_WIDE, I2)


def test_check_terms_lemma_failure_prints_the_tuples(capsys, monkeypatch):
    monkeypatch.setattr(criteria, "_terms_commute", lambda op: False)
    n = FAMILY_A - FAMILY_B
    status, out, err = run_cli(
        capsys,
        "check", "--theorem", "2.2",
        "--a", matrix_arg(n), matrix_arg(-FAMILY_B),
        "--b", matrix_arg(FAMILY_B), matrix_arg(n),
    )
    assert status == 1 and out == ""
    assert "commuting-families lemma violated" in err
    a_tuple, b_tuple = _printed_instance(err)
    assert [matrix_from_obj(m) for m in a_tuple] == [n, -FAMILY_B]
    assert [matrix_from_obj(m) for m in b_tuple] == [FAMILY_B, n]


def test_instance_json_covers_matrices_sequences_and_scalars():
    import elemop.cli as cli_module

    half_i = GaussianRational(Fraction(1, 2), 1)
    assert cli_module._instance_obj(([J2], (half_i, 3), ())) == [
        [matrix_to_obj(J2)], ["1/2+1*i", "3"], []
    ]
