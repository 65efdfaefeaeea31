"""Shared JSON wire formats.

Matrix:    {"rows": R, "cols": C, "entries": [[s, ...], ...]}
Operator:  {"dim": n, "terms": [{"a": <matrix>, "b": <matrix>}, ...]}

Entry strings are the canonical exact scalar forms from
:mod:`elemop.scalars` ("3", "-2/5", "1/2+3/4*i"); parsing is tolerant,
emission is canonical and whitespace-free.  Floating point never appears on
the wire.  `dumps` renders any document deterministically, so equal values
always produce byte-identical text.

Reading has two halves: `matrix_texts` and `operator_texts` check a
document's shape and return its entry strings (a JSON int as its digits and
sign) without parsing a scalar, so a caller can bound a document first;
`matrix_from_texts` and `operator_from_texts` then read every entry string
with the grammar of `parse_scalar` into its int cell (re, im, den) and hand
the cells to `Matrix._from_parts`, which builds the form.  A caller that has
bounded the texts builds from them, so a document is checked once;
`matrix_from_obj` and `operator_from_obj` run both halves.  Emission runs
the other way, in the same shape: `matrix_to_obj` spells each distinct cell
of a matrix's form from its ints through `Matrix._cells`.
`superoperator_to_obj` and `apply_to_obj` spell the narrow cells that
`elemop.operators` computes for an operator's superoperator and for op(X),
each entry over denominators far narrower than the common scale that the
matrix's form would hold.  This module only spells: it does no Z[i]
arithmetic, and no emitter builds a `Fraction`, a `GaussianRational` or a
form.
"""

from __future__ import annotations

import json

from .criteria import ShiftCheckResult, TheoremCheckResult
from .errors import ParseError
from .matrix import Matrix
from .nilpotency import NilpotencyReport
from .operators import ElementaryOperator
from .scalars import _format_parts, _parse_parts, _quoted, format_scalar


def dumps(document) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# ---- matrices -----------------------------------------------------------

def matrix_to_obj(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m._cells(_format_parts)}


def matrix_texts(obj) -> list[list[str]]:
    """The entry strings of a matrix document, row by row, its shape checked."""
    if not isinstance(obj, dict):
        raise ParseError(f"matrix document must be an object, got {type(obj).__name__}")
    missing = {"rows", "cols", "entries"} - obj.keys()
    if missing:
        raise ParseError(f"matrix document missing keys: {sorted(missing)}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if not (_is_count(rows) and _is_count(cols)):
        raise ParseError(f"bad matrix shape: rows={_quoted(rows)}, cols={_quoted(cols)}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"expected {_quoted(rows)} entry rows, got {_quoted(entries)}")
    texts = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"entry row {i} is not a list of {_quoted(cols)} scalars")
        texts.append([_entry_text(e, i, j) for j, e in enumerate(row)])
    return texts


def matrix_from_obj(obj) -> Matrix:
    return matrix_from_texts(matrix_texts(obj))


def matrix_from_texts(texts: list[list[str]]) -> Matrix:
    """The matrix of entry strings as `matrix_texts` returns them, each read
    with the grammar of `parse_scalar`."""
    return Matrix._from_parts([list(map(_parse_parts, row)) for row in texts])


def _entry_text(e, i: int, j: int) -> str:
    if isinstance(e, str):
        return e
    if isinstance(e, int) and not isinstance(e, bool):
        return str(e)
    raise ParseError(f"entry ({i}, {j}) must be a scalar string, got {_quoted(e)}")


def _is_count(value) -> bool:
    """A positive int; JSON true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# ---- operators -----------------------------------------------------------

def operator_to_obj(op: ElementaryOperator) -> dict:
    return {
        "dim": op.dim,
        "terms": [{"a": matrix_to_obj(a), "b": matrix_to_obj(b)} for a, b in op.terms],
    }


def superoperator_to_obj(op: ElementaryOperator) -> dict:
    """`matrix_to_obj(op.superoperator())`, spelled from the operator's narrow cells."""
    return _cells_to_obj(op._superoperator_cells())


def apply_to_obj(op: ElementaryOperator, x: Matrix) -> dict:
    """`matrix_to_obj(op(x))`, spelled from the narrow cells that op(x) is built from."""
    return _cells_to_obj(op._applied(x))


def _cells_to_obj(cells) -> dict:
    return {"rows": len(cells), "cols": len(cells[0]),
            "entries": [[_format_parts(*c) for c in row] for row in cells]}


def operator_texts(obj) -> tuple[int, list[tuple[list[list[str]], list[list[str]]]]]:
    """An operator document's dimension and each term's a and b entry strings."""
    if not isinstance(obj, dict):
        raise ParseError(f"operator document must be an object, got {type(obj).__name__}")
    missing = {"dim", "terms"} - obj.keys()
    if missing:
        raise ParseError(f"operator document missing keys: {sorted(missing)}")
    dim, terms = obj["dim"], obj["terms"]
    if not _is_count(dim):
        raise ParseError(f"bad operator dimension: {_quoted(dim)}")
    if not isinstance(terms, list) or not terms:
        raise ParseError("operator needs a nonempty terms list")
    pairs = []
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or {"a", "b"} - term.keys():
            raise ParseError(f'term {k} must be an object with "a" and "b" matrices')
        pairs.append((matrix_texts(term["a"]), matrix_texts(term["b"])))
    return dim, pairs


def operator_from_obj(obj) -> ElementaryOperator:
    return operator_from_texts(*operator_texts(obj))


def operator_from_texts(dim: int, pairs) -> ElementaryOperator:
    """The operator of a dimension and term entry strings as `operator_texts` returns them."""
    return ElementaryOperator(
        dim, tuple((matrix_from_texts(a), matrix_from_texts(b)) for a, b in pairs))


# ---- reports ---------------------------------------------------------------

def report_to_obj(report: NilpotencyReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "row": report.witness.row,
            "col": report.witness.col,
            "value": format_scalar(report.witness.value),
        }
    return {"nilpotent": report.nilpotent, "index": report.index, "witness": witness}


def check_to_obj(result: TheoremCheckResult) -> dict:
    obj = {
        "hypotheses_hold": result.hypotheses_hold,
        "hypothesis_failures": list(result.hypothesis_failures),
        "conclusion": report_to_obj(result.conclusion),
        "consistent": result.consistent,
    }
    if isinstance(result, ShiftCheckResult):
        obj["lambda"] = None if result.lam is None else format_scalar(result.lam)
        obj["mu"] = None if result.mu is None else format_scalar(result.mu)
    return obj
