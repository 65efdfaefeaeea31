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
`superoperator_to_obj` writes an operator's superoperator without building
it: it reads each coefficient's cells once, in lowest terms, and spells
each entry sum_t B_t[l][k] * A_t[i][j] over the lcm of its own products'
denominators, which is far narrower than the lcm of every denominator that
the superoperator's form holds.  `apply_to_obj` writes op(X) without
building it: it reads the own scale of each row of each A_t and of each
column of each B_t off the coefficients' forms, one gcd per line, puts
row i of every A_t over the lcm R_i of its row's scales and column j of
every B_t over the lcm C_j of its column's, and spells entry (i, j) of
the summed Z[i] products A_t (xX) B_t over x*R_i*C_j, x the scale of X's
form; those are about half as wide as the common scale that op(X)'s form
holds.  No emitter builds a `Fraction`, a `GaussianRational` or a form.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, repeat
from math import gcd, lcm

from . import _zi
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
    """`matrix_to_obj(op.superoperator())`, written entry by entry from the
    coefficients' cells: entry (k*n + i, l*n + j) is sum_t B_t[l][k] * A_t[i][j]."""
    n = op.dim
    # each term's B transposed, so row k of it is column k of B, and its A
    pairs = [(list(zip(*b._cells(_lowest))), a._cells(_lowest)) for a, b in op.terms]
    entries = [list(map(_product_sum, zip(*[[(x, y) for x in bt[k] for y in a[i]]
                                             for bt, a in pairs])))
               for k in range(n) for i in range(n)]
    return {"rows": n * n, "cols": n * n, "entries": entries}


def apply_to_obj(op: ElementaryOperator, x: Matrix) -> dict:
    """`matrix_to_obj(op(x))`, written without building op(x): entry (i, j)
    of sum_t A_t X B_t over x * R_i * C_j, x the scale of X's form, R_i the
    lcm of row i's own scales in the A_t and C_j that of column j's in the
    B_t.  Each A_t is rescaled to have row i over R_i and each B_t to have
    column j over C_j, so every term of an entry is over that denominator,
    and a term is two Z[i] products of those narrower ints."""
    op._need_operand(x)
    sx, xf = x._form
    forms = [(a._form, b._form) for a, b in op.terms]
    rows = [lcm(*own) for own in zip(*(_own(s, map(chain, re, im) if im else re)
                                       for (s, (re, im)), _ in forms))]
    cols = [lcm(*own) for own in zip(*(_own(s, zip(*re, *(im or ())))
                                       for _, (s, (re, im)) in forms))]
    terms = [_zi.gaussian_matmul(_zi.gaussian_matmul(_rows_over(sa, a, rows), xf),
                                 _cols_over(sb, b, cols))
             for (sa, a), (sb, b) in forms]
    ims = [im for _, im in terms if im is not None]
    re = reduce(_zi.add_rows, [re for re, _ in terms])
    im = reduce(_zi.add_rows, ims) if ims else repeat(repeat(0))
    entries = [[_format_parts(u, v, d * c) for u, v, c in zip(ur, vr, cols)]
               for ur, vr, d in zip(re, im, (sx * r for r in rows))]
    return {"rows": op.dim, "cols": op.dim, "entries": entries}


def _own(scale: int, lines) -> list[int]:
    """The own scale of each line (a row, say) of a form's parts:
    scale // gcd(scale, *line), the lcm of its entries' reduced
    denominators, 1 for a zero line."""
    return [scale // gcd(scale, *line) for line in lines]


def _rows_over(scale: int, parts, common):
    """Int parts over `scale`, with row i put over common[i], a multiple of
    its own scale; a row whose common scale is `scale` stays as it is."""
    return [p and [row if c == scale else [v * c // scale for v in row]
                   for row, c in zip(p, common)] for p in parts]


def _cols_over(scale: int, parts, common):
    """Int parts over `scale`, with column j put over common[j], a multiple
    of its own scale; parts whose common scales are all `scale` stay as they are."""
    if all(c == scale for c in common):
        return parts
    return [p and [[v * c // scale for v, c in zip(row, common)] for row in p] for p in parts]


def _lowest(re: int, im: int, den: int) -> tuple[int, int, int]:
    """The cell (re, im, den) in lowest terms, so its products stay narrow."""
    g = gcd(re, im, den)
    return re // g, im // g, den // g


def _product_sum(factors) -> str:
    """The text of sum x*y over cell pairs (x, y), summed over the lcm of
    the nonzero products' denominators."""
    re, im, den = 0, 0, 1
    for (xr, xi, xd), (yr, yi, yd) in factors:
        if (xr or xi) and (yr or yi):
            d = xd * yd
            g = gcd(den, d)
            f, h = d // g, den // g  # den * f is the lcm; the product is scaled by h
            re, im = re * f + (xr * yr - xi * yi) * h, im * f + (xr * yi + xi * yr) * h
            den *= f
    return _format_parts(re, im, den)


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
