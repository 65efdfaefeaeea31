"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the modules of ``src/elemop``: cli -> jsonio -> lab -> criteria
-> operators -> nilpotency -> matrix -> scalars.  Every public function
defined in a layer module is wrapped, plus three methods: matrix product
(``Matrix._matmul``, behind ``*``), operator application
(``ElementaryOperator.__call__``) and ``ElementaryOperator.superoperator``.
Scalar arithmetic and coercion run millions of times per run and are not
wrapped; their time is self time of the caller, mostly ``matrix.matmul``.
Of the scalar layer only the wire-format functions are wrapped.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager

from elemop import cli, criteria, jsonio, lab, matrix, nilpotency, operators, scalars

from spans import SpanRecorder

LAYERS = (cli, jsonio, lab, criteria, operators, nilpotency, matrix, scalars)
SCALAR_FUNCTIONS = ("parse_scalar", "format_scalar")
METHODS = (
    (matrix.Matrix, "_matmul", "matrix.matmul"),
    (operators.ElementaryOperator, "__call__", "operators.apply"),
    (operators.ElementaryOperator, "superoperator", "operators.superoperator"),
)

JSONIO_PARSE = ("jsonio.matrix_from_obj", "jsonio.operator_from_obj")
JSONIO_EMIT = ("jsonio.matrix_to_obj", "jsonio.operator_to_obj", "jsonio.report_to_obj",
               "jsonio.check_to_obj", "jsonio.dumps")
CALLS_AND_SELF = (
    "cli.main",
    "scalars.parse_scalar",
    "scalars.format_scalar",
    "criteria.thm21_criterion",
    "criteria.fong_sourour_check",
    "criteria.thm22_check",
    "criteria.thm23_check",
    "criteria.scalar_shift_witness",
    "operators.superoperator",
    "operators.apply",
    "nilpotency.is_nilpotent",
    "nilpotency.char_poly",
    "matrix.matmul",
    "matrix.kron",
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module):
    for name, fn in vars(module).items():
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not name.startswith("_")
                and (module is not scalars or name in SCALAR_FUNCTIONS)):
            yield name, fn


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Span recorder plus the two counts measured at a call boundary:
    repeated ``is_nilpotent`` inputs and the widest ``char_poly`` output."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.seen = set()
        self.repeats = 0
        self.coeff_bits_max = 0

    def _note_is_nilpotent(self, args, result) -> None:
        if args[0] in self.seen:
            self.repeats += 1
        else:
            self.seen.add(args[0])

    def _note_char_poly(self, args, result) -> None:
        widest = max(_bits(part) for c in result for part in (c.re, c.im))
        self.coeff_bits_max = max(self.coeff_bits_max, widest)

    def targets(self) -> list[tuple]:
        hooks = {
            "nilpotency.is_nilpotent": self._note_is_nilpotent,
            "nilpotency.char_poly": self._note_char_poly,
        }
        out = []
        for module in LAYERS:
            for name, _ in public_functions(module):
                span = f"{_short(module)}.{name}"
                out.append((module, name, span, hooks.get(span)))
        out.extend((cls, attr, span, None) for cls, attr, span in METHODS)
        return out

    @contextmanager
    def installed(self):
        self.recorder.install(self.targets(), "elemop")
        try:
            yield self
        finally:
            self.recorder.uninstall()

    def metrics(self, summary: dict) -> dict:
        def calls(name):
            return summary.get(name, {}).get("calls", 0)

        def self_s(names):
            return sum((summary.get(n, {}).get("self_s", 0.0) for n in names), 0.0)

        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = {"value": calls(name), "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s([name]), "unit": "s"}
        out["jsonio.parse.self_s"] = {"value": self_s(JSONIO_PARSE), "unit": "s"}
        out["jsonio.emit.self_s"] = {"value": self_s(JSONIO_EMIT), "unit": "s"}
        out["lab.self_s"] = {"value": self_s([n for n in summary if n.startswith("lab.")]), "unit": "s"}
        decisions = calls("nilpotency.is_nilpotent")
        out["nilpotency.is_nilpotent.repeat_frac"] = {
            "value": self.repeats / decisions if decisions else 0.0, "unit": "fraction"}
        out["nilpotency.char_poly.coeff_bits_max"] = {"value": self.coeff_bits_max, "unit": "bits"}
        return out
