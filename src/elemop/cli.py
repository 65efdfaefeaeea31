"""Command-line front end.

Every subcommand reads and writes the shared JSON formats and emits exactly
one UTF-8 JSON document.  Exit codes: 0 success (and every checked property
consistent), 1 a checked property failed, 2 a usage, parse or output error.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio, lab
from .errors import IntegrityError, ParseError
from .matrix import Matrix
from .nilpotency import is_nilpotent
from .operators import op_is_nilpotent
from .scalars import _quoted, as_scalar, format_scalar, parse_scalar


CHECK_CHOICES = [c.cli for c in lab.CRITERIA if c.supports("check")]
SWEEP_CHOICES = [c.cli for c in lab.CRITERIA if c.supports("sweep") or c.supports("exhaustive")]
SEARCH_CHOICES = [c.cli for c in lab.CRITERIA if c.supports("search")]
# defaults of the sweep flags that a randomized sweep uses and an exhaustive one rejects
SWEEP_SAMPLING = {"trials": 200, "seed": 0, "entry_bound": 3, "gaussian": False}
# the largest --dim a sweep or search takes, and the largest operator or
# coefficient any command reads: one trial takes about a second at dim 8 and
# several at dim 10, and one decision of a two-term operator about 4.5x
# longer per two more dimensions
DIM_CAP = 8
# the largest matrix `nilpotent --matrix` reads: the superoperator of a
# DIM_CAP operator, the largest the CLI forms
MATRIX_CAP = DIM_CAP * DIM_CAP
# the most decimal digits an accepted input may give one output entry: CPython
# converts at most 4,300 digits of an int to text, and the margin covers the
# digits that sums add
DIGITS_CAP = 4000
# the widest entries of a decided n x n matrix take WIDTH_BUDGET // n**4 digits,
# where a dense Gaussian decision takes about a second (the fourth power is fitted
# from n = 16 to 64), and never fewer than WIDTH_FLOOR; the witness of a power
# below the n-th takes at most n - 1 times the width, so the cap is at most
# DIGITS_CAP // (n - 1).  The budget bounds the worst case, which the power-sum
# check's early stop leaves as it was: a nilpotent decision, and a non-nilpotent
# one whose first n - 1 power sums vanish (the companion matrix of x^n - c), still
# form every power sum.  So it is not raised although a dense random decision got
# about 10x faster (0.19-0.32 s -> 0.02-0.03 s at n = 16 with 128-digit Gaussian
# entries, 2-core x86) while a dense nilpotent one stayed at about 0.5 s
WIDTH_BUDGET = 2**24
# the width of an operator at the --dim cap with two-character entries such as -1
# or -i: its dense Gaussian decision takes about 2 s, as one-character ones do
WIDTH_FLOOR = 4
# the largest --entry-bound, for the same reason: a trial at --dim 8 takes about a
# second at bound 10, and its time grows with the digits of the entries (15 s at 100)
ENTRY_BOUND_CAP = 10
# the largest --trials: a trial at the capped --dim and --entry-bound takes about
# 1.2 s, so a capped sweep or search ends within about 20 minutes
TRIALS_CAP = 1000
# the most terms an --op document, and the most documents an --a or --b of
# `check`, may give: `check --theorem 2.2` compares every pair of coefficients on
# a side, and at the --dim cap with dense entries 1, -1, i and -i took 1.8-1.9 s at
# 32 terms, 2.8-3.6 s at 64 and 7.1-9.1 s at 128; `nilpotent --op` took 1.2-1.9 s
TERMS_CAP = 64


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing leaves it unchanged, and help text is laid out when printed, so
    one parser serves every `main` call in a process; callers must not
    change it."""
    parser = argparse.ArgumentParser(
        prog="elemop",
        description="Exact nilpotency calculus for elementary operators on matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-o", "--output", metavar="PATH", help="write the JSON document here instead of stdout"
    )

    p = sub.add_parser("apply", parents=[common], help="apply an operator to a matrix")
    p.add_argument("--op", required=True, help="operator JSON (path or inline)")
    p.add_argument("--x", required=True, help="matrix JSON (path or inline)")
    p.set_defaults(run=_run_apply)

    p = sub.add_parser("superop", parents=[common], help="superoperator matrix of an operator")
    p.add_argument("--op", required=True, help="operator JSON (path or inline)")
    p.set_defaults(run=_run_superop)

    p = sub.add_parser("nilpotent", parents=[common], help="decide nilpotency with index and witness")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--matrix", help="matrix JSON (path or inline)")
    target.add_argument("--op", help="operator JSON (path or inline)")
    p.set_defaults(run=_run_nilpotent)

    p = sub.add_parser("check", parents=[common], help="run one structural criterion on concrete inputs")
    p.add_argument("--theorem", required=True, choices=CHECK_CHOICES)
    p.add_argument("--a", required=True, nargs="+", metavar="MATRIX",
                   help="left coefficient(s); several only for --theorem 2.2")
    p.add_argument("--b", required=True, nargs="+", metavar="MATRIX",
                   help="right coefficient(s); several only for --theorem 2.2")
    p.set_defaults(run=_run_check)

    p = sub.add_parser("examples", parents=[common], help="rebuild and verify a reference instance")
    p.add_argument("--which", required=True, choices=["3.1", "3.2"])
    p.add_argument("--params", metavar="a,b,c,d,k",
                   help="exact scalars for the parametric 3x3 family (3.2 only)")
    p.set_defaults(run=_run_examples)

    p = sub.add_parser("sweep", parents=[common], help="sweep a criterion over generated instances")
    p.add_argument("--theorem", required=True, choices=SWEEP_CHOICES)
    p.add_argument("--dim", type=_int, default=2)
    p.add_argument("--trials", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--entry-bound", type=_int, default=None)
    p.add_argument("--gaussian", action="store_true", default=None,
                   help="allow nonzero imaginary parts")
    p.add_argument("--exhaustive", action="store_true",
                   help="for --theorem 1.1: enumerate all dim-2 pairs with entries -1, 0, 1")
    p.set_defaults(run=_run_sweep)

    p = sub.add_parser("search", parents=[common], help="search for converse failures of a criterion")
    p.add_argument("--target", required=True, choices=SEARCH_CHOICES)
    p.add_argument("--dim", type=_int, default=3)
    p.add_argument("--trials", type=_int, default=200)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--entry-bound", type=_int, default=3)
    p.add_argument("--gaussian", action="store_true")
    p.set_defaults(run=_run_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document, status = args.run(args)
        _emit(document, args.output)
    except (ValueError, OSError) as exc:  # ParseError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.instance is not None:
            instance = json.dumps(_instance_obj(exc.instance), separators=(",", ":"))
            print(f"instance: {instance}", file=sys.stderr)
        return 1
    return status


def _run_apply(args) -> tuple[dict, int]:
    (dim, terms), x_texts = _operator(args.op), _matrix(args.x, "--x")
    _cap_scale("--op and --x", [m for t in terms for m in t] + [x_texts])
    # an entry of sum_i A_i X B_i is built from a row of each A_i, X and a column of each B_i
    _cap_digits("--op and --x", sum(_widest(a) + _widest(zip(*b)) for a, b in terms)
                + sum(len(e) for row in x_texts for e in row))
    op, x = jsonio.operator_from_texts(dim, terms), jsonio.matrix_from_texts(x_texts)
    return jsonio.apply_to_obj(op, x), 0


def _run_superop(args) -> tuple[dict, int]:
    dim, terms = _operator(args.op)
    _cap_scale("--op", [m for t in terms for m in t])
    # an entry of the superoperator is built from one entry of each coefficient
    _cap_digits("--op", sum(_longest(a) + _longest(b) for a, b in terms))
    return jsonio.superoperator_to_obj(jsonio.operator_from_texts(dim, terms)), 0


def _run_nilpotent(args) -> tuple[dict, int]:
    if args.matrix is not None:
        texts = _matrix(args.matrix, "--matrix", MATRIX_CAP)
        _cap_width("--matrix", len(texts), [texts], 1)
        report = is_nilpotent(jsonio.matrix_from_texts(texts))
    else:
        dim, terms = _operator(args.op)
        _cap_width("--op", dim * dim, [m for t in terms for m in t], 2)
        report = op_is_nilpotent(jsonio.operator_from_texts(dim, terms))
    return jsonio.report_to_obj(report), 0


def _run_check(args) -> tuple[dict, int]:
    spec = lab.criterion(args.theorem)
    if not spec.tuples and (len(args.a), len(args.b)) != (1, 1):
        raise ParseError(f"--theorem {args.theorem} takes exactly one --a and one --b")
    for flag, sources in (("--a", args.a), ("--b", args.b)):
        _cap_terms(flag, len(sources), "document")
    if len(args.a) != len(args.b):
        raise ParseError(f"--theorem {args.theorem} takes equal numbers of --a and --b "
                         f"documents, got {len(args.a)} and {len(args.b)}")
    a_texts = [_matrix(source, "--a") for source in args.a]
    b_texts = [_matrix(source, "--b") for source in args.b]
    texts = a_texts + b_texts
    # every criterion decides a superoperator, whose entries multiply an entry of each side
    dim = max(map(len, texts))
    _cap_width("--a and --b", dim * dim, texts, 2)
    a_list = list(map(jsonio.matrix_from_texts, a_texts))
    b_list = list(map(jsonio.matrix_from_texts, b_texts))
    result = spec.check((a_list, b_list) if spec.tuples else (a_list[0], b_list[0]))
    return jsonio.check_to_obj(result), 0 if result.consistent else 1


def _run_examples(args) -> tuple[dict, int]:
    if args.which == "3.1":
        if args.params:
            raise ParseError("--params only applies to --which 3.2")
        return lab.example_3_1().to_obj(), 0
    params = args.params or "1,2,3,0,3"
    pieces = params.split(",")
    if len(pieces) != 5:
        raise ParseError(f"--params needs five comma-separated scalars, got {len(pieces)}")
    # its outputs are polynomials of degree at most 4 in the parameters (the
    # witness of V^2, whose entries are quadratic in them)
    _cap_digits("--params", 4 * sum(map(len, pieces)))
    record = lab.example_3_2(*(parse_scalar(s) for s in pieces))
    return record.to_obj(), 0


def _run_sweep(args) -> tuple[dict, int]:
    spec = lab.criterion(args.theorem)
    exhaustive = spec.supports("exhaustive") and (args.exhaustive or not spec.supports("sweep"))
    if exhaustive and args.dim != 2:
        raise ParseError(
            "--exhaustive needs --dim 2" if spec.supports("sweep")
            else f"--theorem {args.theorem} sweeps exhaustively and needs --dim 2"
        )
    if exhaustive:
        for key in SWEEP_SAMPLING:
            if getattr(args, key) is not None:
                raise ParseError(f"--{key.replace('_', '-')} does not apply to an exhaustive sweep")
        report = lab._sweep_exhaustive(args.theorem)
    elif args.exhaustive:
        raise ParseError(f"--exhaustive does not apply to --theorem {args.theorem}")
    else:
        vars(args).update((k, v) for k, v in SWEEP_SAMPLING.items() if getattr(args, k) is None)
        report = lab.sweep_thm(args.theorem, _config(args), args.trials)
    return report.to_obj(), 0 if report.passed else 1


def _run_search(args) -> tuple[dict, int]:
    report = lab.search_converse_failures(args.target, _config(args), args.trials)
    return report.to_obj(), 0 if report.passed else 1


def _config(args) -> lab.GeneratorConfig:
    for flag, value, cap in (("--dim", args.dim, DIM_CAP),
                             ("--entry-bound", args.entry_bound, ENTRY_BOUND_CAP),
                             ("--trials", args.trials, TRIALS_CAP)):
        if value > cap:
            raise ParseError(f"{flag} {_quoted(value)} is above the cap of {cap}")
    return lab.GeneratorConfig(
        dim=args.dim, entry_bound=args.entry_bound, seed=args.seed, gaussian=args.gaussian
    )


def _int(text: str) -> int:
    """An int flag's value, rejected as by type=int but quoted by `_quoted`."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _instance_obj(value):
    """JSON form of an IntegrityError instance: matrices, sequences and scalars."""
    if isinstance(value, Matrix):
        return jsonio.matrix_to_obj(value)
    if isinstance(value, (list, tuple)):
        return [_instance_obj(v) for v in value]
    return format_scalar(as_scalar(value))


def _load(source: str, flag: str):
    """Read the JSON document given to `flag`: inline when its first non-space
    character opens a JSON object or array, else from the file it names."""
    text = source if source.lstrip()[:1] in ("{", "[") else _read_file(source)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, or an int literal over the int-string
        # digit limit; RecursionError: nesting deeper than the decoder's stack allows
        raise ParseError(f"invalid JSON in {_quoted(source)}: {exc}") from exc


def _matrix(source: str, flag: str, cap: int = DIM_CAP) -> list[list[str]]:
    """The entry texts of the matrix document given to `flag`, shape and size checked."""
    texts = jsonio.matrix_texts(_load(source, flag))
    _cap_dims(flag, [texts], cap)
    return texts


def _operator(source: str):
    """The --op document's dimension and its terms' entry texts, shape and size checked."""
    dim, terms = jsonio.operator_texts(_load(source, "--op"))
    _cap_terms("--op", len(terms), "term")
    _cap_dims("--op", [m for t in terms for m in t], DIM_CAP, dim)
    return dim, terms


def _cap_dims(flag: str, matrices, cap: int, *sizes: int) -> None:
    """Reject `sizes` and the row and column counts of `matrices` above `cap`."""
    for size in [*sizes, *(n for m in matrices for n in (len(m), len(m[0])))]:
        if size > cap:
            raise ParseError(f"{flag} dimension {_quoted(size)} is above the cap of {cap}")


def _cap_terms(flag: str, count: int, unit: str) -> None:
    """Reject more than TERMS_CAP of `unit` (a term or a document) given to `flag`."""
    if count > TERMS_CAP:
        raise ParseError(f"{flag} gives {count} {unit}s, above the cap of {TERMS_CAP}")


def _longest(texts) -> int:
    """The length of the longest text among a matrix's entries."""
    return max((len(e) for row in texts for e in row), default=0)


def _widest(lines) -> int:
    """The longest total length of the texts of one line (a row, say)."""
    return max((sum(map(len, line)) for line in lines), default=0)


def _cap_digits(flags: str, digits: int) -> None:
    """Reject input that could give an output entry more than DIGITS_CAP digits.

    `digits` adds up the lengths of the entries, or scalars, that one output
    entry is built from.  That bounds the entry's digits even when every
    denominator is distinct: a product of rationals p/q has no more digits
    than its factors' max(|p|, q) together, and a sum of such products over
    the product of all their denominators adds only a few."""
    if digits > DIGITS_CAP:
        raise ParseError(f"{flags} could give an output entry of {digits} digits, "
                         f"above the cap of {DIGITS_CAP}")


def _cap_width(flags: str, n: int, matrices, factors: int) -> None:
    """Reject the documents of an n x n decision whose entries are too wide.

    The decision runs on the Gaussian-integer form D*M, D the lcm of every
    denominator.  Each entry of M sums products of `factors` entries of
    `matrices`, so an entry of D*M has at most `factors` times the longest
    entry's digits plus D's, which `_scale_digits` bounds."""
    width = factors * max(map(_longest, matrices), default=0) + _scale_digits(matrices)
    cap = _width_cap(n)
    if width > cap:
        raise ParseError(f"{flags} entries are {width} digits wide, "
                         f"above the cap of {cap} for a {n}x{n} decision")


def _cap_scale(flags: str, matrices) -> None:
    """Reject documents whose common denominator could pass DIGITS_CAP digits.

    Each coefficient, and X, is built over the lcm of its own entries'
    denominators, so the cost of building them grows with those lcms' digits
    even where every output entry is short.  Neither command builds its
    output's form: both write the narrow cells of `elemop.operators`, over
    the lcms of each entry's own denominators in the coefficients (`superop`)
    or over X's scale times those of its row and column (`apply`), so for
    both the cap bounds the forms of the documents they read."""
    digits = _scale_digits(matrices)
    if digits > DIGITS_CAP:
        raise ParseError(f"{flags} denominators could give a common scale of {digits} digits, "
                         f"above the cap of {DIGITS_CAP}")


def _scale_digits(matrices) -> int:
    """The most digits the lcm of the entries' denominators can have: with
    every denominator distinct, the characters after each entry's first "/"."""
    return sum(len(e) - e.find("/") - 1 for m in matrices for row in m for e in row if "/" in e)


def _width_cap(n: int) -> int:
    """The widest entries an n x n decision takes: see WIDTH_BUDGET."""
    return max(WIDTH_FLOOR, min(WIDTH_BUDGET // max(n, 1) ** 4, DIGITS_CAP // max(n - 1, 1)))


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _emit(document: dict, output: str | None) -> None:
    text = jsonio.dumps(document)
    if output:
        # "w" truncates, so ext4 flushes the new data first: a crash leaves no torn file
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
