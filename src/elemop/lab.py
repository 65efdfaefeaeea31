"""Instance generators, the criterion table, sweeps, converse-failure
searches, and the two bundled reference instances.

`CRITERIA` has one entry per criterion of the paper, of one of three kinds.
An equivalence (2.1, 1.1) is violated by a mismatch either way.  An
implication (2.2, 2.3) is violated only by hypotheses that hold on a
non-nilpotent operator; a nilpotent operator without them is a converse
finding.  A conjecture (the length-2 extension of 2.1) is known to fail
(example 3.1), so it yields converse findings only.  The table drives the
sweeps, the search and the CLI's check, sweep and search; the checkers it
calls live in `elemop.criteria`, and none lives here.

Everything here is deterministic: a GeneratorConfig (including its seed)
fixes every generated instance, every sweep order and therefore every
report byte-for-byte.  Trials draw from disjoint per-trial streams derived
from the master seed, so they could run in any order or in parallel and
still merge identically by trial index.  Streams stay disjoint for at most
1,000,003 trials, so no run takes more.

Each random entry is drawn as two int parts (num, den), denominators signed
and unreduced, and put over the lcm of the two as its cell (re, im, den) by
`scalars._cell`: the one int shape in which an entry enters a form.  Random
matrices are built from their cells by `Matrix._from_parts`, and scalar
coefficients by `scalars._gaussian`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import Callable

from . import jsonio
from ._symmetry import (
    CONJUGATE_EACH,
    NEGATE_BOTH,
    NEGATE_EACH,
    TRANSPOSE_SWAP,
    pair_orbits,
    side_classes,
)
from .criteria import (
    _each_term_check,
    _sweep_facts,
    fong_sourour_check,
    scalar_shift_witness,
    thm21_criterion,
    thm22_check,
    thm23_check,
)
from .errors import IntegrityError, PreconditionError
from .matrix import Matrix, basis_matrix, matrix_poly
from .nilpotency import char_poly, is_nilpotent
from .operators import (
    ElementaryOperator,
    make_v_operator,
    op_equal,
    op_is_nilpotent,
)
from .scalars import ZERO, GaussianRational, _cell, _gaussian, _quoted, as_scalar, format_scalar

RNG_NAME = "python-random-mt19937"
# trial t of seed s draws from stream s * _STREAM_STRIDE + t
_STREAM_STRIDE = 1_000_003


@dataclass(frozen=True)
class GeneratorConfig:
    """Reproducible generation parameters.

    Numerators and denominators of generated entries are drawn from
    [-entry_bound, entry_bound] (denominators nonzero); `gaussian` allows
    nonzero imaginary parts.
    """

    dim: int
    entry_bound: int = 3
    seed: int = 0
    gaussian: bool = False

    def __post_init__(self):
        for name in ("dim", "entry_bound", "seed"):
            _check_int(name, getattr(self, name))
        if not isinstance(self.gaussian, bool):
            raise PreconditionError(f"gaussian must be a bool, got {type(self.gaussian).__name__}")
        if self.dim < 1:
            raise PreconditionError(f"dimension must be >= 1, got {_quoted(self.dim)}")
        if self.entry_bound < 1:
            raise PreconditionError(f"entry bound must be >= 1, got {_quoted(self.entry_bound)}")
        if not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must fit in 64 unsigned bits, got {_quoted(self.seed)}")

    def to_obj(self) -> dict:
        return asdict(self)


def _check_int(name: str, value) -> None:
    """Reject a value that is not an int, or is a bool, naming its field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an int, got {type(value).__name__}")


@dataclass
class SweepReport:
    """Outcome of a sweep or search run.

    A sweep passed exactly when `violations` is empty; converse failures
    are findings, not failures.
    """

    theorem: str
    mode: str
    config: dict
    instances_tested: int = 0
    hypothesis_instances: int = 0
    violations: list = field(default_factory=list)
    converse_failures: list = field(default_factory=list)
    rng: str = RNG_NAME

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return asdict(self) | {"passed": self.passed}


# ---- raw randomness --------------------------------------------------------

def _sub_seed(seed: int, index: int) -> int:
    # disjoint deterministic per-trial streams while index < _STREAM_STRIDE
    return seed * _STREAM_STRIDE + index


def _rand_part(rng: random.Random, bound: int) -> tuple[int, int]:
    num = rng.randint(-bound, bound)
    den = 0
    while den == 0:
        den = rng.randint(-bound, bound)
    return num, den


def _rand_cell(rng: random.Random, config: GeneratorConfig) -> tuple[int, int, int]:
    """An entry's cell (re, im, den), the real part drawn first, im only if Gaussian."""
    re = _rand_part(rng, config.entry_bound)
    return _cell(re, _rand_part(rng, config.entry_bound) if config.gaussian else (0, 1))


def _rand_scalar(rng: random.Random, config: GeneratorConfig) -> GaussianRational:
    return _gaussian(*_rand_cell(rng, config))


def _rand_matrix(rng: random.Random, config: GeneratorConfig) -> Matrix:
    dim = config.dim
    return Matrix._from_parts([[_rand_cell(rng, config) for _ in range(dim)] for _ in range(dim)])


def _random_unimodular(rng: random.Random, dim: int) -> tuple[Matrix, Matrix]:
    """An exactly invertible integer matrix and its exact inverse.

    Built as a short product of row shears and swaps applied to int rows;
    the inverse is maintained alongside by the matching column operations,
    so no elimination is ever needed.
    """
    s = [[int(r == c) for c in range(dim)] for r in range(dim)]
    s_inv = [list(row) for row in s]
    for _ in range(dim + 2 if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        if rng.random() < 0.25:  # swap rows i, j of s and columns i, j of s_inv
            s[i], s[j] = s[j], s[i]
            for row in s_inv:
                row[i], row[j] = row[j], row[i]
        else:  # add c times row i to row j of s; subtract c times column j from column i
            c = rng.choice((-2, -1, 1, 2))
            s[j] = [x + c * y for x, y in zip(s[j], s[i])]
            for row in s_inv:
                row[i] -= c * row[j]
    return Matrix._from_integer_form(1, s, None), Matrix._from_integer_form(1, s_inv, None)


# ---- generators --------------------------------------------------------------

def _gen_nilpotent(rng: random.Random, config: GeneratorConfig) -> Matrix:
    dim, zero = config.dim, (0, 0, 1)
    upper = Matrix._from_parts([[_rand_cell(rng, config) if j > i else zero for j in range(dim)]
                                for i in range(dim)])
    s, s_inv = _random_unimodular(rng, dim)
    return s * upper * s_inv


def gen_nilpotent(config: GeneratorConfig) -> Matrix:
    """An exactly nilpotent matrix: a conjugated strictly upper triangle."""
    return _gen_nilpotent(random.Random(config.seed), config)


def _rand_poly(
    rng: random.Random, config: GeneratorConfig, zero_constant: bool, seed: Matrix
) -> Matrix:
    """A random polynomial of degree below the dimension in `seed`."""
    coeffs = [_rand_scalar(rng, config) for _ in range(config.dim)]
    if zero_constant:
        coeffs[0] = ZERO
    return matrix_poly(coeffs, seed)


def gen_commuting_tuple(
    config: GeneratorConfig,
    seed_matrix: Matrix,
    poly_count: int,
    nilpotent_flags,
) -> list[Matrix]:
    """Pairwise-commuting matrices as random polynomials in one seed matrix.

    Polynomial degrees stay below the dimension.  Where a flag asks for a
    nilpotent output the polynomial gets a zero constant term, which makes
    the value nilpotent provided the seed matrix is; a flagged request on a
    non-nilpotent seed is an error.
    """
    nilpotent_flags = list(nilpotent_flags)
    if seed_matrix.shape != (config.dim, config.dim):
        raise PreconditionError(
            f"seed matrix is {seed_matrix.rows}x{seed_matrix.cols}, config says {config.dim}"
        )
    if len(nilpotent_flags) != poly_count:
        raise PreconditionError(
            f"{poly_count} polynomials requested but {len(nilpotent_flags)} flags given"
        )
    if any(nilpotent_flags) and not is_nilpotent(seed_matrix).nilpotent:
        raise PreconditionError(
            "a nilpotent output was requested but the seed matrix is not nilpotent"
        )
    rng = random.Random(config.seed)
    return [_rand_poly(rng, config, flag, seed_matrix) for flag in nilpotent_flags]


# ---- the criterion table -------------------------------------------------------

EQUIVALENCE = "equivalence"
IMPLICATION = "implication"
CONJECTURE = "conjecture"


@dataclass(frozen=True)
class Criterion:
    """One criterion of the paper and what it takes to exercise it.

    `kind` is EQUIVALENCE, IMPLICATION or CONJECTURE (see the module
    docstring).  An instance is what `check` takes: an (a, b) pair, a pair
    of coefficient tuples when `tuples` is set, or an operator.  From a
    trial's stream, `structured` draws an instance that satisfies the
    hypotheses by construction and `random` an unconstrained one;
    `from_pair` maps a search pair (a, b) to an instance; `symmetries` names
    the maps of `elemop._symmetry` that the exhaustive sweep quotients by.
    `check` adapts a checker of `elemop.criteria`, where every checker, and
    every fact it enforces, lives.  Adapters reach library functions through
    this module's globals, so a wrapper installed there (a test's
    monkeypatch, a tracer) sees the call.
    """

    name: str
    cli: str
    kind: str
    check: Callable
    tuples: bool = False
    structured: Callable | None = None
    random: Callable | None = None
    from_pair: Callable | None = None
    symmetries: tuple[str, ...] = ()

    def supports(self, mode: str) -> bool:
        """Whether "check", the randomized "sweep", "search" or the
        "exhaustive" dim-2 sweep can run it; only an equivalence has an
        exhaustive sweep, a check both ways on every small pair."""
        if mode == "sweep":
            return self.structured is not None
        if mode == "search":
            return self.from_pair is not None
        if mode == "exhaustive":
            return self.kind == EQUIVALENCE
        return self.kind != CONJECTURE


def _instance_obj(instance) -> dict:
    """The JSON fields of an instance, by its shape: an operator, an (a, b)
    matrix pair, or a pair of coefficient tuples."""
    if isinstance(instance, ElementaryOperator):
        return {"operator": jsonio.operator_to_obj(instance)}
    a, b = instance
    if isinstance(a, Matrix):
        # the empty reason on pair findings is part of the report format
        return {"a": jsonio.matrix_to_obj(a), "b": jsonio.matrix_to_obj(b), "reason": ""}
    return {"a_tuple": [jsonio.matrix_to_obj(m) for m in a],
            "b_tuple": [jsonio.matrix_to_obj(m) for m in b]}


def _random_pair(rng: random.Random, config: GeneratorConfig) -> tuple[Matrix, Matrix]:
    return _rand_matrix(rng, config), _rand_matrix(rng, config)


def _random_tuples(rng: random.Random, config: GeneratorConfig):
    length = rng.randint(1, 2)
    return tuple([_rand_matrix(rng, config) for _ in range(length)] for _ in range(2))


def _structured_tuples(rng: random.Random, config: GeneratorConfig):
    """Polynomials in two nilpotent seeds; at each index the polynomial on
    one side, chosen at random, has no constant term."""
    length = rng.randint(1, 3)
    seed_a = _gen_nilpotent(rng, config)
    seed_b = _gen_nilpotent(rng, config)
    a_tuple, b_tuple = [], []
    for _ in range(length):
        a_side = rng.random() < 0.5
        a_tuple.append(_rand_poly(rng, config, a_side, seed_a))
        b_tuple.append(_rand_poly(rng, config, not a_side, seed_b))
    return a_tuple, b_tuple


def _structured_shifts(rng: random.Random, config: GeneratorConfig) -> tuple[Matrix, Matrix]:
    """Scalars plus two polynomials without constant term in one nilpotent
    seed: commuting, and each a scalar shift of a nilpotent."""
    seed = _gen_nilpotent(rng, config)
    n1 = _rand_poly(rng, config, True, seed)
    n2 = _rand_poly(rng, config, True, seed)
    lam = _rand_scalar(rng, config)
    mu = _rand_scalar(rng, config)
    return n1.plus_scalar(lam), n2.plus_scalar(mu)


def _structured_common_shift(rng: random.Random, config: GeneratorConfig):
    """Two nilpotents shifted by the same scalar."""
    n1 = _gen_nilpotent(rng, config)
    n2 = _gen_nilpotent(rng, config)
    lam = _rand_scalar(rng, config)
    return n1.plus_scalar(lam), n2.plus_scalar(lam)


# Order matters: the CLI lists choices in table order.
CRITERIA = (
    Criterion("2.1", "2.1", EQUIVALENCE, lambda pair: thm21_criterion(*pair),
              symmetries=(CONJUGATE_EACH, TRANSPOSE_SWAP, NEGATE_EACH)),
    Criterion(
        "2.1-extension", "2.1-ext", CONJECTURE, lambda op: _each_term_check(op),
        from_pair=lambda a, b: make_v_operator(a, b),
    ),
    Criterion(
        "2.2", "2.2", IMPLICATION, lambda tuples: thm22_check(*tuples),
        tuples=True, structured=_structured_tuples, random=_random_tuples,
        from_pair=lambda a, b: ([a, -b], [b, a]),
    ),
    Criterion(
        "2.3", "2.3", IMPLICATION, lambda pair: thm23_check(*pair),
        structured=_structured_shifts, random=_random_pair, from_pair=lambda a, b: (a, b),
    ),
    Criterion(
        "fong_sourour", "1.1", EQUIVALENCE, lambda pair: fong_sourour_check(*pair),
        structured=_structured_common_shift, random=_random_pair,
        symmetries=(CONJUGATE_EACH, TRANSPOSE_SWAP, NEGATE_BOTH),
    ),
)


def criterion(name, mode: str = "check") -> Criterion:
    """The table entry called `name` (report name or CLI spelling) that
    `mode` can run."""
    for spec in CRITERIA:
        if str(name) in (spec.name, spec.cli) and spec.supports(mode):
            return spec
    raise PreconditionError(f"unknown {mode} target {name!r}")


def _record(spec: Criterion, instance, report: SweepReport, trial, kind: str,
            built: bool = False, weight: int = 1) -> None:
    """Check one instance and file what it shows in `report`.

    `built` instances satisfy the hypotheses by construction; the instance
    counts `weight` times (an orbit representative, for its whole orbit).
    A violation is a raised IntegrityError, a generator that broke the
    hypotheses, or a conclusion that contradicts the criterion's kind.  The
    instance is dumped only when something is filed.
    """
    report.instances_tested += weight
    reasons, converse = [], None
    try:
        result = spec.check(instance)
    except IntegrityError as exc:
        reasons.append(str(exc))
    else:
        hold, nilpotent = result.hypotheses_hold, result.conclusion.nilpotent
        failures = list(result.hypothesis_failures)
        if hold:
            report.hypothesis_instances += weight
        if built and not hold:
            reasons.append("generator broke the hypotheses: " + "; ".join(failures))
        elif hold and not nilpotent and spec.kind != CONJECTURE:
            reasons.append("hypotheses hold but operator not nilpotent")
        elif nilpotent and not hold and spec.kind == EQUIVALENCE:
            reasons.append("operator nilpotent but hypotheses fail")
        elif nilpotent and not hold:
            converse = {"failures": failures}
            if report.mode == "search":
                converse["conclusion"] = jsonio.report_to_obj(result.conclusion)
    if reasons or converse:
        found = _instance_obj(instance) | {"trial": trial, "kind": kind}
        report.violations.extend(found | {"reason": reason} for reason in reasons)
        if converse:
            report.converse_failures.append(found | converse)


def _check_trials(trials: int) -> None:
    _check_int("trials", trials)
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {_quoted(trials)}")
    if trials > _STREAM_STRIDE:
        raise PreconditionError(f"trials must be <= {_STREAM_STRIDE}, got {_quoted(trials)}")


# ---- exhaustive sweeps ---------------------------------------------------------

def sweep_thm21_exhaustive(entry_set=(-1, 0, 1)) -> SweepReport:
    """Check the length-one biconditional on every ordered pair of small
    matrices: X -> AXB nilpotent exactly when A or B is."""
    return _sweep_exhaustive("2.1", entry_set)


def sweep_fong_sourour_exhaustive(entry_set=(-1, 0, 1)) -> SweepReport:
    """Check the common-shift biconditional for X -> SX - XT on every
    ordered pair of small matrices."""
    return _sweep_exhaustive("1.1", entry_set)


def _sweep_exhaustive(theorem: str, entry_set=(-1, 0, 1), *, _brute_force=False) -> SweepReport:
    """Run an equivalence's checker on every ordered pair of the 2x2
    matrices with entries in `entry_set`; the report is named by the
    criterion's CLI spelling.

    Pairs are decided one per orbit of the group that the criterion's
    `symmetries` generate, weighted by the orbit's size: every map in it
    keeps nilpotency, index, hypotheses and predicted index.  Over {-1, 0, 1}
    that is 153 of 6,561 pairs for 2.1 and 208 for 1.1.  `trial` is a pair's
    index among all n^2, so a violation replays as that pair; `_brute_force`
    decides every pair.

    Each coefficient recurs in many pairs, so the sweep opens
    `criteria._sweep_facts()` around its loop: each distinct coefficient's
    nilpotency report and shift facts are decided once and kept until the
    sweep returns or raises; each representative pair still builds and
    decides its operator and runs its checks.
    """
    spec = criterion(theorem, "exhaustive")
    entry_set = tuple(entry_set)
    config = {"dim": 2, "entry_set": [str(e) for e in entry_set]}
    report = SweepReport(theorem=spec.cli, mode="exhaustive", config=config)
    symmetries = () if _brute_force else spec.symmetries
    classes = side_classes(2, entry_set, symmetries)
    reps = classes[0]
    combos = list(itertools.product(entry_set, repeat=4))
    mats = [Matrix([list(combos[i][:2]), list(combos[i][2:])]) for i in reps]
    with _sweep_facts():
        for a, b, weight in pair_orbits(classes, symmetries):
            trial = reps[a] * len(combos) + reps[b]
            _record(spec, (mats[a], mats[b]), report, trial, "exhaustive", weight=weight)
    return report


# ---- randomized sweeps -----------------------------------------------------------

def sweep_thm(theorem: str, config: GeneratorConfig, trials: int) -> SweepReport:
    """Randomized sweep of one criterion.

    Each trial builds an instance satisfying the hypotheses by construction
    and runs the checker; any inconsistency is a violation.  Each trial
    also runs one unconstrained random instance to harvest converse
    failures (conclusion holds, hypotheses do not).
    """
    spec = criterion(theorem, "sweep")
    _check_trials(trials)
    report = SweepReport(theorem=spec.name, mode="random", config=config.to_obj())
    for trial in range(trials):
        rng = random.Random(_sub_seed(config.seed, trial))
        _record(spec, spec.structured(rng, config), report, trial, "structured", built=True)
        _record(spec, spec.random(rng, config), report, trial, "random")
    return report


# ---- converse-failure search -----------------------------------------------------

def search_converse_failures(
    theorem: str, config: GeneratorConfig, trials: int, seed_instances=()
) -> SweepReport:
    """Hunt for instances where a criterion's conclusion holds without its
    hypotheses.

    `seed_instances` are (a, b) matrix pairs checked before the random
    trials; each is interpreted per target exactly like a generated pair.
    For the length-2 target the pair (a, b) stands for the antisymmetric
    operator X -> aXb - bXa; for the tuple criterion it stands for the
    coefficient tuples (a, -b) / (b, a) of that operator.  Random trials at
    dimension 3 alternate with instances of the structured parametric
    family known to produce witnesses.  Findings are reported without any
    completeness claim.
    """
    spec = criterion(theorem, "search")
    _check_trials(trials)
    report = SweepReport(theorem=spec.name, mode="search", config=config.to_obj())
    for k, (a, b) in enumerate(seed_instances):
        _record(spec, spec.from_pair(a, b), report, f"seed:{k}", "seeded")
    for trial in range(trials):
        rng = random.Random(_sub_seed(config.seed, trial))
        if config.dim == 3 and trial % 2 == 0:
            pair, kind = _family_pair(rng, config), "structured"
        else:
            pair, kind = _random_pair(rng, config), "random"
        _record(spec, spec.from_pair(*pair), report, trial, kind)
    return report


def _family_pair(rng: random.Random, config: GeneratorConfig) -> tuple[Matrix, Matrix]:
    """A random member of the parametric 3x3 family, randomly conjugated."""
    while True:
        pa = _rand_scalar(rng, config)
        pb = _rand_scalar(rng, config)
        k = pa + pb
        if not k:
            continue
        pc = _rand_scalar(rng, config)
        if pb + pc:
            break
    pd = k - pc
    a, b = _family_matrices(pa, pb, pc, pd, k)
    s, s_inv = _random_unimodular(rng, 3)
    return s * a * s_inv, s * b * s_inv


# ---- reference instances -----------------------------------------------------------

@dataclass(frozen=True)
class ExampleRecord:
    """A verified reference instance: inputs, derived artifacts, checked facts."""

    name: str
    facts: dict
    artifacts: dict

    def to_obj(self) -> dict:
        return {"example": self.name, **self.facts, **self.artifacts}


def example_3_1() -> ExampleRecord:
    """The 2x2 non-commuting shift pair whose antisymmetric operator cubes
    to its own negative: nonzero, so never nilpotent."""
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    v = make_v_operator(a, b)
    s = v.superoperator()

    images = {}
    diagonal_action = True
    for i in range(2):
        for j in range(2):
            e = basis_matrix(2, i, j)
            out = v(e)
            images[f"E{i + 1}{j + 1}"] = out
            expected = Matrix([[e[1, 1], 0], [0, -e[0, 0]]])
            diagonal_action = diagonal_action and out == expected

    facts = {
        "AB_ne_BA": a * b != b * a,
        "A_sq_zero": (a**2).is_zero,
        "B_sq_zero": (b**2).is_zero,
        "ABA_eq_A": a * b * a == a,
        "BAB_eq_B": b * a * b == b,
        "S_cubed_plus_S_zero": (s**3 + s).is_zero,
        "V_diagonal_action": diagonal_action,
        "V_not_nilpotent": not op_is_nilpotent(v).nilpotent,
    }
    _require_all(facts, "3.1", ())
    artifacts = {
        "A": jsonio.matrix_to_obj(a),
        "B": jsonio.matrix_to_obj(b),
        "superoperator": jsonio.matrix_to_obj(s),
        "images": {key: jsonio.matrix_to_obj(m) for key, m in images.items()},
    }
    return ExampleRecord("3.1", facts, artifacts)


def example_3_2(a, b, c, d, k) -> ExampleRecord:
    """The parametric 3x3 commuting family: its antisymmetric operator is
    nilpotent although neither matrix is, and no scalar shift exists.

    Parameters must satisfy a + b = c + d = k, k != 0 and b + c != 0.
    """
    pa, pb, pc, pd, pk = (as_scalar(x) for x in (a, b, c, d, k))
    constraints = ((pa + pb == pk, "a + b = k"), (pc + pd == pk, "c + d = k"),
                   (pk, "k != 0"), (pb + pc, "b + c != 0"))
    for holds, constraint in constraints:
        if not holds:
            raise PreconditionError(f'constraint "{constraint}" violated')

    mat_a, mat_b = _family_matrices(pa, pb, pc, pd, pk)
    n = mat_a - mat_b
    v = make_v_operator(mat_a, mat_b)
    v_nb = make_v_operator(n, mat_b)
    n_report = is_nilpotent(n)
    tuple_check = thm22_check([n, -mat_b], [mat_b, n])
    v_report = op_is_nilpotent(v)

    facts = {
        "AB_eq_BA": mat_a * mat_b == mat_b * mat_a,
        "N_nilpotent_index_2": n_report.nilpotent and n_report.index == 2,
        "V_eq_V_NB": op_equal(v, v_nb),
        "tuple_hypotheses_hold": tuple_check.hypotheses_hold,
        "V_nilpotent": v_report.nilpotent,
        "A_not_nilpotent": not is_nilpotent(mat_a).nilpotent,
        "B_not_nilpotent": not is_nilpotent(mat_b).nilpotent,
        "no_shift_A": not scalar_shift_witness(mat_a).found,
        "no_shift_B": not scalar_shift_witness(mat_b).found,
    }
    _require_all(facts, "3.2", (a, b, c, d, k))
    artifacts = {
        "params": dict(zip("abcdk", map(format_scalar, (pa, pb, pc, pd, pk)))),
        "A": jsonio.matrix_to_obj(mat_a),
        "B": jsonio.matrix_to_obj(mat_b),
        "N": jsonio.matrix_to_obj(n),
        "char_poly_A": [format_scalar(cf) for cf in char_poly(mat_a)],
        "V_nilpotency": jsonio.report_to_obj(v_report),
    }
    return ExampleRecord("3.2", facts, artifacts)


def _family_matrices(a, b, c, d, k) -> tuple[Matrix, Matrix]:
    mat_a = Matrix([[a, b, 1], [c, d, 1], [0, 0, k]])
    mat_b = Matrix([[a, b, 0], [c, d, 0], [0, 0, k]])
    return mat_a, mat_b


def _require_all(facts: dict, name: str, params: tuple) -> None:
    """Raise unless every fact holds; the error's instance is the example's
    parameters, so `example_<name>(*exc.instance)` replays it."""
    failed = [key for key, ok in facts.items() if not ok]
    if failed:
        raise IntegrityError(f"reference instance {name} checks failed: {failed}", params)
