"""Structural nilpotency criteria as executable checks.

Each checker evaluates its hypotheses on concrete matrices, decides the
conclusion (nilpotency of the associated operator) directly from the
superoperator, and reports both together with a consistency flag:
hypotheses holding must imply a nilpotent conclusion.  Every checker lives
here: `thm21_criterion`, `thm22_check`, `_each_term_check` (the length-2
extension of 2.1, which example 3.1 refutes), `thm23_check` and
`fong_sourour_check`, and `thm21_proof_replay` beside them.

Two of the criteria are exact equivalences in finite dimension, not just
implications: the length-one criterion (`thm21_criterion`) and the common
scalar shift criterion for generalized derivations (`fong_sourour_check`).
For those, a violated biconditional raises IntegrityError, since it can
only mean an implementation bug; its `instance` is the offending pair, as
for every failed step of `thm21_proof_replay`.  Both also predict the
operator's nilpotency index from the coefficients' indices and raise
IntegrityError when the decided index differs: min(ind A, ind B) for
X -> AXB, and ind(S - lam*I) + ind(T - lam*I) - 1 for X -> SX - XT.
The commuting-families criterion (`thm22_check`) and the scalar-shift
criterion (`thm23_check`) are implications only, but when their
hypotheses hold and their operator is nilpotent the index is bounded: at
most 1 + sum_i (min(ind A_i, ind B_i) - 1) for 2.2, and at most
2(ind(A - lam*I) + ind(B - mu*I)) - 3 for 2.3.  The 2.3 bound is met with
equality on 73 of the 185 dim-2 {-1, 0, 1} pairs whose hypotheses hold,
and on 21 of 240 `lab._structured_shifts` instances at dims 2-4.  Every
one of these errors is raised by `_enforce`.  Whenever 2.2's hypotheses
hold, `thm22_check` also checks the lemma its bound rests on: the terms
L_(A_i) R_(B_i) commute.  A shifted matrix A - lam*I is built only when
both sides share the candidate lam.

Checkers decide a matrix only through `_report` (its NilpotencyReport) and
an operator only through `operators.op_is_nilpotent` (the report of its
superoperator).  The matrix facts are `_report`, the shift candidate
lam = trace/d (`_shift`) and the witness that keeps it with the report of
A - lam*I (`scalar_shift_witness`); all three go through `_fact`.  Inside
`_sweep_facts()`, which the exhaustive sweeps open around their pair
loop, each is computed once per distinct coefficient and remembered until
the sweep ends; outside it every call decides afresh.  The memo holds
coefficient facts only, one dict from (fact name, the matrix's canonical
Z[i] form) to what the fact's computation returned.  Operators are never
remembered: few of a sweep's superoperators repeat, so each pair that
`lab._sweep_exhaustive` decides, one per orbit of its criterion's
symmetries, builds its operator, decides it, evaluates its hypotheses and
runs `_enforce` against the index its coefficients predict.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import eq, le
from typing import Sequence

from .errors import IntegrityError, PreconditionError, ShapeError
from .matrix import Matrix, column_vector, rank_one, row_vector
from .nilpotency import NilpotencyReport, is_nilpotent
from .operators import (
    ElementaryOperator,
    make_generalized_derivation,
    make_inner_derivation,
    make_multiplication,
    make_v_operator,
    op_is_nilpotent,
)
from .scalars import GaussianRational, as_scalar


@dataclass(frozen=True)
class TheoremCheckResult:
    """Outcome of one criterion check on one instance.

    `conclusion` is always computed, whether or not the hypotheses hold;
    `consistent` is the implication "hypotheses hold => conclusion
    nilpotent", which every criterion here guarantees.
    """

    hypotheses_hold: bool
    hypothesis_failures: tuple[str, ...]
    conclusion: NilpotencyReport

    @property
    def consistent(self) -> bool:
        return (not self.hypotheses_hold) or self.conclusion.nilpotent


@dataclass(frozen=True)
class ShiftCheckResult(TheoremCheckResult):
    """A criterion result that also carries the scalar shifts it found."""

    lam: GaussianRational | None = None
    mu: GaussianRational | None = None


@dataclass(frozen=True)
class ShiftWitness:
    """A scalar lam such that A - lam*I is nilpotent, when one exists.

    A nilpotent matrix has zero trace, so the only possible shift is
    trace(A)/dim; `scalar_shift_witness` validates that single candidate.
    """

    lam: GaussianRational | None
    shifted: NilpotencyReport | None = None

    @property
    def found(self) -> bool:
        return self.lam is not None


# Coefficient facts remembered while an exhaustive sweep runs, (name, form)
# mapped to what compute() returned for it; None outside a sweep.
_SWEEP_FACTS: ContextVar[dict | None] = ContextVar("elemop_sweep_facts", default=None)


@contextmanager
def _sweep_facts():
    """Remember coefficient facts until the block exits, however it exits."""
    token = _SWEEP_FACTS.set({})
    try:
        yield
    finally:
        _SWEEP_FACTS.reset(token)


def _fact(a: Matrix, name: str, compute):
    """compute(), remembered under (name, a's form) while a sweep's memo is open.

    The form is canonical, so it identifies a's value, as it does for
    `Matrix.__eq__`.  A computation that raises stores nothing, so every
    later read raises again, as an unmemoised call would.
    """
    facts = _SWEEP_FACTS.get()
    if facts is None:
        return compute()
    key = (name, a._form)
    value = facts.get(key)
    if value is None:  # no fact is None
        facts[key] = value = compute()
    return value


def _report(a: Matrix) -> NilpotencyReport:
    """The nilpotency report of a square matrix."""
    return _fact(a, "report", lambda: is_nilpotent(a))


def _shift(a: Matrix) -> GaussianRational:
    """The only candidate lam with A - lam*I nilpotent: trace(A)/d."""
    return _fact(a, "shift", lambda: a.trace() / a.rows)


def scalar_shift_witness(a: Matrix) -> ShiftWitness:
    """Decide the unique candidate shift and keep it only if it works."""
    def compute():
        lam = _shift(a)
        shifted = is_nilpotent(a.plus_scalar(-lam))
        return ShiftWitness(lam, shifted) if shifted.nilpotent else ShiftWitness(None)
    return _fact(a, "witness", compute)


def _terms_commute(op: ElementaryOperator) -> bool:
    """Whether op's leading terms' sum and last term commute as superoperators."""
    return op.length == 1 or ElementaryOperator(op.dim, op.terms[:-1]).superoperator().commutes_with(
        ElementaryOperator(op.dim, op.terms[-1:]).superoperator())


def _enforce(name: str, noun: str, rule: str, pair, hold: bool,
             conclusion: NilpotencyReport, predicted: int | None, within=eq) -> None:
    """Raise IntegrityError unless a decided operator is nilpotent exactly
    when its hypotheses hold, with an index that `within(index, predicted)`
    accepts: equal to the prediction for an equivalence, at most the bound
    for `thm22_check` and `thm23_check`, which call this only once their
    operator is nilpotent."""
    if hold != conclusion.nilpotent:
        raise IntegrityError(
            f"{name} biconditional violated: "
            f"hypotheses {hold} but {noun} nilpotent is {conclusion.nilpotent}",
            pair,
        )
    if not within(conclusion.index, predicted):
        raise IntegrityError(
            f"{name} index violated: {noun} index {conclusion.index} but {rule} is {predicted}",
            pair,
        )


def thm21_criterion(a: Matrix, b: Matrix) -> TheoremCheckResult:
    """Length-one criterion: X -> AXB is nilpotent iff A or B is nilpotent.

    This is an equivalence, so the result's hypotheses and conclusion must
    match in both directions; a mismatch raises IntegrityError.
    """
    reports = (_report(a), _report(b))
    hold = any(r.nilpotent for r in reports)
    failures = () if hold else ("neither A nor B nilpotent",)
    conclusion = op_is_nilpotent(make_multiplication(a, b))
    # (L_A R_B)^k = L_(A^k) R_(B^k), so the index is the smaller factor index
    predicted = min((r.index for r in reports if r.nilpotent), default=None)
    _enforce("length-one", "operator", "min(ind A, ind B)", (a, b), hold, conclusion, predicted)
    return TheoremCheckResult(hold, failures, conclusion)


def thm22_check(
    a_tuple: Sequence[Matrix], b_tuple: Sequence[Matrix]
) -> TheoremCheckResult:
    """Commuting-families criterion for X -> sum_i A_i X B_i.

    Hypotheses: the A_i commute pairwise, the B_i commute pairwise (no
    cross condition between the tuples), and for each index i at least one
    of A_i, B_i is nilpotent.  Then the terms L_(A_i) R_(B_i) commute, and
    the operator is nilpotent of index at most
    1 + sum_i (min(ind A_i, ind B_i) - 1); terms that fail to commute or an
    index above the bound raise IntegrityError with the pair of tuples.
    """
    a_tuple = tuple(a_tuple)
    b_tuple = tuple(b_tuple)
    if not a_tuple or len(a_tuple) != len(b_tuple):
        raise ShapeError(
            f"need equal-length nonempty tuples, got {len(a_tuple)} and {len(b_tuple)}"
        )

    failures = []
    for label, tup in (("A", a_tuple), ("B", b_tuple)):
        for i in range(len(tup)):
            for j in range(i + 1, len(tup)):
                if not tup[i].commutes_with(tup[j]):
                    failures.append(
                        f"{label}-tuple not pairwise commuting: "
                        f"{label}_{i + 1} and {label}_{j + 1}"
                    )
    reports = [(_report(ai), _report(bi)) for ai, bi in zip(a_tuple, b_tuple)]
    failures += [f"index {i}: neither A_{i} nor B_{i} nilpotent"
                 for i, (ra, rb) in enumerate(reports, 1) if not (ra.nilpotent or rb.nilpotent)]

    op = ElementaryOperator(a_tuple[0].rows, tuple(zip(a_tuple, b_tuple)))
    conclusion = op_is_nilpotent(op)
    if not failures and not _terms_commute(op):
        raise IntegrityError("commuting-families lemma violated: the leading terms' sum "
                             "does not commute with the last term", (a_tuple, b_tuple))
    if not failures and conclusion.nilpotent:
        # the terms L_(A_i) R_(B_i) commute and have indices m_i = min(ind A_i, ind B_i),
        # so a product of their powers vanishes once some power reaches its m_i
        bound = 1 + sum(min(r.index for r in pair if r.nilpotent) - 1 for pair in reports)
        _enforce("commuting-families", "operator", "1 + sum_i (min(ind A_i, ind B_i) - 1)",
                 (a_tuple, b_tuple), True, conclusion, bound, within=le)
    return TheoremCheckResult(not failures, tuple(failures), conclusion)


def _each_term_check(op: ElementaryOperator) -> TheoremCheckResult:
    """The length-one hypothesis asked of every term: each has a nilpotent
    coefficient.  Example 3.1 meets it on a non-nilpotent operator."""
    failures = tuple(
        f"index {i + 1}: neither coefficient nilpotent"
        for i, (ai, bi) in enumerate(op.terms)
        if not (_report(ai).nilpotent or _report(bi).nilpotent)
    )
    return TheoremCheckResult(not failures, failures, op_is_nilpotent(op))


def thm23_check(a: Matrix, b: Matrix) -> ShiftCheckResult:
    """Scalar-shift criterion for the antisymmetric map X -> AXB - BXA.

    Hypotheses: A and B commute and both are scalar plus nilpotent, i.e.
    shift witnesses exist for both.  Then the map is nilpotent, of index at
    most 2(ind(A - lam*I) + ind(B - mu*I)) - 3; an index above that bound
    raises IntegrityError with the pair.  The shifts found are reported
    even when the commutation hypothesis fails.
    """
    failures = []
    if not a.commutes_with(b):
        failures.append("A and B do not commute")
    wa = scalar_shift_witness(a)
    wb = scalar_shift_witness(b)
    if not wa.found:
        failures.append("no scalar shift makes A nilpotent")
    if not wb.found:
        failures.append("no scalar shift makes B nilpotent")
    conclusion = op_is_nilpotent(make_v_operator(a, b))
    if not failures and conclusion.nilpotent:
        # with N = A - lam*I and M = B - mu*I commuting, the map is a polynomial
        # with no constant term in the commuting L_N, R_N, L_M, R_M, so a product
        # of more than 2(ind N - 1) + 2(ind M - 1) of its factors vanishes
        bound = 2 * (wa.shifted.index + wb.shifted.index) - 3
        _enforce("scalar-shift", "operator", "2(ind(A - lam*I) + ind(B - mu*I)) - 3",
                 (a, b), True, conclusion, bound, within=le)
    return ShiftCheckResult(not failures, tuple(failures), conclusion, wa.lam, wb.lam)


def fong_sourour_check(s: Matrix, t: Matrix) -> ShiftCheckResult:
    """Common-shift criterion for the generalized derivation X -> SX - XT.

    The map is nilpotent iff one scalar lam makes both S - lam*I and
    T - lam*I nilpotent.  A valid shift forces lam = trace/dim on both
    sides, so a single candidate decides existence.  The equivalence must
    hold in finite dimension; a violation raises IntegrityError.
    """
    failures = []
    lam = _shift(s)
    if lam != _shift(t):
        failures.append("no common shift candidate: trace(S)/d != trace(T)/d")
    else:
        ws, wt = scalar_shift_witness(s), scalar_shift_witness(t)
        if not ws.found:
            failures.append("S - lam*I not nilpotent for the only candidate lam")
        if not wt.found:
            failures.append("T - lam*I not nilpotent for the only candidate lam")
    hold = not failures
    conclusion = op_is_nilpotent(make_generalized_derivation(s, t))
    # L_S - R_T = L_N - R_M with commuting terms N = S - lam*I, M = T - lam*I,
    # so by the binomial theorem the index is ind N + ind M - 1
    predicted = ws.shifted.index + wt.shifted.index - 1 if hold else None
    _enforce("common-shift", "derivation", "ind(S - lam*I) + ind(T - lam*I) - 1", (s, t),
             hold, conclusion, predicted)
    lam = lam if hold else None
    return ShiftCheckResult(hold, tuple(failures), conclusion, lam, lam)


def eq1_identity_residual(
    a: Matrix, b: Matrix, lam, mu
) -> ElementaryOperator:
    """The difference between the shifted antisymmetric map and its expansion.

    Expanding X -> (A-lam*I)X(B-mu*I) - (B-mu*I)X(A-lam*I) gives the
    unshifted map plus lam*(BX-XB) - mu*(AX-XA); this builds
    left-hand-side minus right-hand-side as one operator.  Its
    superoperator is identically zero, commuting or not, and the tests
    assert exactly that.
    """
    lam = as_scalar(lam)
    mu = as_scalar(mu)
    lhs = make_v_operator(a.plus_scalar(-lam), b.plus_scalar(-mu))
    rhs = (
        make_v_operator(a, b)
        + make_inner_derivation(b).scaled(lam)
        + make_inner_derivation(a).scaled(-mu)
    )
    return lhs + rhs.scaled(-1)


@dataclass(frozen=True)
class ReplayStep:
    """One basis vector pushed through the rank-one construction."""

    x: Matrix
    rank_one_op: Matrix
    sandwich_zero: bool
    image_zero: bool


@dataclass(frozen=True)
class ProofReplay:
    """Trace of the rank-one argument that forces A^m = 0.

    Given X -> AXB nilpotent of index m with B^m != 0: pick z with
    B^m z != 0, a coordinate functional f with f(B^m z) != 0, and for every
    basis vector x sandwich the rank-one operator x*f between A^m and B^m.
    The sandwich vanishes, and evaluating it at z cancels the nonzero
    scalar f(B^m z), leaving A^m x = 0.  Ranging x over the basis gives
    A^m = 0.
    """

    m: int
    z: Matrix
    f: Matrix
    f_bz: GaussianRational
    steps: tuple[ReplayStep, ...]
    a_power: Matrix
    a_power_zero: bool


def thm21_proof_replay(a: Matrix, b: Matrix) -> ProofReplay:
    """Replay the rank-one construction on a concrete nilpotent pair."""
    d = a.rows
    report = op_is_nilpotent(make_multiplication(a, b))
    if not report.nilpotent:
        raise PreconditionError("X -> AXB is not nilpotent; nothing to replay")
    m = report.index
    bm = b**m
    if bm.is_zero:
        raise PreconditionError(
            f"B^{m} = 0: B is nilpotent at the operator index, "
            "so the short-circuit branch applies and there is nothing to construct"
        )

    zi, zj = next((i, j) for i, j, e in bm.entries() if e)
    z = column_vector(1 if r == zj else 0 for r in range(d))
    f = row_vector(1 if c == zi else 0 for c in range(d))
    f_bz = (f * (bm * z))[0, 0]
    if not f_bz:
        raise IntegrityError("chosen functional vanishes on B^m z", (a, b))

    am = a**m
    steps = []
    for k in range(d):
        x = column_vector(1 if r == k else 0 for r in range(d))
        xf = rank_one(f, x)
        sandwich_zero = (am * xf * bm).is_zero
        image_zero = (am * x).is_zero
        if not (sandwich_zero and image_zero):
            raise IntegrityError(
                f"rank-one construction failed at basis vector {k}: "
                f"sandwich zero {sandwich_zero}, image zero {image_zero}",
                (a, b),
            )
        steps.append(ReplayStep(x, xf, sandwich_zero, image_zero))

    if not am.is_zero:
        raise IntegrityError("every column of A^m vanished but A^m != 0", (a, b))
    return ProofReplay(m, z, f, f_bz, tuple(steps), am, am.is_zero)
