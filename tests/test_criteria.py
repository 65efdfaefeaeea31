import random
from fractions import Fraction

import pytest

from elemop import (
    GaussianRational,
    IntegrityError,
    Matrix,
    NilpotencyReport,
    PreconditionError,
    ShapeError,
    ZERO,
    column_vector,
    criteria,
    eq1_identity_residual,
    fong_sourour_check,
    lab,
    make_generalized_derivation,
    make_inner_derivation,
    make_multiplication,
    make_v_operator,
    matrix_poly,
    op_is_nilpotent,
    operators,
    row_vector,
    scalar_shift_witness,
    thm21_criterion,
    thm21_proof_replay,
    thm22_check,
    thm23_check,
)
from helpers import (
    rand_matrix,
    rand_scalar,
    ref_add,
    ref_identity,
    ref_is_nilpotent,
    ref_scale,
    ref_trace,
    wide_matrix,
)

J2 = Matrix([[0, 1], [0, 0]])
J3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
I2 = Matrix.identity(2)
I3 = Matrix.identity(3)
SHIFT_A = Matrix([[0, 1], [0, 0]])
SHIFT_B = Matrix([[0, 0], [1, 0]])
FAMILY_A = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])
FAMILY_B = Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]])
FAMILY_N = FAMILY_A - FAMILY_B


# ---- length-one criterion ------------------------------------------------

def test_length_one_nilpotent_side():
    result = thm21_criterion(J2, I2)
    assert result.hypotheses_hold and result.conclusion.nilpotent
    assert result.consistent and not result.hypothesis_failures


def test_length_one_no_nilpotent_side():
    result = thm21_criterion(I2, I2)
    assert not result.hypotheses_hold
    assert result.hypothesis_failures == ("neither A nor B nilpotent",)
    assert not result.conclusion.nilpotent
    assert result.consistent


def test_length_one_on_family_pair():
    result = thm21_criterion(FAMILY_A, FAMILY_B)
    assert not result.hypotheses_hold and not result.conclusion.nilpotent


def test_length_one_biconditional_on_samples():
    rng = random.Random(40)
    for _ in range(25):
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 2)
        result = thm21_criterion(a, b)  # raises IntegrityError on violation
        assert result.consistent


# ---- commuting-families criterion ---------------------------------------------

def test_tuple_criterion_on_family_terms():
    result = thm22_check([FAMILY_N, -FAMILY_B], [FAMILY_B, FAMILY_N])
    assert result.hypotheses_hold
    assert result.conclusion.nilpotent
    assert result.consistent


def test_tuple_criterion_flags_noncommuting_tuple():
    result = thm22_check([SHIFT_A, -SHIFT_B], [SHIFT_B, SHIFT_A])
    assert not result.hypotheses_hold
    assert any("A-tuple not pairwise commuting" in msg for msg in result.hypothesis_failures)
    assert not result.conclusion.nilpotent
    assert result.consistent


def test_tuple_criterion_flags_missing_nilpotent_index():
    result = thm22_check([I2, J2], [I2, I2])
    assert "index 1: neither A_1 nor B_1 nilpotent" in result.hypothesis_failures


def test_tuple_criterion_on_polynomials_in_jordan_block():
    rng = random.Random(41)
    for _ in range(5):
        a_tuple = [
            matrix_poly([0] + [rand_scalar(rng) for _ in range(2)], J3)
            for _ in range(2)
        ]
        b_tuple = [
            matrix_poly([rand_scalar(rng) for _ in range(3)], J3) for _ in range(2)
        ]
        result = thm22_check(a_tuple, b_tuple)
        assert result.hypotheses_hold
        assert result.conclusion.nilpotent


def test_tuple_criterion_validation():
    with pytest.raises(ShapeError):
        thm22_check([], [])
    with pytest.raises(ShapeError):
        thm22_check([I2], [I2, I2])
    with pytest.raises(ShapeError):
        thm22_check([I2], [I3])


# ---- shape errors ----------------------------------------------------------------

WIDE = Matrix([[1, 0, 2], [0, 1, 0]])
PAIR_TAKERS = [
    thm21_criterion,
    thm23_check,
    fong_sourour_check,
    thm21_proof_replay,
    lambda a, b: eq1_identity_residual(a, b, 0, 0),
    make_multiplication,
    make_generalized_derivation,
    make_v_operator,
]


@pytest.mark.parametrize("pair", [(WIDE, WIDE), (I2, I3)], ids=["non-square", "two-sizes"])
@pytest.mark.parametrize("takes_pair", PAIR_TAKERS, ids=[
    "thm21_criterion", "thm23_check", "fong_sourour_check", "thm21_proof_replay",
    "eq1_identity_residual", "make_multiplication", "make_generalized_derivation",
    "make_v_operator",
])
def test_every_pair_entry_point_rejects_a_bad_shape(takes_pair, pair):
    with pytest.raises(ShapeError):
        takes_pair(*pair)


@pytest.mark.parametrize("takes_one", [make_inner_derivation, scalar_shift_witness])
def test_every_single_entry_point_rejects_a_non_square_matrix(takes_one):
    with pytest.raises(ShapeError):
        takes_one(WIDE)


def test_commutation_fact_for_commuting_tuples():
    # the leading partial sum and the final term commute as superoperators
    # whenever both coefficient tuples commute within themselves
    rng = random.Random(42)
    from elemop import ElementaryOperator

    for _ in range(8):
        a_tuple = [matrix_poly([rand_scalar(rng) for _ in range(3)], J3) for _ in range(3)]
        b_tuple = [matrix_poly([rand_scalar(rng) for _ in range(3)], J3) for _ in range(3)]
        leading = ElementaryOperator(3, tuple(zip(a_tuple[:-1], b_tuple[:-1])))
        last = ElementaryOperator(3, ((a_tuple[-1], b_tuple[-1]),))
        s1 = leading.superoperator()
        s2 = last.superoperator()
        assert s1 * s2 == s2 * s1
        assert criteria._terms_commute(ElementaryOperator(3, tuple(zip(a_tuple, b_tuple))))
    # L_J3 and L_(J3^T) do not commute, so neither do those terms
    assert not criteria._terms_commute(ElementaryOperator(3, ((J3, I3), (J3.T, I3))))


def test_a_failed_terms_lemma_raises_with_the_tuples(monkeypatch):
    monkeypatch.setattr(criteria, "_terms_commute", lambda op: False)
    a_tuple, b_tuple = [FAMILY_N, -FAMILY_B], [FAMILY_B, FAMILY_N]
    with pytest.raises(IntegrityError, match="commuting-families lemma violated") as exc:
        thm22_check(a_tuple, b_tuple)
    assert exc.value.instance == (tuple(a_tuple), tuple(b_tuple))
    # without the hypotheses the lemma is not checked
    assert not thm22_check([I3, J3], [I3, I3]).hypotheses_hold


def test_the_terms_lemma_builds_nothing_for_one_term(monkeypatch):
    built = []
    real = operators.ElementaryOperator.superoperator
    monkeypatch.setattr(operators.ElementaryOperator, "superoperator",
                        lambda op: built.append(op.length) or real(op))
    assert thm22_check([J3], [I3]).hypotheses_hold
    assert built == [1]  # the operator's own superoperator only
    built.clear()
    assert thm22_check([J3, J3 * J3], [I3, 2 * I3]).hypotheses_hold
    assert built == [2, 1, 1]  # the operator, its leading sum, its last term


# ---- scalar shifts ---------------------------------------------------------------

def test_shift_witness_of_nilpotent_is_zero():
    witness = scalar_shift_witness(J3)
    assert witness.found and witness.lam == ZERO
    assert witness.shifted.index == 3


def test_shift_witness_of_scalar_plus_nilpotent():
    witness = scalar_shift_witness(5 * I2 + J2)
    assert witness.found and witness.lam == GaussianRational(5)


def test_shift_witness_absent_for_family_matrix():
    assert not scalar_shift_witness(FAMILY_A).found
    assert not scalar_shift_witness(FAMILY_B).found


def test_shift_witness_gaussian_scalar():
    lam = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    witness = scalar_shift_witness(lam * I3 + J3)
    assert witness.found and witness.lam == lam


def test_trace_shift_matches_fraction_arithmetic():
    rng = random.Random(44)
    samples = [J3, I2, 5 * I2 + J2, FAMILY_A, Matrix([["1/2+1/3*i"]])]
    samples += [wide_matrix(rng, d) for d in (1, 2, 3, 4) for _ in range(3)]
    samples += [rand_matrix(rng, 3, gaussian=g) for g in (False, True) for _ in range(3)]
    for a in samples:
        lam = criteria._shift(a)
        expected = ref_trace(a) / a.rows
        assert lam == expected and str(lam) == str(expected)
        # the witness against A - lam*I built and decided entry-wise, on no form
        shifted = ref_is_nilpotent(ref_add(a, ref_scale(-expected, ref_identity(a.rows))))
        witness = scalar_shift_witness(a)
        assert witness == (criteria.ShiftWitness(expected, shifted) if shifted.nilpotent
                           else criteria.ShiftWitness(None))


def test_common_shift_builds_shifted_matrices_only_for_a_common_candidate(monkeypatch):
    built = []
    real = criteria.is_nilpotent

    def spy(a):
        if a.rows == 2:  # the 4x4 superoperator is decided too
            built.append(a)
        return real(a)

    monkeypatch.setattr(criteria, "is_nilpotent", spy)
    fong_sourour_check(I2, Matrix.zero(2))
    assert built == []
    fong_sourour_check(J2, J2.T)
    assert built == [J2, J2.T]


# ---- antisymmetric-map criterion ---------------------------------------------------

def test_shifted_criterion_positive_case():
    a = I3 + J3
    b = 2 * I3 + J3 * J3
    result = thm23_check(a, b)
    assert result.hypotheses_hold
    assert result.lam == GaussianRational(1) and result.mu == GaussianRational(2)
    assert result.conclusion.nilpotent and result.consistent


def test_shifted_criterion_converse_failure_shape():
    result = thm23_check(FAMILY_A, FAMILY_B)
    assert not result.hypotheses_hold
    assert "no scalar shift makes A nilpotent" in result.hypothesis_failures
    assert "no scalar shift makes B nilpotent" in result.hypothesis_failures
    assert "A and B do not commute" not in result.hypothesis_failures
    assert result.conclusion.nilpotent  # conclusion holds anyway
    assert result.consistent


def test_shifted_criterion_equal_nilpotents():
    result = thm23_check(J2, J2)
    assert result.hypotheses_hold
    assert result.lam == ZERO and result.mu == ZERO
    assert result.conclusion.index == 1  # the zero map


def test_shifted_criterion_records_noncommuting():
    result = thm23_check(SHIFT_A, SHIFT_B)
    assert "A and B do not commute" in result.hypothesis_failures
    assert result.lam == ZERO and result.mu == ZERO  # shifts exist individually
    assert not result.conclusion.nilpotent


# ---- common-shift criterion ---------------------------------------------------------

def test_common_shift_positive():
    result = fong_sourour_check(2 * I2 + J2, 2 * I2)
    assert result.hypotheses_hold and result.lam == GaussianRational(2)
    assert result.conclusion.nilpotent


def test_common_shift_trace_mismatch():
    result = fong_sourour_check(I2, Matrix.zero(2))
    assert not result.hypotheses_hold
    assert result.hypothesis_failures == (
        "no common shift candidate: trace(S)/d != trace(T)/d",
    )
    assert not result.conclusion.nilpotent  # X -> X is not nilpotent
    assert result.lam is None


def test_common_shift_equal_jordan_blocks():
    result = fong_sourour_check(J3, J3)
    assert result.hypotheses_hold and result.lam == ZERO
    assert result.conclusion.nilpotent


def test_common_shift_biconditional_on_samples():
    rng = random.Random(43)
    for _ in range(25):
        s = rand_matrix(rng, 2, gaussian=True)
        t = rand_matrix(rng, 2, gaussian=True)
        result = fong_sourour_check(s, t)  # raises IntegrityError on violation
        assert result.consistent


# ---- shift expansion identity ---------------------------------------------------------

def test_residual_vanishes_on_random_inputs():
    rng = random.Random(44)
    for _ in range(10):
        a = rand_matrix(rng, 2, gaussian=True)
        b = rand_matrix(rng, 2, gaussian=True)
        residual = eq1_identity_residual(a, b, GaussianRational(1), GaussianRational(2))
        assert residual.superoperator().is_zero


def test_residual_with_zero_shifts_is_trivially_zero():
    rng = random.Random(45)
    a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
    assert eq1_identity_residual(a, b, ZERO, ZERO).superoperator().is_zero


def test_residual_with_equal_arguments():
    rng = random.Random(46)
    a = rand_matrix(rng, 3)
    lam, mu = rand_scalar(rng), rand_scalar(rng)
    assert eq1_identity_residual(a, a, lam, mu).superoperator().is_zero


def test_residual_needs_no_commutativity():
    rng = random.Random(47)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        lam, mu = rand_scalar(rng, gaussian=True), rand_scalar(rng, gaussian=True)
        assert eq1_identity_residual(a, b, lam, mu).superoperator().is_zero


# ---- proof replay --------------------------------------------------------------------

def test_replay_concludes_on_shift_block():
    trace = thm21_proof_replay(J2, I2)
    assert trace.m == 2
    assert trace.f_bz and trace.a_power_zero
    assert trace.a_power == Matrix.zero(2)
    assert len(trace.steps) == 2
    assert all(step.sandwich_zero and step.image_zero for step in trace.steps)


def test_replay_concludes_on_scaled_identity():
    trace = thm21_proof_replay(J3, 3 * I3)
    assert trace.m == 3
    assert trace.a_power_zero and (J3**3).is_zero
    assert len(trace.steps) == 3


def test_replay_short_circuits_when_b_nilpotent():
    with pytest.raises(PreconditionError, match="short-circuit"):
        thm21_proof_replay(I2, J2)


def test_replay_requires_nilpotent_operator():
    with pytest.raises(PreconditionError, match="not nilpotent"):
        thm21_proof_replay(I2, I2)


def test_replay_on_random_nilpotent_pairs():
    rng = random.Random(48)
    done = 0
    while done < 10:
        b = rand_matrix(rng, 2)
        report = op_is_nilpotent(make_multiplication(J2, b))
        if (b**report.index).is_zero:
            continue  # replay precondition needs B^m != 0
        trace = thm21_proof_replay(J2, b)
        assert trace.a_power_zero
        done += 1


# ---- result invariant --------------------------------------------------------------------

def test_consistency_flag_matches_definition():
    rng = random.Random(49)
    for _ in range(15):
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 2)
        for result in (thm21_criterion(a, b), thm23_check(a, b), fong_sourour_check(a, b)):
            assert result.consistent == (
                (not result.hypotheses_hold) or result.conclusion.nilpotent
            )


# ---- integrity errors carry their instance -----------------------------------

def _flip_conclusions(monkeypatch):
    import elemop.criteria as criteria

    real = criteria.op_is_nilpotent
    monkeypatch.setattr(
        criteria, "op_is_nilpotent", lambda op: NilpotencyReport(not real(op).nilpotent)
    )


@pytest.mark.parametrize(
    "check, pair, message",
    [
        (thm21_criterion, (J2, I2), "length-one biconditional violated: "
         "hypotheses True but operator nilpotent is False"),
        (fong_sourour_check, (I2, I2 + J2), "common-shift biconditional violated: "
         "hypotheses True but derivation nilpotent is False"),
    ],
    ids=["thm21_criterion-pair0", "fong_sourour_check-pair1"],  # short ids, not the texts
)
def test_biconditional_violation_carries_the_pair(monkeypatch, check, pair, message):
    _flip_conclusions(monkeypatch)
    with pytest.raises(IntegrityError) as info:
        check(*pair)
    assert str(info.value) == message
    assert info.value.instance == pair


def _index_off_by_one(monkeypatch):
    real = criteria.op_is_nilpotent

    def shifted_index(op):
        report = real(op)
        return NilpotencyReport(report.nilpotent, report.index and report.index + 1)

    monkeypatch.setattr(criteria, "op_is_nilpotent", shifted_index)


@pytest.mark.parametrize(
    "check, pair, message",
    [
        # ind(X -> J2 X I) = min(2, infinity) = 2
        (thm21_criterion, (J2, I2), "length-one index violated: operator index 3 but "
         "min(ind A, ind B) is 2"),
        # lam = 1: ind(0) + ind(J2) - 1 = 2
        (fong_sourour_check, (I2, I2 + J2), "common-shift index violated: derivation index 3 "
         "but ind(S - lam*I) + ind(T - lam*I) - 1 is 2"),
        # lam = 1, mu = 2: 2(ind(J2) + ind(0)) - 3 = 3, met with equality
        (thm23_check, (I2 + J2, 2 * I2), "scalar-shift index violated: operator index 4 "
         "but 2(ind(A - lam*I) + ind(B - mu*I)) - 3 is 3"),
    ],
)
def test_index_violation_carries_the_pair(monkeypatch, check, pair, message):
    _index_off_by_one(monkeypatch)
    with pytest.raises(IntegrityError) as info:
        check(*pair)
    assert str(info.value) == message
    assert info.value.instance == pair


@pytest.mark.parametrize("tuples, bound", [
    # X -> J2 X: 1 + (2 - 1)
    (((J2,), (I2,)), 2),
    # X -> J2 X + X J2: 1 + (2 - 1) + (2 - 1), met with equality
    (((J2, I2), (I2, J2)), 3),
])
def test_commuting_families_index_above_the_bound_carries_the_tuples(monkeypatch, tuples, bound):
    assert thm22_check(*tuples).conclusion.index == bound
    _index_off_by_one(monkeypatch)
    with pytest.raises(IntegrityError) as info:
        thm22_check(*tuples)
    assert str(info.value) == (
        f"commuting-families index violated: operator index {bound + 1} but "
        f"1 + sum_i (min(ind A_i, ind B_i) - 1) is {bound}"
    )
    assert info.value.instance == tuples


def test_commuting_families_index_below_the_bound_passes(monkeypatch):
    # X -> J2 X + J2 X = 2 J2 X has index 2, under the bound 1 + 1 + 1 = 3
    tuples = ((J2, J2), (I2, I2))
    assert thm22_check(*tuples).conclusion.index == 2
    _index_off_by_one(monkeypatch)
    assert thm22_check(*tuples).conclusion.index == 3


def _decisions(monkeypatch, rows=None):
    """The matrices decided from now on through the `is_nilpotent` of any
    module a checker could call it from, only those whose row count is in
    `rows` when it is given."""
    decided = []
    real = criteria.is_nilpotent

    def spy(m):
        if rows is None or m.rows in rows:
            decided.append(m)
        return real(m)

    for module in (criteria, operators, lab):
        monkeypatch.setattr(module, "is_nilpotent", spy)
    return decided


def test_commuting_families_decides_each_coefficient_once(monkeypatch):
    decided = _decisions(monkeypatch, rows=(2,))  # coefficients, not the 4x4 superoperator
    # hypotheses hold: the bound reads the reports already made
    thm22_check([J2, I2], [I2, J2])
    assert decided == [J2, I2, I2, J2]
    # the A-tuple does not commute: every coefficient is still decided, once
    decided.clear()
    thm22_check([SHIFT_A, SHIFT_B], [I2, I2])
    assert decided == [SHIFT_A, I2, SHIFT_B, I2]


# every checker of the module, on an instance, and thm21_proof_replay beside them
CHECKERS = {
    "2.1": lambda: thm21_criterion(J2, I2),
    "2.1-ext": lambda: criteria._each_term_check(make_v_operator(SHIFT_A, SHIFT_B)),
    "2.2": lambda: thm22_check([J2, I2], [I2, J2]),
    "2.3": lambda: thm23_check(FAMILY_A, FAMILY_B),
    "1.1": lambda: fong_sourour_check(J2 + I2, J2.T + I2),
    "replay": lambda: thm21_proof_replay(J2, I2),
}


@pytest.mark.parametrize("checker", CHECKERS)
def test_a_checker_run_again_in_a_sweep_decides_no_coefficient_again(monkeypatch, checker):
    # coefficients (2x2, and 3x3 for 2.3), not the 4x4 and 9x9 superoperators
    decided = _decisions(monkeypatch, rows=(2, 3))
    with criteria._sweep_facts():
        first = CHECKERS[checker]()
        # the replay decides only its operator
        assert bool(decided) == (checker != "replay")
        decided.clear()
        assert CHECKERS[checker]() == first
    assert decided == []


def test_replay_failures_carry_the_pair(monkeypatch):
    import elemop.criteria as criteria

    # X -> X claimed nilpotent of index 1: every step of the replay must fail
    monkeypatch.setattr(criteria, "op_is_nilpotent", lambda op: NilpotencyReport(True, 1))
    with pytest.raises(IntegrityError, match="rank-one construction failed") as info:
        thm21_proof_replay(I2, I2)
    assert info.value.instance == (I2, I2)

    with monkeypatch.context() as m:
        # a functional that vanishes on B^m z
        m.setattr(criteria, "row_vector", lambda entries: row_vector(0 for _ in entries))
        with pytest.raises(IntegrityError, match="functional vanishes") as info:
            thm21_proof_replay(I2, I2)
    assert info.value.instance == (I2, I2)

    vectors = []

    def zero_after_first(entries):
        entries = list(entries)
        vectors.append(entries)
        return column_vector(entries if len(vectors) == 1 else [0] * len(entries))

    monkeypatch.setattr(criteria, "column_vector", zero_after_first)
    with pytest.raises(IntegrityError, match="every column of A") as info:
        thm21_proof_replay(I2, I2)
    assert info.value.instance == (I2, I2)
