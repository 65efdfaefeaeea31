import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from elemop import (
    ElementaryOperator,
    GaussianRational,
    IntegrityError,
    Matrix,
    ShapeError,
    basis_matrix,
    identity_operator,
    kron,
    make_generalized_derivation,
    make_inner_derivation,
    make_multiplication,
    make_v_operator,
    op_equal,
    op_is_nilpotent,
    unvec,
    vec,
    zero_operator,
)
from elemop import _zi, nilpotency
from helpers import (
    rand_matrix,
    rand_operator,
    record_scales,
    ref_apply,
    ref_kron,
    ref_superoperator,
    wide_matrix,
)

J2 = Matrix([[0, 1], [0, 0]])
E11 = basis_matrix(2, 0, 0)
E12 = basis_matrix(2, 0, 1)
SHIFT_A = Matrix([[0, 1], [0, 0]])
SHIFT_B = Matrix([[0, 0], [1, 0]])
FAMILY_A = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])
FAMILY_B = Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]])


def superop_by_columns(op: ElementaryOperator) -> Matrix:
    """Independent superoperator construction: image of each basis matrix,
    column-stacked in vec order."""
    n = op.dim
    columns = []
    for j in range(n):
        for i in range(n):
            columns.append(vec(op(basis_matrix(n, i, j))))
    return Matrix([[col[r, 0] for col in columns] for r in range(n * n)])


# ---- constructors ----------------------------------------------------------

def test_multiplication_term_structure():
    op = make_multiplication(J2, Matrix.identity(2))
    assert op.length == 1 and op.terms == ((J2, Matrix.identity(2)),)
    assert op.superoperator() == kron(Matrix.identity(2), J2)
    with pytest.raises(ShapeError):
        make_multiplication(J2, Matrix.identity(3))


def test_identity_pair_gives_identity_superoperator():
    op = make_multiplication(Matrix.identity(2), Matrix.identity(2))
    assert op.superoperator() == Matrix.identity(4)
    assert identity_operator(3).superoperator() == Matrix.identity(9)


def test_inner_derivation_of_identity_vanishes():
    rng = random.Random(20)
    op = make_inner_derivation(Matrix.identity(3))
    for _ in range(5):
        assert op(rand_matrix(rng, 3)).is_zero


def test_inner_derivation_frozen_values():
    assert make_inner_derivation(J2)(E11) == Matrix([[0, -1], [0, 0]])
    diag = Matrix([[1, 0], [0, 2]])
    assert make_inner_derivation(diag)(E12) == -E12


def test_generalized_derivation():
    rng = random.Random(21)
    a = rand_matrix(rng, 2)
    assert op_equal(make_generalized_derivation(a, a), make_inner_derivation(a))
    ident_to_zero = make_generalized_derivation(Matrix.identity(2), Matrix.zero(2))
    for _ in range(5):
        x = rand_matrix(rng, 2)
        assert ident_to_zero(x) == x
    j2t = J2.T
    assert make_generalized_derivation(J2, j2t)(Matrix.identity(2)) == Matrix(
        [[0, 1], [-1, 0]]
    )


def test_v_operator_is_antisymmetric():
    rng = random.Random(22)
    a = rand_matrix(rng, 3)
    v = make_v_operator(a, a)
    for _ in range(5):
        assert v(rand_matrix(rng, 3)).is_zero


def test_v_operator_on_shift_pair():
    v = make_v_operator(SHIFT_A, SHIFT_B)
    assert v(E11) == Matrix([[0, 0], [0, -1]])
    assert v(basis_matrix(2, 1, 1)) == E11
    assert v(E12).is_zero and v(basis_matrix(2, 1, 0)).is_zero
    s = v.superoperator()
    assert s**3 == -s
    assert not op_is_nilpotent(v).nilpotent


# ---- application and representation ----------------------------------------

def test_apply_of_zero_is_zero():
    rng = random.Random(23)
    op = rand_operator(rng, 3, 3)
    assert op(Matrix.zero(3)).is_zero


def test_apply_matches_superoperator_on_random_inputs():
    rng = random.Random(24)
    for _ in range(15):
        dim = rng.randint(1, 3)
        op = rand_operator(rng, dim, rng.randint(1, 3), gaussian=True)
        s = op.superoperator()
        x = rand_matrix(rng, dim, gaussian=True)
        assert op(x) == unvec(s * vec(x), dim, dim)


def test_superoperator_matches_column_construction():
    rng = random.Random(25)
    for _ in range(10):
        dim = rng.randint(1, 3)
        op = rand_operator(rng, dim, rng.randint(1, 3))
        assert op.superoperator() == superop_by_columns(op)


def test_apply_shape_check():
    op = rand_operator(random.Random(26), 2, 1)
    with pytest.raises(ShapeError):
        op(Matrix.zero(3))


# ---- the one-pass application ---------------------------------------------------
# op(x) sums the Z[i] products A_i (x*X) B_i with row r of every A_i put over
# R_r, the lcm of that row's own scales, and column c of every B_i over C_c,
# likewise, and builds its matrix once from the cells over x*R_r*C_c; the
# scaled cases give the terms' rows different scales.  The reference sums
# A_i X B_i term by term in GaussianRational arithmetic.

def _coefficient(rng: random.Random, dim: int, gaussian: bool, den: int) -> Matrix:
    """A dim x dim matrix whose form's scale is den: its corner is 1/den, and
    every other part is a multiple of 1/den."""
    def part():
        return Fraction(rng.randint(-5, 5), den)

    rows = [[GaussianRational(part(), part() if gaussian else 0) for _ in range(dim)]
            for _ in range(dim)]
    rows[0][0] = GaussianRational(Fraction(1, den), rows[0][0].im)
    return Matrix(rows)


def _factors(op: ElementaryOperator) -> list[int]:
    """f_i = L/(a_i*b_i) for each term of op."""
    products = [a._form[0] * b._form[0] for a, b in op.terms]
    return [lcm(*products) // p for p in products]


@pytest.mark.parametrize("kind", ["real", "gaussian", "mixed"])
@pytest.mark.parametrize("length, scaled", [(1, False), (2, False), (3, False), (2, True), (3, True)])
def test_apply_matches_the_reference_sum_and_the_superoperator(kind, length, scaled):
    rng = random.Random(f"{kind}-{length}-{scaled}")
    for dim in (1, 2, 3):
        # "mixed" alternates real and Gaussian coefficients and applies them to a real X
        terms = tuple(
            (_coefficient(rng, dim, kind == "gaussian" or (kind == "mixed" and k % 2 == 0),
                          k + 2 if scaled else 1),
             _coefficient(rng, dim, kind == "gaussian" or (kind == "mixed" and k % 2 == 1), 1))
            for k in range(length)
        )
        op = ElementaryOperator(dim, terms)
        assert (max(_factors(op)) > 1) == scaled
        x = _coefficient(rng, dim, kind == "gaussian", 5)
        result = op(x)
        assert result == ref_apply(op, x)
        assert result == unvec(op.superoperator() * vec(x), dim, dim)
        # the stored form is exactly a fresh conversion's, minimal scale included
        assert result._form == Matrix(result.row_list())._form


def test_apply_drops_a_cancelled_imaginary_part():
    i_e11 = GaussianRational(0, 1) * E11
    result = make_multiplication(i_e11, i_e11)(E11)
    assert result == -E11 and result._form == (1, (((-1, 0), (0, 0)), None))


def test_apply_builds_its_result_once_without_matrix_products(monkeypatch):
    rng = random.Random(29)
    op = ElementaryOperator(2, tuple((_coefficient(rng, 2, True, d), _coefficient(rng, 2, False, 3))
                                     for d in (2, 4, 5)))
    x = _coefficient(rng, 2, True, 7)
    expected = ref_apply(op, x)

    def no_product(*args):
        raise AssertionError("the application formed a Matrix product")

    monkeypatch.setattr(Matrix, "_matmul", no_product)
    scales = record_scales(monkeypatch)
    assert op(x) == expected
    # one build, through Matrix._from_parts, over the lcm of the cells'
    # x*R_r*C_c: the corners 1/2, 1/4 and 1/5 give R_0 = 20, every B_i is
    # over 3 and X over 7
    assert scales == [20 * 3 * 7]


# ---- algebra -----------------------------------------------------------------

def test_superoperator_homomorphism():
    rng = random.Random(27)
    for _ in range(10):
        dim = rng.randint(1, 3)
        op1 = rand_operator(rng, dim, 2)
        op2 = rand_operator(rng, dim, 2)
        s1, s2 = op1.superoperator(), op2.superoperator()
        assert (op1 + op2).superoperator() == s1 + s2
        assert op1.compose(op2).superoperator() == s1 * s2
        assert (op1 @ op2).superoperator() == s1 * s2
        c = rand_matrix(rng, 1, 1)[0, 0]
        assert op1.scaled(c).superoperator() == c * s1


def test_add_with_negated_copy_gives_zero_map():
    op = rand_operator(random.Random(28), 2, 2)
    assert (op + op.scaled(-1)).superoperator().is_zero


def test_composition_term_order():
    a, b, c, d, e, f = (rand_matrix(random.Random(s), 2) for s in range(29, 35))
    outer = ElementaryOperator(2, ((a, b),))
    inner = ElementaryOperator(2, ((c, d), (e, f)))
    composed = outer.compose(inner)
    assert composed.terms == ((a * c, d * b), (a * e, f * b))


def test_power_of_multiplication_operator():
    rng = random.Random(36)
    a = rand_matrix(rng, 2)
    b = rand_matrix(rng, 2)
    op = make_multiplication(a, b)
    for k in range(4):
        powered = op**k
        x = rand_matrix(rng, 2)
        assert powered(x) == (a**k) * x * (b**k)
    assert (op**0).terms == identity_operator(2).terms


def test_zero_operator_is_zero_map():
    z = zero_operator(2)
    assert z.superoperator().is_zero
    assert z.length == 1  # term lists stay nonempty


def test_operator_validation():
    with pytest.raises(ShapeError):
        ElementaryOperator(2, ())
    with pytest.raises(ShapeError):
        ElementaryOperator(2, ((Matrix.zero(2), Matrix.zero(3)),))
    with pytest.raises(ShapeError):
        rand_operator(random.Random(0), 2, 1) + rand_operator(random.Random(0), 3, 1)
    with pytest.raises(ShapeError):
        rand_operator(random.Random(0), 2, 1).compose(rand_operator(random.Random(0), 3, 1))


def test_multiplying_by_a_scalar_is_scaling():
    op = rand_operator(random.Random(39), 2, 2)
    assert (op * 2).terms == (2 * op).terms == op.scaled(2).terms


@pytest.mark.parametrize("apply, error", [
    (lambda op: op * 1.5, TypeError),
    (lambda op: 1.5 * op, TypeError),
    (lambda op: op ** -1, ValueError),
    (lambda op: op ** 1.5, ValueError),
    (lambda op: op + 1, TypeError),
    (lambda op: op @ 1, TypeError),
], ids=["times-float", "float-times", "negative-power", "float-power", "plus-int", "compose-int"])
def test_operator_arithmetic_rejects_what_it_cannot_take(apply, error):
    with pytest.raises(error):
        apply(identity_operator(2))


# ---- extensional equality -------------------------------------------------------

def test_op_equal_ignores_term_representation():
    rng = random.Random(37)
    a = rand_matrix(rng, 2)
    ident = Matrix.identity(2)
    rebuilt = ElementaryOperator(2, ((a, ident), (-ident, a)))
    assert op_equal(rebuilt, make_inner_derivation(a))


def test_op_equal_sees_bilinearity():
    rng = random.Random(38)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    assert op_equal(make_multiplication(2 * a, b), make_multiplication(a, b).scaled(2))


def test_op_equal_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        op_equal(identity_operator(2), identity_operator(3))


def test_family_v_operator_factors_through_difference():
    n = FAMILY_A - FAMILY_B
    assert op_equal(make_v_operator(FAMILY_A, FAMILY_B), make_v_operator(n, FAMILY_B))


# ---- nilpotency ------------------------------------------------------------------

def test_multiplication_by_nilpotent_pair():
    report = op_is_nilpotent(make_multiplication(J2, J2))
    assert report.nilpotent and report.index == 2


def test_shift_pair_v_not_nilpotent_but_family_v_is():
    assert not op_is_nilpotent(make_v_operator(SHIFT_A, SHIFT_B)).nilpotent
    family_v = make_v_operator(FAMILY_A, FAMILY_B)
    report = op_is_nilpotent(family_v)
    assert report.nilpotent
    assert report.index <= 9  # bounded by dim^2


def test_nilpotent_operator_index_bounded_by_dim_squared():
    rng = random.Random(39)
    for _ in range(10):
        b = rand_matrix(rng, 2)
        report = op_is_nilpotent(make_multiplication(J2, b))
        assert report.nilpotent and report.index <= 4


# ---- Z[i] assembly against the Q(i) reference ---------------------------------------

def _assert_matches_reference(op: ElementaryOperator):
    sup = op.superoperator()
    assert sup == ref_superoperator(op)
    # the stored form is exactly what a fresh conversion of the entries gives,
    # minimal scale included
    assert sup._form == Matrix(sup.row_list())._form
    return sup


SIGNED_2X2 = [
    Matrix([list(entries[:2]), list(entries[2:])])
    for entries in itertools.product((-1, 0, 1), repeat=4)
]


def test_assembly_matches_reference_on_signed_2x2_pairs():
    pairs = list(itertools.product(SIGNED_2X2, repeat=2))[::13]
    assert len(pairs) == 505
    for a, b in pairs:
        for make in (make_multiplication, make_generalized_derivation, make_v_operator):
            _assert_matches_reference(make(a, b))


def test_assembly_matches_reference_on_wide_gaussian_dim3():
    rng = random.Random(7)
    scales = set()
    for trial in range(24):
        terms = tuple(
            (wide_matrix(rng, 3), wide_matrix(rng, 3)) for _ in range(1 + trial % 3)
        )
        # mixed denominators: the coefficients' own scales differ
        scales.update(m._form[0] for pair in terms for m in pair)
        _assert_matches_reference(ElementaryOperator(3, terms))
    assert len(scales) > 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assembly_matches_reference_on_zero_and_identity(n):
    assert _assert_matches_reference(zero_operator(n))._form[0] == 1
    assert _assert_matches_reference(identity_operator(n)) == Matrix.identity(n * n)


def test_assembly_reduces_scale_and_drops_cancelled_imaginary_part():
    i = GaussianRational(0, 1)
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    op = ElementaryOperator(2, ((half, 2 * J2), (i * J2, i * E11)))
    sup = _assert_matches_reference(op)
    scale, (_, im) = sup._form
    # the term scales multiply to 2, yet every entry is an integer, and
    # i*J2 (x) i*E11 is real
    assert scale == 1 and im is None


def test_cancelled_gaussian_term_assembles_a_real_form():
    i = GaussianRational(0, 1)
    # i*E11 (x) i*E11 = -E11 (x) E11: the Gauss's-trick imaginary part cancels
    for terms in (((i * E11, i * E11),), ((E12, J2), (i * E11, i * E11))):
        op = ElementaryOperator(2, terms)
        sup = _assert_matches_reference(op)
        assert sup._form[1][1] is None
    assert kron(i * E11, i * E11) == ref_kron(i * E11, i * E11) == -kron(E11, E11)
    assert kron(i * E11, i * E11)._form == (1, (((-1, 0, 0, 0),) + ((0,) * 4,) * 3, None))


@pytest.mark.parametrize("kinds, products", [
    ((False, False), 1), ((False, True), 2), ((True, False), 2), ((True, True), 3),
])
def test_each_term_forms_one_two_or_three_int_kronecker_products(monkeypatch, kinds, products):
    rng = random.Random(products + 10 * kinds[0])
    a, b = (wide_matrix(rng, 2, 2, gaussian) for gaussian in kinds)
    assert [m._form[1][1] is not None for m in (a, b)] == list(kinds)
    calls = []
    kernel = _zi.int_kron
    monkeypatch.setattr(_zi, "int_kron", lambda x, y: calls.append(1) or kernel(x, y))
    assert kron(a, b) == ref_kron(a, b)
    assert len(calls) == products
    # a superoperator term kron(B.T, A) swaps the sides, not the count
    for length in (1, 3):
        calls.clear()
        op = ElementaryOperator(2, ((a, b),) * length)
        assert op.superoperator() == ref_superoperator(op)
        assert len(calls) == length * products


def test_assembly_does_not_call_kron(monkeypatch):
    import elemop.matrix
    import elemop.operators

    def fail(*args):
        raise AssertionError("kron called")

    monkeypatch.setattr(elemop.matrix, "kron", fail)
    monkeypatch.setattr(elemop.operators, "kron", fail, raising=False)
    assert make_v_operator(FAMILY_A, FAMILY_B).superoperator() == (
        kron(FAMILY_B.T, FAMILY_A) - kron(FAMILY_A.T, FAMILY_B)
    )


def test_route_disagreement_in_op_is_nilpotent_carries_the_superoperator(monkeypatch):
    op = make_generalized_derivation(J2, J2)
    monkeypatch.setattr(nilpotency, "char_poly", lambda a: (1,) * (a.rows + 1))
    with pytest.raises(IntegrityError, match="disagree") as info:
        op_is_nilpotent(op)
    assert info.value.instance == ref_superoperator(op)
