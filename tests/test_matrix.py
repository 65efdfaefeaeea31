import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elemop import (
    GaussianRational,
    IMAG,
    Matrix,
    matrix,
    ShapeError,
    ZERO,
    basis_matrix,
    kron,
    matrix_poly,
    rank_one,
    unvec,
    vec,
)
from elemop.jsonio import matrix_to_obj
from elemop.scalars import _gaussian, format_scalar
from helpers import (
    rand_matrix,
    rand_scalar,
    ref_add,
    ref_entry_rows,
    ref_identity,
    ref_is_zero,
    ref_kron,
    ref_matmul,
    ref_matrix_poly,
    ref_neg,
    ref_scale,
    ref_trace,
    ref_transpose,
    ref_unvec,
    ref_vec,
    ref_zero,
    wide_matrix,
)

J2 = Matrix([[0, 1], [0, 0]])
J2T = Matrix([[0, 0], [1, 0]])

# the parametric 3x3 family at (a, b, c, d, k) = (1, 2, 3, 0, 3)
FAMILY_A = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])
FAMILY_B = Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]])

entries2 = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)
matrices2 = st.builds(Matrix, entries2)


def test_shift_pair_product():
    assert J2 * J2T == Matrix([[1, 0], [0, 0]])
    assert J2T * J2 == Matrix([[0, 0], [0, 1]])


def test_identity_is_neutral():
    rng = random.Random(1)
    for _ in range(10):
        x = rand_matrix(rng, 3, gaussian=True)
        assert Matrix.identity(3) * x == x
        assert x * Matrix.identity(3) == x


def test_family_products_commute():
    # both orders computed independently give the same frozen product
    expected = Matrix([[7, 2, 3], [3, 6, 3], [0, 0, 9]])
    assert FAMILY_A * FAMILY_B == expected
    assert FAMILY_B * FAMILY_A == expected


def test_addition_and_scaling():
    m = Matrix([[1, 2], [3, 4]])
    assert m + m == 2 * m == m * 2
    assert m - m == Matrix.zero(2)
    assert -m + m == Matrix.zero(2)
    assert GaussianRational(0, 1) * m == Matrix([["i", "2i"], ["3i", "4i"]])
    assert Fraction(1, 2) * m == Matrix([["1/2", "1"], ["3/2", "2"]])


@pytest.mark.parametrize("apply", [
    lambda m: m + 1,
    lambda m: m - 1,
    lambda m: 1.5 * m,
    lambda m: m * 1.5,
], ids=["plus-int", "minus-int", "float-times", "times-float"])
def test_matrix_arithmetic_rejects_what_it_cannot_take(apply):
    with pytest.raises(TypeError):
        apply(Matrix.identity(2))


def test_a_matrix_is_not_equal_to_a_scalar():
    assert (Matrix.identity(1) == 1) is False


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match="2x2.*2x3"):
        Matrix.zero(2) + Matrix.zero(2, 3)
    with pytest.raises(ShapeError, match="2x3.*2x2"):
        Matrix.zero(2, 3) * Matrix.zero(2, 2)
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix([])


def test_kron_block_structure():
    # identity (x) J2 is block diagonal with two J2 blocks
    assert kron(Matrix.identity(2), J2) == Matrix(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    )
    # J2 (x) identity puts the identity in the upper-right block
    assert kron(J2, Matrix.identity(2)) == Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    )


def test_kron_mixed_product_law():
    rng = random.Random(2)
    for _ in range(20):
        a, b, c, d = (rand_matrix(rng, 2, gaussian=True) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_vec_column_stacking():
    assert vec(Matrix([[1, 2], [3, 4]])) == Matrix([[1], [3], [2], [4]])


def test_unvec_round_trip():
    rng = random.Random(3)
    for rows, cols in [(1, 1), (2, 3), (3, 2), (3, 3)]:
        x = rand_matrix(rng, rows, cols)
        assert unvec(vec(x), rows, cols) == x
    with pytest.raises(ShapeError):
        unvec(Matrix([[1], [2], [3]]), 2, 2)


@given(matrices2, matrices2, matrices2)
def test_vec_of_sandwich_matches_kron(a, x, b):
    assert vec(a * x * b) == kron(b.T, a) * vec(x)


def test_powers():
    assert J2**2 == Matrix.zero(2)
    assert J2**0 == Matrix.identity(2)
    n = Matrix([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert n**2 == Matrix.zero(3)
    with pytest.raises(ShapeError):
        Matrix.zero(2, 3) ** 2
    with pytest.raises(ValueError):
        J2 ** -1


def test_trace():
    assert Matrix.identity(3).trace() == GaussianRational(3)
    assert J2.trace() == GaussianRational(0)
    assert FAMILY_A.trace() == GaussianRational(4)
    with pytest.raises(ShapeError):
        Matrix.zero(2, 3).trace()


def test_rank_one_outer_product():
    f = Matrix([[1, 0]])
    x = Matrix([[0], [1]])
    assert rank_one(f, x) == Matrix([[0, 0], [1, 0]])


def test_rank_one_action():
    rng = random.Random(4)
    for _ in range(10):
        f = rand_matrix(rng, 1, 3)
        x = rand_matrix(rng, 3, 1)
        z = rand_matrix(rng, 3, 1)
        fz = (f * z)[0, 0]
        assert rank_one(f, x) * z == fz * x


def test_rank_one_has_rank_one():
    rng = random.Random(5)
    f = rand_matrix(rng, 1, 3)
    x = rand_matrix(rng, 3, 1)
    while f.is_zero:
        f = rand_matrix(rng, 1, 3)
    while x.is_zero:
        x = rand_matrix(rng, 3, 1)
    m = rank_one(f, x)
    assert not m.is_zero
    for i1 in range(3):
        for i2 in range(i1 + 1, 3):
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    minor = m[i1, j1] * m[i2, j2] - m[i1, j2] * m[i2, j1]
                    assert minor.is_zero


def test_rank_one_shape_errors():
    with pytest.raises(ShapeError):
        rank_one(Matrix([[1, 0]]), Matrix([[1], [0], [0]]))
    with pytest.raises(ShapeError):
        rank_one(Matrix([[1], [0]]), Matrix([[1], [0]]))


def test_matrix_poly_evaluates_with_identity_constant():
    assert matrix_poly([1, 1], J2) == Matrix.identity(2) + J2
    assert matrix_poly([0], J2) == Matrix.zero(2)


def test_matrix_poly_of_a_non_square_matrix_is_a_shape_error():
    with pytest.raises(ShapeError, match="2x3"):
        matrix_poly([1], Matrix.zero(2, 3))


def test_transpose_and_hash():
    m = Matrix([[1, 2], [3, 4]])
    assert m.T == Matrix([[1, 3], [2, 4]])
    assert m.T.T == m
    assert hash(m) == hash(Matrix([[1, 2], [3, 4]]))
    assert {m: "here"}[Matrix([[1, 2], [3, 4]])] == "here"


# ---- Z[i] product against the Q(i) reference ---------------------------------------

def _assert_matches(result: Matrix, reference: Matrix) -> Matrix:
    assert result == reference
    assert result.row_list() == reference.row_list()
    # the stored form is exactly a fresh conversion's, minimal scale included
    assert result._form == Matrix(result.row_list())._form
    return result


def _assert_product_matches_reference(a: Matrix, b: Matrix) -> Matrix:
    return _assert_matches(a * b, ref_matmul(a, b))


SHAPES = [(d, d, d) for d in (1, 2, 3, 4)] + [(1, d, 1) for d in (1, 2, 3, 4)] + [
    (d, 1, d) for d in (2, 3, 4)
]


@pytest.mark.parametrize("rows, inner, cols", SHAPES)
@pytest.mark.parametrize("kinds", [(False, False), (True, True), (False, True), (True, False)])
def test_product_matches_reference(rows, inner, cols, kinds):
    rng = random.Random(f"{rows}x{inner}x{cols}/{kinds}")
    for _ in range(6):
        a = wide_matrix(rng, rows, inner, kinds[0])
        b = wide_matrix(rng, inner, cols, kinds[1])
        _assert_product_matches_reference(a, b)
        # small entries too, where zeros and cancellations are common
        _assert_product_matches_reference(
            rand_matrix(rng, rows, inner, gaussian=kinds[0]),
            rand_matrix(rng, inner, cols, gaussian=kinds[1]),
        )


def test_product_of_products_matches_reference():
    rng = random.Random(8)
    a, b, c = (wide_matrix(rng, 3, 3, True) for _ in range(3))
    _assert_product_matches_reference(_assert_product_matches_reference(a, b), c)
    # a product of a product that never built its entries
    assert (a * b) * c == ref_matmul(ref_matmul(a, b), c) == a * (b * c)


def test_zero_product_has_scale_one():
    p = _assert_product_matches_reference(J2, J2)
    assert p._form == (1, (((0, 0), (0, 0)), None))
    z = _assert_product_matches_reference(Matrix([[Fraction(1, 3), "2/7*i"]]), Matrix.zero(2, 3))
    assert z._form == (1, (((0, 0, 0),), None)) and z.is_zero


def test_product_scale_reduces_to_one():
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    p = _assert_product_matches_reference(half, Matrix([[2, 0], [0, 4]]))
    assert p._form == (1, (((1, 0), (0, 6)), None))


def test_product_drops_cancelled_imaginary_part():
    # (1 + i) * (1 - i) = 2, and i*J2 * i*J2T = -E11
    i = GaussianRational(0, 1)
    p = _assert_product_matches_reference(Matrix([["1/3+1/3*i"]]), Matrix([["3/2-3/2*i"]]))
    assert p._form == (1, (((1,),), None))
    q = _assert_product_matches_reference(i * J2, i * J2T)
    assert q._form == (1, (((-1, 0), (0, 0)), None))


# ---- every other operation on forms against the Q(i) references ----------------------

# (operation, reference) on two d x d operands and a scalar
FORM_OPS = {
    "add": (lambda a, b, c: a + b, lambda a, b, c: ref_add(a, b)),
    "sub": (lambda a, b, c: a - b, lambda a, b, c: ref_add(a, ref_neg(b))),
    "neg": (lambda a, b, c: -a, lambda a, b, c: ref_neg(a)),
    "scalar_left": (lambda a, b, c: c * a, lambda a, b, c: ref_scale(c, a)),
    "scalar_right": (lambda a, b, c: a * c, lambda a, b, c: ref_scale(c, a)),
    "transpose": (lambda a, b, c: a.T, lambda a, b, c: ref_transpose(a)),
    "kron": (lambda a, b, c: kron(a, b), lambda a, b, c: ref_kron(a, b)),
    "vec": (lambda a, b, c: vec(a), lambda a, b, c: ref_vec(a)),
    "unvec": (lambda a, b, c: unvec(ref_vec(a), a.rows, a.cols),
              lambda a, b, c: ref_unvec(ref_vec(a), a.rows, a.cols)),
    "matrix_poly": (lambda a, b, c: matrix_poly([c, 1, -c], a),
                    lambda a, b, c: ref_matrix_poly([c, 1, -c], a)),
}


def _operands(rng, d, kinds):
    """Wide and small operands of each kind, entry-built and form-only."""
    wide = [wide_matrix(rng, d, d, g) for g in kinds]
    small = [rand_matrix(rng, d, gaussian=g) for g in kinds]
    form_only = [m * Matrix.identity(d) for m in small]
    return [(*wide, wide_matrix(rng, 1, 1, kinds[0])[0, 0]),
            (*small, rand_scalar(rng, gaussian=kinds[0])),
            (*form_only, rand_scalar(rng, gaussian=kinds[1]))]


@pytest.mark.parametrize("name", FORM_OPS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kinds", [(False, False), (True, True), (False, True), (True, False)])
def test_form_operation_matches_reference(name, d, kinds):
    op, ref = FORM_OPS[name]
    rng = random.Random(f"{name}/{d}/{kinds}")
    for a, b, c in _operands(rng, d, kinds):
        _assert_matches(op(a, b, c), ref(a, b, c))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_trace_and_zero_test_match_reference(d, gaussian):
    rng = random.Random(f"trace/{d}/{gaussian}")
    for a in (wide_matrix(rng, d, d, gaussian), rand_matrix(rng, d, gaussian=gaussian),
              rand_matrix(rng, d, gaussian=gaussian) * Matrix.identity(d)):
        assert a.trace() == ref_trace(a) and str(a.trace()) == str(ref_trace(a))
        for m in (a, a - a, 0 * a, a.T, kron(a, Matrix.zero(1, 2))):
            assert m.is_zero is ref_is_zero(m)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (3, 1), (2, 2), (4, 4)])
def test_constant_matrices_match_reference(rows, cols):
    _assert_matches(Matrix.zero(rows, cols), ref_zero(rows, cols))
    _assert_matches(Matrix.identity(rows), ref_identity(rows))
    one = ref_zero(rows, rows).row_list()
    one[rows - 1][0] = GaussianRational(1)
    _assert_matches(basis_matrix(rows, rows - 1, 0), Matrix(one))


@pytest.mark.parametrize("n, i, j", [(2, 5, 5), (2, -1, 0), (3, 0, 3)])
def test_basis_matrix_rejects_a_position_outside_it(n, i, j):
    with pytest.raises(ShapeError) as info:
        basis_matrix(n, i, j)
    assert str(info.value) == f"position ({i}, {j}) is outside a {n}x{n} matrix"


def test_a_matrix_built_from_entries_has_its_form_on_construction():
    rows = [["1/2", "1/3*i"], [2, "-1/6+i"]]
    assert Matrix(rows)._form == Matrix._from_integer_form(
        6, [[3, 0], [12, -1]], [[0, 2], [0, 6]])._form


def test_form_operations_reduce_scale_and_drop_cancelled_imaginary_parts():
    half = Matrix([["1/2", "3/2"]])
    for result, form in [
        # the scale reduces to 1
        (half + Matrix([["1/2", "1/2"]]), (1, (((1, 2),), None))),
        (2 * half, (1, (((1, 3),), None))),
        (kron(Matrix([["1/2"]]), Matrix([[2, 4]])), (1, (((1, 2),), None))),
        (matrix_poly(["1/2", "1/2"], Matrix([[1]])), (1, (((1,),), None))),
        # the imaginary part cancels
        (Matrix([["1/3+i"]]) + Matrix([["2/3-i"]]), (1, (((1,),), None))),
        (IMAG * Matrix([["i", "1/2*i"]]), (2, (((-2, -1),), None))),
        (kron(Matrix([["i"]]), Matrix([["i"], ["2i"]])), (1, (((-1,), (-2,)), None))),
        (Matrix([["1+i", 0]]) - Matrix([["i", "-1"]]), (1, (((1, 1),), None))),
        # the result is zero
        (half - half, (1, (((0, 0),), None))),
        (0 * Matrix([["1/3+2/5*i"]]), (1, (((0,),), None))),
        (kron(Matrix.zero(2), Matrix([["1/7*i"]])), (1, (((0, 0), (0, 0)), None))),
        (matrix_poly([0], Matrix([["1/3"]])), (1, (((0,),), None))),
        (-Matrix.zero(1, 2), (1, (((0, 0),), None))),
    ]:
        assert result._form == form
        assert Matrix(result.row_list())._form == form
    assert (half - half).is_zero and not half.is_zero


# ---- entries on demand and equality on forms ----------------------------------------

PAIR_RNG = random.Random(12)
FORM_ONLY = [
    wide_matrix(PAIR_RNG, 2, 3, True) * wide_matrix(PAIR_RNG, 3, 2, False),
    J2 * J2T,
    Matrix([[1, 2], [3, 4]]) * Matrix.identity(2),
]


@pytest.mark.parametrize("kinds, products", [
    ((False, False), 1), ((False, True), 2), ((True, False), 2), ((True, True), 3),
])
def test_gaussian_product_forms_at_most_three_int_products(monkeypatch, kinds, products):
    rng = random.Random(16)
    a, b = (wide_matrix(rng, 3, 3, gaussian) for gaussian in kinds)
    (sa, x), (sb, y) = a._form, b._form
    calls = []
    kernel = matrix._int_matmul
    monkeypatch.setattr(matrix, "_int_matmul", lambda p, q: calls.append(1) or kernel(p, q))
    product = matrix._gaussian_matmul(x, y)
    assert len(calls) == products
    assert Matrix._from_integer_form(sa * sb, *product) == ref_matmul(a, b)


def _entry_twin(m: Matrix) -> Matrix:
    """The same matrix built from entries."""
    return Matrix(m.row_list())


@pytest.mark.parametrize("m", FORM_ONLY)
def test_product_reads_like_the_matrix_built_from_its_entries(m):
    p = m * Matrix.identity(2)
    form = p._form
    twin = _entry_twin(ref_matmul(m, Matrix.identity(2)))
    assert str(p) == str(twin) and repr(p) == repr(twin)
    assert p.row_list() == twin.row_list()
    assert all(p[i, j] == twin[i, j] for i in range(2) for j in range(2))
    assert p[1] == twin[1] and list(p.entries()) == list(twin.entries())
    assert matrix_to_obj(p) == matrix_to_obj(twin)
    # reading entries leaves the very same form behind
    assert p._form is form
    assert p.is_zero == twin.is_zero and p.trace() == twin.trace() and p.T == twin.T


def _has_entries(m: Matrix) -> bool:
    """Whether m holds anything besides its shape and an int form."""
    scale, (re, im) = m._form
    ints = all(type(x) is int for part in (re, im or ()) for row in part for x in row)
    return hasattr(m, "__dict__") or type(scale) is not int or not ints


def test_unread_product_has_no_entries():
    p = Matrix([[1, 2], [3, 4]]) * J2
    form = p._form
    # no operation on form-only operands builds entries
    q = Matrix([["1/2", "i"], [0, 3]]) * Matrix.identity(2)
    derived = [p + q, p - q, -p, 2 * p, p * "1/3+i", p.T, p.transpose(), kron(p, q), vec(p),
               unvec(vec(q), 2, 2), matrix_poly([1, "i", 2], p), p**3, rank_one(vec(p).T, vec(q)),
               Matrix.identity(2), Matrix.zero(2, 3), basis_matrix(2, 0, 1)]
    assert p.trace() == GaussianRational(3) and not p.is_zero and (p - p).is_zero
    assert p != q and hash(p) == hash(p._form)
    assert not any(map(_has_entries, [p, q, *derived]))
    # nor does reading them: each read builds them afresh and stores none
    assert p[0, 1] == GaussianRational(1)
    assert p.row_list() == [[ZERO, GaussianRational(1)], [ZERO, GaussianRational(3)]]
    assert not _has_entries(p) and p._form is form
    with pytest.raises(AttributeError):
        p._rows = ((ZERO, ZERO), (ZERO, ZERO))
    with pytest.raises(AttributeError):
        p.no_such_attribute


def test_a_matrix_has_only_its_shape_and_form_slots():
    assert Matrix.__slots__ == ("rows", "cols", "_form")


def _reader_cases():
    """(matrix, its entries) for entry-built and form-built, real and Gaussian matrices."""
    rng = random.Random(18)
    cases = []
    for gaussian in (False, True):
        rows = [[rand_scalar(rng, 1, gaussian) for _ in range(3)] for _ in range(2)]
        cases.append(pytest.param(Matrix(rows), rows, id=f"entries-gaussian={gaussian}"))
        a, b = wide_matrix(rng, 2, 3, gaussian), wide_matrix(rng, 3, 3, gaussian)
        product = a * b
        assert product == ref_matmul(a, b)
        rows = ref_entry_rows(product)
        cases.append(pytest.param(product, rows, id=f"form-gaussian={gaussian}"))
    cases.append(pytest.param(J2 * J2T, [[GaussianRational(1), ZERO], [ZERO, ZERO]], id="form-0-1"))
    # int cells (re, im, den) with negative and unreduced denominators, zeros over odd ones
    for name, cells in (
        ("real", [[(2, 0, -4), (42, 0, -21)], [(0, 0, -15), (7, 0, 10)]]),
        ("gaussian", [[(2, 0, -4), (-18, 3, -9)], [(0, -7, 10), (10, 4, 2)]]),
    ):
        rows = [[GaussianRational(Fraction(re, den), Fraction(im, den)) for re, im, den in row]
                for row in cells]
        cases.append(pytest.param(Matrix._from_parts(cells), rows, id=f"parts-{name}"))
    return cases


@pytest.mark.parametrize("m, rows", _reader_cases())
def test_every_entry_reader_builds_the_entries_from_the_form(m, rows):
    form = m._form
    assert ref_entry_rows(m) == rows and form == Matrix(rows)._form  # a canonical form
    assert m.row_list() == rows
    assert [m[i] for i in range(m.rows)] == [tuple(row) for row in rows]  # as the probes read it
    assert all(type(m[i]) is tuple for i in range(m.rows))
    assert [[m[i, j] for j in range(m.cols)] for i in range(m.rows)] == rows
    assert list(m.entries()) == [(i, j, e) for i, row in enumerate(rows) for j, e in enumerate(row)]
    text = "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in rows) + "]"
    assert str(m) == text and repr(m) == f"Matrix({text})"
    assert matrix_to_obj(m) == {"rows": m.rows, "cols": m.cols,
                                "entries": [[format_scalar(e) for e in row] for row in rows]}
    # one object per distinct value within a read, and the form is left as it was
    read = m.row_list()
    assert len({id(e) for row in read for e in row}) == len({e for row in read for e in row})
    assert m._form is form and not _has_entries(m)


@pytest.mark.parametrize("gaussian", [False, True])
def test_a_pair_read_builds_only_its_own_entry(monkeypatch, gaussian):
    rng = random.Random(19)
    m = wide_matrix(rng, 3, 4, gaussian)
    rows = ref_entry_rows(m)
    built = []
    monkeypatch.setattr(matrix, "_gaussian", lambda *cell: built.append(cell) or _gaussian(*cell))
    for i, j in ((0, 0), (2, 3), (-1, -2), (-3, 1)):
        built.clear()
        assert m[i, j] == rows[i][j] and len(built) == 1
    for key in ((3, 0), (0, 4), (-4, 0), (0, -5)):
        with pytest.raises(IndexError):
            m[key]
    # a row index or a slice still reads the rows of entries
    assert m[-1] == tuple(rows[-1]) and m[1:] == tuple(map(tuple, rows[1:]))


# int cells (re, im, den): wide signed parts over signed, unreduced denominators
wide_ints = st.integers(-(2**80), 2**80)
signed_dens = st.integers(-(10**6), 10**6).filter(bool)


@given(st.data(), st.booleans(), st.integers(1, 3), st.integers(1, 3))
def test_from_parts_builds_each_cell_as_its_scalar_and_inverts_cells(data, gaussian, rows, cols):
    cell = st.tuples(wide_ints, wide_ints if gaussian else st.just(0), signed_dens)
    cells = data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    m = Matrix._from_parts(cells)
    assert m == Matrix([[_gaussian(*c) for c in row] for row in cells])
    # the cells a form leaves by build it again, for a form-built product as well
    for x in (m, m * m.T):
        assert Matrix._from_parts(x._cells(lambda *c: c)) == x


def test_real_cells_build_no_imaginary_rows(monkeypatch):
    cells = [[(2, 0, -4), (42, 0, -21)], [(0, 0, -15), (7, 0, 10)]]
    rows = [[_gaussian(*c) for c in row] for row in cells]
    handed = []
    build = Matrix._from_integer_form.__func__
    monkeypatch.setattr(Matrix, "_from_integer_form", classmethod(
        lambda cls, scale, re, im: handed.append(im) or build(cls, scale, re, im)))
    m = Matrix._from_parts(cells)
    assert handed == [None]  # no all-zero rows built, scanned and dropped
    assert m._form[1][1] is None and m == Matrix(rows)


def test_hash_is_taken_of_the_form_and_builds_no_entries():
    rng = random.Random(15)
    for gaussian in (False, True):
        a, b = wide_matrix(rng, 3, 3, gaussian), wide_matrix(rng, 3, 3, True)
        p = a * b
        twin = ref_matmul(a, b)
        assert hash(p) == hash(twin) and twin._form == p._form
        assert hash(_entry_twin(p)) == hash(p) == hash(p._form)
    # equal zero matrices of one shape hash equal whichever way they were made
    assert hash(Matrix.zero(2, 1) * Matrix.zero(1, 2)) == hash(Matrix.zero(2))
    assert len({Matrix.zero(2), J2 * J2, J2, _entry_twin(J2 * J2T), J2 * J2T}) == 3


def _pairs():
    """Equal and unequal pairs in every mix of form-only and entry-only operands."""
    rng = random.Random(13)
    a, b = wide_matrix(rng, 2, 2, True), wide_matrix(rng, 2, 2, False)
    ab = ref_matmul(a, b)
    out = []
    for left, right, equal in [
        (a * b, ab, True),
        (a * b, b * a, False),
        (a * b, wide_matrix(rng, 2, 2, True) * b, False),
        (J2 * J2T, Matrix([[1, 0], [0, 0]]), True),
        (J2 * J2T, Matrix([[1, 0], [0, "1/2"]]), False),
        (J2 * J2, Matrix.zero(2), True),
        (J2 * J2, Matrix.zero(2, 1) * Matrix.zero(1, 2), True),
        (Matrix([[1, 2]]) * Matrix.identity(2), Matrix([[1], [2]]), False),  # shape differs
    ]:
        out.append((left, right, equal))
        out.append((left, right * Matrix.identity(right.cols), equal))  # both forms
        out.append((_entry_twin(left), right, equal))  # both entries
    return out


@pytest.mark.parametrize("left, right, equal", _pairs())
def test_equality_agrees_with_entry_equality(left, right, equal):
    assert (left == right) is equal and (right == left) is equal
    assert (left != right) is not equal
    by_entries = left.shape == right.shape and left.row_list() == right.row_list()
    assert by_entries is equal
    if equal:
        assert hash(left) == hash(right)


def test_non_conformable_product_keeps_its_message():
    with pytest.raises(ShapeError, match=r"^cannot multiply 2x3 by 2x2$"):
        Matrix.zero(2, 3) * Matrix.zero(2, 2)
    with pytest.raises(ShapeError, match=r"^cannot multiply 1x2 by 1x2$"):
        (Matrix([[1, 2]]) * Matrix.identity(2)) * Matrix([[1, "i"]])


def test_concurrent_reads_agree_and_leave_the_form_alone():
    rng = random.Random(14)
    factors = [(wide_matrix(rng, 4, 4, True), wide_matrix(rng, 4, 4, False)) for _ in range(12)]
    products = [a * b for a, b in factors]
    forms = [p._form for p in products]
    seen = [[] for _ in products]

    def read():
        for k, p in enumerate(products):
            seen[k].append(p.row_list())

    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (a, b), p, form, rows in zip(factors, products, forms, seen):
        assert len(rows) == 4 and all(r == rows[0] for r in rows)
        assert rows[0] == ref_matmul(a, b).row_list() and p._form is form
