import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from elemop import (
    GaussianRational,
    IntegrityError,
    Matrix,
    NilpotencyReport,
    ONE,
    ShapeError,
    ZERO,
    as_scalar,
    char_poly,
    is_nilpotent,
    lab,
    nilpotency,
)
from elemop import _zi
from elemop.operators import (
    make_generalized_derivation,
    make_multiplication,
    make_v_operator,
)
from helpers import (
    rand_matrix,
    rand_scalar,
    ref_char_poly,
    ref_identity,
    ref_is_nilpotent,
    ref_matmul,
)

J2 = Matrix([[0, 1], [0, 0]])
J3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
FAMILY_A = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])


# ---- independent characteristic polynomial oracle -------------------------
# Polynomials are coefficient lists in ascending order; the determinant of
# xI - a is expanded by cofactors along the first row, with no shared code
# with the implementation under test.

def _poly_add(p, q):
    n = max(len(p), len(q))
    p = p + [ZERO] * (n - len(p))
    q = q + [ZERO] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def _poly_scale(p, c):
    return [c * a for a in p]


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
    return out


def _poly_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = [ZERO]
    sign = ONE
    for j, entry in enumerate(rows[0]):
        minor = [[row[c] for c in range(len(row)) if c != j] for row in rows[1:]]
        total = _poly_add(total, _poly_scale(_poly_mul(entry, _poly_det(minor)), sign))
        sign = -sign
    return total


def char_poly_oracle(a: Matrix):
    d = a.rows
    rows = [
        [[-a[i, j], ONE] if i == j else [-a[i, j]] for j in range(d)]
        for i in range(d)
    ]
    coeffs = _poly_det(rows)
    coeffs = coeffs + [ZERO] * (d + 1 - len(coeffs))
    return tuple(reversed(coeffs))  # leading coefficient first


# ---- characteristic polynomial ------------------------------------------------

def test_char_poly_frozen_cases():
    assert char_poly(J2) == (ONE, ZERO, ZERO)  # x^2
    assert [str(c) for c in char_poly(Matrix.identity(2))] == ["1", "-2", "1"]
    # (x-3)^2 (x+2) = x^3 - 4x^2 - 3x + 18
    assert [str(c) for c in char_poly(FAMILY_A)] == ["1", "-4", "-3", "18"]


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(10)
    for dim in (1, 2, 3, 4):
        for _ in range(8):
            a = rand_matrix(rng, dim, gaussian=(dim < 4))
            assert char_poly(a) == char_poly_oracle(a)
    for frozen in (J2, J3, FAMILY_A, Matrix.identity(3)):
        assert char_poly(frozen) == char_poly_oracle(frozen)


@pytest.mark.parametrize("m", [J3, FAMILY_A, Matrix([[0, "i"], ["i", 0]]), Matrix([["1/2+i"]])])
def test_char_poly_coefficients_are_built_only_as_needed(m):
    coeffs = char_poly(m)
    assert coeffs == ref_char_poly(m)
    for c in coeffs:
        if not c:
            assert c is ZERO  # the shared zero, nothing built
        elif c.is_real:
            assert c.im is ZERO.im  # no imaginary Fraction built
    # x^2 + 1 for [[0, i], [i, 0]]: a real polynomial of a non-real matrix
    assert char_poly(Matrix([[0, "i"], ["i", 0]]))[1] is ZERO


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d", range(1, 17))
def test_char_poly_matches_reference_at_every_size(d, gaussian):
    # every step split of s = isqrt(d), including s^2 - 1, s^2 and s^2 + 1
    rng = random.Random(300 * d + gaussian)
    cases = [rand_matrix(rng, d, gaussian=gaussian)]
    assert d < 3 or len({e.re.denominator for _, _, e in cases[0].entries()}) > 1
    if d == 16:  # dim-4 superoperators, one nilpotent and one not
        config = lab.GeneratorConfig(dim=4, seed=d, gaussian=gaussian)
        s, t = lab.gen_nilpotent(config), rand_matrix(rng, 4, gaussian=gaussian)
        cases += [make_multiplication(s, t).superoperator(),
                  make_generalized_derivation(s, t).superoperator()]
    for a in cases:
        assert char_poly(a) == ref_char_poly(a)


def test_char_poly_rejects_non_square():
    with pytest.raises(ShapeError):
        char_poly(Matrix.zero(2, 3))


# ---- nilpotency decision --------------------------------------------------------

def test_jordan_block_index_equals_dimension():
    report = is_nilpotent(J3)
    assert report.nilpotent and report.index == 3
    assert report.witness is not None
    # J3^2 has its only nonzero entry in the corner
    assert (report.witness.row, report.witness.col) == (0, 2)
    assert report.witness.value == ONE


def test_family_matrix_not_nilpotent():
    report = is_nilpotent(FAMILY_A)
    assert not report.nilpotent
    assert report.index is None and report.witness is None


def test_every_non_nilpotent_matrix_gets_the_one_shared_report():
    # different sizes, a real and a non-real matrix: one report object
    others = [FAMILY_A, Matrix.identity(2), Matrix([["i", 1], [0, "1/2"]])]
    reports = [is_nilpotent(a) for a in others]
    assert all(r is nilpotency.NOT_NILPOTENT for r in reports)
    assert nilpotency.NOT_NILPOTENT == NilpotencyReport(False)


def test_difference_matrix_index_two():
    n = Matrix([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    report = is_nilpotent(n)
    assert report.nilpotent and report.index == 2
    assert (report.witness.row, report.witness.col) == (0, 2)


def test_zero_matrix_has_index_one_and_no_witness():
    report = is_nilpotent(Matrix.zero(3))
    assert report.nilpotent and report.index == 1
    assert report.witness is None


def test_rejects_non_square():
    with pytest.raises(ShapeError):
        is_nilpotent(Matrix.zero(2, 3))


def test_decision_consistency_on_random_matrices():
    # nilpotent <=> char poly is x^d <=> a^d = 0, and the index never
    # exceeds the dimension; nilpotent matrices are traceless
    rng = random.Random(11)
    seen_nilpotent = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        if rng.random() < 0.5:
            a = rand_matrix(rng, dim)
        else:
            rows = rand_matrix(rng, dim).row_list()
            for i in range(dim):
                for j in range(i + 1):
                    rows[i][j] = ZERO
            a = Matrix(rows)
        report = is_nilpotent(a)
        power_zero = (a**dim).is_zero
        poly_is_xd = all(not c for c in char_poly_oracle(a)[1:])
        assert report.nilpotent == power_zero == poly_is_xd
        if report.nilpotent:
            seen_nilpotent += 1
            assert 1 <= report.index <= dim
            assert a.trace() == ZERO
            assert (a**report.index).is_zero
            if report.index > 1:
                prev = a ** (report.index - 1)
                assert prev[report.witness.row, report.witness.col] == report.witness.value
                assert not prev.is_zero
    assert seen_nilpotent >= 10


def test_witness_entry_is_nonzero():
    report = is_nilpotent(J2)
    assert report.index == 2
    assert report.witness.value == ONE
    assert J2[report.witness.row, report.witness.col] == report.witness.value


# ---- Gaussian-integer kernel against the Q(i) reference path -------------------

def _assert_matches_reference(a: Matrix):
    assert is_nilpotent(a) == ref_is_nilpotent(a)  # decision, index, witness value
    assert char_poly(a) == ref_char_poly(a)


SIGNED_2X2 = [
    Matrix([list(entries[:2]), list(entries[2:])])
    for entries in itertools.product((-1, 0, 1), repeat=4)
]


def test_kernel_matches_reference_on_all_signed_2x2():
    assert len(SIGNED_2X2) == 81
    for a in SIGNED_2X2:
        _assert_matches_reference(a)


def test_kernel_matches_reference_on_signed_2x2_superoperators():
    pairs = list(itertools.product(SIGNED_2X2, repeat=2))[::13]
    nilpotent = 0
    for a, b in pairs:
        for op in (make_multiplication(a, b), make_generalized_derivation(a, b)):
            sup = op.superoperator()
            _assert_matches_reference(sup)
            nilpotent += is_nilpotent(sup).nilpotent
    assert nilpotent >= 20


def test_kernel_matches_reference_on_gaussian_dim3():
    rng = random.Random(12)
    cases = [rand_matrix(rng, 3, bound=5, gaussian=True) for _ in range(30)]
    cases += [lab.gen_nilpotent(lab.GeneratorConfig(dim=3, seed=seed, gaussian=True))
              for seed in range(10)]
    # real and imaginary denominators differ, so D mixes both parts
    assert sum(e.re.denominator != e.im.denominator
               for a in cases for _, _, e in a.entries()) > 100
    for a in cases:
        _assert_matches_reference(a)


def test_kernel_matches_reference_on_9x9_superoperators():
    indices = set()
    for seed in range(8):
        gaussian = seed % 2 == 1
        s = lab.gen_nilpotent(lab.GeneratorConfig(dim=3, seed=seed, gaussian=gaussian))
        t = lab.gen_nilpotent(lab.GeneratorConfig(dim=3, seed=seed + 100, gaussian=gaussian))
        for op in (make_multiplication(s, t), make_generalized_derivation(s, t),
                   make_v_operator(s, t)):
            sup = op.superoperator()
            _assert_matches_reference(sup)
            indices.add(is_nilpotent(sup).index)
    assert len(indices) > 1


# ---- binary powering: index and witness of every possible index ------------------

def _conjugated(n: Matrix, rng: random.Random, gaussian: bool) -> Matrix:
    """S n S^-1 for S = diag(mixed denominators) times a unimodular matrix."""
    d = n.rows
    multipliers = (1, -1, 2, -2) + (("1+i", "-i") if gaussian else ())
    u = u_inv = Matrix.identity(d)
    for _ in range(2 * d if d > 1 else 0):  # row operations and their inverses
        i, j = rng.sample(range(d), 2)
        c = as_scalar(rng.choice(multipliers))
        step = [[ONE if r == s else ZERO for s in range(d)] for r in range(d)]
        step[i][j] = c
        u = Matrix(step) * u
        step[i][j] = -c
        u_inv = u_inv * Matrix(step)

    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))
    diag = [GaussianRational(part(), part() if gaussian else 0) for _ in range(d)]
    scale = Matrix([[diag[r] if r == s else ZERO for s in range(d)] for r in range(d)])
    unscale = Matrix([[1 / diag[r] if r == s else ZERO for s in range(d)] for r in range(d)])
    assert u * u_inv == Matrix.identity(d)
    return scale * u * n * u_inv * unscale


def _jordan_type(d: int, blocks, rng: random.Random, gaussian: bool, eigenvalue=ZERO) -> Matrix:
    """Jordan-type blocks of the given sizes down the diagonal, each with
    random nonzero superdiagonal entries; the first block carries the eigenvalue."""
    rows = [[ZERO] * d for _ in range(d)]
    start = 0
    for b, size in enumerate(blocks):
        for r in range(start, start + size - 1):
            im = rng.choice((0, 1)) if gaussian else 0
            rows[r][r + 1] = GaussianRational(rng.choice((1, -2, 3)), im)
        if b == 0:
            for r in range(start, start + size):
                rows[r][r] = eigenvalue
        start += size
    assert start == d
    return Matrix(rows)


def _blocks(d: int, largest: int, rng: random.Random) -> list[int]:
    """Block sizes summing to d, the first one the largest."""
    blocks = [largest]
    while sum(blocks) < d:
        blocks.append(rng.randint(1, min(largest, d - sum(blocks))))
    return blocks


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d", range(1, 10))
def test_every_index_and_witness_matches_reference(d, gaussian):
    rng = random.Random(100 * d + gaussian)
    cases = []
    for k in range(1, d + 1):
        a = _conjugated(_jordan_type(d, _blocks(d, k, rng), rng, gaussian), rng, gaussian)
        cases.append((a, k))
    # not nilpotent: one nonzero eigenvalue on a block of each size, d a power of 2 or not
    for size in sorted({1, d // 2 or 1, d}):
        lam = GaussianRational(Fraction(rng.choice((-1, 2)), 3), 1 if gaussian else 0)
        n = _jordan_type(d, _blocks(d, size, rng), rng, gaussian, eigenvalue=lam)
        cases.append((_conjugated(n, rng, gaussian), None))
    cases += [(a, k) for a, k, _ in _tie_breaks(d, rng, gaussian)]
    for a, k in cases:
        report = is_nilpotent(a)
        assert report == ref_is_nilpotent(a)  # decision, index and witness
        assert report.index == k
        assert char_poly(a) == ref_char_poly(a)
    # the conjugation left mixed denominators (and, over Q(i), imaginary parts)
    denominators = max(len({e.re.denominator for _, _, e in a.entries()}) for a, _ in cases)
    assert d == 1 or denominators > 2
    if gaussian:
        assert all(a._form[1][1] is not None for a, k in cases if k != 1)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d", range(1, 17))
def test_power_sums_vanish_exactly_when_char_poly_is_x_to_the_d(d, gaussian):
    # the reference tests' matrices: a random one per size (with the signed 2x2
    # ones and the dim-4 superoperators), and conjugated Jordan types of every
    # index and of a nonzero eigenvalue, here at every size up to 16
    rng = random.Random(300 * d + gaussian)
    cases = [rand_matrix(rng, d, gaussian=gaussian)]
    if d == 2 and not gaussian:
        cases += SIGNED_2X2
    if d == 16:
        config = lab.GeneratorConfig(dim=4, seed=d, gaussian=gaussian)
        s, t = lab.gen_nilpotent(config), rand_matrix(rng, 4, gaussian=gaussian)
        cases += [make_multiplication(s, t).superoperator(),
                  make_generalized_derivation(s, t).superoperator()]
    rng = random.Random(100 * d + gaussian)
    for k in range(1, d + 1):
        cases.append(_conjugated(_jordan_type(d, _blocks(d, k, rng), rng, gaussian), rng, gaussian))
    for size in sorted({1, d // 2 or 1, d}):
        lam = GaussianRational(Fraction(rng.choice((-1, 2)), 3), 1 if gaussian else 0)
        n = _jordan_type(d, _blocks(d, size, rng), rng, gaussian, eigenvalue=lam)
        cases.append(_conjugated(n, rng, gaussian))
    decisions = set()
    for a in cases:
        vanish = not any(map(any, nilpotency._power_sums(a._form[1], d)))
        assert vanish == all(not c for c in char_poly(a)[1:]) == is_nilpotent(a).nilpotent
        decisions.add(vanish)
    assert decisions == {False, True}


def _char_poly_products(d: int) -> int:
    """Baby steps B^2..B^s and giant steps B^(2s)..B^(((d-1)//s)*s), s = isqrt(d)."""
    s = isqrt(d)
    return s - 1 + max(0, (d - 1) // s - 1)


@pytest.mark.parametrize("d, products", [(16, 5), (9, 3), (4, 1), (2, 0)])
def test_non_nilpotent_decision_forms_few_products(monkeypatch, d, products):
    rng = random.Random(d)
    a = _conjugated(_jordan_type(d, [d], rng, False, eigenvalue=ONE), rng, False)
    a = Matrix(a.row_list())  # entry-built, so filling the form forms no product
    expected = ref_char_poly(Matrix(a.row_list()))
    calls = _spy_products(monkeypatch)
    assert char_poly(a) == expected
    assert len(calls) == _char_poly_products(d) == products  # 5, 3, 1, 0
    calls.clear()
    assert not is_nilpotent(a).nilpotent
    # tr(B) = d*D != 0 for eigenvalue 1 ends the check, and the power route forms no product
    assert len(calls) == 0


@pytest.mark.parametrize("d, every", [(16, 5), (9, 3), (4, 1), (3, 1), (2, 0)])
def test_power_sum_check_stops_at_the_first_nonzero_one(monkeypatch, d, every):
    # swap: coordinates 0 and 1 exchanged, traceless with tr(B^2) = tr(B B) = 2 D^2,
    # so the check forms no product; the m-cycles of coordinates 0..m-1, m = 3, 4:
    # p_1..p_(m-1) = 0 and p_m = m D^m, read as tr(B B^2) or tr(B^2 B^2), so the
    # check forms B^2 alone (a baby step when s = isqrt(d) > 1, the giant step
    # B^(2s) when s = 1); cycle: the companion matrix of x^d - 1, whose first
    # d - 1 power sums vanish, so the check forms every baby and giant step, as a
    # nilpotent verdict does
    rng = random.Random(900 + d)
    swap = [[int({r, c} == {0, 1}) for c in range(d)] for r in range(d)]
    cycle = [[int(c == (r + 1) % d) for c in range(d)] for r in range(d)]
    assert _char_poly_products(d) == every
    cases = [(swap, 0, False), (cycle, every, False), (_shift(d), every, True)]
    cases += [([[int(r < m and c == (r + 1) % m) for c in range(d)] for r in range(d)], 1, False)
              for m in (3, 4) if m <= d]
    for rows, products, nilpotent in cases:
        a = _conjugated(Matrix(rows), rng, False)
        with monkeypatch.context() as m:
            calls = _spy_products(m)
            assert is_nilpotent(a).nilpotent == nilpotent
        assert len(calls) == products


def _spy_products(patch) -> list:
    """Spy on the int product kernel through `patch` (a monkeypatch) and return
    the list the spy appends to per product.  The spy must first count the one
    power-sum step that a nilpotent 4x4 shift forms, so a test that expects no
    products cannot pass with a spy that no route calls."""
    calls, kernel = [], _zi.int_matmul
    patch.setattr(_zi, "int_matmul", lambda x, y: calls.append(1) or kernel(x, y))
    assert is_nilpotent(Matrix(_shift(4))).nilpotent and len(calls) == 1
    calls.clear()
    return calls


# ---- column iterates: matrix-vector steps -------------------------------------------

def _count_steps(monkeypatch, a: Matrix) -> tuple[NilpotencyReport, int]:
    calls = []
    kernel = _zi.gaussian_matvec
    with monkeypatch.context() as m:
        m.setattr(_zi, "gaussian_matvec", lambda b, bs, v: calls.append(1) or kernel(b, bs, v))
        report = is_nilpotent(a)
        steps = len(calls)
        # J2 takes one step (its column 1 to zero), or the spy is not the route's
        assert is_nilpotent(J2).nilpotent and len(calls) == steps + 1
    return report, steps


def _shift(d: int) -> list[list]:
    return [[int(c == r + 1) for c in range(d)] for r in range(d)]


def _block_diag(x: Matrix, y: Matrix) -> Matrix:
    k = x.rows
    return Matrix([list(row) + [ZERO] * y.rows for row in x.row_list()]
                  + [[ZERO] * k + list(row) for row in y.row_list()])


def _densely_conjugated(n: Matrix, rng: random.Random, gaussian: bool) -> Matrix:
    """P n P^-1 for P = I + u v^T, u and v with no zero entry, whose inverse is
    I - u v^T / (1 + v^T u) (Sherman-Morrison)."""
    d = n.rows
    while True:
        u, v = ([rand_scalar(rng, 3, gaussian) or ONE for _ in range(d)] for _ in range(2))
        denominator = ONE + sum((x * y for x, y in zip(u, v)), ZERO)
        if denominator:
            break
    uv = Matrix([[x * y for y in v] for x in u])
    ident = Matrix.identity(d)
    return (ident + uv) * n * (ident - (1 / denominator) * uv)


def _ref_power(a: Matrix, k: int) -> Matrix:
    power = ref_identity(a.rows)
    for _ in range(k):
        power = ref_matmul(power, a)
    return power


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d", range(1, 10))
def test_matrix_vector_steps_per_decision(monkeypatch, d, gaussian):
    rng = random.Random(700 * d + gaussian)
    # invertible: column 0 is B e_0, read from B, and survives d - 1 more steps,
    # and that ends the route
    invertible = _conjugated(_jordan_type(d, [d], rng, gaussian, eigenvalue=ONE), rng, gaussian)
    report, steps = _count_steps(monkeypatch, invertible)
    assert not report.nilpotent and steps == d - 1
    # the shift J_d: column j dies after j + 1 iterates, the first read from B
    report, steps = _count_steps(monkeypatch, Matrix(_shift(d)))
    assert report.index == d and steps == d * (d - 1) // 2
    # diag(J_k, invertible block): the k nilpotent columns die, then one column survives
    for k in range(1, d):
        block = _conjugated(_jordan_type(d - k, [d - k], rng, gaussian, eigenvalue=ONE),
                            rng, gaussian)
        report, steps = _count_steps(monkeypatch, _block_diag(Matrix(_shift(k)), block))
        assert not report.nilpotent and steps == k * (k - 1) // 2 + d - 1
    # a dense nilpotent of index m whose every column reaches m (a conjugation
    # that happens to shorten a column is drawn again)
    for m in range(1, d + 1):
        n = _jordan_type(d, _blocks(d, m, rng), rng, gaussian)
        for _ in range(20):
            a = _densely_conjugated(n, rng, gaussian)
            power = _ref_power(a, m - 1)
            if all(any(power[i, j] for i in range(d)) for j in range(d)):
                break
        else:
            raise AssertionError(f"no conjugate of index {m} with every column reaching it")
        report, steps = _count_steps(monkeypatch, a)
        assert report.index == m and steps == d * (m - 1)

def _leading_columns_die(d: int, k: int, rng: random.Random, gaussian: bool) -> Matrix:
    """[[N, C], [0, T]]: N strictly upper triangular k x k, T upper triangular
    with a nonzero diagonal, C random, so columns 0..k-1 die and B is not nilpotent."""
    rows = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if j > i or i >= k:
                e = rand_scalar(rng, 3, gaussian)
                rows[i][j] = e if (e or j > i) else ONE
    return Matrix(rows)


def _permuted_nilpotent(d: int, rng: random.Random, gaussian: bool) -> Matrix:
    """P N P^T for a random strictly upper triangular N, sparse, and a random
    permutation P: the witness can sit in any column."""
    perm = rng.sample(range(d), d)
    rows = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < 0.6:
                rows[perm[i]][perm[j]] = rand_scalar(rng, 3, gaussian)
    return Matrix(rows)


def _tie_breaks(d: int, rng: random.Random, gaussian: bool) -> list[tuple[Matrix, int, tuple]]:
    """(B, index, witness (row, col)) for the two ways a later column can
    move the witness: reaching the same index with a smaller first nonzero
    row (d >= 4), and raising the index after earlier columns set a lower
    one with a smaller row (d >= 5)."""
    def entry():
        return rand_scalar(rng, 3, gaussian) or ONE

    cases = []
    if d >= 4:  # B e_0 = x e_(d-1), B e_1 = y e_(d-2): index 2 on both columns
        rows = [[ZERO] * d for _ in range(d)]
        rows[d - 1][0], rows[d - 2][1] = entry(), entry()
        cases.append((Matrix(rows), 2, (d - 2, 1)))
    if d >= 5:  # B e_0 = x e_1 (index 2), B e_(d-1) = y e_(d-2), B e_(d-2) = z e_(d-3)
        rows = [[ZERO] * d for _ in range(d)]
        rows[1][0], rows[d - 2][d - 1], rows[d - 3][d - 2] = entry(), entry(), entry()
        cases.append((Matrix(rows), 3, (d - 3, d - 1)))
    return cases


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d", range(1, 10))
def test_column_iterates_match_reference(d, gaussian):
    rng = random.Random(800 * d + gaussian)
    dying = [_leading_columns_die(d, k, rng, gaussian) for k in range(1, d)]
    nilpotent = [Matrix.zero(d), Matrix(_shift(d))]
    nilpotent += [_permuted_nilpotent(d, rng, gaussian) for _ in range(6)]
    others = [rand_matrix(rng, d, gaussian=gaussian)]
    if d == 1:
        others += [Matrix([[rand_scalar(rng, 3, gaussian) or ONE]]), Matrix([["i"]])]
    for a in dying + nilpotent + others:
        assert is_nilpotent(a) == ref_is_nilpotent(a)  # decision, index and witness
    assert not any(is_nilpotent(a).nilpotent for a in dying)
    reports = [is_nilpotent(a) for a in nilpotent]
    assert reports[0] == NilpotencyReport(True, 1) and all(r.nilpotent for r in reports)
    if d > 1:  # some witness sits outside column 0
        assert any(r.witness.col != 0 for r in reports[1:] if r.witness is not None)
    for a, k, (row, col) in _tie_breaks(d, rng, gaussian):
        report = is_nilpotent(a)
        assert report == ref_is_nilpotent(a)
        assert (report.index, report.witness.row, report.witness.col) == (k, row, col)


# ---- replayable integrity failures ---------------------------------------------

def test_zero_witness_carries_the_decided_matrix(monkeypatch):
    # wipe each column's last nonzero iterate once the column dies, so the
    # column that reaches the index offers no nonzero row for a witness
    kernel = _zi.gaussian_matvec
    returned = []

    def wiping(b, bs, v):
        w = kernel(b, bs, v)
        if not any(w[0]) and returned:
            returned[-1][0][:] = [0] * len(w[0])
        returned.append(w)
        return w

    monkeypatch.setattr(_zi, "gaussian_matvec", wiping)
    with pytest.raises(IntegrityError, match="witness requested for a zero matrix") as info:
        is_nilpotent(J3)
    assert info.value.instance == J3


def test_route_disagreement_carries_the_matrix(monkeypatch):
    message = "power iteration and characteristic polynomial disagree on nilpotency"
    monkeypatch.setattr(nilpotency, "char_poly", lambda a: (ONE,) + (ONE,) * a.rows)
    with pytest.raises(IntegrityError) as info:
        is_nilpotent(J3)
    assert str(info.value) == message
    assert info.value.instance == J3
    # replaying the instance reproduces the failure
    with pytest.raises(IntegrityError, match=message):
        is_nilpotent(info.value.instance)


def test_a_nilpotent_verdict_is_checked_against_the_trace(monkeypatch):
    # zero iterates make the column route call diag(1, 0) nilpotent of index 2;
    # only the trace, the x^(d-1) coefficient of x^2 - x, refutes it
    monkeypatch.setattr(_zi, "gaussian_matvec", lambda b, bs, v: ([0] * len(v[0]), None))
    m = Matrix([[1, 0], [0, 0]])
    with pytest.raises(IntegrityError, match="disagree on nilpotency") as info:
        is_nilpotent(m)
    assert info.value.instance == m


def test_power_sum_disagreement_carries_the_matrix(monkeypatch):
    message = "power iteration and characteristic polynomial disagree on nilpotency"
    monkeypatch.setattr(nilpotency, "_power_sums", lambda b, d: iter([(0, 0)] * d))
    with pytest.raises(IntegrityError) as info:
        is_nilpotent(FAMILY_A)
    assert str(info.value) == message
    assert info.value.instance == FAMILY_A
    # replaying the instance reproduces the failure
    with pytest.raises(IntegrityError, match=message):
        is_nilpotent(info.value.instance)


def test_inexact_newton_division_raises(monkeypatch):
    monkeypatch.setattr(_zi, "trace", lambda m: (1, 0))  # -21/2 at k = 2
    with pytest.raises(IntegrityError) as info:
        char_poly(FAMILY_A)
    assert "division by 2 is not exact" in str(info.value)
    assert info.value.instance == FAMILY_A


# ---- the cached integer form -----------------------------------------------------

GAUSSIAN_2X2 = Matrix([
    [Fraction(1, 2), GaussianRational(0, Fraction(1, 3))],
    [2, GaussianRational(-1, 1)],
])


def _fresh(m: Matrix) -> Matrix:
    return Matrix(m.row_list())


def _is_int_rows(rows) -> bool:
    return isinstance(rows, tuple) and all(
        isinstance(row, tuple) and all(isinstance(x, int) for x in row) for row in rows
    )


def test_integer_form_rows_are_tuples():
    sup = make_v_operator(GAUSSIAN_2X2, J2).superoperator()  # filled by the build
    for m in (J3, GAUSSIAN_2X2, sup):
        scale, (re, im) = m._form
        assert _is_int_rows(re) and (im is None or _is_int_rows(im))
    assert J3._form[1][1] is None
    assert GAUSSIAN_2X2._form == (
        6, (((3, 0), (12, -6)), ((0, 2), (0, 6)))
    )


@pytest.mark.parametrize("m", [
    J3,
    FAMILY_A,
    GAUSSIAN_2X2,
    Matrix([[0, GaussianRational(Fraction(1, 2), Fraction(-1, 3))], [0, 0]]),
    make_v_operator(J3, FAMILY_A).superoperator(),
])
def test_deciding_twice_shares_and_keeps_one_form(m):
    m = _fresh(m)
    first = is_nilpotent(m)
    form = m._form
    # the form is a fresh conversion's; char_poly and a second decision reuse it
    assert form == _fresh(m)._form
    assert char_poly(m) == ref_char_poly(m)
    assert is_nilpotent(m) == first == ref_is_nilpotent(m)
    assert m._form is form and form == _fresh(m)._form


def test_derived_matrices_arrive_with_their_form():
    m = GAUSSIAN_2X2
    scale, (re, im) = m._form
    neg, tr, double = -m, m.T, m + m
    # each arrives with its form, built by the operation itself
    assert neg._form is not None and tr._form is not None and double._form is not None
    negate = lambda rows: tuple(tuple(-x for x in row) for row in rows)
    assert neg._form == (scale, (negate(re), negate(im)))
    assert tr._form == (scale, (tuple(zip(*re)), tuple(zip(*im))))
    # 2m = [[1, 2/3 i], [4, -2+2i]]: the scale drops from 6 to 3
    assert double._form == (3, (((3, 0), (12, -6)), ((0, 2), (0, 6))))
