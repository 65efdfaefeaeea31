"""The Z[i] kernels of `elemop._zi` against nested-loop references on seeded
int rows: rectangular products and Kronecker products, zero left rows,
traces, product traces, diagonal shifts and the row helpers, each with its
imaginary rows None exactly when the inputs are real.  Square products and
matrix-vector steps are also checked against the Q(i) reference in
test_matrix.py."""

import random
from operator import add, sub

import pytest

from elemop import _zi

KINDS = [(False, False), (False, True), (True, False), (True, True)]


def _ints(rng, rows, cols, zero_rows=False):
    """Small and 70-bit signed ints; with zero_rows, a random subset of the rows zeroed."""
    def entry():
        return rng.randint(-(2**70), 2**70) if rng.random() < 0.3 else rng.randint(-3, 3)
    return [[0] * cols if zero_rows and rng.random() < 0.4 else [entry() for _ in range(cols)]
            for _ in range(rows)]


def _zi_matrix(rng, rows, cols, gaussian, zero_rows=False):
    """(re, im), im None when real; a zeroed row is zero in both parts."""
    re = _ints(rng, rows, cols, zero_rows)
    if not gaussian:
        return re, None
    im = _ints(rng, rows, cols)
    return re, [[v if any(row) else 0 for v in irow] for row, irow in zip(re, im)]


def _cells(x):
    """The Gaussian ints (re, im) of a Z[i] matrix, row by row."""
    re, im = x
    return [[(v, 0 if im is None else im[i][j]) for j, v in enumerate(row)]
            for i, row in enumerate(re)]


def _times(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _plus(u, v):
    return u[0] + v[0], u[1] + v[1]


def ref_matmul(x, y):
    a, b = _cells(x), _cells(y)
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = (0, 0)
            for k in range(len(b)):
                total = _plus(total, _times(a[i][k], b[k][j]))
            row.append(total)
        out.append(row)
    return out


def ref_kron(x, y):
    a, b = _cells(x), _cells(y)
    out = []
    for i in range(len(a)):
        for k in range(len(b)):
            row = []
            for j in range(len(a[0])):
                for m in range(len(b[0])):
                    row.append(_times(a[i][j], b[k][m]))
            out.append(row)
    return out


def _real_exactly_when(result, *inputs):
    return (result[1] is None) is all(x[1] is None for x in inputs)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("kinds", KINDS)
def test_rectangular_products_and_kronecker_products_match_loops(d, kinds):
    rng = random.Random(f"zi-rect/{d}/{kinds}")
    for _ in range(3):
        inner, cols, rows2 = (rng.randint(1, 6) for _ in range(3))
        x = _zi_matrix(rng, d, inner, kinds[0], zero_rows=True)
        y = _zi_matrix(rng, inner, cols, kinds[1])
        product = _zi.gaussian_matmul(x, y)
        assert _cells(product) == ref_matmul(x, y) and _real_exactly_when(product, x, y)
        assert _zi.int_matmul(x[0], y[0]) == [[u for u, _ in row] for row in ref_matmul(
            (x[0], None), (y[0], None))]
        z = _zi_matrix(rng, rows2, cols, kinds[1])
        k = _zi.gaussian_kron(x, z)
        assert _cells(k) == ref_kron(x, z) and _real_exactly_when(k, x, z)
        assert len(k[0]) == d * rows2 and len(k[0][0]) == inner * cols


def test_zero_left_rows_form_no_inner_products():
    class Poisoned(int):  # an entry that fails any product it enters
        def __mul__(self, other):
            raise AssertionError("inner product of a zero row")
        __rmul__ = __mul__

    y = [[Poisoned(v) for v in row] for row in ([1, 2, 3], [4, 5, 6])]
    assert _zi.int_matmul([[0, 0], [0, 0]], y) == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(AssertionError, match="zero row"):
        _zi.int_matmul([[0, 0], [0, 1]], y)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("kinds", KINDS)
def test_traces_and_product_traces_match_loops(d, kinds):
    rng = random.Random(f"zi-trace/{d}/{kinds}")
    for _ in range(3):
        inner = rng.randint(1, 6)
        x = _zi_matrix(rng, d, inner, kinds[0], zero_rows=True)
        y = _zi_matrix(rng, inner, d, kinds[1])
        product = ref_matmul(x, y)
        expected = (0, 0)
        for i in range(d):
            expected = _plus(expected, product[i][i])
        assert _zi.product_trace(x, y) == expected
        square = _zi_matrix(rng, d, d, kinds[0])
        diagonal = (0, 0)
        for i in range(d):
            diagonal = _plus(diagonal, _cells(square)[i][i])
        assert _zi.trace(square) == diagonal


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("gaussian", [False, True])
def test_plus_diagonal_matches_loops(d, gaussian):
    rng = random.Random(f"zi-diagonal/{d}/{gaussian}")
    x = _zi_matrix(rng, d, d, gaussian, zero_rows=True)
    for f in ((1, 0), (0, 0), (-3, 0), (2, -5), (0, 1)):
        for t in ((0, 0), (7, 0), (0, -2), (2**70, 3)):
            shifted = _zi.plus_diagonal(x, f, t)
            expected = [[_plus(_times(f, u), t if i == j else (0, 0)) for j, u in enumerate(row)]
                        for i, row in enumerate(_cells(x))]
            assert _cells(shifted) == expected
            assert (shifted[1] is None) is (not gaussian and not f[1] and not t[1])


@pytest.mark.parametrize("d", range(1, 7))
def test_row_helpers_match_loops(d):
    rng = random.Random(f"zi-rows/{d}")
    cols = rng.randint(1, 6)
    x, y = _ints(rng, d, cols, zero_rows=True), _ints(rng, d, cols)
    for f, op, g in ((1, add, 1), (3, sub, -2), (0, add, 5)):
        expected = [[op(f * x[i][j], g * y[i][j]) for j in range(cols)] for i in range(d)]
        assert _zi.mix(f, x, op, g, y) == expected
        # None stands for a zero part on either side
        assert _zi.mix(f, None, op, g, y) == [[op(0, g * v) for v in row] for row in y]
        assert _zi.mix(f, x, op, g, None) == [[op(f * u, 0) for u in row] for row in x]
    assert _zi.add_rows(x, y) == [[x[i][j] + y[i][j] for j in range(cols)] for i in range(d)]
    for factor in (1, -1, 0, 2**65):
        assert _zi.scaled(factor, x) == [[factor * v for v in row] for row in x]
    assert _zi.scaled(1, zip(*x)) == list(zip(*x))


def test_is_zero_reads_both_parts():
    zero = [[0, 0], [0, 0]]
    assert _zi.is_zero((zero, None)) and _zi.is_zero((zero, zero))
    assert not _zi.is_zero(([[0, 0], [0, 1]], None))
    assert not _zi.is_zero((zero, [[0, 0], [-1, 0]]))
