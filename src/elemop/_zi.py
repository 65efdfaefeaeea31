"""Kernels on int rows and on matrices over the Gaussian integers Z[i].

A Z[i] matrix is a pair (re, im) of int-row sequences, im None when real;
every function here takes and returns int rows, such pairs or Gaussian ints
(re, im).  Products, Kronecker products and matrix-vector steps come back as
fresh lists; nothing is summed in place.  Each costs one int kernel call
(product, Kronecker product or step) per real pair of factors, two with one
Gaussian factor (products only), three (Gauss's trick) with two.  `kron`,
`operators.superoperator` and the superoperator's narrow cells share
`gaussian_kron`.  An int product skips the inner products of a zero left
row.  `Matrix` (`elemop.matrix`), the nilpotency routes and the operator
term sums all compute through them.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mul, sub


def mix(f, x, op, g, y):
    """op(f*x, g*y) entry by entry for int rows x and y, either None for zeros."""
    return [[op(f * u, g * v) for u, v in zip(p, q)]
            for p, q in zip(x or repeat(repeat(0)), y or repeat(repeat(0)))]


def trace(x) -> tuple[int, int]:
    """(tr re, tr im) of a square Z[i] matrix (re, im)."""
    (re, im), n = x, range(len(x[0]))
    return sum(re[i][i] for i in n), 0 if im is None else sum(im[i][i] for i in n)


def product_trace(x, y) -> tuple[int, int]:
    """tr(x y) = sum_ij x_ij y_ji, without forming x y."""
    (xr, xi), (yr, yi) = x, y

    def tr(p, q):
        return 0 if p is None or q is None else sum(
            map(mul, chain.from_iterable(p), chain.from_iterable(zip(*q))))

    return tr(xr, yr) - tr(xi, yi), tr(xr, yi) + tr(xi, yr)


def is_zero(x) -> bool:
    return not any(map(any, chain(x[0], x[1] or ())))


def plus_diagonal(x, f, t):
    """f*x + t*I for a square Z[i] matrix x and Gaussian ints f = (fr, fi) and
    t = (tr, ti), in fresh lists; im stays None when x, f and t are real."""
    (re, im), (fr, fi), (tr, ti) = x, f, t

    def diagonal(p, d):
        return [[e + d if i == j else e for j, e in enumerate(row)] for i, row in enumerate(p)]

    return (diagonal(mix(fr, re, sub, fi, im), tr),
            None if im is None and not fi and not ti else diagonal(mix(fr, im, add, fi, re), ti))


def add_rows(x, y):
    """x + y entry by entry for int rows x and y."""
    return [list(map(add, p, q)) for p, q in zip(x, y)]


def scaled(factor: int, rows):
    """factor times int rows, as a list of rows."""
    if factor == 1:
        return list(rows)
    return [[factor * v for v in row] for row in rows]


def int_matmul(x, y):
    """x y for int rows x and y; a zero row of x gives a zero row with no inner products."""
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] if any(row) else [0] * len(cols)
            for row in x]


def int_kron(x, y):
    """kron(x, y) for int rows x and y, in one pass."""
    return [[u * v for u in xrow for v in yrow] for xrow in x for yrow in y]


def gaussian_product(kernel, x, y):
    """kernel(xr + i*xi, yr + i*yi) for a bilinear int kernel; im stays None
    for real x, y.  One kernel call for real x and y, two with one of them
    Gaussian, three (Gauss's trick) with both."""
    (xr, xi), (yr, yi) = x, y
    rr = kernel(xr, yr)
    if xi is None and yi is None:
        return rr, None
    if xi is None or yi is None:  # one factor is real: no i*i term
        return rr, kernel(xr, yi) if xi is None else kernel(xi, yr)
    ii = kernel(xi, yi)
    # im = xr*yi + xi*yr = (xr + xi)(yr + yi) - rr - ii
    ss = kernel(add_rows(xr, xi), add_rows(yr, yi))
    return (
        [list(map(sub, p, q)) for p, q in zip(rr, ii)],
        [[s - r - i for s, r, i in zip(*rows)] for rows in zip(ss, rr, ii)],
    )


def gaussian_matmul(x, y):
    """x y over Z[i] for any conformable shapes."""
    return gaussian_product(int_matmul, x, y)


def gaussian_kron(x, y):
    """kron(x, y) over Z[i] for any shapes."""
    return gaussian_product(int_kron, x, y)


def gaussian_matvec(b, bs, v):
    """(br + i*bi)(vr + i*vi) for a Z[i] matrix b, bs = br + bi (None when b is
    real) and a Z[i] vector v = (vr, vi) of int lists, vi None exactly when b
    is real, as for every iterate of b on a column of b; im stays None for a
    real b.  One int step for a real b, three (Gauss's trick, over the
    caller's bs) for a Gaussian one."""
    (br, bi), (vr, vi) = b, v
    if bi is None:
        return [sum(map(mul, row, vr)) for row in br], None
    vs, re, im = list(map(add, vr, vi)), [], []
    for pr, pi, ps in zip(br, bi, bs):  # one pass over the rows
        r, i = sum(map(mul, pr, vr)), sum(map(mul, pi, vi))
        re.append(r - i)
        im.append(sum(map(mul, ps, vs)) - r - i)
    return re, im
