"""The symmetry groups of the exhaustive sweeps, and their orbits.

An exhaustive sweep decides one pair (A, B) of square matrices over a
finite entry set per orbit of a group of maps on pairs; `lab.CRITERIA`
names each equivalence's maps in its `symmetries`.  Each map makes the
operator similar to itself or to its negative, so nilpotency and index
stand, and keeps each side's hypotheses and predicted index:

- CONJUGATE_EACH: (P A P^-1, Q B Q^-1) for the signed permutations P, Q
  that keep the entry set; X -> P X Q^-1 conjugates X -> AXB and X -> SX - XT.
- TRANSPOSE_SWAP: (B^T, A^T); X -> X^T conjugates X -> AXB to X -> B^T X A^T
  and X -> SX - XT to minus X -> T^T X - X S^T.
- NEGATE_EACH: (-A, B) and (A, -B), as (-A)XB = -(AXB).
- NEGATE_BOTH: (-A, -B), as (-S)X - X(-T) = -(SX - XT); negating one side
  alone would move its spectrum.

Negations, and the signs of P and Q, apply only to an entry set closed
under negation.  `side_classes` gives the classes of one side under the
maps that act on one side, and `pair_orbits` the orbits of the class pairs
under the maps that act on a pair.  Both work on matrices as tuples of
entry positions in `itertools.product` order, and build their tables when
called, never at import.
"""

from __future__ import annotations

import itertools

from .scalars import as_scalar

CONJUGATE_EACH = "conjugate-each"
TRANSPOSE_SWAP = "transpose-swap"
NEGATE_EACH = "negate-each"
NEGATE_BOTH = "negate-both"


def side_classes(dim: int, entry_set, symmetries):
    """The classes of the dim x dim matrices over `entry_set` under the maps
    in `symmetries` that act on one side, CONJUGATE_EACH and NEGATE_EACH.

    Returns (reps, sizes, transpose, negate), lists over the classes in the
    `itertools.product` order of their first members: that member's index,
    the class size, and the class of its transpose and of its negative
    (negate is None unless the set is closed under negation).  A move sends
    entry (r, c) to a place, negated if flagged: P M P^-1 sends it to
    (p[r], p[c]), negated if rows r and c differ in sign.
    """
    values = [as_scalar(e) for e in entry_set]
    k, cells = len(values), dim * dim
    closed = len(set(values)) == k and all(-v in values for v in values)
    neg = [values.index(-v) for v in values] if closed else None
    conjugate = CONJUGATE_EACH in symmetries
    perms = list(itertools.permutations(range(dim)) if conjugate else [tuple(range(dim))])
    signs = list(itertools.product((1, -1), repeat=dim) if conjugate and closed else [(1,) * dim])
    grid = [(r, c) for r in range(dim) for c in range(dim)]
    place = [[k ** (cells - 1 - r * dim - c) for c in range(dim)] for r in range(dim)]
    moves = [[(place[p[r]][p[c]], s[r] != s[c]) for r, c in grid] for p in perms for s in signs]
    if NEGATE_EACH in symmetries and closed:
        moves += [[(at, not flip) for at, flip in move] for move in moves]

    def image(move, matrix):
        return sum(at * (neg[e] if flip else e) for (at, flip), e in zip(move, matrix))

    owner, classes = {}, []
    for index, matrix in enumerate(itertools.product(range(k), repeat=cells)):
        if index not in owner:
            orbit = {image(move, matrix) for move in moves}
            owner.update(dict.fromkeys(orbit, len(classes)))
            classes.append((index, len(orbit), matrix))
    reps, sizes, firsts = zip(*classes)
    transposed = [(place[c][r], False) for r, c in grid]
    negated = [(place[r][c], True) for r, c in grid]
    transpose = [owner[image(transposed, m)] for m in firsts]
    negate = [owner[image(negated, m)] for m in firsts] if closed else None
    return reps, sizes, transpose, negate


def pair_orbits(classes, symmetries):
    """Yield (a, b, weight) for each orbit of the matrix pairs under the group
    that `symmetries` generate: (a, b) is the first in product order of the
    `side_classes` pairs that TRANSPOSE_SWAP and NEGATE_BOTH send it to, and
    each distinct one (x, y) adds sizes[x] * sizes[y] pairs to the weight."""
    reps, sizes, transpose, negate = classes
    count = len(reps)
    sides = [range(count)] + ([negate] if NEGATE_BOTH in symmetries and negate else [])
    # (swap, f) sends (a, b) to (f[a], f[b]), or to (f[b], f[a]) if swap
    group = [(False, f) for f in sides]
    if TRANSPOSE_SWAP in symmetries:
        group += [(True, [f[t] for t in transpose]) for f in sides]
    seen = bytearray(count * count)
    for a, b in itertools.product(range(count), repeat=2):
        if not seen[a * count + b]:
            images = {(f[b], f[a]) if swap else (f[a], f[b]) for swap, f in group}
            for x, y in images:
                seen[x * count + y] = 1
            yield a, b, sum(sizes[x] * sizes[y] for x, y in images)
