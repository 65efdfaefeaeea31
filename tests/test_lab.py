import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import elemop.criteria as criteria_module
import elemop.lab as lab_module
import elemop.nilpotency as nilpotency_module
import elemop.operators as operators_module
from elemop import (
    ONE,
    GaussianRational,
    GeneratorConfig,
    IntegrityError,
    Matrix,
    NilpotencyReport,
    PreconditionError,
    SweepReport,
    TheoremCheckResult,
    ZERO,
    char_poly,
    example_3_1,
    example_3_2,
    fong_sourour_check,
    gen_commuting_tuple,
    gen_nilpotent,
    is_nilpotent,
    matrix_poly,
    scalar_shift_witness,
    search_converse_failures,
    sweep_fong_sourour_exhaustive,
    sweep_thm,
    sweep_thm21_exhaustive,
    thm21_criterion,
)
from elemop._symmetry import CONJUGATE_EACH, pair_orbits, side_classes
from elemop.jsonio import dumps, matrix_from_obj, operator_from_obj
from elemop.lab import _gen_nilpotent, _rand_matrix, _random_unimodular
from helpers import ref_gen_nilpotent, ref_rand_matrix, ref_random_unimodular

J2 = Matrix([[0, 1], [0, 0]])
J3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
SHIFT_PAIR = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))
FAMILY_PAIR = (
    Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]]),
    Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]]),
)


# ---- generators -------------------------------------------------------------

def test_unimodular_pairs_are_exact_inverses():
    rng = random.Random(50)
    for dim in (1, 2, 3, 4):
        for _ in range(5):
            s, s_inv = _random_unimodular(rng, dim)
            assert s * s_inv == Matrix.identity(dim)
            assert s_inv * s == Matrix.identity(dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_unimodular_pairs_match_the_product_construction(dim):
    # same pair and same draws as elementary factors multiplied out, so every
    # seeded stream downstream of the generator is unchanged
    for seed in range(60):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        s, s_inv = _random_unimodular(rng, dim)
        ref_s, ref_s_inv = ref_random_unimodular(ref_rng, dim)
        assert s == ref_s and s_inv == ref_s_inv
        assert s.row_list() == ref_s.row_list() and s_inv.row_list() == ref_s_inv.row_list()
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("bound", [1, 3, 10])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("draw, ref_draw", [(_rand_matrix, ref_rand_matrix),
                                            (_gen_nilpotent, ref_gen_nilpotent)])
def test_int_part_draws_match_the_fraction_path(draw, ref_draw, dim, bound, gaussian):
    # same matrices from the same draws as Fraction entries built by Matrix(rows),
    # so every seeded stream downstream of the generators is unchanged
    config = GeneratorConfig(dim=dim, entry_bound=bound, gaussian=gaussian)
    for seed in range(12):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        m, ref = draw(rng, config), ref_draw(ref_rng, config)
        assert m == ref
        assert rng.random() == ref_rng.random()


def test_generated_nilpotents():
    for seed in range(8):
        for dim in (1, 2, 3, 4):
            config = GeneratorConfig(dim=dim, seed=seed)
            n = gen_nilpotent(config)
            report = is_nilpotent(n)
            assert report.nilpotent and report.index <= dim
            assert n.trace() == ZERO
            assert all(not c for c in char_poly(n)[1:])  # x^dim


def test_generated_nilpotent_is_deterministic():
    config = GeneratorConfig(dim=3, seed=123, gaussian=True)
    assert gen_nilpotent(config) == gen_nilpotent(config)


def test_commuting_tuple_from_nilpotent_seed():
    config = GeneratorConfig(dim=3, seed=7)
    tup = gen_commuting_tuple(config, J3, 2, [True, True])
    for m in tup:
        assert is_nilpotent(m).nilpotent
        # polynomials without constant term in a strict upper triangle stay
        # strictly upper triangular
        assert all(not m[i, j] for i in range(3) for j in range(i + 1))
    assert tup[0] * tup[1] == tup[1] * tup[0]


def test_commuting_tuple_mixed_flags_commute_pairwise():
    config = GeneratorConfig(dim=3, seed=11)
    tup = gen_commuting_tuple(config, gen_nilpotent(config), 4, [True, False, True, False])
    for i in range(4):
        for j in range(4):
            assert tup[i] * tup[j] == tup[j] * tup[i]


def test_polynomial_with_constant_term_need_not_be_nilpotent():
    assert matrix_poly([1, 1], J2) == Matrix.identity(2) + J2
    assert not is_nilpotent(matrix_poly([1, 1], J2)).nilpotent
    assert matrix_poly([1, 1], J2) * J2 == J2 * matrix_poly([1, 1], J2)


def test_commuting_tuple_rejects_impossible_flag():
    config = GeneratorConfig(dim=2, seed=1)
    with pytest.raises(PreconditionError, match="not nilpotent"):
        gen_commuting_tuple(config, Matrix.identity(2), 1, [True])


def test_commuting_tuple_validates_arguments():
    config = GeneratorConfig(dim=2, seed=1)
    with pytest.raises(PreconditionError):
        gen_commuting_tuple(config, J3, 1, [False])
    with pytest.raises(PreconditionError):
        gen_commuting_tuple(config, J2, 2, [False])


def test_config_validation():
    with pytest.raises(PreconditionError):
        GeneratorConfig(dim=0)
    with pytest.raises(PreconditionError):
        GeneratorConfig(dim=2, entry_bound=0)


@pytest.mark.parametrize("field, value", [
    ("dim", 2.0), ("dim", True), ("dim", "2"), ("entry_bound", 2.5), ("entry_bound", True),
    ("seed", 0.5), ("seed", True), ("seed", Fraction(1)), ("gaussian", "yes"), ("gaussian", 1),
    ("trials", 2.5), ("trials", True),
])
def test_inputs_of_the_wrong_type_are_rejected_by_name(field, value):
    # a float seed would reach the sweep report as a JSON float, a float bound randrange
    if field == "trials":
        calls = [lambda: sweep_thm("2.2", GeneratorConfig(dim=2), value),
                 lambda: search_converse_failures("2.3", GeneratorConfig(dim=2), value)]
    else:
        calls = [lambda: GeneratorConfig(**{"dim": 2, field: value})]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"^{field} must be an? (int|bool), got "):
            call()


# ---- exhaustive sweeps ----------------------------------------------------------
#
# The public sweeps decide one pair per orbit of the group that the
# criterion's `symmetries` generate; `_brute_force` decides every pair, and
# the two reports agree byte for byte.

SWEEPS = {"2.1": sweep_thm21_exhaustive, "1.1": sweep_fong_sourour_exhaustive}


def test_exhaustive_sweep_on_reduced_entry_set():
    report = sweep_thm21_exhaustive(entry_set=(0, 1))
    assert report.instances_tested == 256
    assert report.violations == []
    assert report.mode == "exhaustive"


def test_exhaustive_common_shift_on_reduced_entry_set():
    report = sweep_fong_sourour_exhaustive(entry_set=(0, 1))
    assert report.instances_tested == 256
    assert report.violations == []


def _brute_force(theorem, entry_set=(-1, 0, 1)) -> SweepReport:
    """The exhaustive sweep that decides every pair, not one per orbit."""
    return lab_module._sweep_exhaustive(theorem, entry_set, _brute_force=True)


def _all_pairs(entry_set) -> list:
    """Every ordered pair of 2x2 matrices over `entry_set`, in trial order."""
    mats = [Matrix([list(c[:2]), list(c[2:])]) for c in itertools.product(entry_set, repeat=4)]
    return list(itertools.product(mats, repeat=2))


# a Gaussian set closed under negation, a set with a repeated value and a
# fractional one take `side_classes`' other branches
ENTRY_SETS = [(-1, 0, 1), (0, 1), (-1, 1), (0,), (0, "i", "-i"), (0, 0, 1), ("1/2", "-1/2")]


@pytest.mark.parametrize("theorem", SWEEPS)
@pytest.mark.parametrize("entry_set", ENTRY_SETS)
def test_orbit_sweep_reports_match_brute_force_byte_for_byte(theorem, entry_set):
    orbits = dumps(SWEEPS[theorem](entry_set=entry_set).to_obj())
    assert orbits == dumps(_brute_force(theorem, entry_set).to_obj())


@pytest.mark.parametrize("dim, entry_set, count", [
    (2, (-1, 0, 1), 27), (2, (0, 1), 10), (2, (-1, 1), 6), (2, (0,), 1),
    (3, (0, 1), 104), (3, (-1, 1), 32), (3, (-1, 0, 1), 927),
])
def test_orbit_counts_and_weights(dim, entry_set, count):
    reps, sizes, _, _ = side_classes(dim, entry_set, (CONJUGATE_EACH,))
    assert len(reps) == count
    assert sum(sizes) == len(entry_set) ** (dim * dim)
    # with no symmetry, as the brute-force path asks, each matrix is its own class
    reps, sizes, _, _ = side_classes(dim, entry_set, ())
    assert list(reps) == list(range(len(entry_set) ** (dim * dim))) and set(sizes) == {1}


def _reference_orbits(dim, entry_set):
    """The orbits of `Matrix` conjugation P * m * P.T by the signed
    permutation matrices, signed only if the set is closed under negation;
    each orbit as the set of its members' indices in product order."""
    mats = [Matrix([list(c[r * dim:(r + 1) * dim]) for r in range(dim)])
            for c in itertools.product(entry_set, repeat=dim * dim)]
    index = {m: i for i, m in enumerate(mats)}
    closed = {-e for e in entry_set} == set(entry_set)
    signs = list(itertools.product((1, -1), repeat=dim)) if closed else [(1,) * dim]
    group = [Matrix([[s[r] * (p[r] == c) for c in range(dim)] for r in range(dim)])
             for p in itertools.permutations(range(dim)) for s in signs]
    return {frozenset(index[p * m * p.T] for p in group) for m in mats}


@pytest.mark.parametrize("dim, entry_set", [
    (2, (-1, 0, 1)), (2, (0, 1)), (2, (-1, 1)), (3, (0, 1)), (3, (-1, 1)),
])
def test_orbits_match_matrix_conjugation(dim, entry_set):
    reference = _reference_orbits(dim, entry_set)
    reps, sizes, _, _ = side_classes(dim, entry_set, (CONJUGATE_EACH,))
    # each representative is the first member of its orbit, in product order
    assert sorted((min(o), len(o)) for o in reference) == list(zip(reps, sizes))


def _pair_maps(theorem, entry_set) -> dict:
    """Generators of `theorem`'s group as maps of `Matrix` pairs: conjugating
    one side by the swap or, if the set is closed under negation, by
    diag(1, -1); transpose-swap; and negating each side (2.1) or both (1.1)."""
    swap, sign = Matrix([[0, 1], [1, 0]]), Matrix([[1, 0], [0, -1]])
    closed = {-e for e in entry_set} == set(entry_set)
    maps = {"transpose-swap": lambda a, b: (b.T, a.T)}
    for name, p in [("swap", swap)] + [("sign", sign)] * closed:
        maps[f"{name} on A"] = lambda a, b, p=p: (p * a * p.T, b)
        maps[f"{name} on B"] = lambda a, b, p=p: (a, p * b * p.T)
    if closed and theorem == "2.1":
        maps |= {"negate A": lambda a, b: (-a, b), "negate B": lambda a, b: (a, -b)}
    elif closed:
        maps["negate both"] = lambda a, b: (-a, -b)
    return maps


def _reference_pair_orbits(theorem, entry_set):
    """The orbits of the 2x2 pairs over `entry_set` under `_pair_maps`, closed
    one pair at a time; each orbit as the set of its pairs' indices i * n + j."""
    mats = [Matrix([list(c[:2]), list(c[2:])]) for c in itertools.product(entry_set, repeat=4)]
    index = {m: i for i, m in enumerate(mats)}
    maps = _pair_maps(theorem, entry_set).values()
    orbits, seen = [], set()
    for pair in itertools.product(mats, repeat=2):
        key = index[pair[0]] * len(mats) + index[pair[1]]
        if key not in seen:
            orbit, todo = {key}, [pair]
            while todo:
                member = todo.pop()
                for a, b in (g(*member) for g in maps):
                    if (key := index[a] * len(mats) + index[b]) not in orbit:
                        orbit.add(key)
                        todo.append((a, b))
            seen |= orbit
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("theorem", SWEEPS)
@pytest.mark.parametrize("entry_set, counts", [
    ((-1, 0, 1), {"2.1": 153, "1.1": 208}), ((0, 1), {"2.1": 55, "1.1": 55}),
    ((-1, 1), {"2.1": 10, "1.1": 13}), ((0,), {"2.1": 1, "1.1": 1}),
])
def test_pair_orbits_match_matrix_closure(theorem, entry_set, counts):
    reference = _reference_pair_orbits(theorem, entry_set)
    symmetries = lab_module.criterion(theorem, "exhaustive").symmetries
    classes = side_classes(2, entry_set, symmetries)
    reps = classes[0]
    pairs = [(reps[a] * len(entry_set) ** 4 + reps[b], weight)
             for a, b, weight in pair_orbits(classes, symmetries)]
    # each representative is the first pair of its orbit, in product order
    assert sorted((min(o), len(o)) for o in reference) == pairs
    assert len(pairs) == counts[theorem]


@pytest.mark.parametrize("theorem, classes, orbits", [("2.1", 480, 115440), ("1.1", 927, 215568)])
def test_dim3_pair_orbit_counts(theorem, classes, orbits):
    # 2.1's side classes take negation too; 1.1's are the 927 of conjugation
    symmetries = lab_module.criterion(theorem, "exhaustive").symmetries
    sides = side_classes(3, (-1, 0, 1), symmetries)
    assert len(sides[0]) == classes
    count = total = 0
    for _, _, weight in pair_orbits(sides, symmetries):
        count, total = count + 1, total + weight
    assert (count, total) == (orbits, 19683**2)


def _facts(theorem, a, b) -> tuple:
    """Hypotheses, verdict, index and predicted index of `theorem` on (a, b)."""
    if theorem == "2.1":
        result = thm21_criterion(a, b)
        predicted = min((r.index for r in map(is_nilpotent, (a, b)) if r.nilpotent), default=None)
    else:
        result = fong_sourour_check(a, b)
        shifted = [scalar_shift_witness(m).shifted for m in (a, b)]
        predicted = shifted[0].index + shifted[1].index - 1 if result.hypotheses_hold else None
    conclusion = result.conclusion
    return result.hypotheses_hold, conclusion.nilpotent, conclusion.index, predicted


@pytest.mark.parametrize("theorem", SWEEPS)
def test_each_symmetry_keeps_the_criterions_facts(theorem):
    pairs = _all_pairs((-1, 0, 1))
    with criteria_module._sweep_facts():
        facts = {pair: _facts(theorem, *pair) for pair in pairs}
    for name, g in _pair_maps(theorem, (-1, 0, 1)).items():
        assert [facts[g(*pair)] for pair in pairs] == [facts[pair] for pair in pairs], name
    if theorem == "1.1":
        # negating one side alone is no symmetry of 1.1: S = T = I gives the
        # zero operator, and -S, T gives X -> -2X
        moved = [(a, b) for a, b in pairs if facts[(-a, b)] != facts[(a, b)]]
        assert (Matrix.identity(2), Matrix.identity(2)) in moved


@pytest.mark.parametrize("theorem", ["2.2", "2.3", "2.1-ext"])
def test_only_an_equivalence_sweeps_exhaustively(theorem):
    with pytest.raises(PreconditionError, match=f"^unknown exhaustive target '{theorem}'$"):
        lab_module._sweep_exhaustive(theorem)


def test_exhaustive_mode_is_the_equivalences():
    assert [c.name for c in lab_module.CRITERIA if c.supports("exhaustive")] == [
        "2.1", "fong_sourour"
    ]
    # reports are named by CLI spelling, whichever name the sweep was asked by
    for name, cli in (("2.1", "2.1"), ("fong_sourour", "1.1"), ("1.1", "1.1")):
        assert lab_module._sweep_exhaustive(name, (0,)).theorem == cli


# ---- the sweep memo ----------------------------------------------------------------
#
# Inside an exhaustive sweep each distinct coefficient is decided once;
# every pair the sweep decides (each pair by brute force, one pair per orbit
# by default) still builds and decides its operator and runs its checks;
# outside a sweep nothing is remembered.

DISAGREE = "power iteration and characteristic polynomial disagree on nilpotency"


def _decisions_by_size(monkeypatch) -> Counter:
    """Count is_nilpotent calls per matrix size: coefficients and shifted
    coefficients (criteria) and superoperators (operators)."""
    sizes = Counter()

    def spy(a):
        sizes[a.rows] += 1
        return is_nilpotent(a)

    for module in (criteria_module, operators_module, lab_module):
        monkeypatch.setattr(module, "is_nilpotent", spy)
    return sizes


def _break_2x2_decisions(monkeypatch):
    """Every nilpotent 2x2 decision now raises the route disagreement;
    superoperators (4x4) are decided as before."""
    real = nilpotency_module.char_poly
    monkeypatch.setattr(
        nilpotency_module, "char_poly",
        lambda a: (ONE,) * (a.rows + 1) if a.rows == 2 else real(a),
    )


@pytest.mark.parametrize("theorem", SWEEPS)
@pytest.mark.parametrize("entry_set, mats", [((-1, 0, 1), 81), ((0, 1), 16)])
def test_sweep_decides_each_coefficient_once(monkeypatch, theorem, entry_set, mats):
    sizes = _decisions_by_size(monkeypatch)
    assert _brute_force(theorem, entry_set).passed
    assert sizes == {2: mats, 4: mats * mats}


@pytest.mark.parametrize("theorem, entry_set, coefficients, pairs", [
    ("2.1", (-1, 0, 1), 17, 153), ("1.1", (-1, 0, 1), 18, 208),
    ("2.1", (0, 1), 10, 55), ("1.1", (0, 1), 10, 55),
])
def test_orbit_sweep_decides_each_representative_once(
    monkeypatch, theorem, entry_set, coefficients, pairs
):
    # 2.1 decides each side class that a representative pair holds; 1.1 each
    # distinct shifted matrix S - lam*I of a pair sharing its candidate lam
    sizes = _decisions_by_size(monkeypatch)
    assert SWEEPS[theorem](entry_set=entry_set).passed
    assert sizes == {2: coefficients, 4: pairs}


def test_an_exhaustive_dim2_unit_makes_13284_decisions_by_brute_force(monkeypatch):
    # both {-1, 0, 1} sweeps, decided pair by pair: each coefficient once,
    # each pair's superoperator once
    sizes = _decisions_by_size(monkeypatch)
    for theorem in SWEEPS:
        assert _brute_force(theorem).passed
    assert sum(sizes.values()) == 81 + 6561 + 81 + 6561 == 13284


def test_an_exhaustive_dim2_unit_makes_396_decisions(monkeypatch):
    # both {-1, 0, 1} sweeps, as one exhaustive_dim2 benchmark unit runs them
    sizes = _decisions_by_size(monkeypatch)
    for sweep in SWEEPS.values():
        assert sweep().passed
    assert sum(sizes.values()) == 17 + 153 + 18 + 208 == 396


def _enforced_pairs(monkeypatch) -> list:
    """The pair of each `criteria._enforce` call, in call order."""
    calls = []
    real = criteria_module._enforce
    monkeypatch.setattr(
        criteria_module, "_enforce", lambda *args: calls.append(args[3]) or real(*args)
    )
    return calls


@pytest.mark.parametrize("theorem", SWEEPS)
def test_every_pair_still_runs_its_equivalence_checks(monkeypatch, theorem):
    calls = _enforced_pairs(monkeypatch)
    report = _brute_force(theorem)
    assert report.passed and len(calls) == report.instances_tested == 6561
    assert len(set(calls)) == 6561  # each call carries its own pair


@pytest.mark.parametrize("theorem", SWEEPS)
def test_every_representative_pair_runs_its_equivalence_checks(monkeypatch, theorem):
    calls = _enforced_pairs(monkeypatch)
    report = SWEEPS[theorem]()
    assert report.passed and report.instances_tested == 6561
    assert len(calls) == len(set(calls)) == {"2.1": 153, "1.1": 208}[theorem]


@pytest.mark.parametrize("theorem, brute_force, keys", [
    ("2.1", False, 17), ("1.1", False, 45), ("2.1", True, 81), ("1.1", True, 162),
])
def test_the_sweep_memo_holds_coefficient_facts_only(monkeypatch, theorem, brute_force, keys):
    checker = CHECKERS[theorem]
    real, memo = getattr(lab_module, checker), []

    def peek(a, b):
        memo[:] = [criteria_module._SWEEP_FACTS.get()]
        return real(a, b)

    monkeypatch.setattr(lab_module, checker, peek)
    assert lab_module._sweep_exhaustive(theorem, _brute_force=brute_force).passed
    (facts,) = memo  # the memo as the last pair left it
    coefficients = {Matrix([list(c[:2]), list(c[2:])])._form
                    for c in itertools.product((-1, 0, 1), repeat=4)}
    # 2.1 reads each coefficient's report; 1.1 its shift candidate and, where
    # a pair's sides share it, its witness: by brute force every matrix meets
    # itself, while 18 of 1.1's 27 side classes sit in such a representative
    names = {"report"} if theorem == "2.1" else {"shift", "witness"}
    assert len(facts) == keys
    assert all(len(key) == 2 and key[0] in names and key[1] in coefficients for key in facts)


def test_sweep_memo_keys_compare_by_value(monkeypatch):
    # equal matrices built apart, all alive at once so no id is reused
    pairs = [
        (Matrix([[0, 1], [0, 0]]), Matrix([[1, 0], [0, 1]]), Matrix([[0, 0], [1, 0]]))
        for _ in range(3)
    ]
    sizes = _decisions_by_size(monkeypatch)
    with criteria_module._sweep_facts():
        for j2, i2, j2t in pairs:
            thm21_criterion(j2, i2)
            fong_sourour_check(j2, j2t)
    # reports of J2 and I; shifted reports of J2 and J2^T (lam = 0); no
    # superoperator is remembered, so each of the six checks decides its own
    assert sizes == {2: 4, 4: 6}


def test_sweep_memo_keys_tell_scale_and_imaginary_parts_apart():
    # J2 times 1, 1/2 and i, and a matrix whose real part is J2: one Z[i]
    # part in common, and four different reports
    i = GaussianRational(0, 1)
    mats = [J2, GaussianRational(Fraction(1, 2)) * J2, i * J2, J2 + i * J2.T]
    with criteria_module._sweep_facts():
        reports = [criteria_module._report(m) for m in mats]
    assert reports == [is_nilpotent(m) for m in mats]
    assert len(set(reports)) == 4


def test_sweep_memo_does_not_outlive_the_sweep(monkeypatch):
    assert _brute_force("2.1", (0, 1)).passed
    _break_2x2_decisions(monkeypatch)
    # J2 was a coefficient of that sweep; a live memo would answer from it
    with pytest.raises(IntegrityError, match=DISAGREE):
        thm21_criterion(J2, J2)
    report = _brute_force("2.1", (0, 1))
    # 3 of the 16 0/1 matrices are nilpotent (0, E12, E21), and every pair
    # holding one decides it afresh
    assert len(report.violations) == 16**2 - 13**2
    assert {v["reason"] for v in report.violations} == {DISAGREE}


def test_orbit_violations_replay_as_the_pair_at_their_trial(monkeypatch):
    _break_2x2_decisions(monkeypatch)
    report = sweep_thm21_exhaustive(entry_set=(0, 1))
    # 2 of the 10 0/1 side classes are nilpotent (0 and E21, which stands for
    # E12 too); transpose-swap pairs off the 36 class pairs holding one, all
    # but (0, 0) and (E21, E21^T), so 19 representatives are filed once each
    assert len(report.violations) == (10**2 - 8**2 + 2) // 2 == 19
    assert {v["reason"] for v in report.violations} == {DISAGREE}
    pairs = _all_pairs((0, 1))
    assert [_replayed(v) for v in report.violations] == [pairs[v["trial"]]
                                                          for v in report.violations]


def test_sweep_memo_is_reset_when_the_sweep_raises(monkeypatch):
    real = lab_module.thm21_criterion
    calls = []

    def interrupted(a, b):
        calls.append((a, b))
        if len(calls) == 7:
            raise RuntimeError("interrupted")
        return real(a, b)

    monkeypatch.setattr(lab_module, "thm21_criterion", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        sweep_thm21_exhaustive(entry_set=(0, 1))
    # E21 = J2^T represents the orbit of both nilpotent elementary matrices
    assert J2.T in {m for pair in calls[:6] for m in pair}
    assert criteria_module._SWEEP_FACTS.get() is None
    _break_2x2_decisions(monkeypatch)
    with pytest.raises(IntegrityError, match=DISAGREE):
        thm21_criterion(J2.T, J2.T)


@pytest.mark.parametrize("theorem, violations", [("2.1", 2 * 81 - 1), ("1.1", 2 * 27 - 1)])
def test_a_failed_fact_fails_every_pair_that_reads_it(monkeypatch, theorem, violations):
    # nilpotent and traceless, so it is its own shifted matrix; no other
    # {-1, 0, 1} matrix shifts to it
    bad = Matrix([[1, 1], [-1, -1]])

    def failing(a):
        if a == bad:
            raise IntegrityError("forced", a)
        return is_nilpotent(a)

    monkeypatch.setattr(criteria_module, "is_nilpotent", failing)
    memoised = _brute_force(theorem)
    # 1.1 reads the shifted fact only on pairs with a common candidate:
    # the 27 traceless matrices pair with bad on either side
    assert len(memoised.violations) == violations
    assert {v["reason"] for v in memoised.violations} == {"forced"}
    assert memoised.to_obj() == _unmemoised(theorem, memoised.config).to_obj()


@pytest.mark.parametrize("theorem, violations", [("2.1", 2 * 81 - 1), ("1.1", 3)])
def test_a_failed_decision_fails_every_pair_with_that_superoperator(
    monkeypatch, theorem, violations
):
    zero = Matrix.zero(4)

    def failing(a):
        if a == zero:
            raise IntegrityError("forced", a)
        return is_nilpotent(a)

    monkeypatch.setattr(operators_module, "is_nilpotent", failing)
    memoised = _brute_force(theorem)
    # no superoperator is remembered, so each pair decides its own and fails
    # alone: X -> AXB is zero when A or B is; X -> SX - XT when S = T = cI
    assert len(memoised.violations) == violations
    assert {v["reason"] for v in memoised.violations} == {"forced"}
    assert memoised.to_obj() == _unmemoised(theorem, memoised.config).to_obj()


def _unmemoised(theorem, config) -> SweepReport:
    """The {-1, 0, 1} sweep's pairs checked one by one, with no memo open."""
    report = SweepReport(theorem=theorem, mode="exhaustive", config=config)
    spec = lab_module.criterion(theorem)
    for trial, pair in enumerate(_all_pairs((-1, 0, 1))):
        lab_module._record(spec, pair, report, trial, "exhaustive")
    return report


# ---- randomized sweeps -------------------------------------------------------------

@pytest.mark.parametrize("theorem", ["2.2", "2.3", "fong_sourour"])
def test_small_sweeps_have_no_violations(theorem):
    config = GeneratorConfig(dim=2, seed=5)
    report = sweep_thm(theorem, config, 10)
    assert report.violations == []
    assert report.hypothesis_instances >= 10
    assert report.instances_tested == 20  # structured + unconstrained


def test_sweep_accepts_alias_for_common_shift():
    config = GeneratorConfig(dim=2, seed=5)
    assert sweep_thm("1.1", config, 3).theorem == "fong_sourour"


def test_sweep_rejects_unknown_theorem():
    with pytest.raises(PreconditionError):
        sweep_thm("9.9", GeneratorConfig(dim=2), 1)
    with pytest.raises(PreconditionError):
        sweep_thm("2.2", GeneratorConfig(dim=2), 0)


def test_sweep_reports_are_deterministic():
    config = GeneratorConfig(dim=2, seed=99)
    first = dumps(sweep_thm("2.2", config, 8).to_obj())
    second = dumps(sweep_thm("2.2", GeneratorConfig(dim=2, seed=99), 8).to_obj())
    assert first == second
    other_seed = dumps(sweep_thm("2.2", GeneratorConfig(dim=2, seed=100), 8).to_obj())
    assert first != other_seed


# ---- reference instances --------------------------------------------------------------

def test_shift_pair_record():
    record = example_3_1()
    assert record.name == "3.1"
    assert all(record.facts.values())
    assert record.facts["S_cubed_plus_S_zero"]
    obj = record.to_obj()
    assert obj["example"] == "3.1"
    assert obj["S_cubed_plus_S_zero"] is True
    assert "superoperator" in obj and "images" in obj


def test_family_record_default_instance():
    record = example_3_2(1, 2, 3, 0, 3)
    assert all(record.facts.values())
    obj = record.to_obj()
    assert obj["params"] == {"a": "1", "b": "2", "c": "3", "d": "0", "k": "3"}
    assert obj["char_poly_A"] == ["1", "-4", "-3", "18"]


def test_family_record_other_compliant_instances():
    # any tuple with a+b = c+d = k != 0 and b+c != 0 verifies
    record = example_3_2("1/2", "1/2", 2, -1, 1)
    assert all(record.facts.values())
    record = example_3_2("i", "1-i", "2i", "1-2i", 1)
    assert all(record.facts.values())


@pytest.mark.parametrize(
    "params, message",
    [
        ((1, 1, 3, 0, 3), "a + b = k"),
        ((1, 2, 4, 0, 3), "c + d = k"),
        ((1, -1, 3, -3, 0), "k != 0"),
        ((1, 2, -2, 5, 3), "b + c != 0"),
    ],
)
def test_family_record_rejects_bad_params(params, message):
    with pytest.raises(PreconditionError, match=message.replace("+", r"\+")):
        example_3_2(*params)


# ---- converse-failure search ---------------------------------------------------------------

def test_search_finds_seeded_family_instance():
    config = GeneratorConfig(dim=3, seed=1)
    for target in ("2.2", "2.3", "2.1-extension"):
        report = search_converse_failures(target, config, 1, seed_instances=[FAMILY_PAIR])
        seeded = [e for e in report.converse_failures if e.get("kind") == "seeded"]
        assert seeded, f"family instance not recorded for target {target}"
        assert report.violations == []


def test_search_does_not_record_shift_pair_under_tuple_criterion():
    config = GeneratorConfig(dim=2, seed=1)
    report = search_converse_failures("2.2", config, 1, seed_instances=[SHIFT_PAIR])
    assert [e for e in report.converse_failures if e.get("kind") == "seeded"] == []


def test_search_structured_trials_find_witnesses():
    config = GeneratorConfig(dim=3, seed=3)
    report = search_converse_failures("2.3", config, 6)
    structured = [e for e in report.converse_failures if e.get("kind") == "structured"]
    assert len(structured) == 3  # every structured trial is a witness
    assert report.violations == []


def test_search_accepts_short_target_spelling():
    config = GeneratorConfig(dim=2, seed=1)
    report = search_converse_failures("2.1-ext", config, 2)
    assert report.theorem == "2.1-extension"


def test_search_rejects_unknown_target():
    with pytest.raises(PreconditionError):
        search_converse_failures("2.4", GeneratorConfig(dim=2), 1)


def test_search_reports_are_deterministic():
    config = GeneratorConfig(dim=3, seed=17)
    first = dumps(search_converse_failures("2.3", config, 4).to_obj())
    second = dumps(search_converse_failures("2.3", GeneratorConfig(dim=3, seed=17), 4).to_obj())
    assert first == second


# ---- integrity gate --------------------------------------------------------------------------

def test_reference_records_raise_on_forced_failure(monkeypatch):
    import elemop.lab as lab_module

    monkeypatch.setattr(lab_module, "op_equal", lambda *_: False)
    with pytest.raises(IntegrityError, match="3.2"):
        example_3_2(1, 2, 3, 0, 3)


def test_reference_failures_carry_their_parameters(monkeypatch):
    import elemop.lab as lab_module

    params = ("1/2", "1/2", 2, -1, 1)
    with monkeypatch.context() as m:
        m.setattr(lab_module, "op_equal", lambda *_: False)
        with pytest.raises(IntegrityError, match="3.2") as info:
            example_3_2(*params)
    assert info.value.instance == params
    assert all(example_3_2(*info.value.instance).facts.values())

    monkeypatch.setattr(lab_module, "op_is_nilpotent", lambda op: NilpotencyReport(True, 1))
    with pytest.raises(IntegrityError, match="V_not_nilpotent") as info:
        example_3_1()
    assert info.value.instance == ()


# ---- forced violations ------------------------------------------------------------------------
#
# The checker lab calls is replaced by one that misbehaves on exactly one
# call; that call's instance must come back as the one violation, in the
# uniform shape, and its dump must parse back to the same matrices.

CHECKERS = {
    "2.1": "thm21_criterion",
    "1.1": "fong_sourour_check",
    "2.2": "thm22_check",
    "2.3": "thm23_check",
    "2.1-ext": "_each_term_check",
}
FORCED_MODES = [
    ("2.1", "exhaustive"),
    ("1.1", "exhaustive"),
    ("1.1", "structured"),
    ("1.1", "random"),
    ("2.2", "structured"),
    ("2.2", "random"),
    ("2.2", "search"),
    ("2.3", "structured"),
    ("2.3", "random"),
    ("2.3", "search"),
    ("2.1-ext", "search"),
]
# (hypotheses hold, conclusion nilpotent) of a forced result that contradicts
# the criterion; None raises IntegrityError instead
OUTCOMES = {"raise": None, "hold-not-nilpotent": (True, False), "nilpotent-unheld": (False, True)}


def _forced_cases():
    for theorem, mode in FORCED_MODES:
        for outcome, forced in OUTCOMES.items():
            if forced == (False, True) and theorem not in ("2.1", "1.1") and mode != "structured":
                continue  # a converse finding of an implication, not a violation
            if forced is not None and theorem == "2.1-ext":
                continue  # a conjecture's results are converse findings, never violations
            yield theorem, mode, outcome


def _run_mode(theorem, mode):
    if mode == "exhaustive":
        return SWEEPS[theorem](entry_set=(0, 1))
    if mode == "search":
        return search_converse_failures(theorem, GeneratorConfig(dim=3, seed=4), 1)
    return sweep_thm(theorem, GeneratorConfig(dim=2, seed=4), 1)


def _replayed(entry):
    obj = json.loads(dumps(entry))
    if "operator" in obj:
        return (operator_from_obj(obj["operator"]),)
    if "a_tuple" in obj:
        return tuple([matrix_from_obj(m) for m in obj[key]] for key in ("a_tuple", "b_tuple"))
    return matrix_from_obj(obj["a"]), matrix_from_obj(obj["b"])


@pytest.mark.parametrize("theorem, mode, outcome", list(_forced_cases()))
def test_forced_violation_is_recorded_once_and_replays(monkeypatch, theorem, mode, outcome):
    import elemop.lab as lab_module

    at = {"exhaustive": 7, "structured": 1, "random": 2, "search": 1}[mode]
    real = getattr(lab_module, CHECKERS[theorem])
    calls = []

    def misbehaving(*args):
        calls.append(args)
        if len(calls) != at:
            return real(*args)
        if OUTCOMES[outcome] is None:
            raise IntegrityError("forced", args)
        hold, nilpotent = OUTCOMES[outcome]
        return TheoremCheckResult(hold, () if hold else ("forced",), NilpotencyReport(nilpotent))

    monkeypatch.setattr(lab_module, CHECKERS[theorem], misbehaving)
    report = _run_mode(theorem, mode)

    assert len(report.violations) == 1 and not report.passed
    entry = report.violations[0]
    if mode == "exhaustive":  # a representative pair, numbered among all pairs
        assert _all_pairs((0, 1))[entry["trial"]] == calls[at - 1]
    else:
        assert entry["trial"] == 0
    assert entry["kind"] == {"search": "structured"}.get(mode, mode)
    assert entry["reason"] == {
        "raise": "forced",
        "hold-not-nilpotent": "hypotheses hold but operator not nilpotent",
        "nilpotent-unheld": "generator broke the hypotheses: forced" if mode == "structured"
        else "operator nilpotent but hypotheses fail",
    }[outcome]
    dump_keys = set(entry) - {"trial", "kind", "reason"}
    assert dump_keys in ({"a", "b"}, {"a_tuple", "b_tuple"}, {"operator"})
    assert _replayed(entry) == calls[at - 1]


def test_implication_converse_in_a_random_trial_is_a_finding(monkeypatch):
    import elemop.lab as lab_module

    real = lab_module.thm23_check
    calls = []

    def converse_on_second_call(a, b):
        calls.append((a, b))
        if len(calls) == 2:
            return TheoremCheckResult(False, ("forced",), NilpotencyReport(True))
        return real(a, b)

    monkeypatch.setattr(lab_module, "thm23_check", converse_on_second_call)
    report = sweep_thm("2.3", GeneratorConfig(dim=2, seed=4), 1)
    assert report.violations == []
    (finding,) = report.converse_failures
    assert finding["failures"] == ["forced"] and finding["kind"] == "random"
    assert _replayed(finding) == calls[1]


def test_a_failed_terms_lemma_is_filed_for_each_held_trial(monkeypatch):
    real = lab_module.thm22_check
    checked = []  # (instance, hypotheses hold), structured then random in each trial

    def recording(a_tuple, b_tuple):
        result = real(a_tuple, b_tuple)
        checked.append(((a_tuple, b_tuple), result.hypotheses_hold))
        return result

    # entries -1, 0 and 1 make some unconstrained tuples meet the hypotheses too
    config = GeneratorConfig(dim=2, entry_bound=1, seed=7)
    monkeypatch.setattr(lab_module, "thm22_check", recording)
    assert sweep_thm("2.2", config, 4).violations == []
    held = [(k // 2, ("structured", "random")[k % 2], instance)
            for k, (instance, hold) in enumerate(checked) if hold]
    assert {kind for _, kind, _ in held} == {"structured", "random"}

    monkeypatch.setattr(lab_module, "thm22_check", real)
    monkeypatch.setattr(criteria_module, "_terms_commute", lambda op: False)
    report = sweep_thm("2.2", config, 4)
    reason = ("commuting-families lemma violated: the leading terms' sum "
              "does not commute with the last term")
    assert [(v["trial"], v["kind"], v["reason"]) for v in report.violations] == [
        (trial, kind, reason) for trial, kind, _ in held
    ]
    assert [_replayed(v) for v in report.violations] == [instance for _, _, instance in held]
    assert report.hypothesis_instances == 0  # a raising check counts no hypotheses


# ---- trial cap --------------------------------------------------------------------------------

@pytest.mark.parametrize("run", [sweep_thm, search_converse_failures])
def test_trial_count_is_capped_before_any_trial_runs(monkeypatch, run):
    import elemop.lab as lab_module

    def no_trial(seed, index):
        raise AssertionError("a trial started")

    monkeypatch.setattr(lab_module, "_sub_seed", no_trial)
    config = GeneratorConfig(dim=2)
    for trials in (1_000_004, 10**7):
        with pytest.raises(PreconditionError, match="<= 1000003"):
            run("2.3", config, trials)
    with pytest.raises(AssertionError, match="a trial started"):
        run("2.3", config, 1_000_003)  # the largest accepted count reaches trial 0
