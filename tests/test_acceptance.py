"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.  Every comparison is exact; the only
tolerances are the stated runtime budgets.
"""

import random
import time

import elemop.lab as lab
from elemop import (
    GaussianRational,
    GeneratorConfig,
    Matrix,
    ZERO,
    basis_matrix,
    eq1_identity_residual,
    example_3_1,
    example_3_2,
    gen_nilpotent,
    is_nilpotent,
    make_multiplication,
    make_v_operator,
    op_equal,
    op_is_nilpotent,
    scalar_shift_witness,
    search_converse_failures,
    sweep_fong_sourour_exhaustive,
    sweep_thm,
    sweep_thm21_exhaustive,
    thm21_proof_replay,
    unvec,
    vec,
)
from elemop.jsonio import dumps
from helpers import rand_matrix, rand_operator, rand_scalar


def _exhaustive_failures(sweep, theorem: str) -> list:
    """Run an exhaustive sweep both ways, one pair per orbit (the default) and
    pair by pair, and check each report and that the two agree byte for byte."""
    failures = []
    reports = {"orbit": sweep(), "brute-force": lab._sweep_exhaustive(theorem, _brute_force=True)}
    for path, report in reports.items():
        if report.instances_tested != 6561:
            failures.append(f"{path}: tested {report.instances_tested}, expected 6561")
        if report.violations:
            failures.append(f"{path}: {len(report.violations)} exhaustive violations")
    if len({dumps(report.to_obj()) for report in reports.values()}) != 1:
        failures.append("orbit and brute-force reports differ")
    return failures


def _verdict(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status}")
    assert not failures, f"criterion {number} ({label}): {failures}"


def test_criterion_1_shift_pair_reproduction():
    failures = []
    started = time.perf_counter()

    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    v = make_v_operator(a, b)
    s = v.superoperator()
    if s**3 != -s:
        failures.append("S^3 != -S")
    for i in range(2):
        for j in range(2):
            e = basis_matrix(2, i, j)
            if v(e) != Matrix([[e[1, 1], 0], [0, -e[0, 0]]]):
                failures.append(f"V(E{i+1}{j+1}) is not diag(x22, -x11)")
    if op_is_nilpotent(v).nilpotent:
        failures.append("V reported nilpotent")
    if a * b == b * a:
        failures.append("AB = BA")
    if not ((a**2).is_zero and (b**2).is_zero):
        failures.append("A^2 or B^2 nonzero")
    if a * b * a != a or b * a * b != b:
        failures.append("ABA != A or BAB != B")
    record = example_3_1()
    if not all(record.facts.values()):
        failures.append(f"record facts: {record.facts}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, "shift pair reproduction", failures)


def test_criterion_2_family_reproduction():
    failures = []
    started = time.perf_counter()

    a = Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]])
    b = Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]])
    n = a - b
    if a * b != b * a:
        failures.append("AB != BA")
    n_report = is_nilpotent(n)
    if not (n_report.nilpotent and n_report.index == 2):
        failures.append(f"N index {n_report.index}, expected 2")
    if not op_equal(make_v_operator(a, b), make_v_operator(n, b)):
        failures.append("V_{A,B} != V_{N,B} extensionally")
    if not op_is_nilpotent(make_v_operator(a, b)).nilpotent:
        failures.append("V not nilpotent")
    if is_nilpotent(a).nilpotent or is_nilpotent(b).nilpotent:
        failures.append("A or B nilpotent")
    if scalar_shift_witness(a).found or scalar_shift_witness(b).found:
        failures.append("unexpected scalar shift witness")
    record = example_3_2(1, 2, 3, 0, 3)
    if not all(record.facts.values()):
        failures.append(f"record facts: {record.facts}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(2, "parametric family reproduction", failures)


def test_criterion_3_exhaustive_length_one_biconditional():
    started = time.perf_counter()
    failures = _exhaustive_failures(sweep_thm21_exhaustive, "2.1")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict(3, "exhaustive length-one biconditional", failures)


def test_criterion_4_commuting_families_suite():
    failures = []
    config = GeneratorConfig(dim=3, seed=2026)
    report = sweep_thm("2.2", config, 200)
    if report.hypothesis_instances < 200:
        failures.append(f"only {report.hypothesis_instances} hypothesis instances")
    if report.violations:
        failures.append(f"{len(report.violations)} violations (terms lemma included)")
    _verdict(4, "commuting families property suite", failures)


def test_criterion_5_scalar_shift_suite_and_expansion_identity():
    failures = []
    config = GeneratorConfig(dim=3, seed=20260)
    report = sweep_thm("2.3", config, 200)
    if report.hypothesis_instances < 200:
        failures.append(f"only {report.hypothesis_instances} hypothesis instances")
    if report.violations:
        failures.append(f"{len(report.violations)} violations")

    rng = random.Random(515)
    bad_residuals = 0
    for _ in range(200):
        dim = rng.randint(2, 3)
        a = rand_matrix(rng, dim, bound=2, gaussian=True)
        b = rand_matrix(rng, dim, bound=2, gaussian=True)
        lam = rand_scalar(rng, gaussian=True)
        mu = rand_scalar(rng, gaussian=True)
        if not eq1_identity_residual(a, b, lam, mu).superoperator().is_zero:
            bad_residuals += 1
    if bad_residuals:
        failures.append(f"{bad_residuals} nonzero expansion residuals")
    _verdict(5, "scalar shift suite and expansion identity", failures)


def test_criterion_6_common_shift_biconditional():
    failures = _exhaustive_failures(sweep_fong_sourour_exhaustive, "1.1")

    config = GeneratorConfig(dim=3, seed=618)
    random_report = sweep_thm("fong_sourour", config, 200)
    if random_report.violations:
        failures.append(f"{len(random_report.violations)} random violations")
    if random_report.instances_tested < 200:
        failures.append("fewer than 200 random instances")
    _verdict(6, "common shift biconditional", failures)


def test_criterion_7_proof_replay():
    failures = []
    rng = random.Random(717)
    replayed = 0
    trial = 0
    while replayed < 50:
        trial += 1
        dim = rng.randint(2, 3)
        a = gen_nilpotent(GeneratorConfig(dim=dim, seed=717_000 + trial))
        b = rand_matrix(rng, dim, bound=2)
        if is_nilpotent(b).nilpotent:
            continue
        trace = thm21_proof_replay(a, b)
        expected_m = op_is_nilpotent(make_multiplication(a, b)).index
        ok = (
            trace.m == expected_m
            and bool(trace.f_bz)
            and len(trace.steps) == dim
            and all(s.sandwich_zero and s.image_zero for s in trace.steps)
            and trace.a_power_zero
            and (a**trace.m).is_zero
        )
        if not ok:
            failures.append(f"replay failed on trial {trial}")
        replayed += 1
    _verdict(7, "rank-one proof replay", failures)


def test_criterion_8_representation_faithfulness():
    failures = []
    rng = random.Random(808)
    checked = 0
    previous = None
    while checked < 500:
        dim = rng.randint(1, 3)
        op = rand_operator(rng, dim, rng.randint(1, 3), bound=2, gaussian=rng.random() < 0.3)
        s = op.superoperator()
        for j in range(dim):
            for i in range(dim):
                e = basis_matrix(dim, i, j)
                if op(e) != unvec(s * vec(e), dim, dim):
                    failures.append(f"apply/superoperator mismatch at op {checked}")
        if previous is not None and previous.dim == op.dim:
            s_prev = previous.superoperator()
            if (previous + op).superoperator() != s_prev + s:
                failures.append(f"additivity failed at op {checked}")
            if previous.compose(op).superoperator() != s_prev * s:
                failures.append(f"composition failed at op {checked}")
        c = rand_scalar(rng, gaussian=True)
        if op.scaled(c).superoperator() != c * s:
            failures.append(f"scaling failed at op {checked}")
        previous = op
        checked += 1
    _verdict(8, "representation faithfulness", failures)


def test_criterion_9_determinism():
    failures = []
    sweep_args = ("2.2", GeneratorConfig(dim=2, seed=909), 25)
    first = dumps(sweep_thm(*sweep_args).to_obj())
    second = dumps(sweep_thm("2.2", GeneratorConfig(dim=2, seed=909), 25).to_obj())
    if first != second:
        failures.append("sweep rerun not byte-identical")

    search_first = dumps(
        search_converse_failures("2.3", GeneratorConfig(dim=3, seed=909), 6).to_obj()
    )
    search_second = dumps(
        search_converse_failures("2.3", GeneratorConfig(dim=3, seed=909), 6).to_obj()
    )
    if search_first != search_second:
        failures.append("search rerun not byte-identical")
    _verdict(9, "seeded determinism", failures)
