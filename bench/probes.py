"""Layer probes: one public function at a time, timed in a tight loop.

Each probe's inputs come from a workload's own generator with the run's
seed: wide scalars and dim-3 operators from the request batches, 4x4
superoperators from the exhaustive sweep's 2x2 matrices, 9x9 superoperators
from ``lab.gen_nilpotent`` as in random_dim3.  A probe reports the median,
over repeated passes, of one pass's time divided by its number of inputs,
at the speed gauge's reference speed.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time

from elemop import jsonio, lab, matrix, nilpotency, operators, scalars

import gauge
import workloads

PASS_BUDGET_S = 0.4
MIN_PASSES = 3
MAX_PASSES = 200

UNITS = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _time_per_call(fn, inputs, unit: str) -> float:
    def one_pass() -> int:
        t0 = time.perf_counter_ns()
        for args in inputs:
            fn(*args)
        return time.perf_counter_ns() - t0

    first = one_pass()
    passes = max(MIN_PASSES, min(MAX_PASSES, int(PASS_BUDGET_S * 1e9 / max(first, 1))))
    before = gauge.spot_slowdown()
    median_ns = statistics.median(one_pass() for _ in range(passes))
    slowdown = (before + gauge.spot_slowdown()) / 2
    return median_ns / slowdown / len(inputs) / 1e9 * UNITS[unit]


def _request_operators(rng: random.Random, count: int):
    """Dim-3 operators from one request batch, parsed."""
    batch = workloads.request_batch(rng.randrange(workloads.REQUEST_BATCHES))
    docs = [json.loads(r.args[2]) for r in batch if r.kind == "superop"]
    return [jsonio.operator_from_obj(doc) for doc in docs[:count]]


def _exhaustive_superoperators(rng: random.Random, count: int):
    mats = [
        matrix.Matrix([list(c[:2]), list(c[2:])])
        for c in itertools.product((-1, 0, 1), repeat=4)
    ]
    return [
        operators.make_multiplication(rng.choice(mats), rng.choice(mats)).superoperator()
        for _ in range(count)
    ]


def _random_dim3_superoperators(rng: random.Random, count: int):
    out = []
    for k in range(count):
        configs = [
            lab.GeneratorConfig(dim=3, entry_bound=3, seed=rng.randrange(2**32), gaussian=k % 2 == 1)
            for _ in range(2)
        ]
        a, b = (lab.gen_nilpotent(c) + matrix.Matrix.identity(3) for c in configs)
        out.append(operators.make_v_operator(a, b).superoperator())
    return out


def run(seed: int) -> dict[str, tuple[float, str]]:
    rng = random.Random(f"probes/{seed}")
    ops3 = _request_operators(rng, 16)
    entries = [e for op in ops3 for a, b in op.terms for e in (*a[0], *b[0])]
    real = [e for e in entries if e.is_real]
    gauss = [e for e in entries if not e.is_real]
    texts = [scalars.format_scalar(e) for e in entries]
    sup4 = _exhaustive_superoperators(rng, 32)
    sup9 = _random_dim3_superoperators(rng, 2)
    wide9 = [op.superoperator() for op in ops3[:4]]

    def pairs(values):
        return list(zip(values, values[1:] + values[:1]))

    def roundtrip(m):
        return jsonio.matrix_from_obj(json.loads(jsonio.dumps(jsonio.matrix_to_obj(m))))

    probes = {
        "probe.scalars.mul_real_ns": (lambda x, y: x * y, pairs(real), "ns"),
        "probe.scalars.mul_gauss_ns": (lambda x, y: x * y, pairs(gauss), "ns"),
        "probe.scalars.add_gauss_ns": (lambda x, y: x + y, pairs(gauss), "ns"),
        "probe.scalars.parse_ns": (scalars.parse_scalar, [(t,) for t in texts], "ns"),
        "probe.scalars.format_ns": (scalars.format_scalar, [(e,) for e in entries], "ns"),
        "probe.matrix.matmul_4x4_us": (lambda x, y: x * y, pairs(sup4), "us"),
        "probe.matrix.matmul_9x9_us": (lambda x, y: x * y, pairs(sup9), "us"),
        "probe.operators.superoperator_dim3_us": (
            operators.ElementaryOperator.superoperator, [(op,) for op in ops3], "us"),
        "probe.nilpotency.is_nilpotent_4x4_us": (nilpotency.is_nilpotent, [(m,) for m in sup4], "us"),
        "probe.nilpotency.is_nilpotent_9x9_ms": (nilpotency.is_nilpotent, [(m,) for m in sup9], "ms"),
        "probe.nilpotency.char_poly_9x9_ms": (nilpotency.char_poly, [(m,) for m in sup9], "ms"),
        "probe.jsonio.roundtrip_9x9_us": (roundtrip, [(m,) for m in wide9], "us"),
    }
    return {name: (_time_per_call(fn, inputs, unit), unit) for name, (fn, inputs, unit) in probes.items()}
