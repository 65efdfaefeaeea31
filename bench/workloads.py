"""The benchmark's three workloads: inputs, timed execution, output digests.

Each workload is a catalogue of units.  A unit is a fixed piece of work made
from its index alone, so its outputs are the same on every run and its
digests can be recorded once in ``reference.json``.  A run's seed picks the
order in which units are consumed; a run uses each unit at most once, so no
input repeats within a run (a process starts with nothing cached).

exhaustive_dim2
    one unit: the two exhaustive 2x2 sweeps, 13,122 instances over the 81
    matrices with entries in {-1, 0, 1}.  Tiny integers and heavily repeated
    coefficient matrices, so per-object overhead dominates.
random_dim3
    each unit runs three randomized sweeps and two converse-failure searches
    at dimension 3, once over Q and once over Q(i), each call with its own
    generator seed: 9x9 superoperators with growing fractions and almost no
    repeated input.
requests
    each unit is a batch of CLI requests served in-process by
    ``elemop.cli.main``, one after another (a closed loop, one client, no
    think time), with wide rational and Gaussian entries; a tenth are
    malformed and must exit 2.  The only workload where parsing and
    emitting JSON carry a large share of the work.

The library is reached only through module attributes (``lab.sweep_thm``,
``cli.main``), never through names bound here, so the traced run sees every
call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from elemop import cli, errors, jsonio, lab

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

EXHAUSTIVE_COUNTS = {
    "sweep_thm21_exhaustive": (6561, 1377),
    "sweep_fong_sourour_exhaustive": (6561, 131),
}

RANDOM_UNITS = 64
# two trials: the searches alternate structured and random pairs by trial
RANDOM_TRIALS = 2
RANDOM_CALLS = (
    ("sweep_thm", "2.2"),
    ("sweep_thm", "2.3"),
    ("sweep_thm", "1.1"),
    ("search_converse_failures", "2.3"),
    ("search_converse_failures", "2.1-extension"),
)

REQUEST_BATCHES = 96
REQUEST_MIX = (("superop", 40), ("apply", 30), ("nilpotent", 10), ("check", 10), ("malformed", 10))
BATCH_SIZE = sum(count for _, count in REQUEST_MIX)
MALFORMED_KINDS = ("ragged_rows", "missing_keys", "non_object", "zero_denominator")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Item:
    """One checked output: its digest, the operations it covers, and whether
    the run already found it wrong (a violation, an error, a bad exit code)."""

    digest: str
    ops: int
    flagged: bool = False


@dataclass
class UnitResult:
    """One unit's timing and raw outputs.

    A latency sample is one request for the requests workload and one whole
    unit for the batch workloads, whose users wait for complete reports.
    `Item`s are made from the outputs afterwards, outside any traced
    section, because digesting a report calls the library's JSON emitter.
    """

    unit: int
    start_ns: int
    seconds: float
    ops: int
    latencies_ms: list[float]
    outputs: list

    @property
    def end_ns(self) -> int:
        return self.start_ns + int(self.seconds * 1e9)


def _timed_calls(calls, invoke) -> tuple[int, float, list]:
    start = time.perf_counter_ns()
    outputs = [invoke(call) for call in calls]
    return start, (time.perf_counter_ns() - start) / 1e9, outputs


def _report_digest(report) -> str:
    return digest(jsonio.dumps(report.to_obj()).encode())


# ---- exhaustive_dim2 -----------------------------------------------------------

class Exhaustive:
    name = "exhaustive_dim2"

    def plan(self, seed: int) -> list[int]:
        return [0]

    def prepare(self, unit: int) -> tuple[str, ...]:
        return tuple(EXHAUSTIVE_COUNTS)

    def run(self, unit: int, calls) -> UnitResult:
        start, seconds, reports = _timed_calls(calls, lambda call: getattr(lab, call)())
        outputs = list(zip(calls, reports))
        ops = sum(r.instances_tested for r in reports)
        return UnitResult(unit, start, seconds, ops, [seconds * 1e3], outputs)

    def items(self, result: UnitResult) -> list[Item]:
        items = []
        for call, report in result.outputs:
            counts = (report.instances_tested, report.hypothesis_instances)
            bad = counts != EXHAUSTIVE_COUNTS[call] or bool(report.violations)
            items.append(Item(_report_digest(report), report.instances_tested, bad))
        return items


# ---- random_dim3 -----------------------------------------------------------------

class RandomDim3:
    name = "random_dim3"

    def plan(self, seed: int) -> list[int]:
        return random.Random(seed).sample(range(RANDOM_UNITS), RANDOM_UNITS)

    def prepare(self, unit: int) -> list[tuple[str, str, "lab.GeneratorConfig"]]:
        calls = []
        for gaussian in (False, True):
            for call, target in RANDOM_CALLS:
                config = lab.GeneratorConfig(
                    dim=3, entry_bound=3, seed=unit * 2 * len(RANDOM_CALLS) + len(calls),
                    gaussian=gaussian,
                )
                calls.append((call, target, config))
        return calls

    @staticmethod
    def _invoke(call):
        name, target, config = call
        try:
            return getattr(lab, name)(target, config, RANDOM_TRIALS)
        except errors.IntegrityError as exc:
            return exc

    @staticmethod
    def _instances(call, outcome) -> int:
        if isinstance(outcome, Exception):
            return (2 if call[0] == "sweep_thm" else 1) * RANDOM_TRIALS
        return outcome.instances_tested

    def run(self, unit: int, calls) -> UnitResult:
        start, seconds, outcomes = _timed_calls(calls, self._invoke)
        outputs = list(zip(calls, outcomes))
        ops = sum(self._instances(c, o) for c, o in outputs)
        return UnitResult(unit, start, seconds, ops, [seconds * 1e3], outputs)

    def items(self, result: UnitResult) -> list[Item]:
        return [
            Item("error", self._instances(call, outcome), True) if isinstance(outcome, Exception)
            else Item(_report_digest(outcome), outcome.instances_tested, bool(outcome.violations))
            for call, outcome in result.outputs
        ]


# ---- requests ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """CLI arguments without ``-o``.  Documents are inline JSON text; one
    that is not an object travels as a file, because the CLI treats inline
    text not starting with '{' as a path."""

    kind: str
    args: tuple[str, ...]
    expected_exit: int


def _wide_fraction(rng: random.Random) -> Fraction:
    num = rng.getrandbits(rng.randint(32, 48)) * rng.choice((-1, 1))
    den = rng.getrandbits(rng.randint(32, 48)) or 1
    return Fraction(num, den)


def _wide_entry(rng: random.Random, gaussian: bool) -> str:
    re = _wide_fraction(rng)
    if not gaussian:
        return str(re)
    im = _wide_fraction(rng)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}*i"


def _matrix_doc(rng: random.Random, dim: int, gaussian: bool, nilpotent: bool = False) -> dict:
    entries = [
        [_wide_entry(rng, gaussian) if not nilpotent or j > i else "0" for j in range(dim)]
        for i in range(dim)
    ]
    return {"rows": dim, "cols": dim, "entries": entries}


def _operator_doc(rng: random.Random, dim: int, terms: int, gaussian: bool, nilpotent: bool = False) -> dict:
    # a strictly upper triangular left coefficient makes a length-one
    # operator nilpotent, so both decisions occur
    return {
        "dim": dim,
        "terms": [
            {"a": _matrix_doc(rng, dim, gaussian, nilpotent), "b": _matrix_doc(rng, dim, gaussian)}
            for _ in range(terms)
        ],
    }


def _text(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _malformed(rng: random.Random, kind: str, gaussian: bool) -> tuple[str, ...]:
    if kind == "ragged_rows":
        op = _operator_doc(rng, 3, 2, gaussian)
        op["terms"][1]["b"]["entries"][2].pop()
        return ("superop", "--op", _text(op))
    if kind == "missing_keys":
        op = _operator_doc(rng, 4, 2, gaussian)
        del op["terms"]
        return ("apply", "--op", _text(op), "--x", _text(_matrix_doc(rng, 4, gaussian)))
    if kind == "non_object":
        return ("superop", "--op", _text(_operator_doc(rng, 3, 2, gaussian)["terms"]))
    a = _matrix_doc(rng, 2, gaussian)
    a["entries"][1][0] = "1/0"
    return ("check", "--theorem", "2.1", "--a", _text(a), "--b", _text(_matrix_doc(rng, 2, gaussian)))


def request_batch(unit: int) -> list[Request]:
    """The batch of requests for one unit; a pure function of its index."""
    rng = random.Random(f"requests/{unit}")
    kinds = [kind for kind, count in REQUEST_MIX for _ in range(count)]
    rng.shuffle(kinds)
    batch = []
    malformed = 0
    for kind in kinds:
        gaussian = rng.random() < 0.5
        nilpotent = rng.random() < 0.5
        if kind == "superop":
            args = ("superop", "--op", _text(_operator_doc(rng, 3, 2, gaussian)))
        elif kind == "apply":
            args = ("apply", "--op", _text(_operator_doc(rng, 4, 2, gaussian)),
                    "--x", _text(_matrix_doc(rng, 4, gaussian)))
        elif kind == "nilpotent":
            args = ("nilpotent", "--op", _text(_operator_doc(rng, 2, 1, gaussian, nilpotent)))
        elif kind == "check":
            args = ("check", "--theorem", "2.1", "--a", _text(_matrix_doc(rng, 2, gaussian, nilpotent)),
                    "--b", _text(_matrix_doc(rng, 2, gaussian)))
        else:
            args = _malformed(rng, MALFORMED_KINDS[malformed % len(MALFORMED_KINDS)], gaussian)
            malformed += 1
        batch.append(Request(kind, args, 2 if kind == "malformed" else 0))
    return batch


class Requests:
    name = "requests"

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.out_path = workdir / "out.json"

    def plan(self, seed: int) -> list[int]:
        return random.Random(seed).sample(range(REQUEST_BATCHES), REQUEST_BATCHES)

    def prepare(self, unit: int) -> list[tuple[list[str], int]]:
        return [(self.argv(r), r.expected_exit) for r in request_batch(unit)]

    def argv(self, request: Request) -> list[str]:
        argv = []
        for arg in request.args:
            if arg.startswith("["):
                path = self.workdir / f"doc-{digest(arg.encode())}.json"
                path.write_text(arg, encoding="utf-8")
                arg = str(path)
            argv.append(arg)
        return argv + ["-o", str(self.out_path)]

    def run(self, unit: int, requests) -> UnitResult:
        latencies = []
        batch_hash = hashlib.sha256()
        wrong_exit = 0
        clock = time.perf_counter_ns
        start = clock()
        for argv, expected in requests:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = clock()
                code = cli.main(argv)
                t1 = clock()
            latencies.append((t1 - t0) / 1e6)
            output = self.out_path.read_bytes() if code == 0 else b""
            batch_hash.update(f"{code}\n{err.getvalue()}\n".encode() + output)
            wrong_exit += code != expected
        seconds = (clock() - start) / 1e9
        item = Item(batch_hash.hexdigest()[:16], len(requests), wrong_exit > 0)
        return UnitResult(unit, start, seconds, len(requests), latencies, [item])

    def items(self, result: UnitResult) -> list[Item]:
        return result.outputs


# ---- running and checking ------------------------------------------------------------

def make(name: str, workdir: Path):
    if name == Exhaustive.name:
        return Exhaustive()
    if name == RandomDim3.name:
        return RandomDim3()
    if name == Requests.name:
        return Requests(workdir)
    raise ValueError(f"unknown workload {name!r}")


def run_units(workload, plan, first_inputs, seconds: float | None, limit: int | None = None) -> list[UnitResult]:
    """Run units in plan order.

    With `seconds`, stop before a unit that would likely end past it (the
    first unit always runs); with `limit`, run exactly that many units.
    Inputs of later units are made between units, off the clock.
    """
    results = []
    elapsed = 0.0
    inputs = first_inputs
    for k, unit in enumerate(plan):
        if k:
            inputs = workload.prepare(unit)
        result = workload.run(unit, inputs)
        results.append(result)
        elapsed += result.seconds
        if limit is not None and len(results) >= limit:
            break
        if seconds is not None and elapsed + result.seconds > seconds:
            break
    return results


def load_reference(name: str) -> dict[str, list[str]]:
    """Recorded digests by unit; without any, every operation counts as failed."""
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(name, {})


def count_failed(workload, results: list[UnitResult], reference: dict[str, list[str]]) -> int:
    """Operations whose output was flagged or differs from the reference."""
    failed = 0
    for result in results:
        expected = reference.get(str(result.unit), [])
        for k, item in enumerate(workload.items(result)):
            if item.flagged or k >= len(expected) or item.digest != expected[k]:
                failed += item.ops
    return failed
