"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

import run

run.use_source_tree()

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from elemop import cli, criteria, nilpotency  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    rec = spans.SpanRecorder()
    root = rec.add("a.root", 0, 100)
    rec.add("b.work", 10, 40, root)
    right = rec.add("b.work", 50, 90, root)
    rec.add("c.leaf", 60, 70, right)
    rec.add("a.root", 200, 210)
    assert rec.self_times() == [30, 30, 30, 10, 10]
    summary = rec.summary()
    assert summary["a.root"]["calls"] == 2
    assert summary["a.root"]["self_s"] == 40e-9
    assert summary["b.work"]["calls"] == 2
    assert summary["b.work"]["self_s"] == 60e-9
    assert summary["b.work"]["total_s"] == 70e-9
    assert summary["c.leaf"]["self_s"] == 10e-9


def test_spans_are_written_out(tmp_path):
    rec = spans.SpanRecorder()
    rec.add("a.root", 0, 100)
    path = tmp_path / "spans.tsv.gz"
    rec.write(path)
    with gzip.open(path, "rt") as handle:
        lines = handle.read().splitlines()
    assert lines == ["index\tname\tstart_ns\tend_ns\tparent", "0\ta.root\t0\t100\t-1"]


def _bindings() -> dict:
    """Every attribute of every loaded elemop module and every wrapped
    method, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "elemop" or name.startswith("elemop."):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
    for cls, attr, _ in layers.METHODS:
        out[(cls.__name__, attr)] = id(cls.__dict__[attr])
    return out


def _traced(name: str, workdir, units: int = 1) -> layers.Tracer:
    workload = workloads.make(name, workdir)
    plan = workload.plan(run.BASELINE_SEED)
    tracer = layers.Tracer()
    with tracer.installed():
        workloads.run_units(workload, plan, workload.prepare(plan[0]), None, units)
    return tracer


def test_wrappers_reach_every_importer_and_are_removed(tmp_path):
    original = nilpotency.is_nilpotent
    before = _bindings()
    tracer = layers.Tracer()
    with tracer.installed():
        for module in (criteria, cli, nilpotency):
            assert module.is_nilpotent is not original
            assert module.is_nilpotent.__wrapped__ is original
    assert _bindings() == before

    tracer = _traced("requests", tmp_path)
    assert _bindings() == before
    assert tracer.recorder.summary()["cli.main"]["calls"] == workloads.BATCH_SIZE


def test_same_seed_gives_byte_identical_request_documents(tmp_path):
    def text(unit):
        return json.dumps([r.args for r in workloads.request_batch(unit)]).encode()

    assert text(5) == text(5)
    assert text(5) != text(6)
    requests = workloads.make("requests", tmp_path)
    assert requests.plan(7) == requests.plan(7)
    assert requests.plan(7) != requests.plan(8)


def test_request_mix():
    batch = workloads.request_batch(0)
    kinds = [r.kind for r in batch]
    assert len(batch) == workloads.BATCH_SIZE
    assert {kind: kinds.count(kind) for kind in set(kinds)} == dict(workloads.REQUEST_MIX)


def test_malformed_requests_exit_2(tmp_path):
    requests = workloads.make("requests", tmp_path)
    malformed = [r for unit in range(2) for r in workloads.request_batch(unit) if r.kind == "malformed"]
    assert len(malformed) == 20
    for request in malformed:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(requests.argv(request)) == 2
        assert err.getvalue().startswith("error: ")


def test_reference_mismatch_counts_as_failed(tmp_path):
    requests = workloads.make("requests", tmp_path)
    result = requests.run(0, requests.prepare(0))
    recorded = workloads.load_reference("requests")
    assert workloads.count_failed(requests, [result], recorded) == 0
    assert workloads.count_failed(requests, [result], {"0": ["0" * 16]}) == workloads.BATCH_SIZE


def _counts(tracer: layers.Tracer) -> dict:
    metrics = tracer.metrics(tracer.recorder.summary())
    return {
        key: m["value"] for key, m in metrics.items()
        if key.endswith((".calls", ".repeat_frac", ".coeff_bits_max"))
    }


def test_counts_repeat_across_traced_runs(tmp_path):
    for name in ("random_dim3", "requests"):
        first = _counts(_traced(name, tmp_path))
        second = _counts(_traced(name, tmp_path))
        assert first == second
        assert first["nilpotency.is_nilpotent.calls"] > 0
        assert first["nilpotency.char_poly.coeff_bits_max"] > 0
