"""Benchmark for elemop: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload requests --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed amount of the workload twice, untraced and then
with spans around every public library function, and reports per-layer call
counts and self times, the layer probes and the tracing overhead; the spans
are written under ``.bench_out/``.  ``--workload all`` runs every workload in
a fresh worker process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample count behind each metric.  The
benchmark exits 1 without a result when the checkout holds no elemop source
tree.  See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BASELINE_SEED = 1
HELD_OUT_SEED = 2
SETUP_SAMPLES = 9
TRACE_UNITS = {"exhaustive_dim2": 1, "random_dim3": 3, "requests": 3}
WORKLOAD_NAMES = tuple(TRACE_UNITS)


def use_source_tree() -> None:
    """Import elemop from this checkout's ``src`` and nowhere else."""
    if not (SRC / "elemop" / "__init__.py").is_file():
        sys.exit(f"error: no elemop source tree under {SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(name: str, seed: int, workdir: Path):
    """Import elemop, build the run plan and the first unit's inputs.

    Returns the time taken in wall seconds and in seconds at the gauge's
    reference speed, then what was built."""
    import gauge

    before = gauge.spot_slowdown()
    t0 = time.perf_counter()
    import workloads

    workload = workloads.make(name, workdir)
    plan = workload.plan(seed)
    first = workload.prepare(plan[0])
    wall = time.perf_counter() - t0
    slowdown = (before + gauge.spot_slowdown()) / 2
    return (wall, wall / slowdown), workload, plan, first


def setup_in_fresh_process(name: str, seed: int) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    wall, reference = out.stdout.split()[-2:]
    return float(wall), float(reference)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rate_and_latencies(results, slowdowns) -> tuple[float, list[float]]:
    """Operations per second and latencies in ms, each unit's times divided
    by its slowdown."""
    ops = sum(r.ops for r in results)
    busy = sum(r.seconds / f for r, f in zip(results, slowdowns))
    return ops / busy, [x / f for r, f in zip(results, slowdowns) for x in r.latencies_ms]


def run_gauged(workload, plan, first, seconds=None, limit=None):
    import gauge
    import workloads

    with gauge.SpeedGauge() as speed:
        results = workloads.run_units(workload, plan, first, seconds, limit)
    return results, [speed.slowdown(r.start_ns, r.end_ns) for r in results]


def end_to_end(name: str, seed: int, seconds: float, workdir: Path):
    first_setup, workload, plan, first = setup(name, seed, workdir)
    setups = [first_setup] + [setup_in_fresh_process(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    results, slowdowns = run_gauged(workload, plan, first, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rate, latencies = rate_and_latencies(results, slowdowns)
    wall_rate, wall_latencies = rate_and_latencies(results, [1.0] * len(results))
    metrics = {
        "setup_s": metric(statistics.median(ref for _, ref in setups), "s"),
        "ops_per_s": metric(rate, "1/s"),
        "op_p50_ms": metric(percentile(latencies, 50), "ms"),
        "op_p99_ms": metric(percentile(latencies, 99), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    info = {
        "samples": {"setup_s": len(setups), "ops_per_s": sum(r.ops for r in results),
                    "op_p50_ms": len(latencies), "op_p99_ms": len(latencies), "peak_rss_mb": 1,
                    "units": len(results), "measured_wall_s": sum(r.seconds for r in results)},
        "wall_clock": {"setup_s": statistics.median(wall for wall, _ in setups),
                       "ops_per_s": wall_rate,
                       "op_p50_ms": percentile(wall_latencies, 50),
                       "op_p99_ms": percentile(wall_latencies, 99)},
        "mean_slowdown": statistics.fmean(slowdowns),
    }
    return workload, results, metrics, info


def traced(name: str, seed: int, seconds: float, workdir: Path):
    """Fixed work (``TRACE_UNITS``), so counts repeat exactly; `seconds` is
    not used."""
    _, workload, plan, first = setup(name, seed, workdir)
    import layers
    import probes

    limit = TRACE_UNITS[name]
    plain, plain_slowdowns = run_gauged(workload, plan, first, limit=limit)
    tracer = layers.Tracer()
    with tracer.installed():
        spans, span_slowdowns = run_gauged(workload, plan, workload.prepare(plan[0]), limit=limit)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"spans-{name}-seed{seed}"
    tracer.recorder.write(stem.with_suffix(".tsv.gz"))
    summary = tracer.recorder.summary()
    with open(stem.with_suffix(".summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)

    plain_rate = rate_and_latencies(plain, plain_slowdowns)[0]
    traced_rate = rate_and_latencies(spans, span_slowdowns)[0]
    metrics = tracer.metrics(summary)
    metrics["trace.overhead_frac"] = metric(plain_rate / traced_rate - 1, "fraction")
    metrics.update({key: metric(v, unit) for key, (v, unit) in probes.run(seed).items()})
    info = {"samples": {"units": len(spans), "spans": len(tracer.recorder),
                        "ops": sum(r.ops for r in spans)},
            "mean_slowdown": statistics.fmean(plain_slowdowns + span_slowdowns)}
    return workload, plain + spans, metrics, info


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        if args.setup_only:
            print(*setup(args.workload, args.seed, workdir)[0])
            return 0
        measure = traced if args.trace else end_to_end
        workload, results, metrics, info = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads  # after setup, which times the first import

    attempted = sum(r.ops for r in results)
    failed = workloads.count_failed(workload, results, workloads.load_reference(args.workload))
    print(json.dumps({"env": environment(args), "failed_frac": failed / attempted} | info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference() -> int:
    """Run every unit of every workload once and record its digests."""
    import workloads

    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for name in WORKLOAD_NAMES:
            workload = workloads.make(name, workdir)
            reference[name] = {}
            for unit in sorted(workload.plan(BASELINE_SEED)):
                items = workload.items(workload.run(unit, workload.prepare(unit)))
                if any(item.flagged for item in items):
                    sys.exit(f"error: {name} unit {unit} fails its own checks")
                reference[name][str(unit)] = [item.digest for item in items]
                print(name, unit, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh worker process; one table at the end."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        env_line, result_line = out.stdout.strip().splitlines()[-2:]
        rows[name] = {"info": json.loads(env_line), "result": json.loads(result_line)}
    names = sorted({m for row in rows.values() for m in row["result"]["metrics"]})
    print(f"{'metric':42}" + "".join(f"{w:>18}" for w in WORKLOAD_NAMES) + "  unit")
    for m in ["failed_frac"] + names:
        cells, unit = "", ""
        for w in WORKLOAD_NAMES:
            if m == "failed_frac":
                value, unit = rows[w]["info"]["failed_frac"], "fraction"
            else:
                entry = rows[w]["result"]["metrics"][m]
                value, unit = entry["value"], entry["unit"]
            cells += f"{value:>18.6g}"
        print(f"{m:42}{cells}  {unit}")
    if args.out:
        out_path = Path(args.out)
        document = json.loads(out_path.read_text()) if out_path.exists() else {}
        for name, row in rows.items():
            document.setdefault(name, {})[f"trace{args.trace}"] = row
        out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: merge the results into this JSON file")
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun every unit and rewrite reference.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_source_tree()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
