"""Run one workload in this (fresh) process and print its row as JSON.

Started by ``run.py``, once per workload and once more per extra set-up
sample (``--setup-only``).  The last line of standard output is the row.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

import benchlib
from benchlib import OUT_DIR, ROOT, Tracer

sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")

# Set-up starts here, so that it includes the import of ``repro``.
_HOST = benchlib.HostSpeed()
_HOST.slice()
_T0 = time.perf_counter()

import workloads  # noqa: E402


def tree_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child.

    Children are the pool workers: the ones already reaped (``ru_maxrss``
    of ``RUSAGE_CHILDREN`` is their maximum) and the ones still alive.
    """
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    child_kb = max(child_kb, int(line.split()[1]))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + child_kb) / 1024.0


def run_ops(wl, seconds: float, trace: bool, failures: list[str]):
    """Pinned ops, then ops until *seconds* have passed, then op 0 again.

    In a traced run every other op runs with the tracer off, so the run
    measures its own tracing overhead.  A calibration slice follows every
    op.  Memory is read when the pinned ops end — after the same work on
    every host, however many ops the time allows.  Returns ``(position,
    result)`` of every op that succeeded, the number attempted and that
    RSS.
    """
    done = []
    position = 0
    rss_mb = 0.0

    def attempt(call, label: str) -> None:
        nonlocal position
        wl.tracer.enabled = trace and position % 2 == 0
        wl.tracer.op = position
        try:
            result = call()
        except Exception as exc:  # an op failing must not stop the run
            traceback.print_exc()
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            done.append((position, result))
        _HOST.slice()
        position += 1

    start = time.perf_counter()
    index = 0
    while index < wl.pinned_ops or time.perf_counter() - start < seconds:
        attempt(lambda: wl.run_op(index), f"op {index}")
        index += 1
        if index == wl.pinned_ops:
            rss_mb = tree_rss_mb()
    attempt(wl.rerun, "rerun of op 0")
    wl.tracer.enabled = trace
    wl.tracer.op = "probe"
    return done, position, rss_mb


def op_samples(timed, speed: float) -> dict[str, list[float]]:
    """Per-op values of the timing metrics; each metric is their median.

    The bounded three take each op's wall scaled to the reference host;
    the raw wall is reported beside them.
    """
    walls = [r.wall * speed for r in timed]
    return {
        "op_wall_s_p50": walls,
        "cells_per_s": [r.cells / w for r, w in zip(timed, walls)],
        "events_per_s": [r.events / w for r, w in zip(timed, walls)],
        "bench.op_wall_raw_s_p50": [r.wall for r in timed],
    }


def pinned_counts(wl, done) -> dict[str, float]:
    """Exact counts summed over the pinned ops; model means per cell."""
    counts: dict[str, float] = {}
    for position, result in done:
        if position < wl.pinned_ops:
            for key, value in result.counts.items():
                counts[key] = counts.get(key, 0) + value
    cells = counts.pop("model.cells", 0)
    if cells:
        counts["model.accepted_load"] /= cells
        counts["model.avg_latency_cycles"] /= cells
    requested = counts.pop("service.requested", 0)
    if requested:
        counts["service.dedup_share"] = (
            counts["service.coalesced"] + counts["service.cache_hits"]
        ) / requested
    return counts


def span_metrics(tracer: Tracer, done) -> dict[str, float]:
    """``<span>_s``: median over traced ops of the span's time per op."""
    out = {}
    totals = benchlib.span_totals(tracer.spans)
    roots = totals.pop("op", {})
    for name, per_op in totals.items():
        in_ops = [v for op, v in per_op.items() if isinstance(op, int)]
        out[f"{name}_s"] = benchlib.median(in_ops or list(per_op.values()))
    drains = totals.get("engine.drain", {})
    if drains:
        events = {position: result.events for position, result in done}
        ops = [op for op in drains if op in roots and op in events]
        out["core.outside_drain_share"] = benchlib.median(
            [1.0 - drains[op] / roots[op] for op in ops]
        )
        out["engine.ns_per_event"] = (
            sum(drains[op] for op in ops) / sum(events[op] for op in ops) * 1e9
        )
    own: dict[int, float] = {}
    for record, self_time in zip(tracer.spans, benchlib.self_times(tracer.spans)):
        if isinstance(record["op"], int):
            own[record["op"]] = own.get(record["op"], 0.0) + self_time
    if roots:
        out["bench.span_self_sum_share"] = benchlib.median(
            [own[op] / roots[op] for op in roots]
        )
    return out


def trace_overhead(done) -> float:
    walls = {0: [], 1: []}
    for position, result in done:
        if result.timed:
            walls[position % 2].append(result.wall)
    if not (walls[0] and walls[1]):
        return 0.0
    return benchlib.median(walls[0]) / benchlib.median(walls[1]) - 1.0


def measure(args, wl, tracer: Tracer) -> dict:
    failures: list[str] = []
    checks: dict[str, bool] = {}
    metrics: dict[str, float] = {}
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": workloads.JOBS,
    }
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "attempted": 1,
        "failed": 1,
        "failures": failures,
        "checks": checks,
        "metrics": metrics,
        "info": info,
    }
    tracer.enabled = args.trace
    tracer.op = "setup"
    try:
        wl.setup()
    except Exception as exc:  # e.g. the compiled backend is not built
        traceback.print_exc()
        failures.append(f"setup: {type(exc).__name__}: {exc}")
        return row
    info["setup_raw_s"] = setup_raw = time.perf_counter() - _T0
    _HOST.slice()
    metrics["setup_s"] = setup_raw * _HOST.speed
    if args.setup_only:
        row["failed"] = 0
        return row

    # Per-layer metrics carry no bound: a traced run needs fewer samples.
    seconds = args.seconds / 2 if args.trace else args.seconds
    done, attempted, metrics["peak_rss_mb"] = run_ops(wl, seconds, args.trace, failures)
    row["attempted"] = attempted
    row["failed"] = attempted - len(done)
    timed = [result for _, result in done if result.timed]
    if not timed:
        return row
    info["ops"] = len(timed)
    # One factor for the whole process, from every slice it took.
    metrics["bench.host_speed"] = speed = _HOST.speed
    metrics["setup_s"] = setup_raw * speed
    info["samples"] = samples = op_samples(timed, speed)
    for name, values in samples.items():
        metrics[name] = benchlib.median(values)
    tail = benchlib.tail_percentile(samples["bench.op_wall_raw_s_p50"])
    metrics["bench.op_wall_s_tail_pct"], metrics["bench.op_wall_s_tail"] = tail or (
        0.0,
        0.0,
    )

    by_position = dict(done)
    pinned = [by_position.get(i) for i in range(wl.pinned_ops)]
    checks["pinned_ops_ran"] = all(pinned)
    last = by_position.get(attempted - 1)
    checks["determinism"] = bool(
        pinned[0] and last and last.fingerprint == pinned[0].fingerprint
    )
    if all(pinned):
        combined = benchlib.fingerprint([r.fingerprint for r in pinned])
        info["model.result_fingerprint"] = combined
        metrics["model.result_fingerprint"] = benchlib.fingerprint48(combined)
        if args.seed == benchlib.DEFAULT_SEED:
            expected = json.loads((benchlib.BENCH_DIR / "expected.json").read_text())
            checks["expected_fingerprint"] = (
                expected["fingerprints"].get(args.workload) == combined
            )
    metrics.update(pinned_counts(wl, done))
    for name in {k for _, r in done for k in r.timings}:
        metrics[name] = benchlib.median(
            [r.timings[name] for _, r in done if name in r.timings]
        )
    backend, lowered = wl.resolved()
    info["engine.backend"], info["engine.lowered"] = backend, lowered
    metrics["engine.backend"] = int(backend == "compiled")
    metrics["engine.lowered"] = int(lowered)

    if args.trace:
        metrics.update(wl.probes(metrics["op_wall_s_p50"]))
        metrics.update(span_metrics(tracer, done))
        metrics["bench.trace_overhead_share"] = trace_overhead(done)
        checks["span_self_sum"] = (
            abs(metrics.get("bench.span_self_sum_share", 0.0) - 1.0) <= 0.10
        )
        checks["backend_mismatches"] = not metrics.get("model.backend_mismatches")
        for name, want in wl.invariants.items():
            checks[f"{name}=={want}"] = metrics.get(name) == want
        tracer.write(OUT_DIR / f"{args.workload}.trace.jsonl")
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    tracer = Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, tmp)
    try:
        row = measure(args, wl, tracer)
    finally:
        try:
            wl.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
