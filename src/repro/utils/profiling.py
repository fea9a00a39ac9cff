"""cProfile harness for the simulation hot path.

The optimisation workflow this repo follows (and that the hot-path PRs
used) is: measure with :func:`profile_simulation`, read the top
``tottime`` entries, make the bottleneck cheap, confirm with an A/B of
``bench/run.py``, and let the golden traces plus the determinism matrix
guard that results stayed bit-identical.  This module backs the
``repro profile`` CLI subcommand.

Since the phase-batched engine rewrite, the harness reports two rates:

* **events/s** — semantic events per second (merged activations count
  each constituent event);
* **activations/s** — dispatched activation records per second.  The
  events/activations ratio measures how much per-event dispatch the
  batched engine avoided.

Since the OP_GEN / OP_DELIVER lowering, it also
reports the **python-callback share**: the cumulative profiled time
spent inside the traffic-generation and delivery-sink callbacks
(``TrafficGenerator._gen_event`` and the bound sink).  On a lowered run
both disappear from the profile and the share drops to ~0 — the number is
the direct witness of what the lowering removed, and of what a
non-lowerable configuration (oracle, scenario patterns) still pays.

Since the routing decision was lowered as well, the same line reports
the Python ``decide`` frames of the run (time and call count — on the
compiled backend every one is a re-entry from ``_ckernel.drain``), and
:func:`describe_callbacks` names which ``decide`` the run resolved to:
the kernel's C twin or the mechanism's Python method.

Since the compiled drain keeps its event state native, a third line
prints the kernel's always-on counters (``_ckernel.counters``): how often
and for what the drain re-entered Python, how many records came in
through the inbox, how often the whole state was mirrored, the
calendar's peak occupancy, how many allocation scans ran over how many
active keys (mean keys per scan), how often a hook made the kernel
reload a router's active-key index, and how many packets it took from
the injection FIFO lists and tails after a hook.  ``cProfile`` counts
re-entries it can see as Python frames; these are counted where they
happen.

A ``collector:`` line reports the cycle collector's work while the cell
was built and run, read through a :data:`gc.callbacks` hook: collections
per generation, the objects they freed and the seconds they took.  A
collection in an older generation traverses everything still alive, so
this is where garbage that reference counting could not free shows up.

Two lines say what the run ran on and what it held.  ``backend:`` names
the resolved engine backend and, when ``auto`` fell back to ``python``,
the ImportError that kept the compiled extension out.  ``memory:`` gives
the process's peak RSS (``ru_maxrss``), the compiled kernel's packet-pool
and injection-tail high-water marks (``peak_packet_rows``,
``peak_tail_records``), whether the run was freed on drop and the
injection backlog left at the horizon, split into the FIFOs' built heads
and their tails' pairs: a saturated cell's backlog grows with the cycles
simulated, and its pairs are what keep that growth at 8 bytes a packet.
``freed_on_drop=no`` means something of the run — a custom mechanism or
pattern, say — still refers to the ``Simulation``, so the run waits for
the cycle collector instead of being freed by reference counting when it
is dropped.
"""

from __future__ import annotations

import cProfile
import gc
import io
import os
import pstats
import resource
import sys
import time
import weakref
from typing import Any

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.engine.kernel import BACKEND_ENV, compiled_import_error

__all__ = [
    "PROFILE_SORTS",
    "describe_callbacks",
    "profile_simulation",
    "render_profile",
]

#: pstats sort keys exposed on the CLI (a useful, validated subset).
PROFILE_SORTS = ("tottime", "cumulative", "ncalls", "pcalls")

#: (filename suffix, function name) pairs counted as the per-event
#: traffic/delivery callbacks: the generator activation and the two sink
#: bindings (the compiled lowered path has no Python frames at all and
#: the share reads ~0).
_CALLBACK_FUNCS = (
    ("simulation.py", "_gen_event"),
    ("simulation.py", "deliver"),
    ("collector.py", "on_delivery"),
)


def _callback_seconds(profiler: cProfile.Profile) -> tuple[float, float, int]:
    """Cumulative profiled seconds in the gen/sink callbacks, and the
    cumulative seconds and call count of the mechanisms' ``decide``."""
    total = decide_s = 0.0
    decide_calls = 0
    stats = pstats.Stats(profiler, stream=io.StringIO())
    for (filename, _lineno, funcname), row in stats.stats.items():
        if funcname == "decide" and "routing" in filename:
            decide_calls += row[1]
            decide_s += row[3]
            continue
        for suffix, name in _CALLBACK_FUNCS:
            if funcname == name and filename.endswith(suffix):
                total += row[3]  # cumulative time
                break
    return total, decide_s, decide_calls


def _decide_path(sim) -> str:
    """Which ``decide`` the run resolved to: ``C twin (src-crg, piggyback)``
    (mechanism, twin kind) or ``Python (src-crg)``."""
    from repro.routing.factory import decide_twin

    kind = sim.engine_backend == "compiled" and decide_twin(sim.routing)
    if kind:
        return f"C twin ({sim.routing.name}, {kind})"
    return f"Python ({sim.routing.name})"


#: re-entry kinds of ``_ckernel.counters`` (keys ``reentries_<kind>``).
_REENTRY_KINDS = ("call", "gen", "promote", "sink", "decide", "injection")


def _kernel_counters(sim) -> dict[str, int] | None:
    """The compiled kernel's counters for *sim*'s queue; None on the
    python backend."""
    if sim.engine_backend != "compiled":
        return None
    from repro.engine import _ckernel

    return _ckernel.counters(sim.engine)


def _backend(sim) -> str:
    """The resolved backend, with the reason when ``auto`` fell back."""
    name = sim.engine_backend
    error = compiled_import_error() if name == "python" else None
    if error is not None and (os.environ.get(BACKEND_ENV) or "auto") == "auto":
        return f"{name} (auto fell back: {error})"
    return name


def _peak_rss_mb() -> float:
    """The process's peak resident set size (``ru_maxrss``), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _injection_backlog(sim) -> tuple[int, int]:
    """(built heads, tail pairs) queued at injection."""
    queued = pairs = 0
    for r in sim.routers:
        queued += r.injection_backlog()
        pairs += sum(r.tail_len(port) for port in range(r._num_node_ports))
    return queued - pairs, pairs


def describe_callbacks(metrics: dict[str, Any]) -> str:
    """The report lines on what the run still paid Python for."""
    wall = metrics["wall_s"]
    decide_share = metrics["decide_s"] / wall if wall else 0.0
    lines = (
        f"python-callback share: gen + sink {metrics['callback_s']:.3f}s "
        f"({metrics['callback_share']:.1%} of wall), decide "
        f"{metrics['decide_s']:.3f}s ({decide_share:.1%}) in "
        f"{metrics['decide_calls']} calls\n"
        f"decide: {metrics['decide_path']}"
    )
    counters = metrics.get("kernel_counters")
    if counters:
        reentries = " ".join(
            f"{kind}={counters[f'reentries_{kind}']}" for kind in _REENTRY_KINDS
        )
        rest = " ".join(
            f"{name}={counters[name]}"
            for name in (
                "inbox_records",
                "full_mirrors",
                "peak_pending_records",
                "peak_bucket_len",
            )
        )
        steps = counters["steps"]
        lines += (
            f"\nkernel: drains={counters['drains']} "
            f"reentries({reentries}) {rest} steps={steps} "
            f"scan_keys={counters['scan_keys']} "
            f"({counters['scan_keys'] / steps if steps else 0.0:.2f} per scan) "
            f"memo_hits={counters['memo_hits']} "
            f"index_reloads={counters['index_reloads']} "
            f"inq_absorbed={counters['inq_absorbed']} "
            f"packets_materialized={counters['packets_materialized']} "
            f"peak_packet_rows={counters['peak_packet_rows']}"
        )
    heads, pairs = metrics["injection_backlog"]
    pool = (
        f"peak_packet_rows={counters['peak_packet_rows']} "
        f"peak_tail_records={counters['peak_tail_records']} "
        if counters
        else ""
    )
    gens = " ".join(f"gen{gen}={n}" for gen, n in enumerate(metrics["gc_collections"]))
    lines += (
        f"\nbackend: {metrics['backend']}"
        f"\nmemory: peak_rss={metrics['peak_rss_mb']:.1f}MB {pool}"
        f"freed_on_drop={'yes' if metrics['freed_on_drop'] else 'no'} "
        f"injection_backlog={heads + pairs} (heads={heads} tail={pairs})"
        f"\ncollector: {gens} collected={metrics['gc_collected']} "
        f"in {metrics['gc_s']:.3f}s"
    )
    return lines


class _CollectorWatch:
    """A :data:`gc.callbacks` hook tallying the collector's work."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.collected = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._start
        self.collections[info["generation"]] += 1
        self.collected += info["collected"]


def profile_simulation(
    config: SimulationConfig,
    *,
    sort: str = "tottime",
    limit: int = 25,
    dump_path: str | None = None,
) -> tuple[SimulationResult, str, dict[str, Any]]:
    """Run one simulation under cProfile.

    Returns ``(result, report, metrics)`` where *report* is the rendered
    top-N function table sorted by *sort* and *metrics* carries the
    engine rates (``wall_s``, ``events``, ``activations``,
    ``events_per_s``, ``activations_per_s`` — wall time measured *under
    the profiler*, so the rates are only comparable to other profiled
    runs) plus the python-callback share (``callback_s``,
    ``callback_share``: cumulative profiled time in the traffic-gen and
    delivery-sink callbacks, as seconds and as a fraction of the wall;
    ``decide_s``, ``decide_calls``: the same for the mechanisms' Python
    ``decide``; ``decide_path``: which ``decide`` the run resolved to;
    ``kernel_counters``: the compiled kernel's own counters, None on the
    python backend; ``gc_collections`` (per generation), ``gc_collected``
    and ``gc_s``: the cycle collector's work while the cell was built and
    run; ``backend``: the resolved backend, with the ImportError when
    ``auto`` fell back; ``peak_rss_mb``: the process's peak RSS;
    ``injection_backlog``: the (heads, tail pairs) queued at injection
    at the horizon; ``freed_on_drop``: whether dropping the simulation
    freed it at once, with the collector not involved —
    :func:`describe_callbacks` renders all of these).
    With *dump_path* the raw profile is additionally written for offline
    viewers (snakeviz, pstats).
    """
    from repro.core.simulation import Simulation

    if sort not in PROFILE_SORTS:
        raise ValueError(
            f"unknown profile sort {sort!r}; expected one of {PROFILE_SORTS}"
        )
    watch = _CollectorWatch()
    gc.callbacks.append(watch)
    profiler = cProfile.Profile()
    try:
        sim = Simulation(config)
        profiler.enable()
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
    finally:
        profiler.disable()
        gc.callbacks.remove(watch)
    if dump_path is not None:
        profiler.dump_stats(dump_path)
    engine = sim.engine
    callback_s, decide_s, decide_calls = _callback_seconds(profiler)
    metrics = {
        "wall_s": wall,
        "events": engine.processed,
        "activations": engine.activations,
        "events_per_s": engine.processed / wall if wall else 0.0,
        "activations_per_s": engine.activations / wall if wall else 0.0,
        "callback_s": callback_s,
        "callback_share": callback_s / wall if wall else 0.0,
        "decide_s": decide_s,
        "decide_calls": decide_calls,
        "decide_path": _decide_path(sim),
        "kernel_counters": _kernel_counters(sim),
        "gc_collections": tuple(watch.collections),
        "gc_collected": watch.collected,
        "gc_s": watch.seconds,
        "backend": _backend(sim),
        "peak_rss_mb": _peak_rss_mb(),
        "injection_backlog": _injection_backlog(sim),
    }
    ref = weakref.ref(sim)
    del sim
    metrics["freed_on_drop"] = ref() is None
    return result, render_profile(profiler, sort=sort, limit=limit), metrics


def render_profile(
    profiler: cProfile.Profile, *, sort: str = "tottime", limit: int = 25
) -> str:
    """Render a profiler's top-*limit* functions as a text table."""
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return buf.getvalue()
