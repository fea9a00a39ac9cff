"""The six benchmark workloads.

Each workload generates its inputs from the run seed (the program only
ever sees :class:`repro.config.SimulationConfig` objects), times its own
calls into public functions of ``repro`` and checks the outputs.  Why
each exists is recorded in ``BENCHMARK.json`` and ``README.md``.

Importing this module imports ``repro``: the worker stamps its start
time first, so the import is part of ``setup_s``.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import pstats
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from benchlib import Tracer, derive_seed, duration, fingerprint
from repro.analysis.figures import FIGURE2_MECHANISMS, figure2_sweeps, format_figure2
from repro.config import SimulationConfig, small_config
from repro.core.simulation import Simulation, run_simulation
from repro.engine.kernel import resolve_backend
from repro.exec.aggregate import average_results
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import Runner
from repro.exec.serialize import canonical_json, result_from_dict, result_to_dict
from repro.exec.store import ResultStore
from repro.service.client import ServiceClient, run_plan
from repro.service.protocol import FrameDecoder, encode_frame
from repro.service.server import PlanService, ServiceConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic.scenarios import SCENARIOS

#: pool workers / client connections: the load comes from one process.
JOBS = min(2, len(os.sched_getaffinity(0)))

SMALL = small_config(warmup_cycles=800, measure_cycles=1500)
H3 = SMALL.with_network(p=3, a=6, h=3)

FIG2C_LOADS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
FIG2C_SEEDS = 3
FIG2C_TITLE = "Figure 2c (ADVc, transit priority)"

#: serve_2tenants grid: 3 x 5 x 4 = 60 unique cells per round; tenant A
#: takes the first 40, tenant B the last 40, so the middle 20 are shared.
SERVE_ROUTINGS = ("min", "src-crg", "in-trns-mm")
SERVE_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)
SERVE_SEEDS = 4
SERVE_TENANT_CELLS = 40


class OpFailed(Exception):
    """An op produced a wrong or unexpected output."""


@dataclass
class OpResult:
    """What one op delivered, how long it took and what it counted."""

    wall: float
    cells: int  # cells delivered to the caller
    events: int  # simulated events behind those cells
    fingerprint: str
    counts: dict[str, float] = field(default_factory=dict)  # exact; summed
    timings: dict[str, float] = field(default_factory=dict)  # seconds; median
    timed: bool = True  # False: left out of the end-to-end metrics


@dataclass
class CellStats:
    """Simulated statistics of a list of results, for ``model.*``."""

    events: int
    fingerprint: str
    counts: dict[str, float]


def summarize(results) -> CellStats:
    results = list(results)
    return CellStats(
        events=sum(r.events_processed for r in results),
        fingerprint=fingerprint(result_to_dict(r) for r in results),
        counts={
            "model.cells": len(results),
            "model.accepted_load": sum(r.accepted_load for r in results),
            "model.avg_latency_cycles": sum(r.avg_latency for r in results),
            "model.delivered_packets": sum(r.delivered_packets for r in results),
        },
    )


def python_mismatch(config: SimulationConfig, expected: dict[str, Any]) -> int:
    """1 when *config* on the interpreted backend differs from *expected*."""
    again = run_simulation(config, engine_backend="python")
    return int(result_to_dict(again) != expected)


class Workload:
    """Base: inputs from the seed, a timed op, output checks, probes."""

    name: str
    pinned_ops: int  # always run; exact counts and fingerprints cover these
    #: what a traced run must read on this workload, whatever the host.
    invariants: dict[str, float] = {}

    def __init__(self, seed: int, tracer: Tracer, tmp: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp

    def cell_seed(self, index: int | str) -> int:
        return derive_seed(self.seed, self.name, index)

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def rerun(self) -> OpResult:
        """Op 0 again; its fingerprint must repeat (determinism check)."""
        return self.run_op(0)

    def resolved(self) -> tuple[str, bool]:
        """The engine backend and lowering the workload actually ran on."""
        raise NotImplementedError

    def probes(self, op_wall_p50: float) -> dict[str, float]:
        """Traced run only (the tracer is on): layer measurements made
        outside the timed ops."""
        return {}

    def close(self) -> None:
        pass

    def scratch(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)


# ----------------------------------------------------------------------
# single cells
# ----------------------------------------------------------------------
class CellWorkload(Workload):
    """One op = construct + start + drain + collect of one cell."""

    pinned_ops = 4

    def __init__(
        self,
        name: str,
        base: SimulationConfig,
        backend: str,
        lowered: bool,
        *args,
    ) -> None:
        super().__init__(*args)
        self.name = name
        self.base = base
        self.backend = backend
        self.lowered = lowered
        self.first: tuple[SimulationConfig, dict[str, Any]] | None = None
        self.max_min = 0.0
        # A lowered run never calls the pattern back (a call would be a
        # silent unlowering) and MIN routing never reaches decide().
        self.invariants = {}
        if lowered:
            self.invariants["traffic.dest_calls"] = 0
        if base.routing == "min":
            self.invariants["routing.decide_calls"] = 0

    def config(self, index: int | str) -> SimulationConfig:
        return self.base.with_(seed=self.cell_seed(index))

    def setup(self) -> None:
        cfg = self.base
        net, rc = cfg.network, cfg.router
        hop = rc.pipeline_latency + cfg.traffic.packet_size
        with self.tracer.span("topology.build"):
            topo = DragonflyTopology(net)
            topo.min_service_table(
                hop + net.local_link_latency,
                hop + net.global_link_latency,
                hop + net.node_link_latency,
            )
        self.shape = {
            "topology.routers": topo.num_routers,
            "topology.nodes": topo.num_nodes,
        }
        self._cell(self.config("warmup"))

    def _cell(self, cfg: SimulationConfig):
        span = self.tracer.span
        with span("core.construct"):
            sim = Simulation(cfg, engine_backend=self.backend)
        with span("core.start"):
            sim.start()
        with span("engine.drain"):
            sim.engine.run_until(cfg.total_cycles)
        with span("core.collect"):
            result = sim._collect()
        return sim, result

    def run_op(self, index: int) -> OpResult:
        cfg = self.config(index)
        t0 = time.perf_counter()
        with self.tracer.span("op"):
            sim, result = self._cell(cfg)
        wall = time.perf_counter() - t0
        lowered = sim._lower is not None
        if sim.engine_backend != self.backend or lowered != self.lowered:
            raise OpFailed(
                f"ran on backend={sim.engine_backend} lowered={lowered}, "
                f"the workload names backend={self.backend} lowered={self.lowered}"
            )
        if cfg.oracle and not (result.oracle and result.oracle["passed"]):
            raise OpFailed(f"oracle verdict: {result.oracle}")
        stats = summarize([result])
        if self.first is None:
            self.first = (cfg, result_to_dict(result))
            ratio = result.fairness.max_min_ratio
            self.max_min = ratio if ratio < float("inf") else 0.0
        stats.counts["engine.events"] = result.events_processed
        stats.counts["engine.activations"] = sim.engine.activations
        return OpResult(wall, 1, stats.events, stats.fingerprint, stats.counts)

    def resolved(self) -> tuple[str, bool]:
        return self.backend, self.lowered

    def probes(self, op_wall_p50: float) -> dict[str, float]:
        out = dict(self.shape)
        out["model.max_min_injection"] = self.max_min
        out.update(self._profile())
        if self.backend == "compiled" and self.first is not None:
            out["model.backend_mismatches"] = python_mismatch(*self.first)
        return out

    def _profile(self) -> dict[str, float]:
        """cProfile the drain of the pinned cells, bucketed by module."""
        prof = cProfile.Profile()
        audit = 0.0
        for index in range(self.pinned_ops):
            cfg = self.config(index)
            sim = Simulation(cfg, engine_backend=self.backend)
            sim.start()
            prof.enable()
            sim.engine.run_until(cfg.total_cycles)
            prof.disable()
            t0 = time.perf_counter()
            sim._collect()
            audit += time.perf_counter() - t0
        out = bucket_profile(pstats.Stats(prof).stats, self.pinned_ops)
        # With the oracle on, collect is the post-horizon drain and audit.
        out["metrics.oracle_s"] = audit / self.pinned_ops if cfg.oracle else 0.0
        return out


PROFILED_MODULES = ("core", "engine", "routing", "hardware", "traffic", "metrics")


def profile_module(filename: str) -> str | None:
    """``src/repro/<module>/...`` -> ``<module>``."""
    _, sep, rest = filename.replace(os.sep, "/").rpartition("/repro/")
    module, slash, _ = rest.partition("/")
    return module if sep and slash else None


def bucket_profile(stats: dict, ops: int) -> dict[str, float]:
    """Per-op self seconds by module, and exact call counts, of a drain.

    A Python function's self time goes to its module; a builtin's goes
    to the module of whichever function called it.  The compiled drain
    is its own bucket, and every call it makes back into Python counts
    as a re-entry.
    """
    self_s = dict.fromkeys(PROFILED_MODULES, 0.0)
    c_self = total = 0.0
    reentries = decide_calls = dest_calls = 0
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        total += tottime
        is_drain = filename == "~" and "_ckernel.drain" in func
        if is_drain:
            c_self += tottime
            continue
        for (caller_file, _l, caller_func), (nc, _c, tt, _t) in callers.items():
            if caller_file == "~" and "_ckernel.drain" in caller_func:
                reentries += nc
            if filename == "~":
                module = profile_module(caller_file)
                if module in self_s:
                    self_s[module] += tt
        module = profile_module(filename)
        if module in self_s:
            self_s[module] += tottime
        if module == "routing" and func == "decide":
            decide_calls += ncalls
        if module == "traffic" and func == "dest":
            dest_calls += ncalls
    out = {f"{module}.py_self_s": s / ops for module, s in self_s.items()}
    out["engine.c_drain_self_s"] = c_self / ops
    out["engine.py_reentries"] = reentries
    out["routing.decide_calls"] = decide_calls
    out["traffic.dest_calls"] = dest_calls
    out["routing.share_of_drain"] = self_s["routing"] / total if total else 0.0
    return out


# ----------------------------------------------------------------------
# Fig.-2c sweeps
# ----------------------------------------------------------------------
def fig2c_plan(base: SimulationConfig, seeds: int = FIG2C_SEEDS) -> ExperimentPlan:
    """The grid ``figure2_sweeps`` builds for *base* (7 x 7 x seeds)."""
    return ExperimentPlan.merge(
        ExperimentPlan.sweep(base.with_(routing=mech), FIG2C_LOADS, seeds=seeds)
        for mech in FIGURE2_MECHANISMS
    )


class PoolWorkload(Workload):
    """Cells run in pool workers, which read the backend from the env."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        os.environ["REPRO_ENGINE_BACKEND"] = "compiled"
        self.first_cell: SimulationConfig | None = None

    def advc_base(self, index: int | str) -> SimulationConfig:
        return SMALL.with_traffic(pattern="advc").with_(seed=self.cell_seed(index))

    def resolved(self) -> tuple[str, bool]:
        backend = resolve_backend(None).name
        lowered = Simulation(self.first_cell)._lower is not None
        return backend, lowered

    def reference_mismatch(self, store: ResultStore, plan: ExperimentPlan) -> int:
        cell = plan.cells[0]
        return python_mismatch(cell.config, result_to_dict(store.load(cell.digest)))


class SweepCold(PoolWorkload):
    """One op = plan -> Runner over a fresh store -> offline render."""

    name = "sweep_fig2c"
    pinned_ops = 1
    first = None  # (plan, PlanResult) of op 0, for the probes

    def setup(self) -> None:
        with self.tracer.span("exec.plan_build"):
            plan = fig2c_plan(self.advc_base(0))
            plan.digest
            plan.cell_digests()
        self.first_cell = plan.cells[0].config

    def run_op(self, index: int) -> OpResult:
        span = self.tracer.span
        base = self.advc_base(index)
        store_dir = self.scratch()
        try:
            t0 = time.perf_counter()
            with span("op"):
                with span("exec.plan_build"):
                    plan = fig2c_plan(base)
                    digests = plan.cell_digests()
                with span("exec.runner_wall"):
                    res = Runner(jobs=JOBS, store=store_dir).run(plan)
                res.raise_for_failures()
                with span("analysis.offline_sweeps"):
                    sweeps = figure2_sweeps(
                        base,
                        FIG2C_LOADS,
                        seeds=FIG2C_SEEDS,
                        store=store_dir,
                        offline=True,
                    )
                with span("analysis.render"):
                    format_figure2(sweeps, title=FIG2C_TITLE)
            wall = time.perf_counter() - t0
            if res.computed != len(digests):
                raise OpFailed(f"computed {res.computed} of {len(digests)} cells")
            if tuple(ResultStore(store_dir).digests()) != digests:
                raise OpFailed("the store does not hold exactly the plan's cells")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        results = res.cell_results()
        stats = summarize(results)
        if self.first is None:
            self.first = (plan, res)
        stats.counts.update(
            {
                "engine.events": stats.events,
                "exec.computed": res.computed,
                "exec.cached": res.cached,
                "exec.retried": len(res.retried),
                "exec.failures": len(res.failures),
            }
        )
        return OpResult(wall, len(results), stats.events, stats.fingerprint, stats.counts)

    def probes(self, op_wall_p50: float) -> dict[str, float]:
        span = self.tracer.span
        plan, res = self.first
        digests = plan.cell_digests()
        results = [res.results[d] for d in digests]
        n = len(results)
        out = {}
        with span("exec.serialize") as timed:
            for r in results:
                canonical_json(result_to_dict(r))
        out["exec.serialize_s_per_cell"] = duration(timed) / n
        store = ResultStore(self.scratch())
        with span("exec.store_save") as timed:
            paths = [store.save(d, r) for d, r in zip(digests, results)]
        out["exec.store_save_s_per_cell"] = duration(timed) / n
        out["exec.store_bytes_per_cell"] = sum(p.stat().st_size for p in paths) / n
        out["model.backend_mismatches"] = self.reference_mismatch(store, plan)
        with span("exec.pool_spawn"), ProcessPoolExecutor(max_workers=JOBS) as pool:
            list(pool.map(abs, range(JOBS)))
        # Base: Runner(jobs=1) on the 1-seed sub-grid (49 cells, no store).
        sub = fig2c_plan(self.advc_base(0), seeds=1)
        walls = {}
        for jobs in (1, JOBS):
            with span(f"exec.runner_jobs{jobs}") as timed:
                Runner(jobs=jobs).run(sub).raise_for_failures()
            walls[jobs] = duration(timed)
        out["exec.parallel_efficiency"] = walls[1] / (JOBS * walls[JOBS])
        return out


class SweepCached(PoolWorkload):
    """One op = offline sweeps + render from a store primed in set-up."""

    name = "sweep_fig2c_cached"
    pinned_ops = 8
    invariants = {"engine.events": 0}

    def setup(self) -> None:
        self.base = self.advc_base(0)
        self.store_dir = self.scratch()
        self.plan = fig2c_plan(self.base)
        self.first_cell = self.plan.cells[0].config
        sweeps = figure2_sweeps(
            self.base,
            FIG2C_LOADS,
            seeds=FIG2C_SEEDS,
            jobs=JOBS,
            store=self.store_dir,
        )
        self.cold_text = format_figure2(sweeps, title=FIG2C_TITLE)
        store = ResultStore(self.store_dir)
        self.primed = summarize(store.load(cell.digest) for cell in self.plan)

    def run_op(self, index: int) -> OpResult:
        span = self.tracer.span
        t0 = time.perf_counter()
        with span("op"):
            with span("analysis.offline_sweeps"):
                sweeps = figure2_sweeps(
                    self.base,
                    FIG2C_LOADS,
                    seeds=FIG2C_SEEDS,
                    store=self.store_dir,
                    offline=True,
                )
            with span("analysis.render"):
                text = format_figure2(sweeps, title=FIG2C_TITLE)
        wall = time.perf_counter() - t0
        if text != self.cold_text:
            raise OpFailed("the cached render differs from the cold render")
        # The engine simulates nothing here: the events were simulated in
        # set-up and are only delivered again.
        counts = {**self.primed.counts, "engine.events": 0, "exec.cached": 147}
        return OpResult(
            wall,
            len(self.plan),
            self.primed.events,
            fingerprint([self.primed.fingerprint, text]),
            counts,
        )

    def probes(self, op_wall_p50: float) -> dict[str, float]:
        span = self.tracer.span
        store = ResultStore(self.store_dir)
        digests = self.plan.cell_digests()
        n = len(digests)
        out = {}
        with span("exec.store_load") as timed:
            for d in digests:
                store.load(d)
        out["exec.store_load_s_per_cell"] = duration(timed) / n
        entries = [
            json.loads((store.root / f"{d}.json").read_text())["result"]
            for d in digests
        ]
        with span("exec.deserialize") as timed:
            results = [result_from_dict(entry) for entry in entries]
        out["exec.deserialize_s_per_cell"] = duration(timed) / n
        by_digest = dict(zip(digests, results))
        points: dict[str, list] = {}
        for cell in self.plan:
            points.setdefault(cell.parent_digest, []).append(by_digest[cell.digest])
        with span("exec.aggregate"):
            for group in points.values():
                average_results(group)
        out["model.backend_mismatches"] = self.reference_mismatch(store, self.plan)
        return out


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Serve(PoolWorkload):
    """Closed loop, two tenants, one in-process daemon; one op = a round."""

    name = "serve_2tenants"
    pinned_ops = 1
    host = "127.0.0.1"

    loop: asyncio.AbstractEventLoop | None = None

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.store = ResultStore(self.scratch())
        self.service = PlanService(
            self.store, ServiceConfig(host=self.host, port=0, max_workers=JOBS)
        )
        with self.tracer.span("service.start"):
            self.loop.run_until_complete(self.service.start())
        self.loop.run_until_complete(self._ping())
        self.round0: list[dict[str, dict[str, Any]]] | None = None
        self.first_cell = self.round_plan(0).cells[0].config

    async def _ping(self) -> None:
        client = ServiceClient(self.host, self.service.port)
        await client.connect()
        try:
            await client.ping()
        finally:
            await client.close()

    def round_plan(self, index: int) -> ExperimentPlan:
        return ExperimentPlan.grid(
            self.advc_base(index),
            routings=SERVE_ROUTINGS,
            loads=SERVE_LOADS,
            seeds=SERVE_SEEDS,
        )

    @staticmethod
    def tenants(plan: ExperimentPlan) -> list[ExperimentPlan]:
        return [
            ExperimentPlan(plan.cells[:SERVE_TENANT_CELLS]),
            ExperimentPlan(plan.cells[-SERVE_TENANT_CELLS:]),
        ]

    def run_op(self, index: int) -> OpResult:
        plan = self.round_plan(index)
        tenants = self.tenants(plan)
        first_result: list[float] = []

        def on_event(event: dict[str, Any]) -> None:
            if not first_result and event["type"] == "cell_done":
                first_result.append(time.perf_counter())

        async def round_() -> list:
            return await asyncio.gather(
                *(
                    run_plan(self.host, self.service.port, tenant, on_event=on_event)
                    for tenant in tenants
                )
            )

        before = dict(self.service.scheduler.counters)
        t0 = time.perf_counter()
        with self.tracer.span("op"), self.tracer.span("service.round"):
            outcomes = self.loop.run_until_complete(round_())
        wall = time.perf_counter() - t0
        delta = {
            k: v - before[k] for k, v in self.service.scheduler.counters.items()
        }
        for outcome in outcomes:
            if not outcome.ok or len(outcome.cells) != SERVE_TENANT_CELLS:
                errors = [outcome.cells[d].get("error") for d in outcome.failed]
                raise OpFailed(
                    f"tenant got {len(outcome.cells)} cells, {len(errors)} "
                    f"cell_failed (first: {errors[:1]}), "
                    f"{len(outcome.oracle_failures)} oracle failures"
                )
        unique = len(plan.cell_digests())
        shared = 2 * SERVE_TENANT_CELLS - unique
        deduped = delta["coalesced"] + delta["cache_hits"]
        if delta["computed"] != unique or deduped != shared or delta["failed"]:
            raise OpFailed(f"scheduler counted {delta}, expected {unique}+{shared}")
        stats = summarize(self.store.load(cell.digest) for cell in plan)
        if self.round0 is None:
            self.round0 = [o.cells for o in outcomes]
        stats.counts.update(
            {
                "engine.events": stats.events,
                "service.computed": delta["computed"],
                "service.coalesced": delta["coalesced"],
                "service.cache_hits": delta["cache_hits"],
                "service.retried": delta["retried"],
                "service.requested": 2 * SERVE_TENANT_CELLS,
            }
        )
        return OpResult(
            wall,
            2 * SERVE_TENANT_CELLS,
            stats.events,
            stats.fingerprint,
            stats.counts,
            {"service.first_result_s": first_result[0] - t0},
        )

    def rerun(self) -> OpResult:
        """Replay round: resubmit round 0; nothing may be computed again."""
        if self.round0 is None:
            raise OpFailed("round 0 did not complete; nothing to replay")
        plan = self.round_plan(0)
        acks: list[float] = []

        async def tenant(sub: ExperimentPlan) -> dict[str, dict[str, Any]]:
            client = ServiceClient(self.host, self.service.port)
            await client.connect()
            try:
                t0 = time.perf_counter()
                await client.submit(sub)
                acks.append(time.perf_counter() - t0)
                return {
                    e["digest"]: e
                    async for e in client.events()
                    if e["type"] in ("cell_done", "cell_failed")
                }
            finally:
                await client.close()

        async def round_() -> list:
            return await asyncio.gather(*(tenant(sub) for sub in self.tenants(plan)))

        before = self.service.scheduler.counters["computed"]
        t0 = time.perf_counter()
        with self.tracer.span("op"), self.tracer.span("service.cached_round"):
            replayed = self.loop.run_until_complete(round_())
        wall = time.perf_counter() - t0
        if self.service.scheduler.counters["computed"] != before:
            raise OpFailed("the replay round computed cells again")
        for got, want in zip(replayed, self.round0):
            if {d: e["metrics"] for d, e in got.items()} != {
                d: e["metrics"] for d, e in want.items()
            }:
                raise OpFailed("the replay round delivered different results")
        stats = summarize(self.store.load(cell.digest) for cell in plan)
        return OpResult(
            wall,
            2 * SERVE_TENANT_CELLS,
            stats.events,
            stats.fingerprint,
            timings={"service.cached_round_s": wall, "service.submit_ack_s": max(acks)},
            timed=False,
        )

    def probes(self, op_wall_p50: float) -> dict[str, float]:
        out = {}
        plan = self.round_plan(0)
        cell = plan.cells[0]
        event = {
            "type": "cell_done",
            "plan": plan.digest,
            "digest": cell.digest,
            "provenance": "computed",
            "attempts": 1,
            "oracle": None,
            "metrics": next(iter(self.round0[0].values()))["metrics"],
        }
        reps = 2000
        t0 = time.perf_counter()
        for _ in range(reps):
            FrameDecoder().feed(encode_frame(event))
        out["service.frame_roundtrip_us"] = (time.perf_counter() - t0) / reps * 1e6
        # Base: Runner(jobs=JOBS) over a fresh store on round 0's unique cells.
        with self.tracer.span("exec.runner_wall") as timed:
            Runner(jobs=JOBS, store=self.scratch()).run(plan).raise_for_failures()
        out["service.overhead_vs_runner"] = op_wall_p50 / duration(timed)
        out["model.backend_mismatches"] = self.reference_mismatch(self.store, plan)
        return out

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.service.shutdown())
            self.loop.close()


def cell_un_min(*args) -> Workload:
    base = H3.with_(routing="min").with_traffic(pattern="uniform", load=0.4)
    return CellWorkload("cell_un_min", base, "compiled", True, *args)


def cell_advc_mm(*args) -> Workload:
    base = H3.with_(routing="in-trns-mm").with_traffic(pattern="advc", load=0.4)
    base = base.with_router(transit_priority=True)
    return CellWorkload("cell_advc_mm", base, "compiled", True, *args)


def cell_scenario_py(*args) -> Workload:
    base = SMALL.with_(routing="in-trns-mm", oracle=True).with_traffic(load=0.4)
    base = SCENARIOS["bursty_adv"].apply(base)
    return CellWorkload("cell_scenario_py", base, "python", False, *args)


WORKLOADS = {
    "cell_un_min": cell_un_min,
    "cell_advc_mm": cell_advc_mm,
    "cell_scenario_py": cell_scenario_py,
    "sweep_fig2c": SweepCold,
    "sweep_fig2c_cached": SweepCached,
    "serve_2tenants": Serve,
}
