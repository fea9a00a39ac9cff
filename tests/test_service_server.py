"""Tests for the sweep daemon: scheduler dedup, server lifecycle, client.

Everything runs in-process over real TCP on an ephemeral port, with the
worker pool swapped for a :class:`~concurrent.futures.ThreadPoolExecutor`
(or a deterministic ``compute_fn``) so no child processes are forked.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.config import tiny_config
from repro.errors import ConfigurationError, ServiceError
from repro.exec import ExperimentPlan, ResultStore, RetryPolicy, Runner, run_cell
from repro.exec.faults import ENV_VAR, FaultSpec
from repro.service import (
    CellScheduler,
    PlanService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.client import run_plan
from repro.service.protocol import read_frame
from repro.service.server import _Subscriber

def quick_cfg(**kw):
    return tiny_config(warmup_cycles=50, measure_cycles=100, **kw)


def _grid(loads, seeds=1):
    return ExperimentPlan.grid(quick_cfg(), loads=list(loads), seeds=seeds)


def _service(tmp_path, config=None, compute_fn=None, retry=None):
    """A PlanService on port 0 whose cells compute on threads."""
    store = ResultStore(tmp_path / "store")
    from concurrent.futures import ThreadPoolExecutor

    scheduler = CellScheduler(
        store,
        retry=retry or RetryPolicy(base_delay=0.001, max_delay=0.01),
        executor=ThreadPoolExecutor(max_workers=4),
        compute_fn=compute_fn,
    )
    return PlanService(store, config or ServiceConfig(port=0), scheduler=scheduler)


class TestCellScheduler:
    def test_stampede_same_digest_computes_once(self, tmp_path):
        """Two concurrent requests for one digest share one computation."""
        gate = threading.Event()

        def gated(digest, config):
            assert gate.wait(timeout=10.0)
            return run_cell(digest, config)

        async def run():
            service = _service(tmp_path, compute_fn=gated)
            sched = service.scheduler
            cell = next(iter(_grid([0.1])))
            f1, p1 = await sched.schedule(cell.digest, cell.config)
            f2, p2 = await sched.schedule(cell.digest, cell.config)
            assert (p1, p2) == ("computed", "shared")
            assert f2 is f1  # literally the same future
            gate.set()
            o1 = await sched.outcome(cell.digest, cell.config)
            await f1
            return sched.stats(), o1

        stats, o1 = asyncio.run(run())
        assert stats["computed"] == 1
        assert stats["coalesced"] >= 1
        assert o1.ok

    def test_cache_hit_skips_the_pool(self, tmp_path):
        def explode(digest, config):
            raise AssertionError("cached digest must not reach a worker")

        async def run():
            service = _service(tmp_path, compute_fn=explode)
            cell = next(iter(_grid([0.1])))
            # Pre-compute serially, as an offline `plan run` would.
            service.store.save(cell.digest, run_cell(cell.digest, cell.config))
            outcome = await service.scheduler.outcome(cell.digest, cell.config)
            return outcome, service.scheduler.stats()

        outcome, stats = asyncio.run(run())
        assert outcome.ok and outcome.provenance == "cache_hit"
        assert stats == {**stats, "computed": 0, "cache_hits": 1}

    def test_deterministic_failure_not_retried(self, tmp_path):
        calls = []

        def broken(digest, config):
            calls.append(digest)
            raise ConfigurationError("deterministically bad cell")

        async def run():
            service = _service(tmp_path, compute_fn=broken)
            cell = next(iter(_grid([0.1])))
            return await service.scheduler.outcome(cell.digest, cell.config)

        outcome = asyncio.run(run())
        assert not outcome.ok
        assert outcome.kind == "error"
        assert outcome.attempts == 1 and len(calls) == 1
        assert "deterministically bad" in outcome.error

    def test_infrastructure_failure_retries_then_succeeds(self, tmp_path):
        calls = []

        def flaky(digest, config):
            calls.append(digest)
            if len(calls) < 3:
                raise OSError("transient worker trouble")
            return run_cell(digest, config)

        async def run():
            service = _service(tmp_path, compute_fn=flaky)
            cell = next(iter(_grid([0.1])))
            return (
                await service.scheduler.outcome(cell.digest, cell.config),
                service.scheduler.stats(),
            )

        outcome, stats = asyncio.run(run())
        assert outcome.ok and outcome.attempts == 3
        assert stats["retried"] == 1 and stats["failed"] == 0

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True])
    def test_max_workers_must_be_a_positive_integer(self, tmp_path, bad):
        """``repro serve --max-workers 0`` used to mean all cores, and -1
        a daemon that failed every cell: both are refused up front."""
        with pytest.raises(ConfigurationError, match="max_workers"):
            CellScheduler(ResultStore(tmp_path), max_workers=bad)
        with pytest.raises(ConfigurationError, match="max_workers"):
            PlanService(tmp_path, ServiceConfig(port=0, max_workers=bad))

    def test_max_workers_none_reads_repro_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert CellScheduler(ResultStore(tmp_path)).max_workers == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            CellScheduler(ResultStore(tmp_path))


class TestPlanService:
    def test_submit_streams_cells_then_plan_done(self, tmp_path):
        plan = _grid([0.1, 0.2])
        events = []

        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                outcome = await run_plan(
                    "127.0.0.1", service.port, plan, on_event=events.append
                )
            finally:
                await service.shutdown()
            return outcome, service

        outcome, service = asyncio.run(run())
        assert outcome.ok
        assert set(outcome.cells) == {c.digest for c in plan}
        assert outcome.counters["computed"] == 2
        assert [e["type"] for e in events][-1] == "plan_done"
        # Results persisted: the daemon's store now serves these digests.
        for cell in plan:
            assert service.store.load(cell.digest) is not None

    def test_overlap_across_tenants_is_cache_hit(self, tmp_path):
        plan_a, plan_b = _grid([0.1, 0.2]), _grid([0.2, 0.3])
        overlap = {c.digest for c in plan_a} & {c.digest for c in plan_b}
        assert overlap  # sanity: the grids genuinely share a cell

        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                out_a = await run_plan("127.0.0.1", service.port, plan_a)
                out_b = await run_plan("127.0.0.1", service.port, plan_b)
            finally:
                await service.shutdown()
            return out_a, out_b, service.scheduler.stats()

        out_a, out_b, stats = asyncio.run(run())
        for digest in overlap:
            assert out_a.cells[digest]["provenance"] == "computed"
            assert out_b.cells[digest]["provenance"] == "cache_hit"
        # Three unique cells across both tenants -> three computations.
        assert stats["computed"] == 3

    def test_concurrent_overlapping_tenants_share_computations(self, tmp_path):
        plan_a, plan_b = _grid([0.1, 0.2]), _grid([0.2, 0.3])
        overlap = {c.digest for c in plan_a} & {c.digest for c in plan_b}

        def slow(digest, config):
            time.sleep(0.05)
            return run_cell(digest, config)

        async def run():
            service = _service(tmp_path, compute_fn=slow)
            await service.start()
            try:
                out_a, out_b = await asyncio.gather(
                    run_plan("127.0.0.1", service.port, plan_a),
                    run_plan("127.0.0.1", service.port, plan_b),
                )
            finally:
                await service.shutdown()
            return out_a, out_b, service.scheduler.stats()

        out_a, out_b, stats = asyncio.run(run())
        assert out_a.ok and out_b.ok
        # However the two plans interleave, the union computes exactly once
        # per unique cell; the second tenant's overlap cell is served from
        # the in-flight table ("shared") or the store ("cache_hit").
        assert stats["computed"] == 3
        for digest in overlap:
            assert {
                out_a.cells[digest]["provenance"],
                out_b.cells[digest]["provenance"],
            } <= {"computed", "shared", "cache_hit"}
            assert "computed" in (
                out_a.cells[digest]["provenance"],
                out_b.cells[digest]["provenance"],
            ) or stats["cache_hits"] > 0

    def test_resubmit_same_plan_replays_history(self, tmp_path):
        plan = _grid([0.1])

        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                first = await run_plan("127.0.0.1", service.port, plan)
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                ticket = await client.submit(plan)
                replay = [e async for e in client.events()]
                await client.close()
            finally:
                await service.shutdown()
            return first, ticket, replay

        first, ticket, replay = asyncio.run(run())
        assert ticket.resumed  # same digest -> subscription, not new work
        assert ticket.plan_digest == first.plan_digest
        assert [e["type"] for e in replay] == ["cell_done", "plan_done"]

    def test_reconnect_resumes_by_plan_digest(self, tmp_path):
        plan = _grid([0.1, 0.2])
        gate = threading.Event()

        def gated(digest, config):
            assert gate.wait(timeout=10.0)
            return run_cell(digest, config)

        async def run():
            service = _service(tmp_path, compute_fn=gated)
            await service.start()
            try:
                # Tenant submits, then its connection dies mid-plan.
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                ticket = await client.submit(plan)
                await client.close()
                gate.set()
                # A fresh connection resumes the subscription by digest
                # and drains replayed history + live tail to plan_done.
                client2 = ServiceClient("127.0.0.1", service.port)
                await client2.connect()
                ticket2 = await client2.resume(ticket.plan_digest)
                events = [e async for e in client2.events()]
                await client2.close()
            finally:
                await service.shutdown()
            return ticket2, events

        ticket2, events = asyncio.run(run())
        assert ticket2.resumed
        kinds = [e["type"] for e in events]
        assert kinds.count("cell_done") == 2 and kinds[-1] == "plan_done"

    def test_resume_unknown_plan_is_an_error(self, tmp_path):
        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                with pytest.raises(ServiceError, match="unknown plan"):
                    await client.resume("f" * 64)
                await client.close()
            finally:
                await service.shutdown()

        asyncio.run(run())

    def test_pending_cell_budget_rejects_with_busy(self, tmp_path):
        async def run():
            service = _service(
                tmp_path, config=ServiceConfig(port=0, max_pending_cells=1)
            )
            await service.start()
            try:
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                with pytest.raises(ServiceError, match="busy"):
                    await client.submit(_grid([0.1, 0.2]))  # 2 fresh > budget 1
                await client.close()
            finally:
                await service.shutdown()

        asyncio.run(run())

    def test_plan_budget_rejects_with_busy(self, tmp_path):
        async def run():
            service = _service(tmp_path, config=ServiceConfig(port=0, max_plans=1))
            await service.start()
            try:
                await run_plan("127.0.0.1", service.port, _grid([0.1]))
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                with pytest.raises(ServiceError, match="busy"):
                    await client.submit(_grid([0.2]))
                await client.close()
            finally:
                await service.shutdown()

        asyncio.run(run())

    def test_submit_while_draining_is_busy(self, tmp_path):
        async def run():
            service = _service(tmp_path)
            await service.start()
            client = ServiceClient("127.0.0.1", service.port)
            await client.connect()
            service.draining = True  # shutdown() has begun
            try:
                with pytest.raises(ServiceError, match="draining"):
                    await client.submit(_grid([0.1]))
            finally:
                await client.close()
                await service.shutdown()

        asyncio.run(run())

    def test_shutdown_drains_inflight_cells_into_store(self, tmp_path):
        plan = _grid([0.1])
        started = threading.Event()
        gate = threading.Event()

        def gated(digest, config):
            started.set()
            assert gate.wait(timeout=10.0)
            return run_cell(digest, config)

        async def run():
            service = _service(tmp_path, compute_fn=gated)
            await service.start()
            client = ServiceClient("127.0.0.1", service.port)
            await client.connect()
            await client.submit(plan)
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            gate.set()
            await service.shutdown()  # must wait for the landing result
            await client.close()
            return service

        service = asyncio.run(run())
        assert service.scheduler.stats()["computed"] == 1
        assert len(service.store) == 1

    @staticmethod
    def _raw_exchange(tmp_path, *frames):
        """Send *frames* (messages, or raw payloads framed as they are) on
        one connection, reading one reply after each; return the replies
        and whatever the daemon sends before it hangs up."""

        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                replies = []
                for frame in frames:
                    if isinstance(frame, dict):
                        frame = json.dumps(frame).encode()
                    writer.write(len(frame).to_bytes(4, "big") + frame)
                    await writer.drain()
                    replies.append(await read_frame(reader))
                trailing = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await service.shutdown()
            return replies, trailing

        return asyncio.run(run())

    def test_malformed_frame_gets_error_and_disconnect(self, tmp_path):
        (reply,), trailing = self._raw_exchange(tmp_path, b"garbage")
        assert reply["type"] == "error" and "JSON" in reply["error"]
        assert trailing == b""  # daemon hung up after the error frame

    def test_too_deeply_nested_frame_gets_error_and_disconnect(self, tmp_path):
        (reply,), trailing = self._raw_exchange(tmp_path, b"[" * 100_000)
        assert reply["type"] == "error" and "JSON" in reply["error"]
        assert trailing == b""

    @pytest.mark.parametrize("plan", [[1, 2], "cells"], ids=["list", "string"])
    def test_submit_of_a_non_object_plan_is_an_error(self, tmp_path, plan):
        # The ping proves the connection survived the bad submit; the
        # closing garbage frame makes the daemon hang up.
        submit = {"type": "submit", "plan": plan}
        replies, _ = self._raw_exchange(tmp_path, submit, {"type": "ping"}, b"x")
        reply, pong, _ = replies
        assert reply["type"] == "error" and "'cells' list" in reply["error"]
        assert pong == {"type": "pong"}

    def test_stats_and_ping(self, tmp_path):
        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                await run_plan("127.0.0.1", service.port, _grid([0.1]))
                client = ServiceClient("127.0.0.1", service.port)
                await client.connect()
                await client.ping()
                stats = await client.stats()
                await client.close()
            finally:
                await service.shutdown()
            return stats

        stats = asyncio.run(run())
        assert stats["computed"] == 1
        assert stats["plans"] == 1
        assert stats["store_entries"] == 1
        assert stats["draining"] is False

    def test_idle_plans_are_evicted_but_results_persist(self, tmp_path):
        plan = _grid([0.1])

        async def run():
            service = _service(
                tmp_path, config=ServiceConfig(port=0, idle_timeout=0.05)
            )
            await service.start()
            try:
                await run_plan("127.0.0.1", service.port, plan)
                deadline = asyncio.get_running_loop().time() + 5.0
                while service.plans:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                # The streaming session is gone; the science is not —
                # resubmitting replays entirely from the store.
                outcome = await run_plan("127.0.0.1", service.port, plan)
            finally:
                await service.shutdown()
            return service.evicted_plans, outcome

        evicted, outcome = asyncio.run(run())
        assert evicted == 1
        assert outcome.ok
        assert all(c["provenance"] == "cache_hit" for c in outcome.cells.values())

    def test_store_matches_offline_runner_bit_for_bit(self, tmp_path):
        """Daemon-computed entries are byte-identical to `plan run` output."""
        plan = _grid([0.1, 0.2])

        async def run():
            service = _service(tmp_path)
            await service.start()
            try:
                await run_plan("127.0.0.1", service.port, plan)
            finally:
                await service.shutdown()
            return service

        service = asyncio.run(run())
        serial_store = ResultStore(tmp_path / "serial")
        Runner(jobs=1, store=serial_store).run(plan)
        for cell in plan:
            daemon_bytes = service.store._path(cell.digest).read_bytes()
            serial_bytes = serial_store._path(cell.digest).read_bytes()
            assert daemon_bytes == serial_bytes


class TestSubscriberBackpressure:
    def test_overflowing_subscriber_is_dropped_with_guidance(self):
        sub = _Subscriber(limit=2)
        for i in range(5):
            sub.push({"type": "cell_done", "i": i})
        assert sub.dropped
        # The backlog was traded for an actionable error + hangup sentinel.
        drained = []
        while not sub.queue.empty():
            drained.append(sub.queue.get_nowait())
        assert drained[-1] is None
        assert drained[-2]["type"] == "error"
        assert "resume" in drained[-2]["error"]

    def test_hangup_lands_even_when_queue_is_full(self):
        sub = _Subscriber(limit=2)
        sub.queue.put_nowait({"type": "cell_done"})
        sub.queue.put_nowait({"type": "cell_done"})
        sub.hangup()
        drained = []
        while not sub.queue.empty():
            drained.append(sub.queue.get_nowait())
        assert drained[-1] is None

    def test_push_after_drop_is_a_no_op(self):
        sub = _Subscriber(limit=2)
        sub.hangup()
        sub.push({"type": "cell_done"})
        assert sub.queue.qsize() == 1  # just the sentinel


def _sleepy_cell(digest, config):  # module level: picklable for a real pool
    time.sleep(30)


def _napping_cell(digest, config):  # module level: picklable for a real pool
    time.sleep(0.3)
    return run_cell(digest, config)


class TestSchedulerTimeoutClock:
    def test_queued_cells_do_not_time_out_before_they_start(self, tmp_path):
        """One worker, three 0.3 s cells, a 0.5 s timeout: the third cell
        waits 0.6 s in the pool's queue, which must not count."""

        async def run():
            store = ResultStore(tmp_path / "store")
            sched = CellScheduler(
                store,
                max_workers=1,
                retry=RetryPolicy(max_attempts=1, cell_timeout=0.5),
                compute_fn=_napping_cell,
            )
            try:
                cells = list(_grid([0.1, 0.2, 0.3]))
                return await asyncio.gather(
                    *(sched.outcome(c.digest, c.config) for c in cells)
                )
            finally:
                sched.close()

        outcomes = asyncio.run(run())
        assert [(o.ok, o.kind) for o in outcomes] == [(True, None)] * 3


class TestSchedulerPoolHygiene:
    def test_timeout_tears_down_owned_pool(self, tmp_path):
        """A timed-out cell's worker keeps grinding and would hold its
        pool slot forever; the scheduler must reclaim it by tearing the
        owned pool down (rebuilt lazily), like the broken-pool path."""

        async def run():
            store = ResultStore(tmp_path / "store")
            sched = CellScheduler(
                store,
                max_workers=1,
                retry=RetryPolicy(max_attempts=1, cell_timeout=0.25),
                compute_fn=_sleepy_cell,
            )
            try:
                cell = next(iter(_grid([0.1])))
                outcome = await sched.outcome(cell.digest, cell.config)
                torn_down = sched._pool is None
                rebuilt = sched._executor() is not None
                return outcome, torn_down, rebuilt
            finally:
                sched.close()

        outcome, torn_down, rebuilt = asyncio.run(run())
        assert not outcome.ok and outcome.kind == "timeout"
        assert torn_down  # the starved slot was reclaimed with the pool
        assert rebuilt  # and the next computation gets a fresh pool

    def test_broken_pool_charges_only_started_cells(self, monkeypatch, tmp_path):
        """One worker, one attempt per cell, three cells: the worker dies
        after the first cell it runs, which fails all three pool calls.
        Only that cell had started, so only it is charged ``worker-lost``;
        the two queued behind it never ran and complete in a fresh pool."""
        spec = FaultSpec(ledger=str(tmp_path / "ledger"), kill_after=1)
        monkeypatch.setenv(ENV_VAR, spec.to_env())

        async def run():
            sched = CellScheduler(
                ResultStore(tmp_path / "store"),
                max_workers=1,
                retry=RetryPolicy(max_attempts=1),
            )
            try:
                cells = list(_grid([0.1, 0.2, 0.3]))
                return await asyncio.gather(
                    *(sched.outcome(c.digest, c.config) for c in cells)
                )
            finally:
                sched.close()

        outcomes = asyncio.run(run())
        assert sorted((o.ok, o.kind or "") for o in outcomes) == [
            (False, "worker-lost"),
            (True, ""),
            (True, ""),
        ]
        assert [o.attempts for o in outcomes] == [1, 1, 1]

    def test_timeout_leaves_injected_executor_alone(self, tmp_path):
        """Teardown applies only to the pool the scheduler owns."""
        from concurrent.futures import ThreadPoolExecutor

        release = threading.Event()

        def sleepy(digest, config):
            release.wait(timeout=10.0)

        pool = ThreadPoolExecutor(max_workers=1)

        async def run():
            store = ResultStore(tmp_path / "store")
            sched = CellScheduler(
                store,
                retry=RetryPolicy(max_attempts=1, cell_timeout=0.1),
                executor=pool,
                compute_fn=sleepy,
            )
            cell = next(iter(_grid([0.1])))
            outcome = await sched.outcome(cell.digest, cell.config)
            return outcome, sched._pool

        try:
            outcome, kept = asyncio.run(run())
        finally:
            release.set()
            pool.shutdown(wait=True)
        assert outcome.kind == "timeout"
        assert kept is pool  # injected executor untouched


class TestDaemonFailureJournal:
    def test_daemon_failures_reach_store_journal(self, tmp_path):
        """Cells that exhaust their attempts under the daemon land in the
        store's failures journal exactly like Runner.run's, so `repro
        plan status` pointed at the shared store sees them; a later clean
        run of the plan clears the journal again."""
        plan = _grid([0.1, 0.2])
        bad = sorted(c.digest for c in plan)[0]

        def broken_one(digest, config):
            if digest == bad:
                raise ConfigurationError("deterministically poisoned")
            return run_cell(digest, config)

        async def run(compute_fn):
            service = _service(tmp_path, compute_fn=compute_fn)
            await service.start()
            try:
                outcome = await run_plan("127.0.0.1", service.port, plan)
            finally:
                await service.shutdown()
            return outcome, service

        outcome, service = asyncio.run(run(broken_one))
        assert outcome.counters["failed"] == 1
        records = service.store.read_failures(outcome.plan_digest)
        assert [r["digest"] for r in records] == [bad]
        assert records[0]["kind"] == "error"
        assert records[0]["quarantined"] is True
        assert "poisoned" in records[0]["error"]

        # A clean rerun (healthy compute, same store) clears the journal.
        outcome2, service2 = asyncio.run(run(None))
        assert outcome2.ok
        assert service2.store.read_failures(outcome2.plan_digest) == []
        assert not service2.store.failures_path.exists()
