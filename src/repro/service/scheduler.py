"""Digest-keyed cell scheduling for the sweep daemon.

The :class:`CellScheduler` is the daemon-side twin of the PR 7
:class:`repro.exec.runner.Runner` wait loop, rebuilt for asyncio: one
shared :class:`repro.exec.store.ResultStore`, one bounded process pool,
and an **in-flight table** keyed by cell digest that gives the service
its multi-tenant economics:

* a digest already in the store is a **cache hit** — no work, any
  tenant's past computation serves every later tenant;
* a digest currently computing is **coalesced** — the second (third,
  …) subscriber awaits the same future instead of submitting a
  duplicate simulation (cache-stampede suppression);
* only a digest that is neither gets a worker slot.

Each computation reuses the Runner's machinery wholesale: the
:func:`repro.exec.runner.run_cell` worker entry point (same
``REPRO_FAULTS`` seam), the seeded :class:`~repro.exec.runner.
RetryPolicy` backoff, the :func:`~repro.exec.runner.is_retryable`
error classification, and as-it-lands persistence into the store.
Because cells are pure functions of their configs, the daemon may share
its store directory with offline ``plan run --leases`` workers — both
sides write bit-identical bytes atomically, so whoever computes a cell
first serves it to everyone.
"""

from __future__ import annotations

import asyncio
import random
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.runner import (
    RetryPolicy,
    _running,
    _terminate_workers,
    default_jobs,
    describe_error,
    is_retryable,
    run_cell,
)
from repro.exec.store import ResultStore

__all__ = ["CellOutcome", "CellScheduler"]

#: provenance labels a scheduled cell can resolve with.
PROVENANCE_COMPUTED = "computed"
PROVENANCE_CACHE_HIT = "cache_hit"
PROVENANCE_SHARED = "shared"


@dataclass(frozen=True)
class CellOutcome:
    """Terminal state of one scheduled cell, ready for the wire.

    ``provenance`` is *per subscriber*: the same computation resolves as
    ``computed`` for the tenant that triggered it and ``shared`` for
    every tenant that coalesced onto it.
    """

    digest: str
    ok: bool
    provenance: str
    attempts: int = 1
    kind: str | None = None  # "error" | "timeout" | "worker-lost"
    error: str | None = None
    oracle: bool | None = None
    metrics: dict[str, float] = field(default_factory=dict)

    def to_event(self, plan_digest: str) -> dict[str, Any]:
        """The ``cell_done``/``cell_failed`` message body for *plan*."""
        if self.ok:
            return {
                "type": "cell_done",
                "plan": plan_digest,
                "digest": self.digest,
                "provenance": self.provenance,
                "attempts": self.attempts,
                "oracle": self.oracle,
                "metrics": self.metrics,
            }
        return {
            "type": "cell_failed",
            "plan": plan_digest,
            "digest": self.digest,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


def _result_outcome(
    digest: str, result: SimulationResult, provenance: str, attempts: int = 1
) -> CellOutcome:
    oracle = None if result.oracle is None else bool(result.oracle["passed"])
    return CellOutcome(
        digest=digest,
        ok=True,
        provenance=provenance,
        attempts=attempts,
        oracle=oracle,
        metrics={
            "offered_load": result.offered_load,
            "accepted_load": result.accepted_load,
            "avg_latency": result.avg_latency,
        },
    )


class CellScheduler:
    """Shared-store, stampede-suppressing cell executor.

    ``executor``/``compute_fn`` are injection seams for tests (thread
    pools, deterministic stand-ins); production uses a lazily built
    :class:`~concurrent.futures.ProcessPoolExecutor` over
    :func:`repro.exec.runner.run_cell`.

    Every cell is submitted to the pool as soon as it is scheduled; the
    oldest ``max_workers`` unfinished calls of the live pool are the
    running ones (:func:`repro.exec.runner._running`).  A
    ``retry.cell_timeout`` counts from the moment a worker takes the
    cell, so a cell queued behind busy workers cannot time out before it
    starts; and a torn-down pool charges an attempt (``worker-lost``)
    only to the cells a worker had taken — a queued one never ran, and
    is resubmitted at no cost.  Both are the Runner's rules.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        max_workers: int | None = None,
        retry: RetryPolicy | None = None,
        executor: Executor | None = None,
        compute_fn: Callable[[str, SimulationConfig], SimulationResult] | None = None,
    ) -> None:
        self.store = store
        self.max_workers = max_workers or default_jobs()
        self.retry = retry or RetryPolicy()
        self._pool: Executor | None = executor
        self._owns_pool = executor is None
        self._compute = compute_fn or run_cell
        self._inflight: dict[str, asyncio.Future[CellOutcome]] = {}
        # Unfinished pool calls in submission order -> (their pool, the
        # signal that a worker took the call: True as it enters the
        # running window, False when it finished before its turn).
        self._calls: dict[asyncio.Future, tuple[Executor, asyncio.Future]] = {}
        self.counters: dict[str, int] = {
            "computed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "retried": 0,
            "failed": 0,
        }

    # -- scheduling ----------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Cells currently being computed (or queued on the pool)."""
        return len(self._inflight)

    async def schedule(
        self, digest: str, config: SimulationConfig
    ) -> tuple[asyncio.Future[CellOutcome], str]:
        """Resolve *digest*: returns ``(future, provenance)``.

        The provenance is this caller's: ``cache_hit`` resolves
        immediately from the store, ``shared`` awaits a computation some
        earlier caller started, ``computed`` starts one.  The shared
        future always carries the *computing* subscriber's outcome; use
        :meth:`outcome` to re-tag it for this caller.

        The store read (disk I/O, JSON parse, checksum) runs in a worker
        thread — on the event loop it would stall every connected tenant
        for the duration of each cache probe.  That makes this method a
        coroutine, so the in-flight table is checked both before the read
        (a running computation needs no disk probe) and after it (another
        caller may have started one while we were off-loop); either way
        the second subscriber coalesces instead of double-computing.
        """
        loop = asyncio.get_running_loop()
        running = self._inflight.get(digest)
        if running is not None:
            self.counters["coalesced"] += 1
            return running, PROVENANCE_SHARED
        hit = await asyncio.to_thread(self.store.load, digest)
        if hit is not None:
            self.counters["cache_hits"] += 1
            future: asyncio.Future[CellOutcome] = loop.create_future()
            future.set_result(_result_outcome(digest, hit, PROVENANCE_CACHE_HIT))
            return future, PROVENANCE_CACHE_HIT
        running = self._inflight.get(digest)
        if running is not None:
            self.counters["coalesced"] += 1
            return running, PROVENANCE_SHARED
        task = loop.create_task(self._drive(digest, config))
        self._inflight[digest] = task
        return task, PROVENANCE_COMPUTED

    async def outcome(self, digest: str, config: SimulationConfig) -> CellOutcome:
        """Schedule *digest* and await its outcome, re-tagged per caller."""
        future, provenance = await self.schedule(digest, config)
        outcome = await asyncio.shield(future)
        if outcome.ok and outcome.provenance != provenance:
            outcome = replace(outcome, provenance=provenance)
        return outcome

    # -- computation ---------------------------------------------------------
    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    async def _attempt(self, digest: str, config: SimulationConfig):
        """One charged attempt of *digest* on the pool.

        Every cell is submitted at once, so most wait in the pool's queue;
        the timeout clock starts when a worker takes this one.  A call that
        a broken pool fails before any worker took it never ran: it is
        resubmitted here, at no attempt's cost.
        """
        loop = asyncio.get_running_loop()
        timeout = self.retry.cell_timeout
        while True:
            pool = self._executor()
            call = loop.run_in_executor(pool, self._compute, digest, config)
            started = loop.create_future()
            self._calls[call] = (pool, started)
            call.add_done_callback(self._call_done)
            self._start_calls()
            try:
                if timeout is None:
                    return await call
                try:
                    await started
                except asyncio.CancelledError:
                    call.cancel()
                    raise
                # The worker itself cannot be interrupted; on timeout the
                # attempt is charged and the stray result, if it ever
                # lands, is discarded (a later duplicate save would be
                # bit-identical anyway).
                return await asyncio.wait_for(call, timeout=timeout)
            except asyncio.TimeoutError:
                # wait_for abandoned the future, but the worker is still
                # grinding the overrunning cell and holds its pool slot —
                # enough timeouts and the pool has no free workers left
                # (slot starvation).  Kill the workers and rebuild lazily.
                self._drop_pool(pool, terminate=True)
                raise
            except BrokenProcessPool:
                if started.result():
                    raise  # it ran: its work is lost
                # _call_done resolved `started` (it runs first) and dropped
                # the pool: resubmit to a fresh one

    def _start_calls(self) -> None:
        """Mark the calls a worker has taken: the oldest of the live pool."""
        live = (c for c, (pool, _) in self._calls.items() if pool is self._pool)
        for call in _running(live, self.max_workers):
            started = self._calls[call][1]
            if not started.done():
                started.set_result(True)

    def _call_done(self, call: asyncio.Future) -> None:
        pool, started = self._calls.pop(call)
        if not started.done():  # finished (or failed) before its turn
            started.set_result(False)
        if not call.cancelled() and isinstance(call.exception(), BrokenProcessPool):
            # the rest of the pool's calls never start: the window closes
            # on what had, before anything else finishes
            self._drop_pool(pool)
        self._start_calls()

    def _drop_pool(self, pool: Executor, *, terminate: bool = False) -> None:
        """Tear *pool* down if it is still the owned, live one; the next
        submission builds a fresh one."""
        if self._owns_pool and pool is self._pool:
            if terminate:
                _terminate_workers(pool)
            pool.shutdown(wait=False)
            self._pool = None

    async def _drive(self, digest: str, config: SimulationConfig) -> CellOutcome:
        """Retry loop of one cell: the Runner contract, await-shaped."""
        policy = self.retry
        rng = random.Random(f"backoff:service:{digest}")
        attempts = 0
        try:
            while True:
                attempts += 1
                try:
                    result = await self._attempt(digest, config)
                except Exception as exc:
                    kind = "error"
                    if isinstance(exc, asyncio.TimeoutError):
                        kind = "timeout"
                    elif isinstance(exc, BrokenProcessPool):
                        kind = "worker-lost"
                    retryable = kind != "error" or is_retryable(exc)
                    if retryable and attempts < policy.max_attempts:
                        await asyncio.sleep(policy.delay(attempts, rng))
                        continue
                    self.counters["failed"] += 1
                    return CellOutcome(
                        digest=digest,
                        ok=False,
                        provenance=PROVENANCE_COMPUTED,
                        attempts=attempts,
                        kind=kind,
                        error=describe_error(exc),
                    )
                # Persist off-loop too: the save fsyncs, and a tenant's
                # burst of completions must not serialize the event loop
                # behind the disk.
                await asyncio.to_thread(self.store.save, digest, result)
                self.counters["computed"] += 1
                if attempts > 1:
                    self.counters["retried"] += 1
                return _result_outcome(digest, result, PROVENANCE_COMPUTED, attempts)
        finally:
            self._inflight.pop(digest, None)

    # -- lifecycle -----------------------------------------------------------
    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for every in-flight cell; False when *timeout* expired."""
        pending = [f for f in self._inflight.values() if not f.done()]
        if not pending:
            return True
        _, left = await asyncio.wait(pending, timeout=timeout)
        return not left

    def close(self) -> None:
        """Release the worker pool (queued work is abandoned)."""
        for future in self._inflight.values():
            future.cancel()
        self._inflight.clear()
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus the in-flight gauge."""
        return {**self.counters, "inflight": len(self._inflight)}
