"""Digest-keyed cell scheduling for the sweep daemon.

The :class:`CellScheduler` keeps what is specific to the daemon — one
shared :class:`repro.exec.store.ResultStore`, per-subscriber provenance,
counters, and an **in-flight table** keyed by cell digest that gives the
service its multi-tenant economics:

* a digest already in the store is a **cache hit** — no work, any
  tenant's past computation serves every later tenant;
* a digest currently computing is **coalesced** — the second (third,
  …) subscriber awaits the same future instead of submitting a
  duplicate simulation (cache-stampede suppression);
* only a digest that is neither is computed.

Computing is the :class:`repro.exec.executor.CellExecutor`'s, the one
the offline :class:`repro.exec.runner.Runner` runs on too: the same
bounded pool, retry policy, timeout clock and teardown rules, and the
same :func:`~repro.exec.executor.run_cell` worker entry point (same
``REPRO_FAULTS`` seam); results are persisted into the store as they
land.  Because cells are pure functions of their configs, the daemon may
share its store directory with offline ``plan run --leases`` workers —
both sides write bit-identical bytes atomically, so whoever computes a
cell first serves it to everyone.
"""

from __future__ import annotations

import asyncio
import random
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.executor import CellExecutor, CellFailure, RetryPolicy
from repro.exec.runner import default_jobs, worker_count
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
    """Shared-store, stampede-suppressing cell scheduler.

    Cells compute on :attr:`cells`, a :class:`~repro.exec.executor.
    CellExecutor` of ``max_workers`` under ``retry``.  ``executor`` and
    ``compute_fn`` are its injection seams for tests (thread pools,
    deterministic stand-ins); production uses a lazily built process
    pool over :func:`repro.exec.executor.run_cell`.
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
        if max_workers is None:
            max_workers = default_jobs()
        self.max_workers = worker_count(max_workers, "max_workers")
        self.retry = retry or RetryPolicy()
        self.cells = CellExecutor(
            self.max_workers, self.retry, pool=executor, compute=compute_fn
        )
        self._inflight: dict[str, asyncio.Future[CellOutcome]] = {}
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
        """Cells currently being computed (or waiting for a worker)."""
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
        task = loop.create_task(self._compute(digest, config))
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
    async def _compute(self, digest: str, config: SimulationConfig) -> CellOutcome:
        """Compute *digest* on the shared executor and persist it."""
        rng = random.Random(f"backoff:service:{digest}")
        try:
            async with self.cells.slots:
                result, attempts = await self.cells.run(digest, config, rng)
                if isinstance(result, CellFailure):
                    self.counters["failed"] += 1
                    return CellOutcome(
                        digest=digest,
                        ok=False,
                        provenance=PROVENANCE_COMPUTED,
                        attempts=attempts,
                        kind=result.kind,
                        error=result.error,
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
        self.cells.close()

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus the in-flight gauge."""
        return {**self.counters, "inflight": len(self._inflight)}
