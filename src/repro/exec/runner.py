"""Fault-tolerant plan execution: in process or process-parallel.

The :class:`Runner` takes an :class:`repro.exec.plan.ExperimentPlan`,
deduplicates its cells by config digest, loads whatever an attached
:class:`repro.exec.store.ResultStore` already holds, and computes the
rest on a :class:`repro.exec.executor.CellExecutor` — in this process,
one cell at a time on a worker thread, when ``jobs <= 1`` and no
``cell_timeout`` is set; otherwise over a process pool of ``jobs``
workers.

Every cell is a pure deterministic function of its (fully seeded)
config, so parallel and serial execution return bit-identical results;
the executor only changes wall-clock time.

:meth:`Runner.run` keeps a synchronous signature; inside, it drives one
coroutine per missing cell on a private event loop (any loop the caller
has is left alone).  The retry, timeout and teardown rules are the
executor's (see :mod:`repro.exec.executor`), shared with the sweep
daemon.  On top of them the runner adds:

* every completed cell is persisted to the store *as it lands*, so one
  poison cell can no longer discard its siblings' results;
* cells that exhaust their attempts are quarantined into structured
  :class:`CellFailure` records on the returned :class:`PlanResult`
  (and the store's failures journal) instead of raising — callers that
  need completeness call :meth:`PlanResult.raise_for_failures`.

With ``leases=True`` the runner coordinates through an on-disk
:class:`repro.exec.leases.LeaseCoordinator` keyed by the plan digest:
several runners pointed at the same store partition the plan dynamically
(first-acquirer wins), adopt each other's stored results, reclaim leases
of dead workers after their deadline, and — when otherwise idle — steal
from the slowest live holder (``repro plan run --leases``).

A sharded run is an ordinary run of a sub-plan: ``plan.shard(k, n)`` is
shard ``k``'s deterministic slice of the digest partition, so N machines
given the same plan and distinct ``k`` cover it exactly once, and
:meth:`repro.exec.store.ResultStore.merge` checks their stores back
against the full plan.  ``offline=True`` inverts the contract: nothing
may be computed — every needed cell must already be in the store (used
to render figures from a merged store without re-simulation).
"""

from __future__ import annotations

import asyncio
import os
import random
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ExecutionError,
    LeaseError,
)
from repro.exec.aggregate import LoadSweepResult, SweepPoint, average_results
from repro.exec.executor import CellExecutor, CellFailure, RetryPolicy
from repro.exec.leases import LeaseCoordinator, LeaseRecord
from repro.exec.plan import ExperimentPlan
from repro.exec.serialize import config_digest
from repro.exec.store import ResultStore
from repro.utils.cpu import usable_cpu_count

__all__ = ["CellFailure", "PlanResult", "RetryPolicy", "Runner", "default_jobs"]

#: how often a cell leased by a peer checks the store and the lease again.
_POLL = 0.1


def worker_count(value: Any, source: str) -> int:
    """*value* (an int or its decimal string) as a worker count >= 1, else
    a :class:`ConfigurationError` naming *source*, where it came from."""
    try:
        count = int(value) if isinstance(value, str) else value
    except ValueError:
        count = None
    if type(count) is not int or count < 1:
        raise ConfigurationError(f"{source} must be an integer >= 1, got {value!r}")
    return count


def default_jobs() -> int:
    """Default worker count: ``REPRO_JOBS`` env override, else the
    affinity-aware CPU count (cgroup limits and pinned masks respected)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return worker_count(env, "REPRO_JOBS")
    return usable_cpu_count()


@dataclass
class PlanResult:
    """Executed plan: digest-indexed results plus cache/failure statistics.

    ``results`` holds every cell that completed; ``failures`` the cells
    that exhausted their retries (structured, per cell).  ``retried``
    maps recovered cells to the attempts they needed (> 1), ``adopted``
    counts cells completed by a concurrent lease-holding worker whose
    results this runner picked up from the shared store.
    """

    plan: ExperimentPlan
    results: dict[str, SimulationResult]
    computed: int = 0
    cached: int = 0
    failures: dict[str, CellFailure] = field(default_factory=dict)
    retried: dict[str, int] = field(default_factory=dict)
    adopted: int = 0
    _by_parent: dict[str, list[SimulationResult] | CellFailure] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """True when every cell of the plan completed."""
        return not self.failures

    def raise_for_failures(self) -> None:
        """Raise :class:`ExecutionError` when unrecovered cells remain."""
        if not self.failures:
            return
        first = next(iter(sorted(self.failures)))
        f = self.failures[first]
        raise ExecutionError(
            f"{len(self.failures)} cell(s) unrecovered after retries "
            f"(first: {f.digest[:12]}… after {f.attempts} attempt(s), "
            f"{f.kind}: {f.error})"
        )

    # -- raw access ---------------------------------------------------------
    def cell_results(self) -> list[SimulationResult]:
        """One result per plan cell, in plan order (duplicates repeated).

        Requires a complete result set — raises on quarantined cells.
        """
        self.raise_for_failures()
        return [self.results[cell.digest] for cell in self.plan]

    def results_for(self, config: SimulationConfig) -> list[SimulationResult]:
        """Seed-ordered results of the logical point *config*.

        *config* is a **parent** config as passed to the plan constructors
        (master seed, pre-splitting).  A point with a failed cell raises
        :class:`ExecutionError` naming that cell: averaging the surviving
        seeds would silently report a different experiment.
        """
        if self._by_parent is None:
            index: dict[str, list[SimulationResult] | CellFailure] = {}
            failed: dict[str, CellFailure] = {}
            seen: set[str] = set()
            for cell in self.plan:
                # A cell listed twice (e.g. merged plans) is one simulation;
                # counting it once keeps SweepPoint.seeds honest.
                if cell.digest in seen:
                    continue
                seen.add(cell.digest)
                if cell.digest in self.results:
                    index.setdefault(cell.parent_digest, []).append(
                        self.results[cell.digest]
                    )
                elif cell.digest in self.failures:
                    failed.setdefault(cell.parent_digest, self.failures[cell.digest])
            index.update(failed)
            self._by_parent = index
        out = self._by_parent.get(config_digest(config))
        if isinstance(out, CellFailure):
            raise ExecutionError(
                f"a cell of the requested point failed: {out.digest} after "
                f"{out.attempts} attempt(s), {out.kind}: {out.error}"
            )
        if not out:
            raise AnalysisError(
                "no results for the requested config; was it in the plan?"
            )
        return out

    # -- oracle verdicts ----------------------------------------------------
    def oracle_verdicts(self) -> dict[str, bool]:
        """Per-cell oracle verdict (digest -> passed) of audited cells.

        Cells run without ``config.oracle`` carry no verdict and are
        absent; an empty dict therefore means "nothing was audited",
        not "everything passed".
        """
        return {
            digest: bool(result.oracle["passed"])
            for digest, result in self.results.items()
            if result.oracle is not None
        }

    # -- aggregation --------------------------------------------------------
    def point(self, config: SimulationConfig) -> SweepPoint:
        """Seed-averaged :class:`SweepPoint` of the logical point *config*."""
        return average_results(self.results_for(config))

    def sweep(
        self, config: SimulationConfig, loads: Sequence[float]
    ) -> LoadSweepResult:
        """Reassemble a :class:`LoadSweepResult` over *loads* of *config*."""
        if not loads:
            raise AnalysisError("sweep needs at least one load")
        points = []
        pattern = None
        for load in loads:
            cfg = config.with_traffic(load=load)
            if pattern is None:
                pattern = self.results_for(cfg)[0].pattern
            points.append(self.point(cfg))
        return LoadSweepResult(
            routing=config.routing, pattern=pattern, points=tuple(points)
        )


@dataclass
class Runner:
    """Executes plans; ``jobs=None`` means :func:`default_jobs`.

    ``retry=None`` selects the default :class:`RetryPolicy`.
    ``leases=True`` (requires a store) coordinates cells through on-disk
    leases so concurrent runners sharing the store each compute a
    disjoint, dynamically balanced subset — see the module docstring.
    ``offline=True`` forbids computation: every cell a run needs must
    already be in the attached store (missing cells raise).
    """

    jobs: int | None = None
    store: ResultStore | str | os.PathLike | None = None
    offline: bool = False
    retry: RetryPolicy | None = None
    leases: bool = False
    lease_ttl: float = 60.0
    worker_id: str | None = None

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = default_jobs()
        self.jobs = worker_count(self.jobs, "jobs")
        if self.store is not None and not isinstance(self.store, ResultStore):
            self.store = ResultStore(self.store)
        if self.offline and self.store is None:
            raise AnalysisError("offline execution needs a store to read from")
        if self.retry is None:
            self.retry = RetryPolicy()
        if self.leases and self.store is None:
            raise AnalysisError(
                "lease coordination needs a store (leases live in its "
                "directory and results are exchanged through it)"
            )

    def run(self, plan: ExperimentPlan) -> PlanResult:
        """Execute *plan*, reusing cached results when a store is attached.

        Never raises on individual cell failures: completed cells are in
        ``.results`` (and the store), exhausted ones in ``.failures``.
        """
        if not len(plan):
            raise AnalysisError("cannot run an empty plan")

        unique: dict[str, SimulationConfig] = {}
        for cell in plan:
            unique.setdefault(cell.digest, cell.config)

        results: dict[str, SimulationResult] = {}
        cached = 0
        if self.store is not None:
            for digest in unique:
                hit = self.store.load(digest)
                if hit is not None:
                    results[digest] = hit
                    cached += 1

        missing = [d for d in unique if d not in results]
        if self.offline and missing:
            raise AnalysisError(
                f"offline run: store is missing {len(missing)} of "
                f"{len(unique)} required cell(s)"
            )

        execution = _PlanExecution(self, plan, missing, unique, results)
        if missing:
            # A private loop: whatever loop the caller has stays current.
            with asyncio.Runner(loop_factory=asyncio.new_event_loop) as aio:
                aio.run(execution.run())

        if self.store is not None:
            self.store.write_failures(
                plan.digest,
                [f.to_dict() for f in execution.failures.values()],
            )

        return PlanResult(
            plan=plan,
            results=results,
            computed=execution.computed,
            cached=cached,
            failures=execution.failures,
            retried=execution.retried,
            adopted=execution.adopted,
        )


class _PlanExecution:
    """One `Runner.run` invocation: a coroutine per missing cell over one
    :class:`CellExecutor`, plus the leases that share the plan with peers.

    Each cell's coroutine takes one of the executor's slots, leases the
    cell (when leases are on), computes it, then persists it and
    completes the lease.  A cell a live peer holds waits for it outside
    the slots: it adopts the peer's stored result, or takes the lease
    over once it expires — or when this runner is idle and steals it.
    """

    def __init__(
        self,
        runner: Runner,
        plan: ExperimentPlan,
        missing: Sequence[str],
        unique: dict[str, SimulationConfig],
        results: dict[str, SimulationResult],
    ) -> None:
        self.runner = runner
        self.store = runner.store
        self.plan_digest = plan.digest
        self.unique = unique
        self.results = results
        self.missing = list(missing)
        self.pending: set[str] = set(missing)
        self.foreign: set[str] = set()  # pending cells a live peer holds
        self.leases: dict[str, LeaseRecord] = {}
        self.failures: dict[str, CellFailure] = {}
        self.retried: dict[str, int] = {}
        self.computed = 0
        self.adopted = 0
        self.coordinator: LeaseCoordinator | None = None
        if runner.leases:
            self.coordinator = LeaseCoordinator(
                self.store.root,
                plan.digest,
                worker_id=runner.worker_id,
                ttl=runner.lease_ttl,
            )

    async def run(self) -> None:
        runner = self.runner
        # One cell at a time in this process, unless there is a timeout
        # to enforce: only a process pool can stop an overrunning cell.
        inline = runner.retry.cell_timeout is None and (
            runner.jobs <= 1 or len(self.missing) <= 1
        )
        workers = 1 if inline else min(runner.jobs, len(self.missing))
        thread = ThreadPoolExecutor(max_workers=1) if inline else None
        self.cells = CellExecutor(workers, runner.retry, pool=thread)
        keeper = None
        if self.coordinator is not None:
            keeper = asyncio.create_task(self._keep_leases())
        try:
            await asyncio.gather(*(self._cell(d) for d in self.missing))
        finally:
            if keeper is not None:
                keeper.cancel()
                with suppress(asyncio.CancelledError):
                    await keeper  # surfaces a heartbeat that crashed
            self.cells.close()
            if thread is not None:
                # No wait: an interrupted run returns without its cell.
                thread.shutdown(wait=False, cancel_futures=True)
            for lease in self.leases.values():
                self.coordinator.release(lease)
            self.leases.clear()

    async def _cell(self, digest: str) -> None:
        async with self.cells.slots:
            # A peer may have completed the cell since the store was probed.
            leased = self._claim(digest)
            if leased and not self._adopt(digest):
                await self._compute(digest)
        if not leased and await self._wait_for_peer(digest):
            async with self.cells.slots:
                await self._compute(digest)

    def _claim(self, digest: str) -> bool:
        """Whether this runner may compute *digest*: leases are off, or it
        holds (or has just acquired) the cell's lease."""
        if self.coordinator is None or digest in self.leases:
            return True
        record = self.coordinator.acquire(digest)
        if record is not None:
            self.leases[digest] = record
        return record is not None

    def _adopt(self, digest: str) -> bool:
        """Take *digest*'s result from the store if a peer saved it (leases
        on), and give up any lease on the cell."""
        if self.coordinator is None:
            return False
        hit = self.store.load(digest)
        if hit is None:
            return False
        self.results[digest] = hit
        self.pending.discard(digest)
        self.adopted += 1
        lease = self.leases.pop(digest, None)
        if lease is not None:
            self.coordinator.release(lease)
        return True

    async def _wait_for_peer(self, digest: str) -> bool:
        """Wait out a peer's lease on *digest*: False once the peer's
        stored result is adopted, True once the lease is ours."""
        self.foreign.add(digest)
        try:
            while True:
                await asyncio.sleep(_POLL)
                if self._adopt(digest):
                    return False
                if self._claim(digest):  # expired, or stolen for us
                    return not self._adopt(digest)
        finally:
            self.foreign.discard(digest)

    async def _compute(self, digest: str) -> None:
        rng = random.Random(f"backoff:{self.plan_digest}:{digest}")
        outcome, attempts = await self.cells.run(digest, self.unique[digest], rng)
        self.pending.discard(digest)
        if isinstance(outcome, CellFailure):
            self.failures[digest] = outcome
            lease = self.leases.pop(digest, None)
            if lease is not None:
                # Give the cell up so another worker may try its luck.
                self.coordinator.release(lease)
            return
        self.results[digest] = outcome
        self.computed += 1
        if attempts > 1:
            self.retried[digest] = attempts
        if self.store is not None:
            # On the loop, which serves no one else: a thread hop per save
            # costs this process CPU time that the pool's workers need.
            self.store.save(digest, outcome)
        lease = self.leases.pop(digest, None)
        if lease is not None:
            self.coordinator.complete(lease)

    async def _keep_leases(self) -> None:
        """Renew the held leases every ttl/3, computing cells included;
        while every pending cell is a peer's, steal the slowest."""
        coordinator = self.coordinator
        while True:
            await asyncio.sleep(coordinator.ttl / 3)
            for digest, lease in list(self.leases.items()):
                try:
                    self.leases[digest] = coordinator.heartbeat(lease)
                except LeaseError:
                    # Reclaimed or stolen. Keep computing — results are
                    # bit-identical so a duplicate save is harmless — but
                    # stop claiming the lease.
                    del self.leases[digest]
            if self.foreign and self.foreign == self.pending:
                self._steal_slowest()

    def _steal_slowest(self) -> None:
        """Steal the oldest foreign lease that has been held suspiciously long.

        "Suspiciously long" is two TTLs: a live holder heartbeats every
        ttl/3, so a lease that old belongs to a worker much slower than
        us (or one whose clock stalled).  Idle-stealing it keeps the
        sweep's tail short; the displaced holder finds out on its next
        heartbeat and both results, if computed, are bit-identical.
        """
        coordinator = self.coordinator
        threshold = 2 * coordinator.ttl
        now = coordinator.clock()
        best: tuple[float, str] | None = None
        for digest in sorted(self.foreign):
            record = coordinator.read(digest)
            if record is None:
                continue
            age = now - record.acquired_at
            if age >= threshold and (best is None or record.acquired_at < best[0]):
                best = (record.acquired_at, digest)
        if best is None:
            return
        record = coordinator.steal(best[1])
        if record is not None:
            self.leases[best[1]] = record
