"""Fault-tolerant plan execution: serial, process-parallel, or sharded.

The :class:`Runner` takes an :class:`repro.exec.plan.ExperimentPlan`,
deduplicates its cells by config digest, loads whatever an attached
:class:`repro.exec.store.ResultStore` already holds, and computes the
rest — inline when ``jobs <= 1``, otherwise fanned out over a
``concurrent.futures.ProcessPoolExecutor``.

Every cell is a pure deterministic function of its (fully seeded)
config, so parallel and serial execution return bit-identical results;
the executor only changes wall-clock time.  That purity is also what
makes the fault tolerance cheap: retrying, recomputing, or racing a
cell can never produce conflicting bytes.

Fault tolerance (``submit`` + wait loop, not ``pool.map``):

* the pool holds one queued cell behind each running one, so a worker
  that finishes a cell starts its next at once while this process
  persists the last result;
* each cell is retried under a :class:`RetryPolicy` — seeded
  exponential backoff with jitter, an optional per-cell wall-clock
  timeout measured from the moment a worker starts the cell, not from
  its submission (the pool is replaced when a cell overruns), and a
  bounded attempt count;
* a dead worker process (``BrokenProcessPool``) or a timeout costs one
  attempt for the cells that had started; queued cells never ran and
  go back on the queue without losing one.  The pool is rebuilt and
  the sweep continues;
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
from the slowest live holder.  This is the elastic tier behind
``repro plan resume``.

Passing ``shard=Shard(k, n)`` to :meth:`Runner.run` executes only the
cells the shard owns (a deterministic digest partition of the full plan)
and records a :class:`repro.exec.store.ShardManifest` in the attached
store, so N machines given the same plan and distinct ``k`` cover it
exactly once and their stores merge back into the unsharded result.
``offline=True`` inverts the contract: nothing may be computed — every
needed cell must already be in the store (used to render figures from a
merged store without re-simulation).
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from collections.abc import Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, TypeVar

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.simulation import run_simulation
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ExecutionError,
    FaultInjection,
    LeaseError,
    ReproError,
)
from repro.exec.aggregate import LoadSweepResult, SweepPoint, average_results
from repro.exec.faults import FaultInjector
from repro.exec.leases import LeaseCoordinator, LeaseRecord
from repro.exec.plan import ExperimentPlan, Shard
from repro.exec.serialize import config_digest
from repro.exec.store import ResultStore, ShardManifest, current_git_sha
from repro.utils.cpu import usable_cpu_count

__all__ = [
    "CellFailure",
    "PlanResult",
    "RetryPolicy",
    "Runner",
    "default_jobs",
    "describe_error",
    "is_retryable",
    "run_cell",
]

_T = TypeVar("_T")

#: wait-loop slice: future polling, foreign-lease store polling, idle sleep.
_POLL = 0.1

#: cells a pooled run keeps submitted per worker: one running, one queued.
_PER_WORKER = 2


def _running(calls: Iterable[_T], workers: int) -> list[_T]:
    """The calls a pool of *workers* is running, out of its unfinished
    *calls* in submission order.

    An executor starts its calls in FIFO order, so the oldest *workers*
    unfinished ones are running and the rest wait in its queue.  Both
    executors of cells (:class:`Runner` and the service's scheduler)
    start a cell's timeout clock when it enters this window.
    """
    return list(islice(calls, workers))


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


def run_cell(digest: str, config: SimulationConfig) -> SimulationResult:
    """Top-level worker entry point (must be picklable for the pool).

    Threads the cell digest through so the ``REPRO_FAULTS`` harness can
    target individual cells deterministically.  Public so other
    executors — the :mod:`repro.service` daemon's scheduler — can fan
    the exact same entry point out over their own pools.
    """
    injector = FaultInjector.from_env()
    if injector is not None:
        injector.on_cell_start(digest)
    result = run_simulation(config)
    if injector is not None:
        injector.on_cell_end(digest)
    return result


#: internal alias — the execution loops (and the chaos tests' monkeypatch
#: seam) route through this name so a patched entry point affects every
#: executor uniformly.
_run_cell = run_cell


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry/timeout/backoff contract of a :class:`Runner`.

    Backoff before retry ``k`` (1-based) is
    ``min(max_delay, base_delay * backoff**(k-1))`` scaled by up to
    ``1 + jitter`` — the jitter RNG is seeded from the plan and cell
    digests, so two replays of the same sweep back off identically.

    ``cell_timeout`` is wall-clock seconds per attempt, counted from the
    moment a worker starts the cell (time spent queued behind other
    cells does not count) and enforced only in pooled runs
    (``jobs >= 2``): an overrunning cell's worker pool is terminated and
    rebuilt, the attempt counts as a ``timeout`` failure.

    Deterministic simulator errors (any :class:`repro.errors.ReproError`
    except injected faults) are not retried — a cell that fails
    validation or an oracle check will fail identically every attempt,
    so it is quarantined immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    cell_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AnalysisError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise AnalysisError("backoff delays/jitter must be >= 0")
        if self.backoff < 1:
            raise AnalysisError(f"backoff factor must be >= 1, got {self.backoff}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise AnalysisError(f"cell_timeout must be > 0, got {self.cell_timeout}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to back off before retry *attempt* (1-based)."""
        d = min(self.max_delay, self.base_delay * self.backoff ** max(0, attempt - 1))
        if self.jitter > 0:
            d *= 1.0 + self.jitter * rng.random()
        return d


def is_retryable(exc: BaseException) -> bool:
    """Whether a cell failure may heal on retry.

    Infrastructure failures (worker death, timeouts, pickling hiccups —
    anything that is not a simulator error) and injected chaos faults
    are retryable; deterministic :class:`ReproError`\\ s are not.
    """
    if isinstance(exc, FaultInjection):
        return True
    return not isinstance(exc, ReproError)


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that could not be computed."""

    digest: str
    attempts: int
    kind: str  # "error" | "timeout" | "worker-lost"
    error: str
    quarantined: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellFailure":
        return cls(
            digest=data["digest"],
            attempts=int(data["attempts"]),
            kind=data["kind"],
            error=data["error"],
            quarantined=bool(data.get("quarantined", True)),
        )


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
    shard: Shard | None = None
    failures: dict[str, CellFailure] = field(default_factory=dict)
    retried: dict[str, int] = field(default_factory=dict)
    adopted: int = 0
    _by_parent: dict[str, list[SimulationResult] | CellFailure] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """True when every cell of the (sub-)plan completed."""
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
class _CellState:
    """Bookkeeping of one in-progress cell inside an execution."""

    digest: str
    config: SimulationConfig
    rng: random.Random
    attempts: int = 0
    eligible_at: float = 0.0  # monotonic time the next attempt may start
    deadline: float | None = None  # monotonic timeout, set once a worker runs it
    lease: LeaseRecord | None = None


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
        if self.jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {self.jobs}")
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

    def run(self, plan: ExperimentPlan, shard: Shard | None = None) -> PlanResult:
        """Execute *plan*, reusing cached results when a store is attached.

        With *shard*, only the owned sub-plan executes and a shard
        manifest is written to the store (required); the returned
        :class:`PlanResult` covers just the owned cells.  An empty owned
        sub-plan (more shards than cells) is valid and writes a manifest
        claiming no cells.

        Never raises on individual cell failures: completed cells are in
        ``.results`` (and the store), exhausted ones in ``.failures``.
        """
        if not len(plan):
            raise AnalysisError("cannot run an empty plan")
        sub = plan
        if shard is not None:
            if self.store is None:
                raise AnalysisError(
                    "sharded runs need a store (the shard manifest and "
                    "mergeable results live there)"
                )
            sub = plan.shard(shard.index, shard.count)

        unique: dict[str, SimulationConfig] = {}
        for cell in sub:
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
        execution.run()

        if self.store is not None:
            self.store.write_failures(
                plan.digest,
                [f.to_dict() for f in execution.failures.values()],
            )
        if shard is not None:
            self.store.write_manifest(
                ShardManifest(
                    plan_digest=plan.digest,
                    shard_index=shard.index,
                    shard_count=shard.count,
                    plan_cells=plan.cell_digests(),
                    cells=tuple(sorted(unique)),
                    git_sha=current_git_sha(),
                )
            )

        return PlanResult(
            plan=sub,
            results=results,
            computed=execution.computed,
            cached=cached,
            shard=shard,
            failures=execution.failures,
            retried=execution.retried,
            adopted=execution.adopted,
        )


class _PlanExecution:
    """One `Runner.run` invocation's retry/lease/pool state machine."""

    def __init__(
        self,
        runner: Runner,
        plan: ExperimentPlan,
        missing: Sequence[str],
        unique: dict[str, SimulationConfig],
        results: dict[str, SimulationResult],
    ) -> None:
        self.runner = runner
        self.policy: RetryPolicy = runner.retry
        self.store = runner.store
        self.results = results
        self.order = list(missing)
        self.states = {
            d: _CellState(
                digest=d,
                config=unique[d],
                rng=random.Random(f"backoff:{plan.digest}:{d}"),
            )
            for d in self.order
        }
        self.pending: set[str] = set(self.order)
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
        self._last_beat = time.monotonic()

    # -- shared transitions --------------------------------------------------
    def _try_lease(self, st: _CellState) -> bool:
        """Hold (or obtain) the lease for *st*; True when we own it."""
        if self.coordinator is None or st.lease is not None:
            return True
        record = self.coordinator.acquire(st.digest)
        if record is None:
            return False
        st.lease = record
        return True

    def _adopt(self, st: _CellState) -> bool:
        """Pick up *st*'s result if a concurrent worker stored it."""
        if self.store is None:
            return False
        hit = self.store.load(st.digest)
        if hit is None:
            return False
        self.results[st.digest] = hit
        self.pending.discard(st.digest)
        self.adopted += 1
        return True

    def _complete(self, st: _CellState, result: SimulationResult) -> None:
        self.results[st.digest] = result
        self.pending.discard(st.digest)
        self.computed += 1
        if st.attempts:
            self.retried[st.digest] = st.attempts + 1
        if self.store is not None:
            self.store.save(st.digest, result)
        if st.lease is not None:
            self.coordinator.complete(st.lease)
            st.lease = None

    def _attempt_failed(
        self, st: _CellState, kind: str, error: str, *, retryable: bool = True
    ) -> None:
        """Record a failed attempt; quarantine or schedule the retry."""
        st.attempts += 1
        st.deadline = None
        if retryable and st.attempts < self.policy.max_attempts:
            st.eligible_at = time.monotonic() + self.policy.delay(st.attempts, st.rng)
            return
        self.failures[st.digest] = CellFailure(
            digest=st.digest,
            attempts=st.attempts,
            kind=kind,
            error=error,
            quarantined=True,
        )
        self.pending.discard(st.digest)
        if st.lease is not None:
            # Give the cell up so another worker may try its luck.
            self.coordinator.release(st.lease)
            st.lease = None

    def _heartbeat(self) -> None:
        """Renew owned leases roughly every ttl/3; handle losses."""
        if self.coordinator is None:
            return
        now = time.monotonic()
        if now - self._last_beat < self.runner.lease_ttl / 3:
            return
        self._last_beat = now
        for st in self.states.values():
            if st.lease is None:
                continue
            try:
                st.lease = self.coordinator.heartbeat(st.lease)
            except LeaseError:
                # Reclaimed or stolen. Keep computing — results are
                # bit-identical so a duplicate save is harmless — but
                # stop claiming the lease.
                st.lease = None

    # -- execution strategies ------------------------------------------------
    def run(self) -> None:
        if not self.order:
            return
        try:
            # One cell runs inline unless it has a timeout to enforce:
            # only the pool can stop an overrunning cell.
            if self.runner.jobs <= 1 or (
                len(self.order) <= 1 and self.policy.cell_timeout is None
            ):
                self._run_serial()
            else:
                self._run_pooled()
        finally:
            if self.coordinator is not None:
                for st in self.states.values():
                    if st.lease is not None:
                        self.coordinator.release(st.lease)
                        st.lease = None

    def _run_serial(self) -> None:
        """Inline execution with retries (no per-cell timeout enforcement)."""
        queue = deque(self.order)
        while queue:
            digest = queue.popleft()
            if digest not in self.pending:
                continue
            st = self.states[digest]
            if not self._try_lease(st):
                if self._adopt(st):
                    continue
                time.sleep(_POLL)  # held by a live worker; check back
                queue.append(digest)
                continue
            now = time.monotonic()
            if st.eligible_at > now:
                time.sleep(st.eligible_at - now)
            try:
                result = _run_cell(digest, st.config)
            except Exception as exc:
                self._attempt_failed(
                    st, "error", describe_error(exc), retryable=is_retryable(exc)
                )
                if digest in self.pending:
                    queue.append(digest)
            else:
                self._complete(st, result)
            self._heartbeat()

    def _run_pooled(self) -> None:
        workers = min(self.runner.jobs, len(self.order))
        pool = ProcessPoolExecutor(max_workers=workers)
        # Submission order, which is the order the executor starts them
        # in: the first `workers` entries are running (see `_running`).
        inflight: dict[Future, str] = {}
        launch: deque[str] = deque(self.order)
        foreign: set[str] = set()  # leased by another live worker
        last_foreign_poll = 0.0
        try:
            while self.pending:
                now = time.monotonic()
                broken = False
                overdue: list[tuple[Future, str]] = []

                # Launch eligible cells until each worker has one running
                # and one queued: a worker that finishes takes its next
                # cell from the executor's queue at once, while this
                # process persists the result it just sent.  A dying
                # worker can break the pool mid-submit; the cell goes
                # back on the queue (no attempt burned — it never
                # started) and the pool is rebuilt below.
                deferred: list[str] = []
                while launch and len(inflight) < _PER_WORKER * workers:
                    digest = launch.popleft()
                    if digest not in self.pending:
                        continue
                    st = self.states[digest]
                    if st.eligible_at > now:
                        deferred.append(digest)
                        continue
                    if not self._try_lease(st):
                        foreign.add(digest)
                        continue
                    try:
                        future = pool.submit(_run_cell, digest, st.config)
                    except BrokenProcessPool:
                        broken = True
                        launch.appendleft(digest)
                        break
                    inflight[future] = digest
                launch.extend(deferred)

                # Cells leased elsewhere: adopt stored results, reclaim
                # expired leases, and steal from the slowest live holder
                # when we have nothing else to do.
                if foreign and now - last_foreign_poll >= _POLL:
                    last_foreign_poll = now
                    for digest in sorted(foreign):
                        st = self.states[digest]
                        if self._adopt(st):
                            foreign.discard(digest)
                        elif self._try_lease(st):
                            foreign.discard(digest)
                            launch.append(digest)
                    if not inflight and not launch and foreign:
                        stolen = self._steal_slowest(foreign)
                        if stolen is not None:
                            foreign.discard(stolen)
                            launch.append(stolen)

                if inflight:
                    self._start_clocks(inflight, workers)
                    done, _ = wait(
                        list(inflight), timeout=_POLL, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        digest = inflight[future]
                        st = self.states[digest]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            # Every unfinished future of a broken pool
                            # raises this, queued ones too: the teardown
                            # below charges only the cells that had started.
                            broken = True
                            continue
                        except Exception as exc:
                            self._attempt_failed(
                                st,
                                "error",
                                describe_error(exc),
                                retryable=is_retryable(exc),
                            )
                        else:
                            self._complete(st, result)
                        del inflight[future]
                        if digest in self.pending:
                            launch.append(digest)

                    # Per-cell wall-clock timeouts: an overrunning
                    # simulation cannot be cancelled, so its worker (and
                    # with it the whole pool) is terminated and rebuilt.
                    # Only running cells have a clock, so every overdue
                    # cell is among the first `workers` entries.
                    now = time.monotonic()
                    overdue = [
                        (future, digest)
                        for future, digest in inflight.items()
                        if self.states[digest].deadline is not None
                        and now > self.states[digest].deadline
                    ]
                    if overdue:
                        broken = True
                        for future, digest in overdue:
                            inflight.pop(future)
                            st = self.states[digest]
                            self._attempt_failed(
                                st,
                                "timeout",
                                f"cell exceeded {self.policy.cell_timeout}s "
                                f"wall clock",
                            )
                            if digest in self.pending:
                                launch.append(digest)
                        _terminate_workers(pool)

                if broken:
                    # The executor is unusable.  Cells that had started
                    # retry in a fresh pool at the cost of one attempt:
                    # their work is lost, whether it was their worker that
                    # died or a sibling's.  Queued cells never ran and go
                    # back on the queue for free.
                    started = _running(inflight, workers - len(overdue))
                    for future, digest in inflight.items():
                        if future in started:
                            self._attempt_failed(
                                self.states[digest],
                                "worker-lost",
                                "worker pool torn down",
                            )
                        if digest in self.pending:
                            launch.append(digest)
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=workers)
                elif not inflight and self.pending:
                    # Nothing running: we are waiting out a backoff delay
                    # or a foreign lease.
                    time.sleep(_POLL)

                self._heartbeat()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _start_clocks(self, inflight: dict[Future, str], workers: int) -> None:
        """Start the timeout clock of every cell a worker has taken."""
        if self.policy.cell_timeout is None:
            return
        now = time.monotonic()
        for future in _running(inflight, workers):
            st = self.states[inflight[future]]
            if st.deadline is None:
                st.deadline = now + self.policy.cell_timeout

    def _steal_slowest(self, foreign: set[str]) -> str | None:
        """Steal the oldest lease that has been held suspiciously long.

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
        for digest in sorted(foreign):
            record = coordinator.read(digest)
            if record is None:
                continue
            age = now - record.acquired_at
            if age >= threshold and (best is None or record.acquired_at < best[0]):
                best = (record.acquired_at, digest)
        if best is None:
            return None
        record = coordinator.steal(best[1])
        if record is None:
            return None
        self.states[best[1]].lease = record
        return best[1]


def describe_error(exc: BaseException) -> str:
    """Compact one-line rendering of an exception for failure records."""
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 500 else text[:497] + "..."


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill a pool's worker processes (timeout enforcement).

    Reaches into the executor because ``concurrent.futures`` offers no
    public kill switch; a missing attribute just degrades to waiting for
    the slow cell to finish on its own.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
