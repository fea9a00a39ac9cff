"""The cell-execution contract, written once for every driver of cells.

A cell is a pure deterministic function of its (fully seeded) config,
computed by :func:`run_cell`.  :class:`CellExecutor` runs cells on a
bounded, lazily built worker pool from an asyncio event loop, and both
drivers of cells share it: the :class:`repro.exec.runner.Runner` (one
event loop per :meth:`~repro.exec.runner.Runner.run`) and the sweep
daemon's :class:`repro.service.scheduler.CellScheduler` (the daemon's
loop).  The contract:

* the pool holds two submitted calls per worker (:attr:`CellExecutor.
  slots`), one running and one queued, so a worker that finishes a cell
  starts its next at once while its driver persists the last result;
* an executor starts its calls in FIFO order, so the oldest ``workers``
  unfinished calls of the live pool are the running ones
  (:func:`_running`); a cell's ``cell_timeout`` clock starts when it
  enters that window, so time spent queued does not count;
* a running cell cannot be interrupted: when one overruns its timeout
  the pool's workers are terminated, the pool is rebuilt on the next
  submission, and the overrun costs the cell a ``timeout`` attempt;
* a torn-down pool (that timeout, or a dead worker: ``BrokenProcessPool``)
  costs a ``worker-lost`` attempt only to the cells that had started;
  queued cells never ran and are resubmitted at no cost;
* a failed attempt is retried after the seeded backoff of
  :meth:`RetryPolicy.delay`, unless :func:`is_retryable` says the error
  is deterministic; a cell that runs out of attempts comes back as a
  :class:`CellFailure` instead of raising.

Purity is what makes this cheap: retrying, recomputing, or racing a cell
can never produce conflicting bytes.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable, Iterable
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import islice
from typing import Any, TypeVar

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.simulation import run_simulation
from repro.errors import AnalysisError, FaultInjection, ReproError
from repro.exec.faults import FaultInjector

__all__ = [
    "CellExecutor",
    "CellFailure",
    "RetryPolicy",
    "describe_error",
    "is_retryable",
    "run_cell",
]

_T = TypeVar("_T")

#: calls a pool keeps submitted per worker: one running, one queued.
_PER_WORKER = 2


def run_cell(digest: str, config: SimulationConfig) -> SimulationResult:
    """Top-level worker entry point (must be picklable for the pool).

    Threads the cell digest through so the ``REPRO_FAULTS`` harness can
    target individual cells deterministically.
    """
    injector = FaultInjector.from_env()
    if injector is not None:
        injector.on_cell_start(digest)
    result = run_simulation(config)
    if injector is not None:
        injector.on_cell_end(digest)
    return result


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry/timeout/backoff contract of a :class:`CellExecutor`.

    Backoff before retry ``k`` (1-based) is
    ``min(max_delay, base_delay * backoff**(k-1))`` scaled by up to
    ``1 + jitter`` — the jitter RNG is seeded by the caller from the
    cell digest, so two replays of the same sweep back off identically.

    ``cell_timeout`` is wall-clock seconds per attempt, counted from the
    moment a worker starts the cell (time spent queued behind other
    cells does not count): an overrunning cell's worker pool is
    terminated and rebuilt, the attempt counts as a ``timeout`` failure.
    A run with a timeout always computes on a process pool, one worker
    for ``jobs=1``, since nothing else can stop an overrunning cell.

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


def describe_error(exc: BaseException) -> str:
    """Compact one-line rendering of an exception for failure records."""
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 500 else text[:497] + "..."


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


def _running(calls: Iterable[_T], workers: int) -> list[_T]:
    """The calls a pool of *workers* is running, out of its unfinished
    *calls* in submission order: an executor starts its calls in FIFO
    order, so the oldest *workers* are running and the rest wait in its
    queue."""
    return list(islice(calls, workers))


def _terminate_workers(pool: Executor) -> None:
    """Hard-kill a pool's worker processes (timeout enforcement).

    Reaches into the executor because ``concurrent.futures`` offers no
    public kill switch; a missing attribute (a thread pool) just degrades
    to waiting for the slow cell to finish on its own.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:
            pass


class CellExecutor:
    """Computes cells on a bounded pool under a :class:`RetryPolicy`.

    The pool is a :class:`~concurrent.futures.ProcessPoolExecutor` of
    *workers*, built on the first submission and rebuilt after every
    teardown.  An injected *pool* (a thread pool for in-process runs and
    tests) is used as given and never torn down or shut down here.
    *compute* replaces :func:`run_cell` as the cell function.

    A driver holds one of :attr:`slots` for each cell from before its
    first attempt until its result is persisted, which keeps at most two
    calls per worker submitted.
    """

    def __init__(
        self,
        workers: int,
        retry: RetryPolicy,
        *,
        pool: Executor | None = None,
        compute: Callable[[str, SimulationConfig], SimulationResult] | None = None,
    ) -> None:
        self.workers = workers
        self.retry = retry
        self.pool = pool
        self._owns_pool = pool is None
        self.compute = compute or run_cell
        self.slots = asyncio.Semaphore(_PER_WORKER * workers)
        # Unfinished pool calls in submission order -> (their pool, the
        # signal that a worker took the call: True as it enters the
        # running window, False when it finished before its turn).
        self._calls: dict[asyncio.Future, tuple[Executor, asyncio.Future]] = {}

    async def run(
        self, digest: str, config: SimulationConfig, rng: random.Random
    ) -> tuple[SimulationResult | CellFailure, int]:
        """Compute one cell: its result, or the failure that quarantined
        it, and the attempts that took.  *rng* seeds the backoff."""
        policy = self.retry
        attempts = 0
        while True:
            attempts += 1
            try:
                return await self._attempt(digest, config), attempts
            except asyncio.TimeoutError:
                kind, retryable = "timeout", True
                error = f"cell exceeded {policy.cell_timeout}s wall clock"
            except BrokenProcessPool:
                kind, retryable = "worker-lost", True
                error = "worker pool torn down"
            except Exception as exc:
                kind, retryable = "error", is_retryable(exc)
                error = describe_error(exc)
            if not retryable or attempts >= policy.max_attempts:
                return CellFailure(digest, attempts, kind, error), attempts
            await asyncio.sleep(policy.delay(attempts, rng))

    async def _attempt(self, digest: str, config: SimulationConfig) -> SimulationResult:
        """One charged attempt of *digest*.

        Its timeout clock starts when a worker takes the call.  A call
        that a broken pool fails before any worker took it never ran: it
        is resubmitted here, at no attempt's cost.
        """
        loop = asyncio.get_running_loop()
        timeout = self.retry.cell_timeout
        while True:
            pool = self._executor()
            try:
                call = loop.run_in_executor(pool, self.compute, digest, config)
            except BrokenProcessPool:  # broke before any call noticed
                self._drop(pool)
                continue
            started = loop.create_future()
            self._calls[call] = (pool, started)
            call.add_done_callback(self._call_done)
            self._start_calls()
            try:
                if timeout is not None:
                    await started
                    await asyncio.wait((call,), timeout=timeout)
                    if not call.done():
                        # The worker is still grinding the overrunning cell
                        # and holds its pool slot; enough timeouts and no
                        # worker is left.  Kill them all — before the call
                        # leaves the running window, which would let a
                        # queued call in: the pool's other calls fail with
                        # BrokenProcessPool, charged only if they had started.
                        self._drop(pool, terminate=True)
                        call.cancel()
                        raise asyncio.TimeoutError
                return await call
            except asyncio.CancelledError:
                call.cancel()
                raise
            except BrokenProcessPool:
                if started.result():
                    raise  # it ran: its work is lost
                # _call_done resolved `started` (it runs first) and dropped
                # the pool: resubmit to a fresh one

    def _executor(self) -> Executor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self.pool

    def _start_calls(self) -> None:
        """Mark the calls a worker has taken: the oldest of the live pool."""
        live = (c for c, (pool, _) in self._calls.items() if pool is self.pool)
        for call in _running(live, self.workers):
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
            self._drop(pool)
        self._start_calls()

    def _drop(self, pool: Executor, *, terminate: bool = False) -> None:
        """Tear *pool* down if it is still the owned, live one; the next
        submission builds a fresh one."""
        if self._owns_pool and pool is self.pool:
            if terminate:
                _terminate_workers(pool)
            pool.shutdown(wait=False)
            self.pool = None

    def close(self) -> None:
        """Shut the owned pool down; queued calls are abandoned."""
        if self._owns_pool and self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
