"""The ``repro serve`` daemon: plans in, deduplicated cells out.

A :class:`PlanService` listens on TCP, decomposes every submitted plan
into cells, and resolves each cell through the shared
:class:`~repro.service.scheduler.CellScheduler` — store hit, coalesced
onto an in-flight computation, or freshly computed on the bounded worker
pool.  Outcomes stream back to each subscribed client as they land
(``cell_done`` / ``cell_failed``, then ``plan_done``), so a tenant sees
its first results while the rest of its grid is still queued.

Multi-tenant behaviour:

* **Plan registry** — every accepted plan is tracked by its
  order-independent digest with a full event history, so a client that
  reconnects mid-plan resumes its subscription (``resume``) and gets a
  replay plus the live tail.  Idle finished plans are evicted on a
  timeout; the *results* stay in the store forever — eviction only
  forgets the streaming session, never the science.
* **Backpressure** — a submit that would push the daemon past its
  pending-cell or tracked-plan budget is rejected with ``busy`` (the
  client is told to come back, nothing is queued), and a subscriber that
  cannot drain its bounded event queue is disconnected rather than
  allowed to wedge the broadcaster.
* **Graceful drain** — shutdown stops accepting work, lets in-flight
  cells finish (bounded by ``drain_timeout``) so their results reach the
  store, notifies subscribers, then closes.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.config import SimulationConfig
from repro.errors import ProtocolError
from repro.exec.executor import CellFailure, RetryPolicy
from repro.exec.serialize import plan_digest
from repro.exec.store import ResultStore
from repro.service.protocol import cells_from_wire, read_frame, write_frame
from repro.service.scheduler import CellScheduler

__all__ = ["PlanService", "ServiceConfig"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon instance (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 7351
    max_workers: int | None = None
    #: submit budget: a plan whose new cells would push the daemon past
    #: this many pending computations is rejected with ``busy``.
    max_pending_cells: int = 1024
    #: tracked-plan budget (live + finished-but-not-yet-evicted).
    max_plans: int = 64
    #: seconds a finished or abandoned plan survives without activity
    #: before its streaming session is forgotten.
    idle_timeout: float = 300.0
    #: bound of each subscriber's outgoing event queue; an overflowing
    #: (stalled) subscriber is disconnected, not waited for.
    subscriber_queue: int = 1024
    #: seconds shutdown waits for in-flight cells before abandoning them.
    drain_timeout: float = 30.0


class _Subscriber:
    """One connection's bounded outgoing event queue.

    ``None`` on the queue is the hangup sentinel: the send loop writes
    everything before it, then closes the connection.
    """

    def __init__(self, limit: int) -> None:
        self.queue: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue(max(limit, 2))
        self.dropped = False

    def push(self, event: dict[str, Any]) -> None:
        if self.dropped:
            return
        try:
            self.queue.put_nowait(event)
        except asyncio.QueueFull:
            # Slow consumer: drop it rather than stall every other
            # tenant.  Clear the backlog so the error + hangup sentinel
            # fit; the client can reconnect and `resume` for a replay.
            self.dropped = True
            while True:
                try:
                    self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            self.queue.put_nowait(
                {
                    "type": "error",
                    "error": "event queue overflow (slow consumer); "
                    "reconnect and resume by plan digest",
                }
            )
            self.queue.put_nowait(None)

    def hangup(self) -> None:
        """Ask the send loop to flush and close (idempotent)."""
        if self.dropped:
            return
        self.dropped = True
        try:
            self.queue.put_nowait(None)
        except asyncio.QueueFull:
            # Full of unflushed events: sacrifice the newest to make
            # room — the sentinel must land or the send loop never ends.
            with contextlib.suppress(asyncio.QueueEmpty):
                self.queue.get_nowait()
            with contextlib.suppress(asyncio.QueueFull):
                self.queue.put_nowait(None)


class _PlanJob:
    """One tracked plan: cells, live subscribers, replayable history."""

    def __init__(self, digest: str, cells: dict[str, SimulationConfig]) -> None:
        self.digest = digest
        self.cells = cells
        self.history: list[dict[str, Any]] = []
        self.subscribers: set[_Subscriber] = set()
        self.done = False
        self.counters = {"computed": 0, "cache_hits": 0, "shared": 0, "failed": 0}
        self.last_activity = time.monotonic()
        self.task: asyncio.Task | None = None

    def post(self, event: dict[str, Any]) -> None:
        """Record *event* and fan it out to every live subscriber."""
        self.last_activity = time.monotonic()
        self.history.append(event)
        for sub in list(self.subscribers):
            sub.push(event)
            if sub.dropped:
                self.subscribers.discard(sub)

    def idle(self, now: float, timeout: float) -> bool:
        settled = self.done or (self.task is not None and self.task.done())
        return settled and not self.subscribers and (now - self.last_activity > timeout)


class PlanService:
    """Asyncio TCP daemon over one store and one cell scheduler."""

    def __init__(
        self,
        store: ResultStore | str | os.PathLike,
        config: ServiceConfig | None = None,
        *,
        retry: RetryPolicy | None = None,
        scheduler: CellScheduler | None = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.config = config or ServiceConfig()
        self.scheduler = scheduler or CellScheduler(
            self.store, max_workers=self.config.max_workers, retry=retry
        )
        self.plans: dict[str, _PlanJob] = {}
        self.evicted_plans = 0
        self.draining = False
        self._server: asyncio.Server | None = None
        self._evictor: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None  # actual bound port (config.port may be 0)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the eviction loop."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._evictor = asyncio.get_running_loop().create_task(self._evict_loop())
        log.info(
            "serving on %s:%d (store: %s, workers: %d)",
            self.config.host,
            self.port,
            self.store.root,
            self.scheduler.max_workers,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight cells, release everything."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.scheduler.drain(timeout=self.config.drain_timeout)
        if not drained:
            log.warning(
                "drain timeout (%.0fs) expired with cells still in "
                "flight; abandoning them",
                self.config.drain_timeout,
            )
        for job in self.plans.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
            for sub in list(job.subscribers):
                sub.push({"type": "error", "error": "daemon shutting down"})
                sub.hangup()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._evictor is not None:
            self._evictor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._evictor
        self.scheduler.close()

    async def _evict_loop(self) -> None:
        period = max(self.config.idle_timeout / 4, 0.05)
        while True:
            await asyncio.sleep(period)
            now = time.monotonic()
            for digest in [
                d
                for d, job in self.plans.items()
                if job.idle(now, self.config.idle_timeout)
            ]:
                del self.plans[digest]
                self.evicted_plans += 1
                log.info("evicted idle plan %s…", digest[:12])

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        subscriber = _Subscriber(self.config.subscriber_queue)
        sender = asyncio.get_running_loop().create_task(
            self._send_loop(subscriber, writer)
        )
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as exc:
                    subscriber.push({"type": "error", "error": str(exc)})
                    break  # framing is unsynchronized; drop the stream
                if message is None:
                    break
                reply = await self._dispatch(message, subscriber)
                if reply is not None:
                    subscriber.push(reply)
        except (ConnectionError, asyncio.CancelledError):
            # Cancellation only comes from shutdown(); exit cleanly so
            # the streams layer does not log a cancelled handler.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            for job in self.plans.values():
                job.subscribers.discard(subscriber)
            subscriber.hangup()
            with contextlib.suppress(asyncio.CancelledError):
                await sender
            writer.close()
            with contextlib.suppress(
                ConnectionError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _send_loop(
        self, subscriber: _Subscriber, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                event = await subscriber.queue.get()
                if event is None:
                    return
                await write_frame(writer, event)
        except (ConnectionError, OSError):
            subscriber.dropped = True

    async def _dispatch(
        self, message: dict[str, Any], subscriber: _Subscriber
    ) -> dict[str, Any] | None:
        kind = message["type"]
        if kind == "ping":
            return {"type": "pong"}
        if kind == "stats":
            return self._stats()
        if kind == "submit":
            return await self._handle_submit(message, subscriber)
        if kind == "resume":
            return self._handle_resume(message, subscriber)
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    # -- message handlers ----------------------------------------------------
    async def _handle_submit(
        self, message: dict[str, Any], subscriber: _Subscriber
    ) -> dict[str, Any] | None:
        if self.draining:
            return {"type": "busy", "reason": "daemon is draining for shutdown"}
        try:
            cells = cells_from_wire(message.get("plan") or {})
        except ProtocolError as exc:
            return {"type": "error", "error": str(exc)}
        digest = plan_digest(cells)

        job = self.plans.get(digest)
        if job is not None:
            # Same plan digest: this is a subscription to the existing
            # run (or a replay of a finished one), not new work.
            return self._attach(job, subscriber, resumed=True)

        # The membership probe validates each entry (parse, checksum,
        # config digest), so a wide plan's scan is real disk work — run
        # it off-loop.
        store = self.store
        fresh = await asyncio.to_thread(
            lambda: [d for d in cells if d not in store]
        )
        if self.draining or digest in self.plans:
            # Re-check after the await: a duplicate submit may have won
            # the race while we were scanning the store.
            job = self.plans.get(digest)
            if job is not None:
                return self._attach(job, subscriber, resumed=True)
            return {"type": "busy", "reason": "daemon is draining for shutdown"}
        if len(self.plans) >= self.config.max_plans:
            return {
                "type": "busy",
                "reason": f"tracking {len(self.plans)} plans (limit "
                f"{self.config.max_plans}); retry later",
            }
        if self.scheduler.inflight + len(fresh) > self.config.max_pending_cells:
            return {
                "type": "busy",
                "reason": f"{self.scheduler.inflight} cells in flight; "
                f"{len(fresh)} more would exceed the "
                f"{self.config.max_pending_cells}-cell budget",
            }

        job = _PlanJob(digest, cells)
        self.plans[digest] = job
        job.subscribers.add(subscriber)
        job.task = asyncio.get_running_loop().create_task(self._run_plan(job))
        log.info(
            "accepted plan %s…: %d cells (%d not yet stored)",
            digest[:12],
            len(cells),
            len(fresh),
        )
        return {
            "type": "plan_accepted",
            "plan": digest,
            "cells": len(cells),
            "unique": len(cells),
            "cached": len(cells) - len(fresh),
            "resumed": False,
        }

    def _handle_resume(
        self, message: dict[str, Any], subscriber: _Subscriber
    ) -> dict[str, Any] | None:
        digest = message.get("plan")
        job = self.plans.get(digest) if isinstance(digest, str) else None
        if job is None:
            return {
                "type": "error",
                "error": f"unknown plan {str(digest)[:12]}… (finished plans "
                "are evicted after the idle timeout; resubmit it — stored "
                "cells replay as cache hits)",
            }
        return self._attach(job, subscriber, resumed=True)

    def _attach(
        self, job: _PlanJob, subscriber: _Subscriber, *, resumed: bool
    ) -> None:
        """Subscribe *subscriber* to *job*: accept, replay, then live tail.

        Pushes directly (returns None) so the ``plan_accepted`` frame
        precedes the replayed history on the wire.
        """
        job.last_activity = time.monotonic()
        if not job.done:
            job.subscribers.add(subscriber)
        subscriber.push(
            {
                "type": "plan_accepted",
                "plan": job.digest,
                "cells": len(job.cells),
                "unique": len(job.cells),
                "cached": job.counters["cache_hits"],
                "resumed": resumed,
            }
        )
        for event in job.history:
            subscriber.push(event)

    def _stats(self) -> dict[str, Any]:
        return {
            "type": "stats",
            **self.scheduler.stats(),
            "plans": len(self.plans),
            "evicted_plans": self.evicted_plans,
            "store_entries": len(self.store),
            "draining": self.draining,
        }

    # -- plan execution ------------------------------------------------------
    async def _run_plan(self, job: _PlanJob) -> None:
        async def one(digest: str, config: SimulationConfig):
            outcome = await self.scheduler.outcome(digest, config)
            if outcome.ok:
                key = "computed" if outcome.provenance == "computed" else (
                    "cache_hits" if outcome.provenance == "cache_hit" else "shared"
                )
                job.counters[key] += 1
            else:
                job.counters["failed"] += 1
            job.post(outcome.to_event(job.digest))
            return outcome

        try:
            outcomes = await asyncio.gather(
                *(one(d, cfg) for d, cfg in sorted(job.cells.items()))
            )
            # Journal exhausted cells exactly like Runner.run does (and
            # clear the journal when everything completed), so `repro
            # plan status` pointed at the shared store sees daemon-side
            # failures too — they used to evaporate with the streaming
            # session.
            records = [
                CellFailure(
                    digest=o.digest,
                    attempts=o.attempts,
                    kind=o.kind or "error",
                    error=o.error or "",
                    quarantined=True,
                ).to_dict()
                for o in outcomes
                if not o.ok
            ]
            await asyncio.to_thread(
                self.store.write_failures, job.digest, records
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defensive: a bug must not hang clients
            log.exception("plan %s… crashed", job.digest[:12])
            job.post(
                {
                    "type": "error",
                    "error": f"internal failure running plan: {exc}",
                }
            )
        job.done = True
        job.post(
            {
                "type": "plan_done",
                "plan": job.digest,
                "cells": len(job.cells),
                **job.counters,
            }
        )
        job.subscribers.clear()
