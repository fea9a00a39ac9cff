"""The activation queue: phase-batched core of the cycle-quantised engine.

Design notes (hot path — see the HPC guide's "measure, then make the
bottleneck cheap" workflow):

* **Calendar/bucket layout.**  Cycle timestamps are integers, so instead
  of keeping every pending item on one binary heap (one
  ``heappush``/``heappop`` with tuple comparisons *per item*), items live
  in per-cycle FIFO buckets (``dict[int, list]``) and only the *distinct*
  pending cycle numbers sit on a small helper heap.  A cycle with dozens
  of items costs one heap pop for the whole bucket plus an O(1) list
  append per item.

* **Typed activation records.**  The queue's unit of work is not a
  ``(callback, args)`` pair but a small tuple whose first element is an
  integer opcode (``OP_*`` below).  The drain loop dispatches on the
  opcode with an inline comparison chain ordered by measured frequency
  and calls the target component's *phase handler* directly with
  positional arguments — no per-event argument tuple unpacking, no bound
  method construction, and (because hot records like a router's
  activation token are immutable constants) usually no per-event
  allocation at all.  Generic callbacks still exist (``OP_CALL``, used by
  :meth:`schedule`/:meth:`schedule_at`) for cool paths such as the
  deadlock watchdog and for tests.

* **Router activations, deduplicated.**  The hottest record kind is
  ``OP_STEP`` — "run router R's allocation pipeline this cycle".  A
  router posts its constant ``(OP_STEP, self)`` token under its own dirty
  mark (``router._arb_time``), so each (router × cycle) pair is *armed*
  at most once no matter how many arrivals/credit releases request it;
  the drain loop re-checks the mark so stale tokens cost one integer
  compare instead of a Python frame.  :meth:`Router.step
  <repro.hardware.router.Router.step>` then runs the whole
  arbitration → commit pipeline in a single call.

* **Ordering contract** (unchanged from the callback engine, and the
  foundation of the bit-identical replay guarantee): records run in time
  order; records sharing a cycle run in posting order (FIFO); posting
  "now" is allowed and runs within the current cycle after every
  already-queued record of that cycle (buckets are drained with a
  growing-list cursor, so same-cycle appends are picked up in order).
  Merged records (``OP_LINK`` = link release + next transmission) stand
  exactly where their first legacy event stood and their two halves were
  always adjacent in the legacy bucket, so the visible operation sequence
  — and therefore every simulation result — is bit-identical to the
  per-event engine.  ``processed`` counts *semantic events* (an
  ``OP_LINK`` counts 2), ``activations`` counts dispatched records.

* **Integer timestamps.**  A float timestamp would silently create a
  bucket that the integer bucket lookup can never coalesce with, so the
  generic ``schedule``/``schedule_at`` API validates timestamps up
  front.  It is a cool path (the deadlock watchdog calls it once per
  ``deadlock_cycles``); the typed :meth:`post` path is internal and
  never validates.

* no cancellation — components use generation counters / dirty marks
  instead, which is cheaper than queue surgery.

* **Under the compiled backend the calendar is native during a drain.**
  ``_ckernel.drain`` converts ``_buckets`` / ``_times`` into fixed-width
  records at entry and back on every exit and around every ``OP_CALL``
  callback, so :attr:`pending`, :meth:`peek_time` and the structures
  themselves read the same from a callback or between drains on either
  backend.  The per-event hooks (``_gen``, ``_sink``, a Python
  ``decide``) instead find ``_buckets`` empty — it is their inbox: what
  they :meth:`post` is appended to the native calendar when they return.
"""

from __future__ import annotations

from heapq import heappush
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = [
    "EventQueue",
    "OP_CALL",
    "OP_STEP",
    "OP_ARRIVE",
    "OP_OUT_ARRIVE",
    "OP_SEND",
    "OP_LINK",
    "OP_RELEASE",
    "OP_CREDIT",
    "OP_DELIVER",
    "OP_GEN",
]

# Activation opcodes.  Record layouts (dispatch is positional):
#   (OP_CALL, fn, args)                  generic callback, args unpacked
#   (OP_STEP, router)                    router activation (arb+commit pipeline)
#   (OP_ARRIVE, router, port, vc, pkt)   packet tail reached an input buffer
#   (OP_OUT_ARRIVE, router, port, pkt, vc)  crossed the switch into an output FIFO
#   (OP_SEND, router, port)              first transmission on an idle link
#   (OP_LINK, router, port, size)        tail release + next transmission (weight 2)
#   (OP_RELEASE, router, port, size)     tail release, link goes idle
#   (OP_CREDIT, router, port, vc, size)  credit return to an upstream router
#   (OP_DELIVER, pkt)                    ejection into the simulation sink
#   (OP_GEN, node)                       traffic generator activation
OP_CALL = 0
OP_STEP = 1
OP_ARRIVE = 2
OP_OUT_ARRIVE = 3
OP_SEND = 4
OP_LINK = 5
OP_RELEASE = 6
OP_CREDIT = 7
OP_DELIVER = 8
OP_GEN = 9

#: per-record semantic-event weight (OP_LINK merges two legacy events).
_WEIGHT_2 = OP_LINK


class EventQueue:
    """Calendar (bucket) activation queue with integer cycle timestamps."""

    __slots__ = (
        "now",
        "_buckets",
        "_times",
        "_processed",
        "_activations",
        "_sink",
        "_gen",
        "_drain",
        "_soa",
        "_ckstate",
        "_ckcounters",
        "_lower",
    )

    def __init__(self) -> None:
        self.now: int = 0
        # _buckets[t] is the FIFO list of activation records for cycle t;
        # _times is a min-heap of the distinct keys of _buckets (never
        # empty buckets).
        self._buckets: dict[int, list[tuple]] = {}
        self._times: list[int] = []
        self._processed: int = 0
        self._activations: int = 0
        # Backend wiring (see repro.engine.kernel): _drain is the active
        # drain kernel (None = resolve the pure-Python kernel lazily on
        # first run_until); _soa/_ckstate are the SoA store and the
        # compiled kernel's cached state, bound by bind_backend for the
        # compiled backend only.  _ckcounters is that kernel's block of
        # always-on counters (an array('q') it creates on its first
        # drain and keeps when _ckstate is dropped; read it through
        # _ckernel.counters(eq)).  _lower is the simulation's
        # TrafficGenerator, whose OP_GEN / OP_DELIVER the compiled kernel
        # runs natively (set by a lowered Simulation; None: they go to
        # _gen / _sink).
        self._drain = None
        self._soa = None
        self._ckstate = None
        self._ckcounters = None
        self._lower = None
        self._sink: Callable = _unbound_sink
        self._gen: Callable = _unbound_gen

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_sink(self, fn: Callable) -> None:
        """Set the ejection sink called as ``fn(pkt, now)`` for
        ``OP_DELIVER`` records."""
        self._sink = fn

    def bind_gen(self, fn: Callable) -> None:
        """Set the generator handler called for ``OP_GEN`` records."""
        self._gen = fn

    def bind_backend(self, backend, store) -> None:
        """Attach an engine backend and its SoA *store* to this queue.

        Called by the Simulation when the resolved backend is not the
        pure-Python default; bare queues (tests, tools) never see a
        compiled drain and keep the lazily-resolved Python kernel.
        """
        self._soa = store
        self._drain = backend.drain

    # ------------------------------------------------------------------
    # posting
    # ------------------------------------------------------------------
    def post(self, time: int, record: tuple) -> None:
        """Append activation *record* to the cycle-*time* bucket (trusted).

        The one place a record enters the calendar: the phase handlers
        of :mod:`repro.engine.kernel`, the generators and
        :meth:`schedule`/:meth:`schedule_at` all post through here.  No
        validation: callers are internal components that construct
        well-formed records with integer times ``>= now``.  External code
        and tests should use :meth:`schedule`/:meth:`schedule_at`.
        """
        try:
            # The common case: the cycle already has a bucket (a loaded
            # network posts dozens of records per cycle).
            self._buckets[time].append(record)
        except KeyError:
            self._buckets[time] = [record]
            heappush(self._times, time)

    def schedule(self, delay: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` *delay* cycles from now (integer delay >= 0)."""
        if delay.__class__ is not int and not isinstance(delay, int):
            raise SimulationError(
                f"event delay must be an integer number of cycles, got "
                f"{delay!r} ({delay.__class__.__name__}); a float delay "
                f"would corrupt bucket ordering"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self.post(self.now + delay, (0, fn, args))

    def schedule_at(self, time: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute integer cycle *time* (>= now)."""
        if time.__class__ is not int and not isinstance(time, int):
            raise SimulationError(
                f"event time must be an integer cycle number, got "
                f"{time!r} ({time.__class__.__name__}); a float timestamp "
                f"would corrupt bucket ordering"
            )
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        self.post(time, (0, fn, args))

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def run_until(self, t_end: int) -> None:
        """Process activations with ``time <= t_end``; sets ``now = t_end``.

        Records posted during processing are honoured if they fall within
        the horizon.  The inner loop lives in :mod:`repro.engine.kernel`
        (one bucket pop per distinct cycle, then an opcode-dispatched
        scan over the bucket); which kernel runs is decided by
        :meth:`bind_backend` — bare queues use the pure-Python kernel,
        resolved lazily here to keep the module import-cycle free.
        """
        drain = self._drain
        if drain is None:
            from repro.engine.kernel import py_drain

            drain = self._drain = py_drain
        drain(self, t_end)

    def drain(self, t_max: int) -> bool:
        """Process every remaining activation with ``time <= t_max``.

        Used by the simulation oracle to flush the network after the
        measurement horizon: generators have stopped rescheduling by
        then, so the queue empties once all in-flight packets land.
        Returns ``True`` when the queue is empty afterwards; ``False``
        means activations remain beyond *t_max* (something is still
        feeding the queue — the caller treats that as a failed drain).
        """
        self.run_until(t_max)
        return not self._times

    # ------------------------------------------------------------------
    # introspection (not on the hot path)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued semantic events (merged records count 2)."""
        return sum(
            len(bucket) + sum(1 for rec in bucket if rec[0] == _WEIGHT_2)
            for bucket in self._buckets.values()
        )

    @property
    def processed(self) -> int:
        """Total semantic events executed so far (engine health metric).

        Counts exactly what the per-event engine counted: each phase of a
        merged record is one event, so the figure is directly comparable
        across engine generations (and pinned by the golden traces).
        """
        return self._processed

    @property
    def activations(self) -> int:
        """Total activation records dispatched (``<= processed``).

        The gap to :attr:`processed` measures how much per-event dispatch
        the phase-batched layout avoided.
        """
        return self._activations

    def peek_time(self) -> int | None:
        """Timestamp of the earliest queued record, or None when empty."""
        return self._times[0] if self._times else None


def _unbound_sink(pkt, now) -> None:  # pragma: no cover - wiring error guard
    raise SimulationError(
        "OP_DELIVER dispatched before EventQueue.bind_sink() was called"
    )


def _unbound_gen(node) -> None:  # pragma: no cover - wiring error guard
    raise SimulationError(
        "OP_GEN dispatched before EventQueue.bind_gen() was called"
    )
