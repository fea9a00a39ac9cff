"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EventQueue
from repro.errors import SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(5, log.append, "b")
        q.schedule(1, log.append, "a")
        q.schedule(9, log.append, "c")
        q.run_until(10)
        assert log == ["a", "b", "c"]

    def test_fifo_within_a_cycle(self):
        q = EventQueue()
        log = []
        for tag in "abcd":
            q.schedule(3, log.append, tag)
        q.run_until(3)
        assert log == list("abcd")

    def test_zero_delay_runs_this_cycle(self):
        q = EventQueue()
        log = []

        def chain():
            log.append("first")
            q.schedule(0, log.append, "second")

        q.schedule(2, chain)
        q.run_until(2)
        assert log == ["first", "second"]

    def test_negative_delay_raises(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1, lambda: None)

    def test_float_delay_raises(self):
        """A float delay would silently corrupt bucket ordering."""
        q = EventQueue()
        with pytest.raises(SimulationError, match="integer"):
            q.schedule(1.5, lambda: None)

    def test_integral_float_delay_raises(self):
        """Even float values that happen to be integral are rejected."""
        q = EventQueue()
        with pytest.raises(SimulationError, match="integer"):
            q.schedule(2.0, lambda: None)

    def test_float_absolute_time_raises(self):
        q = EventQueue()
        with pytest.raises(SimulationError, match="integer"):
            q.schedule_at(3.0, lambda: None)

    def test_bool_delay_is_accepted_as_int(self):
        """bool is an int subclass; True means one cycle."""
        q = EventQueue()
        log = []
        q.schedule(True, log.append, "x")
        q.run_until(1)
        assert log == ["x"]

    def test_schedule_at_past_raises(self):
        q = EventQueue()
        q.schedule(5, lambda: None)
        q.run_until(5)
        with pytest.raises(SimulationError):
            q.schedule_at(3, lambda: None)

    def test_horizon_respected(self):
        q = EventQueue()
        log = []
        q.schedule(5, log.append, "in")
        q.schedule(15, log.append, "out")
        q.run_until(10)
        assert log == ["in"]
        assert q.now == 10
        assert q.pending == 1

    def test_events_spawned_within_horizon_run(self):
        q = EventQueue()
        log = []

        def spawn():
            q.schedule(3, log.append, "child")

        q.schedule(2, spawn)
        q.run_until(10)
        assert log == ["child"]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(4, lambda: None)
        assert q.peek_time() == 4

    def test_processed_counter(self):
        q = EventQueue()
        for _ in range(5):
            q.schedule(1, lambda: None)
        q.run_until(1)
        assert q.processed == 5

    def test_exception_keeps_unprocessed_remainder(self):
        """An event that raises consumes itself but preserves the queue."""
        q = EventQueue()
        log = []

        def boom():
            raise RuntimeError("boom")

        q.schedule(1, log.append, "before")
        q.schedule(1, boom)
        q.schedule(1, log.append, "after")
        q.schedule(2, log.append, "later")
        with pytest.raises(RuntimeError):
            q.run_until(5)
        assert log == ["before"]
        assert q.processed == 2  # "before" + the raising event
        assert q.pending == 2  # "after" + "later" survive
        q.run_until(5)
        assert log == ["before", "after", "later"]

    def test_same_cycle_bucket_growth_is_fifo(self):
        """Events scheduled at `now` run after every queued same-cycle
        event, in scheduling order (the growing-bucket contract)."""
        q = EventQueue()
        log = []

        def first():
            log.append("first")
            q.schedule(0, log.append, "child-a")
            q.schedule(0, log.append, "child-b")

        q.schedule(3, first)
        q.schedule(3, log.append, "second")
        q.run_until(3)
        assert log == ["first", "second", "child-a", "child-b"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40))
def test_arbitrary_delays_execute_sorted(delays):
    q = EventQueue()
    seen = []
    for d in delays:
        q.schedule(d, lambda t=d: seen.append(t))
    q.run_until(100)
    assert seen == sorted(delays)
    assert len(seen) == len(delays)


class _FakeRouter:
    """Minimal activation target implementing the typed-record protocol."""

    def __init__(self, log):
        self.log = log
        self._arb_time = None
        self.active_keys = {0}
        self.steps = 0

    def step(self, now):
        self._arb_time = None
        self.steps += 1
        self.log.append(("step", now))

    def arrive(self, port, vc, pkt, now):
        self.log.append(("arrive", pkt))

    def output_enqueue(self, port, pkt, vc, now):
        self.log.append(("out_arrive", pkt))

    def send(self, port, now):
        self.log.append(("send", port))

    def link_step(self, port, size, now):
        self.log.append(("link", port))

    def release_output(self, port, size, now):
        self.log.append(("release", port))

    def release_credit(self, port, vc, size, now):
        self.log.append(("credit", port))


class TestTypedRecords:
    """Dispatch, weights and dedup of the typed activation layer."""

    def _queue(self):
        log = []
        q = EventQueue()
        q.bind_sink(lambda pkt, now: log.append(("deliver", pkt)))
        q.bind_gen(lambda node: log.append(("gen", node)))
        return q, log

    def test_typed_dispatch_reaches_phase_handlers(self):
        q, log = self._queue()
        r = _FakeRouter(log)
        q.post(1, (2, r, 0, 0, "p1"))  # OP_ARRIVE
        q.post(1, (3, r, 0, "p2", 0))  # OP_OUT_ARRIVE
        q.post(1, (4, r, 7))  # OP_SEND
        q.post(1, (6, r, 7, 8))  # OP_RELEASE
        q.post(1, (7, r, 7, 0, 8))  # OP_CREDIT
        q.post(1, (8, "p3"))  # OP_DELIVER
        q.post(1, (9, 42))  # OP_GEN
        q.run_until(1)
        assert log == [
            ("arrive", "p1"),
            ("out_arrive", "p2"),
            ("send", 7),
            ("release", 7),
            ("credit", 7),
            ("deliver", "p3"),
            ("gen", 42),
        ]
        assert q.processed == 7
        assert q.activations == 7

    def test_link_record_counts_two_events(self):
        """OP_LINK merges a release and a transmission: one activation,
        two semantic events, in pending and processed alike."""
        q, log = self._queue()
        r = _FakeRouter(log)
        q.post(3, (5, r, 1, 8))  # OP_LINK
        q.post(3, (4, r, 2))  # OP_SEND
        assert q.pending == 3
        q.run_until(3)
        assert q.processed == 3
        assert q.activations == 2
        assert log == [("link", 1), ("send", 2)]

    def test_step_token_dedup_via_dirty_mark(self):
        """Stale activation tokens are skipped; an armed token runs the
        pipeline exactly once per (router, cycle)."""
        q, log = self._queue()
        r = _FakeRouter(log)
        token = (1, r)
        r._arb_time = 4
        q.post(2, token)  # stale: armed for cycle 4, fires at 2
        q.post(4, token)
        q.post(4, token)  # duplicate token in the same bucket
        q.run_until(5)
        assert r.steps == 1  # stale + duplicate both skipped
        assert log == [("step", 4)]
        assert q.processed == 3  # skipped tokens still count as events

    def test_step_skips_idle_router(self):
        q, log = self._queue()
        r = _FakeRouter(log)
        r.active_keys = set()
        r._arb_time = 1
        q.post(1, (1, r))
        q.run_until(1)
        assert r.steps == 0
        assert r._arb_time is None  # the mark is still cleared
        assert q.processed == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(0, 4)),
        min_size=1,
        max_size=40,
    )
)
def test_same_cycle_fifo_under_random_interleavings(ops):
    """Mixed generic + typed records at mixed cycles run in (time,
    submission) order — the FIFO contract the bit-identical replay of the
    per-event engine rests on."""
    q = EventQueue()
    log = []
    q.bind_sink(lambda pkt, now: log.append(pkt))
    q.bind_gen(lambda node: log.append(node))
    r = _FakeRouter(log)
    expected = []
    for i, (delay, kind) in enumerate(ops):
        tag = (delay, i)
        if kind == 0:
            q.schedule(delay, log.append, tag)
        elif kind == 1:
            q.post(delay, (2, r, 0, 0, tag))  # OP_ARRIVE logs the pkt slot
        elif kind == 2:
            q.post(delay, (8, tag))  # OP_DELIVER
        elif kind == 3:
            q.post(delay, (9, tag))  # OP_GEN
        else:
            q.post(delay, (3, r, 0, tag, 0))  # OP_OUT_ARRIVE
        expected.append(tag)
    q.run_until(6)
    normalized = [e[1] if isinstance(e, tuple) and e[0] == "arrive" else e for e in log]
    normalized = [
        e[1] if isinstance(e, tuple) and e[0] == "out_arrive" else e for e in normalized
    ]
    # Stable sort by cycle == required execution order (FIFO within cycle).
    assert normalized == sorted(expected, key=lambda t: t[0])
    assert q.processed == len(ops)


class TestDrainEdgeCases:
    def test_drain_empty_queue_is_true_and_advances_now(self):
        q = EventQueue()
        assert q.drain(25) is True
        assert q.now == 25

    def test_drain_immediately_after_run_until_bound(self):
        """An event landing exactly on the prior run_until horizon has
        already run; drain over the same bound is a no-op success."""
        q = EventQueue()
        log = []
        q.schedule(10, log.append, "at-bound")
        q.run_until(10)
        assert log == ["at-bound"]
        assert q.drain(10) is True
        assert q.now == 10

    def test_drain_reports_leftover_beyond_horizon(self):
        q = EventQueue()
        log = []
        q.schedule(3, log.append, "in")
        q.schedule(8, log.append, "out")
        assert q.drain(5) is False  # the cycle-8 event survives
        assert log == ["in"]
        assert q.pending == 1
        assert q.drain(8) is True
        assert log == ["in", "out"]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=20),
    st.integers(min_value=0, max_value=30),
)
def test_drain_property_empties_iff_nothing_beyond_horizon(delays, horizon):
    q = EventQueue()
    ran = []
    for d in delays:
        q.schedule(d, ran.append, d)
    emptied = q.drain(horizon)
    assert emptied == (not [d for d in delays if d > horizon])
    assert ran == sorted(d for d in delays if d <= horizon)
    assert q.now == horizon
