"""The compiled drain's native event path: mirror in, mirror out, absorb.

For the length of a drain the compiled kernel (``repro.engine._ckernel``)
holds the calendar, the output FIFOs, the routers' ``_arb_time`` marks
and the queue's counters in native form; Python sees
them again on every exit, around every ``OP_CALL`` callback, and — for
the narrow contract hooks — through the inbox.  This module pins that
contract against the pure-Python kernel, which keeps all of it in Python
objects throughout:

* a hypothesis differential of a bound python queue and a bound compiled
  queue over random callback programs (same-cycle, duplicate-cycle and
  far-future posting, a raising record mid-bucket), drained in slices;
* a callback fired mid-drain sees the complete state on both backends;
* an un-lowered compiled cell, whose generator and ``Router.inject`` post
  through the inbox, equals the lowered and the python cell slice by
  slice;
* a run that raises inside the drain leaves the same state on both
  backends and no longer leaks its ``Simulation`` on the compiled one;
* the kernel's always-on counters name what it re-entered Python for.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation
from test_engine_backends import BACKENDS, _store_snapshot, needs_compiled


class Boom(Exception):
    """Raised by the programs' raising records."""


# ----------------------------------------------------------------------
# random callback programs on bound queues
# ----------------------------------------------------------------------
class _Program:
    """One queue running a callback program; every record logs itself."""

    def __init__(self, backend: str, program) -> None:
        self.sim = Simulation(tiny_config(), engine_backend=backend)
        self.eq = self.sim.engine
        self.log: list = []
        self.serial = 0
        for time, kind, delays in program:
            self.eq.schedule_at(time, self.fire, self._ident(), kind, tuple(delays))
        # stale activation tokens: typed records among the callbacks
        for time, _kind, _delays in program[::3]:
            self.eq.post(time, (1, self.sim.routers[time % 2]))

    def _ident(self) -> int:
        self.serial += 1
        return self.serial

    def fire(self, ident: int, kind: str, delays: tuple) -> None:
        eq = self.eq
        self.log.append((ident, kind, eq.now, eq.pending, eq.peek_time()))
        if kind == "raise":
            raise Boom(ident)
        if kind == "spawn":
            for delay in delays:  # 0: this bucket; repeats: one bucket twice
                eq.schedule(delay, self.fire, self._ident(), "leaf", ())

    def state(self) -> tuple:
        eq = self.eq
        buckets = {
            t: [(rec[0],) + (rec[2][:2] if rec[0] == 0 else ()) for rec in bucket]
            for t, bucket in eq._buckets.items()
        }
        return (
            list(self.log),
            eq.now,
            eq.processed,
            eq.activations,
            eq.pending,
            eq.peek_time(),
            sorted(eq._times),
            buckets,
        )

    def run_slice(self, t_end: int) -> tuple:
        raised = []
        while True:  # a raising record ends a drain call: resume it
            try:
                self.eq.run_until(t_end)
                return tuple(raised), self.state()
            except Boom as exc:
                raised.append((exc.args[0], self.state()))


_records = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["leaf", "spawn", "spawn", "raise"]),
    st.lists(
        st.sampled_from([0, 0, 1, 1, 2, 7, 7, 500, 3000]), min_size=1, max_size=4
    ),
)


@needs_compiled
@settings(max_examples=60, deadline=None)
@given(
    program=st.lists(_records, min_size=1, max_size=25),
    cuts=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=4),
)
def test_callback_programs_drain_alike_in_slices(program, cuts):
    py = _Program("python", program)
    ck = _Program("compiled", program)
    assert py.state() == ck.state()
    for t_end in sorted(cuts) + [5000]:
        assert py.run_slice(t_end) == ck.run_slice(t_end)
    assert ck.eq.pending == 0 and not ck.eq._buckets


# ----------------------------------------------------------------------
# a callback mid-drain sees everything
# ----------------------------------------------------------------------
def _busy_cell(routing: str, pattern: str = "advc") -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing=routing,
        warmup_cycles=50,
        measure_cycles=400,
        seed=5,
    ).with_traffic(pattern=pattern, load=0.8)


def _probe(sim: Simulation) -> dict:
    """Everything a callback can read about the event state."""
    eq, soa = sim.engine, sim.soa
    return {
        "now": eq.now,
        "pending": eq.pending,
        "peek": eq.peek_time(),
        "processed": eq.processed,
        "bucket_sizes": {t: len(b) for t, b in eq._buckets.items()},
        "bucket_ops": {t: [rec[0] for rec in b] for t, b in eq._buckets.items()},
        "out_fifo": [[(p.pid, vc, t) for (p, vc, t) in f] for f in soa.out_fifo],
        "arb": [r._arb_time for r in sim.routers],
    }


@needs_compiled
@pytest.mark.parametrize("routing", ["min", "in-trns-mm"])
def test_callback_mid_drain_sees_the_full_state(routing):
    probes = {}
    for backend in ("python", "compiled"):
        sim = Simulation(_busy_cell(routing), engine_backend=backend)
        seen = probes[backend] = []
        sim.start()
        for t in (120, 121, 300):
            sim.engine.schedule_at(
                t, lambda sim=sim, seen=seen: seen.append(_probe(sim))
            )
        sim.engine.run_until(sim.config.total_cycles)
    assert probes["python"] == probes["compiled"]
    first = probes["compiled"][0]
    assert first["now"] == 120 and first["pending"] > 50
    assert first["now"] in first["bucket_sizes"]  # the bucket being drained
    assert any(first["out_fifo"])
    assert any(t is not None for t in first["arb"])


# ----------------------------------------------------------------------
# the inbox: an un-lowered compiled cell
# ----------------------------------------------------------------------
def _sliced_snapshots(cfg, backend: str, unlower: bool):
    sim = Simulation(cfg, engine_backend=backend)
    if unlower:
        sim._unlower()
    sim.start()
    snaps = []
    for k in range(1, 6):
        sim.engine.run_until(cfg.total_cycles * k // 5)
        snaps.append(
            (
                sim.engine.processed,
                sim.engine.activations,
                sim.engine.pending,
                _store_snapshot(sim),
                sim.rng_traffic.getstate(),
                sim.rng_routing.getstate(),
            )
        )
    return sim, snaps


@needs_compiled
@pytest.mark.parametrize("routing", ["min", "src-crg", "in-trns-mm"])
def test_unlowered_cell_posts_through_the_inbox(routing):
    from repro.engine import _ckernel

    cfg = _busy_cell(routing)
    _py, reference = _sliced_snapshots(cfg, "python", unlower=False)
    lowered, low_snaps = _sliced_snapshots(cfg, "compiled", unlower=False)
    unlowered, un_snaps = _sliced_snapshots(cfg, "compiled", unlower=True)
    assert low_snaps == reference
    assert un_snaps == reference
    assert lowered._lower is not None and unlowered._lower is None
    # the lowered cell never left the kernel between its five mirrors ...
    low = _ckernel.counters(lowered.engine)
    assert low["drains"] == 5
    assert low["full_mirrors"] == 5 + low["reentries_call"]
    assert low["inbox_records"] == 0
    for kind in ("gen", "promote", "sink", "decide", "injection"):
        assert low[f"reentries_{kind}"] == 0
    # ... the un-lowered one generated, injected and delivered in Python,
    # and everything those hooks posted came in through the inbox
    un = _ckernel.counters(unlowered.engine)
    assert un["reentries_gen"] > 0 and un["reentries_sink"] > 0
    assert un["reentries_injection"] > 0  # StatsCollector.on_injection
    assert un["inbox_records"] >= 2 * un["reentries_gen"] - 100
    assert un["reentries_decide"] == 0  # the decide twin is not traffic's
    assert un["peak_pending_records"] > 50 and un["peak_bucket_len"] > 5


@needs_compiled
def test_counters_are_absent_before_the_first_compiled_drain():
    from repro.engine import _ckernel

    sim = Simulation(tiny_config(), engine_backend="compiled")
    assert _ckernel.counters(sim.engine) is None
    sim.run()
    after = _ckernel.counters(sim.engine)
    assert after["drains"] == 1 and after["full_mirrors"] >= 1
    # they outlive the kernel state _collect() dropped
    assert sim.engine._ckstate is None
    assert Simulation(tiny_config(), engine_backend="python").engine._ckcounters is None


# ----------------------------------------------------------------------
# a run that raises inside the drain
# ----------------------------------------------------------------------
def _raise_at_50(backend: str):
    def boom():
        raise Boom("cycle 50")

    sim = Simulation(_busy_cell("in-trns-mm"), engine_backend=backend)
    sim.start()
    sim.engine.schedule_at(50, boom)
    with pytest.raises(Boom):
        sim.engine.run_until(sim.config.total_cycles)
    return sim


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_that_raises_is_collectable(backend):
    """eq -> capsule -> routers -> sim -> eq used to survive the raise:
    only ``_collect()`` dropped the compiled kernel's state."""
    sim = _raise_at_50(backend)
    assert sim.engine._ckstate is None
    ref = weakref.ref(sim)
    del sim
    gc.collect()
    assert ref() is None


@needs_compiled
def test_a_raise_leaves_the_same_state_on_both_backends():
    py, ck = _raise_at_50("python"), _raise_at_50("compiled")
    assert ck.engine.now == py.engine.now == 50
    assert ck.engine.processed == py.engine.processed
    assert ck.engine.activations == py.engine.activations
    assert ck.engine.pending == py.engine.pending
    assert _store_snapshot(ck) == _store_snapshot(py)
    assert ck.rng_traffic.getstate() == py.rng_traffic.getstate()
    assert ck.rng_routing.getstate() == py.rng_routing.getstate()
    # and both pick the run up again where the raise left it
    for sim in (py, ck):
        sim.engine.run_until(sim.config.total_cycles)
    assert _store_snapshot(ck) == _store_snapshot(py)
    assert ck.engine.processed == py.engine.processed
