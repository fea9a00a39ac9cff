"""The injection tail: a packet behind the head of its FIFO is a pair.

A node's generated packets queue at its injection port.  Only the head
of that FIFO is a built packet (a ``Packet`` on the python backend, a
packet row inside a compiled drain); the packets behind it wait in the
store's injection tail (``SoAStore.inj_tail``) as ``(gen_time, dst)``
pairs, and the allocation scan builds the next head from the first pair
(``kernel.promote`` / ``c_step``) when the FIFO empties.  This module
pins what that must not change, and what it buys:

* each node's packets leave injection in generation order, identically
  on both backends;
* an audited run that ends with a backlog at the horizon drains it and
  passes conservation;
* a saturated compiled cell's packet pool does not grow with the
  backlog (``peak_packet_rows``), while its tail does
  (``peak_tail_records``);
* ``Router.inject`` is honoured behind a head and refused behind a tail,
  where its packet would overtake the packets generated before it, on
  both backends and from inside a compiled drain's generator hook.
"""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SimulationConfig, small_config
from repro.core.simulation import Simulation
from repro.errors import FlowControlError
from repro.exec.serialize import result_to_dict
from test_engine_backends import BACKENDS, _store_snapshot, needs_compiled


def _saturated(**kw) -> SimulationConfig:
    """An h=2 ADVc cell whose bottleneck routers build an injection
    backlog (the offered load is past MIN's ADVc saturation point)."""
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing="min",
        warmup_cycles=100,
        measure_cycles=600,
        seed=3,
        **kw,
    ).with_traffic(pattern="advc", load=0.6)


def _tail_pairs(sim: Simulation) -> int:
    soa = sim.soa
    return sum(
        (len(tail) - head) // 2 for tail, head in zip(soa.inj_tail, soa.inj_tail_head)
    )


# ----------------------------------------------------------------------
# order and conservation
# ----------------------------------------------------------------------
class _InjectionLog:
    """The oracle, its delivery hook noting when each packet was
    generated and when it left its injection FIFO, per source node."""

    def __init__(self, oracle) -> None:
        self._oracle = oracle
        self.by_node: dict[int, list[tuple[int, int]]] = {}

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def on_delivery(self, pkt, now) -> None:
        self.by_node.setdefault(pkt.src_node, []).append(
            (pkt.gen_time, pkt.inject_time)
        )
        self._oracle.on_delivery(pkt, now)


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_node_injects_in_generation_order(backend):
    sim = Simulation(_saturated(oracle=True), engine_backend=backend)
    sim.oracle = log = _InjectionLog(sim.oracle)
    sim.start()
    sim.engine.run_until(sim.config.total_cycles)
    assert _tail_pairs(sim) > 100  # a backlog waits behind the heads
    result = sim._collect()
    assert result.oracle["passed"]
    assert sum(map(len, log.by_node.values())) == sim.stats.total_generated
    for node, packets in log.by_node.items():
        packets.sort()
        injected = [inj for _gen, inj in packets]
        # one packet at a time crosses the port: strictly increasing
        assert all(a < b for a, b in zip(injected, injected[1:])), node
    assert log.by_node == _reference_order()


def _reference_order() -> dict:
    sim = Simulation(_saturated(oracle=True), engine_backend="python")
    sim.oracle = log = _InjectionLog(sim.oracle)
    sim.run()
    for packets in log.by_node.values():
        packets.sort()
    return log.by_node


@needs_compiled
def test_a_lowered_backlog_matches_the_python_backend():
    """The lowered generator queues pairs natively (``c_gen``) and builds
    rows from them (``row_fill``): same store, tails included, and same
    result as the python backend's pairs and ``Packet`` objects."""
    runs = {}
    for backend in ("python", "compiled"):
        sim = Simulation(_saturated(), engine_backend=backend)
        sim.start()
        sim.engine.run_until(sim.config.total_cycles)
        runs[backend] = (_store_snapshot(sim), result_to_dict(sim._collect()))
    assert sim._lower is not None
    assert runs["compiled"] == runs["python"]
    assert any(runs["compiled"][0]["inj_tail"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_audited_run_with_a_backlog_at_the_horizon_passes(backend):
    sim = Simulation(_saturated(oracle=True), engine_backend=backend)
    sim.start()
    sim.engine.run_until(sim.config.total_cycles)
    backlog = sum(r.injection_backlog() for r in sim.routers)
    assert backlog > _tail_pairs(sim) > 0
    result = sim._collect()
    assert result.oracle["checks"]["conservation"]["ok"], result.oracle
    assert result.oracle["passed"]
    assert sum(r.injection_backlog() for r in sim.routers) == 0
    assert _tail_pairs(sim) == 0


# ----------------------------------------------------------------------
# bounded memory
# ----------------------------------------------------------------------
@needs_compiled
def test_the_packet_pool_does_not_grow_with_the_backlog():
    """At 3x the measure length an h=2 ADVc@0.6 MIN cell holds ~3x the
    backlog; its packets beyond the heads are pairs, so the packet pool's
    high-water mark stays within 10 % of the 1x run's."""
    from repro.engine import _ckernel

    peaks = {}
    for scale in (1, 3):
        cfg = small_config(
            routing="min", warmup_cycles=300, measure_cycles=2000 * scale, seed=1
        ).with_traffic(pattern="advc", load=0.6)
        sim = Simulation(cfg, engine_backend="compiled")
        sim.run()
        counters = _ckernel.counters(sim.engine)
        backlog = sum(r.injection_backlog() for r in sim.routers)
        peaks[scale] = (counters["peak_packet_rows"], backlog)
        assert counters["peak_tail_records"] >= backlog - sim.topo.num_nodes
    (rows_1, backlog_1), (rows_3, backlog_3) = peaks[1], peaks[3]
    assert backlog_1 > 5000 and backlog_3 > 2.5 * backlog_1
    assert rows_3 <= 1.1 * rows_1


# ----------------------------------------------------------------------
# Router.inject keeps the FIFO order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_inject_is_honoured_behind_a_head_and_refused_behind_a_tail(backend):
    sim = Simulation(_saturated(), engine_backend=backend)
    soa = sim.soa
    # an idle port (no tail): the packet joins the FIFO ...
    r, port = sim.gen._inject_map[0]
    first = sim.gen._make_packet(0, 9, 0)
    r.inject(port, first, 0)
    assert soa.in_q[r.kb + port * r.max_vcs] == [first]
    sim.start()
    sim.engine.run_until(300)
    assert first.injected
    # ... a port whose tail holds packets refuses it
    node = next(
        n for n, tail in enumerate(soa.inj_tail) if len(tail) > soa.inj_tail_head[n]
    )
    r, port = sim.gen._inject_map[node]
    q = soa.in_q[r.kb + port * r.max_vcs]
    before = list(q)
    dst = (node + 5) % sim.topo.num_nodes
    pkt = sim.gen._make_packet(node, dst, sim.engine.now)
    with pytest.raises(FlowControlError, match="would overtake the"):
        r.inject(port, pkt)
    assert q == before


class _InjectingPattern:
    """A traffic pattern whose ``dest`` injects a packet of its own on the
    generating node's port from cycle 200 on: ``Router.inject`` from
    inside a narrow hook, which the compiled drain absorbs after it."""

    def __init__(self, sim: Simulation) -> None:
        self._inner, self._sim = sim.traffic, sim

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def dest(self, node, rng):
        sim = self._sim
        if sim.engine.now >= 200:
            r, port = sim.gen._inject_map[node]
            pkt = sim.gen._make_packet(
                node, (node + 5) % sim.topo.num_nodes, sim.engine.now
            )
            r.inject(port, pkt)
        return self._inner.dest(node, rng)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_inject_from_a_hook_behind_a_tail_is_refused(backend):
    sim = Simulation(_saturated(), engine_backend=backend)
    sim.traffic = _InjectingPattern(sim)
    sim.start()
    with pytest.raises(FlowControlError, match="would overtake the"):
        sim.engine.run_until(sim.config.total_cycles)
    assert sim._lower is None and sim.engine.now >= 200
