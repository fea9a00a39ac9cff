"""Inside a compiled drain a packet is a row of the kernel's packet pool.

The compiled kernel (``repro.engine._ckernel``) keeps each packet as a
row of int64 columns, one per ``Packet.__slots__`` field, and builds a
``Packet`` only where Python must see one: a mirror out (``soa.in_q``,
``soa.out_fifo``, ``eq._buckets``), a Python ``decide``,
the un-lowered generator and sink hooks and ``OP_CALL`` callbacks.  The object it builds stays attached to its row, so a packet is
one object at every crossing, and its fields are written into the object
before each crossing and read back after it.  This module pins that
boundary against the pure-Python kernel, which keeps every packet a
Python object throughout:

* (a) a callback fired mid-drain reads every queued packet and edits the
  plan of some, on a source-routed cell: both backends see the same
  fields and end in the same result, and a waiting head whose plan was
  edited takes the hop of its new plan (the compiled memo is dropped at
  every mirror out);
* (b) a mechanism whose ``decide`` has no C twin sees, at every call, a
  packet whose fields equal the python backend's;
* (c) an un-lowered cell with the oracle on passes its audit, and every
  packet its ``on_delivery`` gets is the object the generator's
  constructor (``TrafficGenerator._make_packet``) built when the packet
  reached the head of its injection FIFO;
* (d) the decision memo is the compiled kernel's own: it reuses C twin
  decisions, and a Python ``decide`` is called on every pass, as on the
  python backend, also across the mirrors that re-take every row (builds
  without ``NDEBUG`` check, at every lookup, that a memo names its
  FIFO's head row at the generation it was stored for);
* a ``Packet`` Python holds across a drain ends with the fields the
  drain gave it;
* on a lowered cell whose decisions all run in C twins, the only packets
  built are those the kernel held at drain exit (``packets_materialized``)
  — those in the network and the heads of the injection FIFOs: the
  packets behind a head stay ``(gen_time, dst)`` pairs;
* a saturated cell's packets leave each node in generation order on both
  backends, and the backlog does not grow the packet pool.
"""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.engine.events import OP_OUT_ARRIVE
from repro.exec.serialize import result_to_dict
from repro.hardware.packet import Packet
from repro.routing.base import min_hop_port
from repro.routing.factory import decide_twin, make_routing
from repro.routing.intransit import InTransitAdaptiveRouting
from test_engine_backends import _store_snapshot, needs_compiled

pytestmark = needs_compiled

BACKENDS = ("python", "compiled")


def _cell(routing: str = "in-trns-mm", **kw) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing=routing,
        warmup_cycles=50,
        measure_cycles=400,
        seed=13,
        **kw,
    ).with_traffic(pattern="advc", load=0.8)


def _fields(pkt: Packet) -> tuple:
    return tuple(getattr(pkt, name) for name in Packet.__slots__)


def _counters(sim: Simulation) -> dict:
    from repro.engine import _ckernel

    return _ckernel.counters(sim.engine)


def _queued(sim: Simulation) -> list[Packet]:
    """Every packet in an input or output FIFO, in store order."""
    soa = sim.soa
    pkts = [p for q in soa.in_q if q for p in q]
    return pkts + [p for fifo in soa.out_fifo for (p, _vc, _t) in fifo]


# ----------------------------------------------------------------------
# (a) a callback reads and edits packets mid-drain
# ----------------------------------------------------------------------
def _replan(sim: Simulation, log: list) -> None:
    """Log every queued packet, then send each Valiant packet still in
    its source group minimally from here on."""
    pkts = _queued(sim)
    log.append((sim.engine.now, [_fields(p) for p in pkts]))
    for p in pkts:
        if p.plan == 2 and p.global_hops == 0:
            p.plan = 1


@pytest.mark.parametrize("routing", ["obl-rrg", "src-crg"])
def test_a_callback_edits_plans_mid_drain(routing):
    runs = {}
    for backend in BACKENDS:
        sim = Simulation(_cell(routing), engine_backend=backend)
        log: list = []
        sim.start()
        for t in range(100, 450, 70):
            sim.engine.schedule_at(t, _replan, sim, log)
        sim.engine.run_until(sim.config.total_cycles)
        runs[backend] = (log, _store_snapshot(sim), result_to_dict(sim._collect()))
    assert runs["compiled"] == runs["python"]
    log = runs["compiled"][0]
    assert len(log) == 5 and all(fields for _t, fields in log)
    # the edit had something to act on
    assert any(f[Packet.__slots__.index("plan")] == 2 for _t, fs in log for f in fs)


def _replan_heads(sim: Simulation, planned: dict) -> None:
    """Send every waiting Valiant head still in its source group
    minimally, where that changes its next hop; note that hop by pid."""
    for r in sim.routers:
        for key in r.active_keys:
            q = r.in_q[r.kb + key]
            if not q or q[0].plan != 2 or q[0].global_hops:
                continue
            pkt = q[0]
            if r.router_id == pkt.dst_router:
                continue  # ejects under either plan
            minimal = min_hop_port(sim.topo, r, pkt.dst_router)
            if minimal != min_hop_port(sim.topo, r, pkt.inter_router):
                pkt.plan = 1
                planned[pkt.pid] = minimal


def _note_hops(sim: Simulation, planned: dict, taken: dict) -> None:
    """The output port each replanned packet was granted, once granted."""
    for bucket in sim.engine._buckets.values():
        for rec in bucket:
            if rec[0] == OP_OUT_ARRIVE and rec[3].pid in planned:
                taken.setdefault(rec[3].pid, rec[2])


@pytest.mark.parametrize("routing", ["obl-rrg", "src-crg"])
def test_a_replanned_waiting_head_takes_its_new_hop(routing):
    """A head that was decided (and, on the compiled backend, memoized)
    on a Valiant plan, then switched to minimal by a callback, is granted
    its minimal hop: neither backend replays the stale decision."""
    cfg = _cell(routing).with_traffic(pattern="adversarial")
    runs = {}
    for backend in BACKENDS:
        sim = Simulation(cfg, engine_backend=backend)
        planned: dict = {}
        taken: dict = {}
        sim.start()
        sim.engine.schedule_at(200, _replan_heads, sim, planned)
        # every cycle: a grant's record waits out the pipeline latency
        for t in range(201, 260):
            sim.engine.schedule_at(t, _note_hops, sim, planned, taken)
        sim.engine.run_until(260)
        assert taken and {pid: planned[pid] for pid in taken} == taken
        runs[backend] = (planned, taken)
    assert runs["compiled"] == runs["python"]


# ----------------------------------------------------------------------
# (b) a Python decide sees the reference's packet
# ----------------------------------------------------------------------
class TracedInTransit(InTransitAdaptiveRouting):
    """An in-transit mechanism with no C twin (a subclass): the compiled
    kernel calls this decide with the Packet of the head's row."""

    def __init__(self, sim, log: list) -> None:
        base = make_routing("in-trns-mm", sim)
        self.__dict__.update(vars(base))
        self._log = log

    def decide(self, pkt, router):
        self._log.append((router.router_id, _fields(pkt)))
        return super().decide(pkt, router)


def _traced_run(backend: str, call_times=()) -> tuple:
    sim = Simulation(_cell(), engine_backend=backend)
    log: list = []
    sim.bind_routing(TracedInTransit(sim, log))
    assert decide_twin(sim.routing) is None
    sim.start()
    for t in call_times:  # full mirrors: every row is taken in afresh
        sim.engine.schedule_at(t, lambda: None)
    sim.engine.run_until(sim.config.total_cycles)
    return sim, log, result_to_dict(sim._collect())


def test_a_python_decide_sees_the_reference_packet():
    _py, py_log, py_result = _traced_run("python")
    ck, ck_log, ck_result = _traced_run("compiled")
    assert ck_log == py_log and ck_result == py_result
    counters = _counters(ck)
    assert counters["reentries_decide"] == len(ck_log) > 1000
    # the decide was handed objects built from rows
    assert counters["packets_materialized"] > 0


# ----------------------------------------------------------------------
# (c) one object per packet on an audited, un-lowered cell
# ----------------------------------------------------------------------
class _Identity:
    """The oracle, its delivery hook noting whether each packet is the
    object the generator's constructor built for its pid."""

    def __init__(self, sim: Simulation) -> None:
        self._oracle = sim.oracle
        self.built: dict[int, Packet] = {}
        self.same: list[bool] = []
        make = sim.gen._make_packet

        def tracked(node, dst, gen_time):
            pkt = make(node, dst, gen_time)
            self.built[pkt.pid] = pkt
            return pkt

        for r in sim.routers:
            r._make_packet = tracked

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def on_delivery(self, pkt, now) -> None:
        self.same.append(self.built[pkt.pid] is pkt)
        self._oracle.on_delivery(pkt, now)


def test_the_oracle_sees_one_object_per_packet():
    sim = Simulation(_cell(oracle=True), engine_backend="compiled")
    assert sim._lower is None
    sim.oracle = seen = _Identity(sim)
    result = sim.run()
    assert result.oracle["passed"]
    assert len(seen.same) == len(seen.built) > 500 and all(seen.same)
    # Python made every packet, at promotion: the kernel took the pairs
    # the generator queued and the packets built from them, and built none
    counters = _counters(sim)
    assert counters["inq_absorbed"] == sim.stats.total_generated
    assert counters["reentries_promote"] == len(seen.built)
    assert counters["packets_materialized"] == 0


# ----------------------------------------------------------------------
# (d) the memo across mirrors
# ----------------------------------------------------------------------
def test_the_memo_hits_where_the_reference_does():
    """Only C twin decisions are memoized.  A twinned lowered cell reuses
    them; the traced mechanism (no twin) logs its decide calls, and equal
    logs with no memo hit mean the compiled kernel called it on every
    pass the python backend did, also after callbacks that mirror every
    row out and back in."""
    sim = Simulation(_cell(), engine_backend="compiled")
    assert sim._lower is not None and decide_twin(sim.routing) == "in-transit"
    sim.run()
    assert _counters(sim)["memo_hits"] > 0
    calls = range(60, 450, 35)
    _py, py_log, py_result = _traced_run("python", calls)
    ck, ck_log, ck_result = _traced_run("compiled", calls)
    assert ck_log == py_log and ck_result == py_result
    counters = _counters(ck)
    assert counters["full_mirrors"] == 1 + len(calls)
    assert counters["memo_hits"] == 0


# ----------------------------------------------------------------------
# a Packet Python holds across a drain
# ----------------------------------------------------------------------
def test_a_held_packet_ends_with_its_final_fields():
    """Rows write into their attached Packet when they are released: a
    packet Python kept a reference to across the drain that delivered it
    shows the same ledger as on the python backend."""
    held = {}
    for backend in BACKENDS:
        sim = Simulation(_cell(), engine_backend=backend)
        sim.start()
        sim.engine.run_until(150)
        pkts = _queued(sim)
        sim.engine.run_until(sim.config.total_cycles + 5000)
        assert sim.stats.total_delivered == sim.stats.total_generated
        held[backend] = [_fields(p) for p in pkts]
    assert sim._lower is not None  # the compiled cell delivered natively
    assert len(held["compiled"]) > 50 and held["compiled"] == held["python"]


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_a_twinned_lowered_cell_builds_only_the_packets_it_holds_at_exit():
    """A larger count would mean a boundary crossing nobody asked for."""
    sim = Simulation(_cell(), engine_backend="compiled")
    assert sim._lower is not None and decide_twin(sim.routing) == "in-transit"
    result = sim.run()
    counters = _counters(sim)
    soa = sim.soa
    heads = sum(
        len(soa.in_q[r.kb + port * r.max_vcs])
        for r in sim.routers
        for port in range(r._num_node_ports)
    )
    queued = sum(r.injection_backlog() for r in sim.routers)
    assert counters["drains"] == 1 and counters["reentries_decide"] == 0
    assert counters["packets_materialized"] == result.in_flight_at_end + heads
    assert queued > heads > 0  # a backlog stayed pairs behind its heads
    assert len(_queued(sim)) <= counters["packets_materialized"] > 0
    assert counters["peak_packet_rows"] >= counters["packets_materialized"]
    assert counters["peak_tail_records"] >= queued - heads
