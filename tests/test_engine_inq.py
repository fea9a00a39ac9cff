"""The compiled kernel's input FIFOs are native for the length of a drain.

``soa.in_q`` holds one Python list per input key (None for a VC its port
class lacks).  Inside ``_ckernel.drain`` each list's packets live in a
native ring, next to a cached head, the head's size and the key's
decision memo (C only; cleared on the way out); the lists are empty.
They come back on every exit and around every ``OP_CALL`` callback, and
after a narrow hook the injection-key lists of each router
``Router.inject`` armed are absorbed.
This module pins that against the pure-Python kernel:

* python and compiled leave the same store (the injection tails
  included) and the same set order behind
  at ``run_until`` boundaries — a lowered cell, an un-lowered oracle cell
  whose generator injects inside a hook, and a callback that reverses an
  injection queue and moves a packet between two VCs of one port;
* a callback inside a lowered drain sees every queued packet;
* a drain that raises leaves every packet somewhere Python can see it;
* ``inq_absorbed`` counts exactly the packets taken after a hook;
* an entry that is not a ``Packet`` with an int size raises
  ``FlowControlError`` instead of crashing the compiled drain.

Builds without ``NDEBUG`` (the ``sanitize`` CI job's) additionally check
every cached head against its ring and every list against the
narrow-hook contract at mirror out.
"""

from __future__ import annotations

import re

import pytest

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation
from repro.engine import kernel
from repro.errors import FlowControlError
from repro.hardware.packet import Packet
from test_engine_backends import _store_snapshot, needs_compiled

pytestmark = needs_compiled

#: the cycles the callbacks below run at
CALL_TIMES = (60, 61, 130, 260)


def _counters(sim: Simulation) -> dict:
    from repro.engine import _ckernel

    return _ckernel.counters(sim.engine)


def _cell(**kw) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing="in-trns-mm",
        warmup_cycles=50,
        measure_cycles=400,
        seed=11,
        **kw,
    ).with_traffic(pattern="advc", load=0.8)


def _census(sim: Simulation) -> list[tuple[int, int]]:
    """Every packet the Python side can see, as (source node, generation
    cycle): input FIFOs, output FIFOs, the pending records of the
    calendar and the pairs of the injection tails.  A node generates at
    most one packet a cycle, so the pair names one packet."""
    soa = sim.soa
    pkts = [p for q in soa.in_q if q for p in q if isinstance(p, Packet)]
    pkts += [p for fifo in soa.out_fifo for (p, _vc, _t) in fifo]
    at = {2: 4, 3: 3, 8: 1}  # OP_ARRIVE, OP_OUT_ARRIVE, OP_DELIVER
    for bucket in sim.engine._buckets.values():
        pkts += [rec[at[rec[0]]] for rec in bucket if rec[0] in at]
    seen = [(p.src_node, p.gen_time) for p in pkts]
    for node, (tail, head) in enumerate(zip(soa.inj_tail, soa.inj_tail_head)):
        seen += [(node, tail[i]) for i in range(head, len(tail), 2)]
    return sorted(seen)


# ----------------------------------------------------------------------
# python == compiled at run_until boundaries
# ----------------------------------------------------------------------
def _shuffle_queues(sim: Simulation, moved: list) -> None:
    """Reverse the longest injection queue, then move the tail packet of
    the first transit VC queue holding two or more to another VC of its
    port with room, carrying the occupancy and the upstream credits."""
    soa = sim.soa
    inj = [
        soa.in_q[r.kb + port * r.max_vcs]
        for r in sim.routers
        for port in range(r._num_node_ports)
    ]
    max(inj, key=len).reverse()
    for r in sim.routers:
        for port in range(r._num_node_ports, r.radix):
            up, up_port = r.upstream[port]
            base, up_base = r.kb + port * r.max_vcs, up.kb + up_port * r.max_vcs
            for a in range(r.vcs_of_port[port]):
                if len(soa.in_q[base + a]) < 2:
                    continue
                pkt = soa.in_q[base + a][-1]
                for b in range(r.vcs_of_port[port]):
                    if b == a or soa.credits_used[up_base + b] + pkt.size > (
                        soa.credit_cap[up.pb + up_port]
                    ):
                        continue
                    soa.in_q[base + a].pop()
                    soa.in_q[base + b].append(pkt)
                    soa.in_occ[base + a] -= pkt.size
                    soa.in_occ[base + b] += pkt.size
                    soa.credits_used[up_base + a] -= pkt.size
                    soa.credits_used[up_base + b] += pkt.size
                    r.active_keys.add(port * r.max_vcs + b)
                    moved.append((sim.engine.now, pkt.pid))
                    return


def _boundaries(cfg: SimulationConfig, backend: str, shuffle: bool):
    sim = Simulation(cfg, engine_backend=backend)
    sim.start()
    moved: list = []
    if shuffle:
        for t in CALL_TIMES:
            sim.engine.schedule_at(t, _shuffle_queues, sim, moved)
    seen = []
    for t_end in (100, 220, cfg.total_cycles):
        sim.engine.run_until(t_end)
        seen.append(
            (
                sim.engine.processed,
                _store_snapshot(sim),
                [list(r.active_keys) for r in sim.routers],
            )
        )
    return sim, seen, moved


@pytest.mark.parametrize(
    "oracle, shuffle",
    [(False, False), (True, False), (False, True)],
    ids=["lowered", "inject-in-a-hook", "callback-edits"],
)
def test_python_and_compiled_agree_at_boundaries(oracle, shuffle):
    cfg = _cell(oracle=oracle)
    _py, reference, py_moved = _boundaries(cfg, "python", shuffle)
    ck, compiled, ck_moved = _boundaries(cfg, "compiled", shuffle)
    assert (ck._lower is None) == oracle
    assert compiled == reference
    assert ck_moved == py_moved
    assert len(ck_moved) >= 2 if shuffle else not ck_moved
    assert any(q for q in ck.soa.in_q)  # a backlog came back out
    counters = _counters(ck)
    if oracle:
        # every packet came in through Router.inject inside the hook
        assert counters["inq_absorbed"] == ck.stats.total_generated > 0
    else:
        assert counters["inq_absorbed"] == 0
        assert counters["reentries_call"] == (len(CALL_TIMES) if shuffle else 0)


def test_a_callback_inside_a_lowered_drain_sees_every_queued_packet():
    def watch(backend: str):
        sim = Simulation(_cell(), engine_backend=backend)
        sim.start()
        seen: list = []
        for t in range(80, 400, 40):
            sim.engine.schedule_at(
                t,
                lambda: seen.append(
                    (sim.engine.now, sum(r.backlog() for r in sim.routers))
                ),
            )
        sim.engine.run_until(sim.config.total_cycles)
        return sim, seen

    ck, compiled = watch("compiled")
    _py, reference = watch("python")
    assert ck._lower is not None
    assert compiled == reference
    assert max(backlog for _t, backlog in compiled) > 0


# ----------------------------------------------------------------------
# a drain that raises
# ----------------------------------------------------------------------
class Boom(Exception):
    """Raised mid-drain by the cases below."""


class _Raising:
    """A traffic pattern whose ``dest`` raises at cycle 150: a raise
    inside the generator hook of an un-lowered cell."""

    def __init__(self, sim: Simulation) -> None:
        self._inner, self._sim = sim.traffic, sim

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def dest(self, node, rng):
        if self._sim.engine.now >= 150:
            raise Boom(node)
        return self._inner.dest(node, rng)


def _raise_at_150(sim: Simulation) -> None:
    def boom():
        raise Boom(sim.engine.now)

    sim.engine.schedule_at(150, boom)


def _raised(backend: str, where: str):
    sim = Simulation(_cell(), engine_backend=backend)
    if where == "hook":
        sim.traffic = _Raising(sim)
    sim.start()
    if where == "callback":
        _raise_at_150(sim)
    with pytest.raises(Boom):
        sim.engine.run_until(sim.config.total_cycles)
    return sim


@pytest.mark.parametrize("where", ["callback", "hook"])
def test_a_drain_that_raises_leaves_every_packet_visible(where):
    py, ck = _raised("python", where), _raised("compiled", where)
    assert (ck._lower is None) == (where == "hook")
    census = _census(ck)
    assert census == _census(py)
    assert _store_snapshot(ck) == _store_snapshot(py)
    stats = ck.stats
    queued = sum(r.injection_backlog() for r in ck.routers)
    assert stats.total_generated == stats.total_delivered + queued + stats.in_flight()
    # no packet lost or duplicated by the error exit
    assert len(set(census)) == len(census)
    assert stats.total_generated == stats.total_delivered + len(census)


# ----------------------------------------------------------------------
# foreign entries
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "entry",
    [None, 7, "x", object(), (1, 2)],
    ids=["None", "int", "str", "object", "tuple"],
)
def test_a_foreign_entry_raises_instead_of_crashing(entry):
    """Each of these used to end the compiled drain with SIGSEGV; the
    python reference raises TypeError / AttributeError from ``decide``."""
    for backend in ("python", "compiled"):
        sim = Simulation(tiny_config(seed=1, routing="min"), engine_backend=backend)
        r = sim.routers[0]
        r.in_q[r.kb].append(entry)
        r.active_keys.add(0)
        kernel.arm(r, 1)
        if backend == "python":
            with pytest.raises((TypeError, AttributeError)):
                sim.engine.run_until(50)
            continue
        with pytest.raises(
            FlowControlError,
            match=re.escape(f"router 0: input key 0 holds {entry!r}, not a Packet"),
        ):
            sim.engine.run_until(50)
        assert r.in_q[r.kb] == [entry]


class _Planting:
    """A traffic pattern that, from cycle 80 on, appends a foreign entry
    to the injection FIFO its packet is about to join: an edit inside the
    generator hook that the absorb after it must refuse."""

    def __init__(self, sim: Simulation) -> None:
        self._inner, self._sim = sim.traffic, sim

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def dest(self, node, rng):
        if self._sim.engine.now >= 80:
            r, port = self._sim.gen._inject_map[node]
            r.in_q[r.kb + port * r.max_vcs].append(object())
        return self._inner.dest(node, rng)


def test_a_foreign_entry_planted_by_a_hook_raises():
    sim = Simulation(_cell(), engine_backend="compiled")
    sim.traffic = _Planting(sim)
    sim.start()
    assert sim._lower is None
    with pytest.raises(FlowControlError, match=r"input key \d+ holds <object"):
        sim.engine.run_until(200)
    assert sim.engine.now >= 80
    # the refused list keeps its entries behind what the ring held
    census = _census(sim)
    assert sim.stats.total_generated == sim.stats.total_delivered + len(census)
