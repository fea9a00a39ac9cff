"""Cross-backend equivalence: the compiled kernel is bit-identical.

"Bit-identical is the contract" (README "Engine architecture"): the
compiled drain kernel (``repro.engine._ckernel``) must reproduce the
pure-Python kernels *exactly* — same golden-trace digests, same
determinism-matrix results, same event/activation counts, and the same
SoA store contents at every observable point.  This module pins that
contract three ways:

* the golden-trace digests of :mod:`test_golden_trace` replayed on each
  concrete backend;
* the 4-routing determinism matrix run cross-backend (python vs
  compiled results compared field-by-field, not just run-vs-rerun);
* hypothesis property tests asserting that the SoA store *is* the
  router state — the router's views alias the store buffers, derived
  accessors equal recomputation from raw store reads (the pre-refactor
  per-object fields), and both backends leave identical store contents
  behind on randomly drawn workloads.

The compiled parameterizations skip cleanly when the extension is not
built (pure-Python checkouts stay green); they run wherever
``python setup.py build_ext --inplace`` has produced the module.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation, run_simulation
from repro.engine.kernel import available_backends
from test_determinism_matrix import ROUTINGS, _result_fields
from test_golden_trace import (
    BURSTY_CONFIG,
    BURSTY_DIGEST,
    STATIC_CONFIG,
    STATIC_DIGEST,
    _run_digest,
)

HAVE_COMPILED = "compiled" in available_backends()

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="compiled engine backend not built "
    "(python setup.py build_ext --inplace)",
)

BACKENDS = [
    "python",
    pytest.param("compiled", marks=needs_compiled),
]

# Numeric SoA fields; dynamic ones change during a run, static ones are
# wiring facts that must nonetheless agree across buffer modes.
_NUMERIC_FIELDS = (
    "in_occ",
    "in_cap",
    "key_port",
    "credits_used",
    "in_port_free",
    "out_occ",
    "out_cap",
    "switch_free",
    "link_free",
    "out_pumping",
    "credit_nvc",
    "credit_cap",
    "last_grant",
    "local_in",
    "global_out",
    "link_lat",
    "hop_cost",
    "pb_snap",
    "pb_snap_sum",
    "pb_snap_time",
)


def _store_snapshot(sim: Simulation) -> dict:
    """Backend-independent image of the full SoA store state."""
    soa = sim.soa
    snap = {name: list(getattr(soa, name)) for name in _NUMERIC_FIELDS}
    snap["in_q"] = [
        None if q is None else [(p.pid, p.size) for p in q] for q in soa.in_q
    ]
    snap["out_fifo"] = [
        [(p.pid, vc, t) for (p, vc, t) in fifo] for fifo in soa.out_fifo
    ]
    return snap


def _run(cfg, backend: str):
    sim = Simulation(cfg, engine_backend=backend)
    result = sim.run()
    return sim, result


# ----------------------------------------------------------------------
# golden traces per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_static_golden_trace_per_backend(backend, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
    assert _run_digest(STATIC_CONFIG) == STATIC_DIGEST


@pytest.mark.parametrize("backend", BACKENDS)
def test_bursty_golden_trace_per_backend(backend, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
    assert _run_digest(BURSTY_CONFIG) == BURSTY_DIGEST


# ----------------------------------------------------------------------
# determinism matrix, cross-backend
# ----------------------------------------------------------------------
@needs_compiled
@pytest.mark.parametrize("routing", ROUTINGS)
def test_backends_agree_per_routing(routing):
    """python vs compiled: every result field, event and activation count."""
    cfg = tiny_config(routing=routing).with_traffic(pattern="advc", load=0.35)
    py, py_res = _run(cfg, "python")
    ck, ck_res = _run(cfg, "compiled")
    assert _result_fields(py_res) == _result_fields(ck_res)
    assert py.engine.processed == ck.engine.processed
    assert py.engine.activations == ck.engine.activations
    assert _store_snapshot(py) == _store_snapshot(ck)


@needs_compiled
@pytest.mark.parametrize("priority", [True, False], ids=["prio", "noprio"])
def test_backends_agree_under_priority_flag(priority):
    cfg = (
        tiny_config(routing="in-trns-mm")
        .with_router(transit_priority=priority)
        .with_traffic(pattern="advc", load=0.35)
    )
    py, py_res = _run(cfg, "python")
    ck, ck_res = _run(cfg, "compiled")
    assert _result_fields(py_res) == _result_fields(ck_res)
    assert py.engine.processed == ck.engine.processed


# ----------------------------------------------------------------------
# the SoA store is the router state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_router_views_alias_the_store(backend):
    """Routers hold *references* into the shared store, not copies: the
    pre-refactor per-router fields are now views of one canonical buffer."""
    sim = Simulation(tiny_config(), engine_backend=backend)
    soa = sim.soa
    assert soa.typed == (backend == "compiled")
    for r in sim.routers:
        assert r.in_q is soa.in_q
        assert r.in_occ is soa.in_occ
        assert r.out_occ is soa.out_occ
        assert r.credits_used is soa.credits_used
        assert r.last_grant is soa.last_grant
        assert r.kb == r.router_id * soa.nkeys
        assert r.pb == r.router_id * soa.radix


_loads = st.sampled_from([0.1, 0.25, 0.4, 0.6])
_routings = st.sampled_from(ROUTINGS)
_patterns = st.sampled_from(["uniform", "advc"])
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(seed=_seeds, load=_loads, routing=_routings, pattern=_patterns)
@settings(max_examples=15, deadline=None)
def test_store_reads_equal_object_field_views(seed, load, routing, pattern):
    """After a random run, every derived router accessor equals direct
    recomputation from raw store reads — the store and the (pre-refactor)
    object-field view of the same state cannot disagree."""
    cfg = tiny_config(
        seed=seed, routing=routing, warmup_cycles=0, measure_cycles=300
    ).with_traffic(pattern=pattern, load=load)
    sim = Simulation(cfg)
    sim.run()
    soa = sim.soa
    for r in sim.routers:
        kb, pb = r.kb, r.pb
        # per-key: occupancy counters match the queues they account for
        # (node/injection FIFOs are unbounded and not occupancy-tracked,
        # so the in_occ identity holds for transit keys only)
        for key in range(soa.nkeys):
            q = soa.in_q[kb + key]
            if q is None:
                continue
            if key >= r.injection_boundary:
                assert soa.in_occ[kb + key] == sum(p.size for p in q)
            assert soa.key_port[kb + key] == pb + key // soa.max_vcs
        assert r.backlog() == sum(
            len(q) for q in soa.in_q[kb : kb + soa.nkeys] if q
        )
        # per-port: accessor methods recompute from the same flat slots
        for port in range(r.radix):
            gp = pb + port
            assert 0 <= soa.out_occ[gp] <= soa.out_cap[gp]
            assert r.out_frac(port) == soa.out_occ[gp] / soa.out_cap[gp]
            nvc = soa.credit_nvc[gp]
            expect = soa.out_occ[gp] + sum(
                soa.credits_used[kb + port * soa.max_vcs + vc]
                for vc in range(nvc)
            )
            assert r.port_total_occ(port) == expect
            for vc in range(nvc):
                used = soa.credits_used[kb + port * soa.max_vcs + vc]
                assert 0 <= used <= soa.credit_cap[gp]
                assert r.credit_frac(port, vc) == used / soa.credit_cap[gp]


@needs_compiled
@given(seed=_seeds, load=_loads, routing=_routings)
@settings(max_examples=10, deadline=None)
def test_store_contents_identical_across_backends(seed, load, routing):
    """Typed (array('q')) and list buffers hold bit-identical values after
    the same randomly drawn workload on both backends."""
    cfg = tiny_config(
        seed=seed, routing=routing, warmup_cycles=0, measure_cycles=250
    ).with_traffic(pattern="advc", load=load)
    py, py_res = _run(cfg, "python")
    ck, ck_res = _run(cfg, "compiled")
    assert _store_snapshot(py) == _store_snapshot(ck)
    assert _result_fields(py_res) == _result_fields(ck_res)


@pytest.mark.parametrize("backend", BACKENDS)
def test_finished_simulations_are_collectable(backend):
    """A finished run leaves nothing the cycle collector cannot free.

    The compiled kernel's cached state owns strong references to the
    routers and is not GC-traversed, so unless ``_collect()`` drops it
    every Simulation stays alive forever (eq -> capsule -> routers ->
    sim -> eq).  The counters ``_collect()`` leaves behind stay readable.
    """
    cfg = tiny_config().with_traffic(pattern="uniform", load=0.4)
    counts = []
    for seed in range(10):
        sim, result = _run(cfg.with_(seed=seed), backend)
        assert sim.engine.processed == result.events_processed
        assert 0 < sim.engine.activations <= sim.engine.processed
        assert (sim._lower is not None) == (backend == "compiled")
        del sim, result
        gc.collect()
        counts.append(len(gc.get_objects()))
    # flat after the second run (the first two warm caches / interned
    # objects); a leaked tiny Simulation is thousands of objects
    assert max(counts[2:]) - counts[1] < 200, counts


# ----------------------------------------------------------------------
# cell lifecycle: run_simulation frees its Simulation by reference counting
# ----------------------------------------------------------------------
_LIFECYCLE_CELL = SimulationConfig(
    network=NetworkConfig(p=2, a=4, h=2),
    routing="in-trns-mm",
    warmup_cycles=50,
    measure_cycles=300,
    seed=5,
).with_traffic(pattern="advc", load=0.6)


class Boom(Exception):
    """Raised inside the drain by a scheduled callback."""


def _cyclic_garbage(call) -> int:
    """Objects the cycle collector frees after *call*, run with it off.

    *call* runs once beforehand to warm the process's caches; whatever
    the second call leaves that reference counting did not free is
    cyclic garbage.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("oracle", [False, True], ids=["lowered", "oracle"])
def test_run_simulation_leaves_no_cyclic_garbage(backend, oracle):
    cfg = _LIFECYCLE_CELL.with_(oracle=oracle)
    sim = Simulation(cfg, engine_backend=backend)
    assert (sim._lower is not None) == (backend == "compiled" and not oracle)
    del sim
    results = []

    def cell():
        results.append(run_simulation(cfg, engine_backend=backend))

    assert _cyclic_garbage(cell) == 0
    assert results[0] == results[1] and results[1].delivered_packets > 0
    if oracle:
        assert results[1].oracle["passed"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_raising_run_simulation_leaves_no_cyclic_garbage(backend, monkeypatch):
    """A callback that raises mid-drain, reached through run_simulation."""
    start = Simulation.start

    def boom():
        raise Boom("cycle 50")

    def start_then_boom(sim):
        start(sim)
        sim.engine.schedule_at(50, boom)

    monkeypatch.setattr(Simulation, "start", start_then_boom)

    def cell():
        with pytest.raises(Boom):
            run_simulation(_LIFECYCLE_CELL, engine_backend=backend)

    assert _cyclic_garbage(cell) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_simulation_built_directly_stays_inspectable(backend):
    """run() does not close: routers, queues and calendar outlive it, and
    only close() frees the run by reference counting."""
    sim = Simulation(_LIFECYCLE_CELL, engine_backend=backend)
    result = sim.run()
    assert sim.engine.pending > 0 and sim.engine.peek_time() > sim.engine.now
    assert sim.stats.delivered_packets == result.delivered_packets
    assert sum(r.backlog() for r in sim.routers) > 0
    for r in sim.routers:
        peers = [p for p in r.out_peer if p is not None]
        assert peers and all(peer in sim.routers for peer, _port in peers)
    sim.close()
    sim.close()  # harmless twice
    assert not vars(sim)
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_dataclass_result_fields_cover_everything():
    """_result_fields compares the full dataclass when available, so the
    cross-backend equality above is not a subset check."""
    cfg = tiny_config(routing="min").with_traffic(pattern="uniform", load=0.2)
    _sim, res = _run(cfg, "python")
    fields = _result_fields(res)
    if dataclasses.is_dataclass(res):
        assert "events_processed" in fields
