"""The compiled kernel's ``decide`` twins against the Python reference.

``routing/minimal.py`` and ``routing/intransit.py`` are the reference
implementations of ``decide``; ``engine/_ckernel.c`` holds a C twin of
each (``c_min_decide``, ``c_intransit_decide``), the in-transit one
drawing from an in-kernel mirror of ``rng_routing``.  This module pins
the two things that make that safe:

* **selection** — a twin runs iff :func:`repro.routing.factory.decide_twin`
  says so: exact type, ``decide`` neither shadowed nor patched,
  regardless of the mechanism's ``name`` and of traffic lowering;
* **equivalence where the branches are live** — python vs compiled on
  networks with ``a >= 3`` and ``h >= 2`` (the tiny a=2, h=1 network of
  the other parity suites returns from the OLM sampler before its first
  draw and makes NRG's ``randrange`` calls constant), on every result
  field, the event counters, the SoA store image and the final
  ``rng_routing`` state (equal state means the same number of draws).
"""

from __future__ import annotations

import cProfile
import pstats
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation
from repro.engine.kernel import available_backends
from repro.errors import RoutingError
from repro.routing.factory import decide_twin
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import MisroutePolicy
from repro.traffic.scenarios import SCENARIOS
from test_determinism_matrix import _result_fields
from test_engine_backends import BACKENDS, _store_snapshot, needs_compiled

#: (p, a, h): a >= 3 opens the OLM sampler, h >= 2 NRG's randrange(h)
SHAPES = [(1, 3, 2), (2, 4, 2), (3, 6, 3)]
IN_TRANSIT = ["in-trns-crg", "in-trns-rrg", "in-trns-mm"]
PATTERNS = ["uniform", "adversarial", "advc"]


def _cell(shape, routing, pattern, load, seed=1, priority=True, measure=400):
    p, a, h = shape
    return (
        SimulationConfig(
            network=NetworkConfig(p=p, a=a, h=h),
            routing=routing,
            warmup_cycles=50,
            measure_cycles=measure,
            seed=seed,
        )
        .with_traffic(pattern=pattern, load=load)
        .with_router(transit_priority=priority)
    )


def _install(sim: Simulation, routing) -> None:
    """Make *routing* the mechanism of an already-built simulation."""
    sim.routing = routing
    for r in sim.routers:
        r.routing = routing
        r._bind_hot()


def _assert_agree(cfg, prepare=None) -> Simulation:
    """Run the cell on both backends; returns the compiled simulation."""
    sims = []
    for backend in ("python", "compiled"):
        sim = Simulation(cfg, engine_backend=backend)
        if prepare is not None:
            prepare(sim)
        sims.append((sim, sim.run()))
    (py, py_res), (ck, ck_res) = sims
    assert _result_fields(py_res) == _result_fields(ck_res)
    assert py.engine.processed == ck.engine.processed
    assert py.engine.activations == ck.engine.activations
    assert _store_snapshot(py) == _store_snapshot(ck)
    assert py.rng_routing.getstate() == ck.rng_routing.getstate()
    assert py.rng_traffic.getstate() == ck.rng_traffic.getstate()
    return ck


def _profiled_run(sim: Simulation):
    """Run *sim*; its result and how often a Python ``decide`` was entered."""
    prof = cProfile.Profile()
    prof.enable()
    result = sim.run()
    prof.disable()
    calls = sum(
        ncalls
        for (filename, _, func), (_, ncalls, *_) in pstats.Stats(prof).stats.items()
        if func == "decide" and "routing" in filename
    )
    return result, calls


# ----------------------------------------------------------------------
# selection: one rule, stated in Python, obeyed by the kernel
# ----------------------------------------------------------------------
class _CountingMin(MinimalRouting):
    """Keeps ``name == "min"``; every decision goes through Python."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.calls = 0

    def decide(self, pkt, router):
        self.calls += 1
        return super().decide(pkt, router)


@pytest.mark.parametrize("backend", BACKENDS)
def test_subclass_overriding_decide_is_called(backend):
    """A MinimalRouting subclass on a lowered run is not bypassed.

    (The parent commit picked the C twin by ``name == "min"`` whenever
    traffic was lowered, so the override never ran on ``compiled``.)
    """
    cfg = tiny_config().with_traffic(pattern="uniform", load=0.4)
    plain = Simulation(cfg, engine_backend=backend)
    expected = plain.run()

    sim = Simulation(cfg, engine_backend=backend)
    routing = _CountingMin(sim)
    assert routing.name == "min"
    _install(sim, routing)
    assert sim._lower is not None
    assert decide_twin(routing) is None
    result = sim.run()
    assert routing.calls > 0
    assert _result_fields(result) == _result_fields(expected)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("routing", ["min", "in-trns-mm"])
def test_decide_shadowed_on_the_instance_is_called(backend, routing):
    cfg = tiny_config(routing=routing).with_traffic(pattern="advc", load=0.4)
    sim = Simulation(cfg, engine_backend=backend)
    calls = []
    reference = sim.routing.decide

    def decide(pkt, router):
        calls.append(pkt.pid)
        return reference(pkt, router)

    sim.routing.decide = decide
    _install(sim, sim.routing)
    assert decide_twin(sim.routing) is None
    result = sim.run()
    assert calls
    plain = Simulation(cfg, engine_backend=backend).run()
    assert _result_fields(result) == _result_fields(plain)


def test_decide_twin_rule(monkeypatch):
    sim = Simulation(tiny_config(routing="min"), engine_backend="python")
    assert decide_twin(sim.routing) == "min"
    assert decide_twin(_CountingMin(sim)) is None
    for policy in MisroutePolicy:
        assert decide_twin(InTransitAdaptiveRouting(sim, policy)) == "in-transit"
    for name in ("obl-rrg", "obl-crg", "src-rrg", "src-crg"):
        other = Simulation(tiny_config(routing=name), engine_backend="python")
        assert decide_twin(other.routing) is None

    class Seeded(random.Random):
        pass

    intransit = InTransitAdaptiveRouting(sim, MisroutePolicy.MM)
    intransit.rng = Seeded(1)  # the twin only mirrors a plain Random
    assert decide_twin(intransit) is None
    # a patched class is no longer the code the twin was written against
    monkeypatch.setattr(MinimalRouting, "decide", lambda self, pkt, router: None)
    assert decide_twin(sim.routing) is None


@needs_compiled
@pytest.mark.parametrize(
    "routing, twinned",
    [("min", True), ("in-trns-mm", True), ("src-crg", False)],
)
@pytest.mark.parametrize("lowered", [True, False], ids=["lowered", "callback"])
def test_twin_runs_whether_or_not_traffic_is_lowered(routing, twinned, lowered):
    """Scenario cells (never lowered) no longer pay Python for ``decide``."""
    cfg = tiny_config(routing=routing).with_traffic(pattern="advc", load=0.4)
    if not lowered:
        cfg = SCENARIOS["bursty_adv"].apply(cfg)
    sim = Simulation(cfg, engine_backend="compiled")
    assert (sim._lower is not None) == lowered
    result, calls = _profiled_run(sim)
    assert (calls == 0) == twinned
    ref = Simulation(cfg, engine_backend="python")
    assert _result_fields(ref.run()) == _result_fields(result)
    assert ref.rng_routing.getstate() == sim.rng_routing.getstate()


# ----------------------------------------------------------------------
# equivalence where the branches are live
# ----------------------------------------------------------------------
@needs_compiled
@given(
    shape=st.sampled_from(SHAPES),
    routing=st.sampled_from(IN_TRANSIT),
    pattern=st.sampled_from(PATTERNS),
    load=st.sampled_from([0.15, 0.4, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    priority=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_in_transit_backends_agree(shape, routing, pattern, load, seed, priority):
    _assert_agree(_cell(shape, routing, pattern, load, seed, priority))


@needs_compiled
@pytest.mark.parametrize(
    "shape, routing, pattern, priority",
    [
        # OLM sampler + CRG scan (ADVc is the paper's case)
        ((3, 6, 3), "in-trns-crg", "advc", True),
        # RRG draws randrange(groups) on every source-router trigger
        ((2, 4, 2), "in-trns-rrg", "advc", True),
        # MM reaches NRG (the PAR second decision point) only under
        # saturation: these two cells enter it > 100 times each
        ((2, 4, 2), "in-trns-mm", "uniform", False),
        ((3, 6, 3), "in-trns-mm", "uniform", True),
    ],
)
def test_live_branches_agree_at_saturation(shape, routing, pattern, priority):
    cfg = _cell(shape, routing, pattern, 1.0, priority=priority, measure=900)
    ck = _assert_agree(cfg)
    fresh = Simulation(cfg, engine_backend="compiled")
    assert ck.rng_routing.getstate() != fresh.rng_routing.getstate()


@needs_compiled
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_nrg_at_the_source_router_agrees(shape, pattern):
    """NRG as the source-router policy too: randrange(a-1) / randrange(h)
    on every trigger instead of only at the second decision point."""

    def prepare(sim):
        _install(sim, InTransitAdaptiveRouting(sim, MisroutePolicy.NRG))

    cfg = _cell(shape, "in-trns-mm", pattern, 0.8)
    ck = _assert_agree(cfg, prepare)
    assert decide_twin(ck.routing) == "in-transit"
    fresh = Simulation(cfg, engine_backend="compiled")
    assert ck.rng_routing.getstate() != fresh.rng_routing.getstate()


@needs_compiled
def test_drain_in_slices_keeps_the_streams_in_step():
    """Every drain call loads and stores both RNG mirrors."""
    cfg = _cell((2, 4, 2), "in-trns-rrg", "advc", 0.9)
    whole = Simulation(cfg, engine_backend="compiled")
    expected = whole.run()
    sim = Simulation(cfg, engine_backend="compiled")
    sim.start()
    for t in range(0, cfg.total_cycles + 1, 37):
        sim.engine.run_until(min(t, cfg.total_cycles))
    sim.engine.run_until(cfg.total_cycles)
    assert _result_fields(sim._collect()) == _result_fields(expected)
    assert sim.rng_routing.getstate() == whole.rng_routing.getstate()


# ----------------------------------------------------------------------
# the raising branch falls back to the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("routing", ["in-trns-mm", "in-trns-rrg"])
def test_global_vc_overflow_raises_alike_on_both_backends(routing):
    """``stage_global_vc`` overflow: same RoutingError, same state left."""
    cfg = _cell((2, 4, 2), routing, "adversarial", 0.9)
    outcomes = []
    for backend in available_backends():
        sim = Simulation(cfg, engine_backend=backend)
        sim.routing.n_global_vcs = 1  # a misrouted packet needs VC 1
        with pytest.raises(RoutingError) as exc:
            sim.run()
        outcomes.append(
            (
                str(exc.value),
                sim.engine.now,
                sim.engine.processed,
                sim.engine.activations,
                sim.rng_routing.getstate(),
                sim.rng_traffic.getstate(),
                _store_snapshot(sim),
            )
        )
    assert "global VC 1" in outcomes[0][0]
    assert all(outcome == outcomes[0] for outcome in outcomes)
