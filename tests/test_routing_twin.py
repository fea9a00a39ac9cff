"""The compiled kernel's ``decide`` twins against the Python reference.

The modules of ``repro/routing`` are the reference implementations of
``decide``; ``engine/_ckernel.c`` holds a C twin per mechanism family
(``c_min_decide``, ``c_oblivious_decide``, ``c_piggyback_decide``,
``c_intransit_decide``), all but the first drawing from an in-kernel
mirror of ``rng_routing``, and the PiggyBack one keeping the saturation
snapshot in the same SoA-store rows as ``PiggybackRouting``.  This
module pins the two things that make that safe:

* **selection** — a twin runs iff :func:`repro.routing.factory.decide_twin`
  says so: exactly the row's class, no function of that class or its
  routing bases shadowed or patched, regardless of the mechanism's
  ``name`` and of traffic lowering;
* **equivalence where the branches are live** — python vs compiled on
  networks with ``a >= 3`` and ``h >= 2`` (the tiny a=2, h=1 network of
  the other parity suites returns from the OLM sampler before its first
  draw, makes NRG's ``randrange`` calls constant and leaves CRG a single
  candidate), on every result field, the event counters, the SoA store
  image (snapshot rows included), the routing state of every packet in
  flight and the final ``rng_routing`` state (equal state means the same
  number of draws).
"""

from __future__ import annotations

import cProfile
import dataclasses
import inspect
import pstats
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation
from repro.engine.kernel import available_backends
from repro.errors import RoutingError
from repro.routing.base import RoutingMechanism
from repro.routing.factory import MECHANISMS, ROUTING_NAMES, Mechanism, decide_twin
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import NRG
from repro.traffic.scenarios import SCENARIOS
from test_determinism_matrix import _result_fields
from test_engine_backends import BACKENDS, _store_snapshot, needs_compiled

#: (p, a, h): a >= 3 opens the OLM sampler, h >= 2 NRG's randrange(h)
SHAPES = [(1, 3, 2), (2, 4, 2), (3, 6, 3)]
IN_TRANSIT = ["in-trns-crg", "in-trns-rrg", "in-trns-mm"]
SOURCE_ROUTED = ["obl-rrg", "obl-crg", "src-rrg", "src-crg"]
PATTERNS = ["uniform", "adversarial", "advc"]
#: pb_update_period: a snapshot retaken by every remote query, the
#: default, and one that most queries find stale
PB_PERIODS = [1, 8, 50]


def _cell(
    shape, routing, pattern, load, seed=1, priority=True, measure=400, pb_period=8
):
    p, a, h = shape
    cfg = (
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
    return dataclasses.replace(cfg, pb_update_period=pb_period)


def _in_flight(sim: Simulation) -> list:
    """Routing state of every packet still in the network, by pid."""
    soa = sim.soa
    pkts = [p for q in soa.in_q if q for p in q]
    pkts += [p for fifo in soa.out_fifo for (p, _vc, _t) in fifo]
    return sorted(
        (p.pid, p.plan, p.inter_router, p.inter_group, p.global_hops) for p in pkts
    )


def _valiant_in_flight(sim: Simulation) -> int:
    """Packets on their way to a Valiant intermediate router (plan 2)."""
    return sum(1 for (_pid, plan, *_rest) in _in_flight(sim) if plan == 2)


def _install(sim: Simulation, routing) -> None:
    """Make *routing* the mechanism of an already-built simulation."""
    sim.bind_routing(routing)


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
    assert _in_flight(py) == _in_flight(ck)
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
        super().__init__(sim, MECHANISMS["min"])
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
    assert (sim._lower is not None) == (backend == "compiled")
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


def _functions(cls) -> dict:
    """Every function *cls* has from itself and its routing bases, by name:
    the class that defines it."""
    owners = {}
    for base in reversed(cls.__mro__):
        if issubclass(base, RoutingMechanism):
            for name, value in vars(base).items():
                if inspect.isfunction(value):
                    owners[name] = base
    return owners


def test_every_mechanism_has_a_twin():
    kinds = {}
    for name in ROUTING_NAMES:
        sim = Simulation(tiny_config(routing=name), engine_backend="python")
        kinds[name] = decide_twin(sim.routing)
    assert kinds == {
        "min": "min",
        "obl-rrg": "oblivious",
        "obl-crg": "oblivious",
        "src-rrg": "piggyback",
        "src-crg": "piggyback",
        "in-trns-rrg": "in-transit",
        "in-trns-crg": "in-transit",
        "in-trns-mm": "in-transit",
    }
    sim = Simulation(tiny_config(routing="min"), engine_backend="python")
    assert decide_twin(_CountingMin(sim)) is None
    nrg = Mechanism("in-trns-nrg", InTransitAdaptiveRouting, NRG, NRG)
    routing = InTransitAdaptiveRouting(sim, nrg)
    assert routing.name == "in-trns-nrg"
    assert decide_twin(routing) == "in-transit"
    # a row naming another class than the one built with it
    assert decide_twin(InTransitAdaptiveRouting(sim, MECHANISMS["min"])) is None


@pytest.mark.parametrize(
    "name, function",
    [(name, f) for name, m in MECHANISMS.items() for f in sorted(_functions(m.cls))],
)
def test_a_replaced_function_disqualifies_the_twin(name, function, monkeypatch):
    """Shadowed on the instance, or patched on the class or routing base
    that defines it, ``decide`` *or* any other function: the twin is no
    longer the code it was written against."""
    sim = Simulation(tiny_config(routing=name), engine_backend="python")
    routing = sim.routing
    assert decide_twin(routing) is not None
    reference = getattr(routing, function)
    setattr(routing, function, lambda *args: reference(*args))
    assert decide_twin(routing) is None
    delattr(routing, function)
    assert decide_twin(routing) is not None
    defining = _functions(type(routing))[function]
    original = vars(defining)[function]
    monkeypatch.setattr(defining, function, lambda self, *a: original(self, *a))
    assert decide_twin(routing) is None


@pytest.mark.parametrize("name", [n for n in ROUTING_NAMES if n != "min"])
def test_drawing_twins_need_a_plain_random(name):
    class Seeded(random.Random):
        pass

    sim = Simulation(tiny_config(routing=name), engine_backend="python")
    sim.routing.rng = Seeded(1)  # the twins only mirror a plain Random
    assert decide_twin(sim.routing) is None


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("how", ["class", "instance"])
def test_patched_local_misroute_is_called(backend, how, monkeypatch):
    """A twin replaces the helpers ``decide`` calls as well.

    (The parent commit guarded only ``decide``, so a replaced
    ``_try_local_misroute`` got 0 calls on ``compiled``.)
    """
    cfg = _cell((2, 4, 2), "in-trns-mm", "uniform", 1.0)
    expected = Simulation(cfg, engine_backend=backend).run()
    calls = []
    reference = InTransitAdaptiveRouting._try_local_misroute

    def counting(self, *args):
        calls.append(args[0].pid)
        return reference(self, *args)

    sim = Simulation(cfg, engine_backend=backend)
    if how == "class":
        monkeypatch.setattr(InTransitAdaptiveRouting, "_try_local_misroute", counting)
    else:
        sim.routing._try_local_misroute = counting.__get__(sim.routing)
    assert decide_twin(sim.routing) is None
    assert _result_fields(sim.run()) == _result_fields(expected)
    assert calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "routing, helper",
    [("obl-crg", "_choose_intermediate"), ("src-crg", "_nonmin_candidate")],
)
def test_patched_source_routing_helper_is_called(backend, routing, helper):
    cfg = _cell((2, 4, 2), routing, "adversarial", 0.7)
    expected = Simulation(cfg, engine_backend=backend).run()
    sim = Simulation(cfg, engine_backend=backend)
    calls = []
    reference = getattr(sim.routing, helper)

    def counting(pkt, router):
        calls.append(pkt.pid)
        return reference(pkt, router)

    setattr(sim.routing, helper, counting)
    assert _result_fields(sim.run()) == _result_fields(expected)
    assert calls


@needs_compiled
@pytest.mark.parametrize("routing", ROUTING_NAMES)
@pytest.mark.parametrize("lowered", [True, False], ids=["lowered", "callback"])
def test_twin_runs_whether_or_not_traffic_is_lowered(routing, lowered):
    """No mechanism pays Python for ``decide`` on the compiled backend,
    scenario cells (never lowered) included."""
    cfg = tiny_config(routing=routing).with_traffic(pattern="advc", load=0.4)
    if not lowered:
        cfg = SCENARIOS["bursty_adv"].apply(cfg)
    sim = Simulation(cfg, engine_backend="compiled")
    assert (sim._lower is not None) == lowered
    result, calls = _profiled_run(sim)
    assert calls == 0
    ref = Simulation(cfg, engine_backend="python")
    assert _result_fields(ref.run()) == _result_fields(result)
    assert ref.rng_routing.getstate() == sim.rng_routing.getstate()


def test_the_profiler_sees_a_python_decide():
    """The zero above is a measurement: the same count is non-zero as
    soon as the reference runs."""
    cfg = tiny_config(routing="src-crg").with_traffic(pattern="advc", load=0.4)
    _, calls = _profiled_run(Simulation(cfg, engine_backend="python"))
    assert calls > 0


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
@given(
    shape=st.sampled_from(SHAPES),
    routing=st.sampled_from(SOURCE_ROUTED),
    pattern=st.sampled_from(PATTERNS),
    load=st.sampled_from([0.15, 0.4, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    priority=st.booleans(),
    pb_period=st.sampled_from(PB_PERIODS),
)
@settings(max_examples=40, deadline=None)
def test_source_routed_backends_agree(
    shape, routing, pattern, load, seed, priority, pb_period
):
    """Oblivious Valiant and PiggyBack: ``choice`` / ``shuffle`` /
    ``randrange`` draw for draw, and the snapshot rows refresh for
    refresh."""
    _assert_agree(_cell(shape, routing, pattern, load, seed, priority, 400, pb_period))


@needs_compiled
@pytest.mark.parametrize("pb_period", PB_PERIODS)
@pytest.mark.parametrize(
    "shape, routing, pattern, load",
    [
        # ADV+1 floods one gateway link per group: both variants divert
        # hundreds of packets, RRG through its four randrange probes
        ((3, 6, 3), "src-rrg", "adversarial", 0.7),
        ((3, 6, 3), "src-crg", "adversarial", 0.7),
        # ADVc (the paper's case): the local-link flag towards the
        # gateway is what trips
        ((2, 4, 2), "src-crg", "advc", 0.7),
        ((2, 4, 2), "src-rrg", "uniform", 1.0),
    ],
)
def test_piggyback_diverts_and_agrees(shape, routing, pattern, load, pb_period):
    """Cells where PiggyBack's source decision actually goes Valiant,
    with the snapshot hit fresh (period 1) and stale (8, 50)."""
    cfg = _cell(shape, routing, pattern, load, measure=900, pb_period=pb_period)
    ck = _assert_agree(cfg)
    assert _valiant_in_flight(ck) > 0
    assert max(ck.soa.pb_snap_time) >= 0  # a remote query took a snapshot
    assert any(ck.soa.pb_snap)
    fresh = Simulation(cfg, engine_backend="compiled")
    assert ck.rng_routing.getstate() != fresh.rng_routing.getstate()


@needs_compiled
@pytest.mark.parametrize("routing", ["obl-rrg", "obl-crg"])
@pytest.mark.parametrize("shape", SHAPES)
def test_oblivious_freezes_valiant_plans_and_agrees(shape, routing):
    ck = _assert_agree(_cell(shape, routing, "advc", 0.7, measure=900))
    assert _valiant_in_flight(ck) > 0


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
        row = Mechanism("in-trns-nrg", InTransitAdaptiveRouting, NRG, NRG)
        _install(sim, InTransitAdaptiveRouting(sim, row))

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


@needs_compiled
@pytest.mark.parametrize("routing", ["src-rrg", "src-crg"])
def test_snapshot_survives_between_drain_calls(routing):
    """The snapshot is store state, not drain state: a drain that stops
    after a refresh leaves it for the next drain's queries to find."""
    cfg = _cell((2, 4, 2), routing, "adversarial", 0.7, pb_period=50)
    whole = Simulation(cfg, engine_backend="python")
    expected = whole.run()
    sim = Simulation(cfg, engine_backend="compiled")
    sim.start()
    carried = 0
    for t in range(0, cfg.total_cycles, 7):
        sim.engine.run_until(t)
        carried += any(0 <= taken and t - taken < 50 for taken in sim.soa.pb_snap_time)
    sim.engine.run_until(cfg.total_cycles)
    assert carried > 20  # slices that ended on a still-fresh snapshot
    assert _result_fields(sim._collect()) == _result_fields(expected)
    assert _store_snapshot(sim) == _store_snapshot(whole)
    assert sim.rng_routing.getstate() == whole.rng_routing.getstate()


# ----------------------------------------------------------------------
# the raising branch falls back to the reference
# ----------------------------------------------------------------------
def _raising_outcomes(cfg, break_routing):
    outcomes = []
    for backend in available_backends():
        sim = Simulation(cfg, engine_backend=backend)
        break_routing(sim.routing)
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
                _in_flight(sim),
            )
        )
    assert all(outcome == outcomes[0] for outcome in outcomes)
    return outcomes[0]


@pytest.mark.parametrize(
    "routing", ["in-trns-mm", "in-trns-rrg", "obl-crg", "src-rrg", "src-crg"]
)
def test_global_vc_overflow_raises_alike_on_both_backends(routing):
    """A second global hop with one global VC: same RoutingError, same
    state left.  For the source-routed mechanisms the raise comes from
    the frozen-plan walk, hops after the draws."""

    def one_global_vc(mechanism):
        mechanism.n_global_vcs = 1  # a misrouted packet needs VC 1

    message, *_ = _raising_outcomes(
        _cell((2, 4, 2), routing, "adversarial", 0.9), one_global_vc
    )
    assert "global VC 1" in message


@pytest.mark.parametrize("routing", ["obl-rrg", "src-rrg", "src-crg"])
def test_raise_in_the_freezing_call_leaves_the_same_state(routing):
    """No local VC at all: the first packet whose first hop is local
    raises in the very ``decide`` call that froze its plan — after the
    reference's draws, which the twin must have made too."""

    def no_local_vc(mechanism):
        mechanism.n_local_vcs = 0

    cfg = _cell((2, 4, 2), routing, "adversarial", 0.9)
    message, *_rest, in_flight = _raising_outcomes(cfg, no_local_vc)
    assert "local VC 0" in message
    assert any(plan != 0 for (_pid, plan, *_r) in in_flight)
