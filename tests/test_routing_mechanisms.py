"""Behavioural tests for the routing mechanisms, run inside tiny simulations.

Rather than mocking router internals, these instantiate real simulations
and inspect delivered-path statistics and mechanism state transitions —
the invariant checks in conftest guard the flow-control layer meanwhile.
"""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SimulationConfig, small_config
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.routing.factory import MECHANISMS, ROUTING_NAMES, make_routing
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.oblivious import ObliviousValiantRouting
from repro.routing.piggyback import PiggybackRouting


def run(routing: str, pattern: str = "uniform", load: float = 0.2, **kw):
    cfg = small_config(
        routing=routing, warmup_cycles=200, measure_cycles=1200
    ).with_traffic(pattern=pattern, load=load)
    for key, value in kw.items():
        cfg = cfg.with_(**{key: value})
    sim = Simulation(cfg)
    return sim, sim.run()


class TestFactory:
    def test_all_names_construct(self):
        """The catalogue in legend order; each name builds its row's class,
        which reads that row."""
        assert ROUTING_NAMES == (
            "min",
            "obl-rrg",
            "obl-crg",
            "src-rrg",
            "src-crg",
            "in-trns-rrg",
            "in-trns-crg",
            "in-trns-mm",
        )
        sim = Simulation(small_config())
        for name in ROUTING_NAMES:
            mech = make_routing(name, sim)
            assert mech.name == name
            assert mech.mechanism is MECHANISMS[name]
            assert type(mech) is MECHANISMS[name].cls

    def test_unknown_name_raises(self):
        sim = Simulation(small_config())
        with pytest.raises(ConfigurationError) as exc:
            make_routing("warp", sim)
        assert "'warp'" in str(exc.value)
        assert all(repr(name) in str(exc.value) for name in ROUTING_NAMES)

    def test_oblivious_rrg_needs_a_third_group(self):
        """groups = a*h + 1 = 2 leaves Obl-RRG no intermediate group (its
        rejection loop would never end); every other mechanism runs."""
        cfg = SimulationConfig(
            network=NetworkConfig(p=1, a=1, h=1),
            routing="obl-rrg",
            warmup_cycles=50,
            measure_cycles=200,
        ).with_traffic(pattern="uniform", load=0.3)
        with pytest.raises(ConfigurationError, match="at least 3 groups"):
            Simulation(cfg)
        for name in ROUTING_NAMES:
            if name != "obl-rrg":
                assert Simulation(cfg.with_(routing=name)).run().delivered_packets

    def test_types(self):
        sim = Simulation(small_config())
        assert isinstance(make_routing("min", sim), MinimalRouting)
        assert isinstance(make_routing("obl-crg", sim), ObliviousValiantRouting)
        assert isinstance(make_routing("src-rrg", sim), PiggybackRouting)
        assert isinstance(make_routing("in-trns-mm", sim), InTransitAdaptiveRouting)


class TestMinimal:
    def test_min_never_misroutes(self):
        _sim, res = run("min")
        assert res.latency_breakdown["misroute"] == 0.0

    def test_min_delivers_everything_at_low_load(self):
        _sim, res = run("min", load=0.05)
        assert res.accepted_load == pytest.approx(res.offered_load, rel=0.25)


class TestOblivious:
    def test_valiant_adds_misroute_latency(self):
        _sim, res = run("obl-rrg", load=0.1)
        assert res.latency_breakdown["misroute"] > 0.0

    def test_crg_shorter_nonminimal_paths_than_rrg(self):
        """CRG saves the first local hop: lower misroute+base service."""
        _s1, rrg = run("obl-rrg", load=0.1)
        _s2, crg = run("obl-crg", load=0.1)
        rrg_path = rrg.latency_breakdown["misroute"]
        crg_path = crg.latency_breakdown["misroute"]
        assert crg_path < rrg_path

    def test_valiant_restores_adv_throughput(self):
        _s, res = run("obl-rrg", pattern="adversarial", load=0.35)
        cap = 1.0 / (res.config.network.a * res.config.network.p)
        assert res.accepted_load > cap * 2


class TestPiggyback:
    def test_pb_minimal_under_uniform(self):
        """Uniform traffic rarely trips the relative thresholds, so PB
        stays close to MIN (only residual misrouting from transient
        occupancy fluctuations)."""
        _s, res = run("src-rrg", load=0.3)
        assert res.latency_breakdown["misroute"] < 0.1 * (res.latency_breakdown["base"])

    def test_pb_diverts_under_adv(self):
        _s, res = run("src-crg", pattern="adversarial", load=0.4)
        assert res.latency_breakdown["misroute"] > 5.0
        cap = 1.0 / (res.config.network.a * res.config.network.p)
        assert res.accepted_load > cap * 1.5

    def test_pb_fails_to_flag_bottleneck_under_advc(self):
        """The paper's PB pathology: the bottleneck router's links all
        carry the same load, so its own traffic keeps routing minimally.
        Its packets therefore misroute less than its group peers' (their
        local link to the bottleneck does get flagged)."""
        sim, res = run("src-crg", pattern="advc", load=0.4)
        a = sim.topo.a
        g0 = res.group_injections(0)
        # bottleneck router exists and is depressed vs peers under priority
        others = [c for i, c in enumerate(g0) if i != a - 1]
        assert g0[a - 1] <= max(others)


class TestInTransit:
    @pytest.mark.parametrize("mech", ["in-trns-rrg", "in-trns-crg", "in-trns-mm"])
    def test_low_load_behaves_minimal(self, mech):
        """Below the trigger the mechanism is as fast as MIN."""
        _s1, adaptive = run(mech, load=0.1)
        _s2, minimal = run("min", load=0.1)
        assert adaptive.avg_latency == pytest.approx(minimal.avg_latency, rel=0.1)
        assert adaptive.latency_breakdown["misroute"] < 2.0

    def test_misroutes_under_advc(self):
        _s, res = run("in-trns-mm", pattern="advc", load=0.45)
        assert res.latency_breakdown["misroute"] > 5.0
        cap = res.config.network.h / (res.config.network.a * res.config.network.p)
        assert res.accepted_load > cap * 1.2

    def test_best_throughput_under_advc(self):
        _s1, mm = run("in-trns-mm", pattern="advc", load=0.5)
        _s2, src = run("src-crg", pattern="advc", load=0.5)
        assert mm.accepted_load >= src.accepted_load

    def test_global_misroute_at_most_once(self):
        """No packet ever takes more than two global hops (checked by the
        VC bound: a third global hop raises RoutingError inside the run)."""
        run("in-trns-mm", pattern="advc", load=0.55)
        run("in-trns-rrg", pattern="adversarial", load=0.55)


class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = small_config(
            routing="in-trns-mm", warmup_cycles=200, measure_cycles=800
        ).with_traffic(pattern="advc", load=0.35)
        r1 = Simulation(cfg).run()
        r2 = Simulation(cfg).run()
        assert r1.accepted_load == r2.accepted_load
        assert r1.avg_latency == r2.avg_latency
        assert r1.injected_per_router == r2.injected_per_router

    def test_different_seed_different_result(self):
        cfg = small_config(
            routing="obl-rrg", warmup_cycles=200, measure_cycles=800
        ).with_traffic(pattern="uniform", load=0.3)
        r1 = Simulation(cfg).run()
        r2 = Simulation(cfg.with_(seed=999)).run()
        assert r1.injected_per_router != r2.injected_per_router
