"""Integration tests asserting the paper's core claims end-to-end.

These are the load-bearing reproduction checks: each corresponds to a
sentence in the paper's abstract/evaluation.  They run at the h=2 scale
with short windows, so thresholds are generous; the benchmark harness
re-runs them with proper statistics.
"""

from __future__ import annotations

import pytest

from repro.analysis.paper_reference import min_throughput_bound
from repro.config import small_config
from repro.core.simulation import run_simulation
from repro.errors import SimulationError


def cfg(routing, pattern, load, priority=True):
    c = small_config(
        routing=routing, warmup_cycles=600, measure_cycles=1800
    ).with_traffic(pattern=pattern, load=load)
    if not priority:
        c = c.with_router(transit_priority=False)
    return c


class TestSectionIII_MinBounds:
    def test_adv_cap_is_one_over_ap(self):
        res = run_simulation(cfg("min", "adversarial", 0.8))
        bound = min_throughput_bound(res.config.network, "adversarial")
        assert res.accepted_load == pytest.approx(bound, rel=0.12)

    def test_advc_cap_is_h_over_ap(self):
        res = run_simulation(cfg("min", "advc", 0.8))
        bound = min_throughput_bound(res.config.network, "advc")
        assert res.accepted_load == pytest.approx(bound, rel=0.15)

    def test_advc_less_severe_than_adv(self):
        adv = run_simulation(cfg("min", "adversarial", 0.8))
        advc = run_simulation(cfg("min", "advc", 0.8))
        assert advc.accepted_load > adv.accepted_load * 1.5


class TestSectionV_Performance:
    def test_uniform_all_mechanisms_healthy(self):
        # Oblivious Valiant roughly halves the UN capacity (paths are ~2x
        # longer); the adaptive mechanisms stay near minimal performance.
        for mech, floor in (
            ("min", 0.5),
            ("obl-crg", 0.4),
            ("src-rrg", 0.5),
            ("in-trns-mm", 0.5),
        ):
            res = run_simulation(cfg(mech, "uniform", 0.6))
            assert res.accepted_load > floor, mech

    def test_nonminimal_restores_advc_throughput(self):
        minimal = run_simulation(cfg("min", "advc", 0.5))
        valiant = run_simulation(cfg("obl-rrg", "advc", 0.5))
        intransit = run_simulation(cfg("in-trns-mm", "advc", 0.5))
        assert valiant.accepted_load > minimal.accepted_load
        assert intransit.accepted_load > minimal.accepted_load

    def test_intransit_beats_source_adaptive_under_advc(self):
        src = run_simulation(cfg("src-crg", "advc", 0.5))
        itr = run_simulation(cfg("in-trns-mm", "advc", 0.5))
        assert itr.accepted_load >= src.accepted_load * 0.95


class TestSectionV_Unfairness:
    def test_oblivious_is_fair_under_advc(self):
        for mech in ("obl-rrg", "obl-crg"):
            res = run_simulation(cfg(mech, "advc", 0.4))
            assert res.fairness.max_min_ratio < 2.2, mech

    def test_adaptive_crg_starves_bottleneck_with_priority(self):
        a = small_config().network.a
        for mech in ("src-crg", "in-trns-crg"):
            res = run_simulation(cfg(mech, "advc", 0.4))
            g0 = res.group_injections(0)
            others = sum(g0[: a - 1]) / (a - 1)
            assert g0[a - 1] < 0.75 * others, (mech, g0)

    def test_adaptive_less_fair_than_oblivious(self):
        obl = run_simulation(cfg("obl-crg", "advc", 0.4))
        for mech in ("src-crg", "in-trns-crg", "in-trns-mm"):
            res = run_simulation(cfg(mech, "advc", 0.4))
            assert res.fairness.cov > obl.fairness.cov, mech

    def test_priority_removal_improves_intransit_fairness(self):
        for mech in ("in-trns-crg", "in-trns-mm"):
            with_p = run_simulation(cfg(mech, "advc", 0.4))
            without = run_simulation(cfg(mech, "advc", 0.4, priority=False))
            assert (
                without.fairness.max_min_ratio
                <= with_p.fairness.max_min_ratio * 1.05
            ), mech

    def test_priority_removal_makes_srccrg_bottleneck_overinject(self):
        a = small_config().network.a
        res = run_simulation(cfg("src-crg", "advc", 0.4, priority=False))
        g0 = res.group_injections(0)
        others = sum(g0[: a - 1]) / (a - 1)
        assert g0[a - 1] > others, g0


class TestRobustness:
    def test_no_deadlock_at_saturation_all_mechanisms(self):
        """Past-saturation runs complete without the watchdog firing
        (regression for the VC-reuse deadlock described in repro.routing.vc)."""
        for mech in ("min", "obl-rrg", "src-crg", "in-trns-mm"):
            for priority in (True, False):
                c = cfg(mech, "advc", 0.9, priority=priority)
                res = run_simulation(c)  # SimulationError would propagate
                assert res.delivered_packets > 0, (mech, priority)

    def test_watchdog_fires_on_artificial_freeze(self):
        """The deadlock watchdog raises when nothing is delivered."""
        from repro.core.simulation import Simulation
        from repro.traffic.base import TrafficPattern

        class Silent(TrafficPattern):
            name = "silent"

            def dest(self, src_node, rng):
                return None  # never generates: nothing will be delivered

        c = small_config(
            routing="min",
            warmup_cycles=0,
            measure_cycles=5000,
            deadlock_cycles=1000,
        ).with_traffic(pattern="uniform", load=0.3)
        sim = Simulation(c)
        sim.traffic = Silent(sim.topo)  # swapped in: start() un-lowers
        sim.stats.on_injection(0, 0)  # pretend a packet is in flight
        with pytest.raises(SimulationError, match="deadlock suspected"):
            sim.run()
