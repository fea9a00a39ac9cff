"""Tests for the simulation oracle: green runs, loud failures, verdicts."""

from __future__ import annotations

import pytest

from repro.config import JobSpec, small_config, tiny_config
from repro.core.simulation import Simulation, run_simulation
from repro.errors import OracleError
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import Runner
from repro.exec.serialize import result_from_dict, result_to_dict
from repro.metrics.oracle import OracleCheck, OracleReport
from repro.traffic import get_scenario


def _audited_sim(**traffic) -> Simulation:
    cfg = tiny_config(oracle=True).with_traffic(load=0.3, **traffic)
    return Simulation(cfg)


class TestGreenRuns:
    @pytest.mark.parametrize(
        "traffic",
        [
            {"pattern": "uniform"},
            {"pattern": "adversarial", "burst_on": 50, "burst_off": 50},
            {"pattern": "advc", "ramp_cycles": 300},
        ],
    )
    def test_oracle_passes_and_network_drains(self, traffic):
        cfg = tiny_config(oracle=True).with_traffic(load=0.3, **traffic)
        result = run_simulation(cfg)
        assert result.oracle is not None
        assert result.oracle["passed"]
        assert result.in_flight_at_end == 0
        names = set(result.oracle["checks"])
        assert names == {
            "conservation",
            "credit_balance",
            "monotone_delivery",
            "phit_accounting",
            "per_job_closure",
        }

    def test_oracle_off_by_default(self):
        result = run_simulation(tiny_config().with_traffic(load=0.3))
        assert result.oracle is None

    def test_window_metrics_unchanged_by_audit(self):
        """Draining must not perturb anything measured in the window."""
        plain = run_simulation(tiny_config().with_traffic(load=0.3))
        audited = run_simulation(tiny_config(oracle=True).with_traffic(load=0.3))
        assert audited.offered_load == plain.offered_load
        assert audited.accepted_load == plain.accepted_load
        assert audited.avg_latency == plain.avg_latency
        assert audited.injected_per_router == plain.injected_per_router
        assert audited.delivered_per_router == plain.delivered_per_router

    def test_per_job_closure_multi_job(self):
        cfg = small_config(
            oracle=True, warmup_cycles=300, measure_cycles=500
        ).with_traffic(
            pattern="multi_job",
            load=0.25,
            jobs=(
                JobSpec(0, 3, "uniform"),
                JobSpec(3, 3, "adversarial", 0.8, 400),
            ),
        )
        result = run_simulation(cfg)
        check = result.oracle["checks"]["per_job_closure"]
        assert check["ok"] and "job 0" in check["detail"]


class TestLoudFailures:
    def _run_engine_only(self, sim: Simulation) -> None:
        """Run + drain without verification (so a test can corrupt state)."""
        for node in range(sim.topo.num_nodes):
            if sim.traffic.active(node):
                sim.engine.schedule(0, sim.gen._gen_event, node)
        sim.engine.run_until(sim.gen._end_time)
        sim._drain()

    def test_corrupted_credit_counter_fails_loudly(self):
        sim = _audited_sim(pattern="uniform")
        self._run_engine_only(sim)
        router = sim.routers[0]
        # Deliberately corrupt a credit counter of the first credited port
        # (flat SoA indices: kb/pb are the router's base offsets).
        port = next(
            p for p in range(router.radix) if router.credit_nvc[router.pb + p]
        )
        router.credits_used[router.kb + port * router.max_vcs] += 8
        with pytest.raises(OracleError, match="credit_balance"):
            sim.oracle.verify(sim)

    def test_corrupted_delivery_count_fails_loudly(self):
        sim = _audited_sim(pattern="uniform")
        self._run_engine_only(sim)
        sim.oracle.delivered -= 1
        sim.oracle.delivered_phits -= 8
        with pytest.raises(OracleError, match="conservation"):
            sim.oracle.verify(sim)

    def test_corrupted_phit_count_fails_loudly(self):
        sim = _audited_sim(pattern="uniform")
        self._run_engine_only(sim)
        sim.oracle.generated_phits += 3
        with pytest.raises(OracleError, match="phit_accounting"):
            sim.oracle.verify(sim)

    def test_cross_job_leak_fails_loudly(self):
        sim = _audited_sim(pattern="job")
        self._run_engine_only(sim)
        sim.oracle.cross_job += 1
        with pytest.raises(OracleError, match="per_job_closure"):
            sim.oracle.verify(sim)

    def test_non_strict_returns_report(self):
        sim = _audited_sim(pattern="uniform")
        self._run_engine_only(sim)
        sim.oracle.order_violations = 2
        report = sim.oracle.verify(sim, strict=False)
        assert not report.passed
        assert [c.name for c in report.failures()] == ["monotone_delivery"]
        assert "FAIL" in report.summary()


class TestReport:
    def test_to_dict_shape(self):
        report = OracleReport(
            (
                OracleCheck("a", True, "fine"),
                OracleCheck("b", False, "broken"),
            )
        )
        d = report.to_dict()
        assert d == {
            "passed": False,
            "checks": {
                "a": {"ok": True, "detail": "fine"},
                "b": {"ok": False, "detail": "broken"},
            },
        }

    def test_verdict_survives_serialization(self):
        result = run_simulation(tiny_config(oracle=True).with_traffic(load=0.2))
        back = result_from_dict(result_to_dict(result))
        assert back.oracle == result.oracle
        assert back.oracle["passed"]


class TestPlanVerdicts:
    def test_scenario_grid_all_green(self, tmp_path):
        """Acceptance: a multi_job_interference grid completes with all
        oracle verdicts green, and the store records them per cell."""
        base = get_scenario("multi_job_interference").apply(
            small_config(oracle=True, warmup_cycles=200, measure_cycles=400)
        )
        plan = ExperimentPlan.grid(
            base, routings=["min", "in-trns-mm"], loads=[0.15, 0.3]
        )
        store = tmp_path / "store"
        res = Runner(jobs=1, store=store).run(plan)
        verdicts = res.oracle_verdicts()
        assert len(verdicts) == 4
        assert all(verdicts.values())
        # The verdicts landed in the on-disk store with the results.
        reloaded = Runner(jobs=1, store=store, offline=True).run(plan)
        assert reloaded.cached == 4
        assert all(reloaded.oracle_verdicts().values())

    def test_unaudited_plan_has_no_verdicts(self):
        plan = ExperimentPlan.point(tiny_config().with_traffic(load=0.2))
        res = Runner(jobs=1).run(plan)
        assert res.oracle_verdicts() == {}
