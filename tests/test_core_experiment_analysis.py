"""Tests for the experiment harness and the analysis layer."""

from __future__ import annotations

import pytest

from repro.analysis.figures import (
    advc_plan,
    figure2_sweeps,
    figure3_breakdown,
    figure3_plan,
    figure4_injections,
    format_figure2,
    format_figure3,
    format_figure4,
)
from repro.analysis.paper_reference import (
    PAPER_TABLE_II,
    PAPER_TABLE_III,
    min_throughput_bound,
)
from repro.analysis.interference import (
    interference_report,
    job_router_ids,
    per_job_counts,
)
from repro.analysis.tables import fairness_table, format_fairness_table
from repro.config import JobSpec, NetworkConfig, small_config
from repro.core.simulation import run_simulation
from repro.errors import AnalysisError
from repro.exec import ExperimentPlan, PlanResult, Runner, average_results


def quick_cfg(**kw):
    return small_config(warmup_cycles=200, measure_cycles=600, **kw)


def _point(cfg, *, seeds=1):
    res = Runner(jobs=1).run(ExperimentPlan.point(cfg, seeds=seeds))
    res.raise_for_failures()
    return res.point(cfg)


def _sweep(cfg, loads):
    res = Runner(jobs=1).run(ExperimentPlan.sweep(cfg, loads))
    res.raise_for_failures()
    return res.sweep(cfg, loads)


class TestRunPoint:
    def test_single_seed(self):
        pt = _point(quick_cfg(routing="min").with_traffic(load=0.2))
        assert pt.seeds == 1
        assert 0 < pt.accepted_load <= 0.3

    def test_multi_seed_averages(self):
        pt = _point(quick_cfg(routing="min").with_traffic(load=0.2), seeds=2)
        assert pt.seeds == 2
        assert pt.avg_latency > 0

    def test_invalid_seeds(self):
        with pytest.raises(AnalysisError):
            _point(quick_cfg(), seeds=0)


class TestAverageResults:
    def test_averaging_identity(self):
        r = run_simulation(quick_cfg(routing="min").with_traffic(load=0.2))
        pt = average_results([r, r])
        assert pt.accepted_load == r.accepted_load
        assert pt.avg_latency == r.avg_latency
        assert pt.fairness.min_injected == r.fairness.min_injected

    def test_fractional_min_inj_like_paper(self):
        """Averaged per-router counts may be fractional (paper: 31.67)."""
        r1 = run_simulation(quick_cfg(routing="min").with_traffic(load=0.2))
        r2 = run_simulation(quick_cfg(routing="min", seed=7).with_traffic(load=0.2))
        pt = average_results([r1, r2])
        assert pt.seeds == 2
        assert pt.fairness.mean_injected > 0

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            average_results([])


class TestLoadSweep:
    def test_sweep_structure(self):
        sweep = _sweep(quick_cfg(routing="min"), [0.1, 0.3])
        assert len(sweep.points) == 2
        assert sweep.routing == "min"
        assert sweep.pattern == "UN"
        lat = sweep.latency_series()
        thr = sweep.throughput_series()
        assert len(lat) == len(thr) == 2
        assert sweep.saturation_throughput() >= thr[0][1]

    def test_empty_loads_raises(self):
        with pytest.raises(AnalysisError):
            _sweep(quick_cfg(), [])


class TestPaperReference:
    def test_tables_cover_seven_mechanisms(self):
        assert len(PAPER_TABLE_II) == 7
        assert set(PAPER_TABLE_II) == set(PAPER_TABLE_III)

    def test_min_bound_values(self):
        net = NetworkConfig(p=6, a=12, h=6)
        assert min_throughput_bound(net, "adversarial") == pytest.approx(1 / 72)
        assert min_throughput_bound(net, "advc") == pytest.approx(6 / 72)
        assert min_throughput_bound(net, "uniform") == 1.0

    def test_min_bound_unknown_pattern(self):
        with pytest.raises(ValueError):
            min_throughput_bound(NetworkConfig(), "permutation")


class TestAnalysisGenerators:
    """Smoke-level: each generator runs on a tiny grid and formats."""

    def test_figure2(self):
        base = quick_cfg().with_traffic(pattern="uniform")
        sweeps = figure2_sweeps(base, [0.2], mechanisms=("min", "obl-crg"))
        text = format_figure2(sweeps, title="t")
        assert "min" in text and "obl-crg" in text
        assert "latency" in text

    def test_figure3(self):
        base = quick_cfg()
        res = Runner(jobs=1).run(figure3_plan(base, [0.2]))
        bd = figure3_breakdown(res, base, [0.2])
        text = format_figure3(bd)
        assert "misroute" in text
        assert len(bd) == 1

    def test_figure4(self):
        base = quick_cfg()
        res = Runner(jobs=1).run(advc_plan(base, ("obl-crg",), load=0.3))
        inj = figure4_injections(res, base, mechanisms=("obl-crg",), load=0.3)
        assert len(inj["obl-crg"]) == base.network.a
        text = format_figure4(inj, title="fig4")
        assert "bottleneck" in text

    def test_fairness_table(self):
        base = quick_cfg()
        res = Runner(jobs=1).run(advc_plan(base, ("obl-crg",), load=0.3))
        table = fairness_table(res, base, mechanisms=("obl-crg",), load=0.3)
        text = format_fairness_table(table, priority=True)
        assert "Table II" in text
        assert "obl-crg" in text
        text3 = format_fairness_table(table, priority=False)
        assert "Table III" in text3


class TestOfflineErrorPaths:
    """``offline=True`` generators must fail instead of simulating."""

    def test_figure2_offline_without_store_raises(self):
        base = quick_cfg().with_traffic(pattern="uniform")
        with pytest.raises(AnalysisError, match="store"):
            figure2_sweeps(base, [0.2], mechanisms=("min",), offline=True)

    def test_figure2_offline_cold_store_raises(self, tmp_path):
        base = quick_cfg().with_traffic(pattern="uniform")
        with pytest.raises(AnalysisError, match="missing"):
            figure2_sweeps(
                base,
                [0.2],
                mechanisms=("min",),
                store=tmp_path / "empty",
                offline=True,
            )

    def test_figure2_offline_partial_store_raises(self, tmp_path):
        """A store holding only part of the plan is an error, not a
        silent partial render."""
        base = quick_cfg().with_traffic(pattern="uniform")
        store = tmp_path / "partial"
        figure2_sweeps(base, [0.2], mechanisms=("min",), store=store)
        with pytest.raises(AnalysisError, match="missing 1 of 2"):
            figure2_sweeps(
                base, [0.2, 0.3], mechanisms=("min",), store=store, offline=True
            )

    def test_figure3_and_4_offline_cold_store_raise(self, tmp_path):
        base = quick_cfg()
        for name, plan in (
            ("c3", figure3_plan(base, [0.2])),
            ("c4", advc_plan(base, ("obl-crg",), load=0.3)),
        ):
            runner = Runner(jobs=1, store=tmp_path / name, offline=True)
            with pytest.raises(AnalysisError, match="missing"):
                runner.run(plan)

    def test_figure2_offline_warm_store_renders(self, tmp_path):
        base = quick_cfg().with_traffic(pattern="uniform")
        store = tmp_path / "warm"
        online = figure2_sweeps(base, [0.2], mechanisms=("min",), store=store)
        offline = figure2_sweeps(
            base, [0.2], mechanisms=("min",), store=store, offline=True
        )
        assert format_figure2(offline, title="t") == format_figure2(online, title="t")


class TestInterference:
    def _base(self):
        return quick_cfg(oracle=True).with_traffic(
            pattern="multi_job",
            jobs=(
                JobSpec(0, 3, "uniform"),
                JobSpec(3, 3, "adversarial", 1.0, 300),
            ),
        )

    def test_job_router_ids_wraps(self):
        net = NetworkConfig(p=2, a=4, h=2)  # 9 groups
        ids = job_router_ids(net, JobSpec(first_group=8, groups=2))
        assert ids == [32, 33, 34, 35, 0, 1, 2, 3]

    def test_per_job_counts_sum_to_totals(self):
        result = run_simulation(self._base().with_traffic(load=0.25))
        counts = per_job_counts(result)
        assert [c["job"] for c in counts] == [0, 1]
        assert sum(c["injected"] for c in counts) == sum(result.injected_per_router)
        assert sum(c["delivered"] for c in counts) == sum(result.delivered_per_router)

    def test_per_job_counts_needs_jobs(self):
        result = run_simulation(quick_cfg().with_traffic(load=0.2))
        with pytest.raises(AnalysisError):
            per_job_counts(result)

    def test_report_renders(self):
        base = self._base()
        res = Runner(jobs=1).run(ExperimentPlan.sweep(base, [0.2]))
        text = interference_report(res, base, [0.2])
        assert "job0" in text and "job1" in text
        assert "adversarial" in text
        assert "ok" in text  # oracle verdict column

    def test_report_needs_multi_job(self):
        with pytest.raises(AnalysisError):
            interference_report(PlanResult(ExperimentPlan(), {}), quick_cfg(), [0.2])
