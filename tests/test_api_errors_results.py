"""Tests for the public API surface, error hierarchy and result containers."""

from __future__ import annotations

import pytest

import repro
from repro.config import small_config
from repro.core.simulation import run_simulation
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    FlowControlError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            TopologyError,
            RoutingError,
            SimulationError,
            FlowControlError,
            AnalysisError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_such(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(TopologyError, ValueError)

    def test_runtime_errors_catchable_as_such(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(FlowControlError, RuntimeError)

    def test_single_except_clause_catches_config_error(self):
        with pytest.raises(ReproError):
            small_config(routing="nope")


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_routing_names_match_config_validation(self):
        cfg = small_config()
        for name in repro.ROUTING_NAMES:
            cfg.with_(routing=name)  # must validate


class TestSimulationResult:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = small_config(
            routing="min", warmup_cycles=100, measure_cycles=600
        ).with_traffic(pattern="uniform", load=0.2)
        return run_simulation(cfg)

    def test_group_injections_slices(self, result):
        a = result.config.network.a
        groups = result.config.network.groups
        total = sum(sum(result.group_injections(g)) for g in range(groups))
        assert total == sum(result.injected_per_router)
        assert len(result.group_injections(0)) == a

    def test_group_injections_rejects_out_of_range_groups(self, result):
        groups = result.config.network.groups
        for group in (groups, -1):
            with pytest.raises(AnalysisError, match=rf"\[0, {groups}\)"):
                result.group_injections(group)

    def test_summary_mentions_key_fields(self, result):
        s = result.summary()
        assert "min" in s
        assert "offered=" in s and "accepted=" in s

    def test_fairness_computed_on_construction(self, result):
        assert result.fairness.min_injected == min(result.injected_per_router)

    def test_breakdown_components_sum_to_latency(self, result):
        total = sum(result.latency_breakdown.values())
        assert total == pytest.approx(result.avg_latency, rel=1e-6)

    def test_event_count_positive(self, result):
        assert result.events_processed > 0
