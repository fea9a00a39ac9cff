"""Configuration validation and preset tests."""

from __future__ import annotations

import pytest

from repro.config import (
    JobSpec,
    NetworkConfig,
    RouterConfig,
    SimulationConfig,
    TrafficConfig,
    medium_config,
    paper_config,
    small_config,
    tiny_config,
)
from repro.errors import ConfigurationError


class TestNetworkConfig:
    def test_defaults_are_small_scale(self):
        net = NetworkConfig()
        assert (net.p, net.a, net.h) == (2, 4, 2)

    def test_derived_counts(self):
        net = NetworkConfig(p=6, a=12, h=6)
        assert net.groups == 73
        assert net.num_routers == 876
        assert net.num_nodes == 5256
        assert net.router_radix == 6 + 11 + 6

    def test_fig1_example_scale(self):
        """The paper's Fig. 1: h=2 Dragonfly with 9 groups and 72 nodes."""
        net = NetworkConfig(p=2, a=4, h=2)
        assert net.groups == 9
        assert net.num_nodes == 72

    @pytest.mark.parametrize("field", ["p", "a", "h"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ConfigurationError):
            NetworkConfig(**{field: 0})

    def test_rejects_unknown_arrangement(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(arrangement="spiral")

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(local_link_latency=0)

    def test_describe_mentions_shape(self):
        assert "p=2" in NetworkConfig().describe()


class TestRouterConfig:
    def test_paper_defaults(self):
        rc = RouterConfig()
        assert rc.pipeline_latency == 5
        assert rc.speedup == 2
        assert rc.local_input_buffer == 32
        assert rc.global_input_buffer == 256
        assert rc.output_buffer == 32
        assert rc.transit_priority is True

    def test_rejects_too_few_global_vcs(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(global_vcs=1)

    def test_rejects_too_few_local_vcs(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(local_vcs=3)

    def test_rejects_zero_buffer(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(output_buffer=0)


class TestTrafficConfig:
    def test_default_uniform(self):
        assert TrafficConfig().pattern == "uniform"

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(pattern="zigzag")

    @pytest.mark.parametrize("load", [0.0, -0.1, 1.5])
    def test_rejects_bad_load(self, load):
        with pytest.raises(ConfigurationError):
            TrafficConfig(load=load)

    def test_rejects_zero_offset(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(pattern="adversarial", adv_offset=0)

    def test_rejects_bad_hotspot_fraction(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(pattern="hotspot", hotspot_fraction=0.0)


class TestSimulationConfig:
    def test_rejects_unknown_routing(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(routing="teleport")

    def test_rejects_offset_wrap(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                traffic=TrafficConfig(pattern="adversarial", adv_offset=9),
                network=NetworkConfig(p=2, a=4, h=2),
            )

    def test_rejects_oversized_job(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                traffic=TrafficConfig(pattern="job", job_groups=100),
            )

    def test_with_helpers_return_copies(self):
        cfg = small_config()
        cfg2 = cfg.with_traffic(load=0.9)
        assert cfg.traffic.load != 0.9
        assert cfg2.traffic.load == 0.9
        cfg3 = cfg.with_router(transit_priority=False)
        assert cfg3.router.transit_priority is False
        assert cfg.router.transit_priority is True
        cfg4 = cfg.with_network(h=3, a=6, p=3)
        assert cfg4.network.groups == 19

    def test_total_cycles(self):
        cfg = SimulationConfig(warmup_cycles=100, measure_cycles=200)
        assert cfg.total_cycles == 300

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(misroute_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(misroute_threshold=1.0)


class TestFieldTypes:
    """Int and bool fields take exactly that type; ``True == 1`` and
    ``100.5`` must not slip through to a run or into a digest."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("warmup_cycles", 100.5),
            ("measure_cycles", 300.0),
            ("seed", 1.5),
            ("seed", True),
            ("pb_threshold_local", 2.5),
            ("pb_threshold_global", "3"),
            ("pb_update_period", 8.0),
            ("deadlock_cycles", 5e4),
            ("oracle", "yes"),
            ("oracle", 1),
        ],
    )
    def test_simulation_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("adv_offset", 1.5),
            ("adv_offset", True),
            ("job_groups", 2.0),
            ("phase_length", 1.5),
            ("load", "0.5"),
            ("load", True),
            ("hotspot_fraction", None),
        ],
    )
    def test_traffic_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrafficConfig(**{field: value})

    def test_network_router_and_job_fields(self):
        with pytest.raises(ConfigurationError, match="p must"):
            NetworkConfig(p=True)
        with pytest.raises(ConfigurationError, match="transit_priority"):
            RouterConfig(transit_priority=1)
        with pytest.raises(ConfigurationError, match="load_scale"):
            JobSpec(load_scale="1")

    def test_float_fields_are_stored_as_floats(self):
        cfg = SimulationConfig(
            traffic=TrafficConfig(load=1, hotspot_fraction=1),
        )
        assert type(cfg.traffic.load) is type(cfg.traffic.hotspot_fraction) is float
        assert type(JobSpec(load_scale=1).load_scale) is float
        assert cfg == SimulationConfig(
            traffic=TrafficConfig(load=1.0, hotspot_fraction=1.0)
        )

    def test_valid_types_accepted(self):
        cfg = SimulationConfig(seed=-3, oracle=True, warmup_cycles=0)
        assert cfg.seed == -3 and cfg.oracle is True
        assert TrafficConfig(pattern="job", job_groups=3).job_groups == 3


class TestPresets:
    def test_paper_config_is_table1(self):
        cfg = paper_config()
        net = cfg.network
        assert (net.p, net.a, net.h) == (6, 12, 6)
        assert net.num_nodes == 5256
        assert net.local_link_latency == 10
        assert net.global_link_latency == 100

    def test_small_config_shape(self):
        assert small_config().network.num_nodes == 72

    def test_medium_config_shape(self):
        assert medium_config().network.num_nodes == 342

    def test_tiny_config_shape(self):
        assert tiny_config().network.num_nodes == 6

    def test_preset_overrides(self):
        cfg = small_config(routing="obl-rrg", seed=77)
        assert cfg.routing == "obl-rrg"
        assert cfg.seed == 77

    @pytest.mark.parametrize(
        "preset", [paper_config, medium_config, small_config, tiny_config]
    )
    def test_presets_validate(self, preset):
        preset()  # construction runs __post_init__ validation
