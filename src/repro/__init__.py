"""repro — reproduction of "Throughput Unfairness in Dragonfly Networks
under Realistic Traffic Patterns" (Fuentes et al., IEEE CLUSTER 2015).

A packet-level discrete-event simulator of canonical Dragonfly networks
with oblivious, source-adaptive (PiggyBack) and in-transit adaptive
(PAR+OLM) routing, the RRG/CRG/NRG/MM global misrouting policies, the
UN / ADV+k / ADVc synthetic traffic patterns, and the throughput-fairness
instrumentation the paper builds its analysis on.

Quickstart
----------
>>> from repro import small_config, run_simulation
>>> cfg = small_config(routing="in-trns-mm").with_traffic(
...     pattern="advc", load=0.4)
>>> result = run_simulation(cfg)
>>> result.accepted_load           # doctest: +SKIP
>>> result.fairness.max_min_ratio  # doctest: +SKIP

See README.md for the full tour; ``repro paper OUT_DIR`` renders every
figure and table of the paper (:mod:`repro.analysis.paper`).
"""

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
from repro.core import Simulation, SimulationResult, run_simulation
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    FlowControlError,
    OracleError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.exec import (
    ExperimentPlan,
    LoadSweepResult,
    PlanResult,
    ResultStore,
    Runner,
    Shard,
    SweepPoint,
)
from repro.metrics import (
    FairnessMetrics,
    OracleReport,
    SimOracle,
    fairness_from_counts,
)
from repro.routing import ROUTING_NAMES
from repro.topology import DragonflyTopology
from repro.traffic import (
    SCENARIOS,
    Scenario,
    get_scenario,
    pattern_name,
    scenario_names,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ConfigurationError",
    "DragonflyTopology",
    "ExperimentPlan",
    "FairnessMetrics",
    "FlowControlError",
    "JobSpec",
    "LoadSweepResult",
    "NetworkConfig",
    "OracleError",
    "OracleReport",
    "PlanResult",
    "ROUTING_NAMES",
    "ReproError",
    "ResultStore",
    "RouterConfig",
    "RoutingError",
    "Runner",
    "SCENARIOS",
    "Scenario",
    "Shard",
    "SimOracle",
    "Simulation",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SweepPoint",
    "TopologyError",
    "TrafficConfig",
    "fairness_from_counts",
    "get_scenario",
    "medium_config",
    "paper_config",
    "pattern_name",
    "run_simulation",
    "scenario_names",
    "small_config",
    "tiny_config",
]
