"""Result containers for single runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import SimulationConfig
from repro.errors import AnalysisError
from repro.metrics.fairness import FairnessMetrics, fairness_from_counts

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything measured by one simulation run.

    ``latency_breakdown`` holds the five Figure-3 component means;
    ``injected_per_router`` is the Figure-4/6 series; ``fairness`` the
    Table-II/III row.  ``oracle`` is the simulation oracle's verdict
    (:meth:`repro.metrics.oracle.OracleReport.to_dict`) when the run was
    audited (``config.oracle``), else ``None``.
    """

    config: SimulationConfig
    routing: str
    pattern: str
    offered_load: float
    accepted_load: float
    avg_latency: float
    latency_std: float
    max_latency: float
    latency_breakdown: dict[str, float]
    delivered_packets: int
    generated_packets: int
    injected_per_router: list[int]
    delivered_per_router: list[int]
    in_flight_at_end: int
    events_processed: int
    oracle: dict[str, Any] | None = None
    fairness: FairnessMetrics = field(init=False)

    def __post_init__(self) -> None:
        self.fairness = fairness_from_counts(self.injected_per_router)

    # ------------------------------------------------------------------
    def group_injections(self, group: int) -> list[int]:
        """Per-router injection counts restricted to one group (Fig. 4/6)."""
        groups = self.config.network.groups
        if not 0 <= group < groups:
            raise AnalysisError(f"group {group} out of range [0, {groups})")
        a = self.config.network.a
        return self.injected_per_router[group * a : (group + 1) * a]

    def summary(self) -> str:
        """One-line human-readable run summary."""
        return (
            f"[{self.routing:12s} | {self.pattern:6s}] "
            f"offered={self.offered_load:.3f} accepted={self.accepted_load:.3f} "
            f"latency={self.avg_latency:.1f} "
            f"maxmin={self.fairness.max_min_ratio:.3g} "
            f"cov={self.fairness.cov:.4f}"
        )
