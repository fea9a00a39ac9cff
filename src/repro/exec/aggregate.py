"""Aggregation of cell results into the paper's sweep-level containers.

:class:`SweepPoint` and :class:`LoadSweepResult` are the containers the
figure/table generators consume; :func:`average_results` folds several
same-config seed repetitions into one point, and
:func:`average_injections` produces the seed-averaged per-router
injection counts behind Figures 4/6.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.results import SimulationResult
from repro.errors import AnalysisError
from repro.metrics.fairness import FairnessMetrics, fairness_from_counts

__all__ = [
    "SweepPoint",
    "LoadSweepResult",
    "average_results",
    "average_injections",
]


@dataclass(frozen=True)
class SweepPoint:
    """Seed-averaged metrics at one offered load."""

    offered_load: float
    accepted_load: float
    avg_latency: float
    latency_breakdown: dict[str, float]
    fairness: FairnessMetrics
    seeds: int

    def as_tuple(self) -> tuple[float, float, float]:
        """(offered, accepted, latency) for quick plotting."""
        return (self.offered_load, self.accepted_load, self.avg_latency)


@dataclass(frozen=True)
class LoadSweepResult:
    """A full latency/throughput curve for one mechanism and pattern."""

    routing: str
    pattern: str
    points: tuple[SweepPoint, ...]

    def latency_series(self) -> list[tuple[float, float]]:
        """(offered load, mean latency) pairs — the left panels of Fig. 2/5."""
        return [(pt.offered_load, pt.avg_latency) for pt in self.points]

    def throughput_series(self) -> list[tuple[float, float]]:
        """(offered, accepted) pairs — the right panels of Fig. 2/5."""
        return [(pt.offered_load, pt.accepted_load) for pt in self.points]

    def saturation_throughput(self) -> float:
        """Highest accepted load along the sweep (the curve's plateau)."""
        return max(pt.accepted_load for pt in self.points)


def average_injections(results: Sequence[SimulationResult]) -> list[float]:
    """Element-wise mean of per-router injection counts across seeds."""
    if not results:
        raise AnalysisError("average_injections needs at least one result")
    n0 = len(results[0].injected_per_router)
    if any(len(r.injected_per_router) != n0 for r in results):
        raise AnalysisError(
            "cannot average results from differently sized networks: "
            f"injected_per_router lengths "
            f"{sorted({len(r.injected_per_router) for r in results})}"
        )
    n = len(results)
    return [sum(r.injected_per_router[i] for r in results) / n for i in range(n0)]


def average_results(results: Sequence[SimulationResult]) -> SweepPoint:
    """Average several same-configuration runs into one sweep point.

    Per-router injection counts are averaged element-wise before the
    fairness metrics are recomputed, matching how the paper reports
    fractional "Min inj" values (e.g. 31.67 = a 3-seed average).
    """
    if not results:
        raise AnalysisError("average_results needs at least one result")
    counts = average_injections(results)
    keys = set(results[0].latency_breakdown)
    if any(set(r.latency_breakdown) != keys for r in results):
        raise AnalysisError(
            "cannot average results with mismatched latency-breakdown keys"
        )
    n = len(results)
    breakdown = {
        k: sum(r.latency_breakdown[k] for r in results) / n
        for k in results[0].latency_breakdown
    }
    return SweepPoint(
        offered_load=sum(r.offered_load for r in results) / n,
        accepted_load=sum(r.accepted_load for r in results) / n,
        avg_latency=sum(r.avg_latency for r in results) / n,
        latency_breakdown=breakdown,
        fairness=fairness_from_counts(counts),
        seeds=n,
    )
