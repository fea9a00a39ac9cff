"""Per-job interference analysis for multi-job workloads.

A ``multi_job`` run already records everything needed to slice the
network per job: each job occupies whole groups, so the per-router
injection/delivery counters map onto jobs exactly.  This module turns
one (or a sweep of) :class:`repro.core.results.SimulationResult` into
per-job series — how much each job injected and received inside the
measurement window — and renders the interference table of the
``multi_job_interference`` paper artifact.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config import JobSpec, NetworkConfig, SimulationConfig
from repro.core.results import SimulationResult
from repro.errors import AnalysisError
from repro.exec.runner import PlanResult
from repro.utils.tables import format_table

__all__ = [
    "interference_report",
    "job_router_ids",
    "per_job_counts",
]


def job_router_ids(network: NetworkConfig, spec: JobSpec) -> list[int]:
    """Router ids covered by *spec*'s (wrapping) group range."""
    a = network.a
    total = network.groups
    out: list[int] = []
    for k in range(spec.groups):
        g = (spec.first_group + k) % total
        out.extend(range(g * a, (g + 1) * a))
    return out


def per_job_counts(result: SimulationResult) -> list[dict]:
    """Per-job window counters of one ``multi_job`` run.

    Returns one dict per job: ``job`` (index), ``pattern``, ``nodes``,
    ``injected`` and ``delivered`` packet counts inside the measurement
    window, summed over the job's routers.
    """
    jobs = result.config.traffic.jobs
    if not jobs:
        raise AnalysisError(
            "per_job_counts needs a multi_job result (config.traffic.jobs "
            "is empty)"
        )
    network = result.config.network
    out = []
    for idx, spec in enumerate(jobs):
        routers = job_router_ids(network, spec)
        out.append(
            {
                "job": idx,
                "pattern": spec.pattern,
                "nodes": len(routers) * network.p,
                "injected": sum(result.injected_per_router[r] for r in routers),
                "delivered": sum(result.delivered_per_router[r] for r in routers),
            }
        )
    return out


def interference_report(
    res: PlanResult, base: SimulationConfig, loads: Sequence[float]
) -> str:
    """Render per-job rows of a ``multi_job`` load sweep read from *res*.

    ``base`` must carry a ``multi_job`` traffic config (e.g. the
    ``multi_job_interference`` scenario applied to a preset), and *res*
    must hold ``ExperimentPlan.sweep(base, loads, ...)``.  Each row
    shows one (load, job) pair: packets the job injected and received in
    the window, the job's share of all deliveries, and the run's oracle
    verdict when the cells were audited.
    """
    if not base.traffic.jobs:
        raise AnalysisError("interference_report needs a multi_job base config")
    seeds = len(res.results_for(base.with_traffic(load=loads[0])))
    rows = []
    for load in loads:
        cfg = base.with_traffic(load=load)
        results = res.results_for(cfg)
        n = len(results)
        total = sum(r.delivered_packets for r in results) / n
        per_seed = [per_job_counts(r) for r in results]
        verdicts = [r.oracle["passed"] for r in results if r.oracle]
        oracle = "-" if not verdicts else ("ok" if all(verdicts) else "FAIL")
        for j in range(len(per_seed[0])):
            injected = sum(p[j]["injected"] for p in per_seed) / n
            delivered = sum(p[j]["delivered"] for p in per_seed) / n
            rows.append(
                [
                    f"{load:.2f}",
                    f"job{j}",
                    per_seed[0][j]["pattern"],
                    injected,
                    delivered,
                    delivered / total if total else 0.0,
                    oracle,
                ]
            )
    return format_table(
        ["load", "job", "pattern", "injected", "delivered", "share", "oracle"],
        rows,
        title=(
            f"Multi-job interference — {base.routing}, "
            f"{len(base.traffic.jobs)} jobs, seeds={seeds}"
        ),
        ndigits=1,
    )
