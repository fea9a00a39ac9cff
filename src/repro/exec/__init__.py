"""Experiment execution subsystem: declarative plans, parallel running,
result caching, and aggregation.

This is the orchestration seam between the pure simulator
(:func:`repro.core.simulation.run_simulation`) and every consumer that
needs many simulations — the CLI, ``repro paper`` and its figure/table
readers, the shards and the sweep daemon.  The flow is::

    plan   = ExperimentPlan.grid(base, routings=..., patterns=..., loads=...)
    result = Runner(jobs=8, store=".repro-cache").run(plan)
    sweep  = result.sweep(base.with_(routing="min"), loads)

Cells are deduplicated by a stable config digest, cached on disk as JSON
(:class:`ResultStore`), and computed in process or over a process pool
by :class:`~repro.exec.executor.CellExecutor`, the one retry/timeout
contract of the Runner and the sweep daemon; per-cell seeds are
pre-derived so parallel and serial execution are bit-identical.
"""

from repro.exec.aggregate import (
    LoadSweepResult,
    SweepPoint,
    average_injections,
    average_results,
)
from repro.exec.executor import (
    CellFailure,
    RetryPolicy,
    describe_error,
    is_retryable,
    run_cell,
)
from repro.exec.faults import FaultInjector, FaultSpec, pick_cells
from repro.exec.leases import LeaseCoordinator, LeaseRecord
from repro.exec.plan import Cell, ExperimentPlan, Shard
from repro.exec.runner import PlanResult, Runner, default_jobs
from repro.exec.serialize import config_digest, plan_digest
from repro.exec.store import MergeReport, ResultStore

__all__ = [
    "Cell",
    "CellFailure",
    "ExperimentPlan",
    "FaultInjector",
    "FaultSpec",
    "LeaseCoordinator",
    "LeaseRecord",
    "LoadSweepResult",
    "MergeReport",
    "PlanResult",
    "ResultStore",
    "RetryPolicy",
    "Runner",
    "Shard",
    "SweepPoint",
    "average_injections",
    "average_results",
    "config_digest",
    "default_jobs",
    "describe_error",
    "is_retryable",
    "pick_cells",
    "plan_digest",
    "run_cell",
]
