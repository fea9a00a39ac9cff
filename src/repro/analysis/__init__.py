"""Reproduction of the paper's figures and tables from simulation results.

Plans list the cells of a figure or table, readers take its data out of
an executed :class:`repro.exec.runner.PlanResult`, and formatters render
it as text; :mod:`repro.analysis.paper` catalogues every artifact and
merges their plans into one (``repro paper OUT_DIR``).
"""

from repro.analysis.paper_reference import (
    PAPER_TABLE_II,
    PAPER_TABLE_III,
    min_throughput_bound,
)
from repro.analysis.figures import (
    advc_plan,
    figure2_curves,
    figure2_plan,
    figure2_sweeps,
    figure3_breakdown,
    figure3_plan,
    figure4_injections,
    format_figure2,
    format_figure3,
    format_figure4,
)
from repro.analysis.interference import (
    interference_report,
    job_router_ids,
    per_job_counts,
)
from repro.analysis.tables import fairness_table, format_fairness_table
from repro.analysis.paper import artifacts, paper_plan, render_paper

__all__ = [
    "PAPER_TABLE_II",
    "PAPER_TABLE_III",
    "advc_plan",
    "artifacts",
    "fairness_table",
    "figure2_curves",
    "figure2_plan",
    "figure2_sweeps",
    "figure3_breakdown",
    "figure3_plan",
    "figure4_injections",
    "format_fairness_table",
    "format_figure2",
    "format_figure3",
    "format_figure4",
    "interference_report",
    "job_router_ids",
    "min_throughput_bound",
    "paper_plan",
    "per_job_counts",
    "render_paper",
]
