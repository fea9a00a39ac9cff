"""Readers for the paper's fairness tables (II and III).

:func:`fairness_table` reads the ADVc @ 0.4 point of every mechanism out
of an executed plan (the cells :func:`repro.analysis.figures.advc_plan`
lists) and returns the three metrics per row;
:func:`format_fairness_table` renders them next to the paper's values so
shape can be eyeballed directly in the rendered artifact.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.figures import advc_point
from repro.analysis.paper_reference import PAPER_TABLE_II, PAPER_TABLE_III
from repro.config import SimulationConfig
from repro.exec.runner import PlanResult
from repro.metrics.fairness import FairnessMetrics
from repro.utils.tables import format_table

__all__ = ["fairness_table", "format_fairness_table", "TABLE_MECHANISMS"]

#: the rows of Tables II/III, in paper order
TABLE_MECHANISMS = (
    "obl-rrg",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-rrg",
    "in-trns-crg",
    "in-trns-mm",
)


def fairness_table(
    res: PlanResult,
    base: SimulationConfig,
    *,
    mechanisms: Sequence[str] = TABLE_MECHANISMS,
    load: float = 0.4,
) -> dict[str, FairnessMetrics]:
    """Seed-averaged fairness metrics of each mechanism's ADVc point.

    ``base.router.transit_priority`` decides whether this is Table II
    (True) or Table III (False).  *res* must hold
    ``advc_plan(base, mechanisms, load=load)``.
    """
    return {
        mech: res.point(advc_point(base, mech, load)).fairness for mech in mechanisms
    }


def format_fairness_table(
    measured: dict[str, FairnessMetrics], *, priority: bool
) -> str:
    """Render measured metrics beside the paper's Table II/III values."""
    ref = PAPER_TABLE_II if priority else PAPER_TABLE_III
    which = "Table II (with transit priority)" if priority else (
        "Table III (without transit priority)"
    )
    rows = []
    for mech, fm in measured.items():
        prow = ref.get(mech)
        rows.append(
            [
                mech,
                fm.min_injected,
                fm.max_min_ratio,
                fm.cov,
                fm.jain,
                prow[0] if prow else "-",
                prow[1] if prow else "-",
                prow[2] if prow else "-",
            ]
        )
    return format_table(
        [
            "mechanism",
            "min-inj",
            "max/min",
            "cov",
            "jain",
            "paper:min",
            "paper:max/min",
            "paper:cov",
        ],
        rows,
        title=f"{which} — ADVc @ 0.4 phits/(node*cycle)",
    )
