"""Generators for the paper's figure data (2/3/4 and their 5/6 twins).

Each figure is a plan plus a reader: ``figure2_plan`` / ``figure3_plan``
/ ``advc_plan`` build the :class:`repro.exec.plan.ExperimentPlan` of the
cells a figure needs, and ``figure2_curves`` / ``figure3_breakdown`` /
``figure4_injections`` read the figure's data out of an executed
:class:`repro.exec.runner.PlanResult`.  They run nothing, so any number
of figures can share one merged plan and one :class:`Runner` call (see
:mod:`repro.analysis.paper`).  Each ``format_figureN`` renders the data
as text (numeric series plus an ASCII plot).  Figures 5 and 6 are
Figures 2 and 4 with ``transit_priority=False``, so the same functions
serve both (the caller flips the config).

:func:`figure2_sweeps` is the one-call form of Figure 2: plan, one
``Runner`` (``jobs=N`` parallelises across mechanisms, loads and seeds;
``store`` caches results on disk; ``offline=True`` renders purely from
the store and fails instead of simulating if any cell is missing), then
the reader.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.config import SimulationConfig
from repro.exec.aggregate import LoadSweepResult, average_injections
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import PlanResult, RetryPolicy, Runner
from repro.exec.store import ResultStore
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_table

__all__ = [
    "advc_plan",
    "advc_point",
    "figure2_curves",
    "figure2_plan",
    "figure2_sweeps",
    "figure3_breakdown",
    "figure3_plan",
    "figure4_injections",
    "format_figure2",
    "format_figure3",
    "format_figure4",
]

#: the mechanisms plotted in Figures 2/5, in legend order
FIGURE2_MECHANISMS = (
    "min",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-rrg",
    "in-trns-crg",
    "in-trns-mm",
)


def figure2_plan(
    base: SimulationConfig,
    loads: Sequence[float],
    *,
    mechanisms: Sequence[str] = FIGURE2_MECHANISMS,
    seeds: int = 1,
) -> ExperimentPlan:
    """The cells of one Figure-2 panel: a load sweep per mechanism."""
    return ExperimentPlan.merge(
        ExperimentPlan.sweep(base.with_(routing=mech), loads, seeds=seeds)
        for mech in mechanisms
    )


def figure2_curves(
    res: PlanResult,
    base: SimulationConfig,
    loads: Sequence[float],
    *,
    mechanisms: Sequence[str] = FIGURE2_MECHANISMS,
) -> dict[str, LoadSweepResult]:
    """One latency/throughput curve per mechanism, read from *res*."""
    return {mech: res.sweep(base.with_(routing=mech), loads) for mech in mechanisms}


def figure2_sweeps(
    base: SimulationConfig,
    loads: Sequence[float],
    *,
    mechanisms: Sequence[str] = FIGURE2_MECHANISMS,
    seeds: int = 1,
    jobs: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    offline: bool = False,
    retry: RetryPolicy | None = None,
) -> dict[str, LoadSweepResult]:
    """One latency/throughput curve per mechanism for one traffic pattern.

    ``base`` carries the pattern and priority setting; pass
    ``base.with_router(transit_priority=False)`` for Figure 5.
    """
    plan = figure2_plan(base, loads, mechanisms=mechanisms, seeds=seeds)
    res = Runner(jobs=jobs, store=store, offline=offline, retry=retry).run(plan)
    res.raise_for_failures()
    return figure2_curves(res, base, loads, mechanisms=mechanisms)


def format_figure2(sweeps: dict[str, LoadSweepResult], *, title: str) -> str:
    """Render a Figure-2 panel pair (latency + throughput) as text."""
    lat_rows = []
    thr_rows = []
    for mech, sweep in sweeps.items():
        for pt in sweep.points:
            lat_rows.append([mech, f"{pt.offered_load:.2f}", pt.avg_latency])
            thr_rows.append([mech, f"{pt.offered_load:.2f}", pt.accepted_load])
    parts = [
        format_table(
            ["mechanism", "offered", "latency(cyc)"],
            lat_rows,
            title=f"{title} — average packet latency",
        ),
        "",
        format_table(
            ["mechanism", "offered", "accepted"],
            thr_rows,
            title=f"{title} — accepted load",
        ),
        "",
        ascii_plot(
            {m: s.latency_series() for m, s in sweeps.items()},
            title=f"{title}: latency vs offered load",
            xlabel="offered load (phits/node/cycle)",
        ),
        "",
        ascii_plot(
            {m: s.throughput_series() for m, s in sweeps.items()},
            title=f"{title}: accepted vs offered load",
            xlabel="offered load (phits/node/cycle)",
        ),
    ]
    return "\n".join(parts)


def _figure3_config(base: SimulationConfig) -> SimulationConfig:
    return base.with_(routing="in-trns-mm").with_traffic(pattern="advc")


def figure3_plan(
    base: SimulationConfig, loads: Sequence[float], *, seeds: int = 1
) -> ExperimentPlan:
    """The cells of Figure 3: an in-transit-MM load sweep under ADVc."""
    return ExperimentPlan.sweep(_figure3_config(base), loads, seeds=seeds)


def figure3_breakdown(
    res: PlanResult, base: SimulationConfig, loads: Sequence[float]
) -> list[tuple[float, dict[str, float]]]:
    """Latency components vs injection rate for in-transit-MM under ADVc.

    Keyed by the *measured* offered load of each point of *loads*.
    """
    cfg = _figure3_config(base)
    out = []
    for load in loads:
        pt = res.point(cfg.with_traffic(load=load))
        out.append((pt.offered_load, dict(pt.latency_breakdown)))
    return out


def format_figure3(breakdown: list[tuple[float, dict[str, float]]]) -> str:
    """Render the Figure-3 stacked components as a table + plot."""
    comp_order = ["base", "misroute", "local", "global", "injection"]
    rows = [
        [f"{load:.2f}"] + [comps[c] for c in comp_order] + [sum(comps.values())]
        for load, comps in breakdown
    ]
    table = format_table(
        ["load", "base", "misroute", "cong-local", "cong-global", "inj-queue", "total"],
        rows,
        title="Figure 3 — latency breakdown, In-Transit-MM under ADVc",
    )
    series = {c: [(load, comps[c]) for load, comps in breakdown] for c in comp_order}
    return table + "\n\n" + ascii_plot(
        series,
        title="Figure 3: latency components vs injection rate",
        xlabel="offered load (phits/node/cycle)",
    )


def advc_point(base: SimulationConfig, mech: str, load: float) -> SimulationConfig:
    """The ADVc point of *mech* at *load* (Figures 4/6, Tables II/III)."""
    return base.with_(routing=mech).with_traffic(pattern="advc", load=load)


def advc_plan(
    base: SimulationConfig,
    mechanisms: Sequence[str],
    *,
    load: float = 0.4,
    seeds: int = 1,
) -> ExperimentPlan:
    """The cells of Figures 4/6 and Tables II/III: one ADVc point per
    mechanism (the figure and the table of one priority setting read the
    same cells)."""
    return ExperimentPlan.merge(
        ExperimentPlan.point(advc_point(base, mech, load), seeds=seeds)
        for mech in mechanisms
    )


def figure4_injections(
    res: PlanResult,
    base: SimulationConfig,
    *,
    mechanisms: Sequence[str] = FIGURE2_MECHANISMS[1:],
    load: float = 0.4,
    group: int = 0,
) -> dict[str, list[float]]:
    """Injected packets per router of one group under ADVc at *load*.

    Returns mechanism -> per-router (R0..R{a-1}) injection counts,
    averaged over the seeds in *res*.  For Figure 6, pass a ``base``
    with ``transit_priority=False``.
    """
    a = base.network.a
    out: dict[str, list[float]] = {}
    for mech in mechanisms:
        per_router = average_injections(res.results_for(advc_point(base, mech, load)))
        out[mech] = per_router[group * a : (group + 1) * a]
    return out


def format_figure4(injections: dict[str, list[float]], *, title: str) -> str:
    """Render the per-router injection bars as a table."""
    a = len(next(iter(injections.values())))
    headers = ["mechanism"] + [f"R{i}" for i in range(a)]
    rows = [[mech] + list(counts) for mech, counts in injections.items()]
    note = (
        f"(R{a-1} is the ADVc bottleneck router under the palmtree "
        "arrangement; R0 receives the minimal traffic from other groups)"
    )
    return format_table(headers, rows, title=title, ndigits=1) + "\n" + note
