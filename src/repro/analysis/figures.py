"""Generators for the paper's figure data (2/3/4 and their 5/6 twins).

Each ``figureN_*`` function runs the simulations and returns plain data;
each ``format_figureN`` renders that data as text (numeric series plus an
ASCII plot) the way the benchmark harness prints it.  Figures 5 and 6 are
Figures 2 and 4 with ``transit_priority=False``, so the same generators
serve both (the caller flips the config).

All generators build one :class:`repro.exec.plan.ExperimentPlan` covering
every cell of the figure and submit it to a single
:class:`repro.exec.runner.Runner`, so ``jobs=N`` parallelises across
mechanisms, loads and seeds at once; ``store`` enables on-disk result
caching.  ``offline=True`` renders purely from the store — e.g. from a
store merged out of sharded CI runs — and fails instead of simulating
if any cell is missing.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.config import SimulationConfig
from repro.exec.aggregate import LoadSweepResult, average_injections
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import RetryPolicy, Runner
from repro.exec.store import ResultStore
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_table

__all__ = [
    "figure2_sweeps",
    "figure3_breakdown",
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
    plan = ExperimentPlan.merge(
        ExperimentPlan.sweep(base.with_(routing=mech), loads, seeds=seeds)
        for mech in mechanisms
    )
    res = Runner(jobs=jobs, store=store, offline=offline, retry=retry).run(plan)
    res.raise_for_failures()
    return {mech: res.sweep(base.with_(routing=mech), loads) for mech in mechanisms}


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


def figure3_breakdown(
    base: SimulationConfig,
    loads: Sequence[float],
    *,
    seeds: int = 1,
    jobs: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    offline: bool = False,
    retry: RetryPolicy | None = None,
) -> list[tuple[float, dict[str, float]]]:
    """Latency components vs injection rate for in-transit-MM under ADVc."""
    cfg = base.with_(routing="in-trns-mm").with_traffic(pattern="advc")
    plan = ExperimentPlan.sweep(cfg, loads, seeds=seeds)
    res = Runner(jobs=jobs, store=store, offline=offline, retry=retry).run(plan)
    res.raise_for_failures()
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


def figure4_injections(
    base: SimulationConfig,
    *,
    mechanisms: Sequence[str] = FIGURE2_MECHANISMS[1:],
    load: float = 0.4,
    group: int = 0,
    seeds: int = 1,
    jobs: int = 1,
    store: ResultStore | str | os.PathLike | None = None,
    offline: bool = False,
    retry: RetryPolicy | None = None,
) -> dict[str, list[float]]:
    """Injected packets per router of one group under ADVc at *load*.

    Returns mechanism -> per-router (R0..R{a-1}) injection counts.
    For Figure 6, pass a ``base`` with ``transit_priority=False``.
    """
    a = base.network.a

    def point_cfg(mech: str) -> SimulationConfig:
        return base.with_(routing=mech).with_traffic(pattern="advc", load=load)

    plan = ExperimentPlan.merge(
        ExperimentPlan.point(point_cfg(mech), seeds=seeds)
        for mech in mechanisms
    )
    res = Runner(jobs=jobs, store=store, offline=offline, retry=retry).run(plan)
    res.raise_for_failures()
    out: dict[str, list[float]] = {}
    for mech in mechanisms:
        per_router = average_injections(res.results_for(point_cfg(mech)))
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
