"""The paper's artifact catalogue: every figure and table as plan + renderer.

Each :class:`Artifact` lists the cells it needs (``plan``), reads its
data out of an executed :class:`repro.exec.runner.PlanResult` (``read``)
and renders that data as the text of ``<name>.txt`` (``render``).
:func:`paper_plan` merges the plans of every artifact into one, so a
cell that several artifacts read runs once (Tables II/III and Figures
4/6 read the same ADVc @ 0.4 points, which Figures 2c/5c contain too),
and :func:`render_paper` renders every artifact from that one result.
``repro paper OUT_DIR`` runs the merged plan through one ``Runner`` and
writes the files; ``benchmarks/results/`` is its committed output.

Scale: the paper's Fig. 1 system (h=2, 72 nodes) at 800 warm-up + 1,500
measured cycles, one seed per point; the Section III bound at h=3 runs
the medium preset at 700 + 1,200 cycles.  The paper's own numbers are
h=6 (:mod:`repro.analysis.paper_reference`), so the artifacts show the
paper's shapes, not its values.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.analysis.figures import (
    advc_plan,
    figure2_curves,
    figure2_plan,
    figure3_breakdown,
    figure3_plan,
    figure4_injections,
    format_figure2,
    format_figure3,
    format_figure4,
)
from repro.analysis.interference import interference_report
from repro.analysis.paper_reference import min_throughput_bound
from repro.analysis.tables import (
    TABLE_MECHANISMS,
    fairness_table,
    format_fairness_table,
)
from repro.config import SimulationConfig, medium_config, small_config
from repro.exec.aggregate import average_injections
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import PlanResult
from repro.traffic import get_scenario
from repro.utils.tables import format_table

__all__ = [
    "Artifact",
    "BASE",
    "BURSTY_LOADS",
    "MULTI_JOB_LOADS",
    "SCENARIO_MECHANISMS",
    "artifacts",
    "paper_plan",
    "render_paper",
    "scenario_base",
]

#: seeds averaged per point (the paper averages 3)
SEEDS = 1
#: the base config of every h=2 artifact (transit priority on)
BASE = small_config(warmup_cycles=800, measure_cycles=1500)
#: the mechanisms the two scenario artifacts compare
SCENARIO_MECHANISMS = ("min", "in-trns-mm")
MULTI_JOB_LOADS = (0.15, 0.3)
BURSTY_LOADS = (0.2, 0.4)


@dataclass(frozen=True)
class Artifact:
    """One rendered file: the cells it needs, its reader, its renderer."""

    plan: ExperimentPlan
    read: Callable[[PlanResult], Any]
    render: Callable[[Any], str]


def scenario_base(name: str) -> SimulationConfig:
    """*name*'s traffic on :data:`BASE`, audited by the oracle."""
    return get_scenario(name).apply(BASE.with_(oracle=True))


def _oracle_verdicts(res: PlanResult, plan: ExperimentPlan) -> dict[str, bool]:
    """Oracle verdict (digest -> passed) of each audited cell of *plan*."""
    verdicts = res.oracle_verdicts()
    return {d: verdicts[d] for d in plan.cell_digests() if d in verdicts}


def _points(configs: Iterable[SimulationConfig]) -> ExperimentPlan:
    return ExperimentPlan.merge(ExperimentPlan.point(c, seeds=SEEDS) for c in configs)


def _figure2(base: SimulationConfig, loads: tuple[float, ...], title: str) -> Artifact:
    return Artifact(
        figure2_plan(base, loads, seeds=SEEDS),
        lambda res: figure2_curves(res, base, loads),
        lambda sweeps: format_figure2(sweeps, title=title),
    )


def _figure4(base: SimulationConfig, title: str) -> Artifact:
    return Artifact(
        advc_plan(base, TABLE_MECHANISMS, seeds=SEEDS),
        lambda res: figure4_injections(res, base, mechanisms=TABLE_MECHANISMS),
        lambda inj: format_figure4(inj, title=title),
    )


def _table(base: SimulationConfig) -> Artifact:
    priority = base.router.transit_priority
    return Artifact(
        advc_plan(base, TABLE_MECHANISMS, seeds=SEEDS),
        lambda res: fairness_table(res, base),
        lambda table: format_fairness_table(table, priority=priority),
    )


def _min_bound(cfg: SimulationConfig, measured: str) -> Artifact:
    """Section III: MIN's measured saturation beside its analytic cap."""
    pattern = cfg.traffic.pattern
    bound = min_throughput_bound(cfg.network, pattern)
    return Artifact(
        _points([cfg]),
        lambda res: (bound, res.point(cfg).accepted_load),
        lambda data: format_table(
            ["pattern", "analytic bound", measured],
            [[pattern, *data]],
            title=f"Section III — MIN throughput cap (h={cfg.network.h})",
        ),
    )


def _priority_ablation() -> Artifact:
    """Removing the priority changes MIN/UN throughput only marginally."""
    on = BASE.with_(routing="min").with_traffic(pattern="uniform", load=0.8)
    off = on.with_router(transit_priority=False)
    return Artifact(
        _points([on, off]),
        lambda res: (res.point(on).accepted_load, res.point(off).accepted_load),
        lambda acc: format_table(
            ["priority", "accepted @ 0.8 UN"],
            [["on", acc[0]], ["off", acc[1]]],
            title="Ablation — transit priority, MIN under UN",
        ),
    )


def _threshold_ablation() -> Artifact:
    """In-transit misroute threshold: looser thresholds divert earlier."""
    configs = {
        th: BASE.with_(routing="in-trns-mm", misroute_threshold=th).with_traffic(
            pattern="advc", load=0.4
        )
        for th in (0.25, 0.43, 0.75)
    }

    def read(res: PlanResult) -> list[tuple[float, float, float]]:
        points = {th: res.point(cfg) for th, cfg in configs.items()}
        return [(th, pt.accepted_load, pt.avg_latency) for th, pt in points.items()]

    return Artifact(
        _points(configs.values()),
        read,
        lambda rows: format_table(
            ["threshold", "accepted", "latency"],
            rows,
            title="Ablation — in-transit misroute threshold (ADVc @ 0.4)",
        ),
    )


def _arrangement_ablation() -> Artifact:
    """The ADVc bottleneck exists for a random arrangement too (Section
    III, footnote 1)."""
    configs = {
        arr: BASE.with_(routing="src-crg")
        .with_network(arrangement=arr)
        .with_traffic(pattern="advc", load=0.4)
        for arr in ("palmtree", "random")
    }
    return Artifact(
        _points(configs.values()),
        lambda res: {arr: res.point(cfg) for arr, cfg in configs.items()},
        lambda points: format_table(
            ["arrangement", "accepted", "max/min", "cov"],
            [
                [arr, pt.accepted_load, pt.fairness.max_min_ratio, pt.fairness.cov]
                for arr, pt in points.items()
            ],
            title="Ablation — global link arrangement (Src-CRG, ADVc @ 0.4)",
        ),
    )


def _job_placement_ablation() -> Artifact:
    """Uniform traffic inside a job on h+1 consecutive groups: the ADVc
    pressure of Section III's origin story."""
    cfg = BASE.with_(routing="src-crg").with_traffic(pattern="job", load=0.6)
    a, h = cfg.network.a, cfg.network.h
    return Artifact(
        _points([cfg]),
        lambda res: average_injections(res.results_for(cfg))[:a],
        lambda group0: format_table(
            ["router", "injections"],
            [[f"R{i}", c] for i, c in enumerate(group0)],
            title=(
                f"Ablation — job on {h + 1} consecutive groups "
                "(uniform inside job), group 0 injections"
            ),
            ndigits=1,
        ),
    )


def _multi_job() -> Artifact:
    base = scenario_base("multi_job_interference")
    plan = figure2_plan(
        base, MULTI_JOB_LOADS, mechanisms=SCENARIO_MECHANISMS, seeds=SEEDS
    )

    def read(res: PlanResult) -> tuple[list[str], dict[str, bool]]:
        reports = [
            interference_report(res, base.with_(routing=mech), MULTI_JOB_LOADS)
            for mech in SCENARIO_MECHANISMS
        ]
        return reports, _oracle_verdicts(res, plan)

    def render(data: tuple[list[str], dict[str, bool]]) -> str:
        reports, verdicts = data
        green = sum(verdicts.values())
        return "\n\n".join([*reports, f"oracle: {green}/{len(verdicts)} cells green"])

    return Artifact(plan, read, render)


def _bursty() -> Artifact:
    base = scenario_base("bursty_adv")
    plan = figure2_plan(base, BURSTY_LOADS, mechanisms=SCENARIO_MECHANISMS, seeds=SEEDS)
    traffic = base.traffic
    duty = traffic.burst_on / (traffic.burst_on + traffic.burst_off)

    def read(res: PlanResult) -> tuple[dict, dict[str, bool]]:
        sweeps = figure2_curves(res, base, BURSTY_LOADS, mechanisms=SCENARIO_MECHANISMS)
        return sweeps, _oracle_verdicts(res, plan)

    def render(data: tuple[dict, dict[str, bool]]) -> str:
        sweeps, verdicts = data
        lines = [
            f"{mech:12s} offered={pt.offered_load:.3f} "
            f"accepted={pt.accepted_load:.3f} latency={pt.avg_latency:.1f}"
            for mech, sweep in sweeps.items()
            for pt in sweep.points
        ]
        lines.append(f"duty cycle: {duty:.2f}")
        lines.append(f"oracle: {sum(verdicts.values())}/{len(verdicts)} cells green")
        return "\n".join(lines)

    return Artifact(plan, read, render)


@functools.cache
def artifacts() -> dict[str, Artifact]:
    """Every paper artifact by file name (built once; do not mutate)."""
    no_prio = BASE.with_router(transit_priority=False)
    uniform, adv, advc = "uniform", "adversarial", "advc"
    min_h2 = BASE.with_(routing="min")
    min_h3 = medium_config(routing="min", warmup_cycles=700, measure_cycles=1200)
    fig3_loads = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55)
    return {
        "fig2a_uniform_priority": _figure2(
            BASE.with_traffic(pattern=uniform),
            (0.2, 0.4, 0.6, 0.8),
            "Figure 2a (UN, transit priority)",
        ),
        "fig2b_adv1_priority": _figure2(
            BASE.with_traffic(pattern=adv),
            (0.1, 0.25, 0.4, 0.55),
            "Figure 2b (ADV+1, transit priority)",
        ),
        "fig2c_advc_priority": _figure2(
            BASE.with_traffic(pattern=advc),
            (0.1, 0.2, 0.3, 0.4, 0.5),
            "Figure 2c (ADVc, transit priority)",
        ),
        "fig3_latency_breakdown": Artifact(
            figure3_plan(BASE, fig3_loads, seeds=SEEDS),
            lambda res: figure3_breakdown(res, BASE, fig3_loads),
            format_figure3,
        ),
        "fig4_injections_priority": _figure4(
            BASE, "Figure 4 — injections per router (ADVc@0.4, priority)"
        ),
        # Figures 5/6 and Table III: the same experiments without the
        # transit-over-injection priority (coarser load grids).
        "fig5a_uniform_nopriority": _figure2(
            no_prio.with_traffic(pattern=uniform),
            (0.4, 0.8),
            "Figure 5a (UN, no priority)",
        ),
        "fig5b_adv1_nopriority": _figure2(
            no_prio.with_traffic(pattern=adv),
            (0.25, 0.5),
            "Figure 5b (ADV+1, no priority)",
        ),
        "fig5c_advc_nopriority": _figure2(
            no_prio.with_traffic(pattern=advc),
            (0.2, 0.4, 0.5),
            "Figure 5c (ADVc, no priority)",
        ),
        "fig6_injections_nopriority": _figure4(
            no_prio, "Figure 6 — injections per router (ADVc@0.4, no priority)"
        ),
        "table2_fairness_priority": _table(BASE),
        "table3_fairness_nopriority": _table(no_prio),
        "min_bound_adversarial_h2": _min_bound(
            min_h2.with_traffic(pattern=adv, load=0.9), "measured (offered 0.9)"
        ),
        "min_bound_advc_h2": _min_bound(
            min_h2.with_traffic(pattern=advc, load=0.9), "measured (offered 0.9)"
        ),
        "min_bound_advc_h3": _min_bound(
            min_h3.with_traffic(pattern=advc, load=0.9), "measured"
        ),
        "ablation_priority_uniform": _priority_ablation(),
        "ablation_threshold": _threshold_ablation(),
        "ablation_arrangement": _arrangement_ablation(),
        "ablation_job_placement": _job_placement_ablation(),
        "multi_job_interference": _multi_job(),
        "bursty_adv": _bursty(),
    }


def paper_plan() -> ExperimentPlan:
    """Every artifact's cells as one plan (shared cells dedupe by digest)."""
    return ExperimentPlan.merge(art.plan for art in artifacts().values())


def render_paper(res: PlanResult) -> dict[str, str]:
    """File name -> rendered text of every artifact, read from *res*."""
    return {name: art.render(art.read(res)) for name, art in artifacts().items()}
