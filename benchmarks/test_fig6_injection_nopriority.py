"""Figure 6 — injections per router, ADVc @ 0.4, priority OFF.

Shape assertions from the paper:

* oblivious routing stays flat (as in Figure 4);
* in-transit adaptive routing *recovers* substantially: the bottleneck
  router's injections rise far above their Figure-4 level;
* Src-CRG flips pathology: without the priority the bottleneck router —
  which senses its own links' saturation instantly — injects *more* than
  its group peers (the paper reports >2x).
"""

from __future__ import annotations

from bench_common import fairness_config, seeds, write_result
from repro.analysis.figures import figure4_injections, format_figure4
from repro.exec import default_jobs

MECHS = (
    "obl-rrg",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-rrg",
    "in-trns-crg",
    "in-trns-mm",
)


def test_fig6_injections(benchmark):
    base = fairness_config().with_router(transit_priority=False)
    inj = benchmark.pedantic(
        figure4_injections,
        args=(base,),
        kwargs={
            "mechanisms": MECHS,
            "load": 0.4,
            "seeds": seeds(),
            "jobs": default_jobs(),
        },
        rounds=1,
        iterations=1,
    )
    write_result(
        "fig6_injections_nopriority",
        format_figure4(
            inj,
            title="Figure 6 — injections per router (ADVc@0.4, no priority)",
        ),
    )
    a = base.network.a
    bottleneck = a - 1

    # Oblivious: still flat.
    for mech in ("obl-rrg", "obl-crg"):
        counts = inj[mech]
        assert max(counts) / max(min(counts), 1) < 1.6, (mech, counts)

    # Src-CRG: the bottleneck router injects more than the group mean.
    counts = inj["src-crg"]
    others = [c for i, c in enumerate(counts) if i != bottleneck]
    assert counts[bottleneck] > sum(others) / len(others), counts

    # In-transit mechanisms: the bottleneck is no longer starved -
    # it reaches at least half of its group's mean injections.
    for mech in ("in-trns-rrg", "in-trns-crg", "in-trns-mm"):
        counts = inj[mech]
        others = [c for i, c in enumerate(counts) if i != bottleneck]
        assert counts[bottleneck] > 0.5 * (sum(others) / len(others)), (
            mech,
            counts,
        )
