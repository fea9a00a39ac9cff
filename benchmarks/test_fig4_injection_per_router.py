"""Figure 4 — injected packets per router of one group, ADVc @ 0.4,
transit priority ON.

Shape assertions from the paper:

* oblivious non-minimal routing injects a similar amount everywhere
  (no significant unfairness, whatever the misrouting policy);
* adaptive mechanisms depress the bottleneck router (the last router of
  the group under the palmtree arrangement);
* the in-transit + CRG combination starves it most severely.
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


def test_fig4_injections(benchmark):
    base = fairness_config()
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
        "fig4_injections_priority",
        format_figure4(
            inj, title="Figure 4 — injections per router (ADVc@0.4, priority)"
        ),
    )
    a = base.network.a
    bottleneck = a - 1

    # Oblivious: flat profile (max/min across the group below 1.6).
    for mech in ("obl-rrg", "obl-crg"):
        counts = inj[mech]
        assert max(counts) / max(min(counts), 1) < 1.6, (mech, counts)

    # Adaptive with CRG: the bottleneck router is visibly depressed.
    for mech in ("src-crg", "in-trns-crg"):
        counts = inj[mech]
        others = [c for i, c in enumerate(counts) if i != bottleneck]
        assert counts[bottleneck] < 0.7 * (sum(others) / len(others)), (
            mech,
            counts,
        )

    # In-transit CRG starves it hardest among the in-transit policies.
    itc = inj["in-trns-crg"][bottleneck]
    assert itc <= inj["in-trns-rrg"][bottleneck] * 1.05
