"""Table III — fairness metrics, ADVc @ 0.4, priority OFF.

Shape assertions (paper Section V-C):

* in-transit adaptive fairness improves dramatically versus Table II,
  with a near-identical improvement for all three misrouting policies;
* the improvement still does not reach oblivious fairness levels;
* Src-CRG *worsens*: its CoV exceeds its Table-II value (the bottleneck
  router over-injects once the priority stops suppressing it).
"""

from __future__ import annotations

from bench_common import fairness_config, seeds, write_result
from repro.analysis.tables import fairness_table, format_fairness_table
from repro.exec import default_jobs


def test_table3(benchmark):
    base_prio = fairness_config()
    base_noprio = base_prio.with_router(transit_priority=False)

    def run_both():
        with_prio = fairness_table(
            base_prio, load=0.4, seeds=seeds(), jobs=default_jobs()
        )
        without = fairness_table(
            base_noprio, load=0.4, seeds=seeds(), jobs=default_jobs()
        )
        return with_prio, without

    with_prio, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    write_result(
        "table3_fairness_nopriority",
        format_fairness_table(without, priority=False),
    )

    # In-transit fairness improves when the priority is removed.
    for mech in ("in-trns-rrg", "in-trns-crg", "in-trns-mm"):
        assert without[mech].max_min_ratio <= with_prio[mech].max_min_ratio, mech
        assert without[mech].min_injected >= with_prio[mech].min_injected, mech

    # The three in-transit policies improve to near-identical levels
    # ("an identical improvement for all of them").
    ratios = [
        without[m].max_min_ratio
        for m in ("in-trns-rrg", "in-trns-crg", "in-trns-mm")
    ]
    assert max(ratios) / min(ratios) < 1.6, ratios

    # Still not as fair as oblivious.
    worst_obl = max(without["obl-rrg"].max_min_ratio, without["obl-crg"].max_min_ratio)
    assert min(ratios) >= worst_obl * 0.8

    # Src-CRG flips pathology: the priority-starved bottleneck recovers
    # (and, per Figure 6, over-injects — asserted in the fig6 benchmark).
    # Network-wide CoV at paper scale worsens (0.10 -> 0.56); at this
    # reduced scale the robust signature is the Min-inj recovery.
    assert without["src-crg"].min_injected > with_prio["src-crg"].min_injected
