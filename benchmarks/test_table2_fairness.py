"""Table II — fairness metrics (Min inj, Max/Min, CoV), ADVc @ 0.4,
transit priority ON.

Shape assertions (the paper's ordering, not its absolute values —
those are h=6 numbers, see :mod:`repro.analysis.paper_reference`):

* oblivious mechanisms are nearly perfectly fair (Max/Min close to 1,
  tiny CoV);
* source-adaptive mechanisms are significantly less fair than oblivious;
* in-transit + CRG is the most starved row (lowest Min inj of the
  in-transit family, echoing the paper's 31.67).
"""

from __future__ import annotations

from bench_common import fairness_config, seeds, write_result
from repro.analysis.tables import fairness_table, format_fairness_table
from repro.exec import default_jobs


def test_table2(benchmark):
    base = fairness_config()  # transit_priority defaults to True
    table = benchmark.pedantic(
        fairness_table,
        args=(base,),
        kwargs={"load": 0.4, "seeds": seeds(), "jobs": default_jobs()},
        rounds=1,
        iterations=1,
    )
    write_result(
        "table2_fairness_priority",
        format_fairness_table(table, priority=True),
    )

    # Oblivious rows: fair.
    for mech in ("obl-rrg", "obl-crg"):
        assert table[mech].max_min_ratio < 2.0, mech
        assert table[mech].cov < 0.15, mech

    # Source-adaptive rows: less fair than oblivious.
    assert table["src-crg"].cov > table["obl-crg"].cov
    assert table["src-rrg"].cov > table["obl-rrg"].cov

    # The in-transit CRG row shows the worst starvation of its family.
    assert (
        table["in-trns-crg"].min_injected
        <= table["in-trns-rrg"].min_injected * 1.1
    )
    # Adaptive unfairness exceeds oblivious unfairness across the board.
    worst_obl = max(table["obl-rrg"].max_min_ratio, table["obl-crg"].max_min_ratio)
    assert table["in-trns-crg"].max_min_ratio > worst_obl
    assert table["src-crg"].max_min_ratio > worst_obl
