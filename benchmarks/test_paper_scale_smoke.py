"""Smoke benchmark at the paper's full scale (h=6, 5,256 nodes).

Skipped under the quick profile; ``REPRO_BENCH_PROFILE=full`` enables
it.  On the compiled backend this point (500 + 800 cycles) takes ~3 s
and an h=6 cell of the paper's tables (1,000 + 4,000 cycles) 10–15 s;
the pure-Python backend needs minutes.  It checks that the full-size
system builds, runs, and shows the ADVc bottleneck signature.
"""

from __future__ import annotations

import pytest

from bench_common import PROFILE, write_result
from repro.config import paper_config
from repro.core.simulation import run_simulation
from repro.utils.tables import format_table


@pytest.mark.skipif(
    PROFILE != "full",
    reason="paper-scale smoke runs only with REPRO_BENCH_PROFILE=full",
)
def test_paper_scale_advc(benchmark):
    cfg = paper_config(
        routing="in-trns-mm", warmup_cycles=500, measure_cycles=800
    ).with_traffic(pattern="advc", load=0.4)
    res = benchmark.pedantic(run_simulation, args=(cfg,), rounds=1, iterations=1)
    write_result(
        "paper_scale_smoke",
        format_table(
            ["metric", "value"],
            [
                ["nodes", cfg.network.num_nodes],
                ["accepted", res.accepted_load],
                ["latency", res.avg_latency],
                ["max/min", res.fairness.max_min_ratio],
                ["min inj", res.fairness.min_injected],
            ],
            title="Paper-scale smoke (h=6, ADVc @ 0.4, In-Transit-MM)",
        ),
    )
    assert res.accepted_load > 0.15
    assert res.delivered_packets > 0
