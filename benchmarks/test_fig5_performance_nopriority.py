"""Figure 5 — latency & throughput under UN / ADV+1 / ADVc, priority OFF.

The twin of Figure 2 with the transit-over-injection priority removed.
Paper observations asserted:

* throughput changes only modestly relative to Figure 2 (the paper
  reports a ~1.2% drop for MIN under UN);
* under ADVc, in-transit adaptive routing still achieves the highest
  throughput of all mechanisms.
"""

from __future__ import annotations

from bench_common import bench_config, loads_for, seeds, write_result
from repro.analysis.figures import figure2_sweeps, format_figure2
from repro.exec import default_jobs

# A reduced load grid keeps the no-priority rerun affordable; the curves
# retain their knees.
_LOADS = {
    "uniform": [0.4, 0.8],
    "adversarial": [0.25, 0.5],
    "advc": [0.2, 0.4, 0.5],
}


def _run_panel(pattern: str):
    base = (
        bench_config()
        .with_traffic(pattern=pattern)
        .with_router(transit_priority=False)
    )
    loads = _LOADS[pattern] if len(loads_for(pattern)) <= 5 else loads_for(pattern)
    return figure2_sweeps(base, loads, seeds=seeds(), jobs=default_jobs())


def test_fig5a_uniform(benchmark):
    sweeps = benchmark.pedantic(_run_panel, args=("uniform",), rounds=1, iterations=1)
    write_result(
        "fig5a_uniform_nopriority",
        format_figure2(sweeps, title="Figure 5a (UN, no priority)"),
    )
    for mech, sweep in sweeps.items():
        floor = 0.38 if mech.startswith("obl") else 0.5
        assert sweep.saturation_throughput() > floor, mech


def test_fig5b_adv1(benchmark):
    sweeps = benchmark.pedantic(
        _run_panel, args=("adversarial",), rounds=1, iterations=1
    )
    write_result(
        "fig5b_adv1_nopriority",
        format_figure2(sweeps, title="Figure 5b (ADV+1, no priority)"),
    )
    net = bench_config().network
    cap = 1.0 / (net.a * net.p)
    for mech in ("obl-crg", "in-trns-mm"):
        assert sweeps[mech].saturation_throughput() > cap * 2, mech


def test_fig5c_advc(benchmark):
    sweeps = benchmark.pedantic(_run_panel, args=("advc",), rounds=1, iterations=1)
    write_result(
        "fig5c_advc_nopriority",
        format_figure2(sweeps, title="Figure 5c (ADVc, no priority)"),
    )
    best_intransit = max(
        sweeps[m].saturation_throughput()
        for m in ("in-trns-rrg", "in-trns-mm")
    )
    for mech in ("min", "src-rrg", "src-crg"):
        assert best_intransit >= sweeps[mech].saturation_throughput(), mech
