"""Figure 2 — latency & throughput under UN / ADV+1 / ADVc, transit priority ON.

For each panel the harness regenerates the paper's two sub-plots (average
packet latency vs offered load, accepted vs offered load) for the seven
mechanism/policy combinations of the legend, and asserts the qualitative
shape the paper reports:

* 2a (UN): every mechanism performs well; MIN has the lowest latency.
* 2b (ADV+1): MIN saturates at 1/(a·p); non-minimal mechanisms restore
  throughput; in-transit MM is among the best.
* 2c (ADVc): MIN saturates at h/(a·p); in-transit adaptive achieves the
  highest accepted load.
"""

from __future__ import annotations

from bench_common import bench_config, loads_for, seeds, write_result
from repro.analysis.figures import figure2_sweeps, format_figure2
from repro.analysis.paper_reference import min_throughput_bound
from repro.exec import default_jobs


def _run_panel(pattern: str, **traffic_kw):
    base = bench_config().with_traffic(pattern=pattern, **traffic_kw)
    return figure2_sweeps(base, loads_for(pattern), seeds=seeds(), jobs=default_jobs())


def test_fig2a_uniform(benchmark):
    sweeps = benchmark.pedantic(_run_panel, args=("uniform",), rounds=1, iterations=1)
    write_result(
        "fig2a_uniform_priority",
        format_figure2(sweeps, title="Figure 2a (UN, transit priority)"),
    )
    # Every mechanism reaches a healthy fraction of the offered load
    # range; oblivious Valiant halves UN capacity (its paths are ~2x).
    for mech, sweep in sweeps.items():
        floor = 0.4 if mech.startswith("obl") else 0.55
        assert sweep.saturation_throughput() > floor, mech
    # MIN latency at the lowest load is the reference minimum (series are
    # indexed by position: point 0 = lowest offered load).
    min_lat = sweeps["min"].latency_series()[0][1]
    for mech, sweep in sweeps.items():
        assert sweep.latency_series()[0][1] >= min_lat * 0.95, mech


def test_fig2b_adv1(benchmark):
    sweeps = benchmark.pedantic(
        _run_panel, args=("adversarial",), rounds=1, iterations=1
    )
    write_result(
        "fig2b_adv1_priority",
        format_figure2(sweeps, title="Figure 2b (ADV+1, transit priority)"),
    )
    net = bench_config().network
    bound = min_throughput_bound(net, "adversarial")
    # MIN is capped at the analytic bound...
    assert sweeps["min"].saturation_throughput() <= bound * 1.15
    # ...and non-minimal mechanisms beat it clearly.
    for mech in ("obl-crg", "in-trns-mm", "in-trns-rrg"):
        assert sweeps[mech].saturation_throughput() > bound * 2.0, mech


def test_fig2c_advc(benchmark):
    sweeps = benchmark.pedantic(_run_panel, args=("advc",), rounds=1, iterations=1)
    write_result(
        "fig2c_advc_priority",
        format_figure2(sweeps, title="Figure 2c (ADVc, transit priority)"),
    )
    net = bench_config().network
    bound = min_throughput_bound(net, "advc")
    # MIN is capped at h/(a*p), a milder cap than ADV+1 (Section III).
    assert sweeps["min"].saturation_throughput() <= bound * 1.15
    assert min_throughput_bound(net, "advc") > min_throughput_bound(net, "adversarial")
    # In-transit adaptive reaches the best throughput of all mechanisms.
    best_intransit = max(
        sweeps[m].saturation_throughput()
        for m in ("in-trns-rrg", "in-trns-mm")
    )
    for mech in ("min", "src-rrg", "src-crg"):
        assert best_intransit >= sweeps[mech].saturation_throughput(), mech
