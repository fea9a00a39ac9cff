"""The paper's figures and tables: the shapes they must show, and the
committed renderings in ``benchmarks/results/``.

One module-scoped run executes the merged plan of every artifact
(:func:`repro.analysis.paper.paper_plan`) into a store; each test reads
its artifact's data from that result and asserts the qualitative shape
the paper reports (its absolute values are h=6 numbers, see
:mod:`repro.analysis.paper_reference`).  The last test renders the
catalogue with ``repro paper`` from the same store and compares it with
the committed files.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.interference import per_job_counts
from repro.analysis.paper import (
    BASE,
    BURSTY_LOADS,
    MULTI_JOB_LOADS,
    artifacts,
    paper_plan,
    scenario_base,
)
from repro.analysis.paper_reference import min_throughput_bound
from repro.cli import main
from repro.exec import Runner

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"
REGENERATE = "PYTHONPATH=src python -m repro.cli paper benchmarks/results"


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """(store directory, PlanResult) of the merged plan, run once."""
    store = tmp_path_factory.mktemp("paper-cells")
    res = Runner(store=store).run(paper_plan())
    res.raise_for_failures()
    return store, res


@pytest.fixture(scope="module")
def read(paper_run):
    """The data artifact *name* renders, read from the shared result."""
    _store, res = paper_run
    return lambda name: artifacts()[name].read(res)


# -- Figure 2: latency & throughput, transit priority ON ---------------------
def test_fig2a_uniform(read):
    sweeps = read("fig2a_uniform_priority")
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


def test_fig2b_adv1(read):
    sweeps = read("fig2b_adv1_priority")
    bound = min_throughput_bound(BASE.network, "adversarial")
    # MIN is capped at the analytic bound...
    assert sweeps["min"].saturation_throughput() <= bound * 1.15
    # ...and non-minimal mechanisms beat it clearly.
    for mech in ("obl-crg", "in-trns-mm", "in-trns-rrg"):
        assert sweeps[mech].saturation_throughput() > bound * 2.0, mech


def test_fig2c_advc(read):
    sweeps = read("fig2c_advc_priority")
    net = BASE.network
    bound = min_throughput_bound(net, "advc")
    # MIN is capped at h/(a*p), a milder cap than ADV+1 (Section III).
    assert sweeps["min"].saturation_throughput() <= bound * 1.15
    assert min_throughput_bound(net, "advc") > min_throughput_bound(net, "adversarial")
    # In-transit adaptive reaches the best throughput of all mechanisms.
    best_intransit = max(
        sweeps[m].saturation_throughput() for m in ("in-trns-rrg", "in-trns-mm")
    )
    for mech in ("min", "src-rrg", "src-crg"):
        assert best_intransit >= sweeps[mech].saturation_throughput(), mech


# -- Figure 3: latency breakdown, In-Transit-MM under ADVc -------------------
def test_fig3_breakdown(read):
    breakdown = read("fig3_latency_breakdown")
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


# -- Figure 4: injections per router, ADVc @ 0.4, priority ON ----------------
def test_fig4_injections(read):
    inj = read("fig4_injections_priority")
    bottleneck = BASE.network.a - 1

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


# -- Figure 5: Figure 2 without the priority ---------------------------------
def test_fig5a_uniform(read):
    sweeps = read("fig5a_uniform_nopriority")
    for mech, sweep in sweeps.items():
        floor = 0.38 if mech.startswith("obl") else 0.5
        assert sweep.saturation_throughput() > floor, mech


def test_fig5b_adv1(read):
    sweeps = read("fig5b_adv1_nopriority")
    net = BASE.network
    cap = 1.0 / (net.a * net.p)
    for mech in ("obl-crg", "in-trns-mm"):
        assert sweeps[mech].saturation_throughput() > cap * 2, mech


def test_fig5c_advc(read):
    sweeps = read("fig5c_advc_nopriority")
    best_intransit = max(
        sweeps[m].saturation_throughput() for m in ("in-trns-rrg", "in-trns-mm")
    )
    for mech in ("min", "src-rrg", "src-crg"):
        assert best_intransit >= sweeps[mech].saturation_throughput(), mech


# -- Figure 6: Figure 4 without the priority ---------------------------------
def test_fig6_injections(read):
    inj = read("fig6_injections_nopriority")
    bottleneck = BASE.network.a - 1

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


# -- Tables II and III: fairness, ADVc @ 0.4 ---------------------------------
def test_table2(read):
    table = read("table2_fairness_priority")

    # Oblivious rows: fair.
    for mech in ("obl-rrg", "obl-crg"):
        assert table[mech].max_min_ratio < 2.0, mech
        assert table[mech].cov < 0.15, mech

    # Source-adaptive rows: less fair than oblivious.
    assert table["src-crg"].cov > table["obl-crg"].cov
    assert table["src-rrg"].cov > table["obl-rrg"].cov

    # The in-transit CRG row shows the worst starvation of its family.
    assert table["in-trns-crg"].min_injected <= table["in-trns-rrg"].min_injected * 1.1
    # Adaptive unfairness exceeds oblivious unfairness across the board.
    worst_obl = max(table["obl-rrg"].max_min_ratio, table["obl-crg"].max_min_ratio)
    assert table["in-trns-crg"].max_min_ratio > worst_obl
    assert table["src-crg"].max_min_ratio > worst_obl


def test_table3(read):
    with_prio = read("table2_fairness_priority")
    without = read("table3_fairness_nopriority")

    # In-transit fairness improves when the priority is removed.
    for mech in ("in-trns-rrg", "in-trns-crg", "in-trns-mm"):
        assert without[mech].max_min_ratio <= with_prio[mech].max_min_ratio, mech
        assert without[mech].min_injected >= with_prio[mech].min_injected, mech

    # The three in-transit policies improve to near-identical levels
    # ("an identical improvement for all of them").
    ratios = [
        without[m].max_min_ratio for m in ("in-trns-rrg", "in-trns-crg", "in-trns-mm")
    ]
    assert max(ratios) / min(ratios) < 1.6, ratios

    # Still not as fair as oblivious.
    worst_obl = max(without["obl-rrg"].max_min_ratio, without["obl-crg"].max_min_ratio)
    assert min(ratios) >= worst_obl * 0.8

    # Src-CRG flips pathology: the priority-starved bottleneck recovers
    # (and, per Figure 6, over-injects — asserted in test_fig6_injections).
    # Network-wide CoV at paper scale worsens (0.10 -> 0.56); at this
    # reduced scale the robust signature is the Min-inj recovery.
    assert without["src-crg"].min_injected > with_prio["src-crg"].min_injected


# -- Section III: the MIN throughput bound -----------------------------------
@pytest.mark.parametrize("pattern", ["adversarial", "advc"])
def test_min_bound_small(read, pattern):
    bound, accepted = read(f"min_bound_{pattern}_h2")
    assert bound == min_throughput_bound(BASE.network, pattern)
    # Saturates at the bound: within 15% below, never above.
    assert accepted <= bound * 1.1
    assert accepted >= bound * 0.7


def test_min_bound_medium_advc(read):
    bound, accepted = read("min_bound_advc_h3")
    assert accepted <= bound * 1.1
    assert accepted >= bound * 0.65


# -- Ablations of the knobs the paper holds fixed ----------------------------
def test_priority_ablation_uniform_min(read):
    """Removing the priority changes MIN/UN throughput only marginally."""
    with_prio, without = read("ablation_priority_uniform")
    assert abs(with_prio - without) / with_prio < 0.08


def test_threshold_ablation(read):
    """Misroute threshold sweep: looser thresholds divert earlier."""
    accepted = {th: acc for th, acc, _lat in read("ablation_threshold")}
    # All thresholds sustain non-trivial throughput above the MIN cap
    # at this load (0.25 = h/(a*p)); the mechanism is robust to the knob.
    for th, acc in accepted.items():
        assert acc > 0.26, (th, acc)


def test_arrangement_ablation(read):
    """The ADVc bottleneck exists for a random arrangement too."""
    # Unfairness (max/min well above 1) shows up under both arrangements.
    for arr, pt in read("ablation_arrangement").items():
        assert pt.fairness.max_min_ratio > 1.5, (arr, pt.fairness)


def test_job_placement_reproduces_advc(read):
    """Uniform traffic inside an (h+1)-group job depresses the bottleneck."""
    group0 = read("ablation_job_placement")
    a = BASE.network.a
    # The job spans groups 0..h; group 0's traffic to groups 1..h exits
    # through the bottleneck router a-1, which should show the lowest or
    # near-lowest injections of the group's *loaded* routers.
    assert min(group0) > 0  # everyone in the job injects something
    assert group0[a - 1] <= sorted(group0)[1] * 1.3


# -- Scenario profiles, audited by the oracle --------------------------------
def test_multi_job_interference(paper_run, read):
    _store, res = paper_run
    _reports, verdicts = read("multi_job_interference")
    assert verdicts and all(verdicts.values()), "oracle verdicts not green"

    # Qualitative shape at the highest load under minimal routing: the
    # adversarial job's internal ADV bottleneck (one global link per
    # group) caps its injection far below the uniform job's, beyond
    # what its 0.8 load scale and late start alone would explain.
    base = scenario_base("multi_job_interference").with_(routing="min")
    top = base.with_traffic(load=MULTI_JOB_LOADS[-1])
    for r in res.results_for(top):
        uniform, adversarial = per_job_counts(r)
        assert uniform["delivered"] > 0 and adversarial["delivered"] > 0
        assert (
            adversarial["injected"] < 0.7 * uniform["injected"]
        ), "the adversarial job should saturate below the uniform one"
    # The uniform job keeps scaling with offered load despite the
    # neighbour: its injections grow substantially from low to top load.
    low = base.with_traffic(load=MULTI_JOB_LOADS[0])
    for r_low, r_top in zip(res.results_for(low), res.results_for(top)):
        uni_low = per_job_counts(r_low)[0]["injected"]
        uni_top = per_job_counts(r_top)[0]["injected"]
        assert uni_top > 1.5 * uni_low


def test_bursty_adv(read):
    sweeps, verdicts = read("bursty_adv")
    assert verdicts and all(verdicts.values()), "oracle verdicts not green"

    traffic = scenario_base("bursty_adv").traffic
    duty = traffic.burst_on / (traffic.burst_on + traffic.burst_off)
    # Burst gating thins the measured offered load to ~duty * load.
    for i, load in enumerate(BURSTY_LOADS):
        for mech in ("min", "in-trns-mm"):
            pt = sweeps[mech].points[i]
            assert 0.5 * duty * load < pt.offered_load < 1.5 * duty * load
    # Under the heaviest bursts, adaptive in-transit routing accepts at
    # least as much as minimal (the ADV bottleneck bites even in bursts).
    adaptive = sweeps["in-trns-mm"].points[-1]
    minimal = sweeps["min"].points[-1]
    assert adaptive.accepted_load >= minimal.accepted_load * 0.95


# -- The committed renderings ------------------------------------------------
def test_committed_artifacts_are_current(paper_run, tmp_path, capsys):
    """``repro paper`` over the primed store renders exactly the files
    committed under benchmarks/results/."""
    store, _res = paper_run
    out = tmp_path / "results"
    assert main(["paper", str(out), "--cache", str(store), "--jobs", "1"]) == 0
    assert "executed 0 cells" in capsys.readouterr().out
    rendered = {p.name: p.read_bytes() for p in out.glob("*.txt")}
    committed = {p.name: p.read_bytes() for p in RESULTS_DIR.glob("*.txt")}
    assert len(rendered) == len(artifacts())
    stale = sorted(
        name
        for name in rendered.keys() | committed.keys()
        if rendered.get(name) != committed.get(name)
    )
    assert not stale, (
        f"benchmarks/results/ is stale ({', '.join(stale)}); regenerate it "
        f"with `{REGENERATE}`"
    )
