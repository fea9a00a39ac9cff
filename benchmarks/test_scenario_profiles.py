"""Scenario benchmark profiles: multi-job interference and bursty ADV.

Two workload profiles from the scenario catalog join the per-figure
harness, both audited by the simulation oracle on every cell (the
verdicts are asserted green and recorded in the rendered artifacts):

* **multi_job_interference** — a well-behaved uniform job shares the
  machine with a late-starting adversarial neighbour; the artifact
  reports each job's injected/delivered packets per offered load, and
  the assertions pin the qualitative expectation that the adversarial
  job hurts itself far more than the uniform job.
* **bursty_adv** — ADV+1 gated by synchronised on/off bursts; the
  assertions pin burst thinning (offered load ≈ duty cycle × load) and
  that adaptive routing still beats minimal under bursts at high load.
"""

from __future__ import annotations

from bench_common import bench_config, seeds, write_result
from repro.analysis.interference import interference_report, per_job_counts
from repro.exec.plan import ExperimentPlan
from repro.exec.runner import Runner, default_jobs
from repro.traffic import get_scenario

#: load grids of the two profiles (coarse; these are scenario smokes,
#: not figure reproductions).
MULTI_JOB_LOADS = [0.15, 0.3]
BURSTY_LOADS = [0.2, 0.4]


def _scenario_base(name: str):
    return get_scenario(name).apply(bench_config(oracle=True))


def _run_multi_job(store):
    base = _scenario_base("multi_job_interference")
    plan = ExperimentPlan.merge(
        ExperimentPlan.sweep(base.with_(routing=mech), MULTI_JOB_LOADS, seeds=seeds())
        for mech in ("min", "in-trns-mm")
    )
    res = Runner(jobs=default_jobs(), store=store).run(plan)
    return base, res


def test_multi_job_interference(benchmark, tmp_path):
    store = tmp_path / "cells"
    base, res = benchmark.pedantic(
        _run_multi_job, args=(store,), rounds=1, iterations=1
    )
    verdicts = res.oracle_verdicts()
    assert verdicts and all(verdicts.values()), "oracle verdicts not green"

    parts = []
    for mech in ("min", "in-trns-mm"):
        # offline=True: the report renders from the cells the benchmark
        # already computed — nothing may be re-simulated.
        parts.append(
            interference_report(
                base.with_(routing=mech),
                MULTI_JOB_LOADS,
                seeds=seeds(),
                store=store,
                offline=True,
            )
        )
    parts.append(f"oracle: {len(verdicts)}/{len(verdicts)} cells green")
    write_result("multi_job_interference", "\n\n".join(parts))

    # Qualitative shape at the highest load under minimal routing: the
    # adversarial job's internal ADV bottleneck (one global link per
    # group) caps its injection far below the uniform job's, beyond
    # what its 0.8 load scale and late start alone would explain.
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


def _run_bursty():
    base = _scenario_base("bursty_adv")
    plan = ExperimentPlan.merge(
        ExperimentPlan.sweep(base.with_(routing=mech), BURSTY_LOADS, seeds=seeds())
        for mech in ("min", "in-trns-mm")
    )
    res = Runner(jobs=default_jobs()).run(plan)
    return base, res


def test_bursty_adv(benchmark):
    base, res = benchmark.pedantic(_run_bursty, rounds=1, iterations=1)
    verdicts = res.oracle_verdicts()
    assert verdicts and all(verdicts.values()), "oracle verdicts not green"

    lines = []
    duty = base.traffic.burst_on / (base.traffic.burst_on + base.traffic.burst_off)
    for mech in ("min", "in-trns-mm"):
        sweep = res.sweep(base.with_(routing=mech), BURSTY_LOADS)
        for pt in sweep.points:
            lines.append(
                f"{mech:12s} offered={pt.offered_load:.3f} "
                f"accepted={pt.accepted_load:.3f} latency={pt.avg_latency:.1f}"
            )
    lines.append(f"duty cycle: {duty:.2f}")
    lines.append(f"oracle: {len(verdicts)}/{len(verdicts)} cells green")
    write_result("bursty_adv", "\n".join(lines))

    # Burst gating thins the measured offered load to ~duty * load.
    for load in BURSTY_LOADS:
        for mech in ("min", "in-trns-mm"):
            pt = res.point(base.with_(routing=mech).with_traffic(load=load))
            assert 0.5 * duty * load < pt.offered_load < 1.5 * duty * load
    # Under the heaviest bursts, adaptive in-transit routing accepts at
    # least as much as minimal (the ADV bottleneck bites even in bursts).
    top = BURSTY_LOADS[-1]
    adaptive = res.point(base.with_(routing="in-trns-mm").with_traffic(load=top))
    minimal = res.point(base.with_(routing="min").with_traffic(load=top))
    assert adaptive.accepted_load >= minimal.accepted_load * 0.95
