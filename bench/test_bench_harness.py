"""Harness unit tests: no simulation, well under two seconds.

The only file under ``bench/`` that pytest collects; it covers the pure
helpers of ``benchlib`` and the naming contract of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import subprocess
import sys

import benchlib

BENCH = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None, op=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op}


def test_tail_percentile_needs_ten_samples_beyond():
    assert benchlib.tail_percentile(list(range(19))) is None
    assert benchlib.tail_percentile(list(range(20)))[0] == 50.0
    assert benchlib.tail_percentile(list(range(39)))[0] == 50.0
    assert benchlib.tail_percentile(list(range(40)))[0] == 75.0
    assert benchlib.tail_percentile(list(range(100)))[0] == 90.0
    assert benchlib.tail_percentile(list(range(199)))[0] == 90.0
    pct, value = benchlib.tail_percentile(list(range(1001)))
    assert (pct, value) == (99.0, 990.0)
    assert benchlib.tail_percentile(list(range(10_000)))[0] == 99.9


def test_percentile_interpolates():
    assert benchlib.percentile([4, 1, 3, 2], 50) == 2.5
    assert benchlib.percentile([1, 2, 3], 0) == 1
    assert benchlib.percentile([1, 2, 3], 100) == 3


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("op", 0.0, 10.0),
        span("construct", 1.0, 3.0, parent=0),
        span("drain", 3.0, 9.0, parent=0),
        span("inner", 4.0, 6.0, parent=2),
    ]
    assert benchlib.self_times(spans) == [2.0, 2.0, 4.0, 2.0]
    # Nested properly, the self times add up to the root's duration.
    assert sum(benchlib.self_times(spans)) == 10.0


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        span("round", 0.0, 10.0),
        span("tenant_a", 1.0, 6.0, parent=0),
        span("tenant_b", 4.0, 8.0, parent=0),  # overlaps tenant_a by 2
        span("late", 9.0, 12.0, parent=0),  # runs past the parent: clipped
    ]
    assert benchlib.self_times(spans)[0] == 10.0 - (7.0 + 1.0)


def test_tracer_records_parents_only_while_enabled():
    tracer = benchlib.Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    tracer.op = 3
    with tracer.span("op"):
        with tracer.span("child"):
            pass
    assert [(s["name"], s["parent"], s["op"]) for s in tracer.spans] == [
        ("op", None, 3),
        ("child", 0, 3),
    ]
    assert tracer.spans[0]["start"] <= tracer.spans[1]["start"]
    assert tracer.spans[1]["end"] <= tracer.spans[0]["end"]
    assert benchlib.span_totals(tracer.spans)["child"].keys() == {3}


def test_fingerprint_ignores_key_order_not_values_or_item_order():
    a = {"load": 0.4, "router": {"vcs": 4, "speedup": 2}, "counts": [1, 2]}
    b = {"counts": [1, 2], "router": {"speedup": 2, "vcs": 4}, "load": 0.4}
    assert benchlib.fingerprint([a]) == benchlib.fingerprint([b])
    assert benchlib.fingerprint([a]) != benchlib.fingerprint([{**a, "load": 0.5}])
    assert benchlib.fingerprint([a, {"x": 1}]) != benchlib.fingerprint([{"x": 1}, a])
    assert benchlib.fingerprint48("f" * 64) == 2**48 - 1


def test_derived_seeds_are_stable_and_distinct():
    assert benchlib.derive_seed(2015, "cell_un_min", 0) == benchlib.derive_seed(
        2015, "cell_un_min", 0
    )
    seeds = {
        benchlib.derive_seed(seed, workload, index)
        for seed in (1, 2015)
        for workload in ("cell_un_min", "cell_advc_mm")
        for index in (0, 1, "warmup")
    }
    assert len(seeds) == 12
    assert all(0 <= s < 2**31 for s in seeds)


def test_agreement_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]
    same = benchlib.agreement(steady, steady[::-1], 0.10)
    assert same["verdict"] == "pass" and same["gap"] == 0.0
    # 30 % apart and each set tight: a real difference, not noise.
    shifted = [v * 1.3 for v in steady]
    assert benchlib.agreement(steady, shifted, 0.10)["verdict"] == "fail"
    assert benchlib.agreement(steady, shifted, 0.50)["verdict"] == "pass"
    # One run a side has no spread to hide behind: the gap alone decides.
    assert benchlib.agreement([100.0], [130.0], 0.10)["verdict"] == "fail"
    assert benchlib.agreement([100.0], [105.0], 0.10)["verdict"] == "pass"
    assert benchlib.agreement([100.0], [105.0], 0.10)["spread"] is None
    # A set noisier than the bound cannot resolve a change of that size.
    noisy = [100.0, 140.0, 80.0, 125.0, 90.0, 131.0]
    assert benchlib.agreement(noisy, steady, 0.10)["verdict"] == "unresolved"
    assert benchlib.agreement(steady, noisy, 0.10)["verdict"] == "unresolved"


def test_two_sets_are_enough_for_an_unresolved_verdict(capsys):
    """``--repeat 2``: one run a side, the spread comes from its ops."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    contract = benchlib.load_contract()
    bound = next(
        m["bound"] for m in contract["end_to_end"] if m["name"] == "op_wall_s_p50"
    )

    def row(walls, failed=0):
        samples = {
            "op_wall_s_p50": walls,
            "cells_per_s": [1 / w for w in walls],
            "events_per_s": [1e6 / w for w in walls],
            "setup_s": [0.5, 0.5, 0.5],
        }
        metrics = {name: benchlib.median(v) for name, v in samples.items()}
        metrics.update(peak_rss_mb=60.0, ops_failed_share=failed / len(walls))
        return {"workload": "w", "metrics": metrics, "info": {"samples": samples}}

    steady = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0]
    noisy = [1.0 + 1.6 * bound * (-1) ** i for i in range(6)]
    assert benchlib.median_spread(noisy) > bound
    assert run.check_agreement([[row(steady)], [row(steady[::-1])]], contract)
    assert "unresolved" not in capsys.readouterr().out
    assert not run.check_agreement([[row(noisy)], [row(steady)]], contract)
    assert "unresolved" in capsys.readouterr().out
    # The sixth metric is compared too, and its bound is absolute.
    assert not run.check_agreement([[row(steady)], [row(steady, failed=1)]], contract)
    out = capsys.readouterr().out
    assert "unresolved" not in out and "fail" in out


def test_metric_samples_pools_ops_and_falls_back_to_the_value():
    rows = [
        {"metrics": {"op_wall_s_p50": 2.0, "peak_rss_mb": 50.0},
         "info": {"samples": {"op_wall_s_p50": [1.0, 2.0, 3.0]}}},
        {"metrics": {"op_wall_s_p50": 5.0, "peak_rss_mb": 52.0}, "info": {}},
    ]
    assert benchlib.metric_samples(rows, "op_wall_s_p50") == [1.0, 2.0, 3.0, 5.0]
    assert benchlib.metric_samples(rows, "peak_rss_mb") == [50.0, 52.0]
    assert benchlib.metric_samples(rows, "setup_s") == []


def test_spread_matches_the_driver_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = benchlib.quartiles(values)
    assert benchlib.spread(values) == (q3 - q1) / q2
    assert benchlib.spread(values[:3]) is None
    # A median of n samples is steadier than one sample, by 1.2533/sqrt(n).
    assert benchlib.median_spread(values) == benchlib.spread(values) * 1.2533 / 10**0.5
    assert benchlib.median_spread(values[:3]) is None


def test_contract_names_are_well_formed_and_listed():
    contract = benchlib.load_contract()
    assert contract["paths"] == ["bench"]
    assert set(contract) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    listed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--list"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    listed_names = [line.split("\t")[1] for line in listed.splitlines()]
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in contract[kind]
    ]
    assert listed_names == names
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    # ops_failed_share rides beside them, with an absolute bound of 0.
    sixth = benchlib.end_to_end_specs(contract)[-1]
    assert sixth["name"] == "ops_failed_share" and sixth["bound"] == 0.0
    assert len(benchlib.end_to_end_specs(contract)) == 6


def test_every_contract_metric_is_produced_somewhere():
    """A metric is a literal in the harness, or ``<span name>_s``."""
    source = "".join(
        (BENCH / name).read_text() for name in ("run.py", "worker.py", "workloads.py")
    )
    contract = benchlib.load_contract()
    for spec in contract["end_to_end"] + contract["per_layer"]:
        name = spec["name"]
        as_span = name.endswith("_s") and f'"{name[:-2]}"' in source
        per_module = name.endswith(".py_self_s") and ".py_self_s" in source
        assert f'"{name}"' in source or as_span or per_module, name
