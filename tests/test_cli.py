"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.engine.kernel import resolve_backend


def _fast(extra):
    """Common fast-run arguments appended to every invocation."""
    return extra + ["--warmup", "100", "--measure", "400"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.routing == "min"
        # None means "defaulted": resolved to uniform unless --scenario.
        assert args.pattern is None
        assert args.preset == "small"

    def test_rejects_unknown_routing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--routing", "warp"])

    def test_sweep_requires_loads(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan", "--loads", "0.1"])
        assert args.routings == ["min"]
        assert args.patterns is None  # resolved to uniform unless --scenario
        assert args.jobs is None
        assert args.action == "show"  # a bare `plan` runs nothing

    def test_plan_rejects_unknown_routing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--loads", "0.1", "--routings", "warp"])


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(_fast(["run", "--load", "0.2", "--preset", "tiny"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered=" in out
        assert "latency breakdown" in out

    def test_sweep_prints_table(self, capsys):
        rc = main(
            _fast(
                [
                    "sweep",
                    "--loads",
                    "0.1",
                    "0.3",
                    "--preset",
                    "tiny",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered" in out and "accepted" in out
        assert out.count("\n") >= 4

    def test_fairness_profile(self, capsys):
        rc = main(
            _fast(
                [
                    "fairness",
                    "--pattern",
                    "advc",
                    "--load",
                    "0.3",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "R0" in out and "R3" in out
        assert "max/min=" in out

    def test_sweep_with_jobs_and_cache(self, capsys, tmp_path):
        argv = _fast(
            [
                "sweep",
                "--loads",
                "0.1",
                "0.3",
                "--preset",
                "tiny",
                "--jobs",
                "2",
                "--cache",
                str(tmp_path),
            ]
        )
        assert main(argv) == 0
        first = capsys.readouterr().out
        # Re-run: pure cache hits, identical table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_plan_dry_run(self, capsys):
        rc = main(
            _fast(
                [
                    "plan",
                    "--preset",
                    "tiny",
                    "--routings",
                    "min",
                    "obl-crg",
                    "--loads",
                    "0.1",
                    "0.2",
                    "--seeds",
                    "2",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 cells" in out
        assert "dry run" in out
        assert "obl-crg" in out

    def test_plan_execute(self, capsys):
        rc = main(
            _fast(
                [
                    "plan",
                    "run",
                    "--preset",
                    "tiny",
                    "--routings",
                    "min",
                    "--loads",
                    "0.2",
                    "--jobs",
                    "2",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "executed 1 cells" in out
        assert "min under UN" in out

    def test_plan_dry_run_prints_digest_without_running(self, capsys):
        rc = main(_fast(["plan", "--preset", "tiny", "--loads", "0.1", "0.2"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan digest:" in out
        assert "2 cells" in out
        assert "dry run" in out
        # Nothing executed: no result tables.
        assert "executed" not in out

    def test_plan_show_reports_shard_ownership(self, capsys):
        rc = main(
            _fast(
                [
                    "plan",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.1",
                    "0.2",
                    "--shard",
                    "0/2",
                ]
            )
        )
        assert rc == 0
        assert "shard 0/2: owns 1 of 2" in capsys.readouterr().out

    def test_plan_shard_run_merge_status_round_trip(self, capsys, tmp_path):
        grid = [
            "--preset",
            "tiny",
            "--routings",
            "min",
            "obl-crg",
            "--loads",
            "0.1",
            "0.2",
        ]
        for k in range(2):
            shard = ["--shard", f"{k}/2", "--cache", str(tmp_path / f"s{k}")]
            rc = main(_fast(["plan", "run"] + grid) + shard + ["--jobs", "1"])
            assert rc == 0
            assert "shard manifest:" in capsys.readouterr().out
        rc = main(
            [
                "plan",
                "merge",
                str(tmp_path / "s0"),
                str(tmp_path / "s1"),
                "--out",
                str(tmp_path / "merged"),
            ]
        )
        assert rc == 0
        assert "(complete)" in capsys.readouterr().out
        rc = main(
            _fast(["plan", "status"] + grid)
            + ["--cache", str(tmp_path / "merged")]
        )
        assert rc == 0
        assert "4/4 cells present" in capsys.readouterr().out
        # An incomplete store reports the gap and exits non-zero.
        rc = main(_fast(["plan", "status"] + grid) + ["--cache", str(tmp_path / "s0")])
        assert rc == 1
        assert "missing" in capsys.readouterr().out
        # An entry no consumer could load (foreign store version) counts
        # as missing too: status must agree with the offline contract.
        victim = next(
            p for p in (tmp_path / "merged").glob("*.json") if p.name != "shard.json"
        )
        victim.write_text('{"version": 99, "result": {}}')
        rc = main(
            _fast(["plan", "status"] + grid) + ["--cache", str(tmp_path / "merged")]
        )
        assert rc == 1

    def test_plan_merge_missing_shard_fails(self, capsys, tmp_path):
        rc = main(
            _fast(
                [
                    "plan",
                    "run",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.1",
                    "--shard",
                    "0/2",
                    "--cache",
                    str(tmp_path / "s0"),
                    "--jobs",
                    "1",
                ]
            )
        )
        assert rc == 0
        rc = main(
            [
                "plan",
                "merge",
                str(tmp_path / "s0"),
                "--out",
                str(tmp_path / "merged"),
            ]
        )
        assert rc == 2
        assert "missing shard" in capsys.readouterr().err

    def test_plan_bad_shard_spec_fails_cleanly(self, capsys, tmp_path):
        rc = main(
            _fast(
                [
                    "plan",
                    "run",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.1",
                    "--shard",
                    "2/2",
                    "--cache",
                    str(tmp_path),
                ]
            )
        )
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_figures_offline_from_store(self, capsys, tmp_path):
        grid = ["--preset", "tiny", "--routings", "min", "--loads", "0.1"]
        assert (
            main(
                _fast(["plan", "run"] + grid)
                + ["--cache", str(tmp_path), "--jobs", "1"]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            _fast(
                [
                    "figures",
                    "--preset",
                    "tiny",
                    "--routings",
                    "min",
                    "--loads",
                    "0.1",
                    "--cache",
                    str(tmp_path),
                    "--offline",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "average packet latency" in out
        assert "accepted load" in out

    def test_figures_offline_cold_store_fails(self, capsys, tmp_path):
        rc = main(
            _fast(
                [
                    "figures",
                    "--preset",
                    "tiny",
                    "--routings",
                    "min",
                    "--loads",
                    "0.1",
                    "--cache",
                    str(tmp_path),
                    "--offline",
                ]
            )
        )
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_no_priority_flag(self, capsys):
        rc = main(
            _fast(
                [
                    "fairness",
                    "--pattern",
                    "advc",
                    "--load",
                    "0.3",
                    "--no-priority",
                ]
            )
        )
        assert rc == 0
        assert "priority=off" in capsys.readouterr().out


class TestResumeAndFaults:
    GRID = ["--preset", "tiny", "--routings", "min", "--loads", "0.1", "0.2"]

    def test_resume_requires_cache(self, capsys):
        rc = main(_fast(["plan", "resume"] + self.GRID))
        assert rc == 2
        assert "needs --cache" in capsys.readouterr().err

    def test_resume_completes_a_partial_store(self, capsys, tmp_path):
        store = str(tmp_path)
        # Seed the store with half the plan …
        rc = main(
            _fast(["plan", "run", "--preset", "tiny", "--loads", "0.1"])
            + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 0
        capsys.readouterr()
        # … status reports the gap and points at resume …
        rc = main(_fast(["plan", "status"] + self.GRID) + ["--cache", store])
        assert rc == 1
        out = capsys.readouterr().out
        assert "1/2 cells present" in out
        assert "plan resume" in out
        # … resume computes only the missing cell and exits zero …
        rc = main(
            _fast(["plan", "resume"] + self.GRID)
            + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 cell(s) already present" in out
        assert "1 recomputed" in out
        assert "store is complete" in out
        # … and a second resume is pure cache hits.
        rc = main(
            _fast(["plan", "resume"] + self.GRID)
            + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 0
        assert "0 recomputed" in capsys.readouterr().out

    def test_resume_recovers_a_corrupt_entry(self, capsys, tmp_path):
        store = str(tmp_path)
        rc = main(
            _fast(["plan", "run"] + self.GRID) + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 0
        capsys.readouterr()
        victim = next(p for p in tmp_path.glob("*.json") if p.name != "shard.json")
        victim.write_text("{torn")
        rc = main(
            _fast(["plan", "resume"] + self.GRID)
            + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 0
        assert "1 recomputed" in capsys.readouterr().out
        # The torn entry was quarantined and shows up in status.
        rc = main(_fast(["plan", "status"] + self.GRID) + ["--cache", store])
        assert rc == 0
        assert "quarantine" in capsys.readouterr().out

    def test_status_reports_failures_journal(self, capsys, tmp_path, monkeypatch):
        from repro.exec.faults import ENV_VAR, FaultSpec, pick_cells
        from repro.exec.plan import ExperimentPlan
        from repro.config import tiny_config

        store = str(tmp_path / "store")
        plan = ExperimentPlan.grid(
            tiny_config(warmup_cycles=100, measure_cycles=400),
            routings=["min"],
            loads=[0.1, 0.2],
        )
        victim = pick_cells(plan.cell_digests(), seed=1)[0]
        spec = FaultSpec(
            ledger=str(tmp_path / "ledger"),
            raise_cells=(victim[:16],),
            raise_times=3,
        )
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        rc = main(
            _fast(["plan", "run"] + self.GRID) + ["--cache", store, "--jobs", "1"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED: 1 cell(s) unrecovered" in err
        assert "3 attempt(s)" in err
        monkeypatch.delenv(ENV_VAR)
        rc = main(_fast(["plan", "status"] + self.GRID) + ["--cache", store])
        assert rc == 1
        out = capsys.readouterr().out
        assert "failures journal: 1 record(s)" in out
        assert victim[:12] in out

    def test_sweep_retry_flags_recover_injected_fault(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.config import tiny_config
        from repro.exec.faults import ENV_VAR, FaultSpec
        from repro.exec.plan import ExperimentPlan

        cfg = tiny_config(seed=1, warmup_cycles=100, measure_cycles=400)
        victim = ExperimentPlan.sweep(cfg, [0.2]).cells[0].digest
        spec = FaultSpec(ledger=str(tmp_path / "ledger"), raise_cells=(victim[:16],))
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        rc = main(
            _fast(
                [
                    "sweep",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.2",
                    "--retries",
                    "2",
                    "--jobs",
                    "1",
                ]
            )
        )
        assert rc == 0
        assert "recovered 1 cell(s) after retries" in capsys.readouterr().out

    def test_leases_flag_requires_cache(self, capsys):
        rc = main(_fast(["plan", "run"] + self.GRID + ["--leases"]))
        assert rc == 2
        assert "--leases needs --cache" in capsys.readouterr().err

    def test_plan_run_with_leases_round_trip(self, capsys, tmp_path):
        rc = main(
            _fast(["plan", "run"] + self.GRID)
            + ["--cache", str(tmp_path), "--jobs", "1", "--leases"]
        )
        assert rc == 0
        assert "executed 2 cells" in capsys.readouterr().out
        # No leases survive a completed run.
        assert not list(tmp_path.glob("leases/**/*.json"))


class TestScenariosCommand:
    def test_lists_catalog(self, capsys):
        rc = main(["scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bursty_adv" in out
        assert "multi_job_interference" in out

    def test_describes_one(self, capsys):
        rc = main(["scenarios", "multi_job_interference"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job 0" in out and "job 1" in out
        assert "suggested loads" in out

    def test_unknown_name_fails(self, capsys):
        rc = main(["scenarios", "nope"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_parser_rejects_unknown_scenario_flag_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_pattern_and_scenario_are_exclusive(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="mutually exclusive"):
            main(
                _fast(
                    [
                        "run",
                        "--scenario",
                        "bursty_uniform",
                        "--pattern",
                        "advc",
                        "--preset",
                        "tiny",
                    ]
                )
            )

    def test_patterns_and_scenario_are_exclusive_in_plan(self, capsys):
        rc = main(
            [
                "plan",
                "--scenario",
                "bursty_uniform",
                "--patterns",
                "advc",
                "--loads",
                "0.1",
            ]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestScenarioRuns:
    def test_run_with_scenario_and_oracle(self, capsys):
        rc = main(
            _fast(
                [
                    "run",
                    "--scenario",
                    "bursty_uniform",
                    "--preset",
                    "tiny",
                    "--load",
                    "0.2",
                    "--oracle",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "UN+burst" in out
        assert "oracle: passed" in out

    def test_plan_dry_run_with_scenario_defaults_loads(self, capsys):
        rc = main(["plan", "--scenario", "ramped_advc", "--preset", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ADVc+ramp" in out
        assert "dry run" in out

    def test_plan_run_scenario_grid_reports_oracle(self, capsys):
        rc = main(
            _fast(
                [
                    "plan",
                    "run",
                    "--scenario",
                    "bursty_uniform",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.1",
                    "0.2",
                    "--oracle",
                    "--jobs",
                    "1",
                ]
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "UN+burst" in out
        assert "oracle: 2/2 audited cells passed" in out

    def test_sweep_scenario_without_oracle_has_no_verdict_line(self, capsys):
        rc = main(
            _fast(
                [
                    "sweep",
                    "--scenario",
                    "bursty_uniform",
                    "--preset",
                    "tiny",
                    "--loads",
                    "0.2",
                    "--jobs",
                    "1",
                ]
            )
        )
        assert rc == 0
        assert "oracle:" not in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_reports_events_and_activations(self, capsys, tmp_path):
        out = tmp_path / "prof.pstats"
        rc = main(
            _fast(
                [
                    "profile",
                    "--preset",
                    "tiny",
                    "--limit",
                    "5",
                    "--output",
                    str(out),
                ]
            )
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "engine:" in captured
        assert "activations" in captured
        # which decide ran is named, never silent (min has a C twin)
        twinned = resolve_backend(None).name == "compiled"
        path = "C twin (min, min)" if twinned else "Python (min)"
        assert f"decide: {path}" in captured
        assert out.exists()


class TestServiceCommands:
    """CLI wiring of the sweep service: serve/submit parsing, end-to-end
    submit against an in-process daemon, and the status exit-code gate."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--cache", "d"])
        assert args.host == "127.0.0.1"
        assert args.port == 7351
        assert args.cache == "d"
        assert args.max_workers is None

    def test_serve_requires_cache(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "--loads", "0.1"])
        assert (args.host, args.port) == ("127.0.0.1", 7351)
        assert args.seeds == 1
        assert not args.stats and not args.quiet and args.json is None

    def test_submit_without_loads_fails_cleanly(self, capsys):
        rc = main(["submit", "--port", "1"])
        assert rc == 2
        assert "needs --loads" in capsys.readouterr().err

    def test_submit_unreachable_daemon_fails_cleanly(self, capsys):
        # Port 1 is privileged and unbound: connection refused, not a hang.
        rc = main(_fast(["submit", "--port", "1", "--loads", "0.1"]))
        assert rc == 2
        assert "repro serve" in capsys.readouterr().err

    def test_stats_unreachable_daemon_fails_cleanly(self, capsys):
        rc = main(["submit", "--port", "1", "--stats"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_round_trip_against_daemon(self, capsys, tmp_path):
        """`repro submit` against a live in-process daemon, twice: first
        computes, then a superset grid reuses the shared store."""
        import asyncio
        import json as jsonlib
        import threading

        from repro.service import PlanService, ServiceConfig

        ready = threading.Event()
        stop: dict = {}

        def daemon():
            async def serve():
                service = PlanService(
                    tmp_path / "store",
                    ServiceConfig(port=0, max_workers=1),
                )
                await service.start()
                stop["port"] = service.port
                stop["event"] = asyncio.Event()
                stop["loop"] = asyncio.get_running_loop()
                ready.set()
                await stop["event"].wait()
                await service.shutdown()

            asyncio.run(serve())

        thread = threading.Thread(target=daemon, daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        try:
            common = [
                "--preset",
                "tiny",
                "--port",
                str(stop["port"]),
                "--json",
                str(tmp_path / "out.json"),
            ]
            rc = main(_fast(["submit"] + common + ["--loads", "0.1"]))
            out = capsys.readouterr().out
            assert rc == 0
            assert "computed" in out and "plan done:" in out
            summary = jsonlib.loads((tmp_path / "out.json").read_text())
            assert summary["counters"]["computed"] == 1
            assert summary["failed"] == []
            # A superset grid is a *different* plan whose overlap cell is
            # served straight from the daemon's store.
            rc = main(_fast(["submit"] + common + ["--loads", "0.1", "0.2"]))
            assert rc == 0
            summary = jsonlib.loads((tmp_path / "out.json").read_text())
            assert summary["counters"]["cache_hits"] == 1
            assert summary["counters"]["computed"] == 1
        finally:
            stop["loop"].call_soon_threadsafe(stop["event"].set)
            thread.join(timeout=10.0)


class TestPlanStatusExitCode:
    def test_nonempty_failures_journal_fails_status(self, capsys, tmp_path):
        """All cells present but a failures journal remains -> exit 1.

        CI gates on this code: a sibling worker may have completed the
        cells later, but the recorded failures still deserve a red build.
        """
        from repro.exec import ResultStore

        grid = ["--preset", "tiny", "--loads", "0.1"]
        cache = ["--cache", str(tmp_path / "store")]
        rc = main(_fast(["plan", "run"] + grid + cache + ["--jobs", "1"]))
        assert rc == 0
        rc = main(_fast(["plan", "status"] + grid + cache))
        out = capsys.readouterr().out
        assert rc == 0  # complete store, empty journal: green
        digest = next(
            line.split()[-1] for line in out.splitlines()
            if line.startswith("plan digest:")
        )
        ResultStore(tmp_path / "store").write_failures(
            digest,
            [{"digest": "d" * 64, "kind": "error", "attempts": 3, "error": "boom"}],
        )
        rc = main(_fast(["plan", "status"] + grid + cache))
        out = capsys.readouterr().out
        assert rc == 1
        assert "failures journal: 1 record(s)" in out
        assert "1/1 cells present" in out  # present cells alone don't excuse it
