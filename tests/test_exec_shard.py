"""Tests for sharded plan execution and shard-store merging."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.config import tiny_config
from repro.errors import AnalysisError, SimulationError
from repro.exec import (
    ExperimentPlan,
    ResultStore,
    Runner,
    Shard,
    plan_digest,
)
from repro.exec.serialize import entry_checksum


def quick_cfg(**kw):
    return tiny_config(warmup_cycles=100, measure_cycles=300, **kw)


def four_cell_plan():
    return ExperimentPlan.grid(
        quick_cfg(),
        routings=["min", "obl-crg"],
        loads=[0.1, 0.2],
        seeds=1,
    )


class TestShard:
    def test_parse_round_trip(self):
        shard = Shard.parse("2/4")
        assert (shard.index, shard.count) == (2, 4)
        assert str(shard) == "2/4"

    @pytest.mark.parametrize("spec", ["", "3", "a/b", "1/", "/2", "0/2/3"])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(SimulationError):
            Shard.parse(spec)

    def test_index_out_of_range_raises(self):
        with pytest.raises(SimulationError):
            Shard(2, 2)
        with pytest.raises(SimulationError):
            Shard(-1, 2)
        with pytest.raises(SimulationError):
            Shard(0, 0)


class TestPlanSharding:
    def test_single_shard_is_identity(self):
        plan = four_cell_plan()
        assert plan.shard(0, 1).cells == plan.cells

    def test_partition_is_disjoint_and_complete(self):
        plan = four_cell_plan()
        owned = [{c.digest for c in plan.shard(k, 3).cells} for k in range(3)]
        assert set().union(*owned) == {c.digest for c in plan.cells}
        assert sum(len(o) for o in owned) == plan.unique_cells()

    def test_partition_independent_of_construction_order(self):
        plan = four_cell_plan()
        shuffled = ExperimentPlan.grid(
            quick_cfg(),
            routings=["obl-crg", "min"],
            loads=[0.2, 0.1],
            seeds=1,
        )
        assert plan.digest == shuffled.digest
        for k in range(3):
            assert {c.digest for c in plan.shard(k, 3).cells} == {
                c.digest for c in shuffled.shard(k, 3).cells
            }

    def test_plan_digest_ignores_duplicates(self):
        plan = four_cell_plan()
        assert ExperimentPlan.merge([plan, plan]).digest == plan.digest
        assert plan.digest == plan_digest(c.digest for c in plan.cells)

    def test_more_shards_than_cells_yields_empty_shards(self):
        plan = ExperimentPlan.point(quick_cfg(), seeds=2)
        sizes = [len(plan.shard(k, 5)) for k in range(5)]
        assert sorted(sizes, reverse=True) == [1, 1, 0, 0, 0]


def run_shards(tmp_path, plan, count, name="shard"):
    """Run every non-empty shard of *plan* into ``tmp_path/<name>K``."""
    roots = []
    for k in range(count):
        root = tmp_path / f"{name}{k}"
        sub = plan.shard(k, count)
        if len(sub):
            Runner(jobs=1, store=root).run(sub)
        roots.append(root)
    return roots


class TestShardedRunner:
    def test_sharded_run_requires_store(self, capsys):
        rc = main(
            ["plan", "run", "--preset", "tiny", "--loads", "0.1", "--shard", "0/2"]
        )
        assert rc == 2
        assert "needs --cache" in capsys.readouterr().err

    def test_sharded_runs_merge_bit_identical_to_unsharded(self, tmp_path):
        """Acceptance: 0/2 + 1/2 merged == unsharded store, byte for byte."""
        plan = four_cell_plan()
        Runner(jobs=1, store=tmp_path / "full").run(plan)
        roots = run_shards(tmp_path, plan, 2)

        merged = ResultStore(tmp_path / "merged")
        report = merged.merge(roots, plan.cell_digests())
        assert report.copied == 4

        full = ResultStore(tmp_path / "full")
        assert merged.digests() == full.digests()
        for digest in full.digests():
            assert (tmp_path / "merged" / f"{digest}.json").read_bytes() == (
                tmp_path / "full" / f"{digest}.json"
            ).read_bytes()

        # The merged store replays the whole plan without any computation.
        offline = Runner(jobs=1, store=merged, offline=True).run(plan)
        direct = Runner(jobs=1).run(plan)
        assert offline.computed == 0
        assert offline.cached == plan.unique_cells()
        assert offline.results == direct.results

    def test_empty_shard_merges_cleanly(self, tmp_path, capsys):
        plan = ExperimentPlan.point(quick_cfg(), seeds=2)  # 2 cells
        for k in range(4):
            sub = plan.shard(k, 4)
            if len(sub):
                res = Runner(jobs=1, store=tmp_path / f"s{k}").run(sub)
                assert res.computed + res.cached == len(sub)
        report = ResultStore(tmp_path / "merged").merge(
            [tmp_path / f"s{k}" for k in range(4)], plan.cell_digests()
        )
        assert report.copied == 2
        assert len(ResultStore(tmp_path / "merged")) == 2
        # The CLI runs an empty shard as a clean no-op.
        rc = main(
            ["plan", "run", "--preset", "tiny", "--loads", "0.1", "--shard", "3/4"]
            + ["--cache", str(tmp_path / "empty")]
        )
        assert rc == 0
        assert "nothing to run" in capsys.readouterr().out

    def test_offline_with_cold_store_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Runner(jobs=1, store=tmp_path, offline=True).run(four_cell_plan())
        with pytest.raises(AnalysisError):
            Runner(jobs=1, offline=True)


class TestMergeFailures:
    def test_missing_shard_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        with pytest.raises(AnalysisError, match="no valid copy"):
            ResultStore(tmp_path / "merged").merge(roots[:1], plan.cell_digests())
        assert not (tmp_path / "merged").exists()  # nothing half-merged

    def test_duplicate_shard_index_detected(self, tmp_path):
        """One shard store passed twice: its identical copies are no
        conflict, and they do not cover the other shard's cells."""
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        with pytest.raises(AnalysisError, match="no valid copy"):
            ResultStore(tmp_path / "merged").merge(
                [roots[0], roots[0]], plan.cell_digests()
            )
        report = ResultStore(tmp_path / "merged").merge(
            [roots[0], roots[0], roots[1]], plan.cell_digests()
        )
        assert report.copied == plan.unique_cells()

    def test_incomplete_shard_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        owned = ResultStore(roots[1]).digests()[0]
        (roots[1] / f"{owned}.json").unlink()
        with pytest.raises(AnalysisError, match=f"cell {owned[:12]}.*no valid copy"):
            ResultStore(tmp_path / "merged").merge(roots, plan.cell_digests())

    def test_non_utf8_claimed_entry_reported_corrupt(self, tmp_path):
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        owned = ResultStore(roots[1]).digests()[0]
        (roots[1] / f"{owned}.json").write_bytes(b'{"version": \xff\xfe garbage')
        with pytest.raises(AnalysisError, match=f"invalid copies: {roots[1]}"):
            ResultStore(tmp_path / "merged").merge(roots, plan.cell_digests())

    def test_claimed_entry_holding_another_cell_reported_corrupt(self, tmp_path):
        """Intact bytes filed under the wrong digest pass the checksum but
        not the config-digest check."""
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        mine, other = ResultStore(roots[1]).digests()[:2]
        (roots[1] / f"{mine}.json").write_bytes(
            (roots[1] / f"{other}.json").read_bytes()
        )
        with pytest.raises(AnalysisError, match="another cell's config"):
            ResultStore(tmp_path / "merged").merge(roots, plan.cell_digests())

    def test_conflicting_duplicate_digest_detected(self, tmp_path):
        """Same cell digest, different result bytes: merge must refuse."""
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        merged = ResultStore(tmp_path / "merged")
        merged.merge(roots, plan.cell_digests())
        # Tamper one already-merged entry, then re-merge on top.
        digest = merged.digests()[0]
        path = tmp_path / "merged" / f"{digest}.json"
        data = json.loads(path.read_text())
        data["result"]["avg_latency"] += 1.0
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError, match="conflict"):
            merged.merge(roots, plan.cell_digests())

    def test_foreign_plan_detected(self, tmp_path):
        plan = four_cell_plan()
        other = ExperimentPlan.point(quick_cfg(seed=9), seeds=2)
        Runner(jobs=1, store=tmp_path / "a").run(plan.shard(0, 2))
        Runner(jobs=1, store=tmp_path / "b").run(other.shard(1, 2))
        with pytest.raises(AnalysisError, match="of the plan has no valid copy"):
            ResultStore(tmp_path / "merged").merge(
                [tmp_path / "a", tmp_path / "b"], plan.cell_digests()
            )

    def test_merged_store_is_re_mergeable(self, tmp_path):
        plan = four_cell_plan()
        roots = run_shards(tmp_path, plan, 2)
        first = ResultStore(tmp_path / "merged")
        first.merge(roots, plan.cell_digests())
        # A merged store is a complete store of the same plan.
        report = ResultStore(tmp_path / "again").merge(
            [tmp_path / "merged"], plan.cell_digests()
        )
        assert report.copied == plan.unique_cells()
        # Merging into a store that already holds the bytes copies nothing.
        report = first.merge(roots, plan.cell_digests())
        assert (report.copied, report.reused) == (0, plan.unique_cells())

    def test_differing_valid_source_copies_conflict(self, tmp_path):
        """Two sources with valid (checksummed, correctly filed) but
        different bytes for one cell: neither may silently win."""
        plan = four_cell_plan()
        full = tmp_path / "full"
        Runner(jobs=1, store=full).run(plan)
        forged = tmp_path / "forged"
        forged.mkdir()
        digest = plan.cell_digests()[0]
        data = json.loads((full / f"{digest}.json").read_text())
        data["result"]["avg_latency"] += 1.0
        data["checksum"] = entry_checksum(data["result"])
        (forged / f"{digest}.json").write_text(json.dumps(data))
        assert digest in ResultStore(forged)  # a valid copy on its own
        with pytest.raises(AnalysisError, match="byte conflict"):
            ResultStore(tmp_path / "merged").merge(
                [full, forged], plan.cell_digests()
            )


class TestMergeAnySource:
    def test_daemon_store_and_plan_run_store_merge_complete(
        self, tmp_path, capsys
    ):
        """A sweep daemon's store and a plain `plan run` store hold two
        halves of one plan; merged against the plan they are complete."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.exec import RetryPolicy
        from repro.service import CellScheduler, PlanService, ServiceConfig
        from repro.service.client import run_plan

        plan = ExperimentPlan.grid(quick_cfg(), loads=[0.1, 0.2, 0.3])
        served = ExperimentPlan.grid(quick_cfg(), loads=[0.1, 0.2])
        daemon = ResultStore(tmp_path / "daemon")

        async def serve():
            scheduler = CellScheduler(
                daemon,
                retry=RetryPolicy(base_delay=0.001, max_delay=0.01),
                executor=ThreadPoolExecutor(max_workers=2),
            )
            service = PlanService(daemon, ServiceConfig(port=0), scheduler=scheduler)
            await service.start()
            try:
                return await run_plan("127.0.0.1", service.port, served)
            finally:
                await service.shutdown()

        assert asyncio.run(serve()).ok
        rc = main(
            ["plan", "run", "--preset", "tiny", "--warmup", "100"]
            + ["--measure", "300", "--loads", "0.3", "--jobs", "1"]
            + ["--cache", str(tmp_path / "serial")]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            ["plan", "merge", str(daemon.root), str(tmp_path / "serial")]
            + ["--preset", "tiny", "--warmup", "100", "--measure", "300"]
            + ["--loads", "0.1", "0.2", "0.3", "--cache", str(tmp_path / "merged")]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert f"plan digest: {plan.digest}" in out
        assert "3 cell(s) copied" in out
        offline = Runner(jobs=1, store=tmp_path / "merged", offline=True).run(plan)
        assert offline.results == Runner(jobs=1).run(plan).results
