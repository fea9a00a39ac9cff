"""Tests for sharded plan execution and shard-store merging."""

from __future__ import annotations

import json

import pytest

from repro.config import tiny_config
from repro.errors import AnalysisError, SimulationError
from repro.exec import (
    ExperimentPlan,
    ResultStore,
    Runner,
    Shard,
    plan_digest,
)
from repro.exec.store import MANIFEST_NAME


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


class TestShardedRunner:
    def test_sharded_run_requires_store(self):
        with pytest.raises(AnalysisError):
            Runner(jobs=1).run(four_cell_plan(), shard=Shard(0, 2))

    def test_manifest_records_plan_and_ownership(self, tmp_path):
        plan = four_cell_plan()
        res = Runner(jobs=1, store=tmp_path).run(plan, shard=Shard(1, 2))
        assert res.shard == Shard(1, 2)
        manifest = ResultStore(tmp_path).read_manifest()
        assert manifest.plan_digest == plan.digest
        assert (manifest.shard_index, manifest.shard_count) == (1, 2)
        assert manifest.plan_cells == plan.cell_digests()
        assert set(manifest.cells) == plan.shard_digests(Shard(1, 2))
        raw = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "git_sha" in raw["manifest"]

    def test_sharded_runs_merge_bit_identical_to_unsharded(self, tmp_path):
        """Acceptance: 0/2 + 1/2 merged == unsharded store, byte for byte."""
        plan = four_cell_plan()
        Runner(jobs=1, store=tmp_path / "full").run(plan)
        for k in range(2):
            Runner(jobs=1, store=tmp_path / f"shard{k}").run(plan, shard=Shard(k, 2))

        merged = ResultStore(tmp_path / "merged")
        report = merged.merge([tmp_path / "shard0", tmp_path / "shard1"])
        assert report.copied == 4
        assert report.manifest.plan_digest == plan.digest

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

    def test_empty_shard_merges_cleanly(self, tmp_path):
        plan = ExperimentPlan.point(quick_cfg(), seeds=2)  # 2 cells
        for k in range(4):
            res = Runner(jobs=1, store=tmp_path / f"s{k}").run(plan, shard=Shard(k, 4))
            assert res.computed + res.cached == len(plan.shard(k, 4))
        report = ResultStore(tmp_path / "merged").merge(
            [tmp_path / f"s{k}" for k in range(4)]
        )
        assert report.copied == 2
        assert len(ResultStore(tmp_path / "merged")) == 2

    def test_offline_with_cold_store_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            Runner(jobs=1, store=tmp_path, offline=True).run(four_cell_plan())
        with pytest.raises(AnalysisError):
            Runner(jobs=1, offline=True)


class TestMergeFailures:
    def _sharded_stores(self, tmp_path, plan, count=2):
        roots = []
        for k in range(count):
            root = tmp_path / f"shard{k}"
            Runner(jobs=1, store=root).run(plan, shard=Shard(k, count))
            roots.append(root)
        return roots

    def test_missing_shard_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        with pytest.raises(AnalysisError, match="missing shard"):
            ResultStore(tmp_path / "merged").merge(roots[:1])

    def test_missing_manifest_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        (roots[1] / MANIFEST_NAME).unlink()
        with pytest.raises(AnalysisError, match="manifest"):
            ResultStore(tmp_path / "merged").merge(roots)

    def test_foreign_manifest_version_reported_as_such(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        path = roots[1] / MANIFEST_NAME
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        # A clean version mismatch must not masquerade as a corrupt file.
        with pytest.raises(AnalysisError, match="store version"):
            ResultStore(tmp_path / "merged").merge(roots)

    def test_duplicate_shard_index_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        with pytest.raises(AnalysisError, match="duplicate shard"):
            ResultStore(tmp_path / "merged").merge([roots[0], roots[0]])

    def test_incomplete_shard_detected(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        claimed = ResultStore(roots[1]).read_manifest().cells[0]
        (roots[1] / f"{claimed}.json").unlink()
        with pytest.raises(AnalysisError, match="incomplete"):
            ResultStore(tmp_path / "merged").merge(roots)

    def test_non_utf8_claimed_entry_reported_corrupt(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        claimed = ResultStore(roots[1]).read_manifest().cells[0]
        (roots[1] / f"{claimed}.json").write_bytes(b'{"version": \xff\xfe garbage')
        with pytest.raises(AnalysisError, match="corrupt result for claimed cell"):
            ResultStore(tmp_path / "merged").merge(roots)

    def test_conflicting_duplicate_digest_detected(self, tmp_path):
        """Same cell digest, different result bytes: merge must refuse."""
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        merged = ResultStore(tmp_path / "merged")
        merged.merge(roots)
        # Tamper one already-merged entry, then re-merge on top.
        digest = merged.digests()[0]
        path = tmp_path / "merged" / f"{digest}.json"
        data = json.loads(path.read_text())
        data["result"]["avg_latency"] += 1.0
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError, match="conflict"):
            merged.merge(roots)

    def test_foreign_plan_detected(self, tmp_path):
        plan = four_cell_plan()
        other = ExperimentPlan.point(quick_cfg(seed=9), seeds=2)
        Runner(jobs=1, store=tmp_path / "a").run(plan, shard=Shard(0, 2))
        Runner(jobs=1, store=tmp_path / "b").run(other, shard=Shard(1, 2))
        with pytest.raises(AnalysisError, match="plan"):
            ResultStore(tmp_path / "merged").merge([tmp_path / "a", tmp_path / "b"])

    def test_merged_store_is_re_mergeable(self, tmp_path):
        plan = four_cell_plan()
        roots = self._sharded_stores(tmp_path, plan)
        first = ResultStore(tmp_path / "merged")
        first.merge(roots)
        # A merged store is a complete 1-shard store of the same plan.
        report = ResultStore(tmp_path / "again").merge([tmp_path / "merged"])
        assert report.copied == plan.unique_cells()
        assert report.manifest.plan_digest == plan.digest
