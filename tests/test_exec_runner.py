"""Tests for the exec subsystem: plans, runner, cache, aggregation."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.figures import FIGURE2_MECHANISMS
from repro.config import JobSpec, SimulationConfig, small_config, tiny_config
from repro.core.simulation import run_simulation
from repro.errors import AnalysisError, ConfigurationError, ExecutionError
from repro.exec import (
    ExperimentPlan,
    ResultStore,
    RetryPolicy,
    Runner,
    average_injections,
    average_results,
    config_digest,
    default_jobs,
    serialize,
)
from repro.exec.faults import ENV_VAR, FaultSpec
from repro.exec.serialize import (
    config_from_dict,
    config_to_dict,
    entry_checksum,
    result_from_dict,
    result_to_dict,
)
from repro.traffic.patterns import pattern_name
from repro.traffic.scenarios import SCENARIOS
from repro.utils.rng import split_seed


def quick_cfg(**kw):
    return tiny_config(warmup_cycles=100, measure_cycles=300, **kw)


class TestPlan:
    def test_point_cell_count_and_seed_derivation(self):
        cfg = quick_cfg()
        plan = ExperimentPlan.point(cfg, seeds=3)
        assert len(plan) == 3
        for s, cell in enumerate(plan):
            assert cell.parent == cfg
            assert cell.seed_index == s
            assert cell.config.seed == split_seed(cfg.seed, 100 + s)

    def test_sweep_orders_loads(self):
        plan = ExperimentPlan.sweep(quick_cfg(), [0.1, 0.2, 0.3], seeds=2)
        assert len(plan) == 6
        loads = [cell.parent.traffic.load for cell in plan]
        assert loads == [0.1, 0.1, 0.2, 0.2, 0.3, 0.3]

    def test_grid_cartesian(self):
        plan = ExperimentPlan.grid(
            quick_cfg(),
            routings=["min", "obl-crg"],
            patterns=["uniform", "advc"],
            loads=[0.1, 0.2],
            seeds=2,
        )
        assert len(plan) == 2 * 2 * 2 * 2
        assert len(plan.points()) == 8
        assert plan.unique_cells() == 16

    def test_merge_and_add(self):
        a = ExperimentPlan.point(quick_cfg(), seeds=1)
        b = ExperimentPlan.point(quick_cfg(routing="obl-crg"), seeds=1)
        assert len(a + b) == 2
        assert len(ExperimentPlan.merge([a, b, a])) == 3
        merged = ExperimentPlan.merge([a, a])
        assert merged.unique_cells() == 1  # deduplicated by digest
        # A duplicated cell is one simulation and must count as one seed.
        res = Runner(jobs=1).run(merged)
        assert res.computed == 1
        assert res.point(quick_cfg()).seeds == 1

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            ExperimentPlan.point(quick_cfg(), seeds=0)
        with pytest.raises(AnalysisError):
            ExperimentPlan.sweep(quick_cfg(), [])
        with pytest.raises(AnalysisError):
            ExperimentPlan.grid(quick_cfg(), routings=[])
        with pytest.raises(AnalysisError):
            ExperimentPlan.grid(quick_cfg(), loads=[])

    def test_describe_lists_cells(self):
        plan = ExperimentPlan.sweep(quick_cfg(), [0.1], seeds=2)
        text = plan.describe()
        assert "2 cells" in text
        assert "seed#1" in text
        assert "UN" in text


def _fig2c_grid():
    """Every cell and parent config of the Fig. 2c grid (147 + 49)."""
    base = small_config().with_traffic(pattern="advc")
    plan = ExperimentPlan.merge(
        ExperimentPlan.sweep(
            base.with_(routing=mech), (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6), seeds=3
        )
        for mech in FIGURE2_MECHANISMS
    )
    return [cell.config for cell in plan] + plan.points()


def _multi_job():
    jobs = (JobSpec(0, 2, "adversarial", 0.5, 100), JobSpec(3, 3))
    return [small_config().with_traffic(pattern="multi_job", jobs=jobs)]


def _typed(value):
    """*value* with every key order and every type made comparable."""
    if isinstance(value, dict):
        return [(key, _typed(v)) for key, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


class TestSerialization:
    @pytest.mark.parametrize(
        "configs",
        [_fig2c_grid(), _multi_job()]
        + [[s.apply(small_config())] for s in SCENARIOS.values()],
        ids=["fig2c_grid", "multi_job", *SCENARIOS],
    )
    def test_canonical_form_equals_asdict(self, configs):
        """Store keys and bytes hang on this form: it must be exactly what
        ``dataclasses.asdict`` gives, key order and tuple types included."""
        for cfg in configs:
            assert _typed(config_to_dict(cfg)) == _typed(dataclasses.asdict(cfg))

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                SimulationConfig,
                "87b026b543352035213bce25ca5be78fb939506243eeb699e9dac07d1a620197",
            ),
            (
                lambda: SCENARIOS["multi_job_interference"].apply(small_config()),
                "3c7cf8edff84bade48de4ea1a737b78ae407298fff524b78783ccd8f06232508",
            ),
            (
                lambda: SCENARIOS["phased_un_advc"].apply(small_config()),
                "bd6f4e7ab5e769437c6abba342c6807917e6685cb87aab449e731b0ffa342261",
            ),
        ],
        ids=["default", "multi_job_interference", "phased_un_advc"],
    )
    def test_digest_literals_are_pinned(self, make, digest):
        assert config_digest(make()) == digest

    def test_digest_is_computed_once_per_config(self, monkeypatch):
        cfg = quick_cfg()
        calls = []
        real = serialize.config_to_dict
        monkeypatch.setattr(
            serialize, "config_to_dict", lambda c: calls.append(c) or real(c)
        )
        plan = ExperimentPlan.point(cfg, seeds=2)
        for _ in range(3):
            [(cell.digest, cell.parent_digest) for cell in plan]
            config_digest(cfg)
        # One parent and two seed cells, each serialized once.
        assert sum(isinstance(c, SimulationConfig) for c in calls) == 3
        # The cache rides on the object, outside the dataclass fields.
        assert cfg == quick_cfg() and hash(cfg) == hash(quick_cfg())

    def test_equal_configs_share_a_digest(self):
        cfg = quick_cfg()
        hot = cfg.with_traffic(pattern="hotspot")
        jobs = cfg.with_traffic(pattern="multi_job", jobs=(JobSpec(0, 2),))
        pairs = [
            (cfg.with_traffic(load=1), cfg.with_traffic(load=1.0)),
            (
                hot.with_traffic(hotspot_fraction=1),
                hot.with_traffic(hotspot_fraction=1.0),
            ),
            (
                jobs.with_traffic(jobs=(JobSpec(0, 2, load_scale=1),)),
                jobs.with_traffic(jobs=(JobSpec(0, 2, load_scale=1.0),)),
            ),
        ]
        for a, b in pairs:
            assert a == b
            assert config_digest(a) == config_digest(b)

    def test_sweep_reads_back_an_int_load(self):
        cfg = quick_cfg()
        res = Runner(jobs=1).run(ExperimentPlan.sweep(cfg, [1]))
        (point,) = res.sweep(cfg, [1.0]).points
        assert point.seeds == 1

    def test_config_round_trip(self):
        cfg = quick_cfg(routing="in-trns-mm").with_traffic(pattern="advc", load=0.35)
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_digest(cfg) == config_digest(
            config_from_dict(config_to_dict(cfg))
        )

    def test_digest_distinguishes_configs(self):
        cfg = quick_cfg()
        assert config_digest(cfg) != config_digest(cfg.with_(seed=2))
        assert config_digest(cfg) != config_digest(cfg.with_traffic(load=0.31))

    def test_result_round_trip(self):
        r = run_simulation(quick_cfg().with_traffic(load=0.3))
        assert result_from_dict(result_to_dict(r)) == r


class TestRunnerDeterminism:
    def test_parallel_matches_serial(self):
        """Same plan, jobs=1 vs jobs=4: identical SweepPoints."""
        cfg = quick_cfg(routing="min")
        loads = [0.2, 0.4]
        plan = ExperimentPlan.sweep(cfg, loads, seeds=2)
        serial = Runner(jobs=1).run(plan)
        parallel = Runner(jobs=4).run(plan)
        serial.raise_for_failures()
        parallel.raise_for_failures()
        assert serial.sweep(cfg, loads) == parallel.sweep(cfg, loads)

    def test_plan_result_point_averages_its_cells(self):
        cfg = quick_cfg(routing="obl-crg").with_traffic(load=0.3)
        plan = ExperimentPlan.point(cfg, seeds=2)
        pt = Runner(jobs=1).run(plan).point(cfg)
        assert pt == average_results(
            [run_simulation(cell.config) for cell in plan]
        )

    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError):
            Runner(jobs=0)

    def test_empty_plan_rejected(self):
        with pytest.raises(AnalysisError):
            Runner(jobs=1).run(ExperimentPlan())

    def test_unknown_config_rejected(self):
        cfg = quick_cfg()
        res = Runner(jobs=1).run(ExperimentPlan.point(cfg))
        with pytest.raises(AnalysisError):
            res.point(cfg.with_traffic(load=0.9))


class TestFailedCellsOfAPoint:
    """A point with a failed cell raises instead of averaging the seeds
    that survived (which would report a different experiment)."""

    @pytest.mark.parametrize("failed", [(1,), (0, 1)], ids=["one-seed", "all-seeds"])
    def test_reading_the_point_names_the_failed_cell(
        self, monkeypatch, tmp_path, failed
    ):
        cfg = quick_cfg(routing="obl-crg").with_traffic(load=0.3)
        plan = ExperimentPlan.point(cfg, seeds=2)
        victims = [plan.cells[i].digest for i in failed]
        spec = FaultSpec(
            ledger=str(tmp_path / "ledger"),
            raise_cells=tuple(d[:16] for d in victims),
        )
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        res = Runner(jobs=1, retry=RetryPolicy(max_attempts=1)).run(plan)
        assert sorted(res.failures) == sorted(victims)
        for read in (res.results_for, res.point):
            with pytest.raises(ExecutionError, match=victims[0]) as info:
                read(cfg)
            assert "after 1 attempt(s)" in str(info.value)
            assert "FaultInjection" in str(info.value)
        with pytest.raises(ExecutionError):
            res.sweep(cfg, [cfg.traffic.load])
        # A config the plan never held is still an analysis error.
        with pytest.raises(AnalysisError, match="in the plan"):
            res.point(cfg.with_traffic(load=0.9))


class _RecordingPool(ThreadPoolExecutor):
    """Thread-pool stand-in for the Runner's process pool that records
    the most submissions it ever had unfinished at once."""

    peak = 0

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self._lock = threading.Lock()
        self._unfinished = 0

    def submit(self, fn, /, *args, **kwargs):
        with self._lock:
            self._unfinished += 1
            _RecordingPool.peak = max(_RecordingPool.peak, self._unfinished)
        future = super().submit(fn, *args, **kwargs)
        future.add_done_callback(self._finished)
        return future

    def _finished(self, future):
        with self._lock:
            self._unfinished -= 1


class TestPoolBacklog:
    def test_one_cell_queued_per_worker(self, monkeypatch):
        """A worker that finishes a cell must find its next one already
        queued: the pool gets exactly two cells per worker, never more."""
        import repro.exec.executor as executor_mod

        run_cell = executor_mod.run_cell  # the real one, before the patch

        def slow_cell(digest, config):
            time.sleep(0.1)  # outlasts every submit of the launch loop
            return run_cell(digest, config)

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(executor_mod, "run_cell", slow_cell)
        monkeypatch.setattr(_RecordingPool, "peak", 0)
        plan = ExperimentPlan.sweep(quick_cfg(), [0.1, 0.2, 0.3, 0.4], seeds=2)
        res = Runner(jobs=2).run(plan)
        assert res.ok and res.computed == 8
        assert _RecordingPool.peak == 4

    def test_cell_timeout_counts_from_the_cells_start(self, monkeypatch, tmp_path):
        """Every cell takes 0.6 of the timeout, so a cell queued behind a
        running one would overrun a clock started at submission."""
        timeout = 1.0
        plan = ExperimentPlan.sweep(quick_cfg(), [0.1, 0.2, 0.3, 0.4])
        spec = FaultSpec(
            ledger=str(tmp_path / "ledger"),
            stall_cells=tuple(d[:16] for d in plan.cell_digests()),
            stall_seconds=0.6 * timeout,
        )
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        res = Runner(jobs=2, retry=RetryPolicy(cell_timeout=timeout)).run(plan)
        assert res.ok
        assert res.retried == {}
        # Every cell really stalled (once) on a worker.
        assert len(list((tmp_path / "ledger").glob("stall-*"))) == 4

    def test_a_single_cell_keeps_its_timeout(self, monkeypatch, tmp_path):
        """A pooled run with one cell to compute (a ``plan run`` re-run of a
        store missing one) still enforces ``cell_timeout``: it must not
        fall back to the inline path, which cannot stop a cell."""
        plan = ExperimentPlan.point(quick_cfg())
        (digest,) = plan.cell_digests()
        spec = FaultSpec(
            ledger=str(tmp_path / "ledger"),
            stall_cells=(digest[:16],),
            stall_seconds=20.0,
        )
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        retry = RetryPolicy(max_attempts=1, cell_timeout=0.5)
        t0 = time.monotonic()
        res = Runner(jobs=2, retry=retry).run(plan)
        assert time.monotonic() - t0 < 10.0
        assert res.failures[digest].kind == "timeout"

    def test_one_job_enforces_the_cell_timeout(self, monkeypatch, tmp_path):
        """``jobs=1`` used to compute inline and ignore ``cell_timeout``
        (two 2 s stalls ran to the end, 4 s, and passed): a run with a
        timeout computes on a one-worker pool, which can stop a cell."""
        plan = ExperimentPlan.sweep(quick_cfg(), [0.1, 0.2])
        spec = FaultSpec(
            ledger=str(tmp_path / "ledger"),
            stall_cells=tuple(d[:16] for d in plan.cell_digests()),
            stall_seconds=2.0,
        )
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        retry = RetryPolicy(max_attempts=1, cell_timeout=0.5)
        t0 = time.monotonic()
        res = Runner(jobs=1, retry=retry).run(plan)
        assert time.monotonic() - t0 < 3.5
        assert [f.kind for f in res.failures.values()] == ["timeout", "timeout"]


class TestEventLoop:
    def test_run_leaves_the_callers_event_loop_alone(self):
        """``run`` drives its cells on a private loop: a loop the caller
        set (as a daemon between rounds would) stays current and usable."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            res = Runner(jobs=1).run(ExperimentPlan.point(quick_cfg(), seeds=2))
            assert res.ok and res.computed == 2
            assert asyncio.get_event_loop() is loop
            assert loop.run_until_complete(asyncio.sleep(0, "ok")) == "ok"
        finally:
            asyncio.set_event_loop(None)
            loop.close()


class TestResultCache:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hit_miss_and_round_trip(self, tmp_path, jobs):
        cfg = quick_cfg(routing="min")
        plan = ExperimentPlan.sweep(cfg, [0.2, 0.4], seeds=2)

        first = Runner(jobs=jobs, store=tmp_path).run(plan)
        assert first.computed == 4
        assert first.cached == 0

        second = Runner(jobs=jobs, store=tmp_path).run(plan)
        assert second.computed == 0
        assert second.cached == 4
        assert second.sweep(cfg, [0.2, 0.4]) == first.sweep(cfg, [0.2, 0.4])

    def test_partial_miss_computes_only_new_cells(self, tmp_path):
        cfg = quick_cfg(routing="min")
        Runner(jobs=1, store=tmp_path).run(ExperimentPlan.sweep(cfg, [0.2], seeds=1))
        res = Runner(jobs=1, store=tmp_path).run(
            ExperimentPlan.sweep(cfg, [0.2, 0.4], seeds=1)
        )
        assert res.cached == 1
        assert res.computed == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",  # syntactically invalid
            '{"version": 1}',  # version matches but schema malformed
            '{"version": 99, "result": {}}',  # foreign store version
        ],
    )
    def test_bad_entry_is_a_miss(self, tmp_path, payload):
        cfg = quick_cfg()
        plan = ExperimentPlan.point(cfg)
        Runner(jobs=1, store=tmp_path).run(plan)
        digest = plan.cells[0].digest
        (tmp_path / f"{digest}.json").write_text(payload)
        res = Runner(jobs=1, store=tmp_path).run(plan)
        assert res.computed == 1
        assert res.cached == 0

    def test_store_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        Runner(jobs=1, store=store).run(ExperimentPlan.point(quick_cfg(), seeds=2))
        assert len(store) == 2


class TestCrashSafeStore:
    def _stored_digest(self, tmp_path):
        cfg = quick_cfg()
        plan = ExperimentPlan.point(cfg)
        Runner(jobs=1, store=tmp_path).run(plan)
        return ResultStore(tmp_path), plan.cells[0].digest

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store, digest = self._stored_digest(tmp_path)
        path = tmp_path / f"{digest}.json"
        entry = json.loads(path.read_text())
        entry["result"]["avg_latency"] += 1.0  # bit-flip the payload
        path.write_text(json.dumps(entry))
        assert store.load(digest) is None  # never raises, downgraded
        assert store.quarantined() == [digest]
        assert not path.exists()  # moved aside, not left to re-trip

    def test_truncated_entry_is_quarantined(self, tmp_path):
        store, digest = self._stored_digest(tmp_path)
        path = tmp_path / f"{digest}.json"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(digest) is None
        assert store.quarantined() == [digest]

    def test_non_utf8_entry_is_a_miss_then_quarantined(self, tmp_path):
        """Bytes that do not decode are corruption, not a crash."""
        store, digest = self._stored_digest(tmp_path)
        path = tmp_path / f"{digest}.json"
        path.write_bytes(b'{"version": \xff\xfe garbage')
        assert digest not in store
        assert path.exists()  # the probe stays non-mutating
        assert store.load(digest) is None
        assert store.quarantined() == [digest]
        assert not path.exists()

    def test_quarantined_cell_is_recomputed(self, tmp_path):
        store, digest = self._stored_digest(tmp_path)
        (tmp_path / f"{digest}.json").write_text("{torn")
        res = Runner(jobs=1, store=store).run(ExperimentPlan.point(quick_cfg()))
        assert res.computed == 1
        assert store.load(digest) is not None  # healthy entry rewritten

    def test_foreign_version_left_in_place(self, tmp_path):
        """A foreign STORE_VERSION is stale, not corrupt: a plain miss."""
        store, digest = self._stored_digest(tmp_path)
        path = tmp_path / f"{digest}.json"
        path.write_text('{"version": 99, "result": {}}')
        assert store.load(digest) is None
        assert store.quarantined() == []
        assert path.exists()

    def test_killed_writer_leaves_no_partial_entry(self, tmp_path, monkeypatch):
        """A writer dying before the atomic rename publishes nothing."""
        store, digest = self._stored_digest(tmp_path)
        result = store.load(digest)
        (tmp_path / f"{digest}.json").unlink()

        def dies(src, dst):  # the crash happens mid-save
            raise KeyboardInterrupt

        monkeypatch.setattr("os.replace", dies)
        with pytest.raises(KeyboardInterrupt):
            store.save(digest, result)
        monkeypatch.undo()
        # No visible entry, no temp litter; the cell is a clean miss.
        assert store.load(digest) is None
        assert list(tmp_path.glob("*.tmp")) == []
        assert store.digests() == []

    def test_entry_checksum_matches_on_disk(self, tmp_path):
        store, digest = self._stored_digest(tmp_path)
        data = json.loads((tmp_path / f"{digest}.json").read_text())
        assert data["checksum"] == entry_checksum(data["result"])

    def test_contains_applies_load_validation(self, tmp_path):
        """`digest in store` answers what `load` would: a torn or foreign
        entry on disk is a miss, not a hit (a bare exists() check used to
        claim entries that could never be read back)."""
        store, digest = self._stored_digest(tmp_path)
        assert digest in store
        path = tmp_path / f"{digest}.json"
        path.write_text("{torn")  # torn write: file exists, unreadable
        assert digest not in store
        assert path.exists()  # non-mutating: load() quarantines, not this
        assert store.quarantined() == []
        path.write_text('{"version": 99, "result": {}}')  # foreign version
        assert digest not in store
        assert "0" * 64 not in store  # plain absence

    def test_entry_filed_under_another_digest_is_quarantined(self, tmp_path, caplog):
        """The checksum covers the payload, not the file name: an intact
        entry holding another cell's result must not be served."""
        cfg = quick_cfg()
        digest = config_digest(cfg)
        store = ResultStore(tmp_path)
        store.save(digest, run_simulation(cfg.with_(seed=2)))
        assert digest not in store
        assert store.quarantined() == []  # the probe stays non-mutating
        assert store.load(digest) is None
        assert store.quarantined() == [digest]
        assert "another cell's config" in caplog.text
        res = Runner(jobs=1, store=store).run(ExperimentPlan.point(cfg, seeds=1))
        assert res.computed == 1  # recomputed, not served

    def test_load_seeds_the_config_digest(self, tmp_path, monkeypatch):
        store, digest = self._stored_digest(tmp_path)
        result = store.load(digest)
        monkeypatch.setattr(serialize, "config_to_dict", None)  # never called
        assert config_digest(result.config) == digest

    def test_failures_journal_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [
            {"digest": "ab" * 32, "attempts": 3, "kind": "error",
             "error": "boom", "quarantined": True},
        ]
        store.write_failures("f" * 64, records)
        assert store.read_failures("f" * 64) == records
        assert store.read_failures("0" * 64) == []  # foreign plan
        store.write_failures("f" * 64, [])  # a clean run clears it
        assert store.read_failures("f" * 64) == []
        assert not store.failures_path.exists()
        # The journal is never mistaken for a result entry.
        store.write_failures("f" * 64, records)
        assert store.digests() == []


class TestRunnerValidation:
    def test_leases_require_a_store(self):
        with pytest.raises(AnalysisError):
            Runner(jobs=1, leases=True)

    def test_offline_requires_a_store(self):
        with pytest.raises(AnalysisError):
            Runner(jobs=1, offline=True)

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
    def test_repro_jobs_must_be_a_positive_integer(self, monkeypatch, env):
        """``REPRO_JOBS=abc`` used to end in a bare ValueError and
        ``REPRO_JOBS=0`` to become 1 silently, while ``--jobs 0`` fails."""
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            default_jobs()
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            Runner()

    @pytest.mark.parametrize("bad", [-1, 2.5, "two", True])
    def test_jobs_must_be_a_positive_integer(self, bad):
        """``Runner(jobs="2")`` used to fail with a bare TypeError and
        ``jobs=2.5`` or ``jobs=True`` to be accepted; ``jobs`` is checked
        like the daemon's ``max_workers``."""
        with pytest.raises(ConfigurationError, match="jobs"):
            Runner(jobs=bad)

    def test_jobs_may_be_a_decimal_string(self):
        assert Runner(jobs="2").jobs == 2

    def test_repro_jobs_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3 and Runner().jobs == 3
        assert Runner(jobs=1).jobs == 1  # an explicit count wins

    def test_retry_policy_bounds(self):
        with pytest.raises(AnalysisError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(AnalysisError):
            RetryPolicy(cell_timeout=0)
        with pytest.raises(AnalysisError):
            RetryPolicy(backoff=0.5)

    def test_backoff_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.3, jitter=0.5)
        rng_a = random.Random("backoff:plan:cell")
        rng_b = random.Random("backoff:plan:cell")
        delays_a = [policy.delay(k, rng_a) for k in range(1, 5)]
        delays_b = [policy.delay(k, rng_b) for k in range(1, 5)]
        assert delays_a == delays_b  # same seed, same schedule
        assert all(d <= 0.3 * 1.5 for d in delays_a)


class TestAverageResultsEdgeCases:
    def test_single_seed_identity(self):
        r = run_simulation(quick_cfg().with_traffic(load=0.3))
        pt = average_results([r])
        assert pt.seeds == 1
        assert pt.accepted_load == r.accepted_load
        assert pt.avg_latency == r.avg_latency
        assert pt.fairness == r.fairness

    def test_mismatched_lengths_raise(self):
        r_tiny = run_simulation(quick_cfg().with_traffic(load=0.3))
        r_other = dataclasses.replace(
            r_tiny, injected_per_router=r_tiny.injected_per_router + [0]
        )
        with pytest.raises(AnalysisError):
            average_results([r_tiny, r_other])
        with pytest.raises(AnalysisError):
            average_injections([r_tiny, r_other])

    def test_mismatched_breakdown_keys_raise(self):
        r = run_simulation(quick_cfg().with_traffic(load=0.3))
        other = dataclasses.replace(r, latency_breakdown={"base": 1.0})
        with pytest.raises(AnalysisError):
            average_results([r, other])

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            average_results([])
        with pytest.raises(AnalysisError):
            average_injections([])


class TestPatternName:
    def test_names_match_pattern_classes(self):
        cfg = quick_cfg()
        assert pattern_name(cfg.traffic) == "UN"
        t = cfg.with_traffic(pattern="advc").traffic
        assert pattern_name(t) == "ADVc"
        t = cfg.with_traffic(pattern="adversarial", adv_offset=2).traffic
        assert pattern_name(t) == "ADV+2"
        t = cfg.with_traffic(pattern="adversarial", adv_offset=-1).traffic
        assert pattern_name(t) == "ADV-1"
        t = cfg.with_traffic(pattern="job").traffic
        assert pattern_name(t) == "JOB"

    def test_sweep_pattern_label_without_topology(self):
        """A sweep's pattern label matches the live pattern name."""
        cfg = quick_cfg().with_traffic(pattern="advc")
        res = Runner(jobs=1).run(ExperimentPlan.sweep(cfg, [0.3]))
        assert res.sweep(cfg, [0.3]).pattern == "ADVc"
