"""Chaos regression tests: injected faults, recovery, bit-identical resume.

Each test drives the runner under a ``REPRO_FAULTS`` spec and asserts
the recovery contract: completed cells are never lost, failed cells are
recomputed (same bytes — the simulations are pure), and a faulted +
resumed + merged pipeline is indistinguishable from a fault-free one.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.config import tiny_config
from repro.errors import AnalysisError, ExecutionError
from repro.exec import ExperimentPlan, ResultStore, Runner
from repro.exec.faults import ENV_VAR, FaultSpec, pick_cells
from repro.exec.leases import LeaseCoordinator
from repro.exec.runner import RetryPolicy
from repro.service import CellScheduler


def quick_cfg(**kw):
    return tiny_config(warmup_cycles=100, measure_cycles=300, **kw)


def sweep_plan(loads=(0.1, 0.2), routings=("min",)):
    return ExperimentPlan.grid(quick_cfg(), routings=list(routings), loads=list(loads))


def set_faults(monkeypatch, tmp_path, **kw):
    spec = FaultSpec(ledger=str(tmp_path / "ledger"), **kw)
    monkeypatch.setenv(ENV_VAR, spec.to_env())
    return spec


def entry_bytes(store_root):
    """digest -> raw entry bytes of every result entry in a store."""
    return {
        p.stem: p.read_bytes()
        for p in store_root.glob("*.json")
        if p.name != "failures.json"
    }


class TestRaiseInjection:
    def test_injected_raise_is_retried_and_recovered(self, monkeypatch, tmp_path):
        plan = sweep_plan()
        clean = Runner(jobs=1).run(plan)
        victim = pick_cells(plan.cell_digests(), seed=5)[0]
        set_faults(monkeypatch, tmp_path, raise_cells=(victim[:16],))
        faulted = Runner(jobs=1, store=tmp_path / "store").run(plan)
        assert faulted.ok
        assert faulted.retried == {victim: 2}
        assert faulted.results == clean.results  # bit-identical recovery

    def test_sibling_results_survive_a_poison_cell(self, monkeypatch, tmp_path):
        """Regression for the old all-or-nothing pool.map: one failing
        cell must not discard its siblings' results."""
        plan = sweep_plan()
        victim = pick_cells(plan.cell_digests(), seed=5)[0]
        # More firings than attempts: the victim fails permanently.
        set_faults(monkeypatch, tmp_path, raise_cells=(victim[:16],), raise_times=3)
        store = ResultStore(tmp_path / "store")
        res = Runner(jobs=2, store=store).run(plan)
        assert not res.ok
        assert set(res.failures) == {victim}
        failure = res.failures[victim]
        assert failure.attempts == 3
        assert failure.quarantined
        assert "FaultInjection" in failure.error
        # Every sibling landed in memory AND on disk.
        siblings = set(plan.cell_digests()) - {victim}
        assert siblings <= set(res.results)
        assert siblings <= set(store.digests())
        # The failure journal records the poison cell for `plan status`.
        journal = store.read_failures(plan.digest)
        assert [r["digest"] for r in journal] == [victim]
        with pytest.raises(ExecutionError, match="unrecovered"):
            res.raise_for_failures()

    def test_resume_completes_only_the_failed_cell(self, monkeypatch, tmp_path):
        plan = sweep_plan()
        victim = pick_cells(plan.cell_digests(), seed=5)[0]
        set_faults(monkeypatch, tmp_path, raise_cells=(victim[:16],), raise_times=3)
        store = ResultStore(tmp_path / "store")
        assert not Runner(jobs=1, store=store).run(plan).ok
        # Faults off: resume computes exactly the quarantined cell.
        monkeypatch.delenv(ENV_VAR)
        resumed = Runner(jobs=1, store=store).run(plan)
        assert resumed.ok
        assert resumed.computed == 1
        assert resumed.cached == len(plan.cell_digests()) - 1
        # A completed run clears the journal.
        assert store.read_failures(plan.digest) == []
        assert resumed.results == Runner(jobs=1).run(plan).results

    def test_deterministic_simulator_error_fails_fast(self, monkeypatch):
        """ReproErrors other than injected faults are not retried."""
        from repro.errors import ConfigurationError
        import repro.exec.executor as executor_mod

        def poisoned(digest, config):
            raise ConfigurationError("broken config")

        monkeypatch.setattr(executor_mod, "run_cell", poisoned)
        res = Runner(jobs=1).run(sweep_plan(loads=(0.1,)))
        (failure,) = res.failures.values()
        assert failure.attempts == 1  # no retries burned
        assert "ConfigurationError" in failure.error


class TestWorkerDeath:
    def test_killed_worker_recovers_bit_identical(self, monkeypatch, tmp_path):
        plan = sweep_plan(loads=(0.1, 0.2), routings=("min", "obl-crg"))
        clean = Runner(jobs=1).run(plan)
        set_faults(monkeypatch, tmp_path, kill_after=1)
        faulted = Runner(jobs=2, store=tmp_path / "store").run(plan)
        assert faulted.ok
        assert faulted.results == clean.results
        # The ledger proves the kill actually fired in a worker.
        assert list((tmp_path / "ledger").glob("kill.*"))

    def test_timeout_terminates_stalled_cell_and_recovers(
        self, monkeypatch, tmp_path
    ):
        plan = sweep_plan()
        victim = pick_cells(plan.cell_digests(), seed=5)[0]
        set_faults(
            monkeypatch,
            tmp_path,
            stall_cells=(victim[:16],),
            stall_seconds=30.0,
        )
        retry = RetryPolicy(cell_timeout=2.0, base_delay=0.01)
        res = Runner(jobs=2, retry=retry, store=tmp_path / "store").run(plan)
        assert res.ok  # the stall fires once; the retry completes
        assert victim in res.retried
        assert res.results == Runner(jobs=1).run(plan).results


class TestQueuedCellsKeepTheirAttempts:
    """With one cell queued behind each running one, a torn-down pool
    charges an attempt to the (at most ``jobs``) cells that had started,
    never to a queued cell.

    Every cell stalls on its first start, and the stall's claim file in
    the ledger is the proof that a worker started it.  The runner
    submits in plan order, so the first two cells run while the other
    two wait in the queue:

    * ``kill`` — the first cell's worker dies after finishing it, while
      the second, stalled twice as long, is still running;
    * ``timeout`` — the first cell, stalled twice as long, overruns the
      timeout while the second (or, once that is done, the third) runs
      beside it.
    """

    JOBS = 2

    def faulted_run(self, monkeypatch, ledger, plan, scenario, max_attempts):
        first, second = [cell.digest for cell in plan][:2]
        stalls = [cell.digest[:16] for cell in plan]
        if scenario == "kill":
            kw = dict(kill_after=1, stall_seconds=0.4)
            stalls.append(second[:12])
            retry = RetryPolicy(max_attempts=max_attempts, base_delay=0.01)
        else:
            kw = dict(stall_seconds=0.5)
            stalls.append(first[:12])
            retry = RetryPolicy(
                max_attempts=max_attempts, base_delay=0.01, cell_timeout=0.8
            )
        spec = FaultSpec(ledger=str(ledger), stall_cells=tuple(stalls), **kw)
        monkeypatch.setenv(ENV_VAR, spec.to_env())
        return Runner(jobs=self.JOBS, retry=retry).run(plan)

    @pytest.mark.parametrize("scenario", ["kill", "timeout"])
    def test_teardown_charges_only_started_cells(self, monkeypatch, tmp_path, scenario):
        plan = sweep_plan(loads=(0.1, 0.2), routings=("min", "obl-crg"))
        clean = Runner(jobs=1).run(plan)

        # One attempt each: a charged cell is quarantined on the spot, so
        # the failures are exactly the cells the teardown charged.
        ledger = tmp_path / "once"
        once = self.faulted_run(monkeypatch, ledger, plan, scenario, 1)
        assert 1 <= len(once.failures) <= self.JOBS
        for digest in once.failures:  # never quarantined before it ran
            assert (ledger / f"stall-{digest[:16]}.0").exists(), digest
        for digest, result in once.results.items():
            assert result == clean.results[digest]

        # Default attempts: the charged cells recover, bit-identical.
        res = self.faulted_run(monkeypatch, tmp_path / "retried", plan, scenario, 3)
        assert res.ok
        assert 1 <= len(res.retried) <= self.JOBS
        assert res.results == clean.results


class TestOneContract:
    """The Runner and the daemon's scheduler compute on one executor: the
    same faults end in the same per-cell ``(ok, kind, attempts)``.

    Both drivers submit the four cells in plan order to two workers, so
    the first two run while the other two wait in the queue.
    """

    @staticmethod
    def scenario(name, plan):
        first, second, third = [cell.digest[:16] for cell in plan][:3]
        if name == "kill":
            # The first cell's worker dies after it while the second,
            # stalled, still runs: both are charged, the queued two not.
            faults = dict(kill_after=1, stall_cells=(second,), stall_seconds=0.5)
            return faults, RetryPolicy(max_attempts=1)
        if name == "raise":
            faults = dict(raise_cells=(third,))  # fires once, then heals
            return faults, RetryPolicy(max_attempts=2, base_delay=0.01)
        # The first cell stalls past the timeout, alone in the window by
        # then: the three fast cells beside it are long done.
        faults = dict(stall_cells=(first,), stall_seconds=20.0)
        return faults, RetryPolicy(max_attempts=1, cell_timeout=1.0)

    @staticmethod
    def through_runner(plan, retry):
        res = Runner(jobs=2, retry=retry).run(plan)
        outcomes = {d: (True, None, res.retried.get(d, 1)) for d in res.results}
        for d, failure in res.failures.items():
            outcomes[d] = (False, failure.kind, failure.attempts)
        return outcomes

    @staticmethod
    def through_scheduler(plan, retry, store_root):
        async def run():
            sched = CellScheduler(ResultStore(store_root), max_workers=2, retry=retry)
            try:
                # One at a time, so the cells reach the pool in plan order.
                futures = [(await sched.schedule(c.digest, c.config))[0] for c in plan]
                return [await future for future in futures]
            finally:
                sched.close()

        return {o.digest: (o.ok, o.kind, o.attempts) for o in asyncio.run(run())}

    @pytest.mark.parametrize("name", ["kill", "raise", "timeout"])
    def test_runner_and_scheduler_agree(self, monkeypatch, tmp_path, name):
        plan = sweep_plan(loads=(0.1, 0.2), routings=("min", "obl-crg"))
        faults, retry = self.scenario(name, plan)
        set_faults(monkeypatch, tmp_path / "runner", **faults)
        runner = self.through_runner(plan, retry)
        set_faults(monkeypatch, tmp_path / "scheduler", **faults)
        scheduler = self.through_scheduler(plan, retry, tmp_path / "store")
        assert runner == scheduler
        expected = {
            "kill": [(False, "worker-lost", 1)] * 2 + [(True, None, 1)] * 2,
            "raise": [(True, None, 1)] * 2 + [(True, None, 2), (True, None, 1)],
            "timeout": [(False, "timeout", 1)] + [(True, None, 1)] * 3,
        }[name]
        assert [runner[cell.digest] for cell in plan] == expected


class TestTruncatedStore:
    def test_truncated_entry_is_quarantined_and_recomputed(
        self, monkeypatch, tmp_path
    ):
        plan = sweep_plan()
        victim = pick_cells(plan.cell_digests(), seed=5)[0]
        set_faults(monkeypatch, tmp_path, truncate_cells=(victim[:16],))
        store = ResultStore(tmp_path / "store")
        Runner(jobs=1, store=store).run(plan)
        monkeypatch.delenv(ENV_VAR)
        # The entry on disk is torn; load() must downgrade it to a miss.
        assert store.load(victim) is None
        assert victim in store.quarantined()
        resumed = Runner(jobs=1, store=store).run(plan)
        assert resumed.ok
        assert resumed.computed == 1
        assert store.load(victim) is not None


class TestChaosPipeline:
    """Golden pipeline: sharded sweep + kill + truncate, resumed and
    merged, must be byte-identical to the fault-free merge."""

    def test_faulted_pipeline_merges_bit_identical(self, monkeypatch, tmp_path):
        plan = sweep_plan(loads=(0.1, 0.2), routings=("min", "obl-crg"))
        shards = [plan.shard(k, 2) for k in range(2)]
        cells = plan.cell_digests()

        # Fault-free reference pipeline.
        for k, shard in enumerate(shards):
            Runner(jobs=1, store=tmp_path / f"clean{k}").run(shard)
        ResultStore(tmp_path / "clean-merged").merge(
            [tmp_path / "clean0", tmp_path / "clean1"], cells
        )

        # Chaos pipeline: a worker dies mid-shard and one stored entry
        # is torn right after its write.
        victim = pick_cells(plan.cell_digests(), seed=13)[0]
        set_faults(
            monkeypatch,
            tmp_path,
            kill_after=1,
            truncate_cells=(victim[:16],),
        )
        for k, shard in enumerate(shards):
            Runner(jobs=2, store=tmp_path / f"chaos{k}").run(shard)
        monkeypatch.delenv(ENV_VAR)

        # Merging with the torn entry in place must fail loudly …
        with pytest.raises(AnalysisError, match=f"{victim[:12]}.*no valid copy"):
            ResultStore(tmp_path / "premature").merge(
                [tmp_path / "chaos0", tmp_path / "chaos1"], cells
            )

        # … resume each shard store, then the merge goes through …
        for k, shard in enumerate(shards):
            resumed = Runner(jobs=1, store=tmp_path / f"chaos{k}").run(shard)
            assert resumed.ok
        ResultStore(tmp_path / "chaos-merged").merge(
            [tmp_path / "chaos0", tmp_path / "chaos1"], cells
        )

        # … and the recovered store is byte-identical to the clean one.
        assert entry_bytes(tmp_path / "chaos-merged") == entry_bytes(
            tmp_path / "clean-merged"
        )


class TestLeaseCoordinatedRunners:
    def test_two_runners_split_one_plan_through_the_store(self, tmp_path):
        """Two sequential lease-coordinated runners over one store: the
        second adopts everything the first computed."""
        plan = sweep_plan()
        store = tmp_path / "store"
        first = Runner(jobs=1, store=store, leases=True, worker_id="w1").run(plan)
        second = Runner(jobs=1, store=store, leases=True, worker_id="w2").run(plan)
        assert first.ok and second.ok
        assert first.computed == len(plan.cell_digests())
        assert second.computed == 0
        assert second.cached == len(plan.cell_digests())
        assert first.results == second.results
        # No leases left behind.
        assert not list(store.glob("leases/**/*.json"))

    def test_lease_is_renewed_while_an_inline_cell_computes(
        self, monkeypatch, tmp_path
    ):
        """At ``jobs=1`` the lease used to be renewed only between cells,
        so a peer could reclaim a cell that was still computing.  The cell
        now computes off the event loop, which keeps heartbeating."""
        plan = sweep_plan(loads=(0.1,))
        (digest,) = plan.cell_digests()
        set_faults(monkeypatch, tmp_path, stall_cells=(digest[:16],), stall_seconds=1.5)
        store = tmp_path / "store"
        runner = Runner(jobs=1, store=store, leases=True, lease_ttl=0.5)
        out = {}
        thread = threading.Thread(target=lambda: out.update(res=runner.run(plan)))
        thread.start()
        try:
            stall = tmp_path / "ledger" / f"stall-{digest[:16]}.0"
            deadline = time.monotonic() + 10.0
            while not stall.exists():
                assert time.monotonic() < deadline, "the cell never started"
                time.sleep(0.01)
            time.sleep(1.0)  # two TTLs into the cell
            peer = LeaseCoordinator(store, plan.digest, worker_id="peer", ttl=0.5)
            assert peer.acquire(digest) is None
        finally:
            thread.join(timeout=30.0)
        assert out["res"].ok and out["res"].computed == 1
