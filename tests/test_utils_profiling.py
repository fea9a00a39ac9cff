"""``repro profile``'s report lines: what the cycle collector did, which
backend ran (and why, when ``auto`` fell back) and what the run held."""

from __future__ import annotations

import builtins
import gc
import re

import pytest

from repro.config import small_config, tiny_config
from repro.core.simulation import Simulation
from repro.engine.kernel import BACKEND_ENV, compiled_import_error, resolve_backend
from repro.errors import ConfigurationError
from repro.routing.minimal import MinimalRouting
from repro.utils.profiling import describe_callbacks, profile_simulation
from test_engine_backends import BACKENDS


class Boom(Exception):
    """Raised by a run that fails on purpose."""


def test_profile_reports_the_collector():
    hooks = list(gc.callbacks)
    _result, _report, metrics = profile_simulation(tiny_config(), limit=1)
    assert gc.callbacks == hooks
    collections = metrics["gc_collections"]
    assert len(collections) == 3 and all(n >= 0 for n in collections)
    assert metrics["gc_collected"] >= 0 and metrics["gc_s"] >= 0.0
    line = describe_callbacks(metrics).splitlines()[-1]
    assert line.startswith("collector: gen0=") and line.endswith("s")


def test_the_hook_is_gone_when_the_run_raises(monkeypatch):
    def run(self):
        raise Boom("mid-run")

    monkeypatch.setattr(Simulation, "run", run)
    hooks = list(gc.callbacks)
    with pytest.raises(Boom):
        profile_simulation(tiny_config())
    assert gc.callbacks == hooks


# ----------------------------------------------------------------------
# the backend: and memory: lines
# ----------------------------------------------------------------------
def _saturated():
    """An h=2 ADVc@0.6 MIN cell that ends with an injection backlog."""
    return small_config(
        routing="min", warmup_cycles=100, measure_cycles=600, seed=3
    ).with_traffic(pattern="advc", load=0.6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_reports_the_backend_and_the_memory(backend, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, backend)
    _result, _report, metrics = profile_simulation(_saturated(), limit=1)
    lines = describe_callbacks(metrics).splitlines()
    assert f"backend: {backend}" in lines
    (memory,) = [line for line in lines if line.startswith("memory: ")]
    # the backlog the same cell leaves at its horizon: heads and pairs
    sim = Simulation(_saturated())
    sim.run()
    soa = sim.soa
    pairs = sum(
        (len(tail) - head) // 2 for tail, head in zip(soa.inj_tail, soa.inj_tail_head)
    )
    heads = sum(r.injection_backlog() for r in sim.routers) - pairs
    assert pairs > heads > 0
    assert memory.endswith(
        f" injection_backlog={heads + pairs} (heads={heads} tail={pairs})"
    )
    rss = float(re.search(r"peak_rss=([\d.]+)MB ", memory).group(1))
    assert rss == pytest.approx(metrics["peak_rss_mb"], abs=0.1) and rss > 10
    if backend == "python":
        assert "peak_packet_rows" not in memory
        return
    rows = int(re.search(r" peak_packet_rows=(\d+) ", memory).group(1))
    tail = int(re.search(r" peak_tail_records=(\d+) ", memory).group(1))
    assert tail >= pairs and 0 < rows < pairs


def _memory_line(metrics) -> str:
    (memory,) = [
        line
        for line in describe_callbacks(metrics).splitlines()
        if line.startswith("memory: ")
    ]
    return memory


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_reports_whether_the_run_was_freed_on_drop(backend, monkeypatch):
    """A run is freed on drop; one a mechanism keeps the Simulation of
    (a cycle the collector must find) says so."""
    monkeypatch.setenv(BACKEND_ENV, backend)
    cfg = tiny_config(routing="min")
    _result, _report, metrics = profile_simulation(cfg, limit=1)
    assert metrics["freed_on_drop"] is True
    assert " freed_on_drop=yes " in _memory_line(metrics)

    init = MinimalRouting.__init__

    def keeping(self, sim, mechanism):
        init(self, sim, mechanism)
        self.sim = sim

    monkeypatch.setattr(MinimalRouting, "__init__", keeping)
    _result, _report, metrics = profile_simulation(cfg, limit=1)
    assert metrics["freed_on_drop"] is False
    assert " freed_on_drop=no " in _memory_line(metrics)
    gc.collect()


def test_a_compiled_extension_that_does_not_import_is_reported(monkeypatch):
    """A built extension that fails to load (a layout mismatch, a missing
    symbol) must not read as "not built": an explicit request quotes the
    ImportError, and ``auto``'s fallback names it on the backend line."""
    real_import = builtins.__import__

    def failing_import(name, globals=None, locals=None, fromlist=(), level=0):
        if name == "repro.engine" and fromlist and "_ckernel" in fromlist:
            raise ImportError("layout mismatch")
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", failing_import)
    assert compiled_import_error() == "layout mismatch"
    with pytest.raises(
        ConfigurationError, match=r"does not import \(layout mismatch\)"
    ):
        resolve_backend("compiled")
    assert resolve_backend("auto").name == "python"
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    _result, _report, metrics = profile_simulation(tiny_config(), limit=1)
    lines = describe_callbacks(metrics).splitlines()
    assert "backend: python (auto fell back: layout mismatch)" in lines
    # an explicit python request is no fallback
    monkeypatch.setenv(BACKEND_ENV, "python")
    _result, _report, metrics = profile_simulation(tiny_config(), limit=1)
    assert "backend: python" in describe_callbacks(metrics).splitlines()
