"""``repro profile``'s collector report: what the cycle collector did."""

from __future__ import annotations

import gc

import pytest

from repro.config import tiny_config
from repro.core.simulation import Simulation
from repro.utils.profiling import describe_callbacks, profile_simulation


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
