"""Determinism matrix: identical results for repeated runs, per mechanism.

The compiled kernel memoizes its ``decide`` twins' head decisions (see
:mod:`repro.routing.base`), so a stale-decision bug would show up as a
divergence between two runs of the same seed — the memo is populated in
a timing-dependent order, and any decision that wrongly survived a state
change would steer packets differently.  This matrix runs every routing
family crossed with the transit-priority flag twice and asserts every
field of the :class:`~repro.core.results.SimulationResult` is identical.

The families cover the memo's conditions: "always stable" (min),
"stable once the plan is frozen" (oblivious and PiggyBack source
routing), and "stable under the guard the twin hands back" (in-transit
adaptive).  All eight mechanisms are listed because each variant is a
separate candidate generator in the compiled kernel's ``decide`` twins
(the cross-backend suite reuses this list).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import tiny_config
from repro.core.simulation import run_simulation

ROUTINGS = [
    "min",
    "obl-rrg",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-crg",
    "in-trns-rrg",
    "in-trns-mm",
]


def _result_fields(result) -> dict:
    """Every comparable field of a SimulationResult (excluding config)."""
    if dataclasses.is_dataclass(result):
        d = dataclasses.asdict(result)
        d.pop("config", None)
        return d
    return {
        "routing": result.routing,
        "pattern": result.pattern,
        "offered_load": result.offered_load,
        "accepted_load": result.accepted_load,
        "avg_latency": result.avg_latency,
        "latency_std": result.latency_std,
        "max_latency": result.max_latency,
        "latency_breakdown": result.latency_breakdown,
        "delivered_packets": result.delivered_packets,
        "generated_packets": result.generated_packets,
        "injected_per_router": result.injected_per_router,
        "delivered_per_router": result.delivered_per_router,
        "in_flight_at_end": result.in_flight_at_end,
        "events_processed": result.events_processed,
    }


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("priority", [True, False], ids=["prio", "noprio"])
def test_repeated_runs_identical(routing, priority):
    cfg = (
        tiny_config(routing=routing)
        .with_router(transit_priority=priority)
        .with_traffic(pattern="advc", load=0.35)
    )
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert _result_fields(first) == _result_fields(second)


@pytest.mark.parametrize("routing", ROUTINGS)
def test_uniform_runs_identical(routing):
    """Same guard under uniform traffic (different congestion geometry)."""
    cfg = tiny_config(routing=routing).with_traffic(pattern="uniform", load=0.5)
    assert _result_fields(run_simulation(cfg)) == _result_fields(run_simulation(cfg))
