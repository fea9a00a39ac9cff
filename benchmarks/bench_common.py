"""Shared configuration for the per-figure benchmark harness.

Profiles (select with ``REPRO_BENCH_PROFILE``):

* ``quick`` (default) — h=2 network (the paper's Fig. 1 scale), short
  warmup/measurement windows, 1 seed, coarse load grids.  Regenerates
  every figure/table in ~15-25 minutes on a laptop.
* ``full`` — longer windows, 2 seeds, denser load grids, and the fairness
  tables additionally at h=4 where the in-transit starvation is stronger.

Each benchmark writes its rendered output under ``benchmarks/results/`` so
the artifacts survive pytest's output capture, and prints it as well.
"""

from __future__ import annotations

import os
import pathlib

from repro.config import SimulationConfig, small_config

__all__ = [
    "PROFILE",
    "bench_config",
    "fairness_config",
    "loads_for",
    "seeds",
    "write_result",
]

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick")

_RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def bench_config(**overrides) -> SimulationConfig:
    """Base config for performance sweeps (always the h=2 system)."""
    if PROFILE == "full":
        cfg = small_config(warmup_cycles=1500, measure_cycles=4000)
    else:
        cfg = small_config(warmup_cycles=800, measure_cycles=1500)
    return cfg.with_(**overrides) if overrides else cfg


def fairness_config() -> SimulationConfig:
    """Config for the fairness tables (h=4 under the full profile)."""
    if PROFILE == "full":
        cfg = small_config(warmup_cycles=800, measure_cycles=1500)
        return cfg.with_network(p=4, a=8, h=4)
    return bench_config()


def seeds() -> int:
    """Seeds averaged per point (paper: 3)."""
    return 2 if PROFILE == "full" else 1


def loads_for(pattern: str, *, dense: bool = False) -> list[float]:
    """Offered-load grid per traffic pattern."""
    if PROFILE == "full" or dense:
        grids = {
            "uniform": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            "adversarial": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            "advc": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        }
    else:
        grids = {
            "uniform": [0.2, 0.4, 0.6, 0.8],
            "adversarial": [0.1, 0.25, 0.4, 0.55],
            "advc": [0.1, 0.2, 0.3, 0.4, 0.5],
        }
    return grids[pattern]


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist rendered benchmark output under benchmarks/results/."""
    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)
    return path
