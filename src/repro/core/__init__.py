"""Simulation driver."""

from repro.core.results import SimulationResult
from repro.core.simulation import Simulation, run_simulation

__all__ = [
    "Simulation",
    "SimulationResult",
    "run_simulation",
]
