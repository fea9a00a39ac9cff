"""Routing mechanism factory keyed by the paper's legend names."""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import MisroutePolicy
from repro.routing.oblivious import ObliviousValiantRouting
from repro.routing.piggyback import PiggybackRouting

__all__ = ["make_routing", "decide_twin", "ROUTING_NAMES"]

#: every mechanism evaluated in the paper, in figure-legend order
ROUTING_NAMES = (
    "min",
    "obl-rrg",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-rrg",
    "in-trns-crg",
    "in-trns-mm",
)


def make_routing(name: str, sim):
    """Instantiate the routing mechanism *name* bound to *sim*."""
    if name == "min":
        return MinimalRouting(sim)
    if name == "obl-rrg":
        return ObliviousValiantRouting(sim, "rrg")
    if name == "obl-crg":
        return ObliviousValiantRouting(sim, "crg")
    if name == "src-rrg":
        return PiggybackRouting(sim, "rrg")
    if name == "src-crg":
        return PiggybackRouting(sim, "crg")
    if name == "in-trns-rrg":
        return InTransitAdaptiveRouting(sim, MisroutePolicy.RRG)
    if name == "in-trns-crg":
        return InTransitAdaptiveRouting(sim, MisroutePolicy.CRG)
    if name == "in-trns-mm":
        return InTransitAdaptiveRouting(sim, MisroutePolicy.MM)
    raise ConfigurationError(
        f"unknown routing mechanism {name!r}; expected one of {ROUTING_NAMES}"
    )


# The mechanisms whose ``decide`` the compiled kernel reimplements
# (``c_min_decide`` / ``c_intransit_decide`` in engine/_ckernel.c), with
# the exact function each twin was written against.
_DECIDE_TWINS = {
    MinimalRouting: ("min", MinimalRouting.decide),
    InTransitAdaptiveRouting: ("in-transit", InTransitAdaptiveRouting.decide),
}


def decide_twin(routing) -> str | None:
    """Name of the C twin the compiled kernel runs for ``routing.decide``.

    ``None`` means the kernel calls the Python method.  A twin is only a
    faithful stand-in for the code it was written against, so it is
    selected iff ``type(routing)`` is *exactly* one of the twinned
    classes and ``decide`` is that class's own, unpatched function — a
    subclass, an instance with ``decide`` shadowed, or a monkeypatched
    class all get their Python ``decide`` called.  The in-transit twin
    additionally draws from ``routing.rng`` natively, which requires a
    plain :class:`random.Random`.  Nothing else enters the rule: in
    particular not the mechanism's ``name`` and not whether the cell's
    traffic is lowered.
    """
    name, reference = _DECIDE_TWINS.get(type(routing), (None, None))
    if (
        reference is None
        or "decide" in vars(routing)
        or type(routing).decide is not reference
    ):
        return None
    if name == "in-transit" and type(routing.rng) is not random.Random:
        return None
    return name
