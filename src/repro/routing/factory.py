"""Routing mechanism factory keyed by the paper's legend names.

Each mechanism's ``decide`` exists twice: the Python method of its
module, which the python backend runs and which is the reference, and a
C twin per family in ``engine/_ckernel.c`` for the compiled backend —
``c_min_decide`` (the minimal walk to the destination router),
``c_oblivious_decide`` (``obl-*``) and ``c_piggyback_decide``
(``src-*``), which freeze the packet's plan the first time it heads its
injection queue and then walk to the plan's target (PiggyBack reading
its saturation bits from the snapshot rows of the SoA store), and
``c_intransit_decide`` (``in-trns-*``, ``decide`` and the two misroute
helpers it calls).  A twin hands back the decision with the purity and
guard the kernel's own decision memo needs (a Python ``decide`` is never
memoized), draws the same words from an in-kernel MT19937 mirror of
``routing.rng`` (so ``rng_routing.getstate()`` after a compiled run
equals the python backend's), and on any branch where the reference
raises or cannot return calls the Python method, from identical state,
for its exact exception.  :func:`decide_twin` is the one statement of
which runs; ``repro profile`` names it, and ``tests/test_routing_twin.py``
compares the two on networks where every branch draws.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import MisroutePolicy
from repro.routing.oblivious import ObliviousValiantRouting
from repro.routing.piggyback import PiggybackGroupState, PiggybackRouting

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


def _own(cls, *names: str) -> dict:
    return {name: vars(cls)[name] for name in names}


# The mechanisms whose ``decide`` the compiled kernel reimplements (the
# ``c_*_decide`` functions of engine/_ckernel.c), each with every function
# of the class its twin was written against: ``decide`` and the helpers
# ``decide`` calls, which the twin replaces along with it.
_DECIDE_TWINS = {
    MinimalRouting: ("min", _own(MinimalRouting, "decide")),
    ObliviousValiantRouting: (
        "oblivious",
        _own(ObliviousValiantRouting, "decide", "_choose_intermediate"),
    ),
    PiggybackRouting: (
        "piggyback",
        _own(
            PiggybackRouting,
            "decide",
            "_min_path_saturated",
            "_nonmin_candidate",
            "_local_link_saturated",
        ),
    ),
    InTransitAdaptiveRouting: (
        "in-transit",
        _own(
            InTransitAdaptiveRouting,
            "decide",
            "_try_global_misroute",
            "_try_local_misroute",
        ),
    ),
}


def decide_twin(routing) -> str | None:
    """Kind of C twin the compiled kernel runs for ``routing.decide``.

    ``None`` means the kernel calls the Python method.  A twin is only a
    faithful stand-in for the code it was written against, so it is
    selected iff ``type(routing)`` is *exactly* one of the twinned
    classes and every function the twin replaces — ``decide`` and the
    helpers it calls — is that class's own, unpatched function: a
    subclass, an instance with one of them shadowed, or a monkeypatched
    class all get their Python ``decide`` called.  The twins that draw
    random numbers do so natively from ``routing.rng``, which requires a
    plain :class:`random.Random`, and the PiggyBack twin keeps the
    saturation snapshot itself, which requires every group's state to be
    a plain :class:`PiggybackGroupState`.  Nothing else enters the rule:
    in particular not the mechanism's ``name`` and not whether the cell's
    traffic is lowered.
    """
    cls = type(routing)
    kind, written_against = _DECIDE_TWINS.get(cls, (None, {}))
    if kind is None:
        return None
    for name, reference in written_against.items():
        if name in vars(routing) or getattr(cls, name) is not reference:
            return None
    if kind != "min" and type(routing.rng) is not random.Random:
        return None
    if kind == "piggyback" and any(
        type(state) is not PiggybackGroupState for state in routing.groups_state
    ):
        return None
    return kind
