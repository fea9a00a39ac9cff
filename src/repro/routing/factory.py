"""The routing catalogue: one :class:`Mechanism` row per legend name.

Section II-C builds every non-minimal mechanism from two choices: *where*
a packet may leave the minimal path — the row's class: oblivious Valiant,
source-adaptive PiggyBack, or in-transit PAR + OLM — and *which*
candidates it may take — the row's ``source`` (at the source router) and
``transit`` (at the PAR second decision point; None when source-routed)
candidate sets, ``CRG`` / ``NRG`` / ``RRG`` of
:mod:`repro.routing.misrouting`.  MM is CRG at the source and NRG in
transit.  :func:`make_routing` builds a row's class with the row, which
the class and its C twin both read.

Each class's ``decide`` exists twice: the Python method, which the python
backend runs and which is the reference, and a C twin per class in
``engine/_ckernel.c`` for the compiled backend — ``c_min_decide`` (the
minimal walk to the destination router), ``c_oblivious_decide``
(``obl-*``) and ``c_piggyback_decide`` (``src-*``), which freeze the
packet's plan the first time it heads its injection queue and then walk
to the plan's target (PiggyBack reading its saturation bits from the
snapshot rows of the SoA store), and ``c_intransit_decide``
(``in-trns-*``, ``decide`` and the two misroute helpers it calls).  A twin
reads the row's ``source`` / ``transit`` as ints, hands back the decision
with the purity and guard the kernel's own decision memo needs (a Python
``decide`` is never memoized), draws the same words from an in-kernel
MT19937 mirror of ``routing.rng`` (so ``rng_routing.getstate()`` after a
compiled run equals the python backend's), and on any branch where the
reference raises calls the Python method, from identical state, for its
exact exception.  :func:`decide_twin` is the one statement of which runs;
``repro profile`` names it, and ``tests/test_routing_twin.py`` compares
the two on networks where every branch draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import FunctionType

from repro.errors import ConfigurationError
from repro.routing.base import RoutingMechanism
from repro.routing.intransit import InTransitAdaptiveRouting
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import CRG, NRG, RRG
from repro.routing.oblivious import ObliviousValiantRouting
from repro.routing.piggyback import PiggybackRouting

__all__ = ["MECHANISMS", "Mechanism", "ROUTING_NAMES", "decide_twin", "make_routing"]


@dataclass(frozen=True)
class Mechanism:
    """One routing mechanism: its name, the class that routes it and its
    candidate sets at the source router and in transit."""

    name: str
    cls: type
    source: int | None = None
    transit: int | None = None


#: every mechanism evaluated in the paper, in figure-legend order
MECHANISMS = {
    m.name: m
    for m in (
        Mechanism("min", MinimalRouting),
        Mechanism("obl-rrg", ObliviousValiantRouting, RRG),
        Mechanism("obl-crg", ObliviousValiantRouting, CRG),
        Mechanism("src-rrg", PiggybackRouting, RRG),
        Mechanism("src-crg", PiggybackRouting, CRG),
        Mechanism("in-trns-rrg", InTransitAdaptiveRouting, RRG, RRG),
        Mechanism("in-trns-crg", InTransitAdaptiveRouting, CRG, CRG),
        Mechanism("in-trns-mm", InTransitAdaptiveRouting, CRG, NRG),
    )
}
ROUTING_NAMES = tuple(MECHANISMS)


def make_routing(name: str, sim):
    """Instantiate the routing mechanism *name* bound to *sim*."""
    try:
        m = MECHANISMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown routing mechanism {name!r}; expected one of {ROUTING_NAMES}"
        ) from None
    return m.cls(sim, m)


def _functions(cls) -> dict:
    """Every function *cls* has from itself and its routing bases."""
    names = {
        name
        for base in cls.__mro__
        if issubclass(base, RoutingMechanism)
        for name, value in vars(base).items()
        if isinstance(value, FunctionType)
    }
    return {name: getattr(cls, name) for name in names}


# The code each catalogue class's C twin was written against, as imported.
_WRITTEN_AGAINST = {m.cls: _functions(m.cls) for m in MECHANISMS.values()}


def decide_twin(routing) -> str | None:
    """Kind of C twin the compiled kernel runs for ``routing.decide``.

    ``None`` means the kernel calls the Python method.  A twin is only a
    faithful stand-in for the code it was written against, so it is
    selected iff ``type(routing)`` is *exactly* its row's class, that class
    is one of the catalogue's, and no function of the class or of its
    routing bases differs from the one imported: a subclass, an instance
    with a function shadowed, or a class with one monkeypatched all get
    their Python ``decide`` called.  The twins that draw random numbers do
    so natively from ``routing.rng``, which requires a plain
    :class:`random.Random`.  Nothing else enters the rule: in particular
    not the row's name and not whether the cell's traffic is lowered.
    """
    cls = type(routing)
    written_against = _WRITTEN_AGAINST.get(cls)
    if written_against is None or cls is not routing.mechanism.cls:
        return None
    for name, reference in written_against.items():
        if name in vars(routing) or getattr(cls, name) is not reference:
            return None
    if cls.twin != "min" and type(routing.rng) is not random.Random:
        return None
    return cls.twin
