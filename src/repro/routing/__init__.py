"""Routing mechanisms and global misrouting candidate sets.

The paper's legend is :data:`~repro.routing.factory.MECHANISMS`, one
:class:`~repro.routing.factory.Mechanism` row per name (built via
:func:`make_routing`): the class that routes it and its candidate sets at
the source router and at the PAR second decision point.

=============== ====================================== ====== =======
Name            Class                                  source transit
=============== ====================================== ====== =======
``min``         ``MinimalRouting`` (oblivious)
``obl-rrg``     ``ObliviousValiantRouting`` (Valiant)  RRG
``obl-crg``     ``ObliviousValiantRouting``            CRG
``src-rrg``     ``PiggybackRouting`` (source-adaptive) RRG
``src-crg``     ``PiggybackRouting``                   CRG
``in-trns-rrg`` ``InTransitAdaptiveRouting`` (PAR+OLM) RRG    RRG
``in-trns-crg`` ``InTransitAdaptiveRouting``           CRG    CRG
``in-trns-mm``  ``InTransitAdaptiveRouting``           CRG    NRG
=============== ====================================== ====== =======
"""

from repro.routing.base import RoutingMechanism, eject_decision, min_hop_port
from repro.routing.factory import MECHANISMS, ROUTING_NAMES, Mechanism, make_routing
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import crg_candidates, nrg_candidates, rrg_candidates
from repro.routing.oblivious import ObliviousValiantRouting
from repro.routing.piggyback import PiggybackRouting
from repro.routing.intransit import InTransitAdaptiveRouting

__all__ = [
    "InTransitAdaptiveRouting",
    "MECHANISMS",
    "Mechanism",
    "MinimalRouting",
    "ObliviousValiantRouting",
    "PiggybackRouting",
    "ROUTING_NAMES",
    "RoutingMechanism",
    "crg_candidates",
    "eject_decision",
    "make_routing",
    "min_hop_port",
    "nrg_candidates",
    "rrg_candidates",
]
