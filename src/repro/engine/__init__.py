"""Cycle-quantised discrete-event engine (activation queue).

This replaces FOGSim's global cycle loop: instead of ticking every router
every cycle, components post typed activation records at integer cycle
times and idle components cost nothing.  Router pipelines are activated
at most once per (router × cycle) via dirty-marked ``OP_STEP`` tokens and
run arbitration → commit as one consolidated :meth:`Router.step
<repro.hardware.router.Router.step>` call.  Events are packet-granular
because virtual cut-through forwards whole packets (see
:mod:`repro.hardware.packet`); README "Engine architecture" has the
intra-cycle phase order and the bit-identical replay contract.
"""

from repro.engine.events import (
    OP_ARRIVE,
    OP_CALL,
    OP_CREDIT,
    OP_DELIVER,
    OP_GEN,
    OP_LINK,
    OP_OUT_ARRIVE,
    OP_RELEASE,
    OP_SEND,
    OP_STEP,
    EventQueue,
)

__all__ = [
    "EventQueue",
    "OP_CALL",
    "OP_STEP",
    "OP_ARRIVE",
    "OP_OUT_ARRIVE",
    "OP_SEND",
    "OP_LINK",
    "OP_RELEASE",
    "OP_CREDIT",
    "OP_DELIVER",
    "OP_GEN",
]
