"""What the compiled kernel takes from Python is checked, by name.

* **Shared constants and packet columns.**  ``_ckernel.check_layout()``
  compares the kernel's activation opcodes (``OP_*``,
  ``engine/events.py``) and stat-block slots (``SI_*`` / ``SF_*`` /
  ``NSTAT_*``, ``metrics/collector.py``) with the Python constants of the
  same names, and the columns of its packet rows with
  ``Packet.__slots__``; the import runs it, so a renumbering on either
  side, or a ``Packet`` field the rows lack, fails the import with a
  ``RuntimeError`` naming it (which ``resolve_backend`` propagates instead
  of reporting "not built").
* **Attribute tables.**  Every object the kernel reads — event queue, SoA
  store, router, mechanism / topology, PiggyBack group state, simulation
  / collector — is read through one checked table: a wrong type or length
  raises ``TypeError`` naming the object kind and the attribute, and a
  malformed lowering descriptor a ``ValueError``.
* **Typed records.**  A record with opcode 1..9 whose target is not one of
  the store's routers, or whose field is out of range, raises
  ``FlowControlError`` on the compiled drain.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import repro.engine.events
import repro.metrics.collector
from repro.config import tiny_config
from repro.core.simulation import Simulation
from repro.engine.events import OP_GEN, OP_SEND
from repro.errors import FlowControlError
from repro.hardware.packet import Packet
from test_engine_backends import needs_compiled

pytestmark = needs_compiled

SRC = Path(__file__).resolve().parents[1] / "src"


def _shared_names() -> list[str]:
    stat = ("SI_", "SF_", "NSTAT_")
    ops = [n for n in vars(repro.engine.events) if n.startswith("OP_")]
    slots = [n for n in vars(repro.metrics.collector) if n.startswith(stat)]
    return ops + slots


def test_check_layout_compares_every_shared_constant():
    from repro.engine import _ckernel

    assert len(_shared_names()) == 28 and len(Packet.__slots__) == 24
    assert _ckernel.check_layout() == 28 + 24


@pytest.mark.parametrize(
    "module, name",
    [(repro.engine.events, "OP_GEN"), (repro.metrics.collector, "SF_BD_MIS")],
)
def test_a_renumbered_constant_is_named(monkeypatch, module, name):
    from repro.engine import _ckernel

    monkeypatch.setattr(module, name, 11 if name.startswith("OP_") else 42)
    with pytest.raises(RuntimeError, match=rf"\.{name} is \d+, but _ckernel"):
        _ckernel.check_layout()


@pytest.mark.parametrize(
    "slots, message",
    [
        (Packet.__slots__ + ("trigger",), "Packet.trigger has no packet-row column"),
        (Packet.__slots__[1:], "Packet has 23 fields, but _ckernel.c has 24"),
    ],
    ids=["field-added", "field-removed"],
)
def test_a_packet_field_without_a_column_is_named(monkeypatch, slots, message):
    """A row turned back into a ``Packet`` would silently drop a field
    the kernel has no column for."""
    from repro.engine import _ckernel

    monkeypatch.setattr(Packet, "__slots__", slots)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        _ckernel.check_layout()


def _import_failure(code: str) -> str:
    """stderr of a fresh interpreter running *code*, which must fail."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode != 0
    return proc.stderr


def test_a_renumbered_constant_fails_the_import():
    """The import's own check, in a fresh interpreter: the backend
    resolution reports the mismatch rather than a missing extension."""
    stderr = _import_failure(
        "import repro.engine.events as events\n"
        "events.OP_GEN = 11\n"
        "from repro.engine.kernel import resolve_backend\n"
        "resolve_backend('auto')\n"
    )
    assert "RuntimeError: repro.engine.events.OP_GEN is 11" in stderr


def test_a_packet_field_without_a_column_fails_the_import():
    """A ``Packet`` that gained a field (as a model change might add one)
    fails the import until the extension is rebuilt with its column."""
    stderr = _import_failure(
        "from repro.hardware.packet import Packet\n"
        "Packet.__slots__ += ('trigger',)\n"
        "from repro.engine.kernel import resolve_backend\n"
        "resolve_backend('auto')\n"
    )
    assert (
        "RuntimeError: repro.hardware.packet.Packet.trigger has no packet-row "
        "column in _ckernel.c: rebuild the extension"
    ) in stderr


def _lowered_cell() -> Simulation:
    sim = Simulation(
        tiny_config(seed=2).with_traffic(pattern="uniform", load=0.3),
        engine_backend="compiled",
    )
    assert sim._lower is not None
    return sim


def _break_collector(sim):
    sim.stats.si = array("q", bytes(8 * 3))


def _break_store(sim):
    sim.soa.in_occ = list(sim.soa.in_occ)


def _break_router(sim):
    sim.routers[2].active_keys = frozenset()


def _break_twin(sim):
    sim.routing.topo = None


def _break_descriptor(sim):
    sim._lower = ("uniform", 0, 40)


def _break_permutation(sim):
    n = sim.topo.num_nodes
    sim._lower = ("permutation", (n,) * n)  # a destination beyond the nodes


@pytest.mark.parametrize(
    "breaks, error, message",
    [
        (
            _break_collector,
            TypeError,
            "TrafficGenerator.stats.si: expected an int64 ('q') buffer of 7 "
            "items (got a 'q' buffer of 24 bytes)",
        ),
        (
            _break_store,
            TypeError,
            "SoAStore.in_occ: expected an int64 ('q') buffer of ",
        ),
        (_break_router, TypeError, "Router.active_keys: expected a set (got "),
        (_break_twin, TypeError, "routing.topo.a: expected an int ("),
        (
            _break_descriptor,
            ValueError,
            "TrafficGenerator._lower: malformed pattern lowering descriptor",
        ),
        (
            _break_permutation,
            ValueError,
            "TrafficGenerator._lower: malformed pattern lowering descriptor",
        ),
    ],
    ids=["collector", "store", "router", "mechanism", "descriptor", "permutation"],
)
def test_a_bad_attribute_is_named(breaks, error, message):
    sim = _lowered_cell()
    breaks(sim)
    with pytest.raises(error, match=re.escape(message)):
        sim.run()


@pytest.mark.parametrize(
    "transit, error, message",
    [
        (3, ValueError, "routing.mechanism: candidate sets (0, 3) are not CRG"),
        (None, TypeError, "routing.mechanism.transit: expected an int ("),
    ],
    ids=["out-of-range", "none"],
)
def test_a_bad_candidate_set_is_refused(transit, error, message):
    """The in-transit twin reads its row's ``source`` / ``transit`` as
    ints, and only the three candidate sets it implements."""
    sim = Simulation(
        tiny_config(routing="in-trns-mm").with_traffic(pattern="advc", load=0.4),
        engine_backend="compiled",
    )
    sim.routing.mechanism = dataclasses.replace(sim.routing.mechanism, transit=transit)
    with pytest.raises(error, match=re.escape(message)):
        sim.run()


@pytest.mark.parametrize(
    "record, python_error",
    [
        (lambda sim: (OP_SEND, object(), 0), AttributeError),
        (lambda sim: (OP_GEN, sim.topo.num_nodes), IndexError),
    ],
    ids=["foreign-target", "node-out-of-range"],
)
def test_a_typed_record_the_kernel_cannot_hold_raises(record, python_error):
    """A callback posts a typed record whose target is not one of the
    store's routers (``object().send``), or whose field is out of range
    (a lowered generator's node beyond the network).  The compiled drain
    refuses it as it comes to run it; the python reference fails there
    too, with the ``AttributeError`` / ``IndexError`` of running it."""
    for backend in ("python", "compiled"):
        sim = Simulation(
            tiny_config(seed=1).with_traffic(pattern="uniform", load=0.3),
            engine_backend=backend,
        )
        rec = record(sim)
        sim.engine.schedule(20, lambda: sim.engine.post(sim.engine.now + 1, rec))
        if backend == "python":
            with pytest.raises(python_error):
                sim.run()
            continue
        assert sim._lower is not None
        message = f"(opcode {rec[0]}, target {rec[1]!r})"
        with pytest.raises(FlowControlError, match=re.escape(message)):
            sim.run()
        assert sim.engine.now == 21
