"""Traffic pattern interface.

A pattern is a destination chooser: given a source node and an RNG it
returns the destination node id for one packet, or ``None`` when the
source generates nothing this time (used by partial-occupancy patterns
like :class:`repro.traffic.JobTraffic` and the time-varying scenario
wrappers in :mod:`repro.traffic.scenarios`).  Patterns also expose
:meth:`active` so the generator can skip scheduling event chains for
permanently idle nodes.

Contract of :meth:`TrafficPattern.dest` (enforced at the engine
boundary by :class:`repro.core.simulation.Simulation`):

* a non-``None`` return value must be a valid node id in
  ``[0, topo.num_nodes)`` and must differ from ``src_node`` — the
  engine raises :class:`repro.errors.SimulationError` otherwise;
* ``None`` means "this source generates nothing right now" and is
  always legal: permanently idle nodes (``active() is False``), nodes
  outside a burst window, jobs that have not started yet, or load
  thinning.  The engine silently skips the cycle.

Time-varying patterns additionally need a clock: the simulation calls
:meth:`bind_clock` with its event engine after construction, and the
wrapper reads ``engine.now`` inside ``dest``.  Patterns that never look
at the clock inherit the no-op default.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.topology.dragonfly import DragonflyTopology

__all__ = ["TrafficPattern"]


class TrafficPattern(ABC):
    """Destination chooser bound to a topology."""

    #: pattern name used in reports
    name: str = "?"

    def __init__(self, topo: DragonflyTopology) -> None:
        self.topo = topo

    @abstractmethod
    def dest(self, src_node: int, rng: random.Random) -> int | None:
        """Destination node for one packet from *src_node* (or ``None``)."""

    def active(self, node: int) -> bool:
        """Whether *node* ever generates traffic (default: yes)."""
        return True

    def bind_clock(self, engine) -> None:
        """Attach the event engine whose ``now`` time-varying patterns read.

        Called once by the simulation after construction; the default is
        a no-op for time-invariant patterns.
        """

    def job_of(self, node: int) -> int | None:
        """Index of the job *node* belongs to, or ``None``.

        Patterns without job structure return ``None`` for every node;
        the simulation oracle uses this hook for per-job accounting.
        """
        return None

    def lower(self) -> tuple | None:
        """Lowering descriptor for the in-kernel generator, or ``None``.

        A pattern that can be evaluated without Python — stationary,
        total (never returns ``None`` from :meth:`dest`), every node
        ``active()``, and whose RNG consumption is a fixed recipe over
        ``random()`` / ``getrandbits`` — may return a flat tuple whose
        first element names the recipe; on the compiled backend the
        kernel's lowered generator (``c_gen`` in ``engine/_ckernel.c``)
        interprets it instead of calling :meth:`dest`, and must reproduce
        it bit-exactly, draw for draw (the python backend always calls
        :meth:`dest`, the reference ``c_gen`` is tested against).
        Recognised shapes:

        * ``("uniform", n1, n1_bits)`` — rejection-sample ``d`` from
          ``getrandbits(n1_bits)`` until ``d < n1``; destination is
          ``d if d < src else d + 1``.
        * ``("adversarial", offset, per_group, pg_bits, groups)`` —
          target group ``(src // per_group + offset) % groups`` (Python
          modulo semantics), then one bounded draw over ``per_group``.
        * ``("advc", offsets, n_off, off_bits, per_group, pg_bits,
          groups)`` — bounded draw picks an offset, then as above.
        * ``("permutation", perm)`` — table lookup, zero RNG draws.

        The default — any time-varying, partial, or otherwise
        non-static pattern — is ``None``: keep the per-record Python
        callback path.
        """
        return None

    def describe(self) -> str:
        """Readable name for reports."""
        return self.name
