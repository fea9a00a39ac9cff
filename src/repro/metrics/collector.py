"""The :class:`StatsCollector`: measurement-window accounting.

The hooks sit on the engine's *phase boundaries* rather than on
per-event callbacks: :meth:`~StatsCollector.on_generate` fires inside
the generator activation, :meth:`~StatsCollector.on_injection` inside
the commit phase of a router activation (:meth:`Router.step
<repro.hardware.router.Router.step>`), and
:meth:`~StatsCollector.on_delivery` is the queue's ejection sink — when
no oracle audits deliveries the simulation binds it as the ``OP_DELIVER``
dispatch target directly, with no intermediate callback frame.

Mirrors FOGSim's methodology (Section IV-A): the network warms up for
``warmup_cycles``, then statistics are tracked for ``measure_cycles``:

* offered load  = phits *generated* in the window / (nodes x cycles);
* accepted load = phits *delivered* in the window / (nodes x cycles);
* latency       = mean over packets delivered in the window (their full
  life, including time spent before the window opened);
* per-router injection counts = switch-allocation grants from injection
  ports during the window (the quantity plotted in Figures 4/6).

All-time counters (independent of the window) feed the deadlock watchdog
and conservation checks.

Everything is accumulated in four flat buffers the collector owns, and
the read API is a view over them: ``si`` (``NSTAT_I`` integer counters,
``SI_*`` slots), ``sf`` (``NSTAT_F`` floats: the latency Welford state
and the breakdown sums, ``SF_*`` slots) and the router-indexed
``injected_per_router`` / ``delivered_per_router``.  They are lists for
the pure-Python kernel and ``array('q')`` / ``array('d')`` for the
compiled one (the buffer modes of :mod:`repro.engine.soa`), which maps
them on a lowered cell and accumulates there with C twins of the three
hooks — so the slot layout below is shared with ``_ckernel.c`` and with
nothing else, and a lowered and a callback run leave the same memory
behind.
"""

from __future__ import annotations

from math import inf

from repro.engine.soa import _float_buffer, _int_buffer
from repro.hardware.packet import Packet
from repro.metrics.latency import LatencyBreakdown
from repro.utils.stats import OnlineStats

__all__ = ["StatsCollector"]

# ---- stat block layout (the same numbers are #defined in _ckernel.c) ----
SI_TOTAL_GENERATED = 0
SI_TOTAL_INJECTED = 1
SI_TOTAL_DELIVERED = 2
SI_GEN_PHITS = 3
SI_GEN_PACKETS = 4
SI_DEL_PHITS = 5
SI_DEL_PACKETS = 6
NSTAT_I = 7

SF_LAT_MEAN = 0
SF_LAT_M2 = 1
SF_LAT_MIN = 2
SF_LAT_MAX = 3
SF_BD_INJ = 4
SF_BD_LOCAL = 5
SF_BD_GLOBAL = 6
SF_BD_BASE = 7
SF_BD_MIS = 8
NSTAT_F = 9


def _counter(slot: int, doc: str) -> property:
    """Read-only view of one ``si`` slot."""
    return property(lambda self: self.si[slot], doc=doc)


class StatsCollector:
    """Accumulates all simulation statistics for one run."""

    __slots__ = (
        "window_start",
        "window_end",
        "num_routers",
        "num_nodes",
        "si",
        "sf",
        "injected_per_router",
        "delivered_per_router",
        "check_decomposition",
    )

    def __init__(
        self,
        window_start: int,
        window_end: int,
        num_routers: int,
        num_nodes: int,
        *,
        check_decomposition: bool = False,
        typed: bool = False,
    ) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.num_routers = num_routers
        self.num_nodes = num_nodes
        # Mutated in place and never reassigned: the compiled kernel
        # holds buffer views of all four for the lifetime of its state.
        self.si = _int_buffer(NSTAT_I, typed)
        self.sf = _float_buffer(NSTAT_F, typed)
        self.injected_per_router = _int_buffer(num_routers, typed)
        self.delivered_per_router = _int_buffer(num_routers, typed)
        self.sf[SF_LAT_MIN] = inf
        self.sf[SF_LAT_MAX] = -inf
        self.check_decomposition = check_decomposition

    # ------------------------------------------------------------------
    def on_generate(self, now: int, size: int) -> None:
        """A node created a packet of *size* phits."""
        si = self.si
        si[SI_TOTAL_GENERATED] += 1
        if self.window_start <= now < self.window_end:
            si[SI_GEN_PHITS] += size
            si[SI_GEN_PACKETS] += 1

    def on_injection(self, router_id: int, now: int) -> None:
        """A packet won switch allocation from an injection port."""
        self.si[SI_TOTAL_INJECTED] += 1
        if self.window_start <= now < self.window_end:
            self.injected_per_router[router_id] += 1

    def on_delivery(self, pkt: Packet, now: int) -> None:
        """A packet's tail reached its destination node.

        Signature-compatible with the engine's ejection sink
        (``sink(pkt, now)``), so oracle-less runs dispatch ``OP_DELIVER``
        records straight into the collector.  The Welford update has the
        operation order of ``OnlineStats.add`` (and of ``c_deliver``),
        so mean and M2 are the same floats on every path.
        """
        si = self.si
        si[SI_TOTAL_DELIVERED] += 1
        if not (self.window_start <= now < self.window_end):
            return
        si[SI_DEL_PHITS] += pkt.size
        n = si[SI_DEL_PACKETS] + 1
        si[SI_DEL_PACKETS] = n
        self.delivered_per_router[pkt.dst_router] += 1
        sf = self.sf
        total = now - pkt.gen_time
        mean = sf[SF_LAT_MEAN]
        delta = total - mean
        mean += delta / n
        sf[SF_LAT_MEAN] = mean
        sf[SF_LAT_M2] += delta * (total - mean)
        if total < sf[SF_LAT_MIN]:
            sf[SF_LAT_MIN] = total
        if total > sf[SF_LAT_MAX]:
            sf[SF_LAT_MAX] = total
        inj = pkt.inject_time - pkt.gen_time
        base = pkt.base_latency
        mis = pkt.service_sum - base
        sf[SF_BD_INJ] += inj
        sf[SF_BD_LOCAL] += pkt.wait_local
        sf[SF_BD_GLOBAL] += pkt.wait_global
        sf[SF_BD_BASE] += base
        sf[SF_BD_MIS] += mis
        if self.check_decomposition:
            parts = inj + pkt.wait_local + pkt.wait_global + base + mis
            if parts != total:
                raise AssertionError(
                    f"latency decomposition broken for packet {pkt.pid}: "
                    f"{parts} != {total} (inj={inj}, l={pkt.wait_local}, "
                    f"g={pkt.wait_global}, base={base}, mis={mis})"
                )

    # ------------------------------------------------------------------
    # all-time, then measurement-window, counters
    total_generated = _counter(SI_TOTAL_GENERATED, "Packets generated.")
    total_injected = _counter(SI_TOTAL_INJECTED, "Packets injected.")
    total_delivered = _counter(SI_TOTAL_DELIVERED, "Packets delivered.")
    generated_phits = _counter(SI_GEN_PHITS, "Phits generated in the window.")
    generated_packets = _counter(SI_GEN_PACKETS, "Packets generated in the window.")
    delivered_phits = _counter(SI_DEL_PHITS, "Phits delivered in the window.")
    delivered_packets = _counter(SI_DEL_PACKETS, "Packets delivered in the window.")

    @property
    def latency(self) -> OnlineStats:
        """Latency statistics of the packets delivered in the window."""
        out = OnlineStats()
        n = self.si[SI_DEL_PACKETS]
        if n:
            sf = self.sf
            out.n = n
            out._mean = sf[SF_LAT_MEAN]
            out._m2 = sf[SF_LAT_M2]
            # A typed block holds the extremes as doubles; integer-valued
            # ones read back as ints so serialized results are the same
            # bytes in both buffer modes.
            mn = sf[SF_LAT_MIN]
            mx = sf[SF_LAT_MAX]
            out._min = int(mn) if mn == int(mn) else mn
            out._max = int(mx) if mx == int(mx) else mx
        return out

    @property
    def breakdown(self) -> LatencyBreakdown:
        """Latency component sums of the packets delivered in the window."""
        sf = self.sf
        return LatencyBreakdown(
            self.si[SI_DEL_PACKETS],
            sf[SF_BD_INJ],
            sf[SF_BD_LOCAL],
            sf[SF_BD_GLOBAL],
            sf[SF_BD_BASE],
            sf[SF_BD_MIS],
        )

    @property
    def measure_cycles(self) -> int:
        """Length of the measurement window."""
        return self.window_end - self.window_start

    def offered_load(self) -> float:
        """Measured offered load in phits/(node*cycle)."""
        return self.generated_phits / (self.num_nodes * self.measure_cycles)

    def accepted_load(self) -> float:
        """Measured accepted load in phits/(node*cycle)."""
        return self.delivered_phits / (self.num_nodes * self.measure_cycles)

    def in_flight(self) -> int:
        """Packets injected into the network but not yet delivered."""
        return self.total_injected - self.total_delivered
