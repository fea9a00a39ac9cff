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
"""

from __future__ import annotations

from repro.engine.soa import (
    SF_BD_BASE,
    SF_BD_GLOBAL,
    SF_BD_INJ,
    SF_BD_LOCAL,
    SF_BD_MIS,
    SF_LAT_M2,
    SF_LAT_MAX,
    SF_LAT_MEAN,
    SF_LAT_MIN,
    SI_DEL_PACKETS,
    SI_DEL_PHITS,
    SI_GEN_PACKETS,
    SI_GEN_PHITS,
    SI_TOTAL_DELIVERED,
    SI_TOTAL_GENERATED,
    SI_TOTAL_INJECTED,
)
from repro.hardware.packet import Packet
from repro.metrics.latency import LatencyBreakdown
from repro.utils.stats import OnlineStats

__all__ = ["StatsCollector"]


class StatsCollector:
    """Accumulates all simulation statistics for one run."""

    __slots__ = (
        "window_start",
        "window_end",
        "num_routers",
        "num_nodes",
        "generated_phits",
        "generated_packets",
        "delivered_phits",
        "delivered_packets",
        "latency",
        "breakdown",
        "injected_per_router",
        "delivered_per_router",
        "total_generated",
        "total_injected",
        "total_delivered",
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
    ) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.num_routers = num_routers
        self.num_nodes = num_nodes
        self.generated_phits = 0
        self.generated_packets = 0
        self.delivered_phits = 0
        self.delivered_packets = 0
        self.latency = OnlineStats()
        self.breakdown = LatencyBreakdown()
        self.injected_per_router = [0] * num_routers
        self.delivered_per_router = [0] * num_routers
        self.total_generated = 0
        self.total_injected = 0
        self.total_delivered = 0
        self.check_decomposition = check_decomposition

    # ------------------------------------------------------------------
    def in_window(self, now: int) -> bool:
        """True when *now* falls inside the measurement window."""
        return self.window_start <= now < self.window_end

    def on_generate(self, now: int, size: int) -> None:
        """A node created a packet of *size* phits."""
        self.total_generated += 1
        if self.window_start <= now < self.window_end:
            self.generated_phits += size
            self.generated_packets += 1

    def on_injection(self, router_id: int, now: int) -> None:
        """A packet won switch allocation from an injection port."""
        self.total_injected += 1
        if self.window_start <= now < self.window_end:
            self.injected_per_router[router_id] += 1

    def on_delivery(self, pkt: Packet, now: int) -> None:
        """A packet's tail reached its destination node.

        Signature-compatible with the engine's ejection sink
        (``sink(pkt, now)``), so oracle-less runs dispatch ``OP_DELIVER``
        records straight into the collector.
        """
        self.total_delivered += 1
        if not (self.window_start <= now < self.window_end):
            return
        self.delivered_phits += pkt.size
        self.delivered_packets += 1
        self.delivered_per_router[pkt.dst_router] += 1
        total = now - pkt.gen_time
        self.latency.add(total)
        inj = pkt.inject_time - pkt.gen_time
        base = pkt.base_latency
        mis = pkt.service_sum - base
        self.breakdown.add(inj, pkt.wait_local, pkt.wait_global, base, mis)
        if self.check_decomposition:
            parts = inj + pkt.wait_local + pkt.wait_global + base + mis
            if parts != total:
                raise AssertionError(
                    f"latency decomposition broken for packet {pkt.pid}: "
                    f"{parts} != {total} (inj={inj}, l={pkt.wait_local}, "
                    f"g={pkt.wait_global}, base={base}, mis={mis})"
                )

    # ------------------------------------------------------------------
    def absorb_window(self, stat_i, stat_f, injected, delivered) -> None:
        """Fold a lowered run's flat accumulators into this collector.

        The engine's lowered OP_GEN / OP_DELIVER fast path (see
        :class:`repro.engine.kernel.LowerState`) accumulates the window
        statistics this collector would normally build per event into
        flat int64/float64 blocks on the SoA store; ``Simulation.
        _collect`` hands them here exactly once.  The fold
        is bit-exact: counters add, the latency Welford state transfers
        by direct field assignment (this collector saw no per-event adds
        in a lowered run, and ``merge`` of an empty accumulator is *not*
        an IEEE identity), and integer-valued min/max re-integerise so
        serialized results stay byte-identical to unlowered runs.
        """
        self.total_generated += stat_i[SI_TOTAL_GENERATED]
        self.total_injected += stat_i[SI_TOTAL_INJECTED]
        self.total_delivered += stat_i[SI_TOTAL_DELIVERED]
        self.generated_phits += stat_i[SI_GEN_PHITS]
        self.generated_packets += stat_i[SI_GEN_PACKETS]
        self.delivered_phits += stat_i[SI_DEL_PHITS]
        n = stat_i[SI_DEL_PACKETS]
        self.delivered_packets += n
        ipr = self.injected_per_router
        for rid, c in enumerate(injected):
            if c:
                ipr[rid] += c
        dpr = self.delivered_per_router
        for rid, c in enumerate(delivered):
            if c:
                dpr[rid] += c
        if not n:
            return
        mn = stat_f[SF_LAT_MIN]
        mx = stat_f[SF_LAT_MAX]
        imn = int(mn)
        imx = int(mx)
        lat = self.latency
        if lat.n == 0:
            lat.n = n
            lat._mean = stat_f[SF_LAT_MEAN]
            lat._m2 = stat_f[SF_LAT_M2]
            lat._min = imn if imn == mn else mn
            lat._max = imx if imx == mx else mx
        else:
            # Mixed per-event + lowered accounting (not produced by the
            # engine, but keep the fold total rather than silently wrong).
            other = OnlineStats()
            other.n = n
            other._mean = stat_f[SF_LAT_MEAN]
            other._m2 = stat_f[SF_LAT_M2]
            other._min = imn if imn == mn else mn
            other._max = imx if imx == mx else mx
            merged = lat.merge(other)
            lat.n = merged.n
            lat._mean = merged._mean
            lat._m2 = merged._m2
            lat._min = merged._min
            lat._max = merged._max
        bd = self.breakdown
        bd.packets += n
        bd.injection += stat_f[SF_BD_INJ]
        bd.local += stat_f[SF_BD_LOCAL]
        bd.global_ += stat_f[SF_BD_GLOBAL]
        bd.base += stat_f[SF_BD_BASE]
        bd.misroute += stat_f[SF_BD_MIS]

    # ------------------------------------------------------------------
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
