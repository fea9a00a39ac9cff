"""The :class:`Packet`: unit of injection, allocation and transmission.

Packets are 8 phits by default (Table I).  Buffer occupancy, credits and
link serialisation are all accounted in phits, but allocation decisions and
events happen per packet (virtual cut-through forwards whole packets).

A packet carries its own latency ledger so the Figure 3 decomposition is
exact by construction:

``total = injection_wait + wait_local + wait_global + base + misroute``

where ``base`` is the contention-free service time of the *minimal* path,
``misroute = service_sum - base`` is the extra contention-free service of
the path actually taken, and the two wait buckets accumulate measured
queueing at local/global input queues and output FIFOs.
"""

from __future__ import annotations

__all__ = ["Packet"]


class Packet:
    """Mutable per-packet simulation state.

    Routing-mechanism state is intentionally flattened into this class
    (``plan``, ``inter_router``, ``inter_group``) instead of a per-mechanism
    side table: the python backend's allocator touches packets millions of
    times per run, and there attribute access on one ``__slots__`` object
    is the cheapest layout.  The compiled backend keeps a packet as a row
    with one int64 column per field for the length of a drain, and builds
    the object only where Python sees the packet; every field must
    therefore stay an int, and a field added here needs its column in
    ``engine/_ckernel.c`` (the extension's import checks the two lists).

    Plan codes (``plan``): 0 = undecided, 1 = committed minimal,
    2 = committed Valiant (through ``inter_router``).  Only source-routed
    mechanisms (oblivious, PiggyBack) use the plan; in-transit adaptive
    routing uses ``inter_group`` (set when a global misroute is committed,
    reset to -1 on arrival in the intermediate group).
    """

    __slots__ = (
        "pid",
        "size",
        "src_node",
        "src_router",
        "src_group",
        "dst_node",
        "dst_router",
        "dst_group",
        "dst_local_router",
        "dst_node_port",
        "gen_time",
        "inject_time",
        "t_enq",
        "wait_local",
        "wait_global",
        "service_sum",
        "base_latency",
        "local_hops",
        "global_hops",
        "group_local_hops",
        "current_group",
        "plan",
        "inter_router",
        "inter_group",
    )

    def __init__(
        self,
        pid: int,
        size: int,
        src_node: int,
        src_router: int,
        src_group: int,
        dst_node: int,
        dst_router: int,
        dst_group: int,
        dst_local_router: int,
        dst_node_port: int,
        gen_time: int,
        base_latency: int,
    ) -> None:
        self.pid = pid
        self.size = size
        self.src_node = src_node
        self.src_router = src_router
        self.src_group = src_group
        self.dst_node = dst_node
        self.dst_router = dst_router
        self.dst_group = dst_group
        self.dst_local_router = dst_local_router
        self.dst_node_port = dst_node_port
        self.gen_time = gen_time
        self.inject_time = -1
        self.t_enq = gen_time
        self.wait_local = 0
        self.wait_global = 0
        self.service_sum = 0
        self.base_latency = base_latency
        self.local_hops = 0
        self.global_hops = 0
        self.group_local_hops = 0
        self.current_group = src_group
        self.plan = 0
        self.inter_router = -1
        self.inter_group = -1

    # ------------------------------------------------------------------
    @property
    def injected(self) -> bool:
        """True once the packet won switch allocation at its source router."""
        return self.inject_time >= 0

    def latency(self, deliver_time: int) -> int:
        """End-to-end latency if delivered at *deliver_time*."""
        return deliver_time - self.gen_time

    def injection_wait(self) -> int:
        """Cycles spent at the head/inside of the injection queue."""
        if self.inject_time < 0:
            raise ValueError(f"packet {self.pid} was never injected")
        return self.inject_time - self.gen_time

    def misroute_latency(self) -> int:
        """Contention-free service of the taken path beyond the minimal path."""
        return self.service_sum - self.base_latency

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(pid={self.pid}, {self.src_node}->{self.dst_node}, "
            f"plan={self.plan}, hops=l{self.local_hops}/g{self.global_hops})"
        )
