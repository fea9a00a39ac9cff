"""Structure-of-arrays store for the hot per-router engine state.

Every field the allocation pipeline touches per activation — input/output
occupancies, credits, switch/link timestamps — lives here in one *flat*
buffer per field, shared by every router of a simulation, instead of
per-:class:`~repro.hardware.router.Router` instance lists:

* **per-key fields** (one slot per input FIFO) are indexed
  ``router_id * nkeys + key`` where ``key = port * max_vcs + vc`` and
  ``nkeys = radix * max_vcs``;
* **per-port fields** are indexed ``router_id * radix + port``;
* **per-node fields** (one slot per node, i.e. per injection port) are
  indexed ``router_id * node_ports + port``;
* the **PiggyBack snapshot rows** (the periodically broadcast copy of
  every global port's occupancy) are indexed ``router_id * h + j`` for
  global port ``j``, ``router_id`` for their per-router sum and ``group``
  for the cycle the group's snapshot was last taken.

A router keeps its two base offsets (``kb = router_id * nkeys``,
``pb = router_id * radix``) and references to the shared buffers, making
it a thin view: ``router.out_occ[router.pb + port]`` is the one canonical
copy of that counter.

Two buffer modes, selected by the engine backend:

* ``typed=False`` (pure-Python kernel) — numeric fields are plain lists,
  the fastest layout for interpreted indexing;
* ``typed=True`` (compiled kernel) — numeric fields are ``array('q')``
  (int64) buffers, which the C kernel maps once through the buffer
  protocol into raw ``int64_t*`` pointers; Python-side reads and writes
  go through the identical indexing expressions either way.

Both modes hold bit-identical *values* at every point of a run — the
cross-backend equivalence suite pins that.  Object-valued fields (input
FIFOs, output FIFOs, prebuilt credit records) are flat Python lists in
both modes, and the injection tails are ``array('I')`` in both.
"""

from __future__ import annotations

from array import array

__all__ = ["SoAStore"]


def _int_buffer(n: int, typed: bool, fill: int = 0) -> "array | list[int]":
    if typed:
        buf = array("q", bytes(8 * n))
        if fill:
            for i in range(n):
                buf[i] = fill
        return buf
    return [fill] * n


def _float_buffer(n: int, typed: bool) -> "array | list[float]":
    if typed:
        return array("d", bytes(8 * n))
    return [0.0] * n


class SoAStore:
    """Flat per-field state buffers for all routers of one simulation.

    Buffers are allocated empty (zeros, ``-1`` for ``last_grant``) and
    filled segment-by-segment by each :class:`Router`'s constructor; the
    :class:`Simulation` sets :attr:`routers` once they exist.  Buffers
    are mutated in place and never reassigned nor resized, so references
    handed out (to routers, to the compiled kernel's buffer views) stay
    live for the store's lifetime.
    """

    __slots__ = (
        "num_routers",
        "radix",
        "node_ports",
        "max_vcs",
        "nkeys",
        "groups",
        "global_ports",
        "typed",
        "routers",
        # per-key: router_id * nkeys + (port * max_vcs + vc)
        "in_q",
        "in_occ",
        "in_cap",
        "key_port",
        "credits_used",
        "credit_recs",
        # per-port: router_id * radix + port
        "in_port_free",
        "out_fifo",
        "out_occ",
        "out_cap",
        "switch_free",
        "link_free",
        "out_pumping",
        "credit_nvc",
        "credit_cap",
        "last_grant",
        "local_in",
        "global_out",
        "link_lat",
        "hop_cost",
        # per-node: router_id * node_ports + port
        "inj_tail",
        "inj_tail_head",
        # PiggyBack saturation snapshot (repro.routing.piggyback)
        "pb_snap",
        "pb_snap_sum",
        "pb_snap_time",
    )

    def __init__(
        self,
        num_routers: int,
        radix: int,
        node_ports: int,
        max_vcs: int,
        groups: int,
        global_ports: int,
        *,
        typed: bool = False,
    ) -> None:
        self.num_routers = num_routers
        self.radix = radix
        self.node_ports = node_ports
        self.max_vcs = max_vcs
        self.nkeys = nkeys = radix * max_vcs
        self.groups = groups
        self.global_ports = global_ports
        self.typed = typed
        self.routers: list = []  # set by the Simulation after wiring

        K = num_routers * nkeys
        P = num_routers * radix

        # ---- per-key ---------------------------------------------------
        # in_q[gk] is the input FIFO (None for VC slots a port class does
        # not credit); plain lists, not deques — queue depth is bounded by
        # the buffer capacity, so a front-pop's memmove is a few pointers
        # while the compiled kernel gets macro-level list access instead
        # of method calls.  in_occ/in_cap count phits; key_port[gk] is the
        # *flat* input-port index (router_id * radix + port) so the scan
        # resolves key -> port with one load and no division.
        self.in_q: list[list | None] = [None] * K
        self.in_occ = _int_buffer(K, typed)
        self.in_cap = _int_buffer(K, typed)
        self.key_port = _int_buffer(K, typed)
        # credits_used[gk]: phits committed into the downstream input
        # buffer reached through the key's port/VC (flat layout; only the
        # first credit_nvc[gp] VC slots of a port are meaningful).
        self.credits_used = _int_buffer(K, typed)
        # Prebuilt OP_CREDIT records to the upstream router, per key.
        self.credit_recs: list = [None] * K

        # ---- per-port --------------------------------------------------
        self.in_port_free = _int_buffer(P, typed)
        self.out_fifo: list[list] = [[] for _ in range(P)]
        self.out_occ = _int_buffer(P, typed)
        self.out_cap = _int_buffer(P, typed)
        self.switch_free = _int_buffer(P, typed)
        self.link_free = _int_buffer(P, typed)
        self.out_pumping = _int_buffer(P, typed)  # 0/1 flag
        self.credit_nvc = _int_buffer(P, typed)
        self.credit_cap = _int_buffer(P, typed)
        self.last_grant = _int_buffer(P, typed, fill=-1)
        # Static per-port facts hoisted next to the dynamic state so the
        # kernels index everything the same way: port-class flags and the
        # per-hop latency constants.
        self.local_in = _int_buffer(P, typed)  # 1 for local input ports
        self.global_out = _int_buffer(P, typed)  # 1 for global ports
        self.link_lat = _int_buffer(P, typed)
        self.hop_cost = _int_buffer(P, typed)

        # ---- per-node ---------------------------------------------------
        # The injection tail: the packets generated at a node that have
        # not reached the head of its injection FIFO, as interleaved
        # (gen_time, dst) pairs of an array('I'), read from the item
        # offset inj_tail_head[n] on.  A packet becomes a Packet (or, in
        # a compiled drain, a packet row) only when it reaches the head
        # (kernel.promote), so a saturated node's backlog costs 8 bytes
        # a packet instead of a row plus an object (~640 bytes); the
        # price is that cycles and node ids must fit 32 unsigned bits
        # (appending a larger one raises OverflowError).  Every Packet of
        # the node's in_q list comes before every pair of its tail.
        N = num_routers * node_ports
        self.inj_tail: list[array] = [array("I") for _ in range(N)]
        self.inj_tail_head = _int_buffer(N, typed)

        # ---- PiggyBack snapshot ----------------------------------------
        # What a group's routers last broadcast about their global links:
        # pb_snap[router_id * h + j] is the occupancy of global port j,
        # pb_snap_sum[router_id] the sum over that router's h ports, both
        # as of cycle pb_snap_time[group] (-1: never taken).  Written by
        # PiggybackRouting._refresh and by the compiled kernel's
        # PiggyBack decide twin; always allocated (tiny), idle under every
        # other mechanism.
        self.pb_snap = _int_buffer(num_routers * global_ports, typed)
        self.pb_snap_sum = _int_buffer(num_routers, typed)
        self.pb_snap_time = _int_buffer(groups, typed, fill=-1)
