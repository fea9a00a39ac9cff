"""Engine kernels: the drain loop and the allocation pass, plus backends.

This module is the single home of the engine's two hottest code paths,
operating on the flat structure-of-arrays state of
:class:`~repro.engine.soa.SoAStore`:

* :func:`py_drain` — the calendar-queue drain loop (one bucket pop per
  distinct cycle, opcode-dispatched scan over the bucket), moved here
  verbatim from ``EventQueue.run_until``;
* :func:`step` / :func:`_commit` — the consolidated router pipeline
  activation (arbitrate over active input heads, commit every grant).
  ``Router.step`` *is* this function (assigned as the class attribute),
  so direct method dispatch and the drain loop run the same code.

Backend selection
-----------------

``resolve_backend(name)`` picks the kernel implementation:

* ``python`` — the interpreted kernels below, always available; the SoA
  store uses plain-list buffers (fastest for interpreted indexing).
* ``compiled`` — the optional C extension :mod:`repro.engine._ckernel`
  (built via ``python setup.py build_ext --inplace``; no third-party
  toolchain beyond a C compiler).  The store uses ``array('q')`` buffers
  the C drain maps to raw ``int64_t*`` once per run.  Raises
  :class:`~repro.errors.ConfigurationError` when the extension is not
  built.
* ``auto`` (default, also via ``REPRO_ENGINE_BACKEND``) — ``compiled``
  when importable, else ``python``.

Both backends are bit-identical by contract: golden-trace digests, the
determinism matrix and the ``events_processed``/``activations`` counters
are pinned across backends by the cross-backend equivalence suite.

Flat indexing glossary (see :mod:`repro.engine.soa`):

* ``key``   — router-local input key ``port * max_vcs + vc``.  Stays
  local in ``active_keys``, ``last_grant`` values, candidate tuples and
  activation records: set iteration order and the round-robin arithmetic
  of :func:`~repro.hardware.allocator.select_winner` are both functions
  of the key *values*, so keeping them local preserves the scan order —
  and with it RNG consumption — of the pre-SoA engine exactly.
* ``gk = router.kb + key`` — flat per-key index into the store.
* ``gp = router.pb + port`` — flat per-port index; ``key_port[gk]``
  already holds ``gp`` so the scan never adds the base twice.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from math import log

from repro.engine.events import OP_CREDIT, OP_OUT_ARRIVE
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
from repro.errors import ConfigurationError, FlowControlError, RoutingError
from repro.hardware.allocator import select_winner
from repro.hardware.packet import Packet

__all__ = [
    "BACKEND_ENV",
    "ENGINE_BACKEND_CHOICES",
    "EngineBackend",
    "LowerState",
    "available_backends",
    "py_drain",
    "resolve_backend",
    "step",
]

#: Environment variable selecting the engine backend.
BACKEND_ENV = "REPRO_ENGINE_BACKEND"

#: Valid values for --engine-backend / REPRO_ENGINE_BACKEND.
ENGINE_BACKEND_CHOICES = ("auto", "python", "compiled")

# The router module injects itself here at import time (it imports this
# module for `step`, so importing it back at module level would cycle);
# the kernels read its CHECK_INVARIANTS flag dynamically, matching the
# behaviour the checks had as router-module globals.
_router_mod = None


# ----------------------------------------------------------------------
# drain loop (pure-Python backend)
# ----------------------------------------------------------------------
def py_drain(eq, t_end: int) -> None:
    """Process activations with ``time <= t_end``; sets ``eq.now = t_end``.

    Records posted during processing are honoured if they fall within
    the horizon.  This is the engine's inner loop: one bucket pop per
    distinct cycle, then an opcode-dispatched scan over the bucket with
    the comparison chain ordered by measured record frequency.
    """
    buckets = eq._buckets
    times = eq._times
    sink = eq._sink
    gen = eq._gen
    while times and times[0] <= t_end:
        t = heappop(times)
        bucket = buckets[t]
        eq.now = t
        i = 0
        extra = 0
        n = len(bucket)
        try:
            # The bucket may grow while we drain it (same-cycle
            # posting); re-checking len() after each batch picks the
            # appended records up in order without a len() per record.
            while True:
                for rec in bucket[i:n]:
                    i += 1
                    op = rec[0]
                    # Comparison chain ordered by measured record
                    # frequency across the gate configs.
                    if op == 1:  # OP_STEP: router activation
                        r = rec[1]
                        if r._arb_time == t:
                            r._arb_time = None
                            if r.active_keys:
                                r.step(t)
                            # an idle router woken by a release costs
                            # two attribute loads, no Python frame
                        # stale token (superseded arming): 1 compare
                    elif op == 3:  # OP_OUT_ARRIVE
                        rec[1].output_enqueue(rec[2], rec[3], rec[4], t)
                    elif op == 2:  # OP_ARRIVE
                        rec[1].arrive(rec[2], rec[3], rec[4], t)
                    elif op == 7:  # OP_CREDIT
                        rec[1].release_credit(rec[2], rec[3], rec[4], t)
                    elif op == 6:  # OP_RELEASE
                        rec[1].release_output(rec[2], rec[3], t)
                    elif op == 4:  # OP_SEND
                        rec[1].send(rec[2], t)
                    elif op == 5:  # OP_LINK (weight 2)
                        extra += 1
                        rec[1].link_step(rec[2], rec[3], t)
                    elif op == 9:  # OP_GEN
                        gen(rec[1])
                    elif op == 8:  # OP_DELIVER
                        sink(rec[1], t)
                    else:  # OP_CALL: generic callback
                        rec[1](*rec[2])
                n = len(bucket)
                if i == n:
                    break
        finally:
            # Semantic-event accounting: a raised record is consumed
            # (i was already advanced past it) and the remainder of
            # the bucket survives for a later drain.
            eq._processed += i + extra
            eq._activations += i
            if i == len(bucket):
                del buckets[t]
            else:
                del bucket[:i]
                heappush(times, t)
    eq.now = t_end


# ----------------------------------------------------------------------
# lowered OP_GEN / OP_DELIVER fast path (reference mirror)
# ----------------------------------------------------------------------
class LowerState:
    """Lowered traffic generator + delivery sink for one simulation.

    This class is the *reference implementation* of the lowering the C
    kernel performs natively: when a cell is lowerable (static pattern
    with a :meth:`~repro.traffic.base.TrafficPattern.lower` descriptor,
    no oracle, no decomposition checking), the simulation builds one
    ``LowerState`` and binds it via :meth:`EventQueue.bind_lower
    <repro.engine.events.EventQueue.bind_lower>`:

    * the pure-Python kernel then dispatches OP_GEN / OP_DELIVER into
      :meth:`gen` / :meth:`deliver` below — interpreting the pattern
      descriptor instead of calling ``pattern.dest`` and accumulating
      window statistics into the flat ``stat_*`` buffers of the SoA
      store instead of per-event ``StatsCollector`` calls;
    * the compiled kernel detects ``eq._lower`` when building its cached
      state and runs C twins of the same two methods, with an in-kernel
      MT19937 seeded from ``rng_traffic.getstate()`` at drain entry and
      written back at drain exit — so RNG consumption, packet fields and
      accumulated statistics are bit-identical to the callback path on
      both backends (pinned by the equivalence suite).

    ``Simulation._collect`` commits the accumulated buffers back into
    the :class:`~repro.metrics.collector.StatsCollector` exactly once.
    """

    __slots__ = (
        "owner",
        "eq",
        "rng",
        "descriptor",
        "end_time",
        "ws",
        "we",
        "psize",
        "log_q",
        "p",
        "a",
        "R",
        "num_nodes",
        "ms_table",
        "gen_recs",
        "inject_map",
        "si",
        "sf",
        "inj_router",
        "del_router",
        "_kind",
        "_n1",
        "_n1_bits",
        "_offset",
        "_per_group",
        "_pg_bits",
        "_groups",
        "_offsets",
        "_n_off",
        "_off_bits",
        "_perm",
        "_committed",
    )

    def __init__(self, sim, descriptor: tuple) -> None:
        store = sim.soa
        self.owner = sim
        self.eq = sim.engine
        self.rng = sim.rng_traffic
        self.descriptor = descriptor
        self.end_time = sim._end_time
        self.ws = sim.stats.window_start
        self.we = sim.stats.window_end
        self.psize = sim._psize
        self.log_q = sim._log_q
        self.p = sim.topo.p
        self.a = sim.topo.a
        self.R = sim.topo.num_routers
        self.num_nodes = sim.topo.num_nodes
        self.ms_table = sim._ms_table
        self.gen_recs = sim._gen_recs
        self.inject_map = sim._inject_map
        self.si = store.stat_i64
        self.sf = store.stat_f64
        self.inj_router = store.stat_inj_router
        self.del_router = store.stat_del_router
        self._committed = False
        # Unpack the descriptor into flat slots (one tuple load per draw
        # saved; the C twin does the same into struct fields).
        kind = descriptor[0]
        self._n1 = self._n1_bits = 0
        self._offset = self._per_group = self._pg_bits = self._groups = 0
        self._offsets = self._perm = ()
        self._n_off = self._off_bits = 0
        if kind == "uniform":
            self._kind = 0
            _, self._n1, self._n1_bits = descriptor
        elif kind == "adversarial":
            self._kind = 1
            (_, self._offset, self._per_group, self._pg_bits, self._groups) = (
                descriptor
            )
        elif kind == "advc":
            self._kind = 2
            (
                _,
                self._offsets,
                self._n_off,
                self._off_bits,
                self._per_group,
                self._pg_bits,
                self._groups,
            ) = descriptor
        elif kind == "permutation":
            self._kind = 3
            _, self._perm = descriptor
        else:
            raise ConfigurationError(
                f"unknown pattern lowering descriptor kind {kind!r}"
            )

    # ------------------------------------------------------------------
    def gen(self, node: int) -> None:
        """Lowered OP_GEN handler: mirrors ``Simulation._gen_event``.

        Identical control flow, RNG draws and packet construction as the
        callback path — minus the destination-contract validation, which
        lowered descriptors make true by construction (patterns are
        total, foreign-destination, always active).
        """
        eq = self.eq
        now = eq.now
        if now >= self.end_time:
            return
        rng = self.rng
        kind = self._kind
        if kind == 0:  # uniform
            gb = rng.getrandbits
            n1 = self._n1
            d = gb(self._n1_bits)
            while d >= n1:
                d = gb(self._n1_bits)
            dst = d if d < node else d + 1
        elif kind == 1:  # adversarial
            per_group = self._per_group
            tg = (node // per_group + self._offset) % self._groups
            gb = rng.getrandbits
            d = gb(self._pg_bits)
            while d >= per_group:
                d = gb(self._pg_bits)
            dst = tg * per_group + d
        elif kind == 2:  # advc
            per_group = self._per_group
            gb = rng.getrandbits
            n_off = self._n_off
            i = gb(self._off_bits)
            while i >= n_off:
                i = gb(self._off_bits)
            tg = (node // per_group + self._offsets[i]) % self._groups
            d = gb(self._pg_bits)
            while d >= per_group:
                d = gb(self._pg_bits)
            dst = tg * per_group + d
        else:  # permutation: zero draws
            dst = self._perm[node]
        p = self.p
        a = self.a
        src_router = node // p
        dst_router = dst // p
        owner = self.owner
        owner._pid = pid = owner._pid + 1
        pkt = Packet(
            pid,
            self.psize,
            node,
            src_router,
            src_router // a,
            dst,
            dst_router,
            dst_router // a,
            dst_router % a,
            dst % p,
            now,
            self.ms_table[src_router * self.R + dst_router],
        )
        si = self.si
        si[SI_TOTAL_GENERATED] += 1
        if self.ws <= now < self.we:
            si[SI_GEN_PHITS] += self.psize
            si[SI_GEN_PACKETS] += 1
        router, node_port = self.inject_map[node]
        router.inject(node_port, pkt, now)
        # Inlined geometric_gap over the precomputed log(1 - p), exactly
        # as in the callback path.
        log_q = self.log_q
        if log_q is None:
            gap = 1
        else:
            u = rng.random()
            if u == 0.0:
                gap = 1
            else:
                gap = int(log(u) / log_q) + 1
                if gap < 1:
                    gap = 1
        eq.post(now + gap, self.gen_recs[node])

    # ------------------------------------------------------------------
    def deliver(self, pkt, now: int) -> None:
        """Lowered OP_DELIVER sink: mirrors ``StatsCollector.on_delivery``.

        Accumulates into the flat stat buffers; the Welford update is
        written with the same operation order as ``OnlineStats.add`` so
        the committed mean/M2 are bit-identical floats.
        """
        si = self.si
        si[SI_TOTAL_DELIVERED] += 1
        if not (self.ws <= now < self.we):
            return
        si[SI_DEL_PHITS] += pkt.size
        n = si[SI_DEL_PACKETS] + 1
        si[SI_DEL_PACKETS] = n
        self.del_router[pkt.dst_router] += 1
        sf = self.sf
        x = now - pkt.gen_time
        mean = sf[SF_LAT_MEAN]
        delta = x - mean
        mean += delta / n
        sf[SF_LAT_MEAN] = mean
        sf[SF_LAT_M2] += delta * (x - mean)
        if x < sf[SF_LAT_MIN]:
            sf[SF_LAT_MIN] = x
        if x > sf[SF_LAT_MAX]:
            sf[SF_LAT_MAX] = x
        base = pkt.base_latency
        sf[SF_BD_INJ] += pkt.inject_time - pkt.gen_time
        sf[SF_BD_LOCAL] += pkt.wait_local
        sf[SF_BD_GLOBAL] += pkt.wait_global
        sf[SF_BD_BASE] += base
        sf[SF_BD_MIS] += pkt.service_sum - base

    # ------------------------------------------------------------------
    def on_injection(self, rid: int, now: int) -> None:
        """Lowered commit-phase hook: mirrors ``StatsCollector.on_injection``.

        Installed as every router's ``_on_injection`` *before*
        ``_bind_hot`` freezes it, so both kernels' commit phases call it
        (the C kernel additionally inlines the equivalent accumulation).
        """
        self.si[SI_TOTAL_INJECTED] += 1
        if self.ws <= now < self.we:
            self.inj_router[rid] += 1

    # ------------------------------------------------------------------
    # mid-run reads (deadlock watchdog) and the end-of-run commit
    # ------------------------------------------------------------------
    def total_delivered(self) -> int:
        """All-time delivered count (watchdog progress signal)."""
        return self.si[SI_TOTAL_DELIVERED]

    def in_flight(self) -> int:
        """Packets injected but not yet delivered."""
        return self.si[SI_TOTAL_INJECTED] - self.si[SI_TOTAL_DELIVERED]

    def commit(self, stats) -> None:
        """Fold the accumulated window into *stats* (idempotent)."""
        if self._committed:
            return
        self._committed = True
        stats.absorb_window(self.si, self.sf, self.inj_router, self.del_router)


# ----------------------------------------------------------------------
# allocation pass (pure-Python backend); bound as Router.step
# ----------------------------------------------------------------------
def step(r, now: int) -> None:
    """Consolidated pipeline activation: arbitrate and commit at *now*.

    One activation runs the whole allocation pass over all active input
    heads and commits every grant (switch traversal, credit consumption,
    downstream scheduling) in a single call, reading and writing the
    simulation's SoA store through the router's frozen ``_hot`` tuple.

    With ``transit_priority`` the priority is *strict* (Blue Gene
    style): an injection candidate is suppressed whenever any transit
    head currently demands the same output port, even if that transit
    head is not grantable this very cycle (input port busy, credits in
    flight).  This models an allocator in which the injection request
    line is masked by any pending transit request — the behaviour the
    paper attributes to its transit-over-injection configuration and
    the origin of the bottleneck-router starvation (Section V-B).
    """
    r._arb_time = None
    active_keys = r.active_keys
    if not active_keys:
        return  # a release activation woke an idle router: nothing to do
    use_priority = r.transit_priority
    max_vcs = r.max_vcs
    boundary = r.injection_boundary
    (
        in_q,
        in_port_free,
        switch_free,
        out_occ,
        out_cap,
        credits_used,
        credit_cap,
        credit_nvc,
        dc_pkt,
        dc_dec,
        dc_cond,
        key_port,
        decide,
        cache_policy,
        routing,
        kb,
        pb,
        epochs,
        rid,
        last_grant,
    ) = r._hot
    my_group = r.group
    epoch = epochs[rid]  # stable through the scan (no commits yet)

    if len(active_keys) == 1:
        # Uncontended fast path (the most common activation shape):
        # one head, no output competition, no intermediate lists.
        # Byte-for-byte the same decisions, cache writes and RNG
        # consumption as the general scan below restricted to one key.
        for key in active_keys:
            break
        gk = kb + key
        q = in_q[gk]
        if not q:
            active_keys.discard(key)
            return
        pkt = q[0]
        t_free = in_port_free[key_port[gk]]
        if t_free > now:
            if key >= boundary and use_priority:
                # Assert the head's demand (cache write + possible RNG
                # draw happen exactly as in the general scan; with no
                # competing injection head the mask itself is moot).
                if not (
                    dc_pkt[gk] is pkt
                    and (
                        (cond := dc_cond[gk]) is None
                        or cond == epoch
                        or (
                            cond.__class__ is tuple
                            and (
                                credits_used[cond[1]]
                                if cond[0]
                                else out_occ[cond[1]]
                            )
                            == cond[2]
                        )
                    )
                ):
                    dec = decide(pkt, r)
                    if cache_policy == 1:
                        dc_pkt[gk] = pkt
                        dc_dec[gk] = dec
                        dc_cond[gk] = None
                    elif cache_policy == 2:
                        if pkt.plan:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            dc_cond[gk] = None
                    elif cache_policy == 3:
                        if pkt.inter_group >= 0 and my_group != pkt.dst_group:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            dc_cond[gk] = None
                        elif routing.last_decide_pure:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            g = routing.last_decide_guard
                            if g is None:
                                dc_cond[gk] = epoch
                            elif g:
                                dc_cond[gk] = g  # single-counter guard
                            else:  # GUARD_STABLE: frozen-pure decision
                                dc_cond[gk] = None
            # Inlined schedule_arb(t_free): _arb_time is None here.
            r._arb_time = t_free
            bucket = r._eq_get(t_free)
            if bucket is None:
                r._eq_buckets[t_free] = [r._token]
                heappush(r._eq_times, t_free)
            else:
                bucket.append(r._token)
            return
        if dc_pkt[gk] is pkt and (
            (cond := dc_cond[gk]) is None
            or cond == epoch
            or (
                cond.__class__ is tuple
                and (credits_used[cond[1]] if cond[0] else out_occ[cond[1]])
                == cond[2]
            )
        ):
            dec = dc_dec[gk]
        else:
            dec = decide(pkt, r)
            # Inlined cache-policy switch (decision_stable).
            if cache_policy == 1:
                dc_pkt[gk] = pkt
                dc_dec[gk] = dec
                dc_cond[gk] = None
            elif cache_policy == 2:
                if pkt.plan:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    dc_cond[gk] = None
            elif cache_policy == 3:
                if pkt.inter_group >= 0 and my_group != pkt.dst_group:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    dc_cond[gk] = None
                elif routing.last_decide_pure:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    g = routing.last_decide_guard
                    if g is None:
                        dc_cond[gk] = epoch
                    elif g:
                        dc_cond[gk] = g  # single-counter guard
                    else:  # GUARD_STABLE: frozen-pure decision
                        dc_cond[gk] = None
        out_port = dec[0]
        gout = pb + out_port
        t_sw = switch_free[gout]
        if t_sw > now:
            # Inlined schedule_arb(t_sw): _arb_time is None here.
            r._arb_time = t_sw
            bucket = r._eq_get(t_sw)
            if bucket is None:
                r._eq_buckets[t_sw] = [r._token]
                heappush(r._eq_times, t_sw)
            else:
                bucket.append(r._token)
            return
        size = pkt.size
        if out_occ[gout] + size > out_cap[gout]:
            return  # woken by release_output
        if credit_nvc[gout] and (
            credits_used[kb + out_port * max_vcs + dec[1]] + size
            > credit_cap[gout]
        ):
            return  # woken by release_credit
        last_grant[gout] = key
        _commit(r, out_port, gout, key, gk, pkt, dec, now)
        if active_keys:
            # Progress this cycle; the remaining backlog (a multi-VC
            # queue behind the granted head) retries next cycle.
            # Inlined schedule_arb(now + 1): _arb_time is None here.
            t = now + 1
            r._arb_time = t
            bucket = r._eq_get(t)
            if bucket is None:
                r._eq_buckets[t] = [r._token]
                heappush(r._eq_times, t)
            else:
                bucket.append(r._token)
        return

    next_time: int | None = None
    granted = False
    cand_by_out: dict[int, list] | None = None  # lazily created
    transit_demand: set[int] | None = None  # lazily created set
    dead: list[int] | None = None

    for key in active_keys:
        gk = kb + key
        q = in_q[gk]
        if not q:
            # Defer the discard: mutating the set mid-iteration is
            # illegal, and the deferred order matches the scan order.
            if dead is None:
                dead = [key]
            else:
                dead.append(key)
            continue
        is_transit = key >= boundary
        t_free = in_port_free[key_port[gk]]
        if t_free > now:
            if next_time is None or t_free < next_time:
                next_time = t_free
            if is_transit and use_priority:
                # Still assert this head's demand for priority masking.
                pkt = q[0]
                if dc_pkt[gk] is pkt and (
                    (cond := dc_cond[gk]) is None
                    or cond == epoch
                    or (
                        cond.__class__ is tuple
                        and (
                            credits_used[cond[1]]
                            if cond[0]
                            else out_occ[cond[1]]
                        )
                        == cond[2]
                    )
                ):
                    demand_port = dc_dec[gk][0]
                else:
                    dec = decide(pkt, r)
                    # Inlined cache-policy switch (decision_stable).
                    if cache_policy == 1:
                        dc_pkt[gk] = pkt
                        dc_dec[gk] = dec
                        dc_cond[gk] = None
                    elif cache_policy == 2:
                        if pkt.plan:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            dc_cond[gk] = None
                    elif cache_policy == 3:
                        if pkt.inter_group >= 0 and my_group != pkt.dst_group:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            dc_cond[gk] = None
                        elif routing.last_decide_pure:
                            dc_pkt[gk] = pkt
                            dc_dec[gk] = dec
                            g = routing.last_decide_guard
                            if g is None:
                                dc_cond[gk] = epoch
                            elif g:
                                dc_cond[gk] = g  # single-counter guard
                            else:  # GUARD_STABLE: frozen-pure decision
                                dc_cond[gk] = None
                    demand_port = dec[0]
                if transit_demand is None:
                    transit_demand = {demand_port}
                else:
                    transit_demand.add(demand_port)
            continue
        pkt = q[0]
        if dc_pkt[gk] is pkt and (
            (cond := dc_cond[gk]) is None
            or cond == epoch
            or (
                cond.__class__ is tuple
                and (credits_used[cond[1]] if cond[0] else out_occ[cond[1]])
                == cond[2]
            )
        ):
            dec = dc_dec[gk]
        else:
            dec = decide(pkt, r)
            # Inlined cache-policy switch (decision_stable).
            if cache_policy == 1:
                dc_pkt[gk] = pkt
                dc_dec[gk] = dec
                dc_cond[gk] = None
            elif cache_policy == 2:
                if pkt.plan:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    dc_cond[gk] = None
            elif cache_policy == 3:
                if pkt.inter_group >= 0 and my_group != pkt.dst_group:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    dc_cond[gk] = None
                elif routing.last_decide_pure:
                    dc_pkt[gk] = pkt
                    dc_dec[gk] = dec
                    g = routing.last_decide_guard
                    if g is None:
                        dc_cond[gk] = epoch
                    elif g:
                        dc_cond[gk] = g  # single-counter guard
                    else:  # GUARD_STABLE: frozen-pure decision
                        dc_cond[gk] = None
        out_port = dec[0]
        if is_transit and use_priority:
            if transit_demand is None:
                transit_demand = {out_port}
            else:
                transit_demand.add(out_port)
        gout = pb + out_port
        t_sw = switch_free[gout]
        if t_sw > now:
            if next_time is None or t_sw < next_time:
                next_time = t_sw
            continue
        size = pkt.size
        if out_occ[gout] + size > out_cap[gout]:
            continue  # woken by release_output
        if credit_nvc[gout] and (
            credits_used[kb + out_port * max_vcs + dec[1]] + size
            > credit_cap[gout]
        ):
            continue  # woken by release_credit
        if cand_by_out is None:
            cand_by_out = {out_port: [(key, pkt, dec)]}
        else:
            lst = cand_by_out.get(out_port)
            if lst is None:
                cand_by_out[out_port] = [(key, pkt, dec)]
            else:
                lst.append((key, pkt, dec))

    if dead is not None:
        for key in dead:
            active_keys.discard(key)

    for out_port, cands in (() if cand_by_out is None else cand_by_out.items()):
        if len(cands) == 1:
            # Uncontended fast path: apply the same filters without
            # building intermediate lists.
            winner = cands[0]
            if in_port_free[key_port[kb + winner[0]]] > now:
                continue  # an earlier grant consumed the input port
            if (
                transit_demand is not None
                and out_port in transit_demand
                and winner[0] < boundary
            ):
                continue  # strict priority masks the injection request
        else:
            # A grant earlier in this pass may have consumed the port.
            cands = [
                c for c in cands if in_port_free[key_port[kb + c[0]]] <= now
            ]
            if transit_demand is not None and out_port in transit_demand:
                # Strict priority: pending transit masks injections.
                cands = [c for c in cands if c[0] >= boundary]
            if not cands:
                continue
            if len(cands) == 1:
                winner = cands[0]
            else:
                winner = select_winner(
                    cands,
                    last_grant[pb + out_port],
                    r.nkeys,
                    transit_priority=use_priority,
                    injection_boundary=boundary,
                )
        gout = pb + out_port
        last_grant[gout] = winner[0]
        _commit(r, out_port, gout, winner[0], kb + winner[0], winner[1], winner[2], now)
        granted = True

    if next_time is not None:
        t = next_time
    elif granted and active_keys:
        # Progress happened this cycle; backlogged heads (arbitration
        # losers or multi-VC queues) retry next cycle.  Heads blocked on
        # buffers/credits are re-woken by the release activations.
        t = now + 1
    else:
        return
    # Inlined schedule_arb(t): _arb_time is None throughout a pass.
    r._arb_time = t
    bucket = r._eq_get(t)
    if bucket is None:
        r._eq_buckets[t] = [r._token]
        heappush(r._eq_times, t)
    else:
        bucket.append(r._token)


def _commit(r, out_port, gout, key, gk, pkt, dec, now) -> None:
    """Grant *pkt* from input *key* (flat *gk*) to *out_port* (flat *gout*)."""
    (
        active_keys,
        dc_pkt,
        in_port_free,
        switch_free,
        out_occ,
        in_occ,
        credits_used,
        credit_nvc,
        credit_cap,
        credit_recs,
        eq_buckets,
        eq_get,
        eq_times,
        local_in,
        link_lat,
        hop_cost,
        routing_commit,
        on_injection,
        max_vcs,
        internal,
        num_node_ports,
        psize,
        pipe_lat,
        kb,
        pb,
        epochs,
        rid,
        global_out,
        in_q,
    ) = r._hot2
    in_port = key // max_vcs
    gin = pb + in_port
    out_vc = dec[1]
    size = pkt.size
    q = in_q[gk]
    del q[0]
    if not q:
        active_keys.discard(key)
    dc_pkt[gk] = None  # head changed: decision no longer valid
    epochs[rid] += 1  # out_occ / credits are about to change
    in_port_free[gin] = now + internal
    switch_free[gout] = now + internal
    out_occ[gout] += size

    if in_port < num_node_ports:
        # Injection: record the moment the packet entered the network.
        pkt.inject_time = now
        on_injection(rid, now)
    else:
        wait = now - pkt.t_enq
        if wait:
            if local_in[gin]:
                pkt.wait_local += wait
            else:
                pkt.wait_global += wait
        in_occ[gk] -= size
        if _router_mod.CHECK_INVARIANTS and in_occ[gk] < 0:
            raise FlowControlError(
                f"router {rid}: negative input occupancy "
                f"port {in_port} vc {key - in_port * max_vcs}"
            )
        rec = credit_recs[gk]
        if rec is not None:
            if size != psize:  # non-default packet size: fresh record
                rec = (OP_CREDIT, rec[1], rec[2], rec[3], size)
            t = now + internal + link_lat[gin]
            bucket = eq_get(t)
            if bucket is None:
                eq_buckets[t] = [rec]
                heappush(eq_times, t)
            else:
                bucket.append(rec)

    if credit_nvc[gout]:
        ck = kb + out_port * max_vcs + out_vc
        credits_used[ck] += size
        if _router_mod.CHECK_INVARIANTS and (credits_used[ck] > credit_cap[gout]):
            raise FlowControlError(
                f"router {rid}: credit overcommit on port "
                f"{out_port} vc {out_vc}"
            )

    if routing_commit is None:
        # Inlined RoutingMechanism.commit (hop ledger + diversion bind).
        if local_in[gout]:
            pkt.local_hops += 1
            glh = pkt.group_local_hops + 1
            pkt.group_local_hops = glh
            if glh > 2:
                raise RoutingError(
                    f"packet {pkt.pid} took a third local hop in group "
                    f"{r.group}; VC safety would be violated"
                )
        elif global_out[gout]:
            pkt.global_hops += 1
        if dec[2] == 1:
            pkt.inter_group = dec[3]
    else:
        routing_commit(pkt, r, dec)
    pkt.service_sum += hop_cost[gout]
    # Switch traversal: the packet reaches the output FIFO after the
    # pipeline latency (OP_OUT_ARRIVE).
    t = now + pipe_lat
    rec = (OP_OUT_ARRIVE, r, out_port, pkt, out_vc)
    bucket = eq_get(t)
    if bucket is None:
        eq_buckets[t] = [rec]
        heappush(eq_times, t)
    else:
        bucket.append(rec)


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class EngineBackend:
    """A resolved engine backend: name, SoA buffer mode, drain callable."""

    __slots__ = ("name", "typed", "drain")

    def __init__(self, name: str, typed: bool, drain) -> None:
        self.name = name
        self.typed = typed
        self.drain = drain

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineBackend({self.name!r}, typed={self.typed})"


_PY_BACKEND = EngineBackend("python", False, py_drain)


def _load_compiled() -> EngineBackend | None:
    """The compiled backend, or None when the extension is not built."""
    try:
        from repro.engine import _ckernel
    except ImportError:
        return None
    return EngineBackend("compiled", True, _ckernel.drain)


def available_backends() -> tuple[str, ...]:
    """Concrete backends importable right now (excludes ``auto``)."""
    if _load_compiled() is None:
        return ("python",)
    return ("python", "compiled")


def resolve_backend(name: str | None = None) -> EngineBackend:
    """Resolve a backend name (or the environment default) to a backend.

    *name* ``None`` falls back to ``REPRO_ENGINE_BACKEND``, then
    ``auto``.  ``auto`` degrades gracefully to ``python`` when the
    compiled extension is missing; an explicit ``compiled`` request does
    not.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or "auto"
    if name == "python":
        return _PY_BACKEND
    if name == "compiled":
        backend = _load_compiled()
        if backend is None:
            raise ConfigurationError(
                "engine backend 'compiled' requested but the "
                "repro.engine._ckernel extension is not built; run "
                "`python setup.py build_ext --inplace` or use "
                "REPRO_ENGINE_BACKEND=python"
            )
        return backend
    if name == "auto":
        return _load_compiled() or _PY_BACKEND
    raise ConfigurationError(
        f"unknown engine backend {name!r}; choose from "
        f"{', '.join(ENGINE_BACKEND_CHOICES)}"
    )
