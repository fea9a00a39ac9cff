"""Engine kernels: the drain loop and the router pipeline, plus backends.

This module is the one Python definition of everything the engine runs
per event, operating on the flat structure-of-arrays state of
:class:`~repro.engine.soa.SoAStore`.  It has the function inventory of
the compiled kernel (``_ckernel.c``), name for name:

* :func:`py_drain` — the calendar-queue drain loop: one bucket pop per
  distinct cycle, then an opcode-dispatched scan that calls the target
  router's *phase handler* with positional arguments;
* the phase handlers :func:`arrive` (input arrival), :func:`step` (the
  consolidated arbitration → commit pipeline, with :func:`_commit`),
  :func:`output_enqueue` (switch traversal into an output FIFO),
  :func:`send` (link transmission), :func:`release_output` /
  :func:`release_credit` (resource releases that re-arm the pipeline),
  :func:`link_step` (= ``release_output`` then ``send``, the merged
  ``OP_LINK`` record of a busy link) and :func:`inject`;
* :func:`arm` — the one place a pipeline activation is requested: it
  posts the router's constant ``(OP_STEP, router)`` token under the
  ``_arb_time`` dirty mark, so each (router × cycle) pair is armed at
  most once and the drain loop skips stale tokens with one compare;
* :func:`make_packet` / :func:`next_gap` — the packet constructor and the
  geometric inter-generation gap of the traffic generator
  (``TrafficGenerator._gen_event``, which the compiled kernel's
  ``c_gen`` twins on a lowered cell, with both inlined);
* :func:`enqueue` / :func:`promote` — the injection tail
  (:attr:`SoAStore.inj_tail <repro.engine.soa.SoAStore.inj_tail>`): a
  generated packet is queued as a ``(gen_time, dst)`` pair, and its
  :class:`Packet` is built only when the allocation scan finds its
  injection FIFO empty (``c_step`` promotes at the same point, so the
  packet ids agree across backends).

Every record is posted through :meth:`EventQueue.post
<repro.engine.events.EventQueue.post>`; the intra-cycle order of phases
is exactly the FIFO order in which their records were posted.
:class:`~repro.hardware.router.Router` binds the handlers as class
attributes, so ``rec[1].arrive(...)`` in the drain loop and a direct
``router.step(now)`` run the same code.  The handlers read the store
through the views the router aliases (``r.in_q``, ``r.out_occ``, ...)
and the routing mechanism through ``r.routing`` at the moment of use —
nothing is frozen per router, so what is bound to a router is what runs,
on this backend as on the compiled one.

Four things differ from the C side on purpose: :func:`step` has a
single-head fast path (selected from ``len(active_keys)``; C runs the
general scan only), the hottest records are prebuilt constants
(:func:`prebuild_records`; C records are values), the calendar is native
only in C, and so is the decision memo: :func:`step` calls
``routing.decide`` for every head it scans, while the C scan may reuse a
C twin's decision where re-deciding provably repeats it.

Backend selection
-----------------

``resolve_backend(name)`` picks the kernel implementation:

* ``python`` — the interpreted kernels below, always available; the SoA
  store uses plain-list buffers (fastest for interpreted indexing).
* ``compiled`` — the optional C extension :mod:`repro.engine._ckernel`
  (built via ``python setup.py build_ext --inplace``; no third-party
  toolchain beyond a C compiler).  The store uses ``array('q')`` buffers
  the C drain maps to raw ``int64_t*`` once per run.  Raises
  :class:`~repro.errors.ConfigurationError`, quoting the ImportError,
  when the extension does not import.
* ``auto`` (default, also via ``REPRO_ENGINE_BACKEND``) — ``compiled``
  when importable, else ``python`` (:func:`compiled_import_error` keeps
  the reason, which ``repro profile``'s ``backend:`` line prints).

Both backends are bit-identical by contract: golden-trace digests, the
determinism matrix and the ``events_processed``/``activations`` counters
are pinned across backends by the cross-backend equivalence suite.

The backend is the only choice.  Whether a compiled cell's traffic
generation and delivery sink are *lowered* into the kernel (``c_gen`` /
``c_deliver``, twins of ``TrafficGenerator._gen_event`` and the
collector's hooks) follows from the cell: a pattern with a
:meth:`~repro.traffic.base.TrafficPattern.lower` descriptor and no
oracle (``Simulation._lower``).  The python backend never lowers; its
callback path is the reference.

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
from operator import length_hint

from repro.engine.events import (
    OP_ARRIVE,
    OP_CREDIT,
    OP_DELIVER,
    OP_LINK,
    OP_OUT_ARRIVE,
    OP_RELEASE,
    OP_SEND,
    OP_STEP,
)
from repro.errors import ConfigurationError, FlowControlError, RoutingError
from repro.hardware.allocator import select_winner
from repro.hardware.packet import Packet

__all__ = [
    "BACKEND_ENV",
    "ENGINE_BACKEND_CHOICES",
    "EngineBackend",
    "available_backends",
    "compiled_import_error",
    "py_drain",
    "resolve_backend",
    "step",
]

#: Environment variable selecting the engine backend.
BACKEND_ENV = "REPRO_ENGINE_BACKEND"

#: Valid values for --engine-backend / REPRO_ENGINE_BACKEND.
ENGINE_BACKEND_CHOICES = ("auto", "python", "compiled")


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
            # appended records up in order without a len() — or a
            # counter update — per record.
            while True:
                batch = iter(bucket[i:n])
                for rec in batch:
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
                i = n
                n = len(bucket)
                if i == n:
                    break
        finally:
            # Semantic-event accounting: a raised record is consumed
            # (the batch iterator is already past it; what it has left
            # is what was not run) and the remainder of the bucket
            # survives for a later drain.
            i = n - length_hint(batch)
            eq._processed += i + extra
            eq._activations += i
            if i == len(bucket):
                del buckets[t]
            else:
                del bucket[:i]
                heappush(times, t)
    eq.now = t_end


# ----------------------------------------------------------------------
# router phase handlers (pure-Python backend); bound as Router methods
# ----------------------------------------------------------------------
def prebuild_records(r) -> None:
    """Prebuild the constant activation records router *r* posts.

    The hottest records — the activation token, the per-port send / link
    / release records and the per-input-key credit returns to the
    upstream router — are immutable, so steady-state forwarding
    allocates one tuple per link traversal.  Called by the Simulation
    once ``upstream`` is wired.  (Python only: the compiled calendar's
    records are fixed-width values.)
    """
    psize = r._psize
    ports = range(r.radix)
    r._token = (OP_STEP, r)
    r._send_recs = [(OP_SEND, r, port) for port in ports]
    r._link_recs = [(OP_LINK, r, port, psize) for port in ports]
    r._rel_recs = [(OP_RELEASE, r, port, psize) for port in ports]
    max_vcs = r.max_vcs
    for port in range(r._num_node_ports, r.radix):
        up = r.upstream[port]
        if up is not None:
            for vc in range(max_vcs):
                r._credit_recs[r.kb + port * max_vcs + vc] = (
                    OP_CREDIT,
                    up[0],
                    up[1],
                    vc,
                    psize,
                )


def arm(r, time: int) -> None:
    """Arm a pipeline activation at cycle *time* (dirty-deduplicated).

    Posts the router's constant ``(OP_STEP, r)`` token unless an
    activation at or before *time* is already armed; the drain loop
    re-checks ``_arb_time`` so superseded tokens are skipped with one
    integer compare.
    """
    t = r._arb_time
    if t is None or t > time:
        r._arb_time = time
        r.engine.post(time, r._token)


def inject(r, node_port: int, pkt: Packet, now: int | None = None) -> None:
    """Enqueue Packet *pkt* on a node (injection) port, behind its FIFO.

    Refused with :class:`~repro.errors.FlowControlError` while the port's
    tail holds generated packets: *pkt* would overtake them.
    """
    if now is None:
        now = r.engine.now
    queued = r.tail_len(node_port)
    if queued:
        raise FlowControlError(
            f"router {r.router_id}: a packet injected on node port "
            f"{node_port} would overtake the {queued} generated packets "
            "queued there"
        )
    key = node_port * r.max_vcs
    pkt.t_enq = now
    r.in_q[r.kb + key].append(pkt)
    r.active_keys.add(key)
    arm(r, now)


def enqueue(r, node_port: int, dst: int, now: int) -> None:
    """Queue the packet node port *node_port* generated at *now* for *dst*.

    It joins the port's tail as a ``(gen_time, dst)`` pair; :func:`promote`
    builds its :class:`Packet` when it reaches the head of the FIFO.
    """
    tail = r._tail[r._nb + node_port]
    tail.append(now)
    tail.append(dst)
    r.active_keys.add(node_port * r.max_vcs)
    arm(r, now)


def promote(r, node_port: int, q: list) -> bool:
    """Build the head of node port *node_port*'s empty injection FIFO *q*.

    Pops the first pair of the port's tail and appends the packet it
    names, built by the generator's constructor
    (``TrafficGenerator._make_packet``, which draws the packet id now)
    with ``t_enq = gen_time``.  False when the tail is empty too.  The
    allocation scan calls it for an active injection key whose FIFO is
    empty, as ``c_step`` does.
    """
    n = r._nb + node_port
    tail = r._tail[n]
    i = r._tail_head[n]
    if i == len(tail):
        return False
    gen_time = tail[i]
    dst = tail[i + 1]
    i += 2
    if 2 * i >= len(tail):
        del tail[:i]  # the read pairs: amortised O(1) per pair
        i = 0
    r._tail_head[n] = i
    q.append(r._make_packet(n, dst, gen_time))
    return True


def arrive(r, port: int, vc: int, pkt: Packet, now: int) -> None:
    """Phase handler: a packet's tail reached input buffer (port, vc)."""
    key = port * r.max_vcs + vc
    gk = r.kb + key
    q = r.in_q[gk]
    if q is None:
        raise FlowControlError(
            f"router {r.router_id}: arrival on invalid VC "
            f"(port {port}, vc {vc})"
        )
    in_occ = r.in_occ
    in_occ[gk] = occ = in_occ[gk] + pkt.size
    if occ > r.in_cap[gk]:
        raise FlowControlError(
            f"router {r.router_id}: input buffer overflow on port "
            f"{port} vc {vc}: {occ} > {r.in_cap[gk]}"
        )
    pkt.t_enq = now
    # Group transitions and source-routed plan updates.
    group = r.group
    if group != pkt.current_group:
        pkt.current_group = group
        pkt.group_local_hops = 0
        if pkt.inter_group == group:
            pkt.inter_group = -1  # intermediate group reached
    if pkt.plan == 2 and r.router_id == pkt.inter_router:
        pkt.plan = 1  # intermediate router reached; minimal onwards
    q.append(pkt)
    r.active_keys.add(key)
    time = r.in_port_free[r.pb + port]
    arm(r, time if time > now else now)


def step(r, now: int) -> None:
    """Consolidated pipeline activation: arbitrate and commit at *now*.

    One activation runs the whole allocation pass over all active input
    heads and commits every grant (switch traversal, credit consumption,
    downstream scheduling) in a single call.  A head is granted at most
    once per input port and per output port, subject to (a) crossbar
    availability (2x speedup: a packet occupies an input/output of the
    switch for ``size/speedup`` cycles), (b) output FIFO space and (c)
    downstream credit for the selected VC.  Activations are
    self-scheduling: a pass that leaves time-blocked work re-arms itself
    at the earliest release time; resource-blocked work is re-woken by
    the release handlers.

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
    kb = r.kb
    decide = r.routing.decide

    if len(active_keys) == 1:
        # Uncontended fast path (the most common activation shape):
        # one head, no output competition, no intermediate lists.
        # Byte-for-byte the same decisions and RNG consumption as the
        # general scan below restricted to one key.
        for key in active_keys:
            break
        gk = kb + key
        q = r.in_q[gk]
        if not q and (
            key >= r.injection_boundary or not promote(r, key // r.max_vcs, q)
        ):
            active_keys.discard(key)
            return
        pkt = q[0]
        t_free = r.in_port_free[r._key_port[gk]]
        if t_free > now:
            if key >= r.injection_boundary and r.transit_priority:
                # Assert the head's demand (the decide, and any RNG draw
                # in it, happen exactly as in the general scan; with no
                # competing injection head the mask itself is moot).
                decide(pkt, r)
            arm(r, t_free)
            return
        dec = decide(pkt, r)
        out_port = dec[0]
        gout = r.pb + out_port
        t_sw = r.switch_free[gout]
        if t_sw > now:
            arm(r, t_sw)
            return
        size = pkt.size
        if r.out_occ[gout] + size > r.out_cap[gout]:
            return  # woken by release_output
        if r.credit_nvc[gout] and (
            r.credits_used[kb + out_port * r.max_vcs + dec[1]] + size
            > r.credit_cap[gout]
        ):
            return  # woken by release_credit
        r.last_grant[gout] = key
        _commit(r, out_port, gout, key, gk, pkt, dec, now)
        if active_keys:
            # Progress this cycle; the remaining backlog (a multi-VC
            # queue behind the granted head) retries next cycle.
            arm(r, now + 1)
        return

    # The general scan reads each store view once per head: hoist them.
    use_priority = r.transit_priority
    max_vcs = r.max_vcs
    boundary = r.injection_boundary
    in_q = r.in_q
    in_port_free = r.in_port_free
    key_port = r._key_port
    switch_free = r.switch_free
    out_occ = r.out_occ
    out_cap = r.out_cap
    credits_used = r.credits_used
    credit_cap = r.credit_cap
    credit_nvc = r.credit_nvc
    last_grant = r.last_grant
    pb = r.pb
    next_time: int | None = None
    granted = False
    cand_by_out: dict[int, list] | None = None  # lazily created
    transit_demand = 0  # bitmask of the output ports transit heads demand
    dead: list[int] | None = None

    for key in active_keys:
        gk = kb + key
        q = in_q[gk]
        if not q and (key >= boundary or not promote(r, key // max_vcs, q)):
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
                transit_demand |= 1 << decide(q[0], r)[0]
            continue
        pkt = q[0]
        dec = decide(pkt, r)
        out_port = dec[0]
        if is_transit and use_priority:
            transit_demand |= 1 << out_port
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
            if transit_demand >> out_port & 1 and winner[0] < boundary:
                continue  # strict priority masks the injection request
        else:
            # A grant earlier in this pass may have consumed the port.
            cands = [
                c for c in cands if in_port_free[key_port[kb + c[0]]] <= now
            ]
            if transit_demand >> out_port & 1:
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
        arm(r, next_time)
    elif granted and active_keys:
        # Progress happened this cycle; backlogged heads (arbitration
        # losers or multi-VC queues) retry next cycle.  Heads blocked on
        # buffers/credits are re-woken by the release activations.
        arm(r, now + 1)


def _commit(r, out_port, gout, key, gk, pkt, dec, now) -> None:
    """Grant *pkt* from input *key* (flat *gk*) to *out_port* (flat *gout*).

    Credits are consumed here for the whole packet (VCT) and returned to
    the upstream router one input-transfer time plus one link latency
    after the packet's tail leaves this input buffer.
    """
    max_vcs = r.max_vcs
    in_port = key // max_vcs
    gin = r.pb + in_port
    out_vc = dec[1]
    size = pkt.size
    rid = r.router_id
    q = r.in_q[gk]
    del q[0]
    # An injection key stays active while its tail holds pairs: the next
    # scan promotes the first (promote).
    if not q and (in_port >= r._num_node_ports or not r.tail_len(in_port)):
        r.active_keys.discard(key)
    busy = now + r.internal_cycles  # the crossbar transfer time
    r.in_port_free[gin] = busy
    r.switch_free[gout] = busy
    r.out_occ[gout] += size
    local_in = r._local_in

    if in_port < r._num_node_ports:
        # Injection: record the moment the packet entered the network.
        pkt.inject_time = now
        r._on_injection(rid, now)
    else:
        wait = now - pkt.t_enq
        if wait:
            if local_in[gin]:
                pkt.wait_local += wait
            else:
                pkt.wait_global += wait
        in_occ = r.in_occ
        in_occ[gk] = occ = in_occ[gk] - size
        if occ < 0:
            raise FlowControlError(
                f"router {rid}: negative input occupancy "
                f"port {in_port} vc {key - in_port * max_vcs}"
            )
        rec = r._credit_recs[gk]
        if rec is not None:
            if size != r._psize:  # non-default packet size: fresh record
                rec = (OP_CREDIT, rec[1], rec[2], rec[3], size)
            r.engine.post(busy + r._link_lat[gin], rec)

    if r.credit_nvc[gout]:
        ck = r.kb + out_port * max_vcs + out_vc
        credits_used = r.credits_used
        credits_used[ck] = used = credits_used[ck] + size
        if used > r.credit_cap[gout]:
            raise FlowControlError(
                f"router {rid}: credit overcommit on port "
                f"{out_port} vc {out_vc}"
            )

    # The hop ledger and the diversion bind.
    if local_in[gout]:
        pkt.local_hops += 1
        glh = pkt.group_local_hops + 1
        pkt.group_local_hops = glh
        if glh > 2:
            raise RoutingError(
                f"packet {pkt.pid} took a third local hop in group "
                f"{r.group}; VC safety would be violated"
            )
    elif r._global_out[gout]:
        pkt.global_hops += 1
    if dec[2] == 1:
        pkt.inter_group = dec[3]
    pkt.service_sum += r._hop_cost[gout]
    # Switch traversal: the packet reaches the output FIFO after the
    # pipeline latency (OP_OUT_ARRIVE).
    r.engine.post(now + r._pipe_lat, (OP_OUT_ARRIVE, r, out_port, pkt, out_vc))


def output_enqueue(r, port: int, pkt: Packet, vc: int, now: int) -> None:
    """Phase handler: *pkt* crossed the switch into output FIFO *port*.

    The FIFO drains onto the link at 1 phit/cycle; an idle link starts
    pumping at its next free cycle.
    """
    gp = r.pb + port
    r.out_fifo[gp].append((pkt, vc, now))
    out_pumping = r.out_pumping
    if out_pumping[gp]:
        return
    out_pumping[gp] = 1
    dep = r.link_free[gp]
    r.engine.post(dep if dep > now else now, r._send_recs[port])


def send(r, port: int, now: int) -> None:
    """Phase handler: start transmitting the head of output FIFO *port*."""
    gp = r.pb + port
    fifo = r.out_fifo[gp]
    pkt, vc, t_arr = fifo.pop(0)
    wait = now - t_arr
    if wait:
        if r._global_out[gp]:
            pkt.wait_global += wait
        else:  # local and node (ejection) FIFO waits
            pkt.wait_local += wait
    size = pkt.size
    free_t = now + size
    r.link_free[gp] = free_t
    eq = r.engine
    if fifo:
        # Busy link: merge the tail release with the next transmission
        # into one OP_LINK record (the two legacy events were adjacent
        # in the free_t bucket, so the merged record is order-exact).
        eq.post(
            free_t,
            r._link_recs[port] if size == r._psize else (OP_LINK, r, port, size),
        )
    else:
        r.out_pumping[gp] = 0
        eq.post(
            free_t,
            r._rel_recs[port] if size == r._psize else (OP_RELEASE, r, port, size),
        )
    peer = r.out_peer[port]
    if peer is None:
        rec = (OP_DELIVER, pkt)  # ejection into the simulation sink
    else:
        rec = (OP_ARRIVE, peer[0], peer[1], vc, pkt)
    eq.post(free_t + r._link_lat[gp], rec)


def release_output(r, port: int, size: int, now: int) -> None:
    """Phase handler: a packet's tail left the link; FIFO space frees."""
    gp = r.pb + port
    out_occ = r.out_occ
    out_occ[gp] = occ = out_occ[gp] - size
    if occ < 0:
        raise FlowControlError(
            f"router {r.router_id}: negative output occupancy port {port}"
        )
    arm(r, now)  # wake the allocator this cycle


def link_step(r, port: int, size: int, now: int) -> None:
    """Phase handler (``OP_LINK``): tail release + next transmission.

    The merged record of a busy link: the output FIFO was non-empty when
    the current transmission started, so the link pumps back to back.
    """
    release_output(r, port, size, now)
    send(r, port, now)


def release_credit(r, port: int, vc: int, size: int, now: int) -> None:
    """Phase handler: credits for (port, vc) returned from downstream."""
    ck = r.kb + port * r.max_vcs + vc
    credits_used = r.credits_used
    credits_used[ck] = used = credits_used[ck] - size
    if used < 0:
        raise FlowControlError(
            f"router {r.router_id}: negative credits port {port} vc {vc}"
        )
    arm(r, now)  # wake the allocator this cycle


# ----------------------------------------------------------------------
# traffic generation: the packet constructor and the gap draw
# ----------------------------------------------------------------------
def make_packet(gen, src_node: int, dst_node: int, now: int) -> Packet:
    """The packet *gen* generates at *now* from *src_node* to *dst_node*.

    Draws the next packet id; the base latency is a read of the
    topology-owned minimal-path table (the Fig. 3 base).  Bound as
    ``TrafficGenerator._make_packet``.
    """
    topo = gen.topo
    p = topo.p
    a = topo.a
    src_router = src_node // p
    dst_router = dst_node // p
    gen._pid = pid = gen._pid + 1
    return Packet(
        pid,
        gen._psize,
        src_node,
        src_router,
        src_router // a,
        dst_node,
        dst_router,
        dst_router // a,
        dst_router % a,
        dst_node % p,
        now,
        gen._ms_table[src_router * topo.num_routers + dst_router],
    )


def next_gap(rng, log_q: float | None) -> int:
    """Cycles until a node's Bernoulli process fires again.

    ``geometric_gap(rng, p)`` over the precomputed ``log_q = log(1 - p)``
    (None when ``p == 1``) — identical draws, one RNG call, no
    ``math.log(1 - p)`` per event.
    """
    if log_q is None:
        return 1
    u = rng.random()
    if u == 0.0:
        return 1
    gap = int(log(u) / log_q) + 1
    return gap if gap > 1 else 1


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


def _load_compiled() -> EngineBackend | ImportError:
    """The compiled backend, or the ImportError that keeps it from loading
    (the extension is not built, or a built one does not load)."""
    try:
        from repro.engine import _ckernel
    except ImportError as exc:
        return exc
    return EngineBackend("compiled", True, _ckernel.drain)


def compiled_import_error() -> str | None:
    """Why the compiled extension does not import (its ImportError's
    text), or None when it does: the reason ``auto`` runs ``python``."""
    loaded = _load_compiled()
    return str(loaded) if isinstance(loaded, ImportError) else None


def available_backends() -> tuple[str, ...]:
    """Concrete backends importable right now (excludes ``auto``)."""
    if isinstance(_load_compiled(), ImportError):
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
        if isinstance(backend, ImportError):
            raise ConfigurationError(
                "engine backend 'compiled' requested but the "
                f"repro.engine._ckernel extension does not import ({backend}); "
                "run `python setup.py build_ext --inplace` or use "
                "REPRO_ENGINE_BACKEND=python"
            )
        return backend
    if name == "auto":
        backend = _load_compiled()
        return _PY_BACKEND if isinstance(backend, ImportError) else backend
    raise ConfigurationError(
        f"unknown engine backend {name!r}; choose from "
        f"{', '.join(ENGINE_BACKEND_CHOICES)}"
    )
