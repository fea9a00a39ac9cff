"""The lowered OP_GEN / OP_DELIVER fast path is bit-identical.

On the compiled backend a cell whose pattern has a lowering descriptor
generates and sinks natively: ``c_gen`` / ``c_deliver`` in
``_ckernel.c``, twins of ``Simulation._gen_event`` (``pattern.dest``) and
the collector's hooks, with an in-kernel MT19937.  The python backend
never lowers: it always runs the callback path, the reference the twins
are tested against.  The contract is the same as for the backends
themselves: *bit-identical is the contract*.  The callback reference of a
lowerable cell is reached with ``sim._unlower()`` before the first drain.
Both sinks audit every delivery's latency ledger.  This module pins the
contract four ways:

* the lowering **selection** — it follows from the backend and the cell
  alone (static pattern with a descriptor, no oracle, traffic not swapped
  after construction);
* the **equivalence matrix** — each backend's own selection vs the
  callback run, compared field-by-field (result, event / activation
  counts, the traffic RNG state after the run, the stat buffers) across
  patterns, down to the byte-identical store entry: on the compiled
  backend that is lowered vs callback, on the python backend two runs of
  the one path;
* the golden-trace digests replayed on both backends, lowered and not,
  and a broken ledger raising at delivery on either sink;
* the **RNG stream** — a hypothesis property test driving the compiled
  kernel's MT19937 from arbitrary ``random.Random`` states and checking
  every draw and the resulting state word-for-word; and the
  ``Simulation._make_packet`` reference constructor pinned
  field-by-field against the construction the generator inlines.

Compiled parameterizations skip cleanly when the extension is not
built.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_config, tiny_config
from repro.core.simulation import Simulation
from repro.engine.kernel import available_backends
from repro.exec.serialize import result_to_dict
from repro.hardware.packet import Packet
from repro.hardware.router import Router
from repro.traffic import SCENARIOS
from repro.traffic.patterns import make_traffic
from test_determinism_matrix import _result_fields
from test_golden_trace import (
    BURSTY_CONFIG,
    BURSTY_DIGEST,
    STATIC_CONFIG,
    STATIC_DIGEST,
)

HAVE_COMPILED = "compiled" in available_backends()

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="compiled engine backend not built "
    "(python setup.py build_ext --inplace)",
)

BACKENDS = [
    "python",
    pytest.param("compiled", marks=needs_compiled),
]

#: Statically lowerable patterns (total, always-active, foreign-dest).
LOWERABLE = ["uniform", "adversarial", "advc", "permutation"]


def _payload(result) -> str:
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )


def _run(cfg, backend, lowered):
    """Run *cfg*; ``lowered=False`` takes the callback reference path,
    ``True`` the backend's own selection."""
    sim = Simulation(cfg, engine_backend=backend)
    if not lowered:
        sim._unlower()
    result = sim.run()
    return sim, result


# ----------------------------------------------------------------------
# lowering is selected by the backend and the cell, not by a switch
# ----------------------------------------------------------------------
def _cell(pattern="uniform", **kw):
    return tiny_config(**kw).with_traffic(pattern=pattern, load=0.3)


#: id -> (config, swap sim.traffic?, lowered on compiled?)
SELECTION = {
    **{pattern: (_cell(pattern), False, True) for pattern in LOWERABLE},
    # hotspot draws a bernoulli before the destination: no descriptor
    "hotspot": (_cell("hotspot"), False, False),
    # the oracle audits every delivery: the callback sink must stay
    "oracle": (_cell(oracle=True), False, False),
    # time-varying scenarios gate activity per cycle: no static descriptor
    **{
        f"scenario:{name}": (
            sc.apply(small_config().with_traffic(load=0.3)),
            False,
            False,
        )
        for name, sc in SCENARIOS.items()
    },
    # a pattern swapped in after construction must be consulted
    "traffic_swap": (_cell(), True, False),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", SELECTION)
def test_lowering_is_selected_by_input(backend, case):
    """The python backend never lowers; the compiled one lowers exactly
    the cells marked so above."""
    cfg, swap, lowered = SELECTION[case]
    sim = Simulation(cfg, engine_backend=backend)
    if swap:
        sim.traffic = make_traffic(cfg.traffic, sim.topo, seed=1)
        sim.start()
    assert sim.engine_backend == backend
    assert (sim._lower is not None) == (lowered and backend == "compiled")
    assert (sim.engine._lower is sim) == (sim._lower is not None)


# ----------------------------------------------------------------------
# equivalence matrix: each backend's selection vs the callback reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pattern", LOWERABLE + ["hotspot"])
def test_lowering_is_bit_identical(backend, pattern):
    cfg = tiny_config(seed=11, routing="in-trns-mm").with_traffic(
        pattern=pattern, load=0.35
    )
    off_sim, off = _run(cfg, backend, lowered=False)
    on_sim, on = _run(cfg, backend, lowered=True)
    lowers = backend == "compiled" and pattern != "hotspot"
    assert off_sim._lower is None
    assert (on_sim._lower is not None) == lowers
    assert _result_fields(off) == _result_fields(on)
    assert _payload(off) == _payload(on)
    assert off_sim.engine.processed == on_sim.engine.processed
    assert off_sim.engine.activations == on_sim.engine.activations
    # the traffic RNG consumed exactly the same stream prefix
    assert off_sim.rng_traffic.getstate() == on_sim.rng_traffic.getstate()
    assert off_sim._pid == on_sim._pid
    # one sink: both paths leave the same four stat buffers behind
    for name in ("si", "sf", "injected_per_router", "delivered_per_router"):
        off_buf, on_buf = getattr(off_sim.stats, name), getattr(on_sim.stats, name)
        assert list(off_buf) == list(on_buf), name
    assert on_sim.stats.total_delivered > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_collector_reads_live_inside_a_lowered_drain(backend):
    """The collector is the sink of a drain on either path, a lowered
    one included: what the deadlock watchdog reads moves while the run is
    still going."""
    cfg = tiny_config(warmup_cycles=100, measure_cycles=400).with_traffic(
        pattern="uniform", load=0.3
    )
    sim = Simulation(cfg, engine_backend=backend)
    assert (sim._lower is not None) == (backend == "compiled")
    seen = []

    def probe():
        seen.append((sim.stats.total_delivered, sim.stats.in_flight()))
        if sim.engine.now < 400:
            sim.engine.schedule(100, probe)

    sim.engine.schedule(100, probe)
    result = sim.run()
    delivered = [d for d, _ in seen]
    assert len(seen) == 4 and delivered[0] > 0
    assert delivered == sorted(set(delivered))  # strictly advancing
    assert all(f > 0 for _, f in seen)
    assert sim.stats.total_delivered > delivered[-1]
    assert sim.stats.in_flight() == result.in_flight_at_end


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_broken_ledger_raises_at_delivery(backend):
    """Both sinks audit every delivery in the window, the lowered
    ``c_deliver`` included: a callback that adds a cycle to a queued
    packet's ``wait_local`` makes that packet's delivery raise."""
    sim = Simulation(_cell(), engine_backend=backend)
    assert (sim._lower is not None) == (backend == "compiled")
    corrupted = []

    def corrupt():
        for q in sim.soa.in_q:
            if q:
                q[0].wait_local += 1
                corrupted.append(q[0].pid)
                return
        sim.engine.schedule(1, corrupt)  # nothing queued: try next cycle

    sim.engine.schedule_at(300, corrupt)
    with pytest.raises(AssertionError) as err:
        sim.run()
    assert str(err.value).startswith(
        f"latency decomposition broken for packet {corrupted[0]}: "
    )


@needs_compiled
def test_lowering_matrix_agrees_across_backends():
    """python callback, compiled callback, compiled lowered: one
    byte-identical store payload."""
    cfg = tiny_config(seed=4, routing="obl-rrg").with_traffic(
        pattern="advc", load=0.4
    )
    runs = {
        ("python", False): _run(cfg, "python", False),
        ("compiled", False): _run(cfg, "compiled", False),
        ("compiled", True): _run(cfg, "compiled", True),
    }
    assert runs["compiled", True][0]._lower is not None
    assert len({_payload(result) for _sim, result in runs.values()}) == 1


@pytest.mark.parametrize("lowered", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_traces_per_backend_and_lowering(backend, lowered):
    # BURSTY_CONFIG never lowers; it rides along as the scenario golden.
    for cfg, digest in (
        (STATIC_CONFIG, STATIC_DIGEST),
        (BURSTY_CONFIG, BURSTY_DIGEST),
    ):
        payload = _payload(_run(cfg, backend, lowered)[1])
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == digest


# ----------------------------------------------------------------------
# _make_packet is the generator's construction, field by field
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_cfg", [tiny_config, small_config], ids=["tiny", "small"]
)
@pytest.mark.parametrize("pattern", LOWERABLE)
def test_make_packet_matches_gen_event(make_cfg, pattern, monkeypatch):
    """``Simulation._make_packet`` (the documented reference constructor)
    and the construction ``_gen_event`` runs produce identical packets for
    the same (source, destination, cycle) over random node pairs of real
    topologies."""
    cfg = make_cfg(seed=23).with_traffic(pattern=pattern, load=0.5)
    sim = Simulation(cfg)
    captured = []
    original = Router.inject

    def recording_inject(self, node_port, pkt, now=None):
        captured.append(pkt)
        return original(self, node_port, pkt, now)

    monkeypatch.setattr(Router, "inject", recording_inject)
    rng = random.Random(99)
    for _ in range(40):
        node = rng.randrange(sim.topo.num_nodes)
        before = len(captured)
        sim._gen_event(node)
        if len(captured) == before:
            continue  # pattern generated nothing this cycle
        pkt = captured[-1]
        ref = sim._make_packet(node, pkt.dst_node, pkt.gen_time)
        for field in Packet.__slots__:
            if field == "pid":
                # _make_packet drew the next id after the captured one
                assert ref.pid == pkt.pid + 1
            else:
                assert getattr(ref, field) == getattr(pkt, field), field
    assert captured, "no packets generated"


# ----------------------------------------------------------------------
# the in-kernel MT19937 is CPython's random.Random, word for word
# ----------------------------------------------------------------------
# None -> random(), k -> getrandbits(k), (n,) -> randrange(n),
# ("choice", n) -> choice(range(n)), ("shuffle", n) -> shuffle(list(range(n)))
_ops = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=32),
        st.tuples(st.integers(min_value=1, max_value=2**32 - 1)),
        st.tuples(st.integers(min_value=1, max_value=80)),
        st.tuples(st.just("choice"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("shuffle"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1,
    max_size=200,
)


def _draw(rng: random.Random, op):
    if op is None:
        return rng.random()
    if not isinstance(op, tuple):
        return rng.getrandbits(op)
    if op[0] == "choice":
        return rng.choice(range(op[1]))
    if op[0] == "shuffle":
        items = list(range(op[1]))
        rng.shuffle(items)
        return items
    return rng.randrange(op[0])


def _kernel_op(op):
    """The hook has no ``choice``: the kernel picks item ``_randbelow(n)``
    of its own list, which is the hook's ``(n,)``."""
    if isinstance(op, tuple) and op[0] == "choice":
        return (op[1],)
    return op


@needs_compiled
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), ops=_ops)
@settings(max_examples=60, deadline=None)
def test_mt_stream_equivalence(seed, ops):
    """From an arbitrary Random state, N lowered draws return the same
    values and leave the same state as N interpreted draws on a fork."""
    from repro.engine import _ckernel

    ref = random.Random(seed)
    # wander to an arbitrary mid-stream position (odd index included,
    # which exercises the res53 two-word draw straddling regenerations)
    for _ in range(seed % 7):
        ref.random()
    if seed % 2:
        ref.getrandbits(17)
    state = ref.getstate()
    values, out_state = _ckernel.mt_ops(state, [_kernel_op(op) for op in ops])
    assert values == [_draw(ref, op) for op in ops]
    assert out_state == ref.getstate()


@needs_compiled
def test_mt_ops_validates_width():
    from repro.engine import _ckernel

    state = random.Random(1).getstate()
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [0])
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [33])
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [(0,)])
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [(2**32,)])
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [("choice", 3)])
    with pytest.raises(ValueError):
        _ckernel.mt_ops(state, [("shuffle", -1)])
