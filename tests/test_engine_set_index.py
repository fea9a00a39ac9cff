"""The compiled kernel's active-key index is the set it stands in for.

``Router.active_keys`` is a Python set whose iteration order is part of
the bit-identity contract: the allocation scan visits the input heads in
it.  The compiled kernel (``repro.engine._ckernel``) keeps a native twin
of each set's hash table — same probe sequence, dummies, last-dummy
reuse and resize rule as ``Objects/setobject.c`` — and snapshots the
scan from it, while every change it makes still goes to the set.  This
module pins that:

* the twin against the running interpreter's ``set``, slot for slot,
  after every operation (``_ckernel.check_set_model``), on the fixed
  sequence the import checks and on hypothesis-drawn sequences over key
  ranges up to an h=6 router's;
* python and compiled runs leave the same store *and* the same set
  iteration order behind at ``run_until`` boundaries, when Python edits
  the sets mid-drain — a callback generator whose ``Router.inject``
  runs inside a hook, and an ``engine.schedule`` callback that reorders
  them;
* the kernel counters say how many scans ran over how many keys, and
  that a lowered, twinned cell never had to reload an index;
* a set member that is not one of the router's input keys raises
  ``FlowControlError`` instead of crashing the compiled drain.

Builds without ``NDEBUG`` (the ``sanitize`` CI job's) additionally
compare every scan's snapshot with the set's own iterator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import Simulation
from repro.engine import kernel
from repro.errors import FlowControlError
from test_engine_backends import _store_snapshot, needs_compiled

pytestmark = needs_compiled

#: input keys of an h=6 router: (p + a - 1 + h) * max_vcs = 23 * 4
H6_NKEYS = 92


def _ckernel():
    from repro.engine import _ckernel

    return _ckernel


# ----------------------------------------------------------------------
# the twin against the interpreter's set
# ----------------------------------------------------------------------
def test_import_sequence_grows_reuses_and_rebuilds_after_churn():
    seen = _ckernel().check_set_model()
    assert seen["ops"] > 1000
    assert seen["grows"] >= 2 and seen["shrinks"] >= 1
    assert seen["purges"] >= 1 and seen["dummy_reuses"] >= 1


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    nkeys=st.integers(min_value=1, max_value=H6_NKEYS),
    add_share=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
)
def test_index_matches_the_set_table_after_every_operation(data, nkeys, add_share):
    ops = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1).map(lambda u: u < add_share),
                st.integers(min_value=0, max_value=nkeys - 1),
            ),
            max_size=600,
        )
    )
    _ckernel().check_set_model(ops)


def test_model_check_rejects_malformed_operations():
    for ops in ([(True, -1)], [(True, 2**31)], [(True, "x")], [3]):
        with pytest.raises(ValueError, match="check_set_model"):
            _ckernel().check_set_model(ops)


# ----------------------------------------------------------------------
# python == compiled at run_until boundaries, Python editing the sets
# ----------------------------------------------------------------------
def _cell(**kw) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing="in-trns-mm",
        warmup_cycles=50,
        measure_cycles=400,
        seed=7,
        **kw,
    ).with_traffic(pattern="advc", load=0.8)


def _reorder(sim: Simulation) -> None:
    """Discard each router's first two active keys, add every idle input
    key (the next scan finds them empty and leaves dummies behind), then
    add the two back in reverse: they may land in other slots."""
    soa = sim.soa
    for r in sim.routers:
        keys = list(r.active_keys)[:2]
        for key in keys:
            r.active_keys.discard(key)
        for key in range(r.nkeys):
            q = soa.in_q[r.kb + key]
            if q is not None and not q:
                r.active_keys.add(key)
        for key in reversed(keys):
            r.active_keys.add(key)


def _boundaries(cfg: SimulationConfig, backend: str, meddle: bool):
    sim = Simulation(cfg, engine_backend=backend)
    sim.start()
    if meddle:
        for t in (60, 61, 130, 260):
            sim.engine.schedule_at(t, _reorder, sim)
    seen = []
    for t_end in (100, 220, cfg.total_cycles):
        sim.engine.run_until(t_end)
        seen.append(
            (
                sim.engine.processed,
                sim.engine.activations,
                _store_snapshot(sim),
                [list(r.active_keys) for r in sim.routers],
            )
        )
    return sim, seen


def test_inject_inside_a_hook_keeps_the_order():
    """The oracle keeps the cell off the lowered path: the generator, the
    oracle and the sink run in Python, and ``Router.inject`` adds keys to
    the sets from inside a hook — found through its arming token."""
    cfg = _cell(oracle=True)
    _py, reference = _boundaries(cfg, "python", meddle=False)
    ck, compiled = _boundaries(cfg, "compiled", meddle=False)
    assert ck._lower is None
    assert compiled == reference
    counters = _ckernel().counters(ck.engine)
    assert counters["reentries_gen"] > 0
    assert 0 < counters["index_reloads"] <= counters["inbox_records"]


def test_callback_edits_of_the_sets_keep_the_order():
    """An ``engine.schedule`` callback reorders the sets mid-drain: the
    kernel reloads every index when the state comes back in (a full
    mirror, not counted as a reload)."""
    cfg = _cell()
    _py, reference = _boundaries(cfg, "python", meddle=True)
    ck, compiled = _boundaries(cfg, "compiled", meddle=True)
    assert ck._lower is not None
    assert compiled == reference
    counters = _ckernel().counters(ck.engine)
    assert counters["reentries_call"] >= 4
    assert counters["index_reloads"] == 0


def test_scan_counters_on_a_lowered_twinned_cell():
    sim = Simulation(_cell(), engine_backend="compiled")
    sim.run()
    counters = _ckernel().counters(sim.engine)
    assert counters["reentries_decide"] == 0 and counters["inbox_records"] == 0
    assert counters["steps"] > 0
    assert counters["scan_keys"] >= counters["steps"]
    assert counters["index_reloads"] == 0


# ----------------------------------------------------------------------
# a foreign member
# ----------------------------------------------------------------------
@pytest.mark.parametrize("member", [10**6, -1, 12, "x", None, 1])
def test_a_foreign_member_raises_instead_of_crashing(member):
    """Each of these used to end the compiled drain with SIGSEGV (12 is
    ``nkeys``; key 1 is a VC router 0's port 0 does not have, so its
    ``in_q`` slot is None).  The python reference raises IndexError /
    TypeError for three of them and, for -1 and ``nkeys``, silently
    reads a neighbouring router's queue: a check in its hot loop would
    cost ``cell_scenario_py``, so that stays out of scope."""
    sim = Simulation(tiny_config(seed=1, routing="min"), engine_backend="compiled")
    r = sim.routers[0]
    assert r.nkeys == 12
    r.active_keys.add(member)
    kernel.arm(r, 1)
    with pytest.raises(
        FlowControlError, match=f"router 0: active_keys member {member!r}"
    ):
        sim.engine.run_until(50)


class _Poisoned:
    """A traffic pattern that, from cycle 80 on, plants *member* in the
    set of the router it is about to inject into: an edit made inside the
    generator hook, on the router its arming token names."""

    def __init__(self, sim: Simulation, member) -> None:
        self._inner, self._sim, self._member = sim.traffic, sim, member

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def dest(self, node, rng):
        if self._sim.engine.now >= 80:
            self._sim.gen._inject_map[node][0].active_keys.add(self._member)
        return self._inner.dest(node, rng)


def test_a_foreign_member_planted_by_a_hook_raises():
    sim = Simulation(_cell(), engine_backend="compiled")
    sim.traffic = _Poisoned(sim, -5)
    sim.start()
    assert sim._lower is None
    with pytest.raises(FlowControlError, match="active_keys member -5"):
        sim.engine.run_until(200)
    assert sim.engine.now >= 80
