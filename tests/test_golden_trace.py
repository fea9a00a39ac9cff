"""Golden-trace regression tests: two end-to-end runs must replay
bit-identically.

The digests below fingerprint the *complete* serialized result (config,
every counter, per-router arrays, latency breakdown, oracle verdict) of
small runs — one static paper pattern, one time-varying scenario, and
one ADVc cell per mechanism of the catalogue, each on both engine
backends.  Any engine, routing, traffic or metrics change that perturbs
simulation behaviour in any way changes a digest and fails here loudly;
pinning every mechanism on both backends also catches a change that
moves the python reference and the C twins in lockstep.

This is the guard rail for future perf work: optimisations must be
bit-identical (see README "Performance"), and these constants are the
cheapest end-to-end witness of that.  If a change is *intended* to
alter results (a semantics change, not an optimisation), update the
constants — and bump ``repro.exec.serialize.STORE_VERSION`` in the same
commit, because every cached result is stale too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import NetworkConfig, SimulationConfig, tiny_config
from repro.core.simulation import run_simulation
from repro.engine.kernel import available_backends
from repro.exec.serialize import result_to_dict
from repro.routing.factory import ROUTING_NAMES

BACKENDS = [
    "python",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            "compiled" not in available_backends(),
            reason="compiled engine backend not built "
            "(python setup.py build_ext --inplace)",
        ),
    ),
]

# Static paper workload: ADVc under in-transit adaptive MM routing.
STATIC_CONFIG = tiny_config(seed=3, routing="in-trns-mm").with_traffic(
    pattern="advc", load=0.4
)
STATIC_DIGEST = "ce99e9996c605db20344e433a1aad2f86a5dab3aa678520fe706e298e3444da2"

# Time-varying scenario workload: bursty adversarial, oracle-audited
# (also pins the drain path's determinism).
BURSTY_CONFIG = tiny_config(seed=5, oracle=True).with_traffic(
    pattern="adversarial", load=0.35, burst_on=120, burst_off=80
)
BURSTY_DIGEST = "4b773616008ced249d9a962f53c0e1a1cd4c60302b8caf73d54051c51ba7597b"

# MIN on the static workload's pattern.
MIN_CONFIG = tiny_config(seed=3, routing="min").with_traffic(pattern="advc", load=0.4)
MIN_DIGEST = "ff51ca5d9dc664c93b09c997f099b5ad82acde371652d2baa676f1964117fbc4"


def advc_config(routing: str) -> SimulationConfig:
    """ADVc at a=4, h=2: every twin branch is reachable, and the compiled
    memo reuses decisions under its congestion-epoch, counter and
    plan-frozen guards while the python backend decides every head on
    every pass."""
    return SimulationConfig(
        network=NetworkConfig(p=2, a=4, h=2),
        routing=routing,
        warmup_cycles=100,
        measure_cycles=600,
        seed=13,
    ).with_traffic(pattern="advc", load=0.8)


MECHANISM_DIGESTS = {
    "min": "e24a8fdeb95f0fc7458d9c42d24e2dfec9850fe109503d40a111c9bea79a9eaa",
    "obl-rrg": "94a1241fd9593772c5d77e6e17915716153a86b5cc39899d15e5b140aec382f8",
    "obl-crg": "e48fef47f8af032279409231d9ec8397ca7208808be8a83fbe374827f83c6750",
    "src-rrg": "e3e4361fb7075119aa442243eda7f4589de69e1ed17c3a2cea3a79d1a0acee77",
    "src-crg": "5a81f33aafb8524ff3029f5b8198b72af6e8696b85fb57d10a9fb81a5ac65530",
    "in-trns-rrg": "b25d9bafc9b216a7a50bd9b7c5db2cc754e23438f865e548c1447906d4900e22",
    "in-trns-crg": "74ca5be9866dec755e386a82122c91090efd770426da5b42c2eb51102667a33d",
    "in-trns-mm": "1b0f0f997cbfaee93e357db6a2f01502db3cf01201725d3d8e219dcd54495a3e",
}


def _run_digest(cfg, backend: str | None = None) -> str:
    result = run_simulation(cfg, engine_backend=backend)
    payload = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_static_trace_replays_bit_identically():
    assert _run_digest(STATIC_CONFIG) == STATIC_DIGEST


def test_bursty_trace_replays_bit_identically():
    assert _run_digest(BURSTY_CONFIG) == BURSTY_DIGEST


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("routing", ROUTING_NAMES)
def test_every_mechanism_replays_bit_identically(routing, backend):
    assert _run_digest(advc_config(routing), backend) == MECHANISM_DIGESTS[routing]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "cfg, digest",
    [(STATIC_CONFIG, STATIC_DIGEST), (MIN_CONFIG, MIN_DIGEST)],
    ids=["static", "min"],
)
def test_tiny_traces_replay_on_both_backends(cfg, digest, backend):
    assert _run_digest(cfg, backend) == digest


def test_golden_runs_are_nontrivial():
    """The fingerprinted runs actually exercise the network."""
    static = run_simulation(STATIC_CONFIG)
    bursty = run_simulation(BURSTY_CONFIG)
    assert static.delivered_packets > 50
    assert bursty.delivered_packets > 50
    assert bursty.oracle is not None and bursty.oracle["passed"]
