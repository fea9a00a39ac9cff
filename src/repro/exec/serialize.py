"""Config/result (de)serialization and stable config digests.

The runner's on-disk result store and the cell-level deduplication both
need a *stable* identity for a :class:`repro.config.SimulationConfig`.
:func:`config_digest` provides it: the SHA-256 of the config's canonical
JSON form (sorted keys, exact float repr).  Two configs are equal as
dataclasses iff they share a digest: the configs coerce their float
fields to ``float`` on construction, so ``load=1`` and ``load=1.0`` are
one config with one digest.

A config is immutable, so its digest is computed at most once: the first
:func:`config_digest` call stores it on the instance and every later
call (plan cells, parent points, store loads, ``results_for``) reads it
back.  :func:`config_to_dict` walks the dataclass fields directly; it
returns exactly what ``dataclasses.asdict`` would (same key order, same
tuple types), which is what keeps digests and stored bytes unchanged.

Results round-trip losslessly: JSON preserves Python floats exactly
(``repr`` round-trip) and the derived ``fairness`` field is recomputed by
:class:`repro.core.results.SimulationResult` on construction.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import fields
from typing import Any

from repro.config import (
    JobSpec,
    NetworkConfig,
    RouterConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.core.results import SimulationResult

__all__ = [
    "canonical_json",
    "config_digest",
    "config_to_dict",
    "config_from_dict",
    "entry_checksum",
    "plan_digest",
    "result_to_dict",
    "result_from_dict",
]

#: bump when the simulator's semantics change in a way that invalidates
#: previously stored results (checked by the result store).
#: v2: scenario fields in TrafficConfig + oracle flag/verdict (PR 4).
#: v3: per-entry checksums for the crash-safe store (PR 7).
STORE_VERSION = 3


def canonical_json(data: Any) -> str:
    """Canonical JSON text of *data* (sorted keys, no whitespace).

    The checksum base: two dicts with equal content produce equal bytes
    on every machine, so store entries written by different workers are
    byte-comparable.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def entry_checksum(result_data: dict[str, Any]) -> str:
    """SHA-256 over the canonical form of a stored result payload."""
    return hashlib.sha256(canonical_json(result_data).encode("utf-8")).hexdigest()


#: field names of every config dataclass, in declaration order.
_FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (SimulationConfig, NetworkConfig, RouterConfig, TrafficConfig, JobSpec)
}


def config_to_dict(config: Any) -> dict[str, Any]:
    """Canonical plain-dict form of a config: what ``dataclasses.asdict``
    returns, key order and tuple types included.

    A config field holds a scalar, a nested config, or a tuple of scalars
    or configs (``phase_patterns``, ``jobs``); scalars are immutable, so
    unlike ``asdict`` this copies nothing.
    """
    out = {}
    for name in _FIELDS[type(config)]:
        value = getattr(config, name)
        if type(value) in _FIELDS:
            value = config_to_dict(value)
        elif type(value) is tuple:
            value = tuple(
                config_to_dict(v) if type(v) in _FIELDS else v for v in value
            )
        out[name] = value
    return out


def config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict`."""
    nested = {
        "network": NetworkConfig(**data["network"]),
        "router": RouterConfig(**data["router"]),
        "traffic": TrafficConfig(**data["traffic"]),
    }
    scalars = {
        k: v for k, v in data.items() if k not in ("network", "router", "traffic")
    }
    return SimulationConfig(**nested, **scalars)


def config_digest(config: SimulationConfig) -> str:
    """Stable hex digest identifying *config* (equal configs, equal digest).

    Computed once per config object: the first call stores the digest
    in the instance's ``__dict__`` (outside the dataclass fields, so
    equality, hashing and ``replace`` never see it).  Two threads racing
    on a fresh config both store the same value.
    """
    digest = config.__dict__.get("_digest")
    if digest is None:
        payload = canonical_json(config_to_dict(config))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        config.__dict__["_digest"] = digest
    return digest


def plan_digest(cell_digests: Iterable[str]) -> str:
    """Stable hex digest of a plan's *unique cell set*.

    The digest is computed over the sorted, de-duplicated cell digests, so
    it is independent of grid construction order, cell repetition, and the
    machine computing it — any two workers that agree on this value agree
    on the exact set of simulations a plan contains (the property shard
    partitioning and merge verification rely on).
    """
    payload = "\n".join(sorted(set(cell_digests)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Serializable form of a single-run result (fairness is derived)."""
    return {
        "config": config_to_dict(result.config),
        "routing": result.routing,
        "pattern": result.pattern,
        "offered_load": result.offered_load,
        "accepted_load": result.accepted_load,
        "avg_latency": result.avg_latency,
        "latency_std": result.latency_std,
        "max_latency": result.max_latency,
        "latency_breakdown": result.latency_breakdown,
        "delivered_packets": result.delivered_packets,
        "generated_packets": result.generated_packets,
        "injected_per_router": result.injected_per_router,
        "delivered_per_router": result.delivered_per_router,
        "in_flight_at_end": result.in_flight_at_end,
        "events_processed": result.events_processed,
        "oracle": result.oracle,
    }


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    kwargs = dict(data)
    kwargs["config"] = config_from_dict(kwargs["config"])
    return SimulationResult(**kwargs)
