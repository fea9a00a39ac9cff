"""Wire protocol of the sweep service: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object with a ``"type"`` key.  The
format is deliberately minimal — stdlib only, no schema compiler — and
symmetric: both daemon and client speak the same framing.

Client -> daemon message types::

    submit   {"plan": {"cells": [<config dict>, ...]}}
    resume   {"plan": "<plan digest>"}
    stats    {}
    ping     {}

Daemon -> client::

    plan_accepted  {"plan", "cells", "unique", "cached", "resumed"}
    busy           {"reason"}              (backpressure rejection)
    error          {"error"}
    cell_done      {"plan", "digest", "provenance", "attempts",
                    "oracle", "metrics"}
    cell_failed    {"plan", "digest", "kind", "error", "attempts"}
    plan_done      {"plan", "cells", "computed", "cache_hits",
                    "shared", "failed"}
    stats          {scheduler counters + daemon gauges}
    pong           {}

Cell configs travel as their canonical dict form
(:func:`repro.exec.serialize.config_to_dict`); the daemon re-derives
every digest server-side, so a client cannot alias one config under
another cell's cache key.

Framing is hardened at both ends: :data:`MAX_FRAME` bounds a declared
payload length before any allocation happens (a 4-byte header claiming
gigabytes is rejected, not trusted), and the incremental
:class:`FrameDecoder` reassembles frames from arbitrarily split reads so
the transport may deliver bytes in any chunking.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.config import SimulationConfig
from repro.errors import ProtocolError
from repro.exec.plan import ExperimentPlan
from repro.exec.serialize import config_digest, config_from_dict, config_to_dict

__all__ = [
    "MAX_FRAME",
    "FrameDecoder",
    "cells_from_wire",
    "encode_frame",
    "plan_to_wire",
    "read_frame",
    "write_frame",
]

#: hard upper bound on one frame's JSON payload, in bytes.  Large enough
#: for a multi-thousand-cell submit, small enough that a corrupt or
#: hostile length header cannot make the receiver allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize *message* into one length-prefixed frame."""
    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack allows.
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload must be an object with a 'type' key")
    return message


class FrameDecoder:
    """Incremental frame reassembly for arbitrarily split byte streams.

    Feed it whatever the transport hands you; it returns every complete
    message and buffers the trailing partial frame for the next feed.
    Raises :class:`repro.errors.ProtocolError` as soon as a header
    declares an oversized payload — before buffering any of it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb *data*; return the messages it completed (maybe [])."""
        self._buffer.extend(data)
        messages: list[dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"incoming frame declares {length} bytes, exceeding "
                    f"the {MAX_FRAME}-byte limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            messages.append(_decode_payload(payload))
        return messages

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("stream ended inside a frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"incoming frame declares {length} bytes, exceeding the "
            f"{MAX_FRAME}-byte limit"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"stream ended {length - len(exc.partial)} byte(s) short of "
            "a frame payload"
        ) from exc
    return _decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Send one frame and wait for the transport buffer to drain."""
    writer.write(encode_frame(message))
    await writer.drain()


# -- plan payloads -----------------------------------------------------------
def plan_to_wire(plan: ExperimentPlan) -> dict[str, Any]:
    """Wire form of *plan*: its unique cell configs, digest-sorted.

    Only the resolved cells travel — the daemon schedules simulations,
    it does not aggregate sweeps, so parent/point structure stays with
    the client.
    """
    unique: dict[str, SimulationConfig] = {}
    for cell in plan:
        unique.setdefault(cell.digest, cell.config)
    return {"cells": [config_to_dict(unique[d]) for d in sorted(unique)]}


def cells_from_wire(data: Any) -> dict[str, SimulationConfig]:
    """Rebuild a submit payload into digest-keyed configs.

    Digests are re-derived here (never trusted from the peer); an
    unbuildable config — including a mistyped field, such as a
    fractional cycle count — is a protocol error at submit, not a daemon
    crash or a cell that fails in a worker.
    """
    cells = data.get("cells") if isinstance(data, dict) else None
    if not isinstance(cells, list) or not cells:
        raise ProtocolError("submit payload needs a non-empty 'cells' list")
    out: dict[str, SimulationConfig] = {}
    for entry in cells:
        try:
            config = config_from_dict(entry)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"unbuildable cell config in submit: {exc}") from exc
        out[config_digest(config)] = config
    return out
