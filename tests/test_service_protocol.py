"""Tests for the sweep-service wire protocol (framing + plan payloads)."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.config import tiny_config
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.exec import ExperimentPlan, config_digest
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME,
    FrameDecoder,
    cells_from_wire,
    encode_frame,
    plan_to_wire,
    read_frame,
)


def quick_cfg(**kw):
    return tiny_config(warmup_cycles=100, measure_cycles=300, **kw)


def _reader(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


class TestFraming:
    def test_encode_round_trips_through_decoder(self):
        message = {"type": "submit", "plan": {"cells": [1, 2]}, "n": 3.5}
        frames = FrameDecoder().feed(encode_frame(message))
        assert frames == [message]

    def test_encode_is_canonical_json(self):
        frame = encode_frame({"b": 1, "a": 2, "type": "x"})
        payload = frame[4:]
        assert payload == b'{"a":2,"b":1,"type":"x"}'
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(payload)

    def test_decoder_handles_byte_by_byte_delivery(self):
        frame = encode_frame({"type": "ping"})
        decoder = FrameDecoder()
        messages = []
        for i in range(len(frame)):
            messages += decoder.feed(frame[i : i + 1])
        assert messages == [{"type": "ping"}]
        assert decoder.pending == 0

    def test_decoder_handles_many_frames_in_one_feed(self):
        blob = b"".join(encode_frame({"type": "n", "i": i}) for i in range(5))
        # Split at an arbitrary non-boundary point to cross frames.
        decoder = FrameDecoder()
        messages = decoder.feed(blob[:11]) + decoder.feed(blob[11:])
        assert [m["i"] for m in messages] == [0, 1, 2, 3, 4]

    def test_decoder_rejects_oversized_header_before_buffering(self):
        header = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="exceed"):
            FrameDecoder().feed(header)

    def test_encode_rejects_oversized_payload(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "x", "blob": "y" * 100})

    @pytest.mark.parametrize(
        "payload",
        [b"not json", b'"a string"', b"[1,2]", b'{"no_type":1}', b'{"type":7}'],
    )
    def test_decoder_rejects_malformed_payloads(self, payload):
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_service_errors_are_repro_errors(self):
        # The CLI maps ReproError -> exit 2; both service exceptions must
        # ride that path.
        assert issubclass(ProtocolError, ServiceError)
        assert issubclass(ServiceError, ReproError)


class TestReadFrame:
    def test_reads_one_frame(self):
        async def run():
            return await read_frame(_reader(encode_frame({"type": "pong"})))

        assert asyncio.run(run()) == {"type": "pong"}

    def test_clean_eof_returns_none(self):
        async def run():
            return await read_frame(_reader(b""))

        assert asyncio.run(run()) is None

    def test_eof_inside_header_is_protocol_error(self):
        async def run():
            await read_frame(_reader(b"\x00\x00"))

        with pytest.raises(ProtocolError, match="header"):
            asyncio.run(run())

    def test_eof_inside_payload_is_protocol_error(self):
        frame = encode_frame({"type": "ping"})

        async def run():
            await read_frame(_reader(frame[:-3]))

        with pytest.raises(ProtocolError, match="short"):
            asyncio.run(run())

    def test_oversized_declared_length_is_protocol_error(self):
        async def run():
            await read_frame(_reader(struct.pack(">I", MAX_FRAME + 1), eof=False))

        with pytest.raises(ProtocolError, match="exceed"):
            asyncio.run(run())


class TestPlanPayloads:
    def test_round_trip_preserves_digests(self):
        plan = ExperimentPlan.grid(
            quick_cfg(), routings=["min", "obl-rrg"], loads=[0.1, 0.2], seeds=2
        )
        wire = plan_to_wire(plan)
        assert json.dumps(wire)  # JSON-serializable as-is
        cells = cells_from_wire(wire)
        assert set(cells) == {cell.digest for cell in plan}
        for digest, config in cells.items():
            assert config_digest(config) == digest

    def test_wire_cells_are_digest_sorted_and_deduplicated(self):
        plan = ExperimentPlan.grid(quick_cfg(), loads=[0.1, 0.2], seeds=2)
        wire = plan_to_wire(plan)
        digests = [config_digest(cells_from_wire({"cells": [c]}).popitem()[1])
                   for c in wire["cells"]]
        assert digests == sorted(digests)
        assert len(digests) == len(set(digests)) == plan.unique_cells()

    @pytest.mark.parametrize("payload", [{}, {"cells": []}, {"cells": "x"}])
    def test_empty_or_malformed_submit_rejected(self, payload):
        with pytest.raises(ProtocolError, match="non-empty"):
            cells_from_wire(payload)

    def test_unbuildable_config_rejected(self):
        wire = plan_to_wire(ExperimentPlan.point(quick_cfg(), seeds=1))
        broken = dict(wire["cells"][0])
        broken["routing"] = "no-such-routing"
        with pytest.raises(ProtocolError, match="unbuildable"):
            cells_from_wire({"cells": [broken]})

    @pytest.mark.parametrize(
        "field, value", [("warmup_cycles", 400.5), ("oracle", "yes")]
    )
    def test_mistyped_field_rejected(self, field, value):
        wire = plan_to_wire(ExperimentPlan.point(quick_cfg(), seeds=1))
        broken = dict(wire["cells"][0], **{field: value})
        with pytest.raises(ProtocolError, match=field):
            cells_from_wire({"cells": [broken]})

    def test_digest_rederived_not_trusted(self):
        # A client cannot alias config A under cell key B: keys come from
        # hashing the rebuilt config, whatever the peer claims.
        plan = ExperimentPlan.point(quick_cfg(), seeds=1)
        wire = plan_to_wire(plan)
        cells = cells_from_wire({"cells": wire["cells"], "digest": "bogus"})
        assert all(config_digest(cfg) == d for d, cfg in cells.items())
