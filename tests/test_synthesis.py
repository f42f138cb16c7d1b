"""Unit tests for strand layout and CRC (repro.pipeline.synthesis)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline.encoding import Basic2BitCodec, RotationCodec
from repro.pipeline.synthesis import StrandLayout, StrandParseError, crc8


class TestCrc8:
    def test_deterministic(self):
        assert crc8(b"hello") == crc8(b"hello")

    def test_detects_single_bit_flip(self):
        original = crc8(b"hello")
        assert crc8(b"hellp") != original

    def test_empty_payload(self):
        assert crc8(b"") == 0

    @given(st.binary(max_size=40))
    def test_in_byte_range(self, payload):
        assert 0 <= crc8(payload) <= 255

    def test_table_matches_bitwise_loop(self):
        """The lookup table gives what eight bit steps per byte give, for
        every single byte and for seeded payloads of 0 to 64 bytes."""
        rng = random.Random(8)
        payloads = [bytes([byte]) for byte in range(256)]
        payloads += [rng.randbytes(length) for length in range(65) for _ in range(4)]
        for payload in payloads:
            assert crc8(payload) == bitwise_crc8(payload), payload


def bitwise_crc8(payload: bytes) -> int:
    """CRC-8/CCITT (x^8 + x^2 + x + 1) by the textbook loop of eight bit
    steps per byte."""
    value = 0
    for byte in payload:
        value ^= byte
        for _ in range(8):
            if value & 0x80:
                value = ((value << 1) ^ 0x07) & 0xFF
            else:
                value = (value << 1) & 0xFF
    return value


class TestStrandLayout:
    @pytest.fixture
    def layout(self):
        return StrandLayout("ACGTACGTACGTACGTACGT", Basic2BitCodec(), 8)

    def test_build_parse_roundtrip(self, layout):
        strand = layout.build(42, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        index, payload = layout.parse(strand)
        assert index == 42
        assert payload == b"\x01\x02\x03\x04\x05\x06\x07\x08"

    @given(index=st.integers(0, 65535), payload=st.binary(min_size=8, max_size=8))
    def test_roundtrip_property(self, index, payload):
        layout = StrandLayout("ACGT", RotationCodec(), 8)
        assert layout.parse(layout.build(index, payload)) == (index, payload)

    def test_strand_length_consistent(self, layout):
        strand = layout.build(0, bytes(8))
        assert len(strand) == layout.strand_length()

    def test_index_out_of_range(self, layout):
        with pytest.raises(ValueError):
            layout.build(65536, bytes(8))

    def test_wrong_payload_size(self, layout):
        with pytest.raises(ValueError):
            layout.build(0, bytes(7))

    def test_parse_detects_corruption_via_crc(self, layout):
        strand = layout.build(7, bytes(8))
        body_start = len(layout.primer)
        corrupted = (
            strand[: body_start + 3]
            + ("A" if strand[body_start + 3] != "A" else "C")
            + strand[body_start + 4 :]
        )
        with pytest.raises(StrandParseError):
            layout.parse(corrupted)

    def test_parse_rejects_wrong_length(self, layout):
        strand = layout.build(7, bytes(8))
        with pytest.raises(StrandParseError):
            layout.parse(strand[:-4])

    def test_parse_rejects_shorter_than_primer(self, layout):
        with pytest.raises(StrandParseError):
            layout.parse("ACG")

    def test_empty_primer_allowed(self):
        layout = StrandLayout("", Basic2BitCodec(), 4)
        assert layout.parse(layout.build(1, bytes(4)))[0] == 1

    def test_invalid_payload_bytes(self):
        with pytest.raises(ValueError):
            StrandLayout("ACGT", Basic2BitCodec(), 0)
