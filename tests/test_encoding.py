"""Unit and property tests for the bytes <-> DNA codecs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alphabet import gc_content, longest_homopolymer
from repro.pipeline.encoding import (
    Basic2BitCodec,
    CodecError,
    GCBalancedCodec,
    RotationCodec,
)

payloads = st.binary(max_size=64)
ALL_CODECS = (Basic2BitCodec(), RotationCodec(), GCBalancedCodec())


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundtrips:
    @given(payload=payloads)
    def test_roundtrip(self, codec, payload):
        assert codec.decode(codec.encode(payload)) == payload

    def test_empty_payload(self, codec):
        assert codec.decode(codec.encode(b"")) == b""

    def test_bases_per_byte_positive(self, codec):
        assert codec.bases_per_byte() >= 4

    @given(payload=payloads)
    def test_output_is_dna(self, codec, payload):
        assert set(codec.encode(payload)) <= set("ACGT")


class TestBasic2Bit:
    def test_known_encoding(self):
        # 0b00011011 -> A C G T
        assert Basic2BitCodec().encode(bytes([0b00011011])) == "ACGT"

    def test_four_bases_per_byte(self):
        assert Basic2BitCodec().bases_per_byte() == 4

    def test_decode_bad_length_raises(self):
        with pytest.raises(CodecError):
            Basic2BitCodec().decode("ACG")


class TestRotation:
    @given(payload=payloads)
    def test_never_produces_homopolymers(self, payload):
        strand = RotationCodec().encode(payload)
        assert longest_homopolymer(strand) <= 1

    def test_decode_rejects_homopolymer(self):
        with pytest.raises(CodecError, match="homopolymer"):
            RotationCodec().decode("CCGTAC")

    def test_decode_bad_length_raises(self):
        with pytest.raises(CodecError):
            RotationCodec().decode("CG")

    def test_six_bases_per_byte(self):
        assert RotationCodec().bases_per_byte() == 6


class TestGCBalanced:
    def test_balances_pathological_payload(self):
        # 0xAA = 0b10101010 -> "GGGG..." under the basic codec: all-GC.
        codec = GCBalancedCodec()
        strand = codec.encode(bytes([0xAA] * 16))
        assert 0.25 <= gc_content(strand) <= 0.75

    def test_flag_base_overhead(self):
        codec = GCBalancedCodec()
        strand = codec.encode(bytes(20))
        # 20 zero bytes -> 80 payload bases -> 4 blocks -> 4 flag bases.
        assert len(strand) == 84

    def test_decode_rejects_bad_flag(self):
        codec = GCBalancedCodec()
        strand = codec.encode(bytes(5))
        with pytest.raises(CodecError, match="flag"):
            codec.decode("G" + strand[1:])

    def test_decode_rejects_bare_flag(self):
        with pytest.raises(CodecError):
            GCBalancedCodec().decode("A")
