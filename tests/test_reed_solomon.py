"""Unit and property tests for the Reed-Solomon code."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.pipeline.reed_solomon import ReedSolomon, ReedSolomonError


class TestEncoding:
    def test_systematic_prefix(self):
        rs = ReedSolomon(4)
        data = bytes(range(10))
        assert rs.encode(data)[:10] == data

    def test_parity_length(self):
        rs = ReedSolomon(6)
        assert len(rs.encode(bytes(10))) == 16

    def test_valid_codeword_checks(self):
        rs = ReedSolomon(4)
        assert rs.check(rs.encode(b"hello"))

    def test_corrupted_codeword_fails_check(self):
        rs = ReedSolomon(4)
        codeword = bytearray(rs.encode(b"hello"))
        codeword[0] ^= 1
        assert not rs.check(bytes(codeword))

    def test_oversized_codeword_rejected(self):
        rs = ReedSolomon(8)
        with pytest.raises(ValueError):
            rs.encode(bytes(250))

    def test_invalid_parity_count(self):
        with pytest.raises(ValueError):
            ReedSolomon(0)
        with pytest.raises(ValueError):
            ReedSolomon(255)


class TestDecoding:
    def test_clean_codeword_decodes(self):
        rs = ReedSolomon(4)
        assert rs.decode(rs.encode(b"payload")) == b"payload"

    def test_corrects_single_error(self):
        rs = ReedSolomon(4)
        codeword = bytearray(rs.encode(b"payload"))
        codeword[3] ^= 0x5A
        assert rs.decode(bytes(codeword)) == b"payload"

    def test_corrects_errors_up_to_half_parity(self):
        rs = ReedSolomon(8)
        data = bytes(range(40))
        codeword = bytearray(rs.encode(data))
        for position in (0, 13, 29, 44):
            codeword[position] ^= 0xFF
        assert rs.decode(bytes(codeword)) == data

    def test_corrects_full_parity_of_erasures(self):
        rs = ReedSolomon(8)
        data = bytes(range(40))
        codeword = bytearray(rs.encode(data))
        erasures = [1, 7, 19, 23, 31, 40, 41, 47]
        for position in erasures:
            codeword[position] = 0
        assert rs.decode(bytes(codeword), erasure_positions=erasures) == data

    def test_mixed_errors_and_erasures(self):
        rs = ReedSolomon(6)
        data = bytes(range(30))
        codeword = bytearray(rs.encode(data))
        codeword[2] ^= 0x77  # one unknown error (costs 2)
        codeword[10] = 0  # erasures (cost 1 each)
        codeword[20] = 0
        assert rs.decode(bytes(codeword), erasure_positions=[10, 20]) == data

    def test_too_many_errors_raises(self):
        rs = ReedSolomon(4)
        codeword = bytearray(rs.encode(bytes(range(30))))
        for position in (0, 5, 9):
            codeword[position] ^= 0xFF
        with pytest.raises(ReedSolomonError):
            rs.decode(bytes(codeword))

    def test_too_many_erasures_raises(self):
        rs = ReedSolomon(2)
        codeword = rs.encode(bytes(10))
        with pytest.raises(ReedSolomonError):
            rs.decode(codeword, erasure_positions=[0, 1, 2])

    def test_erasure_position_out_of_range(self):
        rs = ReedSolomon(2)
        codeword = rs.encode(bytes(10))
        with pytest.raises(ValueError):
            rs.decode(codeword, erasure_positions=[99])


class TestUnrepresentableWords:
    """Words the code cannot represent are rejected, not misread."""

    def test_word_longer_than_255_rejected(self):
        # alpha^255 = 1, so positions 0 and 255 share a locator and this
        # word has zero syndromes.
        word = bytearray(300)
        word[0] = word[255] = 5
        rs = ReedSolomon(2)
        with pytest.raises(ConfigError, match="outside"):
            rs.check(bytes(word))
        with pytest.raises(ConfigError, match="outside"):
            rs.decode(bytes(word))

    def test_word_shorter_than_parity_rejected(self):
        rs = ReedSolomon(4)
        truncated = rs.encode(bytes(range(10)))[:3]
        with pytest.raises(ConfigError, match="outside"):
            rs.decode(truncated)
        with pytest.raises(ConfigError, match="outside"):
            rs.check(truncated)

    def test_parity_only_word_decodes_to_empty_data(self):
        rs = ReedSolomon(4)
        assert rs.decode(rs.encode(b"")) == b""

    def test_duplicate_erasures_count_once(self):
        rs = ReedSolomon(2)
        codeword = rs.encode(bytes(range(10)))
        assert rs.decode(codeword, [2, 2]) == bytes(range(10))
        damaged = bytearray(codeword)
        damaged[2] = 0
        damaged[5] = 0
        assert rs.decode(bytes(damaged), [5, 2, 5, 2, 2]) == bytes(range(10))


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=60),
        n_parity=st.sampled_from([2, 4, 8, 16]),
        seed=st.integers(0, 10_000),
    )
    def test_random_correctable_corruption_roundtrips(
        self, data, n_parity, seed
    ):
        rng = random.Random(seed)
        rs = ReedSolomon(n_parity)
        codeword = bytearray(rs.encode(data))
        n_errors = rng.randint(0, n_parity // 2)
        n_erasures = rng.randint(0, n_parity - 2 * n_errors)
        positions = rng.sample(range(len(codeword)), n_errors + n_erasures)
        for position in positions[:n_errors]:
            codeword[position] ^= rng.randrange(1, 256)
        for position in positions[n_errors:]:
            codeword[position] = rng.randrange(256)
        decoded = rs.decode(
            bytes(codeword), erasure_positions=positions[n_errors:]
        )
        assert decoded == data
