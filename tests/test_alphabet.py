"""Unit tests for repro.core.alphabet."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alphabet import (
    BASES,
    COMPLEMENT,
    TRANSITION,
    AlphabetError,
    base_counts,
    bits_from_strand,
    gc_content,
    homopolymer_mask,
    homopolymer_runs,
    is_valid_strand,
    kmer_counts,
    longest_homopolymer,
    random_strand,
    random_strand_gc_balanced,
    reverse_complement,
    strand_from_bits,
    substitute_base,
    validate_strand,
)

dna = st.text(alphabet="ACGT", max_size=64)


class TestValidation:
    def test_valid_strand_passes_through(self):
        assert validate_strand("ACGT") == "ACGT"

    def test_empty_strand_is_valid(self):
        assert validate_strand("") == ""

    def test_invalid_base_raises_with_position(self):
        with pytest.raises(AlphabetError, match="position 2"):
            validate_strand("ACXT")

    def test_lowercase_rejected(self):
        with pytest.raises(AlphabetError):
            validate_strand("acgt")

    @given(dna)
    def test_is_valid_strand_matches_validate(self, strand):
        assert is_valid_strand(strand)
        validate_strand(strand)

    def test_is_valid_strand_false_for_bad_char(self):
        assert not is_valid_strand("ACGU")

    @pytest.mark.parametrize(
        "strand, message",
        [
            ("ACGTa", "invalid base 'a' at position 4 (expected one of ACGT)"),
            ("ACNGT", "invalid base 'N' at position 2 (expected one of ACGT)"),
            ("éACGT", "invalid base 'é' at position 0 (expected one of ACGT)"),
            ("AC\ud800", "invalid base '\\ud800' at position 2 (expected one of ACGT)"),
        ],
        ids=["lowercase", "N", "non-ascii", "surrogate"],
    )
    def test_error_names_first_bad_base(self, strand, message):
        with pytest.raises(AlphabetError) as caught:
            validate_strand(strand + "acgtN")  # later bad bases are not named
        assert str(caught.value) == message


class TestRandomStrands:
    def test_random_strand_length(self, rng):
        assert len(random_strand(37, rng)) == 37

    def test_random_strand_zero_length(self, rng):
        assert random_strand(0, rng) == ""

    def test_random_strand_negative_length_raises(self, rng):
        with pytest.raises(ValueError):
            random_strand(-1, rng)

    def test_random_strand_uses_all_bases(self, rng):
        strand = random_strand(400, rng)
        assert set(strand) == set(BASES)

    def test_random_strand_deterministic_per_seed(self):
        first = random_strand(50, random.Random(5))
        second = random_strand(50, random.Random(5))
        assert first == second

    def test_gc_balanced_strand_within_tolerance(self, rng):
        strand = random_strand_gc_balanced(100, rng, tolerance=0.05)
        assert abs(gc_content(strand) - 0.5) <= 0.05

    def test_gc_balanced_short_strand_terminates(self, rng):
        strand = random_strand_gc_balanced(3, rng)
        assert len(strand) == 3

    def test_gc_balanced_invalid_ratio_raises(self, rng):
        with pytest.raises(ValueError):
            random_strand_gc_balanced(10, rng, gc_ratio=1.5)

    def test_gc_balanced_empty(self, rng):
        assert random_strand_gc_balanced(0, rng) == ""


class TestGCContent:
    @pytest.mark.parametrize(
        "strand, expected",
        [("", 0.0), ("AT", 0.0), ("GC", 1.0), ("ACGT", 0.5), ("GGGA", 0.75)],
    )
    def test_gc_content(self, strand, expected):
        assert gc_content(strand) == pytest.approx(expected)


class TestComplement:
    def test_complement_table_is_involution(self):
        for base in BASES:
            assert COMPLEMENT[COMPLEMENT[base]] == base

    def test_transition_table_is_involution(self):
        for base in BASES:
            assert TRANSITION[TRANSITION[base]] == base

    def test_reverse_complement_example(self):
        assert reverse_complement("AACG") == "CGTT"

    @given(dna)
    def test_reverse_complement_is_involution(self, strand):
        assert reverse_complement(reverse_complement(strand)) == strand

    @given(dna)
    def test_reverse_complement_preserves_gc(self, strand):
        assert gc_content(reverse_complement(strand)) == pytest.approx(
            gc_content(strand)
        )


class TestHomopolymers:
    def test_runs_simple(self):
        assert homopolymer_runs("AAACCG") == [(0, 3, "A"), (3, 2, "C")]

    def test_runs_respect_min_length(self):
        assert homopolymer_runs("AAACCG", min_length=3) == [(0, 3, "A")]

    def test_runs_empty_strand(self):
        assert homopolymer_runs("") == []

    def test_runs_invalid_min_length(self):
        with pytest.raises(ValueError):
            homopolymer_runs("AAA", min_length=0)

    def test_longest_homopolymer(self):
        assert longest_homopolymer("ATTTGCC") == 3

    def test_longest_homopolymer_empty(self):
        assert longest_homopolymer("") == 0

    def test_longest_homopolymer_single(self):
        assert longest_homopolymer("ACGT") == 1

    def test_mask_marks_runs(self):
        assert homopolymer_mask("AAC") == [True, True, False]

    @given(dna)
    def test_mask_consistent_with_runs(self, strand):
        mask = homopolymer_mask(strand)
        covered = sum(length for _s, length, _b in homopolymer_runs(strand))
        assert sum(mask) == covered


class TestEncodingHelpers:
    def test_base_counts_all_keys(self):
        counts = base_counts("AAG")
        assert counts == {"A": 2, "C": 0, "G": 1, "T": 0}

    def test_substitute_base_excludes_self(self, rng):
        for _ in range(40):
            assert substitute_base("A", rng) != "A"

    def test_substitute_base_with_self_allowed(self, rng):
        draws = {substitute_base("A", rng, exclude_self=False) for _ in range(200)}
        assert draws == set(BASES)

    def test_kmer_counts(self):
        assert kmer_counts(["ACGA"], 2) == {"AC": 1, "CG": 1, "GA": 1}

    def test_kmer_counts_multiple_sequences(self):
        counts = kmer_counts(["ACA", "ACA"], 2)
        assert counts == {"AC": 2, "CA": 2}

    def test_kmer_counts_invalid_k(self):
        with pytest.raises(ValueError):
            kmer_counts(["ACGT"], 0)

    def test_strand_from_bits_example(self):
        assert strand_from_bits([0, 1, 1, 0, 1, 1, 0, 0]) == "CGTA"

    def test_strand_from_bits_odd_length_raises(self):
        with pytest.raises(ValueError):
            strand_from_bits([0, 1, 1])

    def test_strand_from_bits_bad_bit_raises(self):
        with pytest.raises(ValueError):
            strand_from_bits([0, 2])

    @given(st.lists(st.integers(0, 1), max_size=40).filter(lambda b: len(b) % 2 == 0))
    def test_bits_roundtrip(self, bits):
        assert bits_from_strand(strand_from_bits(bits)) == bits
