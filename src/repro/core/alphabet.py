"""The DNA alphabet and elementary sequence utilities.

DNA storage encodes digital information over the four-letter alphabet
``{A, C, G, T}`` (Section 1.1 of the paper).  This module owns everything
that is a pure property of sequences over that alphabet: validation,
random strand generation, GC-ratio, homopolymer analysis and
complementation.  Every other subsystem builds on these primitives.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

#: The DNA alphabet, in canonical order.  Order matters: error-model
#: matrices are indexed by ``BASES.index(base)``.
BASES: str = "ACGT"

#: Watson-Crick complement of each base.
COMPLEMENT: dict[str, str] = {"A": "T", "T": "A", "C": "G", "G": "C"}

#: Transition partner of each base (purine<->purine, pyrimidine<->pyrimidine).
#: Transitions (A<->G, C<->T) are chemically far more likely than
#: transversions, which is why the paper's conditional substitution matrix
#: has p ~ 0.4 for them versus p ~ 0.01 for other pairs (Section 2.1).
TRANSITION: dict[str, str] = {"A": "G", "G": "A", "C": "T", "T": "C"}

_BASE_SET = frozenset(BASES)


class AlphabetError(ValueError):
    """Raised when a sequence contains characters outside ``{A, C, G, T}``."""


def validate_strand(sequence: str) -> str:
    """Return ``sequence`` unchanged if it is a valid DNA string.

    Raises:
        AlphabetError: if any character is not one of A, C, G, T.
    """
    if _BASE_SET.issuperset(sequence):
        return sequence
    # Only to name the first bad character and its position.
    for position, char in enumerate(sequence):
        if char not in _BASE_SET:
            raise AlphabetError(
                f"invalid base {char!r} at position {position} "
                f"(expected one of {BASES})"
            )
    return sequence


def is_valid_strand(sequence: str) -> bool:
    """Return True if every character of ``sequence`` is a DNA base."""
    return all(char in _BASE_SET for char in sequence)


#: :func:`random_strand`'s ``bytes.translate`` table: the top byte of an
#: accepted Mersenne-Twister word (below 0x80) is the base
#: ``BASES[top >> 5]``, as ``choice(BASES)`` reads ``getrandbits(3)``.
_TOP_BYTE_BASES = bytes(ord(BASES[top >> 5 & 3]) for top in range(256))

#: Top bytes ``choice(BASES)`` rejects: ``getrandbits(3)`` of 4 to 7.
_REJECTED_TOP_BYTES = bytes(range(0x80, 0x100))


def random_strand(length: int, rng: random.Random) -> str:
    """Draw a uniformly random strand of ``length`` bases.

    The strand, and the state ``rng`` is left in, are exactly those of
    ``"".join(rng.choice(BASES) for _ in range(length))``.  That loop
    takes one ``getrandbits(3)`` per try: the top 3 bits of one 32-bit
    word, a base when they are below 4, else a rejected word.  A plain
    ``random.Random`` (the guard of
    :func:`~repro.core.channel_backend.rng_supports_bulk`) instead draws
    the ``need`` words the loop must still consume as one
    ``getrandbits(32 * need)``, least significant word first, keeps the
    accepted top bytes in order with one ``bytes.translate``, and repeats
    until no base is missing (DESIGN §13).  Any other RNG runs the loop.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if type(rng) is not random.Random:
        return "".join(rng.choice(BASES) for _ in range(length))
    planes = []
    need = length
    while need:
        tops = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        accepted = tops.translate(_TOP_BYTE_BASES, _REJECTED_TOP_BYTES)
        planes.append(accepted)
        need -= len(accepted)
    return b"".join(planes).decode("ascii")


def random_strand_gc_balanced(
    length: int, rng: random.Random, gc_ratio: float = 0.5, tolerance: float = 0.05
) -> str:
    """Draw a random strand whose GC-ratio is close to ``gc_ratio``.

    Synthesis technologies require a roughly 50% GC-ratio; extreme ratios
    form secondary structures that prevent accurate sequencing
    (Section 1.2).  Rejection sampling is used; for short strands the
    tolerance is widened automatically so the call always terminates.
    """
    if not 0.0 <= gc_ratio <= 1.0:
        raise ValueError(f"gc_ratio must be in [0, 1], got {gc_ratio}")
    if length == 0:
        return ""
    effective_tolerance = max(tolerance, 1.0 / length)
    while True:
        candidate = random_strand(length, rng)
        if abs(gc_content(candidate) - gc_ratio) <= effective_tolerance:
            return candidate


def gc_content(sequence: str) -> float:
    """Fraction of bases that are G or C (the paper's GC-ratio, Section 1.2).

    Returns 0.0 for the empty strand.
    """
    if not sequence:
        return 0.0
    return (sequence.count("G") + sequence.count("C")) / len(sequence)


def reverse_complement(sequence: str) -> str:
    """Watson-Crick reverse complement of ``sequence``."""
    return "".join(COMPLEMENT[base] for base in reversed(validate_strand(sequence)))


def homopolymer_runs(sequence: str, min_length: int = 2) -> list[tuple[int, int, str]]:
    """Find homopolymer runs (repeats of one base) of at least ``min_length``.

    Sequencing is particularly error-prone inside homopolymers such as
    ``AAAAA`` (Section 1.2), so error models boost rates inside them.

    Returns:
        List of ``(start, length, base)`` tuples, in order of appearance.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    runs: list[tuple[int, int, str]] = []
    start = 0
    for position in range(1, len(sequence) + 1):
        if position == len(sequence) or sequence[position] != sequence[start]:
            run_length = position - start
            if run_length >= min_length:
                runs.append((start, run_length, sequence[start]))
            start = position
    return runs


def longest_homopolymer(sequence: str) -> int:
    """Length of the longest homopolymer run (0 for the empty strand)."""
    longest = 0
    start = 0
    for position in range(1, len(sequence) + 1):
        if position == len(sequence) or sequence[position] != sequence[start]:
            longest = max(longest, position - start)
            start = position
    return longest


def homopolymer_mask(sequence: str, min_length: int = 2) -> list[bool]:
    """Per-position mask marking bases inside homopolymer runs."""
    mask = [False] * len(sequence)
    for start, run_length, _base in homopolymer_runs(sequence, min_length):
        for position in range(start, start + run_length):
            mask[position] = True
    return mask


def base_counts(sequence: str) -> dict[str, int]:
    """Count of each base in ``sequence`` (all four keys always present)."""
    return {base: sequence.count(base) for base in BASES}


def substitute_base(base: str, rng: random.Random, exclude_self: bool = True) -> str:
    """Draw a uniformly random base, optionally excluding ``base`` itself.

    This is the substitution rule of the *naive* simulator and of
    DNASimulator's Algorithm 1, which pick a random base uniformly
    (Section 2.2.3 criticises exactly this choice).
    """
    if exclude_self:
        choices = [candidate for candidate in BASES if candidate != base]
        return rng.choice(choices)
    return rng.choice(BASES)


def kmer_counts(sequences: Iterable[str], k: int) -> dict[str, int]:
    """Count all k-mers across ``sequences`` (used by the q-gram clusterer)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: dict[str, int] = {}
    for sequence in sequences:
        for start in range(len(sequence) - k + 1):
            kmer = sequence[start : start + k]
            counts[kmer] = counts.get(kmer, 0) + 1
    return counts


def strand_from_bits(bits: Sequence[int]) -> str:
    """Trivial 2-bit encoding A:00, C:01, G:10, T:11 (Section 1.1 example).

    The full codec suite lives in :mod:`repro.pipeline.encoding`; this
    helper exists for doctests and quick experiments.
    """
    if len(bits) % 2 != 0:
        raise ValueError("bit sequence length must be even")
    strand = []
    for index in range(0, len(bits), 2):
        high, low = bits[index], bits[index + 1]
        if high not in (0, 1) or low not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bits[index:index + 2]}")
        strand.append(BASES[high * 2 + low])
    return "".join(strand)


def bits_from_strand(strand: str) -> list[int]:
    """Inverse of :func:`strand_from_bits`."""
    bits: list[int] = []
    for base in validate_strand(strand):
        value = BASES.index(base)
        bits.extend((value >> 1, value & 1))
    return bits
