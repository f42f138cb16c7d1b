"""Q-gram signature index for scalable candidate-pair generation.

Clustering billions of reads (Rashtchian et al., cited in Section 3.1)
is only feasible if most read pairs are never compared.  The standard
trick: two reads within small edit distance share many q-grams, so
bucketing reads by a few q-gram-derived signatures surfaces almost every
close pair while examining only a vanishing fraction of all pairs.

This index buckets each read by the minimum-hash of its q-gram set under
several independent hash seeds; reads sharing any bucket become candidate
pairs for the exact (banded) edit-distance check in
:mod:`repro.cluster.greedy`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence

import numpy as np

from repro.align.kernels import code_points

#: FNV-1a 32-bit parameters (shared by the scalar and vectorised paths).
_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


def qgrams(sequence: str, q: int) -> set[str]:
    """The set of q-grams (length-q substrings) of ``sequence``.

    A sequence shorter than ``q`` contributes itself as its only gram so
    short reads still land in some bucket.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if len(sequence) < q:
        return {sequence} if sequence else set()
    return {sequence[start : start + q] for start in range(len(sequence) - q + 1)}


#: Signature value for reads with no q-grams (empty reads).  Real
#: min-hashes are non-negative 32-bit values, so the sentinel can never
#: collide with one — previously empty reads signed ``0`` in every band,
#: colliding with each other and with any read whose min-hash was
#: genuinely 0.  Sentinel signatures are never bucketed: an empty read
#: carries no q-gram evidence of similarity to anything.
EMPTY_SIGNATURE = -1


def _stable_hash(text: str, seed: int) -> int:
    """Deterministic FNV-1a string hash with a seed mixed in.

    Python's built-in ``hash`` is randomised per process, which would make
    clustering non-reproducible across runs.
    """
    value = (_FNV_OFFSET ^ (seed * _FNV_PRIME)) & 0xFFFFFFFF
    for char in text:
        value ^= ord(char)
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value


def reference_min_hashes(sequence: str, q: int, bands: int) -> list[int]:
    """The seed's per-gram min-hash signature of a non-empty sequence:
    the reference the vectorised paths are checked against."""
    grams = qgrams(sequence, q)
    return [min(_stable_hash(gram, band) for gram in grams) for band in range(bands)]


def _batched_min_hashes(
    sequences: Sequence[str], q: int, bands: int
) -> list[list[int]]:
    """Min-hash signatures for a block of sequences in one sweep.

    Every sequence of length >= ``q`` contributes its sliding q-gram
    windows to one flat code array; the FNV-1a recurrence then runs over
    a single ``(bands, total_windows)`` uint32 matrix — ``q`` XOR/multiply
    steps for the whole block — and ``np.minimum.reduceat`` collapses the
    window hashes back to one minimum per (band, sequence).  Sequences
    shorter than ``q`` hash themselves as their only gram (matching
    :func:`qgrams`) and are handled per-read; empty sequences sign
    :data:`EMPTY_SIGNATURE`.  Bit-identical to calling
    :func:`_vectorised_min_hashes` per sequence, so a pool signed in
    blocks matches the pool signed at once.
    """
    results: list[list[int] | None] = [None] * len(sequences)
    long_positions: list[int] = []
    long_sequences: list[str] = []
    for position, sequence in enumerate(sequences):
        if not sequence:
            results[position] = [EMPTY_SIGNATURE] * bands
        elif len(sequence) < q:
            results[position] = _vectorised_min_hashes(sequence, q, bands)
        else:
            long_positions.append(position)
            long_sequences.append(sequence)
    if long_sequences:
        flat = code_points("".join(long_sequences))
        lengths = np.fromiter(
            (len(sequence) for sequence in long_sequences),
            dtype=np.int64,
            count=len(long_sequences),
        )
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        window_counts = lengths - q + 1
        bounds = np.concatenate(([0], np.cumsum(window_counts)))
        total_windows = int(bounds[-1])
        # Flat start offset of every q-gram window across the pool:
        # repeat each sequence's start per window, then add the window's
        # rank within its sequence.
        within = np.arange(total_windows, dtype=np.int64) - np.repeat(
            bounds[:-1], window_counts
        )
        window_starts = np.repeat(starts, window_counts) + within
        values = np.empty((bands, total_windows), dtype=np.uint32)
        for band in range(bands):
            values[band] = (_FNV_OFFSET ^ (band * _FNV_PRIME)) & 0xFFFFFFFF
        prime = np.uint32(_FNV_PRIME)
        for offset in range(q):
            values ^= flat[window_starts + offset]
            values *= prime
        minima = np.minimum.reduceat(values, bounds[:-1], axis=1)
        for position, signature in zip(long_positions, minima.T.tolist()):
            results[position] = signature
    return results  # type: ignore[return-value]


def _vectorised_min_hashes(sequence: str, q: int, bands: int) -> list[int]:
    """All ``bands`` min-hash values in one vectorised pass.

    Runs the same FNV-1a recurrence as :func:`_stable_hash`, but over a
    ``(bands, n_grams)`` uint32 array — one XOR and one wrapping multiply
    per gram character position — instead of per-gram Python loops.
    Duplicate grams are left in place: the minimum over a multiset equals
    the minimum over its set, so deduplication is pure overhead here.
    Bit-identical to ``min(_stable_hash(gram, band) for gram in grams)``
    for every band (uint32 multiplication wraps exactly like the scalar
    path's ``& 0xFFFFFFFF``).
    """
    codes = code_points(sequence)
    if len(codes) < q:
        windows = codes.reshape(1, -1)
    else:
        windows = np.lib.stride_tricks.sliding_window_view(codes, q)
    values = np.empty((bands, windows.shape[0]), dtype=np.uint32)
    for band in range(bands):
        values[band] = (_FNV_OFFSET ^ (band * _FNV_PRIME)) & 0xFFFFFFFF
    prime = np.uint32(_FNV_PRIME)
    for position in range(windows.shape[1]):
        values ^= windows[:, position]
        values *= prime
    return [int(value) for value in values.min(axis=1)]


class QGramIndex:
    """Min-hash bucket index over q-gram sets.

    Args:
        q: gram length (defaults to 11: long enough that random 110-base
            strands rarely collide, short enough that a 6% error rate
            leaves many grams intact).
        bands: number of independent min-hash signatures per read; a pair
            of similar reads collides in at least one band with high
            probability.
    """

    def __init__(self, q: int = 11, bands: int = 4) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        self.q = q
        self.bands = bands
        self._buckets: list[dict[int, list[int]]] = [
            defaultdict(list) for _ in range(bands)
        ]
        self._count = 0

    def signature(self, sequence: str) -> list[int]:
        """The read's min-hash signature, one value per band.

        A read with no q-grams (only the empty read, since shorter-than-q
        reads contribute themselves as a gram) signs
        :data:`EMPTY_SIGNATURE` in every band.
        """
        if not sequence:
            return [EMPTY_SIGNATURE] * self.bands
        return _vectorised_min_hashes(sequence, self.q, self.bands)

    def signatures(self, sequences: Sequence[str]) -> list[list[int]]:
        """Signatures for a block of reads at once.

        One flat FNV-1a sweep over every q-gram window in the block
        instead of one :func:`_vectorised_min_hashes` call per read —
        the per-read path pays NumPy dispatch overhead per sequence,
        which dominates at paper-scale read counts.  Bit-identical to
        ``[self.signature(s) for s in sequences]``, whatever the block.
        The sweep's arrays grow with the block (a uint32 per band and a
        few int64 words per q-gram window), so a caller that signs a
        large read-out passes it in blocks, as greedy clustering does
        with its sweep blocks.
        """
        return _batched_min_hashes(sequences, self.q, self.bands)

    def add(
        self,
        read_index: int,
        sequence: str,
        signature: list[int] | None = None,
    ) -> None:
        """Register a read under its signature buckets (empty reads are
        counted but never bucketed — they match nothing).

        ``signature`` lets callers that precomputed signatures via
        :meth:`signatures` skip recomputing them here.
        """
        if signature is None:
            signature = self.signature(sequence)
        for band, value in enumerate(signature):
            if value == EMPTY_SIGNATURE:
                continue
            self._buckets[band][value].append(read_index)
        self._count += 1

    def candidates(
        self, sequence: str, signature: list[int] | None = None
    ) -> set[int]:
        """Indices of previously added reads sharing any bucket."""
        if signature is None:
            signature = self.signature(sequence)
        found: set[int] = set()
        for band, value in enumerate(signature):
            if value == EMPTY_SIGNATURE:
                continue
            found.update(self._buckets[band].get(value, ()))
        return found

    def candidate_pairs(self) -> Iterator[tuple[int, int]]:
        """All within-bucket pairs, deduplicated (for offline clustering)."""
        seen: set[tuple[int, int]] = set()
        for band_buckets in self._buckets:
            for members in band_buckets.values():
                if len(members) < 2:
                    continue
                for first_position, first in enumerate(members):
                    for second in members[first_position + 1 :]:
                        pair = (min(first, second), max(first, second))
                        if pair not in seen:
                            seen.add(pair)
                            yield pair

    def __len__(self) -> int:
        return self._count


def build_index(reads: Sequence[str], q: int = 11, bands: int = 4) -> QGramIndex:
    """Index every read of a read-out in one pass (signatures batched)."""
    index = QGramIndex(q=q, bands=bands)
    signatures = index.signatures(list(reads))
    for read_index, (sequence, signature) in enumerate(zip(reads, signatures)):
        index.add(read_index, sequence, signature=signature)
    return index
