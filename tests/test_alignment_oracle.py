"""Differential oracles for every fast path.

Each :class:`Oracle` entry names a reference implementation, the fast
path that must reproduce it exactly, and a seeded input generator.  The
alignment entries share one corpus that covers the inputs where a fast
path is most likely to diverge: 64-bit word-boundary lengths, the
paper's 110-nt strands at its IDS rates, equal and empty strings, ``N``,
lowercase, non-ASCII and lone-surrogate alphabets, degenerate bands,
one-vs-many batch sizes as clustering and consensus scoring make them,
and tie-heavy homopolymer and periodic pairs (many co-optimal
alignments, so every tie-break is exercised).  The ``channel`` entry
runs the transmit loop against the vectorised sweep over the models of
``tests/test_channel_backend.py``, and
:func:`test_channel_corpus_reaches_every_walk_branch` checks that those
inputs reach every branch of the sweep's walk.  The ``seeded_channel``
entry runs ``transmit_cluster`` on the loop over a fresh
``random.Random(seed)`` against :meth:`Channel.transmit_seeded`, the
per-cluster-seeded sweep (:func:`seeded_channel_corpus`), and
:func:`test_channel_corpora_reach_hot_zones_and_long_deletion_draws`
checks that both channel corpora reach the walk's head zone and both
long-deletion draw paths.  The ``bma_many`` entry runs the per-cluster BMA loop against the lockstep
kernel over batches of clusters (:func:`bma_corpus`), for
``BMALookahead`` and ``DividerBMA``.
The ``iterative_many`` entry does the same for the lockstep Iterative
(:func:`iterative_corpus`).  The ``lane_packed`` entry runs the
one-vs-many sweep, its lanes given as strings and as held compiled
patterns, straight against the seed DPs (:func:`lane_corpus`).  The
``qgram_signatures`` entry runs the per-gram min-hash loop against the
per-read and pool-wide vectorised signatures, and the pool signed in
greedy clustering's sweep blocks (:func:`qgram_corpus`).
The ``tally_many`` entry runs the scalar ``tally_pair`` loop against the
lockstep profile-fit tally, every ``ErrorStatistics`` field and its key
order (:func:`tally_corpus`).
The ``reed_solomon`` entry runs a textbook scalar Reed-Solomon coder,
built here from the :mod:`repro.pipeline.gf256` field calls, against the
log-domain :class:`~repro.pipeline.reed_solomon.ReedSolomon` over
parities 1 to 254, codeword lengths n_parity to 255, and errors and
erasures at the correction budget and one past it (:func:`rs_corpus`).
The ``random_strand`` entry runs the seed's ``choice(BASES)`` loop
against :func:`~repro.core.alphabet.random_strand`'s byte-plane
sampling, the strand and the RNG state it leaves behind, over lengths
0 to 1000 and twenty seeds, and holds two ``random.Random`` subclasses
(one overriding ``random()``, one ``getrandbits``) to the loop
(:func:`strand_corpus`).  CI runs it on CPython 3.10 to 3.12, which
pins the ``choice`` -> ``getrandbits(3)`` contract the sampling relies
on.  The ``hamming_curve`` entry runs ``hamming_error_positions``
tallied pair by pair against the block
:func:`~repro.metrics.curves.hamming_error_curve` (:func:`hamming_corpus`).
The ``lane_distances`` entry runs the seed's exact and banded DPs per
lane against the lockstep distance-only forward pass, dense and keyed Eq
tables both, at the default lane cap and at one that splits a pattern's
texts across groups (:func:`lane_distance_corpus`).  The ``greedy_prefetch``
entry runs a read-by-read greedy sweep and merge pass, written out here,
against the default clusterer with the default and with small prefetch
blocks and with the prefetch off, every ``GreedyClusteringResult`` field
(:func:`greedy_corpus`).  The ``majority_many`` entry runs the
per-cluster Majority loop against the block vote (:func:`majority_corpus`).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.align import gestalt, kernels, lockstep
from repro.analysis.error_stats import ErrorStatistics
from repro.align.edit_distance import (
    edit_distance,
    edit_distance_banded,
    edit_distance_matrix,
)
from repro.align.gestalt import matching_blocks
from repro.align.kernels import CompiledPattern, edit_distances_one_to_many
from repro.align.lockstep import lane_distances
from repro.align.operations import (
    EditOp,
    OpKind,
    apply_operations,
    deletion_runs,
    edit_operations,
    error_operations,
)
from repro.cluster import greedy
from repro.cluster.greedy import GreedyClusterer, GreedyClusteringResult
from repro.cluster.qgram_index import (
    EMPTY_SIGNATURE,
    QGramIndex,
    reference_min_hashes,
)
from repro.align.hamming import hamming_error_positions
from repro.core import channel_backend
from repro.core.alphabet import BASES, random_strand
from repro.core.channel import Channel
from repro.core.spatial import TerminalSkew
from repro.core.strand import Cluster, StrandPool
from repro.data.nanopore import ground_truth_model
from repro.metrics.curves import hamming_error_curve
from repro.pipeline.gf256 import (
    GENERATOR,
    gf_div,
    gf_inverse,
    gf_mul,
    gf_pow,
    poly_eval,
    poly_mul,
)
from repro.pipeline.reed_solomon import ReedSolomon, ReedSolomonError
from repro.reconstruct import majority
from repro.reconstruct.base import BLOCK_CLUSTERS
from repro.reconstruct.bma import BMALookahead, bma_forward_pass
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.majority import PositionalMajority
from repro.reconstruct.two_way import TwoWayIterative
from tests.test_channel_backend import (
    MODELS,
    SEEDED_SOURCE_SEEDS,
    channel_inputs,
    fast_run,
    hot_zone_reach,
    reference_run,
    walk_reach,
)

#: Seeds the shared corpus is generated from.
CORPUS_SEEDS = (0, 1)

#: Seeds of the ``random.Random`` tie-breakers each traceback runs with.
TIE_BREAK_SEEDS = (0, 1, 2)

#: One-vs-many batch sizes: empty, a single read, the largest greedy
#: candidate set on the e2e read-out (26), and the largest cluster of a
#: paper-coverage read-out (93 copies).
BATCH_SIZES = (0, 1, 26, 93)


def matrix_backtrace(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """The seed's ``edit_operations``: a backtrace over the full
    ``edit_distance_matrix``, kept verbatim as the oracle."""
    if reference == copy:
        return [
            EditOp(OpKind.EQUAL, position, base, base)
            for position, base in enumerate(reference)
        ]
    if not copy:
        return [
            EditOp(OpKind.DELETION, position, base, "")
            for position, base in enumerate(reference)
        ]
    if not reference:
        return [EditOp(OpKind.INSERTION, 0, "", base) for base in copy]
    matrix = edit_distance_matrix(reference, copy)
    operations: list[EditOp] = []
    row, column = len(reference), len(copy)
    while row > 0 or column > 0:
        candidates: list[EditOp] = []
        if row > 0 and column > 0:
            diagonal = matrix[row - 1][column - 1]
            if reference[row - 1] == copy[column - 1]:
                if matrix[row][column] == diagonal:
                    candidates.append(
                        EditOp(
                            OpKind.EQUAL,
                            row - 1,
                            reference[row - 1],
                            copy[column - 1],
                        )
                    )
            elif matrix[row][column] == diagonal + 1:
                candidates.append(
                    EditOp(
                        OpKind.SUBSTITUTION,
                        row - 1,
                        reference[row - 1],
                        copy[column - 1],
                    )
                )
        if row > 0 and matrix[row][column] == matrix[row - 1][column] + 1:
            candidates.append(
                EditOp(OpKind.DELETION, row - 1, reference[row - 1], "")
            )
        if column > 0 and matrix[row][column] == matrix[row][column - 1] + 1:
            candidates.append(EditOp(OpKind.INSERTION, row, "", copy[column - 1]))
        if not candidates:  # pragma: no cover - DP invariant
            raise RuntimeError("edit-distance backtrace found no valid move")
        chosen = rng.choice(candidates) if rng is not None else candidates[0]
        operations.append(chosen)
        if chosen.kind in (OpKind.EQUAL, OpKind.SUBSTITUTION):
            row -= 1
            column -= 1
        elif chosen.kind is OpKind.DELETION:
            row -= 1
        else:
            column -= 1
    operations.reverse()
    return operations


def _with_tie_breakers(extract: Callable) -> Callable[[str, str], list]:
    """Run a traceback deterministically and under each seeded
    tie-breaker, keeping the RNG state it leaves behind: a fast path must
    draw exactly the random numbers its reference draws."""

    def run(reference: str, copy: str) -> list:
        results: list = [extract(reference, copy, None)]
        for seed in TIE_BREAK_SEEDS:
            rng = random.Random(seed)
            results.append((extract(reference, copy, rng), rng.getstate()))
        return results

    return run


def _strand(rng: random.Random, length: int, alphabet: str = "ACGT") -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _mutate(rng: random.Random, text: str, alphabet: str, edits: int) -> str:
    """``edits`` random single-character insertions, deletions and
    substitutions drawn from ``alphabet``."""
    chars = list(text)
    for _ in range(edits):
        action = rng.randrange(3)
        position = rng.randrange(len(chars) + 1)
        if action == 0 or not chars:
            chars.insert(position, rng.choice(alphabet))
        elif action == 1:
            del chars[min(position, len(chars) - 1)]
        else:
            chars[min(position, len(chars) - 1)] = rng.choice(alphabet)
    return "".join(chars)


def shared_corpus(seed: int) -> list[tuple[str, str]]:
    """The seeded corpus every oracle entry runs over."""
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = [("", ""), ("", "ACGT"), ("ACGT", "")]
    # Word-boundary lengths, against equal, empty, noisy and random partners.
    for length in (0, 1, 63, 64, 65, 127, 128, 129):
        strand = _strand(rng, length)
        pairs.append((strand, strand))
        pairs.append((strand, ""))
        pairs.append(("", strand))
        pairs.append((strand, _mutate(rng, strand, "ACGT", 1 + length // 16)))
        pairs.append((strand, _strand(rng, max(0, length + rng.randint(-4, 4)))))
    # The paper's shape: 110-nt references through the ground-truth channel.
    channel = Channel(ground_truth_model(), random.Random(seed + 1000))
    for _ in range(24):
        reference = _strand(rng, 110)
        pairs.append((reference, channel.transmit(reference)))
    # N, lowercase, non-ASCII and lone-surrogate alphabets, below and
    # above the 1024-cell matrix threshold.
    for alphabet in ("ACGTN", "acgt", "ACGTé", "αβγδ", "ACG\ud800"):
        for length in (20, 90):
            strand = _strand(rng, length, alphabet)
            pairs.append((strand, _mutate(rng, strand, alphabet, 6)))
    pairs.append((("ACGTN" * 8 + "é") * 2, ("ACGTN" * 8 + "é") * 2 + "ACGT"))
    pairs.append(("ACGTAC\ud800GTACGT", "ACGTACGTTCGT"))
    # Tie-heavy inputs: homopolymers and periodic repeats.
    for length in (5, 40, 110):
        pairs.append(("A" * length, "A" * (length + 3)))
        pairs.append(("A" * length, _mutate(rng, "A" * length, "AC", 4)))
        pairs.append(("ACGT" * (length // 4), "ACGT" * (length // 4 + 2)))
        pairs.append(("ACGT" * (length // 4), "CGTA" * (length // 4)))
        periodic = "ACGT" * (length // 4)
        pairs.append((periodic, _mutate(rng, periodic, "ACGT", 5)))
    return pairs


def bands_for(first: str, second: str) -> tuple[int, ...]:
    """The degenerate bands 0 and 1, a narrow band, and one at least as
    wide as either string (never exceeded)."""
    return (0, 1, 3, max(len(first), len(second)))


def reference_distances(first: str, second: str) -> list[int]:
    """The seed's DP distance, once per fast entry point."""
    distance = kernels._python_distance(first, second)
    return [distance, distance]


def fast_distances(first: str, second: str) -> list[int]:
    return [edit_distance(first, second), CompiledPattern(first).distance(second)]


def reference_banded(first: str, second: str) -> list[list[int]]:
    """The seed's banded DP behind the length-difference lower bound,
    once per fast entry point."""
    bounds = [
        band + 1
        if abs(len(first) - len(second)) > band
        else kernels._python_banded(first, second, band)
        for band in bands_for(first, second)
    ]
    return [bounds, bounds]


def fast_banded(first: str, second: str) -> list[list[int]]:
    pattern = CompiledPattern(first)
    bands = bands_for(first, second)
    return [
        [edit_distance_banded(first, second, band) for band in bands],
        [pattern.banded_distance(second, band) for band in bands],
    ]


def batch_corpus(seed: int) -> list[tuple[str, list[str]]]:
    """One-vs-many inputs: each corpus strand against batches of every
    :data:`BATCH_SIZES` size, cut from the corpus's partner strands (all
    lengths and alphabets, with the pattern itself and ``""`` first)."""
    pairs = shared_corpus(seed)
    partners = [second for _, second in pairs]
    # One pattern per distinct (length, alphabet) shape.
    shapes = {}
    for first, _ in pairs:
        shapes.setdefault((len(first), frozenset(first)), first)
    batches = []
    for offset, pattern in enumerate(shapes.values()):
        for size in BATCH_SIZES:
            cycle = [pattern, ""] + partners[offset:] + partners[:offset]
            batches.append((pattern, (cycle * (size // len(cycle) + 1))[:size]))
    return batches


def _one_to_many_bands(pattern: str, reads: list[str]) -> tuple[int, ...]:
    return (0, 1, 3, max([len(pattern)] + [len(read) for read in reads]))


def pairwise_loop(pattern: str, reads: list[str]) -> list[list[int]]:
    """One pairwise call per read, exact and under each band."""
    results = [[edit_distance(pattern, read) for read in reads]]
    for band in _one_to_many_bands(pattern, reads):
        results.append([edit_distance_banded(pattern, read, band) for read in reads])
    return results


def one_to_many(pattern: str, reads: list[str]) -> list[list[int]]:
    """:func:`edit_distances_one_to_many`, exact and under each band."""
    results = [edit_distances_one_to_many(pattern, reads)]
    for band in _one_to_many_bands(pattern, reads):
        results.append(edit_distances_one_to_many(pattern, reads, band=band))
    return results


#: Lane lengths the ``lane_packed`` entry mixes in one call: empty, one
#: character, every 64-bit word boundary a lane can straddle, the paper's
#: 110 and a long lane.
LANE_LENGTHS = (0, 1, 63, 64, 65, 110, 127, 128, 129, 500)

#: Lane counts of the ``lane_packed`` entry: :data:`BATCH_SIZES` and 300.
LANE_BATCH_SIZES = BATCH_SIZES + (300,)


def lane_corpus(seed: int) -> list[tuple[list[str], list[str]]]:
    """``(texts, lanes)`` inputs of the lane-packed sweep, every text
    against all the lanes: mixed lane lengths in one call; an empty text
    and texts whose characters appear in no lane; ``N``, lowercase,
    non-ASCII and lone-surrogate alphabets; every lane count of
    :data:`LANE_BATCH_SIZES`; and greedy clustering's shape, paper-rate
    reads against one representative per reference."""
    rng = random.Random(seed)
    inputs = []
    lanes = [_strand(rng, length) for length in LANE_LENGTHS]
    texts = ["", "XYZ" * 20, "é", lanes[5], _strand(rng, 110)]
    texts += [_mutate(rng, lane, "ACGT", 1 + len(lane) // 16) for lane in lanes]
    inputs.append((texts, lanes))
    for alphabet in ("ACGTN", "acgt", "ACGTé", "αβγδ", "ACG\ud800"):
        lanes = [_strand(rng, length, alphabet) for length in (0, 1, 20, 64, 65, 90)]
        texts = [_mutate(rng, lane, alphabet, 6) for lane in lanes[2:]]
        inputs.append((texts + [_strand(rng, 40)], lanes))
    partners = [_strand(rng, rng.randint(0, 40)) for _ in range(50)]
    partners += [_strand(rng, length) for length in (63, 64, 65)]
    for size in LANE_BATCH_SIZES:
        lanes = [partners[rng.randrange(len(partners))] for _ in range(size)]
        texts = [_mutate(rng, partners[size % len(partners)], "ACGT", 3), ""]
        inputs.append((texts, lanes))
    channel = Channel(ground_truth_model(), random.Random(seed + 4000))
    references = [_strand(rng, 110) for _ in range(8)]
    representatives = [channel.transmit(reference) for reference in references]
    reads = [channel.transmit(reference) for reference in references for _ in range(2)]
    rng.shuffle(reads)
    inputs.append((reads, representatives))
    return inputs


def _lane_bands(texts: list[str], lanes: list[str]) -> tuple[int, ...]:
    """Bands 0, 1 and 3, greedy's threshold 25, and one at least as wide
    as every string."""
    return (0, 1, 3, 25, max(map(len, texts + lanes + [""])))


def reference_lanes(texts: list[str], lanes: list[str]) -> list[list[int]]:
    """The seed's DPs, exact and under each band behind the
    length-difference lower bound, for every (text, lane) pair; once per
    fast call shape."""
    results = []
    for text in texts:
        results.append([kernels._python_distance(text, lane) for lane in lanes])
        for band in _lane_bands(texts, lanes):
            results.append(
                [
                    band + 1
                    if abs(len(text) - len(lane)) > band
                    else kernels._python_banded(lane, text, band)
                    for lane in lanes
                ]
            )
    return [results, results]


def packed_lanes(texts: list[str], lanes: list[str]) -> list[list[int]]:
    """``CompiledPattern.distances`` / ``banded_distances`` with the
    lanes given as strings, and with them compiled once and held across
    every text, as greedy clustering holds its representatives."""
    held = [CompiledPattern(lane) for lane in lanes]
    results: dict[bool, list[list[int]]] = {False: [], True: []}
    for text in texts:
        for use_held, others in ((False, lanes), (True, held)):
            sweep = CompiledPattern(text)
            results[use_held].append(sweep.distances(others))
            for band in _lane_bands(texts, lanes):
                results[use_held].append(sweep.banded_distances(others, band))
    return [results[False], results[True]]


def lane_distance_corpus(seed: int) -> list[tuple[list[str], list[list[str]]]]:
    """``(patterns, texts_lists)`` blocks of the lockstep distance pass:
    the shared corpus's pairs both ways round, one text each (empty
    sides, word-boundary lengths, ``N``, lowercase, non-ASCII and lone
    surrogates); each lane-corpus lane against all its texts, with a
    pattern that has no text; astral and surrogate patterns with so wide
    an alphabet that the Eq table keys its symbols, and non-ASCII and
    ``N`` ones, each against texts of symbols its pattern lacks; the
    wide patterns again against ASCII texts only; empty patterns only;
    multi-word homopolymers; and :func:`_banded_pass_blocks`."""
    rng = random.Random(seed)
    pairs = shared_corpus(seed)
    inputs = [
        ([first for first, _ in pairs], [[second] for _, second in pairs]),
        ([second for _, second in pairs], [[first] for first, _ in pairs]),
    ]
    for texts, lanes in lane_corpus(seed)[:2]:
        inputs.append((lanes + ["ACGT"], [texts] * len(lanes) + [[]]))
    wide = "".join(chr(0x4E00 + index) for index in range(800)) + "\U0001F600\ud800\udc00é"
    for alphabet, count in ((wide, 12), ("αβγδé\ud800", 4), ("ACGTN", 4)):
        patterns = [_strand(rng, rng.choice((30, 64, 65, 129)), alphabet) for _ in range(count)]
        texts_lists = [
            [
                _mutate(rng, pattern, alphabet, 4),
                _mutate(rng, pattern, "ACGT", 2),
                _shifted(pattern),
                "",
            ]
            for pattern in patterns
        ]
        inputs.append((patterns, texts_lists))
        if alphabet == wide:
            inputs.append(
                (patterns, [[_strand(rng, 70), "ACGTN", ""] for _ in patterns])
            )
    inputs.append((["", "", "", "", "", ""], [["ACG"], [""], ["é" * 70], [], ["\ud800"], ["A"]]))
    # Homopolymers: the add's carry crosses a whole word of a lane.
    inputs.append(
        (
            ["A" * 129, "G" * 64 + "A" * 64 + "ACGAAA", "ACGT" * 50],
            [["A" * 150, "A" * 129 + "C"], ["G", "G" * 30 + "A" * 20], ["ACGT" * 49]],
        )
    )
    inputs += _banded_pass_blocks(rng)
    return inputs


def _banded_pass_blocks(rng: random.Random) -> list[tuple[list[str], list[list[str]]]]:
    """Blocks aimed at the banded pass (bands up to 31): patterns across
    each word boundary its Eq funnel shift crosses, each against copies
    that run to their texts' ends and an unrelated strand that leaves
    early; length differences of every band and one past it; a block
    whose every lane leaves early; lanes that leave at different columns
    while copies of other lengths finish their texts; empty patterns and
    texts; and texts outside the band that outrun every copy's end."""
    boundary = [_strand(rng, length) for length in (63, 64, 65, 127, 128, 129, 200)]
    blocks = [
        (
            boundary,
            [
                [
                    pattern,
                    _mutate(rng, pattern, "ACGT", 2),
                    _mutate(rng, pattern, "ACGT", 20),
                    _strand(rng, len(pattern)),
                ]
                for pattern in boundary
            ],
        )
    ]
    pattern = _strand(rng, 110)
    differences = (0, 1, 2, 3, 4, 25, 26, 31, 32, 33)
    blocks.append(
        (
            [pattern],
            [
                [pattern[: 110 - difference] for difference in differences]
                + [pattern + _strand(rng, difference) for difference in differences]
            ],
        )
    )
    blocks.append(([pattern], [[_strand(rng, rng.randint(100, 120)) for _ in range(6)]]))
    blocks.append(
        (
            [pattern, _strand(rng, 90)],
            [
                [
                    _mutate(rng, pattern, "ACGT", edits)
                    for edits in (0, 5, 10, 20, 24, 26, 30, 40, 60)
                ]
                + [pattern[:80], pattern + _strand(rng, 30)],
                [_strand(rng, length) for length in (70, 90, 110)],
            ],
        )
    )
    lengths = (0, 1, 3, 4, 25, 26, 31, 32, 33)
    blocks.append(
        (
            ["A" * length for length in lengths] + [""],
            [["", "A"] for _ in lengths] + [["C" * length for length in lengths]],
        )
    )
    # Too few lanes leave for the cut-off to compact them, while one text
    # outside every band runs on past the longest pattern's last word:
    # under band 3, eight copies of a 64-character pattern 3 longer;
    # under band 25, eight of a 128-character one 25 longer.
    for length, extra, outside in ((64, 3, 80), (128, 25, 300)):
        pattern = _strand(rng, length)
        copy = pattern + _strand(rng, extra)
        blocks.append(([pattern, "A"], [[copy] * 8, ["G" * outside]]))
    return blocks


def _shifted(text: str) -> str:
    """Each symbol one code point down: mostly symbols its pattern
    lacks, each sorting just below one it has."""
    return "".join(chr(ord(char) - 1) for char in text)


def _lane_distance_bands(patterns: list[str], texts_lists: list[list[str]]) -> tuple[int, ...]:
    """Bands 0, 1 and 3, greedy's threshold 25, 31 (the widest the banded
    pass takes) and 32 (the narrowest it leaves to the full pass), and
    one at least as wide as every string (the exact distance)."""
    texts = [text for texts in texts_lists for text in texts]
    return (0, 1, 3, 25, 31, 32, max(map(len, patterns + texts)))


#: A lane cap of the ``lane_distances`` entry that splits most blocks,
#: and the texts of one pattern, across groups.
SMALL_LANE_CAP = 3


def reference_lane_distances(
    patterns: list[str], texts_lists: list[list[str]]
) -> list[list[int]]:
    """The seed's exact DP per lane, then its banded DP behind the
    length-difference lower bound under each band; once per lane cap."""
    lanes = [(pattern, text) for pattern, texts in zip(patterns, texts_lists) for text in texts]
    results = [[kernels._python_distance(pattern, text) for pattern, text in lanes]]
    for band in _lane_distance_bands(patterns, texts_lists):
        results.append(
            [
                band + 1
                if abs(len(pattern) - len(text)) > band
                else kernels._python_banded(text, pattern, band)
                for pattern, text in lanes
            ]
        )
    return results * 2


def fast_lane_distances(
    patterns: list[str], texts_lists: list[list[str]]
) -> list[list[int]]:
    """:func:`~repro.align.lockstep.lane_distances`: under the widest band
    (exact), then under each band; with the default lane cap, then with
    :data:`SMALL_LANE_CAP`."""
    bands = _lane_distance_bands(patterns, texts_lists)
    results = []
    for cap in (lockstep._DISTANCE_LANES, SMALL_LANE_CAP):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lockstep, "_DISTANCE_LANES", cap)
            results += [
                lane_distances(patterns, texts_lists, band).tolist()
                for band in (bands[-1],) + bands
            ]
    return results


def _texts_ascii(texts_lists: list[list[str]]) -> bool:
    return "".join(text for texts in texts_lists for text in texts).isascii()


def _keyed_eq_table(patterns: list[str], texts_lists: list[list[str]]) -> bool:
    """Whether a block keys each (pattern, symbol) pair of its Eq table:
    its texts are not all ASCII, or its alphabet is too wide for the
    dense table."""
    if not _texts_ascii(texts_lists):
        return True
    alphabet = len(set("".join(patterns)))
    return len(patterns) * (alphabet + 1) > lockstep._DENSE_SLOTS * (
        sum(map(len, patterns)) + 1
    )


#: ``(q, bands)`` of the q-gram entry: the clusterer's default and the
#: index's own default.
QGRAM_SHAPES = ((8, 8), (11, 4))


def qgram_corpus(seed: int) -> list[tuple[int, int, list[str]]]:
    """``(q, bands, pool)`` inputs: lengths 0, 1, q - 1, q, q + 1, the
    word boundaries, 110, 111 and 500 in ``ACGT``, ``N``, lowercase,
    non-ASCII and lone-surrogate alphabets, random lengths up to 120,
    and paper-rate IDS reads from the ground-truth channel.  Each pool
    crosses two of greedy's sweep-block boundaries, with an empty read
    and one shorter than ``q`` just after the first."""
    rng = random.Random(seed)
    channel = Channel(ground_truth_model(), random.Random(seed + 3000))
    inputs = []
    for q, bands in QGRAM_SHAPES:
        pool = ["", "A", "ACG", "ACGTN", "acgtacgtac", "Aé世\U0001F600BACGT"]
        for alphabet in ("ACGT", "ACGTN", "acgt", "Aé世\U0001F600T", "ACG\ud800"):
            for length in (1, q - 1, q, q + 1, 63, 64, 65, 110, 111, 128, 500):
                pool.append(_strand(rng, length, alphabet))
        pool += [_strand(rng, rng.randint(0, 120)) for _ in range(60)]
        for _ in range(4):
            pool += channel.transmit_many(_strand(rng, 110), 10)
        pool += channel.transmit_many(_strand(rng, 110), 2 * greedy.FIRST_BLOCK)
        pool[greedy.FIRST_BLOCK : greedy.FIRST_BLOCK] = ["", _strand(rng, q - 1)]
        inputs.append((q, bands, pool))
    return inputs


def reference_signatures(q: int, bands: int, pool: list[str]) -> list[list[list[int]]]:
    """The seed's per-gram min-hashes (:data:`EMPTY_SIGNATURE` for
    ``""``), once per fast entry point."""
    signatures = [
        reference_min_hashes(sequence, q, bands)
        if sequence
        else [EMPTY_SIGNATURE] * bands
        for sequence in pool
    ]
    return [signatures, signatures, signatures]


def fast_signatures(q: int, bands: int, pool: list[str]) -> list[list[list[int]]]:
    """Per-read :meth:`QGramIndex.signature`, the pool-wide
    :meth:`QGramIndex.signatures` sweep over the whole pool, and one
    sweep per greedy sweep block, concatenated."""
    index = QGramIndex(q=q, bands=bands)
    blocked = [
        signature
        for start, stop in greedy._blocks(len(pool))
        for signature in index.signatures(pool[start:stop])
    ]
    return [
        [index.signature(sequence) for sequence in pool],
        index.signatures(pool),
        blocked,
    ]


#: Design lengths of the BMA corpus: word boundaries and the paper's 110.
BMA_LENGTHS = (0, 1, 63, 64, 65, 110, 128)

#: Coverages of the BMA corpus's paper-rate IDS slice.
BMA_COVERAGES = (1, 2, 10, 14)


def bma_corpus(seed: int) -> list[tuple[bool, list[list[str]], int]]:
    """``(two_way, clusters, strand_length)`` batches: paper-rate IDS
    noise at several coverages, word-boundary lengths with copies
    shorter and longer than L (some past 2L, which the kernel stores
    cut), empty copies and clusters, ``N``, lowercase, non-ASCII,
    ``"\\x00"`` and >255- and >65535-symbol alphabets, 2-vs-2 ties, and
    mixed copy counts in one batch."""
    rng = random.Random(seed)
    channel = Channel(ground_truth_model(), random.Random(seed + 2000))
    batches: list[tuple[list[list[str]], int]] = []
    for coverage in BMA_COVERAGES:
        references = [_strand(rng, 110) for _ in range(12)]
        batches.append(
            ([channel.transmit_many(ref, coverage) for ref in references], 110)
        )
    for length in BMA_LENGTHS:
        clusters = []
        for _ in range(6):
            reference = _strand(rng, length)
            clusters.append(
                [
                    _mutate(rng, reference, "ACGT", 1 + length // 10)
                    for _ in range(rng.randint(1, 6))
                ]
                + [reference[: length // 2], reference * 3]
            )
        clusters += [["", reference], [""] * 3, [], [reference, ""]]
        batches.append((clusters, length))
    for alphabet in ("ACGTN", "acgt", "αβγδé\ud800", "\x00AC"):
        clusters = []
        for _ in range(5):
            reference = _strand(rng, 40, alphabet)
            clusters.append(
                [_mutate(rng, reference, alphabet, 4) for _ in range(rng.randint(1, 5))]
            )
        batches.append((clusters, 40))
    wide = [chr(0x100 + index) for index in range(300)]
    batches.append(
        ([[_strand(rng, 30, wide) for _ in range(4)] for _ in range(6)], 30)
    )
    widest = iter(chr(0x4E00 + index) for index in range(72_000))
    batches.append(
        (
            [
                ["".join(next(widest) for _ in range(200)) for _ in range(18)]
                for _ in range(20)
            ],
            200,
        )
    )
    ties = [["ACGT", "ACGT", "TGCA", "TGCA"], ["AC", "CA"], ["A", "C", "G", "T"]]
    ties += [["AAAA", "AAAA", "CCCC", "CCCC", "AAC"], ["ACG" * 5] * 2 + ["CAG" * 5] * 2]
    batches.append((ties, 12))
    return [
        (two_way, clusters, length)
        for clusters, length in batches
        for two_way in (True, False)
    ]


def _bma_reconstructors(two_way: bool) -> list:
    """The lockstep BMA's callers: BMA itself and Divider BMA, whose
    fallback is two-way BMA."""
    return [BMALookahead(two_way)] + ([DividerBMA()] if two_way else [])


def bma_loop(two_way: bool, clusters: list[list[str]], length: int) -> list[list[str]]:
    """The per-cluster reference, once per fast-path call shape."""
    results = []
    for reconstructor in _bma_reconstructors(two_way):
        estimates = [reconstructor.reconstruct(copies, length) for copies in clusters]
        results += [estimates, estimates]
    return results


def bma_many(two_way: bool, clusters: list[list[str]], length: int) -> list[list[str]]:
    """The batched ``reconstruct_many``, on the whole batch and on one
    singleton batch per cluster (a cluster's estimate must not depend on
    its batch-mates)."""
    results = []
    for reconstructor in _bma_reconstructors(two_way):
        results += [
            reconstructor.reconstruct_many(clusters, length),
            [reconstructor.reconstruct_many([copies], length)[0] for copies in clusters],
        ]
    return results


#: The Iterative variants of the ``iterative_many`` entry: round caps 0,
#: 1 and 3, two-way Iterative, and a seeded instance (which keeps the
#: per-cluster loop).
ITERATIVE_VARIANTS = {
    "rounds=0": lambda: IterativeReconstruction(rounds=0),
    "rounds=1": lambda: IterativeReconstruction(rounds=1),
    "rounds=3": lambda: IterativeReconstruction(rounds=3),
    "two-way": TwoWayIterative,
    "seeded": lambda: IterativeReconstruction(seed=11),
}

#: ``_repair_length`` meets a 2-vs-2 insertion tie ({T: 2, G: 2} before
#: position 0, T voted first) and closes its deficit with it.
REPAIR_TIE_CLUSTER = ["TTGGTTGCGG", "GGTATGCGG", "GTTGCGG", "GTTGCGG"]

#: A majority deletes every position of the initial estimate.
EMPTIED_CLUSTER = ["ACGTCAGT", "", ""]


def iterative_corpus(seed: int) -> list[tuple[str, list[list[str]], int]]:
    """``(variant, clusters, strand_length)``: every batch of
    :func:`bma_corpus` plus the repair-tie and emptied clusters, for
    every :data:`ITERATIVE_VARIANTS` entry."""
    batches = [(clusters, length) for two_way, clusters, length in bma_corpus(seed) if two_way]
    batches.append(([REPAIR_TIE_CLUSTER, EMPTIED_CLUSTER, REPAIR_TIE_CLUSTER[::-1]], 8))
    return [
        (variant, clusters, length)
        for clusters, length in batches
        for variant in ITERATIVE_VARIANTS
    ]


def iterative_loop(variant: str, clusters: list[list[str]], length: int) -> list[list[str]]:
    """The per-cluster ``reconstruct`` loop, once per fast-path call shape
    (a seeded instance replays the same draws from its seed)."""
    reconstructor = ITERATIVE_VARIANTS[variant]()
    estimates = [reconstructor.reconstruct(copies, length) for copies in clusters]
    return [estimates, estimates]


def iterative_many(variant: str, clusters: list[list[str]], length: int) -> list[list[str]]:
    """``reconstruct_many`` on the whole batch and on singleton batches."""
    whole = ITERATIVE_VARIANTS[variant]().reconstruct_many(clusters, length)
    reconstructor = ITERATIVE_VARIANTS[variant]()
    singles = [reconstructor.reconstruct_many([copies], length)[0] for copies in clusters]
    return [whole, singles]


#: The ``seeded_channel`` models: no events, the paper's ground truth,
#: heavy terminal skew with bursts, long deletions and homopolymer
#: scaling (most draws per copy beyond the one roll per base), the
#: fitted profile's head spike, and dense long deletions.
SEEDED_MODELS = {
    "zero_rate": MODELS["zero_rate"],
    "ground_truth": MODELS["ground_truth"],
    "head_spike": MODELS["head_spike"],
    "long_deletion_dense": MODELS["long_deletion_dense"],
    "skew_burst": replace(
        ground_truth_model(),
        spatial=TerminalSkew(start_boost=20.0, end_boost=40.0, decay=4.0),
        burst_rate=0.02,
        long_deletion_rate=0.01,
        homopolymer_factor=1.5,
    ),
}


def seeded_channel_corpus(seed: int) -> list[tuple[str, str, int, int]]:
    """(model, reference, coverage, cluster seed) for every seeded-source
    seed: an empty reference, two paper-length strands and one as long
    as the hot-zone budget, at coverages 0, 1, 5 and 30."""
    rng = random.Random(seed + 5000)
    references = ("", _strand(rng, 110), "AAAAACCCGT" * 11)
    references += (_strand(rng, channel_backend._HOT_MIN),)
    return [
        (model_name, reference, coverage, cluster_seed)
        for model_name in sorted(SEEDED_MODELS)
        for reference in references
        for coverage in (0, 1, 5, 30)
        for cluster_seed in SEEDED_SOURCE_SEEDS
    ]


def seeded_loop(model_name: str, reference: str, coverage: int, cluster_seed: int):
    """The reference loop over a fresh ``random.Random(cluster_seed)``."""
    channel = Channel(SEEDED_MODELS[model_name], random.Random(cluster_seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_backend, "AUTO_MIN_DRAWS", 10**12)
        return channel.transmit_cluster(reference, coverage)


def seeded_sweep(model_name: str, reference: str, coverage: int, cluster_seed: int):
    return Channel(SEEDED_MODELS[model_name]).transmit_seeded(
        reference, coverage, cluster_seed
    )


class TextbookReedSolomon:
    """The scalar RS(n, k) decoder the log-domain one must reproduce:
    every field operation a :mod:`repro.pipeline.gf256` call, every
    polynomial evaluated term by term (Horner for syndromes)."""

    def __init__(self, n_parity: int) -> None:
        self.n_parity = n_parity
        self.generator = [1]
        for power in range(n_parity):
            self.generator = poly_mul(self.generator, [1, gf_pow(GENERATOR, power)])

    def encode(self, data: bytes) -> bytes:
        remainder = list(data) + [0] * self.n_parity
        for index in range(len(data)):
            coefficient = remainder[index]
            for offset, generator_coefficient in enumerate(self.generator):
                remainder[index + offset] ^= gf_mul(generator_coefficient, coefficient)
        return bytes(data) + bytes(remainder[len(data) :])

    def decode(self, codeword: bytes, erasure_positions: list[int]) -> bytes:
        if len(erasure_positions) > self.n_parity:
            raise ReedSolomonError(
                f"{len(erasure_positions)} erasures exceed "
                f"{self.n_parity} parity symbols"
            )
        received = list(codeword)
        length = len(received)
        for position in erasure_positions:
            received[position] = 0
        syndromes = self.syndromes(received)
        if max(syndromes) == 0:
            return bytes(received[: length - self.n_parity])
        locator = [1]
        for position in erasure_positions:
            erasure = gf_pow(GENERATOR, length - 1 - position)
            locator = self.mul_low(locator, [1, erasure])
        locator = self.berlekamp_massey(syndromes, locator, len(erasure_positions))
        degree = len(locator) - 1
        while degree > 0 and locator[degree] == 0:
            degree -= 1
        positions = []
        for position in range(length):
            inverse_locator = gf_pow(GENERATOR, (position + 1 - length) % 255)
            if self.eval_low(locator, inverse_locator) == 0:
                positions.append(position)
        if degree > self.n_parity or len(positions) != degree:
            raise ReedSolomonError("error locator does not factor; too many errors")
        evaluator = self.mul_low(syndromes, locator)[: self.n_parity]
        derivative = [c if power % 2 else 0 for power, c in enumerate(locator)][1:]
        for position in positions:
            x_k = gf_pow(GENERATOR, length - 1 - position)
            inverse_root = gf_inverse(x_k)
            denominator = self.eval_low(derivative, inverse_root)
            if denominator == 0:
                raise ReedSolomonError("Forney denominator vanished")
            numerator = self.eval_low(evaluator, inverse_root)
            received[position] ^= gf_mul(x_k, gf_div(numerator, denominator))
        if max(self.syndromes(received)) != 0:
            raise ReedSolomonError("correction failed; too many errors")
        return bytes(received[: length - self.n_parity])

    def syndromes(self, received: list[int]) -> list[int]:
        return [poly_eval(received, gf_pow(GENERATOR, p)) for p in range(self.n_parity)]

    def berlekamp_massey(self, syndromes, locator, n_erasures) -> list[int]:
        correction, current_length, shift, last_delta = list(locator), n_erasures, 1, 1
        for step in range(n_erasures, self.n_parity):
            delta = syndromes[step]
            for degree in range(1, min(len(locator), step + 1)):
                delta ^= gf_mul(locator[degree], syndromes[step - degree])
            if delta == 0:
                shift += 1
                continue
            scale = gf_div(delta, last_delta)
            shifted = [0] * shift + [gf_mul(c, scale) for c in correction]
            updated = [0] * max(len(locator), len(shifted))
            for index, coefficient in [*enumerate(locator), *enumerate(shifted)]:
                updated[index] ^= coefficient
            if 2 * current_length <= step + n_erasures:
                current_length = step + n_erasures + 1 - current_length
                correction, last_delta, shift = locator, delta, 1
            else:
                shift += 1
            locator = updated
        return locator

    @staticmethod
    def mul_low(first: list[int], second: list[int]) -> list[int]:
        result = [0] * (len(first) + len(second) - 1)
        for index_first, coefficient_first in enumerate(first):
            for index_second, coefficient_second in enumerate(second):
                result[index_first + index_second] ^= gf_mul(
                    coefficient_first, coefficient_second
                )
        return result

    @staticmethod
    def eval_low(polynomial: list[int], point: int) -> int:
        value = 0
        for power, coefficient in enumerate(polynomial):
            value ^= gf_mul(coefficient, gf_pow(point, power))
        return value


#: Parity counts of the ``reed_solomon`` corpus: the smallest code, the
#: archive's, and the largest GF(256) allows.
RS_PARITIES = (1, 2, 8, 20, 32, 254)


def rs_mixes(n_parity: int) -> list[tuple[int, int]]:
    """``(errors, erasures)`` mixes at the budget 2 * errors + erasures
    = n_parity and one past it, plus clean words and errors alone."""
    mixes = {(0, 0), (0, n_parity), (0, n_parity + 1), (n_parity // 2 + 1, 0)}
    for errors in (1, n_parity // 2):
        for cost in (n_parity, n_parity + 1):
            if errors and cost >= 2 * errors:
                mixes.add((errors, cost - 2 * errors))
    return sorted(mixes)


def rs_corpus(seed: int) -> list[tuple[int, bytes, bytes, list[int]]]:
    """``(n_parity, data, received word, erasure positions)`` over
    codeword lengths n_parity (no data) to 255, with errors XORed in
    and erased symbols overwritten."""
    rng = random.Random(seed)
    cases = []
    for n_parity in RS_PARITIES:
        lengths = {n_parity, min(n_parity + 1, 255), rng.randint(n_parity, 255), 255}
        for length in sorted(lengths):
            data = rng.randbytes(length - n_parity)
            codeword = TextbookReedSolomon(n_parity).encode(data)
            for errors, erasures in rs_mixes(n_parity):
                if errors + erasures > length:
                    continue
                positions = rng.sample(range(length), errors + erasures)
                word = bytearray(codeword)
                for position in positions[:errors]:
                    word[position] ^= rng.randrange(1, 256)
                for position in positions[errors:]:
                    word[position] = rng.randrange(256)
                cases.append((n_parity, data, bytes(word), positions[errors:]))
    return cases


def _rs_outcomes(code, data: bytes, word: bytes, erasures: list[int]) -> list:
    """``encode(data)`` and ``decode(word, erasures)``: the bytes, or the
    ``(type, message)`` of the error raised."""
    outcomes = [code.encode(data)]
    try:
        outcomes.append(code.decode(word, erasures))
    except ReedSolomonError as error:
        outcomes.append((type(error), str(error)))
    return outcomes


def reference_rs(n_parity: int, data: bytes, word: bytes, erasures: list[int]) -> list:
    return _rs_outcomes(TextbookReedSolomon(n_parity), data, word, erasures)


def fast_rs(n_parity: int, data: bytes, word: bytes, erasures: list[int]) -> list:
    return _rs_outcomes(ReedSolomon(n_parity), data, word, erasures)


#: Strand lengths of the ``gestalt_many`` corpus: word boundaries, the
#: paper's 110, and both sides of the uint8/uint16 run-dtype switch.
GESTALT_LENGTHS = (0, 1, 63, 64, 65, 110, 255, 256, 257, 500)


def tall_pair(rng: random.Random, second_prefix: int = 20) -> tuple[str, str]:
    """A first side of 350 nt against a second of ``second_prefix + 100``
    nt, whose 30-nt common run ends at row 279, inside the left region of
    a longer 50-nt run: a row cap of 280 cast to uint8 would wrap to 24
    there and cut the run short.  At the default prefix the pair makes a
    uint8 block; at 250 a uint16 one."""
    core = _strand(rng, 30)
    anchor = _strand(rng, 50)
    first = _strand(rng, 250) + core + _strand(rng, 20) + anchor
    second = _strand(rng, second_prefix) + core + _strand(rng, 20) + anchor
    return first, second


def gestalt_corpus(seed: int) -> list[tuple[list[tuple[str, str]]]]:
    """Blocks of pairs for ``gestalt_many``: edge and equal pairs, mixed
    lengths in one block, word-boundary and short random pairs, more
    110-nt channel pairs than one block holds (some of them exact
    matches, as after reconstruction), long pairs that make blocks of
    their own, edge alphabets and tie-heavy pairs, the tall pair in
    both orientations, and pairs whose runs or caps need uint16."""
    rng = random.Random(seed)
    blocks: list[list[tuple[str, str]]] = []
    edges = [("", ""), ("", "ACGT"), ("ACGT", ""), ("A", "A"), ("A", "C"), ("AC", "CA")]
    for length in (1, 7, 63, 64, 65, 110, 200):
        strand = _strand(rng, length)
        edges.append((strand, strand))
    blocks.append(edges)
    mixed = []
    for length in GESTALT_LENGTHS:
        strand = _strand(rng, length)
        mixed += [
            (strand, strand),
            (strand, ""),
            ("", strand),
            (strand, _mutate(rng, strand, "ACGT", 1 + length // 16)),
            (strand, _strand(rng, max(0, length + rng.randint(-4, 4)))),
        ]
    blocks.append(mixed)
    blocks.append(
        [
            (_strand(rng, length), _strand(rng, rng.randint(length - 6, length + 6)))
            for length in (63, 64, 65, 127, 128, 129)
            for _ in range(8)
        ]
    )
    blocks.append(
        [
            (_strand(rng, rng.randint(0, 40)), _strand(rng, rng.randint(0, 40)))
            for _ in range(140)
        ]
    )
    channel = Channel(ground_truth_model(), random.Random(seed + 1000))
    paper = []
    for index in range(100):
        reference = _strand(rng, 110)
        copy = channel.transmit(reference) if index % 4 else reference
        paper.append((reference, copy))
    blocks.append(paper)
    long_strand = _strand(rng, 1000)
    blocks.append(
        [
            (long_strand, _mutate(rng, long_strand, "ACGT", 60)),
            (_strand(rng, 500), _strand(rng, 20)),
            (_strand(rng, 20), _strand(rng, 500)),
        ]
    )
    alphabets = []
    for alphabet in ("ACGTN", "acgt", "ACGTé", "αβγδ", "ACG\ud800"):
        for length in (20, 90):
            strand = _strand(rng, length, alphabet)
            alphabets.append((strand, _mutate(rng, strand, alphabet, 6)))
    # Surrogate halves that meet where the block joins its strings.
    alphabets.append(("ACGTAC\ud800", "\udc00ACGTAC\ud800"))
    alphabets.append(("\udc00GTACGT", "ACGTAC\ud800\udc00GT"))
    blocks.append(alphabets)
    ties = []
    for length in (5, 40, 110):
        periodic = "ACGT" * (length // 4)
        ties += [
            ("A" * length, "A" * (length + 3)),
            ("A" * length, _mutate(rng, "A" * length, "AC", 4)),
            (periodic, "ACGT" * (length // 4 + 2)),
            (periodic, "CGTA" * (length // 4)),
            (periodic, _mutate(rng, periodic, "ACGT", 5)),
        ]
    blocks.append(ties)
    tall = [tall_pair(rng) for _ in range(2)]
    blocks.append(tall + [(second, first) for first, second in tall])
    # Wider than uint8 holds: caps past 255 and a common run past 255.
    shared = _strand(rng, 300)
    blocks.append(
        [
            tall_pair(rng, second_prefix=250),
            ("A" + shared + _strand(rng, 5), "C" + shared + _strand(rng, 5)),
        ]
    )
    return [(block,) for block in blocks]


def reference_many(block: list[tuple[str, str]]) -> list:
    blocks = [gestalt.reference_blocks(first, second) for first, second in block]
    return [blocks, blocks]


def fast_many(block: list[tuple[str, str]]) -> list:
    """The whole block at once, then each pair as a block of its own."""
    return [
        gestalt.matching_blocks_many(block),
        [gestalt.matching_blocks_many([pair])[0] for pair in block],
    ]


def _table_pairs(block: list[tuple[str, str]]) -> list[int]:
    """Indices of the pairs that reach a run table: neither side empty,
    the two not equal."""
    return [
        index
        for index, (first, second) in enumerate(block)
        if first and second and first != second
    ]


def _cut_by_wrapped_cap(first: str, second: str) -> bool:
    """Whether the pair makes a uint8 block and has a block, left of the
    largest one, that ends past row 255 of ``first`` and is longer than
    the row cap cast to uint8 there: the trap of :func:`tall_pair`."""
    if min(len(first), len(second)) > 255 or len(first) < 256:
        return False
    blocks = gestalt.reference_blocks(first, second)
    if not blocks:
        return False
    largest = max(blocks, key=lambda block: block.size)
    return any(
        block.size < largest.size
        and block.first_start < largest.first_start
        and block.first_start + block.size > 255
        and (block.first_start + block.size) % 256 < block.size
        for block in blocks
    )


#: Reference lengths of the ``tally_many`` corpus's mixed call: both
#: sides of the 64-bit word boundary, the paper's 110 and two words + 1.
TALLY_LENGTHS = (63, 64, 65, 110, 129)


def _long_deletion_model():
    """The ground-truth model with long deletions at 15x the paper's
    rate and runs up to 9 bases."""
    model = ground_truth_model()
    return replace(
        model,
        long_deletion_rate=15 * model.long_deletion_rate,
        long_deletion_lengths={2: 0.4, 3: 0.3, 5: 0.2, 9: 0.1},
    )


def tally_corpus(seed: int) -> list[tuple[list[tuple[str, list[str]]], int | None]]:
    """``(clusters, max_copies_per_cluster)`` profile-fit inputs, each
    cluster a ``(reference, copies)`` pair: paper-rate IDS reads with and
    without a copy cap, a long-deletion-heavy model, mixed reference
    lengths with empty, identical and over-2x copies, clusters with zero
    copies, and ``N``, lowercase and lone-surrogate copy symbols."""
    rng = random.Random(seed)
    channel = Channel(ground_truth_model(), random.Random(seed + 3000))
    paper = [
        (reference, channel.transmit_many(reference, rng.randint(1, 10)))
        for reference in (_strand(rng, 110) for _ in range(24))
    ]
    long_channel = Channel(_long_deletion_model(), random.Random(seed + 4000))
    long_deletions = [
        (reference, long_channel.transmit_many(reference, 6))
        for reference in (_strand(rng, 110) for _ in range(12))
    ]
    mixed = []
    for length in TALLY_LENGTHS:
        reference = _strand(rng, length)
        mixed.append(
            (
                reference,
                channel.transmit_many(reference, 3)
                + ["", reference, reference * 3, _strand(rng, 2 * length + 7)],
            )
        )
        mixed.append((_strand(rng, length), []))
    symbols = []
    for alphabet in ("ACGTN", "acgt", "ACG\ud800"):
        reference = _strand(rng, 40)
        symbols.append(
            (reference, [_mutate(rng, reference, alphabet, 6) for _ in range(3)])
        )
    symbols.append(("ACGTACGT", ["N" * 8, "acgtacgt", "\ud800" * 3]))
    ties = [
        ("A" * 40, ["A" * 43, "A" * 35, _mutate(rng, "A" * 40, "AC", 4)]),
        ("ACGT" * 10, ["CGTA" * 10, "ACGT" * 12, "ACGTACGTTT" * 4]),
        ("AACCGGTT", ["AAGGTT", "AAT", "A", "TTAACCGGTTAA"]),
    ]
    return [
        (paper, None),
        (paper, 4),
        (long_deletions, None),
        (mixed, None),
        (symbols + ties + mixed[:2], None),
    ]


def statistics_fields(statistics: ErrorStatistics) -> dict[str, object]:
    """Every ``ErrorStatistics`` field, dicts as their item lists so that
    key order counts."""
    return {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in vars(statistics).items()
    }


def tally_loop(
    clusters: list[tuple[str, list[str]]], cap: int | None
) -> list[dict[str, object]]:
    """The scalar ``tally_pair`` loop, once per fast-path call shape."""
    statistics = ErrorStatistics()
    for reference, copies in clusters:
        for copy in copies[:cap]:
            statistics.tally_pair(reference, copy)
    return [statistics_fields(statistics)] * 3


def tally_fast(
    clusters: list[tuple[str, list[str]]], cap: int | None
) -> list[dict[str, object]]:
    """``tally_pool`` over the pool, ``tally_many`` over its pairs, and
    ``tally_many`` over the pairs in two calls (the second meets keys the
    first already entered)."""
    pool = StrandPool([Cluster(reference, list(copies)) for reference, copies in clusters])
    pooled = ErrorStatistics()
    pooled.tally_pool(pool, cap)
    pairs = [(reference, copy) for reference, copies in clusters for copy in copies[:cap]]
    whole = ErrorStatistics()
    whole.tally_many(pairs)
    halves = ErrorStatistics()
    halves.tally_many(pairs[: len(pairs) // 2])
    halves.tally_many(pairs[len(pairs) // 2 :])
    return [statistics_fields(statistics) for statistics in (pooled, whole, halves)]


#: Strand lengths of the ``random_strand`` entry: empty, the first few
#: bases, both sides of a 32-base plane, the paper's 110 and a long one.
STRAND_LENGTHS = (0, 1, 2, 3, 31, 32, 33, 110, 1000)

#: ``random_strand`` draws per oracle seed, each from its own seed.
STRAND_SEEDS_PER_CORPUS_SEED = 20


class RandomOverride(random.Random):
    """Overrides ``random()`` only, so ``choice`` draws floats
    (``_randbelow_without_getrandbits``) instead of ``getrandbits(3)``."""

    def random(self):
        return super().random()


class GetrandbitsOverride(random.Random):
    """Overrides ``getrandbits`` and records every ``k`` it is asked for:
    a path that skips the ``choice`` loop shows in :attr:`calls`."""

    def __init__(self, seed):
        self.calls: list[int] = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


STRAND_RNGS = {
    "Random": random.Random,
    "random_override": RandomOverride,
    "getrandbits_override": GetrandbitsOverride,
}


def strand_corpus(seed: int) -> list[tuple[str, int, int]]:
    """``(rng kind, rng seed, length)`` over every length of
    :data:`STRAND_LENGTHS`, for 20 seeds each of a plain ``random.Random``
    and for two seeds each of both subclasses."""
    first = seed * STRAND_SEEDS_PER_CORPUS_SEED
    inputs = [
        ("Random", strand_seed, length)
        for strand_seed in range(first, first + STRAND_SEEDS_PER_CORPUS_SEED)
        for length in STRAND_LENGTHS
    ]
    inputs += [
        (kind, strand_seed, length)
        for kind in ("random_override", "getrandbits_override")
        for strand_seed in (first, first + 1)
        for length in STRAND_LENGTHS
    ]
    return inputs


def _strand_outcome(kind: str, strand_seed: int, draw) -> tuple:
    """The strand ``draw(rng)`` returns, the state it leaves ``rng`` in,
    and the ``getrandbits`` calls of a recording RNG."""
    rng = STRAND_RNGS[kind](strand_seed)
    strand = draw(rng)
    return strand, rng.getstate(), getattr(rng, "calls", None)


def strand_loop(kind: str, strand_seed: int, length: int) -> tuple:
    """The seed's ``random_strand``: one ``choice(BASES)`` per base."""
    return _strand_outcome(
        kind, strand_seed, lambda rng: "".join(rng.choice(BASES) for _ in range(length))
    )


def strand_fast(kind: str, strand_seed: int, length: int) -> tuple:
    return _strand_outcome(kind, strand_seed, lambda rng: random_strand(length, rng))


def hamming_corpus(seed: int) -> list[tuple[list[str], list[str]]]:
    """``(references, others)`` curve inputs: the shared corpus both ways
    round, no pairs, empty pairs only, copies longer and shorter than
    their references (some past the longest one, some empty), and more
    110-nt channel pairs than one block holds, mixed with long pairs
    that make blocks of their own."""
    rng = random.Random(seed)
    pairs = shared_corpus(seed)
    inputs = [
        ([first for first, _ in pairs], [second for _, second in pairs]),
        ([second for _, second in pairs], [first for first, _ in pairs]),
        ([], []),
        ([""], [""]),
        (["", ""], ["", ""]),
        (["", "ACGT"], ["AC", ""]),
    ]
    references = [_strand(rng, rng.choice((5, 40, 110))) for _ in range(30)]
    others = [
        reference[: rng.randrange(len(reference) + 1)] + _strand(rng, rng.randrange(8))
        if index % 3
        else reference + _strand(rng, rng.choice((0, 1, 150)))
        for index, reference in enumerate(references)
    ]
    others[0] = ""
    inputs.append((references, others))
    channel = Channel(ground_truth_model(), random.Random(seed + 1000))
    straddle = []
    for index in range(300):
        reference = _strand(rng, 110)
        straddle.append((reference, channel.transmit(reference) if index % 5 else reference))
    long_strand = _strand(rng, 1000)
    straddle[70:70] = [(long_strand, _mutate(rng, long_strand, "ACGT", 30)), ("", _strand(rng, 600))]
    straddle[200:200] = [(_strand(rng, 500), "ACG\ud800" * 10), ("αβγδ" * 30, "αβγδ" * 29)]
    inputs.append(([first for first, _ in straddle], [second for _, second in straddle]))
    return inputs


def hamming_loop(references: list[str], others: list[str]) -> list[int]:
    """The seed's curve: ``hamming_error_positions`` per pair, tallied on
    a curve as long as the longest reference that grows when a position
    falls past its end."""
    length = max((len(reference) for reference in references), default=0)
    curve = [0] * length
    for reference, other in zip(references, others):
        for position in hamming_error_positions(reference, other):
            if position >= length:
                curve.extend([0] * (position - length + 1))
                length = len(curve)
            curve[position] += 1
    return curve


#: Greedy thresholds of the ``greedy_prefetch`` entry: exact duplicates
#: only, the default, and one that joins unrelated reads.
GREEDY_THRESHOLDS = (0, 25, 60)

#: Prefetch block sizes the ``greedy_prefetch`` entry also runs with, so
#: that its read-outs cross several blocks of every size.
SMALL_BLOCKS = (4, 16)


def greedy_corpus(seed: int) -> list[tuple[int, list[str]]]:
    """``(threshold, reads)`` read-outs: paper-rate channel copies of a
    few references, shuffled, with exact duplicates, empty reads, reads
    shorter than ``q``, ``N``, non-ASCII and lone-surrogate reads, and a
    chain of three reads whose last needs a pair no prefetch round
    fetched."""
    rng = random.Random(seed)
    channel = Channel(ground_truth_model(), random.Random(seed + 5000))
    references = [_strand(rng, 110) for _ in range(12)]
    reads = [channel.transmit(reference) for reference in references for _ in range(8)]
    reads += [reads[3], reads[3], references[0], references[0], "", "", "ACG", "ACGTAC"]
    reads += [_mutate(rng, references[1], "ACGTN", 3), "ACGé" * 20, "AC\ud800G" * 20]
    rng.shuffle(reads)
    # A chain no guess foresees: ``joined`` shares buckets with both
    # halves and, at threshold 60, joins ``left``'s cluster; ``right``
    # names only ``joined``, so its distance to ``left`` is computed on
    # demand.
    left, right = _strand(rng, 40), _strand(rng, 40)
    reads[:0] = [left, left + right, right]
    # Two ties at threshold 25: a read as far from two founders whose
    # cluster ids differ by 8, so in a small set they share a hash slot
    # and the order the read's candidates arrive in picks the winner.
    ties = []
    for _ in range(2):
        first, second, read = _tie(rng)
        ties += [first] + [_strand(rng, 110) for _ in range(7)] + [second, read]
    reads[:0] = ties
    return [(threshold, reads) for threshold in GREEDY_THRESHOLDS]


def _tie(rng: random.Random) -> tuple[str, str, str]:
    """``(first, second, read)``: ``read`` is as far from ``first`` as
    from ``second``, within 25 edits, and they are more than 25 apart."""
    while True:
        left, right = _strand(rng, 55), _strand(rng, 55)
        first = left + _substituted(rng, right, 14)
        second = _substituted(rng, left, 14) + right
        read = left + right
        distance = kernels._python_distance(read, first)
        if (
            distance == kernels._python_distance(read, second) <= 25
            and kernels._python_distance(first, second) > 25
        ):
            return first, second, read


def _substituted(rng: random.Random, text: str, count: int) -> str:
    """``text`` with ``count`` positions substituted by other bases."""
    chars = list(text)
    for position in rng.sample(range(len(chars)), count):
        chars[position] = rng.choice([base for base in "ACGT" if base != chars[position]])
    return "".join(chars)


def _clustering(
    threshold: int, reads: list[str], patch_blocks: bool
) -> GreedyClusteringResult:
    with pytest.MonkeyPatch.context() as patch:
        if patch_blocks:
            patch.setattr(greedy, "FIRST_BLOCK", SMALL_BLOCKS[0])
            patch.setattr(greedy, "LAST_BLOCK", SMALL_BLOCKS[1])
        return GreedyClusterer(distance_threshold=threshold).cluster(reads)


def serial_greedy(threshold: int, reads: list[str]) -> list:
    """The read-by-read sweep the prefetch must reproduce, once per
    fast-path call shape: each read's candidates from the q-gram index as
    it stands, one banded one-vs-many call against every candidate
    cluster's founder, the first minimum within the threshold or a new
    cluster; then the merge pass, one call per representative against its
    candidates, unioning those within the threshold."""
    clusterer = GreedyClusterer(distance_threshold=threshold)
    index = QGramIndex(q=clusterer.q, bands=clusterer.bands)
    assignments: list[int] = []
    representatives: list[CompiledPattern] = []
    comparisons = 0
    for position, read in enumerate(reads):
        clusters = list({assignments[candidate] for candidate in index.candidates(read)})
        comparisons += len(clusters)
        distances = CompiledPattern(read).banded_distances(
            [representatives[cluster] for cluster in clusters], threshold
        )
        best, best_distance = -1, threshold + 1
        for cluster, distance in zip(clusters, distances):
            if distance < best_distance:
                best, best_distance = cluster, distance
        if best < 0:
            best = len(representatives)
            representatives.append(CompiledPattern(read))
        assignments.append(best)
        index.add(position, read)
    parent = list(range(len(representatives)))

    def find(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    merge_index = QGramIndex(q=clusterer.q, bands=clusterer.bands)
    merge_comparisons = 0
    for cluster, representative in enumerate(representatives):
        candidates = list(merge_index.candidates(representative.text))
        distances = representative.banded_distances(
            [representatives[candidate] for candidate in candidates], threshold
        )
        for candidate, distance in zip(candidates, distances):
            root, other = find(cluster), find(candidate)
            if root != other:
                merge_comparisons += 1
                if distance <= threshold:
                    parent[root] = other
        merge_index.add(cluster, representative.text)
    dense: dict[int, int] = {}
    for cluster in range(len(representatives)):
        dense.setdefault(find(cluster), len(dense))
    merged = [dense[find(cluster)] for cluster in assignments]
    members: list[list[int]] = [[] for _ in dense]
    for position, cluster in enumerate(merged):
        members[cluster].append(position)
    result = GreedyClusteringResult(
        assignments=merged,
        representatives=[representatives[root].text for root in dense],
        comparisons=comparisons + merge_comparisons,
        members=members,
    )
    return [result, result, result]


def greedy_with_prefetch(threshold: int, reads: list[str]) -> list:
    """The default clusterer, with the default blocks, with
    :data:`SMALL_BLOCKS`, and with the prefetch off (every pair computed
    on demand): every ``GreedyClusteringResult`` field."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy, "_lane_table", lambda strings, lanes, band: {})
        without_prefetch = _clustering(threshold, reads, patch_blocks=False)
    return [
        _clustering(threshold, reads, patch_blocks=False),
        _clustering(threshold, reads, patch_blocks=True),
        without_prefetch,
    ]


def _greedy_traffic(threshold: int, reads: list[str]) -> tuple[int, int]:
    """Pairs the :data:`SMALL_BLOCKS` clusterer takes from its lockstep
    prefetch and pairs it computes on demand."""
    traffic = [0, 0]
    lane_table = greedy._lane_table
    banded_distances = CompiledPattern.banded_distances

    def counted_table(strings, lanes, band):
        traffic[0] += sum(map(len, lanes.values()))
        return lane_table(strings, lanes, band)

    def counted_distances(pattern, others, band):
        traffic[1] += len(others)
        return banded_distances(pattern, others, band)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy, "_lane_table", counted_table)
        patch.setattr(CompiledPattern, "banded_distances", counted_distances)
        _clustering(threshold, reads, patch_blocks=True)
    return traffic[0], traffic[1]


def majority_corpus(seed: int) -> list[tuple[list[list[str]], int]]:
    """``(clusters, strand_length)`` batches: paper-rate channel clusters
    at strand lengths 0, 1, 5 and 110, more clusters than one block, with
    empty clusters, empty copies, copies longer than the strand, every
    position tied two ways, ``N``, non-ASCII, astral and lone-surrogate
    symbols; and a block whose alphabet is too wide to vote at once."""
    rng = random.Random(seed)
    channel = Channel(ground_truth_model(), random.Random(seed + 6000))
    inputs = []
    for length in (0, 1, 5, 110):
        clusters = []
        for _ in range(70):
            reference = _strand(rng, length)
            clusters.append([channel.transmit(reference) for _ in range(rng.randint(0, 6))])
        clusters[3] = []
        clusters[5] = ["", "", ""]
        clusters[7] = ["AC" * 80, "CA" * 80]
        clusters[9] = [_strand(rng, 2 * length + 3) for _ in range(3)]
        clusters[11] = ["\U0001F600é\ud800N" * 40, "\ud800N\U0001F600" * 40, "a"]
        inputs.append((clusters, length))
    wide = "".join(chr(0x100 + index) for index in range(100))
    inputs.append(([[_strand(rng, 110, wide) for _ in range(5)] for _ in range(64)], 110))
    inputs.append(([], 110))
    return inputs


def majority_loop(clusters: list[list[str]], length: int) -> list[list[str]]:
    """The per-cluster ``reconstruct`` loop, once per fast-path call shape."""
    estimates = [PositionalMajority().reconstruct(copies, length) for copies in clusters]
    return [estimates, estimates]


def majority_many(clusters: list[list[str]], length: int) -> list[list[str]]:
    """``reconstruct_many`` on the whole batch and on singleton batches."""
    voter = PositionalMajority()
    return [
        voter.reconstruct_many(clusters, length),
        [voter.reconstruct_many([copies], length)[0] for copies in clusters],
    ]


@dataclass(frozen=True)
class Oracle:
    """One fast path and the reference it must reproduce exactly on
    every argument tuple its generator yields."""

    name: str
    reference: Callable[..., object]
    fast: Callable[..., object]
    inputs: Callable[[int], list[tuple]]


ORACLES = (
    Oracle(
        name="edit_operations",
        reference=_with_tie_breakers(matrix_backtrace),
        fast=_with_tie_breakers(edit_operations),
        inputs=shared_corpus,
    ),
    Oracle(
        name="matching_blocks",
        reference=gestalt.reference_blocks,
        fast=gestalt._decompose,
        inputs=shared_corpus,
    ),
    Oracle(
        name="gestalt_many",
        reference=reference_many,
        fast=fast_many,
        inputs=gestalt_corpus,
    ),
    Oracle(
        name="edit_distance",
        reference=reference_distances,
        fast=fast_distances,
        inputs=shared_corpus,
    ),
    Oracle(
        name="banded_distance",
        reference=reference_banded,
        fast=fast_banded,
        inputs=shared_corpus,
    ),
    Oracle(
        name="one_to_many",
        reference=pairwise_loop,
        fast=one_to_many,
        inputs=batch_corpus,
    ),
    Oracle(
        name="lane_packed",
        reference=reference_lanes,
        fast=packed_lanes,
        inputs=lane_corpus,
    ),
    Oracle(
        name="lane_distances",
        reference=reference_lane_distances,
        fast=fast_lane_distances,
        inputs=lane_distance_corpus,
    ),
    Oracle(
        name="greedy_prefetch",
        reference=serial_greedy,
        fast=greedy_with_prefetch,
        inputs=greedy_corpus,
    ),
    Oracle(
        name="majority_many",
        reference=majority_loop,
        fast=majority_many,
        inputs=majority_corpus,
    ),
    Oracle(
        name="qgram_signatures",
        reference=reference_signatures,
        fast=fast_signatures,
        inputs=qgram_corpus,
    ),
    Oracle(
        name="channel",
        reference=reference_run,
        fast=fast_run,
        inputs=channel_inputs,
    ),
    Oracle(
        name="seeded_channel",
        reference=seeded_loop,
        fast=seeded_sweep,
        inputs=seeded_channel_corpus,
    ),
    Oracle(
        name="bma_many",
        reference=bma_loop,
        fast=bma_many,
        inputs=bma_corpus,
    ),
    Oracle(
        name="iterative_many",
        reference=iterative_loop,
        fast=iterative_many,
        inputs=iterative_corpus,
    ),
    Oracle(
        name="tally_many",
        reference=tally_loop,
        fast=tally_fast,
        inputs=tally_corpus,
    ),
    Oracle(
        name="random_strand",
        reference=strand_loop,
        fast=strand_fast,
        inputs=strand_corpus,
    ),
    Oracle(
        name="hamming_curve",
        reference=hamming_loop,
        fast=hamming_error_curve,
        inputs=hamming_corpus,
    ),
    Oracle(
        name="reed_solomon",
        reference=reference_rs,
        fast=fast_rs,
        inputs=rs_corpus,
    ),
)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("oracle", ORACLES, ids=lambda oracle: oracle.name)
def test_fast_path_matches_reference(oracle: Oracle, seed: int):
    for args in oracle.inputs(seed):
        assert oracle.fast(*args) == oracle.reference(*args), (oracle.name, args)


def test_corpus_covers_its_regions():
    pairs = shared_corpus(0)
    lengths = {len(first) for first, _ in pairs}
    assert {0, 1, 63, 64, 65, 110, 127, 128, 129} <= lengths
    assert any(first == second and first for first, second in pairs)
    assert any(
        not first.isascii() and len(first) * len(second) > 1024
        for first, second in pairs
    )
    assert any("N" in first for first, _ in pairs)
    assert any(first.islower() for first, _ in pairs)
    assert any("\ud800" in first for first, _ in pairs)
    batches = batch_corpus(0)
    assert {len(reads) for _, reads in batches} == set(BATCH_SIZES)
    assert {63, 64, 65, 127, 128, 129} <= {len(pattern) for pattern, _ in batches}
    assert all(pattern in reads and "" in reads for pattern, reads in batches if len(reads) > 1)
    assert any(
        len(reads) >= 48 and any("\ud800" in read for read in reads)
        for _, reads in batches
    )
    lane_inputs = lane_corpus(0)
    assert any(set(LANE_LENGTHS) <= set(map(len, lanes)) for _, lanes in lane_inputs)
    assert set(LANE_BATCH_SIZES) <= {len(lanes) for _, lanes in lane_inputs}
    assert any("" in texts for texts, _ in lane_inputs)
    assert any(
        text and not set(text) & set("".join(lanes))
        for texts, lanes in lane_inputs
        for text in texts
    )
    for symbol in ("N", "a", "é", "\ud800"):
        assert any(symbol in "".join(lanes) for _, lanes in lane_inputs), symbol
    lane_blocks = lane_distance_corpus(0)
    lane_patterns = [pattern for patterns, _ in lane_blocks for pattern in patterns]
    assert {0, 1, 63, 64, 65, 127, 128, 129} <= set(map(len, lane_patterns))
    keyed = {
        (_keyed_eq_table(patterns, texts_lists), _texts_ascii(texts_lists))
        for patterns, texts_lists in lane_blocks
    }
    assert keyed == {(True, True), (True, False), (False, True)}
    assert any([] in texts_lists for _, texts_lists in lane_blocks)
    assert any(
        len(texts) > SMALL_LANE_CAP for _, texts_lists in lane_blocks for texts in texts_lists
    ), "no pattern whose texts a small lane cap splits"
    for symbol in ("N", "a", "é", "\U0001F600", "\ud800"):
        assert any(symbol in pattern for pattern in lane_patterns), symbol
    assert 200 in set(map(len, lane_patterns))
    lane_pairs = [
        (pattern, text)
        for patterns, texts_lists in lane_blocks
        for pattern, texts in zip(patterns, texts_lists)
        for text in texts
    ]
    gaps = {abs(len(pattern) - len(text)) for pattern, text in lane_pairs}
    for band in (0, 1, 3, 25, 31, 32):
        assert {band, band + 1} <= gaps, band
    assert any(pattern and not text for pattern, text in lane_pairs)
    assert any(text and not pattern for pattern, text in lane_pairs)
    # Under greedy's threshold, a block whose every lane leaves the banded
    # pass early, and one where some leave while copies of two lengths
    # read to their texts' ends.
    ascii_blocks = [
        (patterns, texts_lists)
        for patterns, texts_lists in lane_blocks
        if _texts_ascii(texts_lists) and "".join(patterns).isascii()
    ]
    leaving = []
    for patterns, texts_lists in ascii_blocks:
        lanes = [
            (text, kernels._python_distance(pattern, text))
            for pattern, texts in zip(patterns, texts_lists)
            for text in texts
            if abs(len(pattern) - len(text)) <= 25
        ]
        leaving.append(
            (
                bool(lanes) and all(distance > 25 for _, distance in lanes),
                any(distance > 25 for _, distance in lanes)
                and len({len(text) for text, distance in lanes if distance <= 25}) > 1,
            )
        )
    assert any(every for every, _ in leaving), "no block whose every lane leaves"
    assert any(mixed for _, mixed in leaving), "no block mixing leaving and ending lanes"
    # Under bands 3 and 25, a block where copies read to their texts'
    # ends past the longest pattern's last full word while a text outside
    # the band runs on beyond them.
    for band in (3, 25):
        assert any(
            max(map(len, patterns)) % 64 == 0
            and any(
                len(text) == len(pattern) + band
                for pattern, texts in zip(patterns, texts_lists)
                for text in texts
            )
            and any(
                len(text) - len(pattern) > 2 * band + 8
                for pattern, texts in zip(patterns, texts_lists)
                for text in texts
            )
            for patterns, texts_lists in ascii_blocks
        ), band
    traffic = []
    for threshold, reads in greedy_corpus(0):
        assert len(reads) > SMALL_BLOCKS[0] + 3 * SMALL_BLOCKS[1]
        assert "" in reads and any(0 < len(read) < 8 for read in reads)
        assert len(set(reads)) < len(reads) - 2
        traffic.append(_greedy_traffic(threshold, reads))
    assert all(prefetched for prefetched, _ in traffic)
    assert any(on_demand for _, on_demand in traffic), "no pair computed on demand"
    vote_batches = majority_corpus(0)
    assert {0, 1, 5, 110} <= {length for _, length in vote_batches}
    assert any(len(clusters) > BLOCK_CLUSTERS for clusters, _ in vote_batches)
    vote_clusters = [copies for clusters, _ in vote_batches for copies in clusters]
    assert [] in vote_clusters and ["", "", ""] in vote_clusters
    assert ["AC" * 80, "CA" * 80] in vote_clusters
    assert any(
        len(copy) > length
        for clusters, length in vote_batches
        if length
        for copies in clusters
        for copy in copies
    )
    assert any(
        len(clusters[:BLOCK_CLUSTERS]) * length * len(set("".join(sum(clusters, []))))
        > majority._VOTE_CELLS
        for clusters, length in vote_batches
    ), "no block too wide to vote at once"
    for symbol in ("N", "é", "\U0001F600", "\ud800"):
        assert any(symbol in copy for copies in vote_clusters for copy in copies), symbol
    for q, _, pool in qgram_corpus(0):
        assert {0, 1, q - 1, q, q + 1, 63, 64, 65, 110, 128} <= set(map(len, pool))
        for symbol in ("N", "a", "é", "\U0001F600", "\ud800"):
            assert any(symbol in sequence for sequence in pool), symbol
        blocks = greedy._blocks(len(pool))
        assert len(blocks) > 2, "the pool crosses fewer than two block boundaries"
        assert pool[blocks[1][0]] == "" and 0 < len(pool[blocks[1][0] + 1]) < q
    bma_batches = bma_corpus(0)
    assert set(BMA_LENGTHS) <= {length for _, _, length in bma_batches}
    clusters = [copies for _, batch, _ in bma_batches for copies in batch]
    assert [] in clusters and ["", "", ""] in clusters
    assert any(
        len(copy) > 2 * length
        for _, batch, length in bma_batches
        for copies in batch
        for copy in copies
    )
    symbols = [
        {char for copies in batch for copy in copies for char in copy}
        for _, batch, _ in bma_batches
    ]
    assert any(len(alphabet) > 65535 for alphabet in symbols)
    assert any(len(alphabet) > 255 and len(alphabet) < 65536 for alphabet in symbols)
    assert any("\x00" in alphabet for alphabet in symbols)
    copy_counts = [{len(copies) for copies in batch} for _, batch, _ in bma_batches]
    assert any(len(counts) > 3 for counts in copy_counts)
    assert any(
        not any(len(copy) == length for copy in copies) and copies
        for _, batch, length in bma_batches
        for copies in batch
    )
    gestalt_blocks = [block for (block,) in gestalt_corpus(0)]
    gestalt_pairs = [pair for block in gestalt_blocks for pair in block]
    assert set(GESTALT_LENGTHS) <= {len(first) for first, _ in gestalt_pairs}
    assert {("", ""), ("", "ACGT"), ("ACGT", "")} <= set(gestalt_pairs)
    assert any(first == second and first for first, second in gestalt_pairs)
    assert any(len({len(first) for first, _ in block}) > 5 for block in gestalt_blocks)
    assert any(
        len(list(gestalt.pair_blocks(block, _table_pairs(block)))) > 1
        for block in gestalt_blocks
    ), "no block the cell budget splits"
    for symbol in ("N", "a", "é", "\ud800", "\udc00"):
        assert any(symbol in first for first, _ in gestalt_pairs), symbol
    tall = [
        (first, second)
        for first, second in gestalt_pairs
        if _cut_by_wrapped_cap(first, second)
    ]
    assert tall and all(len(first) >= 256 > len(second) for first, second in tall)
    assert any(
        _cut_by_wrapped_cap(first, second) for second, first in gestalt_pairs
    ), "no tall pair with the long side second"
    hamming_inputs = hamming_corpus(0)
    assert any(
        len(list(gestalt.pair_blocks(list(zip(*curve_input)), range(len(curve_input[0]))))) > 1
        for curve_input in hamming_inputs
    ), "no curve input the cell budget splits"
    assert ([], []) in hamming_inputs
    hamming_pairs = [pair for references, others in hamming_inputs for pair in zip(references, others)]
    assert any(not other and reference for reference, other in hamming_pairs)
    assert any(
        max(map(len, others), default=0) > max(map(len, references), default=0)
        for references, others in hamming_inputs
    ), "no copy past the longest reference"
    assert any(len(other) < len(reference) and other for reference, other in hamming_pairs)
    for symbol in ("N", "é", "\ud800"):
        assert any(symbol in other for _, other in hamming_pairs), symbol
    strand_inputs = strand_corpus(0)
    assert {kind for kind, _, _ in strand_inputs} == set(STRAND_RNGS)
    for kind in STRAND_RNGS:
        assert {length for rng_kind, _, length in strand_inputs if rng_kind == kind} == set(
            STRAND_LENGTHS
        ), kind
    assert len({seed for kind, seed, _ in strand_inputs if kind == "Random"}) >= 20
    rs_cases = rs_corpus(0)
    for n_parity in RS_PARITIES:
        mixes = set()
        lengths = set()
        for parity, data, word, erasures in rs_cases:
            if parity != n_parity:
                continue
            codeword = TextbookReedSolomon(n_parity).encode(data)
            errors = sum(
                1
                for position, (sent, got) in enumerate(zip(codeword, word))
                if sent != got and position not in erasures
            )
            mixes.add((errors, len(erasures)))
            lengths.add(len(word))
        assert {n_parity, 255} <= lengths and min(lengths) == n_parity
        assert {(0, 0), (0, n_parity), (0, n_parity + 1)} <= mixes
        for cost in (n_parity, n_parity + 1):
            assert any(
                errors and 2 * errors + erasures == cost for errors, erasures in mixes
            ) or n_parity == 1 and cost == 1, (n_parity, cost)
    tally_inputs = tally_corpus(0)
    assert {None, 4} <= {cap for _, cap in tally_inputs}
    tally_clusters = [cluster for clusters, _ in tally_inputs for cluster in clusters]
    tally_pairs = [(reference, copy) for reference, copies in tally_clusters for copy in copies]
    assert sum(len(reference) == 110 and copy != reference for reference, copy in tally_pairs) > 100
    assert any(copy == "" for _, copy in tally_pairs)
    assert any(copy == reference for reference, copy in tally_pairs)
    assert any(len(copy) > 2 * len(reference) for reference, copy in tally_pairs)
    assert any(not copies for _, copies in tally_clusters)
    assert any(
        set(TALLY_LENGTHS) <= {len(reference) for reference, _ in clusters}
        for clusters, _ in tally_inputs
    )
    for symbol in ("N", "a", "\ud800"):
        assert any(symbol in copy for _, copy in tally_pairs), symbol
    long_runs = [
        [
            length
            for reference, copies in clusters
            for copy in copies
            for _, length in deletion_runs(error_operations(reference, copy))
            if length >= 2
        ]
        for clusters, _ in tally_inputs
    ]
    assert any(len(runs) >= 150 and max(runs) >= 5 for runs in long_runs), (
        "no long-deletion-heavy input"
    )


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_channel_corpus_reaches_every_walk_branch(seed):
    """The ``channel`` entry's inputs reach every branch of the sweep's
    walk: a refill mid-strand in each zone, the scalar fallback for a
    substitution and an insertion draw at a buffer end, a long deletion
    or burst jumping from the interior past ``tail_start``, a strand
    with no interior and a model with no terminal zone."""
    assert walk_reach(seed) == {
        "interior refill mid-strand",
        "terminal refill mid-strand",
        "substitution draw at buffer end",
        "insertion draw at buffer end",
        "jump past tail_start",
        "no interior",
        "no terminal zone",
    }


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_channel_corpora_reach_hot_zones_and_long_deletion_draws(seed):
    """The ``channel`` and ``seeded_channel`` inputs each reach the
    walk's head zone (an event there and a buffer refill mid-zone) and
    both long-deletion paths: the length drawn inline from the buffer,
    and drawn at a buffer end through the serial loop's event code."""
    expected = {
        "event in head zone",
        "refill in head zone",
        "inline long-deletion draw",
        "long-deletion draw at buffer end",
    }
    assert hot_zone_reach(
        lambda: [fast_run(*args) for args in channel_inputs(seed)]
    ) == expected
    assert hot_zone_reach(
        lambda: [seeded_sweep(*args) for args in seeded_channel_corpus(seed)]
    ) == expected


def test_iterative_corpus_meets_its_ties(monkeypatch):
    """The extra ``iterative_many`` clusters reach the rules they are
    there for: a 2-vs-2 sub-majority insertion tie that closes a length
    deficit, and a round that deletes the whole estimate."""
    ties = []
    repair = IterativeReconstruction._repair_length

    def spy(self, refined, strand_length, insert_votes, applied, position_map):
        if len(refined) < strand_length:
            for position, counts in enumerate(insert_votes):
                top = counts.most_common(2)
                if position not in applied and len(top) == 2 and top[0][1] == top[1][1] == 2:
                    ties.append((position, top[0][0], top[1][0]))
        return repair(self, refined, strand_length, insert_votes, applied, position_map)

    monkeypatch.setattr(IterativeReconstruction, "_repair_length", spy)
    IterativeReconstruction(rounds=1).reconstruct(REPAIR_TIE_CLUSTER, 8)
    # The first-voted base wins the tie, not the smallest one.
    assert ties == [(0, "T", "G")]
    estimate = bma_forward_pass(EMPTIED_CLUSTER, 8)
    assert estimate and IterativeReconstruction()._refine(estimate, EMPTIED_CLUSTER, 8) == ""


def test_non_ascii_pair_above_matrix_threshold():
    """A non-ASCII pair with more than 1024 DP cells runs through the
    matrix, the traceback and gestalt instead of raising."""
    first = ("ACGTN" * 8 + "é") * 2
    second = first[:30] + "ü" + first[33:] + "ACGT"
    assert len(first) * len(second) > 1024
    matrix = edit_distance_matrix(first, second)
    assert matrix[-1][-1] == edit_distance(first, second)
    for rng in (None, random.Random(5)):
        operations = edit_operations(first, second, rng)
        assert apply_operations(first, operations) == second
    for block in matching_blocks(first, second):
        start = block.first_start
        other = block.second_start
        assert first[start : start + block.size] == second[other : other + block.size]


def test_run_dtype_boundaries():
    """A block's run table takes the smallest unsigned dtype that holds
    its ``min(height, width)``, switching at 255/256 and 65,535/65,536."""
    assert kernels.run_dtype(255) is np.uint8
    assert kernels.run_dtype(256) is np.uint16
    assert kernels.run_dtype(65_535) is np.uint16
    assert kernels.run_dtype(65_536) is np.uint32
    assert kernels.block_runs([("A" * 300, "A" * 255)]).dtype == np.uint8
    assert kernels.block_runs([("A" * 256, "C" * 10), ("G", "A" * 256)]).dtype == np.uint16


def test_lane_distance_groups_stay_within_the_cap(monkeypatch):
    """:func:`lane_distances` runs as few equal groups as keep each within
    its lane cap, splitting a pattern's texts where the cap falls."""
    groups = []
    group_distances = lockstep._group_distances

    def counted(patterns, texts_lists, band):
        groups.append(sum(map(len, texts_lists)))
        return group_distances(patterns, texts_lists, band)

    monkeypatch.setattr(lockstep, "_group_distances", counted)
    monkeypatch.setattr(lockstep, "_DISTANCE_LANES", 4)
    patterns = ["ACGT", "AC", "", "GGA"]
    texts_lists = [["ACG", "A", "CGT"], [], ["T", "", "AC", "G", "GA"], ["GGA"]]
    distances = lane_distances(patterns, texts_lists, 25).tolist()
    assert groups == [3, 3, 3]
    assert distances == [
        kernels._python_distance(pattern, text)
        for pattern, texts in zip(patterns, texts_lists)
        for text in texts
    ]
    groups.clear()
    assert lane_distances(patterns, [[]] * 4, 25).tolist() == []
    assert groups == []
