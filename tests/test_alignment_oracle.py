"""Differential oracles for the alignment fast paths.

Each :class:`Oracle` entry names a reference implementation, the fast
path that must reproduce it exactly, and a seeded input generator.  The
entries share one corpus that covers the inputs where a fast path is
most likely to diverge: 64-bit word-boundary lengths, the paper's
110-nt strands at its IDS rates, equal and empty strings, ``N``,
lowercase and non-ASCII alphabets, and tie-heavy homopolymer and
periodic pairs (many co-optimal alignments, so every tie-break is
exercised).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.align import gestalt
from repro.align.edit_distance import edit_distance, edit_distance_matrix
from repro.align.gestalt import matching_blocks
from repro.align.operations import (
    EditOp,
    OpKind,
    apply_operations,
    edit_operations,
)
from repro.core.channel import Channel
from repro.data.nanopore import ground_truth_model

#: Seeds the shared corpus is generated from.
CORPUS_SEEDS = (0, 1)

#: Seeds of the ``random.Random`` tie-breakers each traceback runs with.
TIE_BREAK_SEEDS = (0, 1, 2)


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
    # N, lowercase and non-ASCII alphabets, below and above the
    # 1024-cell matrix threshold.
    for alphabet in ("ACGTN", "acgt", "ACGTé", "αβγδ"):
        for length in (20, 90):
            strand = _strand(rng, length, alphabet)
            pairs.append((strand, _mutate(rng, strand, alphabet, 6)))
    pairs.append((("ACGTN" * 8 + "é") * 2, ("ACGTN" * 8 + "é") * 2 + "ACGT"))
    # Tie-heavy inputs: homopolymers and periodic repeats.
    for length in (5, 40, 110):
        pairs.append(("A" * length, "A" * (length + 3)))
        pairs.append(("A" * length, _mutate(rng, "A" * length, "AC", 4)))
        pairs.append(("ACGT" * (length // 4), "ACGT" * (length // 4 + 2)))
        pairs.append(("ACGT" * (length // 4), "CGTA" * (length // 4)))
        periodic = "ACGT" * (length // 4)
        pairs.append((periodic, _mutate(rng, periodic, "ACGT", 5)))
    return pairs


@dataclass(frozen=True)
class Oracle:
    """One fast path and the reference it must reproduce exactly."""

    name: str
    reference: Callable[[str, str], object]
    fast: Callable[[str, str], object]
    inputs: Callable[[int], list[tuple[str, str]]]


ORACLES = (
    Oracle(
        name="edit_operations",
        reference=_with_tie_breakers(matrix_backtrace),
        fast=_with_tie_breakers(edit_operations),
        inputs=shared_corpus,
    ),
    Oracle(
        name="matching_blocks",
        reference=lambda first, second: gestalt._decompose(first, second, "python"),
        fast=lambda first, second: gestalt._decompose(first, second, "numpy"),
        inputs=shared_corpus,
    ),
)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("oracle", ORACLES, ids=lambda oracle: oracle.name)
def test_fast_path_matches_reference(oracle: Oracle, seed: int):
    for first, second in oracle.inputs(seed):
        assert oracle.fast(first, second) == oracle.reference(first, second), (
            oracle.name,
            first,
            second,
        )


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
