"""Gestalt pattern matching (Ratcliff-Obershelp), built from scratch.

Gestalt matching (Section 3.1, metric 3) scores the similarity of two
strings by recursively locating their longest common substring (LCS) and
counting matched characters on either side:

    D_score = 2 * K_m / (|S1| + |S2|)

Crucially for the paper, the algorithm also yields the **matching blocks**
as a by-product: the aligned (matched) portions of a reference strand and
a noisy/reconstructed strand.  Positions of the reference *not* covered by
any matching block are the "gestalt-aligned errors" plotted throughout the
evaluation (Figs. 3.2b, 3.4b/d, ...) — they locate the *sources* of
misalignment rather than their downstream propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from repro.align import kernels

#: Distinct string pairs whose block decomposition is memoised.  The
#: error-curve experiments ask for ``gestalt_score``,
#: ``gestalt_error_positions`` and ``aligned_segments`` on the *same*
#: (reference, copy) pair back to back; a small LRU makes the expensive
#: decomposition run once per pair instead of once per query.
_BLOCK_CACHE_PAIRS = 128


@dataclass(frozen=True)
class MatchingBlock:
    """A maximal matched run: ``first[a:a+size] == second[b:b+size]``."""

    first_start: int
    second_start: int
    size: int


def matching_blocks(first: str, second: str) -> list[MatchingBlock]:
    """All matching blocks, ordered by position.

    Recursive Ratcliff-Obershelp: find the LCS, then recurse into the
    regions to its left and to its right.  Decompositions are memoised on
    the string pair (see :data:`_BLOCK_CACHE_PAIRS`); the returned list is
    a fresh copy, safe for callers to mutate.
    """
    return list(_matching_blocks_cached(first, second))


def clear_block_cache() -> None:
    """Drop the memoised block decompositions (used by benchmarks to time
    cold decompositions)."""
    _matching_blocks_cached.cache_clear()


@lru_cache(maxsize=_BLOCK_CACHE_PAIRS)
def _matching_blocks_cached(first: str, second: str) -> tuple[MatchingBlock, ...]:
    """The memoised decomposition."""
    return _decompose(first, second)


def _decompose(first: str, second: str) -> tuple[MatchingBlock, ...]:
    """One cold block decomposition: one
    :class:`~repro.align.kernels.RunTable` for the pair answers every
    region's LCS query."""
    if not first or not second:
        return ()
    return _recurse(first, second, kernels.RunTable(first, second).longest)


def reference_blocks(first: str, second: str) -> tuple[MatchingBlock, ...]:
    """The seed's decomposition: each region's LCS query answered by the
    reference DP (:func:`~repro.align.kernels.longest_common_substring`),
    kept as the reference :func:`_decompose` is checked against."""
    if not first or not second:
        return ()
    return _recurse(
        first, second, partial(kernels.longest_common_substring, first, second)
    )


def _recurse(first: str, second: str, longest) -> tuple[MatchingBlock, ...]:
    """The Ratcliff-Obershelp recursion over ``longest(first_low,
    first_high, second_low, second_high) -> (first_start, second_start,
    size)``, which must break ties toward the earliest position in
    ``first`` then ``second``.

    The recursion is implemented with an explicit stack so pathological
    inputs cannot overflow Python's recursion limit.
    """
    blocks: list[MatchingBlock] = []
    stack: list[tuple[int, int, int, int]] = [(0, len(first), 0, len(second))]
    while stack:
        first_low, first_high, second_low, second_high = stack.pop()
        if first_low >= first_high or second_low >= second_high:
            continue
        first_start, second_start, size = longest(
            first_low, first_high, second_low, second_high
        )
        if size == 0:
            continue
        blocks.append(MatchingBlock(first_start, second_start, size))
        stack.append((first_low, first_start, second_low, second_start))
        stack.append(
            (first_start + size, first_high, second_start + size, second_high)
        )
    blocks.sort(key=lambda item: (item.first_start, item.second_start))
    return tuple(blocks)


def gestalt_score(first: str, second: str) -> float:
    """The gestalt similarity ``2 * K_m / (|S1| + |S2|)`` in [0, 1].

    Two empty strings score 1.0 (identical).
    """
    total_length = len(first) + len(second)
    if total_length == 0:
        return 1.0
    matched = sum(block.size for block in matching_blocks(first, second))
    return 2.0 * matched / total_length


def gestalt_error_positions(reference: str, other: str) -> list[int]:
    """Reference positions *not* covered by any matching block.

    These are the sources of misalignment: for reference ``AGTC`` and copy
    ``ATC`` the only gestalt-aligned error is position 1 (the deleted
    ``G``), whereas the Hamming comparison flags positions 1-3
    (Section 3.2's worked example).
    """
    covered = [False] * len(reference)
    for block in matching_blocks(reference, other):
        for position in range(block.first_start, block.first_start + block.size):
            covered[position] = True
    return [position for position, is_covered in enumerate(covered) if not is_covered]


def aligned_segments(
    reference: str, other: str
) -> list[tuple[str, str, str]]:
    """Interleave matched and unmatched segments of the two strings.

    Returns triples ``(tag, reference_segment, other_segment)`` where tag
    is ``"match"`` or ``"diff"``.  Useful for visual diffing of a
    reconstruction against its reference (the WIKIMEDIA/WIKIMANIA example
    of Fig. 3.1 renders as match 'WIKIM', diff 'ED'/'AN', match 'IA').
    """
    segments: list[tuple[str, str, str]] = []
    reference_cursor = 0
    other_cursor = 0
    for block in matching_blocks(reference, other):
        if block.first_start > reference_cursor or block.second_start > other_cursor:
            segments.append(
                (
                    "diff",
                    reference[reference_cursor : block.first_start],
                    other[other_cursor : block.second_start],
                )
            )
        segments.append(
            (
                "match",
                reference[block.first_start : block.first_start + block.size],
                other[block.second_start : block.second_start + block.size],
            )
        )
        reference_cursor = block.first_start + block.size
        other_cursor = block.second_start + block.size
    if reference_cursor < len(reference) or other_cursor < len(other):
        segments.append(
            ("diff", reference[reference_cursor:], other[other_cursor:])
        )
    return segments
