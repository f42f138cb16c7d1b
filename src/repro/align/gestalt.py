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

Two entry points decompose pairs into blocks.  :func:`matching_blocks`
serves one pair at a time from one
:class:`~repro.align.kernels.RunTable`, behind a small memo.
:func:`matching_blocks_many` serves the error curves, which decompose
every (reference, copy) pair of a pool: it builds one run table per
block of pairs (:func:`~repro.align.kernels.block_runs`), answers every
pair's whole-table query with one block-wide ``argmax``, and runs the
same recursion on each pair's view for the smaller regions (DESIGN
§18).  Both give exactly the blocks of :func:`reference_blocks`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from repro.align import kernels
from repro.observability import _state as _obs_state
from repro.observability import span

#: Distinct string pairs whose scalar block decomposition is memoised.
#: Scalar callers ask for ``gestalt_score``, ``gestalt_error_positions``
#: and ``aligned_segments`` on the *same* (reference, copy) pair back to
#: back; a small LRU makes the decomposition run once per pair instead
#: of once per query.  The error curves go through
#: :func:`matching_blocks_many` and never reach it; at paper shape, when
#: they still did, it served 0 of 111,640 lookups.  It stays for the
#: scalar callers above, and because the end-to-end benchmark reads its
#: ``cache_info()``.
_BLOCK_CACHE_PAIRS = 128

#: Padded run-table cells per :func:`matching_blocks_many` block: about
#: 64 pairs of 110-nt strands, fewer when the strands are longer.
_BLOCK_CELLS = 64 * 110 * 114


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
    if first == second:
        return (MatchingBlock(0, 0, len(first)),)
    return _recurse(
        kernels.RunTable.for_pair(first, second).longest, len(first), len(second)
    )


def matching_blocks_many(
    pairs: Sequence[tuple[str, str]],
) -> list[tuple[MatchingBlock, ...]]:
    """Every pair's matching blocks, as :func:`_decompose` gives them,
    decomposed in blocks of pairs.

    A pair with an empty side has no blocks, and two equal strings are
    one block: only the main diagonal holds a run of their full length.
    The other pairs are split into blocks of at most :data:`_BLOCK_CELLS`
    run-table cells.  Each block gets one
    :func:`~repro.align.kernels.block_runs` array, one ``argmax`` per
    pair over it for the whole-table query, and then the recursion on
    the pair's view of it.
    """
    with span("align.gestalt_many", pairs=len(pairs)):
        results: list[tuple[MatchingBlock, ...]] = [()] * len(pairs)
        pending: list[int] = []
        for index, (first, second) in enumerate(pairs):
            if first and second:
                if first == second:
                    results[index] = (MatchingBlock(0, 0, len(first)),)
                else:
                    pending.append(index)
        if _obs_state.registry is not None:
            kernels._count_kernel_call("gestalt", len(pending))
        for block in _blocks(pairs, pending):
            runs = kernels.block_runs([pairs[index] for index in block])
            _, rows, columns = runs.shape
            caps = kernels.run_caps(rows - 1, columns - 1, runs.dtype)
            # ``runs`` is contiguous, so each pair's table flattens without
            # a copy; row 0 and column 0 are zero, so the first maximum of
            # the flat table is the first row-major maximum of the pair's.
            flat = runs.reshape(len(block), -1)
            ends = flat.argmax(axis=1)
            sizes = flat[np.arange(len(block)), ends]
            for lane, (index, end, size) in enumerate(
                zip(block, ends.tolist(), sizes.tolist())
            ):
                first, second = pairs[index]
                end_row, end_column = divmod(end, columns)
                table = kernels.RunTable(first, second, runs[lane, 1:, 1:], caps)
                results[index] = _recurse(
                    table.longest,
                    len(first),
                    len(second),
                    (end_row - size, end_column - size, size),
                )
        return results


def _blocks(
    pairs: Sequence[tuple[str, str]], indices: list[int]
) -> Iterator[list[int]]:
    """``indices`` in order, cut into blocks whose padded run tables
    hold at most :data:`_BLOCK_CELLS` cells (a pair larger than that is
    a block of its own)."""
    block: list[int] = []
    height = width = 0
    for index in indices:
        first, second = pairs[index]
        grown_height = max(height, len(first))
        grown_width = max(width, len(second))
        if block and (len(block) + 1) * (grown_height + 1) * (
            grown_width + 1
        ) > _BLOCK_CELLS:
            yield block
            block = []
            grown_height, grown_width = len(first), len(second)
        block.append(index)
        height, width = grown_height, grown_width
    if block:
        yield block


def reference_blocks(first: str, second: str) -> tuple[MatchingBlock, ...]:
    """The seed's decomposition: each region's LCS query answered by the
    reference DP (:func:`~repro.align.kernels.longest_common_substring`),
    kept as the reference :func:`_decompose` and
    :func:`matching_blocks_many` are checked against."""
    if not first or not second:
        return ()
    return _recurse(
        partial(kernels.longest_common_substring, first, second),
        len(first),
        len(second),
    )


def _recurse(
    longest,
    height: int,
    width: int,
    whole: tuple[int, int, int] | None = None,
) -> tuple[MatchingBlock, ...]:
    """The Ratcliff-Obershelp recursion over the ``height`` x ``width``
    table of ``longest(first_low, first_high, second_low, second_high) ->
    (first_start, second_start, size)``, which must break ties toward the
    earliest position in ``first`` then ``second``.  ``whole``, when
    given, is the answer to the first query, over the whole table.

    The recursion is implemented with an explicit stack so pathological
    inputs cannot overflow Python's recursion limit.
    """
    blocks: list[MatchingBlock] = []
    stack: list[tuple[int, int, int, int]] = [(0, height, 0, width)]
    while stack:
        first_low, first_high, second_low, second_high = stack.pop()
        if first_low >= first_high or second_low >= second_high:
            continue
        if whole is None:
            first_start, second_start, size = longest(
                first_low, first_high, second_low, second_high
            )
        else:
            (first_start, second_start, size), whole = whole, None
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
