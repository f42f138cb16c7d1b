"""Lockstep alignment: every lane's ``edit_operations(rng=None)`` at once.

A *lane* is one (pattern, text) pair: a reference or estimate against
one of its copies.  :func:`align_lanes` runs a multi-word Myers/Hyyrö
forward pass and a first-candidate traceback over every lane of a block
together, one NumPy step per DP column and per traceback move, and
returns each lane's operations as two maps (:class:`Lanes`).  Lockstep
Iterative (DESIGN §17) votes from the maps; the lockstep profile fit
(DESIGN §19) tallies them.  Both read exactly the operations the scalar
:func:`~repro.align.operations.edit_operations` returns with
``rng=None``: a lane's operations depend only on its own pattern and
text, so aligning lanes together changes none of them.
:func:`lane_distances` runs a distance-only pass, banded for a band of
at most 31, and reads each lane's banded distance: greedy clustering's
prefetch (DESIGN §9).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.align.kernels import _count_kernel_call, compact_code_points
from repro.observability import _state as _obs_state

#: Code points lie in ``[0, 0x110000)``, so ``index * SYMBOLS + code
#: point`` packs an (index, symbol) pair into one int64 key.
SYMBOLS = 0x110000

_ONE = np.uint64(1)

#: Matches a traceback step may cross at once.  Runs between errors
#: average ~16 bases at the paper's ~6% error rate.
_RUN_WINDOW = 16

#: The most D0/VP column bytes one group of lanes holds at a time.  At
#: paper shape (L = 110, two words) a 64-cluster block at coverage 10 is
#: 640 lanes and 2.4 MB of columns, so it runs as two groups.
_COLUMN_BYTES = 3 << 19

#: The most lanes one distance-only pass runs at once
#: (:func:`lane_distances`).  At paper shape a lane and its share of the
#: set-up take ~0.5 KB, banded pass or full, so a pass stays under 2 MB.
_DISTANCE_LANES = 4096

#: Columns between two reads of the banded pass's diagonal cells
#: (:func:`_banded_pass`).  Replaying greedy's ``cluster_readout`` calls
#: (seeds 2 and 11, and 22,000 reads), every 24 to 64 columns ran ~10%
#: faster than every 8, or than no read before the texts' ends: a read
#: and its compaction cost about what a few columns of the pass do, and
#: by column 32 most lanes that will leave have.
_CUTOFF_COLUMNS = 32

#: A dense Eq table may hold this many slots per pattern symbol
#: (:func:`_match_table`); a wider block alphabet keys its symbols.
_DENSE_SLOTS = 4


class Lanes(NamedTuple):
    """The operations of every lane of a block, in length-sorted lane
    order (longest text first).

    ``points`` holds the concatenated patterns' code points and a
    trailing ``-1`` sentinel; pattern ``p`` starts at ``start[p]``.
    ``text[column, lane]`` is the lane's text, zero past its end.
    ``pattern[lane]`` is the lane's pattern and ``order[lane]`` its text's
    index in the flattened ``texts_lists``.  ``column_at[column, lane]``
    holds the pattern row of a SUB, ``-1 - row`` for an insertion before
    ``row``, or ``equal`` (the least value of its dtype) for an EQUAL;
    ``deleted[row, lane]`` marks a deletion.
    """

    points: np.ndarray
    start: np.ndarray
    text: np.ndarray
    pattern: np.ndarray
    order: np.ndarray
    column_at: np.ndarray
    deleted: np.ndarray

    @property
    def equal(self) -> int:
        """The EQUAL mark of :attr:`column_at`."""
        return int(np.iinfo(self.column_at.dtype).min)


def align_lanes(
    patterns: list[str],
    texts_lists: Sequence[Sequence[str]],
    columns: np.ndarray,
) -> tuple[Lanes, np.ndarray]:
    """Align every text of ``texts_lists[p]`` against ``patterns[p]``
    (at least one text in all): one forward pass and one traceback over
    every (pattern, text) lane.

    Lanes are sorted longest text first, so the lanes still reading at
    column ``j`` are a prefix: a lane past its text's end is frozen by
    leaving it out.  Per-lane arrays are laid out ``(column, lane)``;
    each has a spare last row that finished lanes read and write.  The
    forward pass and the traceback run over contiguous groups of the
    sorted lanes, as few as keep each group's D0/VP columns within
    :data:`_COLUMN_BYTES`; lanes are independent, so the grouping
    changes no operation.  ``columns`` is the D0/VP buffer, grown when
    too small and returned for the next call.
    """
    block = _lay_out(patterns, texts_lists)
    points, start, text, lengths, pattern, order, rows = block
    peq, base, symbol = _match_table(points, start, pattern, text, block.words)
    # column_at holds -1 - row for every row and, below those, a mark
    # for EQUAL columns: one byte each for a pattern under 127.
    column_type = np.min_scalar_type(-2 - int(rows.max()))

    n_lanes = len(lengths)
    words, width = block.words, len(text) - 1
    column_bytes = 2 * words * (width + 1) * 8
    groups = -(-n_lanes * column_bytes // _COLUMN_BYTES)
    group_lanes = -(-n_lanes // groups)
    if columns.size * 8 < group_lanes * column_bytes:
        columns = np.empty(group_lanes * column_bytes // 8, dtype=np.uint64)
    column_at = np.full((width, n_lanes), np.iinfo(column_type).min, dtype=column_type)
    deleted = np.zeros((int(rows.max()), n_lanes), dtype=bool)
    for first in range(0, n_lanes, group_lanes):
        group = slice(first, first + group_lanes)
        group_width = int(lengths[first])
        group_text = np.ascontiguousarray(text[: group_width + 1, group])
        shape = (2, words, *group_text.shape)
        d0_columns, vp_columns = columns[: np.prod(shape)].reshape(shape)
        _forward_pass(
            peq,
            base[group],
            symbol[:group_width, group],
            lengths[group],
            rows[group],
            d0_columns,
            vp_columns,
        )
        group_columns, group_deleted = _traceback(
            points,
            start[pattern[group]],
            group_text,
            lengths[group],
            rows[group],
            d0_columns,
            vp_columns,
            column_type,
        )
        column_at[:group_width, group] = group_columns
        deleted[: len(group_deleted), group] = group_deleted
    return Lanes(points, start, text, pattern, order, column_at, deleted), columns


def lane_distances(
    patterns: list[str], texts_lists: Sequence[Sequence[str]], band: int
) -> np.ndarray:
    """``min(Levenshtein(patterns[p], text), band + 1)`` for every text of
    every ``texts_lists[p]``, in flattened order: a distance-only forward
    pass over every (pattern, text) lane.

    The lanes run in as few equal groups, in order, as keep each within
    :data:`_DISTANCE_LANES`; lanes are independent, so the grouping
    changes no distance.
    """
    total = sum(map(len, texts_lists))
    group_lanes = -(-total // max(1, -(-total // _DISTANCE_LANES)))
    groups = []
    group_patterns: list[str] = []
    group_texts: list[Sequence[str]] = []
    room = group_lanes
    for pattern, texts in zip(patterns, texts_lists):
        while texts:
            group_patterns.append(pattern)
            group_texts.append(texts[:room])
            texts = texts[room:]
            room -= len(group_texts[-1])
            if not room:
                groups.append(_group_distances(group_patterns, group_texts, band))
                group_patterns, group_texts, room = [], [], group_lanes
    if group_patterns:
        groups.append(_group_distances(group_patterns, group_texts, band))
    return np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)


def _group_distances(
    patterns: list[str], texts_lists: list[Sequence[str]], band: int
) -> np.ndarray:
    """:func:`lane_distances` over one group of lanes, in one pass.

    A band of at most 31 takes :func:`_banded_pass`, which reads each
    lane's distance off its diagonal and drops a lane once that passes
    ``band``.  A wider one takes the full forward pass: the DP's top row
    is ``D[0][n] = n``, so a lane's distance is its text's length plus
    its +1 vertical deltas minus its -1 ones in the final column,
    clamped.  Both give exactly what
    :meth:`~repro.align.kernels.CompiledPattern.banded_distances` returns
    (a length difference above ``band`` already puts the distance above
    it).  The pass holds, per lane, the ranks of its text's symbols (one
    byte each for an ASCII block) and its VP/VN words; no column is
    kept.  With metrics on, ``kernel.calls{kernel="lane_distances"}``
    counts the group's lanes and ``kernel.cutoff_lanes`` those the
    banded pass dropped before their texts' ends.
    """
    block = _lay_out(patterns, texts_lists)
    peq, base, symbol = _match_table(
        block.points, block.start, block.pattern, block.text, block.words
    )
    lengths, rows, order = block.lengths, block.rows, block.order
    del block  # the pass reads the ranks: the text codes go first
    if 2 * band + 1 <= 64:
        sorted_distances, cut = _banded_pass(
            peq, base, symbol[:-1], lengths, rows, band
        )
    else:
        positive, negative = _forward_pass(peq, base, symbol[:-1], lengths, rows)
        sorted_distances = np.minimum(
            lengths + _popcount(positive) - _popcount(negative), band + 1
        )
        cut = 0
    if _obs_state.registry is not None:
        _count_kernel_call("lane_distances", len(lengths))
        _obs_state.registry.counter(
            "kernel.cutoff_lanes", kernel="lane_distances"
        ).inc(cut)
    distances = np.empty_like(sorted_distances)
    distances[order] = sorted_distances
    return distances


def _banded_pass(
    peq: np.ndarray,
    base: np.ndarray,
    symbol: np.ndarray,
    lengths: np.ndarray,
    rows: np.ndarray,
    band: int,
) -> tuple[np.ndarray, int]:
    """``min(distance, band + 1)`` of every lane, for ``2 * band + 1 <=
    64``, and how many lanes the cut-off took out of the pass: Hyyrö's
    banded forward pass, one uint64 VP/VN word per lane.

    Bit ``b`` of a lane's words at text column ``j`` is pattern row
    ``j - band + b``: the word holds diagonals ``-band`` to ``63 - band``
    and slides down one row per column, so D0 shifts right by one where
    the full pass shifts HP/HN left.  The row entering at bit 63 reads a
    +1 vertical delta and the row above the top cell a +1 horizontal one,
    which bound the cells outside the word from above; rows above row 0
    (at most ``band``, none matching) extend the top row ``D[0][j] = j``
    upwards.  So every cell lies between the exact distance and the best
    path inside the word, and is exact wherever the distance is within
    ``band``.  The Eq word of column ``j`` is pattern bits from
    ``j - band - 1`` on: one funnel shift of :func:`_match_table`'s
    words, by the same offset for every lane.

    D0's bit 0 tells whether the top cell kept its diagonal's value, so
    that cell is ``band + j`` less the set bits seen.  The diagonal
    through ``(m, n)`` sits at bit ``m - n + band``, its cell the top
    cell plus the vertical deltas above it.  When lanes reach their
    texts' ends they read their distances off it.  Every
    :data:`_CUTOFF_COLUMNS` columns every lane reads it: the DP never
    decreases along a diagonal, so a lane whose cell passes ``band``
    already holds ``band + 1`` and leaves the pass.
    """
    width = len(symbol)
    distances = np.full(len(lengths), band + 1, dtype=np.int64)
    # The bit of each lane's diagonal through (m, n).  A lane whose
    # length difference passes ``band`` keeps ``band + 1`` and never
    # enters, so every text read ends by column ``m + band``, which the
    # funnel shift's table covers.
    diagonal = rows - lengths + band
    lane = np.flatnonzero((diagonal >= 0) & (diagonal <= 2 * band))
    k = len(lane)
    if not k:
        return distances, 0
    if k < len(lengths):
        lengths, diagonal, base = lengths[lane], diagonal[lane], base[lane]
        symbol = symbol[:, lane]
    above = (_ONE << diagonal.astype(np.uint64)) - _ONE
    # The diagonal cell is ``level + column`` plus the set bits of ``VP &
    # above`` and ``~VN & above``: ``level`` holds ``band`` less the set
    # bits of ``above`` and the D0 bits 0 folded so far.
    level = band - diagonal
    # Pattern bit s of every pattern sits at bit s + 64 here: the word
    # before the first and the one after the last match nothing.
    table = np.zeros((len(peq) + 2, peq.shape[1]), dtype=np.uint64)
    table[1:-1] = peq
    negative = np.full(k, (1 << band) - 1, dtype=np.uint64)
    positive = ~negative
    top_stayed = np.empty((_CUTOFF_COLUMNS, k), dtype=np.uint8)
    reading = np.searchsorted(-lengths, -np.arange(width + 1), side="left")
    first_column, folded, cut = 0, 0, 0
    for column in range(width + 1):
        # ``column`` columns are done; the first ``reading`` lanes read on.
        k_next = reading[column - first_column]
        if k_next < k:
            ending = slice(k_next, k)
            cell = _diagonal_cells(
                level[ending], positive[ending], negative[ending], above[ending]
            )
            cell += column
            cell -= top_stayed[: column - folded, ending].sum(axis=0, dtype=np.int64)
            distances[lane[ending]] = np.minimum(cell, band + 1)
            k = k_next
            if not k:
                break
            base, positive, negative = base[:k], positive[:k], negative[:k]
            symbol, top_stayed = symbol[:, :k], top_stayed[:, :k]
        if column - folded == _CUTOFF_COLUMNS:
            level[:k] -= top_stayed.sum(axis=0, dtype=np.int64)
            folded = column
            cell = _diagonal_cells(level[:k], positive, negative, above[:k])
            keep = np.flatnonzero(cell + column <= band)
            if len(keep) < k:
                cut += k - len(keep)
                if not len(keep):
                    break
                lane, lengths, above, level, base, positive, negative = (
                    array[keep]
                    for array in (lane, lengths, above, level, base, positive, negative)
                )
                symbol = symbol[column - first_column :, keep]
                top_stayed = top_stayed[:, : len(keep)]
                first_column = column
                reading = np.searchsorted(
                    -lengths, -np.arange(column, width + 1), side="left"
                )
                k = len(keep)
        offset = column - band + 64
        word, shift = offset >> 6, np.uint64(offset & 63)
        shifted = table[word]
        if shift:
            shifted = shifted >> shift
            shifted |= table[word + 1] << (np.uint64(64) - shift)
        eq = np.take(shifted, base + symbol[column - first_column])
        eq |= negative
        d0 = eq & positive
        d0 += positive
        d0 ^= positive
        d0 |= eq
        np.bitwise_and(d0, _ONE, out=top_stayed[column - folded], casting="unsafe")
        horizontal_negative = positive & d0
        horizontal_positive = d0 | positive
        np.invert(horizontal_positive, out=horizontal_positive)
        horizontal_positive |= negative
        # Shifted, D0 is each next-column cell's diagonal one row up.
        d0 = d0 >> _ONE
        negative = horizontal_positive & d0
        # VP's bit 63 was set and VN's clear, so HP's is clear and the new
        # VP's is set again: the row entering the word reads +1.
        positive = d0 | horizontal_positive
        np.invert(positive, out=positive)
        positive |= horizontal_negative
    return distances, cut


def _diagonal_cells(
    level: np.ndarray, positive: np.ndarray, negative: np.ndarray, above: np.ndarray
) -> np.ndarray:
    """:func:`_banded_pass`'s diagonal cells less their column: ``level``
    plus the set bits of ``VP & above`` and of ``~VN & above``."""
    return level + _popcount(np.stack((positive & above, ~negative & above)))


class _Block(NamedTuple):
    """A block's lanes, laid out for the forward pass: the patterns'
    code points (with a trailing ``-1`` sentinel) and starts, the texts
    as ``text[column, lane]`` (zero past a text's end, one spare row),
    and per sorted lane its text length, pattern, flattened text index
    and pattern length; ``words`` uint64 words hold the longest
    pattern, with or without lanes."""

    points: np.ndarray
    start: np.ndarray
    text: np.ndarray
    lengths: np.ndarray
    pattern: np.ndarray
    order: np.ndarray
    rows: np.ndarray

    @property
    def words(self) -> int:
        return max(1, -(-int(np.diff(self.start).max(initial=0)) // 64))


def _lay_out(patterns: list[str], texts_lists: Sequence[Sequence[str]]) -> _Block:
    """Sort every (pattern, text) lane longest text first and pack the
    strings as :class:`_Block` arrays."""
    n_patterns = len(patterns)
    pattern_lengths = np.fromiter(map(len, patterns), dtype=np.int64, count=n_patterns)
    start = np.zeros(n_patterns + 1, dtype=np.int64)
    np.cumsum(pattern_lengths, out=start[1:])
    # A trailing sentinel matches no symbol; gathers at row -1 land on it.
    points = np.full(start[-1] + 1, -1, dtype=np.int32)
    points[:-1] = compact_code_points("".join(patterns))

    text_counts = np.fromiter(map(len, texts_lists), dtype=np.int64, count=n_patterns)
    texts = [text for texts in texts_lists for text in texts]
    natural_lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    order = np.argsort(-natural_lengths, kind="stable")
    lengths = natural_lengths[order]
    pattern = np.repeat(np.arange(n_patterns), text_counts)[order]
    width = int(lengths[0]) if len(texts) else 0
    # Each text zero-padded to the spare column past the longest, then
    # laid out column by column.
    padded = "".join([texts[index].ljust(width + 1, "\0") for index in order])
    text = compact_code_points(padded).reshape(len(texts), width + 1)
    text = np.ascontiguousarray(text.T)
    return _Block(
        points, start, text, lengths, pattern, order, pattern_lengths[pattern]
    )


def _match_table(
    points: np.ndarray,
    start: np.ndarray,
    pattern: np.ndarray,
    text: np.ndarray,
    words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Eq words of every lane at every column, as one gather:
    ``peq[:, base[lane] + symbol[column, lane]]`` holds the positions of
    text symbol ``text[column, lane]`` in the lane's pattern, as
    ``words`` uint64 words (least significant first).  Slot 0 is the
    empty mask, for a symbol the lane's pattern lacks.

    An all-ASCII block gets a dense table: pattern ``p`` owns the slots
    ``p * (A + 1)`` to ``p * (A + 1) + A`` of the patterns' alphabet of
    ``A`` symbols, one per symbol in code-point order after the empty
    mask.  One ``bytes.translate`` ranks the text, and one ``packbits`` per
    symbol fills its slot of every pattern.  The table grows with the
    block's alphabet, never with the code-point range.  Any other block,
    and one whose alphabet is so wide that the dense table would pass
    :data:`_DENSE_SLOTS` times the patterns' length, keys each (pattern,
    symbol) pair the patterns hold instead (``base`` all zero), found for
    every text symbol with one search before the pass.
    """
    n_patterns = len(start) - 1
    dense = text.dtype == np.uint8 and int(points.max()) < 128
    if dense:
        alphabet = np.flatnonzero(np.bincount(points[:-1], minlength=128))
        stride = len(alphabet) + 1
        dense = n_patterns * stride <= _DENSE_SLOTS * len(points)
    if dense:
        rank_of = np.zeros(256, dtype=np.uint8)
        rank_of[alphabet] = np.arange(1, stride)
        # Row p holds pattern p's ranks, zero past its end.
        ranks = np.zeros((n_patterns, 64 * words), dtype=np.uint8)
        ranks[np.arange(64 * words) < np.diff(start)[:, None]] = rank_of[points[:-1]]
        peq = np.zeros((words, n_patterns, stride), dtype=np.uint64)
        for slot in range(1, stride):
            bits = np.packbits(ranks == slot, axis=1, bitorder="little")
            peq[:, :, slot] = bits.view("<u8").T
        symbol = np.frombuffer(
            text.tobytes().translate(rank_of.tobytes()), dtype=np.uint8
        ).reshape(text.shape)
        return peq.reshape(words, -1), pattern * stride, symbol
    owner = np.repeat(np.arange(n_patterns), np.diff(start))
    positions = np.arange(len(points) - 1) - start[owner]
    symbols, key = np.unique(owner * SYMBOLS + points[:-1], return_inverse=True)
    n_slots = len(symbols) + 1
    # The positions of one pattern are distinct bits, so adding them up
    # ORs them (and ``add.at`` is the faster of the two).
    peq = np.zeros((words, n_slots), dtype=np.uint64)
    np.add.at(
        peq, (positions >> 6, key + 1), _ONE << (positions & 63).astype(np.uint64)
    )
    symbol = _slot_of(symbols, pattern * SYMBOLS + text, np.min_scalar_type(n_slots))
    return peq, np.zeros_like(pattern), symbol


def _slot_of(keys: np.ndarray, values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """1 + the place of each of ``values`` in the sorted ``keys``, or 0
    for a value ``keys`` lacks."""
    found = np.searchsorted(keys, values)
    hit = np.append(keys, -1)[found] == values
    return np.where(hit, found + 1, 0).astype(dtype)


def _forward_pass(
    peq: np.ndarray,
    base: np.ndarray,
    symbol: np.ndarray,
    lengths: np.ndarray,
    rows: np.ndarray,
    d0_columns: np.ndarray | None = None,
    vp_columns: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The Myers/Hyyrö forward pass of every lane over its text: each
    lane's pattern against its text, as
    :func:`repro.align.operations._delta_columns` computes it.  Returns
    every lane's final VP and VN (``(words, lanes)`` uint64).  Given
    ``d0_columns`` and ``vp_columns`` (``(words, width + 1, lanes)``
    uint64), it also fills them with the D0 and VP words of every DP
    column.

    A lane's pattern spans ``words = ceil(max pattern length / 64)``
    uint64 words, least significant first; the add carries and the HP/HN
    shifts cross word boundaries, and every word is masked by the lane's
    own pattern length.  The Eq words of column ``j`` are one gather
    from :func:`_match_table`'s ``peq`` at ``base + symbol[j]``.
    """
    words, width = len(peq), len(symbol)
    keep = d0_columns is not None

    spare = np.clip(rows - 64 * np.arange(words)[:, None], 0, 64)
    full = np.where(
        spare == 64,
        ~np.uint64(0),
        (_ONE << np.minimum(spare, 63).astype(np.uint64)) - _ONE,
    )
    final_positive = full.copy()
    final_negative = np.zeros_like(full)
    positive, negative = final_positive, final_negative
    # Lanes are sorted longest first: column j is read by a prefix.
    reading = np.searchsorted(-lengths, -np.arange(width), side="left")
    for column in range(width):
        k = reading[column]
        if k < positive.shape[1]:
            # Lanes past their text's end leave with their last column.
            final_positive[:, k : positive.shape[1]] = positive[:, k:]
            final_negative[:, k : negative.shape[1]] = negative[:, k:]
            positive, negative = positive[:, :k], negative[:, :k]
        mask = full[:, :k]
        eq = np.take(peq, base[:k] + symbol[column, :k], axis=1)
        # ``Eq | VN`` ANDed with VP is ``Eq & VP``: VP and VN never share
        # a bit.
        eq |= negative
        d0 = eq & positive
        d0 += positive
        if words > 1:
            # The top word's carry-out, like the big-int's, is never read.
            carry = d0[:-1] < positive[:-1]
            for word in range(1, words):
                incoming = carry[word - 1]
                d0[word] += incoming
                if word < words - 1:
                    carry[word] |= incoming & (d0[word] == 0)
        d0 ^= positive
        d0 |= eq
        # The add may carry past the pattern's top row; masked, D0 and VP
        # lie within ``mask``, so ``mask ^ x`` is ``mask & ~x`` below.
        d0 &= mask
        horizontal_positive = d0 | positive
        horizontal_positive ^= mask
        horizontal_positive |= negative
        horizontal_negative = positive & d0
        horizontal_positive = _shift_up(horizontal_positive)
        horizontal_positive[0] |= _ONE
        horizontal_positive &= mask
        horizontal_negative = _shift_up(horizontal_negative)
        horizontal_negative &= mask
        negative = horizontal_positive & d0
        positive = d0 | horizontal_positive
        positive ^= mask
        positive |= horizontal_negative
        if keep:
            d0_columns[:, column, :k] = d0
            vp_columns[:, column, :k] = positive
    final_positive[:, : positive.shape[1]] = positive
    final_negative[:, : negative.shape[1]] = negative
    return final_positive, final_negative


#: The SWAR popcount's masks: alternate bits, bit pairs, nibbles, and
#: the multiplier that sums a word's bytes into its top byte.
_PAIRS, _QUADS, _NIBBLES, _BYTE_SUM = (
    np.uint64(mask)
    for mask in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x0101010101010101,
    )
)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per lane of ``(words, lanes)`` uint64 words: per word,
    the two-, four- and eight-bit partial sums, then one multiply that
    adds the bytes up (NumPy 1.24 has no ``bitwise_count``)."""
    counts = words >> _ONE
    counts &= _PAIRS
    np.subtract(words, counts, out=counts)
    quads = counts >> np.uint64(2)
    quads &= _QUADS
    counts &= _QUADS
    counts += quads
    np.right_shift(counts, np.uint64(4), out=quads)
    counts += quads
    counts &= _NIBBLES
    counts *= _BYTE_SUM
    counts >>= np.uint64(56)
    return counts.sum(axis=0, dtype=np.int64)


def _shift_up(words: np.ndarray) -> np.ndarray:
    """``words << 1`` across uint64 words (row 0 least significant)."""
    shifted = words << _ONE
    shifted[1:] |= words[:-1] >> np.uint64(63)
    return shifted


def _traceback(
    points: np.ndarray,
    pattern_base: np.ndarray,
    text: np.ndarray,
    lengths: np.ndarray,
    rows: np.ndarray,
    d0_columns: np.ndarray,
    vp_columns: np.ndarray,
    column_type: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Every lane's :func:`~repro.align.operations.edit_operations`
    backtrace (``rng=None``), all lanes in lockstep.

    First candidate wins, as in the scalar: a diagonal if the symbols
    match or D0 is clear (EQUAL/SUB), else a deletion if VP is set, else
    an insertion.  A lane on the border takes the forced move (deletion
    at column 0, insertion at row 0) until it reaches the origin.  Each
    NumPy step first crosses a lane's run of up to :data:`_RUN_WINDOW`
    matching cells (all EQUAL), then takes one move.

    Every text column and every pattern row of a lane is consumed
    exactly once, so the maps need no accumulation here.  ``column_at``
    holds, per text column, the pattern row of a SUB, ``-1 - row`` for
    an insertion before ``row``, or the least ``column_type`` value for
    an EQUAL.  ``deleted`` marks, per pattern row, a deletion.  Neither
    grows with the alphabet.
    """
    plane = text.size
    n_lanes = text.shape[1]
    spare_row = int(rows.max())
    column_at = np.full(text.shape, np.iinfo(column_type).min, dtype=column_type)
    deleted = np.zeros((spare_row + 1, n_lanes), dtype=bool)
    lane = np.arange(n_lanes)
    text_flat = text.reshape(-1)
    column_flat = column_at.reshape(-1)
    deleted_flat = deleted.reshape(-1)
    d0_flat = d0_columns.reshape(-1)
    vp_flat = vp_columns.reshape(-1)
    row = rows.copy()
    column = lengths.copy()
    # Flat (column - 1, lane) index: a lane at column 0 wraps to the
    # spare last row.
    left = (column - 1) * n_lanes + lane
    spare_column = plane - n_lanes + lane
    spare_deletion = spare_row * n_lanes + lane
    back = np.arange(_RUN_WINDOW)[:, None]
    while True:
        # A matching cell's first candidate is EQUAL, which records
        # nothing: cross up to _RUN_WINDOW matches along each diagonal.
        same = points[np.maximum(pattern_base + row - 1 - back, -1)] == text_flat[
            np.maximum(left - back * n_lanes, 0)
        ]
        same &= back < np.minimum(row, column)
        run = same.cumprod(axis=0).sum(axis=0)
        row -= run
        column -= run
        left -= run * n_lanes
        has_row = row > 0
        has_column = column > 0
        if not (has_row | has_column).any():
            break
        above = row - has_row
        match = points[pattern_base + above] == text_flat[left]
        cell = left + (above >> 6) * plane
        bit = (above & 63).astype(np.uint64)
        diagonal = has_row & has_column & (
            match | ((d0_flat[cell] >> bit) & _ONE == 0)
        )
        deletion = has_row & ~diagonal & (
            ~has_column | ((vp_flat[cell] >> bit) & _ONE != 0)
        )
        consumed = has_column & ~deletion
        recorded = consumed & ~(diagonal & match)
        column_flat[np.where(recorded, left, spare_column)] = np.where(
            diagonal, above, -1 - row
        )
        deleted_flat[np.where(deletion, above * n_lanes + lane, spare_deletion)] = True
        row -= diagonal | deletion
        column -= consumed
        left -= consumed * n_lanes
    return column_at[:-1], deleted[:-1]
