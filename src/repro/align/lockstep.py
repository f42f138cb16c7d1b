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
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.align.kernels import compact_code_points

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
    width = int(lengths[0])
    text_points = compact_code_points("".join([texts[index] for index in order]))
    text = np.zeros((width + 1, len(texts)), dtype=text_points.dtype)
    text.T[np.arange(width + 1) < lengths[:, None]] = text_points
    rows = pattern_lengths[pattern]
    # column_at holds -1 - row for every row and, below those, a mark
    # for EQUAL columns: one byte each for a pattern under 127.
    column_type = np.min_scalar_type(-2 - int(rows.max()))

    n_lanes = len(texts)
    words = max(1, -(-int(rows.max()) // 64))
    column_bytes = 2 * words * (width + 1) * 8
    groups = -(-n_lanes * column_bytes // _COLUMN_BYTES)
    group_lanes = -(-n_lanes // groups)
    if columns.size * 8 < group_lanes * column_bytes:
        columns = np.empty(group_lanes * column_bytes // 8, dtype=np.uint64)
    symbols, peq = _pattern_masks(points, start, words)
    column_at = np.full((width, n_lanes), np.iinfo(column_type).min, dtype=column_type)
    deleted = np.zeros((int(rows.max()), n_lanes), dtype=bool)
    for first in range(0, n_lanes, group_lanes):
        group = slice(first, first + group_lanes)
        group_width = int(lengths[first])
        group_text = np.ascontiguousarray(text[: group_width + 1, group])
        shape = (2, words, *group_text.shape)
        d0_columns, vp_columns = columns[: np.prod(shape)].reshape(shape)
        _forward_pass(
            symbols,
            peq,
            group_text,
            lengths[group],
            pattern[group],
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


def _pattern_masks(
    points: np.ndarray, start: np.ndarray, words: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (pattern, symbol) keys of the patterns, ending in a
    sentinel past every key, and ``peq[:, 1 + index]``: the positions of
    key ``index``'s symbol in its pattern, as ``words`` uint64 words.
    ``peq[:, 0]`` is the empty mask of a symbol the pattern lacks.  The
    table grows with the patterns, not with the block's alphabet."""
    owner = np.repeat(np.arange(len(start) - 1), np.diff(start))
    keys = owner * SYMBOLS + points[:-1]
    symbols, key_index = np.unique(keys, return_inverse=True)
    positions = np.arange(len(keys)) - start[owner]
    peq = np.zeros((words, len(symbols) + 2), dtype=np.uint64)
    np.bitwise_or.at(
        peq,
        (positions >> 6, key_index + 1),
        _ONE << (positions & 63).astype(np.uint64),
    )
    return np.append(symbols, np.iinfo(np.int64).max), peq


def _forward_pass(
    symbols: np.ndarray,
    peq: np.ndarray,
    text: np.ndarray,
    lengths: np.ndarray,
    pattern: np.ndarray,
    rows: np.ndarray,
    d0_columns: np.ndarray,
    vp_columns: np.ndarray,
) -> None:
    """Fill ``d0_columns`` and ``vp_columns`` (``(words, width + 1,
    lanes)`` uint64) with the D0 and VP words of every DP column of every
    lane, as :func:`repro.align.operations._delta_columns` computes them:
    the lane's pattern against its text.

    A lane's pattern spans ``words = ceil(max pattern length / 64)``
    uint64 words, least significant first; the add carries and the HP/HN
    shifts cross word boundaries, and every word is masked by the lane's
    own pattern length.  ``symbols`` and ``peq`` come from
    :func:`_pattern_masks`.
    """
    words, width = d0_columns.shape[0], len(text) - 1
    lane_key = pattern * SYMBOLS

    spare = np.clip(rows - 64 * np.arange(words)[:, None], 0, 64)
    full = np.where(
        spare == 64,
        ~np.uint64(0),
        (_ONE << np.minimum(spare, 63).astype(np.uint64)) - _ONE,
    )
    vertical_positive = full.copy()
    vertical_negative = np.zeros_like(full)
    # Lanes are sorted longest first: column j is read by a prefix.
    reading = np.searchsorted(-lengths, -np.arange(width), side="left")
    for column in range(width):
        k = reading[column]
        mask = full[:, :k]
        positive = vertical_positive[:, :k]
        negative = vertical_negative[:, :k]
        key = lane_key[:k] + text[column, :k]
        found = np.searchsorted(symbols, key)
        # A symbol its pattern lacks takes column 0, the empty mask.
        eq = peq[:, (found + 1) * (symbols[found] == key)]
        total = (eq & positive) + positive
        if words > 1:
            # The top word's carry-out, like the big-int's, is never read.
            carry = total[:-1] < positive[:-1]
            for word in range(1, words):
                incoming = carry[word - 1]
                total[word] += incoming
                if word < words - 1:
                    carry[word] |= incoming & (total[word] == 0)
        d0 = (total ^ positive) | eq | negative
        horizontal_positive = _shift_up(negative | (mask & ~(d0 | positive)))
        horizontal_positive[0] |= _ONE
        horizontal_positive &= mask
        horizontal_negative = _shift_up(positive & d0) & mask
        positive = horizontal_negative | (mask & ~(d0 | horizontal_positive))
        vertical_negative[:, :k] = horizontal_positive & d0
        vertical_positive[:, :k] = positive
        d0_columns[:, column, :k] = d0
        vp_columns[:, column, :k] = positive


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
