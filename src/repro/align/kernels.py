"""Bit-parallel and vectorised alignment kernels.

Every layer of the harness above the channel ultimately bottoms out in a
handful of single-pair string kernels: Levenshtein distance (clustering,
reconstruction-quality scoring), its banded variant (one string against
many: consensus scoring, and the pairs greedy clustering's lockstep
prefetch, :func:`repro.align.lockstep.lane_distances`, did not fetch),
and the longest-common-substring recursion behind gestalt matching (the
Fig. 3.2b/3.4 error-position analyses).  This module makes those kernels
fast while keeping the original pure-Python dynamic programs as plain
reference functions for the differential oracles.

There is one code-chosen path per input shape:

* pairwise distances (plain and banded) run Myers' 1999 bit-vector
  algorithm (in Hyyrö's Levenshtein formulation): one column of the DP
  matrix is packed into the bits of a single integer and advanced with
  O(1) word operations per text character, O(ceil(m/64) * n) word-time
  overall.  Python integers are arbitrary-width, so a length-m pattern
  is simply an m-bit int — the 64-bit word blocking happens inside
  CPython's limb arithmetic and patterns longer than 64 characters need
  no extra code.
* one-vs-many batches (:class:`CompiledPattern`) sweep the shared
  string once against all the others, packed as lanes of one integer
  (:func:`_packed_distances`): each lane is one string's pattern bits
  plus a zero guard bit that stops carries and shifts at the lane's
  edge, and each lane's distance is read off the final column by
  popcount.
* the gestalt recursion's longest-common-substring queries are answered
  from a :class:`RunTable`: one per pair for a single pair, and views
  of one :func:`block_runs` array for a block of pairs.
* the Hamming curve's positional errors come from one padded
  code-point compare per block of pairs (:func:`block_mismatches`).

The reference DPs (:func:`_python_distance`, :func:`_python_banded`,
:func:`longest_common_substring`) are the seed implementations, verbatim;
``tests/test_alignment_oracle.py`` checks every fast path against them.
Every path is **bit-identical** to its reference — distances, banded
lower bounds, and matching blocks — so the choice of path can never
change clustering assignments, fitted profiles, or reported curves, and
the deterministic parallel-stage guarantees of :mod:`repro.parallel` are
preserved.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.observability import _state as _obs_state


def align_backend() -> str:
    """Always ``"auto"``: the kernels pick their path from the input
    shape, and there is no other selection.  Kept so run records that
    note the backend stay comparable across versions."""
    return "auto"


# ------------------------------------------------------------------ #
# Reference DPs — the seed's rolling-row programs, verbatim
# ------------------------------------------------------------------ #


def _python_distance(first: str, second: str) -> int:
    """The seed's two-row Levenshtein DP (ground truth)."""
    if len(second) < len(first):
        first, second = second, first
    previous = list(range(len(first) + 1))
    for row_index, second_char in enumerate(second, start=1):
        current = [row_index] + [0] * len(first)
        for column_index, first_char in enumerate(first, start=1):
            substitution_cost = 0 if first_char == second_char else 1
            current[column_index] = min(
                previous[column_index] + 1,
                current[column_index - 1] + 1,
                previous[column_index - 1] + substitution_cost,
            )
        previous = current
    return previous[len(first)]


def _python_banded(first: str, second: str, band: int) -> int:
    """The seed's row-by-row banded DP (ground truth for the banded
    kernel; assumes ``abs(len difference) <= band``)."""
    infinity = band + 1
    columns = len(first) + 1
    previous = [infinity] * columns
    for column in range(min(band, len(first)) + 1):
        previous[column] = column
    for row_index in range(1, len(second) + 1):
        current = [infinity] * columns
        low = max(0, row_index - band)
        high = min(len(first), row_index + band)
        if low == 0:
            current[0] = row_index if row_index <= band else infinity
        for column in range(max(1, low), high + 1):
            substitution_cost = 0 if first[column - 1] == second[row_index - 1] else 1
            best = previous[column - 1] + substitution_cost
            if previous[column] + 1 < best:
                best = previous[column] + 1
            if current[column - 1] + 1 < best:
                best = current[column - 1] + 1
            current[column] = min(best, infinity)
        previous = current
    return min(previous[len(first)], infinity)


def _python_lcs(
    first: str,
    second: str,
    first_low: int,
    first_high: int,
    second_low: int,
    second_high: int,
) -> tuple[int, int, int]:
    """The seed's rolling-row suffix-match DP; ties break toward the
    earliest position in ``first`` then ``second``."""
    best_first, best_second, best_size = first_low, second_low, 0
    width = second_high - second_low
    previous = [0] * (width + 1)
    for first_index in range(first_low, first_high):
        current = [0] * (width + 1)
        first_char = first[first_index]
        for offset in range(width):
            if first_char == second[second_low + offset]:
                length = previous[offset] + 1
                current[offset + 1] = length
                if length > best_size:
                    best_size = length
                    best_first = first_index - length + 1
                    best_second = second_low + offset - length + 1
        previous = current
    return best_first, best_second, best_size


# ------------------------------------------------------------------ #
# Bit-parallel (Myers) pairwise kernel
# ------------------------------------------------------------------ #


def pattern_masks(pattern: str) -> dict[str, int]:
    """Per-character match bitmasks for a pattern: bit ``i`` of
    ``masks[c]`` is set iff ``pattern[i] == c``.

    Computing these is O(m); reusing them across many texts is what makes
    the one-vs-many kernel cheaper than independent pairwise calls.
    """
    masks: dict[str, int] = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    return masks


def _myers_distance(
    masks: dict[str, int],
    pattern_length: int,
    text: str,
    band: int | None = None,
) -> int:
    """Myers/Hyyrö bit-vector Levenshtein distance of a pre-masked pattern
    against ``text``.

    Maintains the DP column as two m-bit integers of vertical +1/-1
    deltas; ``score`` tracks the bottom cell, i.e. the distance of the
    full pattern against the text prefix consumed so far.

    With ``band`` set, returns ``band + 1`` as soon as the distance is
    provably above ``band`` (Ukkonen-style early exit): each remaining
    text character can lower the bottom-row score by at most 1, so
    ``score - remaining`` is a valid lower bound on the final distance.
    """
    if pattern_length == 0:
        length = len(text)
        if band is not None and length > band:
            return band + 1
        return length
    if not text:
        # Callers guarantee pattern_length <= band + len(text) when a band
        # is given, so no clamp is needed here; keep it for direct use.
        if band is not None and pattern_length > band:
            return band + 1
        return pattern_length
    full = (1 << pattern_length) - 1
    high_bit = 1 << (pattern_length - 1)
    vertical_positive = full
    vertical_negative = 0
    score = pattern_length
    get_mask = masks.get
    remaining = len(text)
    for char in text:
        remaining -= 1
        eq = get_mask(char, 0)
        diagonal_zero = (
            ((eq & vertical_positive) + vertical_positive) ^ vertical_positive
        ) | eq | vertical_negative
        horizontal_positive = vertical_negative | (
            full & ~(diagonal_zero | vertical_positive)
        )
        horizontal_negative = vertical_positive & diagonal_zero
        if horizontal_positive & high_bit:
            score += 1
        elif horizontal_negative & high_bit:
            score -= 1
        horizontal_positive = ((horizontal_positive << 1) | 1) & full
        horizontal_negative = (horizontal_negative << 1) & full
        vertical_positive = horizontal_negative | (
            full & ~(diagonal_zero | horizontal_positive)
        )
        vertical_negative = horizontal_positive & diagonal_zero
        if band is not None and score - remaining > band:
            return band + 1
    if band is not None and score > band:
        return band + 1
    return score


def _packed_distances(
    text: str, lanes: Sequence[CompiledPattern], band: int | None = None
) -> list[int]:
    """Myers/Hyyrö distance of ``text`` to every lane's string in one
    sweep over ``text`` (banded to ``min(distance, band + 1)`` when
    ``band`` is given).

    Lane ``k`` occupies ``len(lanes[k].text)`` bits of one integer,
    followed by one zero guard bit; ``Peq`` ORs every lane's masks in at
    its offset.  The recurrence is the pairwise one with two lane-wise
    changes: ``HP`` shifts in ``low`` (bit 0 of every lane) instead of
    ``1``, and ``& full`` (every lane's bits, no guard) clears whatever
    the addition's carry or a shift pushed into a guard, so no lane ever
    reads a neighbour's bits.  ``full ^ x`` stands for ``~x`` within the
    lanes; it keeps every word non-negative, which CPython's big-int
    logic handles faster than a complement.  Nothing is scored per step:
    the DP's top row is ``D[0][n] = n``, so lane ``k``'s distance is
    ``n`` plus its +1 vertical deltas minus its -1 ones in the final
    column.
    """
    peq: dict[str, int] = {}
    get_mask = peq.get
    low = full = offset = 0
    offsets = []
    for lane in lanes:
        width = len(lane.text)
        if width:
            for char, mask in lane._pattern().items():
                peq[char] = get_mask(char, 0) | (mask << offset)
            low |= 1 << offset
            full |= ((1 << width) - 1) << offset
        offsets.append(offset)
        offset += width + 1
    vertical_positive = full
    vertical_negative = 0
    for char in text:
        # ``Eq | VN``: ANDed with VP it is ``Eq & VP``, as VP and VN
        # never share a bit.  A carry out of a lane's top bit stops in
        # its guard bit; the guard bits this sets are masked off below.
        eq_or_negative = get_mask(char, 0) | vertical_negative
        diagonal_zero = (
            ((eq_or_negative & vertical_positive) + vertical_positive)
            ^ vertical_positive
        ) | eq_or_negative
        horizontal_negative = vertical_positive & diagonal_zero
        # A guard bit shifts into the next lane's bit 0, which ``low``
        # overwrites; a lane's top bit shifts into its guard, which
        # ``full`` clears.
        horizontal_positive = (
            (
                (vertical_negative | (full ^ (diagonal_zero | vertical_positive)))
                << 1
            )
            | low
        ) & full
        vertical_negative = horizontal_positive & diagonal_zero
        vertical_positive = (
            (horizontal_negative << 1) | (full ^ (diagonal_zero | horizontal_positive))
        ) & full
    length = len(text)
    distances = []
    for lane, offset in zip(lanes, offsets):
        bits = (1 << len(lane.text)) - 1
        distances.append(
            length
            + ((vertical_positive >> offset) & bits).bit_count()
            - ((vertical_negative >> offset) & bits).bit_count()
        )
    if band is None:
        return distances
    return [min(distance, band + 1) for distance in distances]


def _bitparallel_distance(first: str, second: str) -> int:
    # The shorter string is the pattern: fewer bits per word operation.
    if len(second) < len(first):
        first, second = second, first
    return _myers_distance(pattern_masks(first), len(first), second)


def _bitparallel_banded(first: str, second: str, band: int) -> int:
    if len(second) < len(first):
        first, second = second, first
    return _myers_distance(pattern_masks(first), len(first), second, band)


# ------------------------------------------------------------------ #
# Diagonal run table (gestalt LCS queries)
# ------------------------------------------------------------------ #


def code_points(text: str) -> np.ndarray:
    """The string as a uint32 array of its code points, for every NumPy
    path that works on characters.  Any ``str`` is accepted, lone
    surrogates included (``surrogatepass``): each character maps to its
    ``ord``, exactly as the pure-Python references see it."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def compact_code_points(text: str) -> np.ndarray:
    """:func:`code_points`, one byte each (uint8) when ``text`` is ASCII."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return code_points(text)


@lru_cache(maxsize=64)
def _string_codes(text: str) -> np.ndarray:
    """:func:`code_points`, cached for the strings a run table or DP
    matrix meets repeatedly."""
    return code_points(text)


class RunTable:
    """Diagonal common-run lengths of one string pair, queried for the
    longest common substring of any sub-rectangle.

    ``table[i, j]`` is the length of the common run that ends at
    ``first[i]``, ``second[j]``, and ``caps`` is :func:`run_caps` of at
    least the table's shape, in the table's dtype.  :meth:`for_pair`
    builds one pair's table; a block of pairs shares one
    :func:`block_runs` array and one ``caps``, each pair a view of it.
    The strings themselves answer one-row and one-column regions.
    """

    __slots__ = ("first", "second", "table", "caps")

    def __init__(
        self, first: str, second: str, table: np.ndarray, caps: np.ndarray
    ) -> None:
        self.first = first
        self.second = second
        self.table = table
        self.caps = caps

    @classmethod
    def for_pair(cls, first: str, second: str) -> RunTable:
        """One pair's table, built without a Python loop: the match
        matrix is skewed so each diagonal becomes a column, a running max
        of the last-mismatch row along it gives every run length, and the
        inverse skew maps them back."""
        height, width = len(first), len(second)
        # Diagonal j - i of the match matrix becomes column
        # j - i + height - 1 of a (height, diagonals + 1) grid: written
        # with row stride ``diagonals`` and read back with row stride
        # ``diagonals + 1``, row i shifts left by i.  Every grid cell off
        # the match matrix is False.
        diagonals = height + width - 1
        rows = np.arange(height, dtype=np.int32)[:, None]
        grid = np.zeros(height * (diagonals + 1), dtype=bool)
        grid[: height * diagonals].reshape(height, diagonals)[:, height - 1 :] = (
            _string_codes(first)[:, None] == _string_codes(second)[None, :]
        )
        # A cell holds its own row on a mismatch and -1 on a match, so a
        # running max down each column is the row of the diagonal's last
        # mismatch (-1 if none), and the row minus it is the run length.
        last_mismatch = rows - (rows + 1) * grid.reshape(height, diagonals + 1)
        np.maximum.accumulate(last_mismatch, axis=0, out=last_mismatch)
        runs = rows - last_mismatch
        # The inverse shift: read back with row stride ``diagonals``.
        table = runs.ravel()[: height * diagonals].reshape(height, diagonals)[
            :, height - 1 :
        ]
        return cls(first, second, table, run_caps(height, width, table.dtype))

    def longest(
        self, first_low: int, first_high: int, second_low: int, second_high: int
    ) -> tuple[int, int, int]:
        """Longest common substring of ``first[first_low:first_high]`` and
        ``second[second_low:second_high]``, as
        :func:`longest_common_substring` returns it.

        A run inside the region can reach back at most to its top or left
        edge, so clipping each run length by ``caps`` (its distance from
        those edges) gives the region's own run lengths.  The first
        row-major maximum is the earliest run end in ``first``, then in
        ``second`` — the reference kernel's tie-break.
        """
        height = first_high - first_low
        width = second_high - second_low
        # A one-row or one-column region holds runs of length 1 at most:
        # its first match is a plain search.
        if height == 1:
            column = self.second.find(
                self.first[first_low], second_low, second_high
            )
            if column < 0:
                return first_low, second_low, 0
            return first_low, column, 1
        if width == 1:
            row = self.first.find(self.second[second_low], first_low, first_high)
            if row < 0:
                return first_low, second_low, 0
            return row, second_low, 1
        clipped = np.minimum(
            self.table[first_low:first_high, second_low:second_high],
            self.caps[:height, :width],
        )
        end = int(clipped.argmax())
        size = int(clipped.flat[end])
        if size == 0:
            return first_low, second_low, 0
        end_row, end_column = divmod(end, width)
        return (
            first_low + end_row - size + 1,
            second_low + end_column - size + 1,
            size,
        )


@lru_cache(maxsize=16)
def run_caps(height: int, width: int, dtype: np.dtype) -> np.ndarray:
    """``caps[i, j] = min(i + 1, j + 1)``, the longest run that can end at
    cell ``(i, j)`` of a region, read-only.

    It is computed wide and then cast: no entry exceeds ``min(height,
    width)``, so it fits any dtype that holds the table's runs.  Casting
    the row or column caps alone would wrap past 255 in uint8 on a tall
    table.
    """
    caps = np.minimum(
        np.arange(1, height + 1)[:, None], np.arange(1, width + 1)[None, :]
    ).astype(dtype)
    caps.flags.writeable = False
    return caps


def run_dtype(longest_run: int) -> type[np.unsignedinteger]:
    """The smallest unsigned dtype that holds run lengths up to
    ``longest_run``: uint8 up to 255, then uint16, then uint32."""
    for dtype in (np.uint8, np.uint16):
        if longest_run <= np.iinfo(dtype).max:
            return dtype
    return np.uint32


#: Pad codes of a :func:`block_runs` block: above every code point
#: (U+10FFFF) and different from each other, so a pad matches no
#: character and no other pad.
_FIRST_PAD = 0x110000
_SECOND_PAD = 0x110001


def _padded_codes(texts: list[str], lengths: np.ndarray, size: int, pad: int):
    """The texts' code points as the rows of a ``(len(texts), size)``
    array, each row padded with ``pad``."""
    codes = np.full((len(texts), size), pad, dtype=np.uint32)
    codes[np.arange(size)[None, :] < lengths[:, None]] = code_points("".join(texts))
    return codes


def block_runs(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """The run tables of a block of string pairs, in one array.

    ``runs[p, i + 1, j + 1]`` is the length of the common run that ends
    at ``first[i]``, ``second[j]`` of pair ``p``; row 0, column 0 and
    every cell past a pair's own lengths hold 0.  The array is in
    :func:`run_dtype` of the block's ``min(height, width)``.  It is built
    by a row DP, one vectorised step per row of the block:
    ``runs[:, i + 1, 1:] = (runs[:, i, :-1] + 1) * match[:, i, :]``.
    """
    firsts = [first for first, _ in pairs]
    seconds = [second for _, second in pairs]
    first_lengths = np.array([len(first) for first in firsts])
    second_lengths = np.array([len(second) for second in seconds])
    height = int(first_lengths.max())
    width = int(second_lengths.max())
    match = (
        _padded_codes(firsts, first_lengths, height, _FIRST_PAD)[:, :, None]
        == _padded_codes(seconds, second_lengths, width, _SECOND_PAD)[:, None, :]
    )
    runs = np.zeros(
        (len(pairs), height + 1, width + 1), dtype=run_dtype(min(height, width))
    )
    # No run can pass min(height, width), so ``+ 1`` never wraps.
    for row in range(height):
        current = runs[:, row + 1, 1:]
        np.add(runs[:, row, :-1], 1, out=current)
        current *= match[:, row]
    return runs


def block_mismatches(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """The Hamming errors of a block of string pairs, in one bool array.

    ``errors[p, i]`` is True when position ``i`` of pair ``p`` is a
    Hamming error: ``i < max(len(first), len(second))`` and the two
    strings differ there, one of them ending before ``i`` included.  The
    array is ``(len(pairs), longest side)``; both sides are padded with
    :func:`block_runs`' pads, which match no character and no other pad,
    and the columns at or past each pair's longer length are masked.
    """
    firsts = [first for first, _ in pairs]
    seconds = [second for _, second in pairs]
    first_lengths = np.array([len(first) for first in firsts])
    second_lengths = np.array([len(second) for second in seconds])
    spans = np.maximum(first_lengths, second_lengths)
    width = int(spans.max())
    errors = _padded_codes(firsts, first_lengths, width, _FIRST_PAD) != _padded_codes(
        seconds, second_lengths, width, _SECOND_PAD
    )
    errors &= np.arange(width)[None, :] < spans[:, None]
    return errors


# ------------------------------------------------------------------ #
# Dispatch layer
# ------------------------------------------------------------------ #


def _count_kernel_call(kernel: str, pairs: int = 1) -> None:
    """Record ``pairs`` kernel comparisons in the metrics registry.

    These kernels are the innermost hot path of the whole harness, so the
    counter bypasses the null-object helper: callers guard on
    ``_obs_state.registry is not None`` (one global load and an ``is``
    check) and pay nothing when metrics are disabled.  A one-vs-many call
    counts all its lanes in one increment.
    """
    _obs_state.registry.counter("kernel.calls", kernel=kernel).inc(pairs)


def edit_distance_kernel(first: str, second: str) -> int:
    """Bit-parallel Levenshtein distance (no fast exits — callers like
    :func:`repro.align.edit_distance.edit_distance` apply those)."""
    if _obs_state.registry is not None:
        _count_kernel_call("edit")
    return _bitparallel_distance(first, second)


def banded_distance_kernel(first: str, second: str, band: int) -> int:
    """Bit-parallel banded distance: the exact distance when it is
    ``<= band``, else the lower bound ``band + 1``.  Callers must have
    applied the ``abs(len difference) > band`` short-circuit already."""
    if _obs_state.registry is not None:
        _count_kernel_call("banded")
    return _bitparallel_banded(first, second, band)


def longest_common_substring(
    first: str,
    second: str,
    first_low: int,
    first_high: int,
    second_low: int,
    second_high: int,
) -> tuple[int, int, int]:
    """Reference longest common substring of
    ``first[first_low:first_high]`` vs ``second[second_low:second_high]``.

    Returns ``(first_start, second_start, size)`` with ties broken toward
    the earliest position in ``first`` then ``second`` (the deterministic
    choice :meth:`RunTable.longest` reproduces).
    """
    return _python_lcs(first, second, first_low, first_high, second_low, second_high)


class CompiledPattern:
    """One string compiled for repeated comparisons against many others.

    Its Myers pattern-match bitmasks are built on first use and kept, so
    a string compared again and again — a greedy cluster representative
    against every read that names it as a candidate — pays the O(m) mask
    build once.  :meth:`distances` and :meth:`banded_distances` sweep
    this string once against all of ``others`` (:func:`_packed_distances`);
    an entry of ``others`` may itself be a ``CompiledPattern``, whose
    held masks then become its lane.
    """

    __slots__ = ("text", "_masks")

    def __init__(self, text: str) -> None:
        self.text = text
        self._masks: dict[str, int] | None = None

    def _pattern(self) -> dict[str, int]:
        if self._masks is None:
            self._masks = pattern_masks(self.text)
        return self._masks

    def distance(self, other: str) -> int:
        """Levenshtein distance to ``other`` (with the empty/equal fast
        exits applied)."""
        if self.text == other:
            return 0
        if not self.text or not other:
            return abs(len(self.text) - len(other))
        if _obs_state.registry is not None:
            _count_kernel_call("edit")
        return _myers_distance(self._pattern(), len(self.text), other)

    def banded_distance(self, other: str, band: int) -> int:
        """Banded distance to ``other``: exact when ``<= band``, else
        ``band + 1``; the length-difference lower bound short-circuits
        without touching the kernel."""
        if abs(len(self.text) - len(other)) > band:
            return band + 1
        if self.text == other:
            return 0
        if _obs_state.registry is not None:
            _count_kernel_call("banded")
        return _myers_distance(self._pattern(), len(self.text), other, band)

    def distances(self, others: Sequence[str | CompiledPattern]) -> list[int]:
        """Levenshtein distance to each of ``others``."""
        return self._one_to_many(others, None)

    def banded_distances(
        self, others: Sequence[str | CompiledPattern], band: int
    ) -> list[int]:
        """Banded distance to each of ``others`` (exact when ``<= band``,
        else ``band + 1``)."""
        return self._one_to_many(others, band)

    def _one_to_many(
        self, others: Sequence[str | CompiledPattern], band: int | None
    ) -> list[int]:
        """Each of ``others`` behind :meth:`distance`'s or
        :meth:`banded_distance`'s short-circuits, in their order; the rest
        become lanes of one packed sweep."""
        text = self.text
        results: list[int] = []
        lanes: list[CompiledPattern] = []
        slots: list[int] = []
        for other in others:
            lane = (
                other if isinstance(other, CompiledPattern) else CompiledPattern(other)
            )
            if band is not None and abs(len(text) - len(lane.text)) > band:
                results.append(band + 1)
            elif lane.text == text:
                results.append(0)
            elif band is None and not (text and lane.text):
                results.append(abs(len(text) - len(lane.text)))
            else:
                slots.append(len(results))
                results.append(0)
                lanes.append(lane)
        if lanes:
            if _obs_state.registry is not None:
                _count_kernel_call("edit" if band is None else "banded", len(lanes))
            for slot, distance in zip(slots, _packed_distances(text, lanes, band)):
                results[slot] = distance
        return results


def edit_distances_one_to_many(
    reference: str, reads: Sequence[str], band: int | None = None
) -> list[int]:
    """Levenshtein distance from one reference to each of many reads.

    The exact shape of :meth:`repro.core.profile.ErrorProfile.from_pool`
    and of reconstruction-quality scoring (one candidate, many copies):
    the reference's pattern-match bitmasks are computed once and reused
    across every read.  With ``band`` given, each distance is banded
    (``band + 1`` meaning "more than band apart").

    Bit-identical to ``[edit_distance(reference, read) for read in reads]``.
    """
    pattern = CompiledPattern(reference)
    if band is None:
        return pattern.distances(reads)
    return pattern.banded_distances(reads, band)
