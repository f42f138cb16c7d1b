"""Tallying channel-error statistics from reference/copy pairs.

This is the measurement half of the paper's data-driven approach
(Section 2.3): given clusters of noisy copies, extract the maximum-
likelihood edit operations (Algorithm 2) for every copy and tally

* per-base conditional error counts — P(ins|A), P(subs|G), ... (§3.3.1);
* the conditional substitution matrix P(replacement | original);
* the inserted-base distribution;
* long-deletion events (runs of >= 2 consecutive deletions) and their
  length distribution (§3.3.1: p_ld = 0.33%, mean length 2.17);
* the aggregate spatial histogram of error positions (§3.3.2);
* per-second-order-error counts and positional histograms (§3.3.3).

The resulting :class:`ErrorStatistics` is pure measurement; converting it
into simulator parameters is the job of :mod:`repro.core.profile`.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import add

import numpy as np

from repro.align.kernels import compact_code_points
from repro.align.lockstep import SYMBOLS, Lanes, align_lanes
from repro.align.operations import OpKind, deletion_runs, edit_operations
from repro.core.alphabet import BASES
from repro.core.strand import StrandPool
from repro.exceptions import ConfigError

#: Second-order error identity: (kind, reference base, replacement base).
SecondOrderKey = tuple[str, str, str]

#: Pairs :meth:`ErrorStatistics.tally_many` aligns at once.  The text
#: and operation maps are ``(longest copy, pairs)`` arrays, so a block
#: bounds them however long one copy is.
_TALLY_PAIRS = 4096

#: Event kinds of the lockstep tally, in ``SecondOrderKey`` form.
_KINDS = ("deletion", "substitution", "insertion")


@dataclass
class ErrorStatistics:
    """Raw error tallies over a set of reference/copy transmissions.

    Attributes:
        strand_length: reference strand length the positional histograms
            are indexed by (set on first tally; references of other
            lengths are clamped into range).
        pair_count: number of (reference, copy) pairs tallied.
        base_opportunities: occurrences of each base across all tallied
            references (the denominator of conditional rates).
        position_opportunities: transmissions covering each position.
        insertion_counts / deletion_counts / substitution_counts:
            single-base error counts keyed by the reference base at the
            error position (insertions are attributed to the base they
            follow).
        substitution_pairs: counts of (original, replacement) pairs.
        inserted_bases: counts of which base was inserted.
        long_deletion_count / long_deletion_lengths: long-deletion events
            and their run-length counts.
        error_positions: aggregate positional histogram of all errors.
        second_order_counts / second_order_positions: per-specific-error
            counts and positional histograms (single-base errors only;
            the paper's top-10 are all single-base, Section 3.3.3).
    """

    strand_length: int = 0
    pair_count: int = 0
    base_opportunities: Counter = field(default_factory=Counter)
    position_opportunities: list[int] = field(default_factory=list)
    insertion_counts: Counter = field(default_factory=Counter)
    deletion_counts: Counter = field(default_factory=Counter)
    substitution_counts: Counter = field(default_factory=Counter)
    substitution_pairs: Counter = field(default_factory=Counter)
    inserted_bases: Counter = field(default_factory=Counter)
    long_deletion_count: int = 0
    long_deletion_lengths: Counter = field(default_factory=Counter)
    error_positions: list[int] = field(default_factory=list)
    second_order_counts: Counter = field(default_factory=Counter)
    second_order_positions: dict[SecondOrderKey, list[int]] = field(
        default_factory=dict
    )

    # ---------------------------------------------------------------- #
    # Tallying
    # ---------------------------------------------------------------- #

    def _ensure_length(self, length: int) -> None:
        if length > self.strand_length:
            grow = length - self.strand_length
            self.position_opportunities.extend([0] * grow)
            self.error_positions.extend([0] * grow)
            for histogram in self.second_order_positions.values():
                histogram.extend([0] * grow)
            self.strand_length = length

    def _clamp(self, position: int) -> int:
        return min(max(position, 0), self.strand_length - 1)

    def tally_pair(
        self, reference: str, copy: str, rng: random.Random | None = None
    ) -> None:
        """Tally one transmission: align ``copy`` to ``reference`` and count
        every error operation.

        Raises:
            ConfigError: ``reference`` is empty and ``copy`` is not.
        """
        _check_pair(reference, copy)
        self._ensure_length(len(reference))
        self.pair_count += 1
        for base in reference:
            self.base_opportunities[base] += 1
        for position in range(len(reference)):
            self.position_opportunities[position] += 1

        operations = edit_operations(reference, copy, rng)
        error_operations = [
            operation for operation in operations if operation.is_error
        ]

        # Long deletions: attribute whole runs to the long-deletion
        # process; everything inside them is excluded from single-base
        # tallies so the two processes never double-count.
        runs = deletion_runs(error_operations)
        long_run_positions: set[int] = set()
        for start, run_length in runs:
            if run_length >= 2:
                self.long_deletion_count += 1
                self.long_deletion_lengths[run_length] += 1
                self.error_positions[self._clamp(start)] += 1
                long_run_positions.update(range(start, start + run_length))

        for operation in error_operations:
            position = self._clamp(operation.reference_position)
            if operation.kind is OpKind.DELETION:
                if operation.reference_position in long_run_positions:
                    continue
                self.deletion_counts[operation.reference_base] += 1
                key: SecondOrderKey = ("deletion", operation.reference_base, "")
            elif operation.kind is OpKind.SUBSTITUTION:
                self.substitution_counts[operation.reference_base] += 1
                self.substitution_pairs[
                    (operation.reference_base, operation.copy_base)
                ] += 1
                key = (
                    "substitution",
                    operation.reference_base,
                    operation.copy_base,
                )
            else:  # insertion, attributed to the base it follows
                attributed = self._clamp(operation.reference_position - 1)
                self.insertion_counts[reference[attributed]] += 1
                self.inserted_bases[operation.copy_base] += 1
                key = ("insertion", "", operation.copy_base)
                position = attributed
            self.error_positions[position] += 1
            self.second_order_counts[key] += 1
            histogram = self.second_order_positions.get(key)
            if histogram is None:
                histogram = [0] * self.strand_length
                self.second_order_positions[key] = histogram
            histogram[position] += 1

    def tally_many(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Tally every ``(reference, copy)`` pair, as a :meth:`tally_pair`
        loop with ``rng=None`` does, from one lockstep alignment per
        block of pairs (DESIGN §19).  Every count, and the key order of
        every ``Counter`` and of ``second_order_positions``, equals the
        loop's.

        Raises:
            ConfigError: a pair has an empty reference and a non-empty
                copy; nothing is tallied.
        """
        pairs = list(pairs)
        for index, (reference, copy) in enumerate(pairs):
            _check_pair(reference, copy, index)
        for first in range(0, len(pairs), _TALLY_PAIRS):
            self._tally_block(pairs[first : first + _TALLY_PAIRS])

    def _tally_block(self, pairs: list[tuple[str, str]]) -> None:
        """:meth:`tally_many` for one block of pairs."""
        references = [reference for reference, _ in pairs]
        lengths = np.fromiter(map(len, references), dtype=np.int64, count=len(pairs))
        self._ensure_length(int(lengths.max(initial=0)))
        length = self.strand_length
        self.pair_count += len(pairs)
        _count_in_order(
            self.base_opportunities, compact_code_points("".join(references))
        )
        covering = np.cumsum(np.bincount(lengths, minlength=length + 1)[::-1])
        _add_counts(self.position_opportunities, covering[::-1][1:])

        # Consecutive pairs that share a reference share one pattern; an
        # identical copy is all EQUAL and needs no lane.
        patterns: list[str] = []
        texts_lists: list[list[str]] = []
        aligned: list[int] = []
        for index, (reference, copy) in enumerate(pairs):
            if copy == reference:
                continue
            if not patterns or reference != patterns[-1]:
                patterns.append(reference)
                texts_lists.append([])
            texts_lists[-1].append(copy)
            aligned.append(index)
        if not aligned:
            return
        lanes, _ = align_lanes(patterns, texts_lists, np.empty(0, dtype=np.uint64))
        lane_pair = np.array(aligned)[lanes.order]

        long_starts, long_lengths, single = _deletion_runs(lanes, lane_pair)
        self.long_deletion_count += len(long_lengths)
        _count_in_order(self.long_deletion_lengths, long_lengths, int)
        kind, position, base, replacement = _error_events(lanes, lane_pair, single)
        deletion, substitution, insertion = kind == 0, kind == 1, kind == 2
        _count_in_order(self.deletion_counts, base[deletion])
        _count_in_order(self.substitution_counts, base[substitution])
        _count_in_order(
            self.substitution_pairs,
            base[substitution] * SYMBOLS + replacement[substitution],
            lambda code: (chr(code // SYMBOLS), chr(code % SYMBOLS)),
        )
        _count_in_order(self.insertion_counts, base[insertion])
        _count_in_order(self.inserted_bases, replacement[insertion])

        # Second-order keys leave out the inserted base's predecessor
        # and the deleted base's (absent) replacement.
        base[insertion] = 0
        replacement[deletion] = 0
        keys, index = _count_in_order(
            self.second_order_counts,
            (kind * SYMBOLS + base) * SYMBOLS + replacement,
            _second_order_key,
        )
        histograms = np.bincount(index * length + position, minlength=len(keys) * length)
        for key, histogram in zip(keys, histograms.reshape(len(keys), length)):
            mine = self.second_order_positions.get(key)
            if mine is None:
                mine = [0] * length
                self.second_order_positions[key] = mine
            _add_counts(mine, histogram)
        _add_counts(
            self.error_positions,
            np.bincount(np.concatenate([position, long_starts]), minlength=length),
        )

    def tally_pool(
        self,
        pool: StrandPool,
        max_copies_per_cluster: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        """Tally every (reference, copy) pair in a pool.

        With ``rng=None`` the pairs go through :meth:`tally_many`'s
        lockstep alignment; a caller-supplied ``rng`` runs the scalar
        :meth:`tally_pair` loop, because its tie-break draws come in
        that loop's order.  Both give the same statistics as the loop.

        Args:
            pool: pseudo-clustered pool (each copy is paired with its own
                reference).
            max_copies_per_cluster: optional cap to bound profiling cost on
                high-coverage datasets; statistics converge quickly.
            rng: optional source of randomness for Algorithm 2's random
                tie-breaking among optimal edit paths.
        """
        pairs = [
            (cluster.reference, copy)
            for cluster in pool
            for copy in cluster.copies[:max_copies_per_cluster]
        ]
        if rng is None:
            self.tally_many(pairs)
            return
        for reference, copy in pairs:
            self.tally_pair(reference, copy, rng)

    def merge(self, other: "ErrorStatistics") -> None:
        """Fold another tally into this one.

        Tallying is purely additive, so merging per-chunk statistics in
        chunk order reproduces a serial :meth:`tally_pool` bit for bit —
        the property the parallel profile fit
        (:meth:`repro.core.profile.ErrorProfile.from_pool` with
        ``workers > 1``) relies on.
        """
        self._ensure_length(other.strand_length)
        self.pair_count += other.pair_count
        self.base_opportunities.update(other.base_opportunities)
        for position, value in enumerate(other.position_opportunities):
            self.position_opportunities[position] += value
        self.insertion_counts.update(other.insertion_counts)
        self.deletion_counts.update(other.deletion_counts)
        self.substitution_counts.update(other.substitution_counts)
        self.substitution_pairs.update(other.substitution_pairs)
        self.inserted_bases.update(other.inserted_bases)
        self.long_deletion_count += other.long_deletion_count
        self.long_deletion_lengths.update(other.long_deletion_lengths)
        for position, value in enumerate(other.error_positions):
            self.error_positions[position] += value
        self.second_order_counts.update(other.second_order_counts)
        for key, histogram in other.second_order_positions.items():
            mine = self.second_order_positions.get(key)
            if mine is None:
                mine = [0] * self.strand_length
                self.second_order_positions[key] = mine
            for position, value in enumerate(histogram):
                mine[position] += value

    # ---------------------------------------------------------------- #
    # Derived rates
    # ---------------------------------------------------------------- #

    def total_errors(self) -> int:
        """Total error events (long deletions count once each)."""
        return sum(self.error_positions)

    def total_opportunities(self) -> int:
        """Total base transmissions observed."""
        return sum(self.base_opportunities.values())

    def aggregate_rates(self) -> dict[str, float]:
        """Aggregate per-position rates of each error type (naive model)."""
        opportunities = self.total_opportunities()
        if opportunities == 0:
            return {"insertion": 0.0, "deletion": 0.0, "substitution": 0.0,
                    "long_deletion": 0.0}
        return {
            "insertion": sum(self.insertion_counts.values()) / opportunities,
            "deletion": sum(self.deletion_counts.values()) / opportunities,
            "substitution": sum(self.substitution_counts.values()) / opportunities,
            "long_deletion": self.long_deletion_count / opportunities,
        }

    def aggregate_error_rate(self) -> float:
        """Total errors (long deletions weighted by length) per base sent."""
        opportunities = self.total_opportunities()
        if opportunities == 0:
            return 0.0
        deleted_in_runs = sum(
            length * count for length, count in self.long_deletion_lengths.items()
        )
        single_errors = (
            sum(self.insertion_counts.values())
            + sum(self.deletion_counts.values())
            + sum(self.substitution_counts.values())
        )
        return (single_errors + deleted_in_runs) / opportunities

    def conditional_rate(self, kind: str, base: str) -> float:
        """P(error of ``kind`` | base), e.g. ``conditional_rate('insertion', 'A')``."""
        opportunities = self.base_opportunities[base]
        if opportunities == 0:
            return 0.0
        counts = {
            "insertion": self.insertion_counts,
            "deletion": self.deletion_counts,
            "substitution": self.substitution_counts,
        }[kind]
        return counts[base] / opportunities

    def substitution_matrix(self) -> dict[str, dict[str, float]]:
        """Measured P(replacement | original substituted); uniform rows for
        bases never observed substituted."""
        matrix: dict[str, dict[str, float]] = {}
        for original in BASES:
            row_counts = {
                replacement: self.substitution_pairs[(original, replacement)]
                for replacement in BASES
                if replacement != original
            }
            total = sum(row_counts.values())
            if total == 0:
                matrix[original] = {
                    replacement: 1.0 / 3.0 for replacement in row_counts
                }
            else:
                matrix[original] = {
                    replacement: count / total
                    for replacement, count in row_counts.items()
                }
        return matrix

    def inserted_base_distribution(self) -> dict[str, float]:
        """Measured distribution of inserted bases (uniform if none seen)."""
        total = sum(self.inserted_bases.values())
        if total == 0:
            return {base: 0.25 for base in BASES}
        return {base: self.inserted_bases[base] / total for base in BASES}

    def long_deletion_rate(self) -> float:
        """Probability a long deletion starts at any given position."""
        opportunities = self.total_opportunities()
        if opportunities == 0:
            return 0.0
        return self.long_deletion_count / opportunities

    def long_deletion_length_distribution(self) -> dict[int, float]:
        """Normalised run-length distribution of long deletions."""
        total = sum(self.long_deletion_lengths.values())
        if total == 0:
            return {}
        return {
            length: count / total
            for length, count in sorted(self.long_deletion_lengths.items())
        }

    def mean_long_deletion_length(self) -> float:
        """Mean long-deletion run length (0.0 if none observed)."""
        total = sum(self.long_deletion_lengths.values())
        if total == 0:
            return 0.0
        weighted = sum(
            length * count for length, count in self.long_deletion_lengths.items()
        )
        return weighted / total

    def positional_error_rates(self) -> list[float]:
        """Per-position error probability (the spatial profile, Fig. 3.2b)."""
        rates = []
        for errors, opportunities in zip(
            self.error_positions, self.position_opportunities
        ):
            rates.append(errors / opportunities if opportunities else 0.0)
        return rates

    def top_second_order_errors(self, count: int = 10) -> list[tuple[SecondOrderKey, int]]:
        """The ``count`` most common specific errors (Section 3.3.3's top-10)."""
        return self.second_order_counts.most_common(count)

    def second_order_fraction(self, count: int = 10) -> float:
        """Fraction of all single-base errors covered by the top ``count``
        second-order errors (the paper reports 56% for its top-10)."""
        total = sum(self.second_order_counts.values())
        if total == 0:
            return 0.0
        top = sum(value for _key, value in self.top_second_order_errors(count))
        return top / total

    def describe_second_order(self, key: SecondOrderKey) -> str:
        """Human-readable label for a second-order key."""
        kind, base, replacement = key
        if kind == "deletion":
            return f"del {base}"
        if kind == "insertion":
            return f"ins {replacement}"
        return f"sub {base}->{replacement}"


def _check_pair(reference: str, copy: str, index: int | None = None) -> None:
    """Reject a copy of an empty reference: its insertions follow no base."""
    if not reference and copy:
        label = "pair" if index is None else f"pair {index}"
        raise ConfigError(
            f"cannot tally {label} ({reference!r}, {copy!r}): an empty "
            "reference has no base to attribute the copy's insertions to"
        )


def _deletion_runs(
    lanes: Lanes, lane_pair: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The long deletions of every lane, as :func:`deletion_runs` finds
    them: the start row and length of each maximal run of two or more
    consecutive deleted rows, in (pair, start) order; and the ``(lane,
    row)`` of every deletion outside them.  A minimal path never puts an
    insertion next to a deletion (one substitution costs less), so no
    insertion splits a run of deleted rows."""
    row, lane = np.nonzero(lanes.deleted)
    by_lane = np.lexsort((row, lane))
    row, lane = row[by_lane], lane[by_lane]
    opens = np.ones(len(row), dtype=bool)
    opens[1:] = (lane[1:] != lane[:-1]) | (row[1:] != row[:-1] + 1)
    run = np.cumsum(opens) - 1
    run_lengths = np.bincount(run)
    long_run = run_lengths >= 2
    first = np.flatnonzero(opens)[long_run]
    ranked = np.lexsort((row[first], lane_pair[lane[first]]))
    single = ~long_run[run]
    return row[first][ranked], run_lengths[long_run][ranked], (lane[single], row[single])


def _error_events(
    lanes: Lanes, lane_pair: np.ndarray, deletions: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every single-base error of every lane, in the order the
    :meth:`ErrorStatistics.tally_pair` loop meets them: by pair, then by
    reference row, an insertion before row ``p`` ahead of the op at row
    ``p``, and insertions before one row by copy column.

    Returns the kind (0 deletion, 1 substitution, 2 insertion), the
    position the loop tallies it at, the reference base's code point
    (for an insertion, the base it follows) and the copy base's (0 for
    a deletion).
    """
    deleted_lane, deleted_row = deletions
    column, column_lane = np.nonzero(lanes.column_at != lanes.equal)
    value = lanes.column_at[column, column_lane].astype(np.int64)
    inserted = value < 0
    row = np.where(inserted, -1 - value, value)
    no_column = np.zeros(len(deleted_row), dtype=np.int64)
    kind = np.concatenate([no_column, 1 + inserted])
    # An insertion before the first base is attributed to it.
    position = np.concatenate(
        [deleted_row, np.where(inserted, np.maximum(row - 1, 0), row)]
    )
    lane = np.concatenate([deleted_lane, column_lane])
    base = lanes.points[lanes.start[lanes.pattern[lane]] + position].astype(np.int64)
    replacement = np.concatenate(
        [no_column, lanes.text[column, column_lane].astype(np.int64)]
    )
    step = 2 * np.concatenate([deleted_row, row]) + (kind < 2)
    ranked = np.lexsort((np.concatenate([no_column, column]), step, lane_pair[lane]))
    return kind[ranked], position[ranked], base[ranked], replacement[ranked]


def _second_order_key(code: int) -> SecondOrderKey:
    """The :data:`SecondOrderKey` of ``(kind * SYMBOLS + base) * SYMBOLS
    + replacement``."""
    kind, bases = divmod(code, SYMBOLS * SYMBOLS)
    base, replacement = divmod(bases, SYMBOLS)
    return (
        _KINDS[kind],
        "" if kind == 2 else chr(base),
        "" if kind == 0 else chr(replacement),
    )


def _count_in_order(
    counter: Counter, codes: np.ndarray, decode: Callable[[int], object] = chr
) -> tuple[list, np.ndarray]:
    """Add one to ``counter[decode(code)]`` per entry of ``codes``, as a
    loop over ``codes`` would: keys new to ``counter`` enter it in order
    of their first entry.  Returns the distinct keys in that order and
    each entry's index into them."""
    distinct, first, inverse, counts = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    seen = np.argsort(first)
    keys = [decode(code) for code in distinct[seen].tolist()]
    for key, count in zip(keys, counts[seen].tolist()):
        counter[key] += count
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    return keys, rank[inverse]


def _add_counts(histogram: list[int], counts: np.ndarray) -> None:
    """Add ``counts`` into the leading entries of ``histogram``, keeping
    Python ints."""
    histogram[: len(counts)] = map(add, histogram, counts.tolist())
