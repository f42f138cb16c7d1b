"""The Iterative reconstruction algorithm (Sabary, Yucovich, Shapira,
Yaakobi — "Reconstruction Algorithms for DNA-Storage Systems").

The algorithm builds an initial one-way consensus and then *iterates*:
each round re-aligns every noisy copy against the current estimate using
maximum-likelihood edit operations and applies every correction a
majority of copies agrees on (substitute a position, delete a spurious
position, insert a missing base).  Rounds repeat until a fixed point or a
round cap.

Behavioural properties the paper measures and that emerge here:

* **strength** — edit-distance re-alignment corrects interior errors far
  better than pointer voting, so per-strand accuracy beats BMA on real
  data (Table 2.2: 66.7% vs 29.0% at N = 5);
* **one-directional error propagation** — the estimate is never assembled
  from a backward pass, so residual indels push Hamming errors toward the
  end of the strand: the post-reconstruction Hamming curve is linear, not
  A-shaped (Fig. 3.4a), and the paper proposes two-way execution as the
  fix (Section 4.3, implemented in :mod:`repro.reconstruct.two_way`);
* **deletion-dominated residuals** — unsupported positions are deleted
  and never padded back, so most surviving errors are deletions
  (Section 3.4.1 reports 90%);
* **terminal sensitivity** — votes at the last positions are easily
  overwhelmed when errors concentrate there, which is exactly the
  over-correction the paper's three-position skew model triggers
  (Tables 3.1/3.2).

:meth:`IterativeReconstruction.reconstruct` is the per-cluster
reference.  :meth:`IterativeReconstruction.reconstruct_many` runs the
same rounds for a block of clusters at once (:func:`_lockstep`): every
copy of every cluster is one lane of a multi-word Myers/Hyyrö pass and
of a traceback that moves all lanes together, one move per NumPy step.
Outputs are identical (DESIGN §17).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.align.operations import OpKind, edit_operations
from repro.reconstruct import bma
from repro.reconstruct.base import Reconstructor, reconstruct_in_blocks
from repro.reconstruct.bma import bma_forward_pass


class IterativeReconstruction(Reconstructor):
    """Iterative majority-correction reconstruction.

    Args:
        rounds: maximum refinement rounds (3 by default; rounds stop
            early at a fixed point).
        seed: seed for edit-operation tie-breaking among equally likely
            alignments; None keeps alignment deterministic.
    """

    name = "Iterative"

    def __init__(self, rounds: int = 3, seed: int | None = None) -> None:
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        self.rounds = rounds
        self.rng = random.Random(seed) if seed is not None else None

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        estimate = bma_forward_pass(copies, strand_length)
        for _ in range(self.rounds):
            refined = self._refine(estimate, copies, strand_length)
            if refined == estimate:
                break
            estimate = refined
        # The designed length is known: surplus bases at the tail are cut.
        # Deficits are *not* padded — missing bases stay missing, which is
        # why the algorithm's residual errors are deletion-dominated.
        return estimate[:strand_length]

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Reconstruct every cluster with the lockstep kernel, one block
        of :data:`~repro.reconstruct.base.BLOCK_CLUSTERS` clusters at a
        time; the estimates equal :meth:`reconstruct`'s.  A seeded
        instance runs the per-cluster loop: its tie-break draws must
        come in that loop's order."""
        if self.rng is not None or strand_length < 1:
            return super().reconstruct_many(copies_lists, strand_length)
        return reconstruct_in_blocks(
            lambda block: _lockstep(block, strand_length, self.rounds),
            copies_lists,
        )

    # ---------------------------------------------------------------- #

    def _refine(
        self, estimate: str, copies: Sequence[str], strand_length: int
    ) -> str:
        """One correction round: align every copy to the estimate and apply
        majority-supported edits."""
        length = len(estimate)
        # votes[i] counts, for estimate position i: keep/substitute-to-base
        # (by emitted base) and deletion.
        base_votes: list[Counter] = [Counter() for _ in range(length)]
        delete_votes = [0] * length
        insert_votes: list[Counter] = [Counter() for _ in range(length + 1)]

        for copy in copies:
            operations = edit_operations(estimate, copy, self.rng)
            for operation in operations:
                position = operation.reference_position
                if operation.kind is OpKind.INSERTION:
                    # Canonicalise within homopolymer runs: inserting X
                    # anywhere inside a run of X is one and the same event;
                    # without this, votes from different copies fragment
                    # across equivalent positions and majorities are lost.
                    position = self._canonical_insertion(
                        estimate, min(position, length), operation.copy_base
                    )
                    insert_votes[position][operation.copy_base] += 1
                    continue
                if operation.kind is OpKind.DELETION:
                    position = self._canonical_deletion(estimate, position)
                    delete_votes[position] += 1
                else:  # EQUAL or SUBSTITUTION: a vote for the emitted base
                    base_votes[position][operation.copy_base] += 1

        half = len(copies) / 2.0
        refined: list[str] = []
        # Map original estimate positions to positions in `refined` so the
        # length-repair pass below can insert at the right spots.
        position_map: list[int] = []
        applied_insertions: set[int] = set()
        for position in range(length):
            insertion = self._majority_insertion(insert_votes[position], half)
            if insertion is not None:
                refined.append(insertion)
                applied_insertions.add(position)
            position_map.append(len(refined))
            if delete_votes[position] > half:
                continue  # a majority says this position is spurious
            counts = base_votes[position]
            if counts:
                best = max(counts.values())
                refined.append(
                    min(base for base, count in counts.items() if count == best)
                )
            else:
                refined.append(estimate[position])
        tail_insertion = self._majority_insertion(insert_votes[length], half)
        if tail_insertion is not None:
            refined.append(tail_insertion)
            applied_insertions.add(length)
        position_map.append(len(refined))
        return self._repair_length(
            refined,
            strand_length,
            insert_votes,
            applied_insertions,
            position_map,
        )

    def _repair_length(
        self,
        refined: list[str],
        strand_length: int,
        insert_votes: list[Counter],
        applied_insertions: set[int],
        position_map: list[int],
    ) -> str:
        """Length-aware repair: the design length L is known, so when the
        estimate comes up short, apply the strongest *sub-majority*
        insertion candidates (at least two supporting copies) to close the
        deficit.  This recovers bases whose restoration votes were split
        across equivalent alignments — without it, near-tie deletions are
        unrecoverable and per-strand accuracy collapses."""
        deficit = strand_length - len(refined)
        if deficit <= 0:
            return "".join(refined)
        candidates: list[tuple[int, int, int, str]] = []  # (-votes, pos, new_pos, base)
        for position, counts in enumerate(insert_votes):
            if position in applied_insertions or not counts:
                continue
            base, votes = counts.most_common(1)[0]
            if votes >= 2:
                candidates.append(
                    (-votes, position, position_map[min(position, len(position_map) - 1)], base)
                )
        candidates.sort()
        chosen = candidates[:deficit]
        # Insert right-to-left so earlier insertion points stay valid.
        for _negative_votes, _position, new_position, base in sorted(
            chosen, key=lambda item: -item[2]
        ):
            refined.insert(new_position, base)
        return "".join(refined)

    @staticmethod
    def _canonical_insertion(estimate: str, position: int, base: str) -> int:
        """Slide an insertion point to the left edge of a run of ``base``."""
        while position > 0 and estimate[position - 1] == base:
            position -= 1
        return position

    @staticmethod
    def _canonical_deletion(estimate: str, position: int) -> int:
        """Slide a deletion to the left edge of its homopolymer run."""
        while position > 0 and estimate[position - 1] == estimate[position]:
            position -= 1
        return position

    @staticmethod
    def _majority_insertion(counts: Counter, half: float) -> str | None:
        """The base a strict majority of copies wants inserted, if any."""
        if not counts:
            return None
        base, count = counts.most_common(1)[0]
        if count > half:
            return base
        return None


#: Code points lie in ``[0, 0x110000)``, so ``index * _SYMBOLS + code
#: point`` packs an (index, symbol) pair into one int64 key.
_SYMBOLS = 0x110000

_ONE = np.uint64(1)


def _lockstep(
    copies_lists: list[Sequence[str]], strand_length: int, rounds: int
) -> list[str]:
    """:meth:`IterativeReconstruction.reconstruct` for every cluster of a
    block at once.  The initial estimates come from the lockstep BMA;
    each round refines the clusters that have not reached their fixed
    point, and a cluster leaves the block at its fixed point."""
    estimates = bma._lockstep(copies_lists, strand_length, two_way=False)
    active = list(range(len(copies_lists)))
    # One D0/VP buffer for the block, sized by its first round (the most
    # lanes) and reused by every group and round.
    columns = np.empty(0, dtype=np.uint64)
    for _ in range(rounds):
        if not active:
            break
        refined, columns = _refine_block(
            [estimates[index] for index in active],
            [copies_lists[index] for index in active],
            strand_length,
            columns,
        )
        still_moving = []
        for index, estimate in zip(active, refined):
            if estimate != estimates[index]:
                estimates[index] = estimate
                still_moving.append(index)
        active = still_moving
    return [estimate[:strand_length] for estimate in estimates]


def _refine_block(
    estimates: list[str],
    copies_lists: list[Sequence[str]],
    strand_length: int,
    columns: np.ndarray,
) -> tuple[list[str], np.ndarray]:
    """:meth:`IterativeReconstruction._refine` for every cluster of a
    block: one forward pass and one traceback over every (cluster, copy)
    lane, then the votes and the round's rules for every cluster.

    Lanes are sorted longest copy first, so the lanes still reading at
    column ``j`` are a prefix: a lane past its copy's end is frozen by
    leaving it out.  Per-lane arrays are laid out ``(column, lane)``;
    each has a spare last row that finished lanes read and write.  The
    forward pass and the traceback run over contiguous groups of the
    sorted lanes, as few as keep each group's D0/VP columns within
    :data:`_COLUMN_BYTES`; lanes are independent, so the grouping
    changes no vote.  ``columns`` is the D0/VP buffer, grown when too
    small and returned for the next round.
    """
    n_clusters = len(estimates)
    est_lengths = np.fromiter(map(len, estimates), dtype=np.int64, count=n_clusters)
    est_start = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(est_lengths, out=est_start[1:])
    # A trailing sentinel matches no symbol; gathers at row -1 land on it.
    est_points = np.full(est_start[-1] + 1, -1, dtype=np.int32)
    est_points[:-1] = bma._code_points("".join(estimates))

    copy_counts = np.fromiter(map(len, copies_lists), dtype=np.int64, count=n_clusters)
    copies = [copy for cluster in copies_lists for copy in cluster]
    natural_lengths = np.fromiter(map(len, copies), dtype=np.int64, count=len(copies))
    order = np.argsort(-natural_lengths, kind="stable")
    lengths = natural_lengths[order]
    cluster = np.repeat(np.arange(n_clusters), copy_counts)[order]
    width = int(lengths[0])
    points = bma._code_points("".join([copies[index] for index in order]))
    text = np.zeros((width + 1, len(copies)), dtype=points.dtype)
    text.T[np.arange(width + 1) < lengths[:, None]] = points
    rows = est_lengths[cluster]
    # column_at holds -1 - row for every row and, below those, a mark
    # for EQUAL columns: one byte each for an estimate under 127.
    column_type = np.min_scalar_type(-2 - int(rows.max()))

    n_lanes = len(copies)
    words = max(1, -(-int(rows.max()) // 64))
    column_bytes = 2 * words * (width + 1) * 8
    groups = -(-n_lanes * column_bytes // _COLUMN_BYTES)
    group_lanes = -(-n_lanes // groups)
    if columns.size * 8 < group_lanes * column_bytes:
        columns = np.empty(group_lanes * column_bytes // 8, dtype=np.uint64)
    symbols, peq = _pattern_masks(est_points, est_start, words)
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
            cluster[group],
            rows[group],
            d0_columns,
            vp_columns,
        )
        group_columns, group_deleted = _traceback(
            est_points,
            est_start[cluster[group]],
            group_text,
            lengths[group],
            rows[group],
            d0_columns,
            vp_columns,
            column_type,
        )
        column_at[:group_width, group] = group_columns
        deleted[: len(group_deleted), group] = group_deleted
    refined = _apply_votes(
        est_points,
        est_start,
        copy_counts,
        text,
        cluster,
        order,
        column_at,
        deleted,
        strand_length,
    )
    return refined, columns


def _pattern_masks(
    est_points: np.ndarray, est_start: np.ndarray, words: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (cluster, symbol) keys of the estimates, ending in a
    sentinel past every key, and ``peq[:, 1 + index]``: the positions of
    key ``index``'s symbol in its cluster's estimate, as ``words`` uint64
    words.  ``peq[:, 0]`` is the empty mask of a symbol the estimate
    lacks.  The table grows with the estimates, not with the block's
    alphabet."""
    est_cluster = np.repeat(np.arange(len(est_start) - 1), np.diff(est_start))
    keys = est_cluster * _SYMBOLS + est_points[:-1]
    symbols, key_index = np.unique(keys, return_inverse=True)
    positions = np.arange(len(keys)) - est_start[est_cluster]
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
    cluster: np.ndarray,
    rows: np.ndarray,
    d0_columns: np.ndarray,
    vp_columns: np.ndarray,
) -> None:
    """Fill ``d0_columns`` and ``vp_columns`` (``(words, width + 1,
    lanes)`` uint64) with the D0 and VP words of every DP column of every
    lane, as :func:`repro.align.operations._delta_columns` computes them:
    the lane's cluster estimate is the pattern, its copy the text.

    A lane's pattern spans ``words = ceil(max estimate length / 64)``
    uint64 words, least significant first; the add carries and the HP/HN
    shifts cross word boundaries, and every word is masked by the lane's
    own estimate length.  ``symbols`` and ``peq`` come from
    :func:`_pattern_masks`.
    """
    words, width = d0_columns.shape[0], len(text) - 1
    lane_key = cluster * _SYMBOLS

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
        # A symbol its estimate lacks takes column 0, the empty mask.
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


#: Matches a traceback step may cross at once.  Runs between errors
#: average ~16 bases at the paper's ~6% error rate.
_RUN_WINDOW = 16

#: The most D0/VP column bytes one group of lanes holds at a time.  At
#: paper shape (L = 110, two words) a 64-cluster block at coverage 10 is
#: 640 lanes and 2.4 MB of columns, so it runs as two groups.
_COLUMN_BYTES = 3 << 19


def _traceback(
    est_points: np.ndarray,
    est_base: np.ndarray,
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

    Every copy column and every estimate row of a lane is consumed
    exactly once, so the votes need no accumulation here.  ``column_at``
    holds, per copy column, the estimate row of a SUB, ``-1 - row`` for
    an insertion before ``row``, or the least ``column_type`` value for
    an EQUAL.  ``deleted`` marks, per estimate row, a deletion.  Neither
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
        same = est_points[np.maximum(est_base + row - 1 - back, -1)] == text_flat[
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
        match = est_points[est_base + above] == text_flat[left]
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


def _apply_votes(
    est_points: np.ndarray,
    est_start: np.ndarray,
    copy_counts: np.ndarray,
    text: np.ndarray,
    cluster: np.ndarray,
    order: np.ndarray,
    column_at: np.ndarray,
    deleted: np.ndarray,
    strand_length: int,
) -> list[str]:
    """Tally the traceback's votes and apply ``_refine``'s rules to every
    cluster: base majority (smallest symbol among ties), majority
    deletion, majority insertion (``most_common``: first-voted base among
    ties), then ``_repair_length``.

    Estimate position ``e`` (over the concatenated estimates) owns
    insertion slot ``e + cluster``; cluster ``c``'s tail slot is
    ``est_start[c + 1] + c``.  Every lane consumes every row of its
    estimate once, by EQUAL, SUB or a deletion, so a row's EQUAL votes
    are its cluster's copy count less its SUB and raw deletion votes.
    """
    n_clusters = len(est_start) - 1
    n_positions = len(est_points) - 1
    est_cluster = np.repeat(np.arange(n_clusters), np.diff(est_start))
    slot_cluster = np.repeat(np.arange(n_clusters), np.diff(est_start) + 1)
    position_slot = np.arange(n_positions) + est_cluster
    # Left edge of each homopolymer run, never crossing a cluster.
    starts = np.ones(n_positions, dtype=bool)
    starts[1:] = est_points[1:-1] != est_points[:-2]
    starts[est_start[:-1][est_start[:-1] < n_positions]] = True
    run_start = np.maximum.accumulate(np.where(starts, np.arange(n_positions), 0))

    row, lane = np.nonzero(deleted)
    raw_deletions = est_start[cluster[lane]] + row
    delete_votes = np.bincount(run_start[raw_deletions], minlength=n_positions)
    kept = 2 * delete_votes <= copy_counts[est_cluster]

    column, lane = np.nonzero(column_at != np.iinfo(column_at.dtype).min)
    votes = column_at[column, lane]
    symbol = text[column, lane].astype(np.int64)
    base = est_start[cluster[lane]]

    # Base votes: SUB groups against the EQUAL count of their row.
    substitution = votes >= 0
    at = base[substitution] + votes[substitution]
    equal_votes = copy_counts[est_cluster] - np.bincount(
        np.concatenate([at, raw_deletions]), minlength=n_positions
    )
    winner = est_points[:-1].astype(np.int64)
    groups, counts = np.unique(at * _SYMBOLS + symbol[substitution], return_counts=True)
    group_at, group_symbol = np.divmod(groups, _SYMBOLS)
    lead = _leaders(group_at, -counts)
    group_at, group_symbol, counts = group_at[lead], group_symbol[lead], counts[lead]
    beats = (counts > equal_votes[group_at]) | (
        (counts == equal_votes[group_at]) & (group_symbol < winner[group_at])
    )
    winner[group_at[beats]] = group_symbol[beats]

    # Insertion votes, at the left edge of a run of the inserted symbol.
    insertion = ~substitution
    inserted = symbol[insertion]
    start = base[insertion]
    canonical = start - 1 - votes[insertion]
    slide = (canonical > start) & (est_points[canonical - 1] == inserted)
    canonical[slide] = run_start[canonical[slide] - 1]
    slot = canonical + cluster[lane[insertion]]
    # Counter order: copies in order, each copy's insertions by column.
    first_vote = order[lane[insertion]] * len(text) + column[insertion]
    groups, inverse, counts = np.unique(
        slot * _SYMBOLS + inserted, return_inverse=True, return_counts=True
    )
    first = np.full(len(groups), np.iinfo(np.int64).max)
    np.minimum.at(first, inverse, first_vote)
    group_slot, group_symbol = np.divmod(groups, _SYMBOLS)
    lead = _leaders(group_slot, -counts, first)
    insert_slot, insert_symbol, insert_votes = (
        group_slot[lead],
        group_symbol[lead],
        counts[lead],
    )
    majority = 2 * insert_votes > copy_counts[slot_cluster[insert_slot]]

    # Assemble: per slot, an applied insertion, then the kept base.
    present = np.zeros((len(slot_cluster), 2), dtype=bool)
    present[insert_slot[majority], 0] = True
    present[position_slot, 1] = kept
    items = np.zeros(present.shape, dtype=np.int64)
    items[insert_slot[majority], 0] = insert_symbol[majority]
    items[position_slot, 1] = winner
    points = items[present]
    emitted = present.sum(axis=1)
    before = np.cumsum(emitted) - emitted
    out_lengths = np.bincount(slot_cluster, weights=emitted, minlength=n_clusters)
    out_lengths = out_lengths.astype(np.int64)

    # _repair_length: close a deficit with the strongest unapplied
    # insertions of at least two votes, by (-votes, position).
    deficit = strand_length - out_lengths
    candidate = (~majority) & (insert_votes >= 2)
    candidate &= deficit[slot_cluster[insert_slot]] > 0
    if candidate.any():
        slots = insert_slot[candidate]
        owner = slot_cluster[slots]
        ranked = np.lexsort((slots, -insert_votes[candidate], owner))
        slots, owner = slots[ranked], owner[ranked]
        rank = np.arange(len(slots)) - np.searchsorted(owner, owner)
        chosen = rank < deficit[owner]
        slots, owner, rank = slots[chosen], owner[chosen], rank[chosen]
        symbols = insert_symbol[candidate][ranked][chosen]
        # position_map[p]: the output index after slot p's applied
        # insertion.  Right-to-left inserts leave equal targets in
        # reverse rank order.
        target = before[slots] + present[slots, 0]
        placed = np.lexsort((-rank, owner, target))
        points = np.insert(points, target[placed], symbols[placed])
        out_lengths += np.bincount(owner, minlength=n_clusters)

    refined = points.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    bounds = np.concatenate([[0], np.cumsum(out_lengths)])
    return [refined[bounds[index] : bounds[index + 1]] for index in range(n_clusters)]


def _leaders(key: np.ndarray, *preferences: np.ndarray) -> np.ndarray:
    """Index of the first entry of each ``key`` after a stable sort by
    ``key`` then ``preferences`` (most significant first): the winner per
    key, with ties left in the input's order."""
    ranked = np.lexsort(tuple(reversed(preferences)) + (key,))
    key = key[ranked]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return ranked[first]
