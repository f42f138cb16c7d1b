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
of a traceback that moves all lanes together, one move per NumPy step
(:func:`repro.align.lockstep.align_lanes`).  Outputs are identical
(DESIGN §17).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.align.lockstep import SYMBOLS, Lanes, align_lanes
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
    block: one lockstep alignment of every (cluster, copy) lane against
    its cluster's estimate (:func:`repro.align.lockstep.align_lanes`),
    then the votes and the round's rules for every cluster.  ``columns``
    is the alignment's D0/VP buffer, returned for the next round.
    """
    lanes, columns = align_lanes(estimates, copies_lists, columns)
    copy_counts = np.fromiter(map(len, copies_lists), dtype=np.int64, count=len(estimates))
    return _apply_votes(lanes, copy_counts, strand_length), columns


def _apply_votes(
    lanes: Lanes, copy_counts: np.ndarray, strand_length: int
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
    est_points, est_start, text, cluster, order, column_at, deleted = lanes
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

    column, lane = np.nonzero(column_at != lanes.equal)
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
    groups, counts = np.unique(at * SYMBOLS + symbol[substitution], return_counts=True)
    group_at, group_symbol = np.divmod(groups, SYMBOLS)
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
        slot * SYMBOLS + inserted, return_inverse=True, return_counts=True
    )
    first = np.full(len(groups), np.iinfo(np.int64).max)
    np.minimum.at(first, inverse, first_vote)
    group_slot, group_symbol = np.divmod(groups, SYMBOLS)
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
