"""Bitwise Majority Alignment with look-ahead (BMA), two-way execution.

BMA (Batu, Kannan, Khanna, McGregor, SODA'04) keeps a pointer into every
noisy copy, takes a plurality vote of the pointed-at symbols for each
output position, and re-aligns dissenting copies with a look-ahead
heuristic that classifies each disagreement as an insertion, deletion or
substitution.

The variant evaluated by the paper performs a **two-way execution**
(Section 3.2): the cluster is reconstructed forward and backward, and the
first half of the forward estimate is concatenated with the first half of
the backward estimate.  Alignment drift therefore propagates toward the
*middle* of the strand, which is why post-reconstruction Hamming error
curves for BMA are symmetric and A-shaped (Fig. 3.4c) — and why BMA keeps
high fidelity at the terminal positions (Section 3.4.2).

:func:`bma_forward_pass` is the per-cluster reference.
:meth:`BMALookahead.reconstruct_many` runs the same rules for a block of
clusters at once (:func:`_lockstep`): every copy of every cluster is one
row of a rank buffer, and each output position is a fixed handful of
NumPy operations over all rows.  Outputs are identical (DESIGN §16).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.align.kernels import compact_code_points
from repro.reconstruct.base import (
    Reconstructor,
    majority_symbol,
    reconstruct_in_blocks,
)


def _fallback_base(copies: Sequence[str]) -> str:
    """Pad symbol when every copy is exhausted: the globally most common
    base among the copies (deterministic tie-break)."""
    counts = Counter()
    for copy in copies:
        counts.update(copy)
    if not counts:
        return "A"
    best = max(counts.values())
    return min(base for base, count in counts.items() if count == best)


def bma_forward_pass(copies: Sequence[str], strand_length: int) -> str:
    """One forward BMA pass: plurality vote plus look-ahead re-alignment.

    For every output position the copies vote with their pointed-at
    symbols; the plurality symbol is emitted.  A *preview* of the next
    output symbol is taken from the agreeing copies' following symbols,
    and each dissenting copy is classified with it:

    * **insertion** — the copy's next symbol matches the majority (and the
      symbol after that is consistent with the preview): the current
      symbol is spurious, skip both;
    * **deletion** — the copy's current symbol matches the *preview*: the
      majority symbol is missing from this copy, keep the pointer;
    * **substitution** — the copy's next symbol matches the preview:
      consume one symbol;
    * otherwise fall back to a remaining-length heuristic (a copy with a
      symbol deficit is assumed to carry a deletion).

    Always returns exactly ``strand_length`` characters (padded with the
    cluster's most common base if every copy runs out).
    """
    if not copies:
        return ""
    pointers = [0] * len(copies)
    estimate: list[str] = []
    pad = None
    for position in range(strand_length):
        symbols = [
            copy[pointer]
            for copy, pointer in zip(copies, pointers)
            if pointer < len(copy)
        ]
        if not symbols:
            if pad is None:
                pad = _fallback_base(copies)
            estimate.append(pad)
            continue
        majority = majority_symbol(symbols)
        estimate.append(majority)
        # Preview of the next output symbol, from agreeing copies only.
        next_symbols = [
            copy[pointer + 1]
            for copy, pointer in zip(copies, pointers)
            if pointer < len(copy)
            and copy[pointer] == majority
            and pointer + 1 < len(copy)
        ]
        preview = majority_symbol(next_symbols) if next_symbols else None
        remaining_target = strand_length - position - 1
        for index, copy in enumerate(copies):
            pointer = pointers[index]
            if pointer >= len(copy):
                continue
            if copy[pointer] == majority:
                pointers[index] = pointer + 1
                continue
            if pointer + 1 < len(copy) and copy[pointer + 1] == majority:
                # Insertion hypothesis: spurious symbol before the majority
                # symbol.  Confirm against the preview when possible — a
                # repeated symbol that contradicts the preview suggests a
                # run shift, not an insertion.
                after = copy[pointer + 2] if pointer + 2 < len(copy) else None
                if (
                    preview is None
                    or after is None
                    or after == preview
                    or after != copy[pointer + 1]
                ):
                    pointers[index] = pointer + 2
                    continue
            if preview is not None:
                if copy[pointer] == preview:
                    # Deletion: the current symbol belongs to the next
                    # output position.
                    continue
                if pointer + 1 < len(copy) and copy[pointer + 1] == preview:
                    pointers[index] = pointer + 1  # substitution
                    continue
            remaining_copy = len(copy) - pointer
            if remaining_copy <= remaining_target:
                # Symbol deficit: assume the majority symbol was deleted.
                continue
            pointers[index] = pointer + 1  # substitution
    return "".join(estimate)


class BMALookahead(Reconstructor):
    """Two-way BMA with look-ahead — the paper's "BMA" (Sections 3.1-3.4).

    Args:
        two_way: when True (default, as evaluated in the paper) combine a
            forward and a backward pass at the strand midpoint; when False
            return the plain forward pass (used by sensitivity studies of
            the two-way mechanism itself).
    """

    def __init__(self, two_way: bool = True) -> None:
        self.two_way = two_way
        self.name = "BMA" if two_way else "BMA (one-way)"

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        forward = bma_forward_pass(copies, strand_length)
        if not self.two_way:
            return forward
        reversed_copies = [copy[::-1] for copy in copies]
        backward = bma_forward_pass(reversed_copies, strand_length)[::-1]
        front_half = (strand_length + 1) // 2
        return forward[:front_half] + backward[front_half:]

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Reconstruct every cluster with the lockstep kernel, one block
        of :data:`~repro.reconstruct.base.BLOCK_CLUSTERS` clusters at a
        time; the estimates equal :meth:`reconstruct`'s."""
        if strand_length < 1:
            return super().reconstruct_many(copies_lists, strand_length)
        return reconstruct_in_blocks(
            lambda block: _lockstep(block, strand_length, self.two_way),
            copies_lists,
        )


def _plurality(votes: np.ndarray, n_passes: int) -> np.ndarray:
    """Per pass, the smallest rank with the most votes (0 = no votes)."""
    votes = votes.reshape(n_passes, -1)
    votes[:, 0] = 0
    return votes.argmax(axis=1)


def _lockstep(
    copies_lists: list[Sequence[str]], strand_length: int, two_way: bool
) -> list[str]:
    """:func:`bma_forward_pass` for every cluster of a block at once,
    two-way merged when ``two_way`` (as :meth:`BMALookahead.reconstruct`).

    Each pass (a cluster forward, or a cluster's reversed copies) owns
    one row per copy in a rank buffer: rank 0 past a copy's end, else
    1 + the symbol's place in the block's sorted alphabet, so the
    first-maximum ``argmax`` of a vote count is :func:`majority_symbol`'s
    smallest-symbol tie-break.  A row's pointer is a flat index into the
    buffer.  Position ``t`` of an estimate depends only on positions
    before it, so a two-way block runs only the ``ceil(L / 2)`` positions
    its merge keeps from each direction.
    """
    n_clusters = len(copies_lists)
    steps = (strand_length + 1) // 2 if two_way else strand_length
    copies = [copy for cluster in copies_lists for copy in cluster]
    lengths = np.fromiter(map(len, copies), dtype=np.int64, count=len(copies))
    pass_of_row = np.repeat(
        np.arange(n_clusters), [len(cluster) for cluster in copies_lists]
    )
    # Pointers move at most two symbols per position, so no read passes
    # column 2 * steps: a longer copy keeps only the symbols its pass
    # can reach (its true length still drives the deficit rule).
    width = min(int(lengths.max(initial=0)) + 2, 2 * steps) + 1
    points = [compact_code_points("".join(copy[:width] for copy in copies))]
    if two_way:
        # The reversed concatenation holds every reversed copy, the last
        # copy first, so the backward rows run in reverse copy order.
        points.append(
            compact_code_points("".join(copy[-width:] for copy in copies)[::-1])
        )
        pass_of_row = np.concatenate([pass_of_row, pass_of_row[::-1] + n_clusters])
        lengths = np.concatenate([lengths, lengths[::-1]])
    top = max(int(part.max(initial=0)) for part in points)
    present = np.zeros(top + 1, dtype=bool)
    for part in points:
        present[part] = True
    alphabet = np.flatnonzero(present)
    n_symbols = len(alphabet)
    n_passes = n_clusters * (2 if two_way else 1)
    dtype = np.min_scalar_type(n_symbols)
    rank_of = np.zeros(len(present), dtype=dtype)
    rank_of[alphabet] = np.arange(1, n_symbols + 1)
    buffer = np.zeros((len(lengths), width), dtype=dtype)
    stored = np.minimum(lengths, width)
    for index, part in enumerate(points):
        rows = slice(index * len(copies), (index + 1) * len(copies))
        buffer[rows][np.arange(width) < stored[rows, None]] = rank_of[part]
    flat = buffer.reshape(-1)
    pointer = np.arange(len(lengths), dtype=np.int64) * width
    end = pointer + lengths
    vote_base = pass_of_row * (n_symbols + 1)
    n_cells = n_passes * (n_symbols + 1)

    estimate = np.empty((steps, n_passes), dtype=np.int64)
    for position in range(steps):
        current = flat[pointer]
        following = flat[pointer + 1]
        after = flat[pointer + 2]
        votes = np.bincount(vote_base + current, minlength=n_cells)
        estimate[position] = majority = _plurality(votes, n_passes)
        majority = majority.astype(dtype)[pass_of_row]
        agree = current == majority
        votes = np.bincount(vote_base + following * agree, minlength=n_cells)
        preview = _plurality(votes, n_passes).astype(dtype)[pass_of_row]
        # The rules of bma_forward_pass, first match wins.  Rank 0 is
        # both "past the end" and "no preview", and an exhausted row
        # (current == 0) matches no majority of a pass that still votes.
        insertion = (following == majority) & (
            (preview == 0) | (after == 0) | (after == preview) | (after != following)
        )
        deletion = current == preview
        substitution = (following == preview) & (following != 0)
        surplus = end - pointer > strand_length - position - 1
        stay = ~(agree | insertion) & (deletion | ~(substitution | surplus))
        pointer += (current != 0) & ~stay
        pointer += insertion & ~agree

    if two_way:
        back = estimate[: strand_length - steps, n_clusters:][::-1]
        estimate = np.concatenate([estimate[:, :n_clusters], back])
    estimate = estimate.T
    chars = np.concatenate([[0], alphabet])[estimate]
    exhausted = estimate == 0
    for cluster in np.flatnonzero(exhausted.any(axis=1)):
        chars[cluster, exhausted[cluster]] = ord(_fallback_base(copies_lists[cluster]))
    text = chars.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return [
        text[start : start + strand_length]
        for start in range(0, len(text), strand_length)
    ]
