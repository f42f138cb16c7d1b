"""Per-position plurality voting, with no alignment at all.

The simplest possible consensus: position i of the estimate is the
plurality vote of position i across all copies.  Insertions and deletions
shift every downstream base of a copy, so this baseline degrades quickly
on IDS channels — it exists as the control that motivates alignment-aware
algorithms (all of Section 1.1.2's algorithms "require consensus or
majority voting for each position").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.align.kernels import compact_code_points
from repro.reconstruct.base import Reconstructor, majority_symbol, reconstruct_in_blocks

#: The most vote counters one block holds at once (clusters x positions
#: x alphabet, 8 bytes each: 2 MB).  A block whose alphabet is wider
#: votes cluster by cluster.
_VOTE_CELLS = 1 << 18


class PositionalMajority(Reconstructor):
    """Unaligned per-position majority vote."""

    name = "Majority"

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        estimate = []
        for position in range(strand_length):
            symbols = [copy[position] for copy in copies if position < len(copy)]
            if not symbols:
                break
            estimate.append(majority_symbol(symbols))
        return "".join(estimate)

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Every cluster's :meth:`reconstruct`, one block of clusters per
        vote (:meth:`_vote_block`)."""
        return reconstruct_in_blocks(
            lambda block: self._vote_block(block, strand_length), copies_lists
        )

    def _vote_block(
        self, copies_lists: list[Sequence[str]], strand_length: int
    ) -> list[str]:
        """:meth:`reconstruct` for a block of non-empty clusters, in one
        vote.

        Each copy is cut at ``strand_length`` and each symbol ranked in
        the block's sorted alphabet.  One ``bincount`` counts the votes of
        every (cluster, position, symbol) cell, and the first-maximum
        ``argmax`` over the ranks is :func:`majority_symbol`'s
        smallest-symbol tie-break.  A cluster's estimate runs to its
        longest cut copy, the first position no copy reaches.
        """
        copies = [copy[:strand_length] for cluster in copies_lists for copy in cluster]
        lengths = np.fromiter(map(len, copies), dtype=np.int64, count=len(copies))
        points = compact_code_points("".join(copies))
        alphabet, rank = _symbol_ranks(points)
        width = int(lengths.max(initial=0))
        n_clusters = len(copies_lists)
        n_cells = n_clusters * width * len(alphabet)
        if not n_cells:
            return [""] * n_clusters
        if n_cells > _VOTE_CELLS:
            return [self.reconstruct(copies, strand_length) for copies in copies_lists]
        copy_cluster = np.repeat(
            np.arange(n_clusters), [len(cluster) for cluster in copies_lists]
        )
        starts = np.cumsum(lengths) - lengths
        position = np.arange(len(points)) - np.repeat(starts, lengths)
        cell = np.repeat(copy_cluster, lengths) * width + position
        votes = np.bincount(cell * len(alphabet) + rank, minlength=n_cells)
        majority = alphabet[votes.reshape(n_clusters * width, -1).argmax(axis=1)]
        text = majority.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
        longest = np.zeros(n_clusters, dtype=np.int64)
        np.maximum.at(longest, copy_cluster, lengths)
        return [
            text[cluster * width : cluster * width + int(length)]
            for cluster, length in enumerate(longest)
        ]


def _symbol_ranks(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct code points of ``points`` and each point's
    place among them, as ``np.unique(points, return_inverse=True)``
    gives them; an ASCII block's points are counted instead of sorted,
    which halves the vote of the 5,500-read ``cluster_readout`` pool
    (14-19 against 28-38 ms on a 2-vCPU host)."""
    if len(points) and int(points.max()) < 128:
        present = np.bincount(points, minlength=128) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[points]
    return np.unique(points, return_inverse=True)
