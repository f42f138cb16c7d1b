"""Two-way Iterative reconstruction — the paper's proposed improvement.

Section 4.3 observes that the Iterative algorithm's weakness is its
one-directional error propagation and suggests "performing a two-way
reconstruction like BMA".  This module implements that proposal (the
repository's extension experiment E-X1): reconstruct the cluster forward
with the Iterative algorithm, reconstruct the reversed copies the same
way, build the BMA-style midpoint merge of the two, and return whichever
of the three candidates has the smallest total edit distance to the
cluster's copies.  The selection step also realises the paper's second
suggestion — "using heuristics to assign a higher weightage to noisy
copies that closely align with the partially reconstructed strand" —
in consensus-scoring form: the candidate that the copies collectively
support best wins.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.align.kernels import edit_distances_one_to_many
from repro.reconstruct.base import Reconstructor
from repro.reconstruct.iterative import IterativeReconstruction


class TwoWayIterative(Reconstructor):
    """Bidirectional Iterative reconstruction with consensus selection.

    Args:
        rounds: refinement rounds per direction (as in
            :class:`IterativeReconstruction`).
        seed: seed for alignment tie-breaking.
    """

    name = "Two-way Iterative"

    def __init__(self, rounds: int = 3, seed: int | None = None) -> None:
        self._inner = IterativeReconstruction(rounds=rounds, seed=seed)

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        forward = self._inner.reconstruct(copies, strand_length)
        reversed_copies = [copy[::-1] for copy in copies]
        backward = self._inner.reconstruct(reversed_copies, strand_length)[::-1]
        return self._select(copies, forward, backward, strand_length)

    def _select(
        self, copies: Sequence[str], forward: str, backward: str, strand_length: int
    ) -> str:
        """The candidate (forward, backward, or their midpoint merge) with
        the smallest total edit distance to the copies."""
        merged = self._merge(forward, backward, strand_length)

        candidates = [forward]
        if backward != forward:
            candidates.append(backward)
        if merged not in candidates:
            candidates.append(merged)
        if len(candidates) == 1:
            return forward
        return min(candidates, key=lambda candidate: self._score(candidate, copies))

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Reconstruct every cluster, in order, as :meth:`reconstruct`
        does: the forward and the reversed copies of the whole batch go
        through the inner :meth:`IterativeReconstruction.reconstruct_many`,
        then each cluster's candidates are merged and scored.  A seeded
        instance runs the per-cluster loop, whose draws alternate
        directions cluster by cluster."""
        if self._inner.rng is not None:
            return super().reconstruct_many(copies_lists, strand_length)
        forwards = self._inner.reconstruct_many(copies_lists, strand_length)
        backwards = self._inner.reconstruct_many(
            [[copy[::-1] for copy in copies] for copies in copies_lists],
            strand_length,
        )
        return [
            self._select(copies, forward, backward[::-1], strand_length)
            if copies
            else ""
            for copies, forward, backward in zip(copies_lists, forwards, backwards)
        ]

    @staticmethod
    def _merge(forward: str, backward: str, strand_length: int) -> str:
        """BMA-style join: first half of the forward pass, last half of the
        backward pass."""
        front_half = (strand_length + 1) // 2
        back_length = strand_length - front_half
        front = forward[:front_half]
        back = backward[len(backward) - back_length :] if back_length else ""
        return front + back

    @staticmethod
    def _score(candidate: str, copies: Sequence[str]) -> int:
        """Total edit distance from the candidate to every copy (one-vs-
        many kernel: the candidate's pattern masks are reused per copy)."""
        return sum(edit_distances_one_to_many(candidate, copies))
