"""Divider BMA: length-partitioned majority (Sabary et al.).

Divider BMA partitions the cluster by copy length relative to the design
length L: copies of length exactly L carry no *net* indels, so a plain
per-position majority over just those copies should (in theory) only have
to out-vote substitutions.  Copies of other lengths are set aside; if no
copy has length exactly L the algorithm falls back to a two-way BMA pass
over the whole cluster.

In practice the exact-length subset is small under realistic error rates
and often contains *compensating* indel pairs (a deletion plus an
insertion elsewhere) that shift whole segments — which is why the paper
measures strikingly poor per-strand accuracy for DivBMA on the Nanopore
dataset (Table 2.1: 2.73% on real data, under 4% on every simulated
dataset).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.reconstruct.base import Reconstructor, majority_symbol
from repro.reconstruct.bma import BMALookahead


class DividerBMA(Reconstructor):
    """Length-partitioned majority with a BMA fallback."""

    name = "DivBMA"

    def __init__(self) -> None:
        self._fallback = BMALookahead(two_way=True)

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        exact_length = [copy for copy in copies if len(copy) == strand_length]
        if not exact_length:
            return self._fallback.reconstruct(copies, strand_length)
        return "".join(
            majority_symbol([copy[position] for copy in exact_length])
            for position in range(strand_length)
        )

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Reconstruct every cluster, in order, as :meth:`reconstruct`
        does, with every BMA fallback of the batch in one
        :meth:`BMALookahead.reconstruct_many` call."""
        estimates = [""] * len(copies_lists)
        fallback: list[int] = []
        for index, copies in enumerate(copies_lists):
            if not copies:
                continue
            if any(len(copy) == strand_length for copy in copies):
                estimates[index] = self.reconstruct(copies, strand_length)
            else:
                fallback.append(index)
        results = self._fallback.reconstruct_many(
            [copies_lists[index] for index in fallback], strand_length
        )
        for index, estimate in zip(fallback, results):
            estimates[index] = estimate
        return estimates
