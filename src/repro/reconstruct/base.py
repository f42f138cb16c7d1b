"""Common interface for trace-reconstruction algorithms.

A DNA reconstruction algorithm receives the m noisy copies of a cluster
and produces an estimate of the original strand, aiming to minimise the
distance between the two (Section 1.1.2).  All algorithms here know the
design length L — DNA-storage strands have a fixed designed length, and
every published algorithm the paper evaluates exploits that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable, Sequence
from functools import partial
from itertools import chain

from repro.core.strand import Cluster, StrandPool
from repro.observability import counter, span
from repro.parallel import stream_chunks

#: Clusters per batched reconstruction: the block a lockstep kernel
#: holds at once (it bounds the kernel's buffers, DESIGN §16), and the
#: strands an archive survey sequences before each
#: :meth:`Reconstructor.reconstruct_many` call.
BLOCK_CLUSTERS = 64


class Reconstructor(ABC):
    """Reconstructs a strand estimate from a cluster of noisy copies."""

    #: Display name used in experiment tables.
    name: str = "reconstructor"

    @abstractmethod
    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        """Estimate the original strand of ``strand_length`` bases.

        Args:
            copies: the noisy copies of one cluster.  May be empty (an
                erasure); implementations must return ``""`` in that case.
            strand_length: the designed strand length L.
        """

    def reconstruct_cluster(self, cluster: Cluster, strand_length: int) -> str:
        """Reconstruct from a :class:`Cluster` (ignores its reference)."""
        return self.reconstruct(cluster.copies, strand_length)

    def reconstruct_many(
        self, copies_lists: Sequence[Sequence[str]], strand_length: int
    ) -> list[str]:
        """Reconstruct several clusters, in order: exactly
        ``[self.reconstruct(copies, strand_length) for copies in
        copies_lists]``.  Algorithms with a batched kernel override this
        (:class:`~repro.reconstruct.bma.BMALookahead`)."""
        return [self.reconstruct(copies, strand_length) for copies in copies_lists]

    def reconstruct_pool(
        self,
        pool: StrandPool,
        strand_length: int,
        workers: int | None = None,
        shards: int | None = None,
    ) -> list[str]:
        """Reconstruct every cluster of a pool, in order.

        Reconstruction is deterministic per cluster, so with
        ``workers > 1`` chunks of clusters are streamed through a process
        pool (:func:`repro.parallel.stream_chunks`) and the estimates
        concatenated in pool order — bit-identical to the serial pass,
        which hands the whole pool to one :meth:`reconstruct_many` call.
        Defined here at the base-class level so every algorithm (BMA,
        Divider BMA, Iterative, ...) inherits both paths.

        Args:
            pool: the clusters to reconstruct.
            strand_length: the designed strand length L.
            workers: worker processes (None -> ``REPRO_WORKERS``/CLI
                default; 0 -> all cores; <= 1 -> serial).
            shards: accepted for call-site compatibility and ignored;
                neither it nor ``REPRO_SHARDS`` changes the estimates.
        """
        with span("reconstruct", algorithm=self.name, clusters=len(pool)):
            counter("reconstruct.clusters", algorithm=self.name).inc(len(pool))
            per_chunk = stream_chunks(
                partial(_reconstruct_chunk, self, strand_length),
                [cluster.copies for cluster in pool],
                workers,
            )
            return list(chain.from_iterable(per_chunk))


def _reconstruct_chunk(
    reconstructor: "Reconstructor",
    strand_length: int,
    copies_lists: list[list[str]],
) -> list[str]:
    """Worker task for the pool pass: reconstruct one chunk."""
    return reconstructor.reconstruct_many(copies_lists, strand_length)


def reconstruct_in_blocks(
    kernel: Callable[[list[Sequence[str]]], list[str]],
    copies_lists: Sequence[Sequence[str]],
) -> list[str]:
    """The estimates of a lockstep ``kernel`` run on every block of
    :data:`BLOCK_CLUSTERS` non-empty clusters, in cluster order; an empty
    cluster's estimate is ``""``."""
    estimates = [""] * len(copies_lists)
    filled = [index for index, copies in enumerate(copies_lists) if copies]
    for start in range(0, len(filled), BLOCK_CLUSTERS):
        block = filled[start : start + BLOCK_CLUSTERS]
        results = kernel([copies_lists[index] for index in block])
        for index, estimate in zip(block, results):
            estimates[index] = estimate
    return estimates


def majority_symbol(symbols: Sequence[str]) -> str:
    """Plurality vote over single characters.

    Ties are broken toward the lexicographically smallest symbol so
    reconstruction is deterministic for a given cluster.
    """
    if not symbols:
        raise ValueError("cannot take a majority of zero symbols")
    counts = Counter(symbols)
    best_count = max(counts.values())
    return min(symbol for symbol, count in counts.items() if count == best_count)
