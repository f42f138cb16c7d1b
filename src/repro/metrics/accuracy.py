"""Reconstruction-accuracy metrics: the paper's key evaluation criterion.

Section 3.1 (metric 4) argues that a simulator should be judged by the
difference in trace-reconstruction accuracy between simulated and real
data, and defines:

* **per-strand accuracy** — the percentage of reference strands
  reconstructed without any error;
* **per-character accuracy** — the percentage of reference characters
  reconstructed with the correct base at the correct position.

Erasure clusters (no copies) count as fully failed reconstructions: the
strand was lost, so none of its characters were recovered.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.align.edit_distance import edit_distance
from repro.core.strand import StrandPool
from repro.reconstruct.base import Reconstructor


@dataclass
class AccuracyTally:
    """Mergeable accuracy counts — the sharded counterpart of
    :class:`AccuracyReport`.

    Both paper metrics are ratios of pure counts, so per-shard tallies
    merge associatively into exactly the counts a single pass over the
    whole pool would produce — the property the sharded pipeline
    (:mod:`repro.sharding`) relies on to score shard by shard without
    ever holding every estimate at once.
    """

    n_clusters: int = 0
    n_perfect: int = 0
    total_characters: int = 0
    correct_characters: int = 0

    def update(self, reference: str, estimate: str) -> None:
        """Tally one (reference, estimate) pair."""
        self.n_clusters += 1
        if reference == estimate:
            self.n_perfect += 1
        self.total_characters += len(reference)
        shared = min(len(reference), len(estimate))
        self.correct_characters += sum(
            1
            for position in range(shared)
            if reference[position] == estimate[position]
        )

    def update_many(
        self, references: Sequence[str], estimates: Sequence[str]
    ) -> None:
        """Tally every pair; lengths must match."""
        if len(references) != len(estimates):
            raise ValueError(
                f"{len(references)} references but {len(estimates)} estimates"
            )
        for reference, estimate in zip(references, estimates):
            self.update(reference, estimate)

    def merge(self, other: "AccuracyTally") -> None:
        """Fold another tally into this one (pure count addition)."""
        self.n_clusters += other.n_clusters
        self.n_perfect += other.n_perfect
        self.total_characters += other.total_characters
        self.correct_characters += other.correct_characters

    def report(self) -> "AccuracyReport":
        """The percentages the paper's tables report, from the counts."""
        per_strand = (
            100.0 * self.n_perfect / self.n_clusters if self.n_clusters else 0.0
        )
        per_character = (
            100.0 * self.correct_characters / self.total_characters
            if self.total_characters
            else 0.0
        )
        return AccuracyReport(
            per_strand=per_strand,
            per_character=per_character,
            n_clusters=self.n_clusters,
            n_perfect=self.n_perfect,
        )


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy of one reconstruction run over a pool.

    Percentages are in [0, 100], matching the paper's tables.
    """

    per_strand: float
    per_character: float
    n_clusters: int
    n_perfect: int

    def __str__(self) -> str:
        return (
            f"per-strand {self.per_strand:.2f}%  "
            f"per-char {self.per_character:.2f}%  "
            f"({self.n_perfect}/{self.n_clusters} strands perfect)"
        )


def per_strand_accuracy(
    references: Sequence[str], estimates: Sequence[str]
) -> float:
    """Percentage of strands reconstructed exactly (paper definition)."""
    if len(references) != len(estimates):
        raise ValueError(
            f"{len(references)} references but {len(estimates)} estimates"
        )
    if not references:
        return 0.0
    perfect = sum(
        1
        for reference, estimate in zip(references, estimates)
        if reference == estimate
    )
    return 100.0 * perfect / len(references)


def per_character_accuracy(
    references: Sequence[str], estimates: Sequence[str]
) -> float:
    """Percentage of reference characters with the correct base at the
    correct position in the estimate (paper definition)."""
    if len(references) != len(estimates):
        raise ValueError(
            f"{len(references)} references but {len(estimates)} estimates"
        )
    total_characters = sum(len(reference) for reference in references)
    if total_characters == 0:
        return 0.0
    correct = 0
    for reference, estimate in zip(references, estimates):
        shared = min(len(reference), len(estimate))
        correct += sum(
            1
            for position in range(shared)
            if reference[position] == estimate[position]
        )
    return 100.0 * correct / total_characters


def mean_reconstruction_edit_distance(
    references: Sequence[str], estimates: Sequence[str]
) -> float:
    """Mean edit distance between each reference and its reconstruction.

    A softer companion to :func:`per_strand_accuracy` (which only counts
    perfect strands): it quantifies *how far* imperfect reconstructions
    land from their references.  Distances run on the bit-parallel
    alignment kernel, so scoring a large evaluation sweep costs a
    fraction of the reference DP.  0.0 for empty input.
    """
    if len(references) != len(estimates):
        raise ValueError(
            f"{len(references)} references but {len(estimates)} estimates"
        )
    if not references:
        return 0.0
    total = sum(
        edit_distance(reference, estimate)
        for reference, estimate in zip(references, estimates)
    )
    return total / len(references)


def evaluate_reconstruction(
    pool: StrandPool,
    reconstructor: Reconstructor,
    strand_length: int | None = None,
) -> AccuracyReport:
    """Run a reconstructor over a pool and score it against the references.

    Args:
        pool: pseudo-clustered dataset.
        reconstructor: the algorithm under test.
        strand_length: design length; defaults to the first reference's
            length (the paper's datasets have constant-length references).
    """
    if strand_length is None:
        if not pool.clusters:
            raise ValueError("cannot infer strand length from an empty pool")
        strand_length = len(pool.clusters[0].reference)
    estimates = reconstructor.reconstruct_pool(pool, strand_length)
    tally = AccuracyTally()
    tally.update_many(pool.references, estimates)
    return tally.report()
