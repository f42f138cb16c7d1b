"""Greedy edit-distance clustering of an unordered read-out.

The imperfect-clustering path of Section 3.1: reads are grouped by edit-
distance similarity under the assumption that similar reads are noisy
copies of the same reference strand (Section 1.1.2).  The algorithm is a
single greedy sweep — each read joins the first existing cluster whose
representative is within the distance threshold, else founds a new
cluster — with a q-gram min-hash index supplying candidate clusters so
the sweep stays near-linear instead of quadratic.

Clustering "might itself be imperfect" (Section 1.1.2): a noisy copy can
land in the wrong cluster or found a spurious one.  The quality metrics
in :mod:`repro.cluster.pseudo` quantify exactly that against ground
truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.align.kernels import CompiledPattern
from repro.cluster.qgram_index import QGramIndex
from repro.observability import counter, span


@dataclass
class GreedyClusteringResult:
    """Outcome of a greedy clustering sweep.

    Attributes:
        assignments: predicted cluster index per read, in input order.
        representatives: the founding read of each predicted cluster.
        comparisons: exact distance computations performed (the quantity
            the q-gram index exists to minimise).
    """

    assignments: list[int]
    representatives: list[str]
    comparisons: int = 0
    members: list[list[int]] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(self.representatives)


class GreedyClusterer:
    """Near-linear greedy clustering with a q-gram candidate index.

    Args:
        distance_threshold: maximum edit distance between a read and a
            cluster representative for the read to join the cluster.  For
            length-110 strands at ~6% error, copies of one reference are
            typically within ~2 * 0.06 * 110 = 13 edits of each other;
            the default 25 leaves margin for noisy outliers while random
            strands sit at distance ~60+.
        q / bands: q-gram index parameters.  The defaults (8, 8) keep the
            candidate-miss probability for same-cluster reads around a
            percent at Nanopore-scale error rates; a larger ``q`` prunes
            more pairs but loses recall as errors break long grams.
    """

    def __init__(
        self, distance_threshold: int = 25, q: int = 8, bands: int = 8
    ) -> None:
        if distance_threshold < 0:
            raise ValueError(
                f"distance_threshold must be non-negative, got {distance_threshold}"
            )
        self.distance_threshold = distance_threshold
        self.q = q
        self.bands = bands

    def cluster(
        self,
        reads: Sequence[str],
        shards: int | None = None,
        workers: int | None = None,
    ) -> GreedyClusteringResult:
        """Cluster a read-out; returns assignments plus representatives.

        Two phases: a greedy sweep assigning each read to the closest
        candidate cluster (founding a new one when none is close), then a
        merge pass joining clusters whose representatives are within the
        threshold — the sweep alone fragments a true cluster whenever an
        early read misses the index's candidate buckets.

        The sweep is order-sensitive and global, so it always runs
        serially over the whole read-out: ``shards`` and ``workers`` are
        accepted for call-site compatibility with the other pipeline
        stages and ignored, and neither they nor ``REPRO_SHARDS`` change
        the result.
        """
        with span("cluster.greedy", reads=len(reads)) as current_span:
            result = self._cluster(reads)
            counter("cluster.assignments").inc(len(result.assignments))
            counter("cluster.comparisons").inc(result.comparisons)
            if current_span is not None:
                current_span.set(
                    clusters=result.n_clusters, comparisons=result.comparisons
                )
            return result

    def _cluster(self, reads: Sequence[str]) -> GreedyClusteringResult:
        index = QGramIndex(q=self.q, bands=self.bands)
        # One pool-wide FNV-1a sweep for every read's q-gram signature
        # up front — the sweep then reuses each signature twice (candidate
        # lookup and bucket registration) instead of hashing per call.
        signatures = index.signatures(list(reads))
        assignments: list[int] = []
        representatives: list[str] = []
        # Each representative compiled once, when its cluster is founded:
        # every later read that names the cluster as a candidate reuses
        # its lane masks, and so does the merge pass.
        compiled: list[CompiledPattern] = []
        members: list[list[int]] = []
        comparisons = 0
        for read_position, read in enumerate(reads):
            best_cluster = -1
            best_distance = self.distance_threshold + 1
            candidate_clusters = list(
                {
                    assignments[candidate]
                    for candidate in index.candidates(
                        read, signature=signatures[read_position]
                    )
                }
            )
            # The read is swept once against every candidate
            # representative, each a lane of one banded one-vs-many call
            # (the sweep's hot path); iteration order and the strict <
            # first-minimum tie-break match a one-at-a-time loop exactly.
            pattern = CompiledPattern(read)
            if candidate_clusters:
                comparisons += len(candidate_clusters)
                distances = pattern.banded_distances(
                    [compiled[c] for c in candidate_clusters],
                    self.distance_threshold,
                )
                for cluster_index, distance in zip(candidate_clusters, distances):
                    if distance < best_distance:
                        best_distance = distance
                        best_cluster = cluster_index
            if best_cluster < 0:
                best_cluster = len(representatives)
                representatives.append(read)
                compiled.append(pattern)
                members.append([])
            assignments.append(best_cluster)
            members[best_cluster].append(read_position)
            index.add(read_position, read, signature=signatures[read_position])

        merged_assignments, merged_representatives, merge_comparisons = (
            self._merge_fragments(assignments, representatives, compiled)
        )
        merged_members: list[list[int]] = [
            [] for _ in range(len(merged_representatives))
        ]
        for read_position, cluster_index in enumerate(merged_assignments):
            merged_members[cluster_index].append(read_position)
        return GreedyClusteringResult(
            assignments=merged_assignments,
            representatives=merged_representatives,
            comparisons=comparisons + merge_comparisons,
            members=merged_members,
        )

    def _merge_fragments(
        self,
        assignments: list[int],
        representatives: list[str],
        compiled: list[CompiledPattern],
    ) -> tuple[list[int], list[str], int]:
        """Union clusters whose representatives are within the threshold
        (``compiled`` holds each representative's sweep-time pattern)."""
        n_clusters = len(representatives)
        parent = list(range(n_clusters))

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        representative_index = QGramIndex(q=self.q, bands=self.bands)
        rep_signatures = representative_index.signatures(representatives)
        comparisons = 0
        for cluster_index, representative in enumerate(representatives):
            # Distances to every candidate come from one packed banded
            # sweep of this representative; the union-find walk below then
            # consumes them in the original order.  A candidate already
            # unioned with this cluster wastes one precomputed distance,
            # but ``comparisons`` still counts exactly the pairs the
            # serial loop would have compared, and the union decisions
            # are unchanged.
            candidates = list(
                representative_index.candidates(
                    representative, signature=rep_signatures[cluster_index]
                )
            )
            distances = (
                compiled[cluster_index].banded_distances(
                    [compiled[c] for c in candidates],
                    self.distance_threshold,
                )
                if candidates
                else []
            )
            for candidate, distance in zip(candidates, distances):
                root_a, root_b = find(cluster_index), find(candidate)
                if root_a == root_b:
                    continue
                comparisons += 1
                if distance <= self.distance_threshold:
                    parent[root_a] = root_b
            representative_index.add(
                cluster_index,
                representative,
                signature=rep_signatures[cluster_index],
            )

        # Compact the surviving roots into dense cluster ids.
        root_to_dense: dict[int, int] = {}
        dense_representatives: list[str] = []
        for cluster_index in range(n_clusters):
            root = find(cluster_index)
            if root not in root_to_dense:
                root_to_dense[root] = len(dense_representatives)
                dense_representatives.append(representatives[root])
        dense_assignments = [
            root_to_dense[find(cluster_index)] for cluster_index in assignments
        ]
        return dense_assignments, dense_representatives, comparisons

    def cluster_sequences(self, reads: Sequence[str]) -> list[list[str]]:
        """Convenience: the clusters as lists of read sequences."""
        result = self.cluster(reads)
        return [
            [reads[read_index] for read_index in cluster]
            for cluster in result.members
        ]
