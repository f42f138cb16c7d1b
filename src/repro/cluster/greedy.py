"""Greedy edit-distance clustering of an unordered read-out.

The imperfect-clustering path of Section 3.1: reads are grouped by edit-
distance similarity under the assumption that similar reads are noisy
copies of the same reference strand (Section 1.1.2).  The algorithm is a
single greedy sweep — each read joins the first existing cluster whose
representative is within the distance threshold, else founds a new
cluster — with a q-gram min-hash index supplying candidate clusters.
The index prunes most pairs, but not enough to make the work linear:
on the Nanopore-like read-outs of ``benchmarks/test_bench_cluster.py``
the comparisons per read grow with the read-out (7.4, 26.8 and 65.2 at
5,500, 22,000 and 55,000 reads), so the total stays quadratic.

The sweep's decisions are serial, but its distances are not: each
depends only on two strings.  Reads go through in blocks of
:data:`FIRST_BLOCK` doubling to :data:`LAST_BLOCK`; before the sweep
reaches a block, two lockstep distance calls
(:func:`repro.align.lockstep.lane_distances`) fetch the read–founder
distances it will most likely ask for, and it computes any other pair on
demand (:meth:`~repro.align.kernels.CompiledPattern.banded_distances`).
Every decision, and so every field of the result, is a read-by-read
sweep's.

Clustering "might itself be imperfect" (Section 1.1.2): a noisy copy can
land in the wrong cluster or found a spurious one.  The quality metrics
in :mod:`repro.cluster.pseudo` quantify exactly that against ground
truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.align.kernels import CompiledPattern
from repro.align.lockstep import lane_distances
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
    """Greedy clustering with a q-gram candidate index (whose comparisons
    per read still grow with the read-out: see the module docstring).

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
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
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
        assignments: list[int] = []
        # The founding read of each cluster (its representative), its
        # q-gram signature for the merge pass, and its pattern compiled
        # once for the distances the prefetch did not fill.
        founders: list[int] = []
        founder_signatures: list[list[int]] = []
        compiled: list[CompiledPattern] = []
        comparisons = 0
        for block_start, block_stop in _blocks(len(reads)):
            # One FNV-1a sweep signs the block's reads as the sweep
            # reaches it, so the signing arrays follow the block and not
            # the read-out; each signature then serves twice (candidate
            # lookup and bucket registration).  A read's signature does
            # not depend on the reads signed with it.
            signatures = index.signatures(reads[block_start:block_stop])
            # The index grows one read at a time, as in a read-by-read
            # sweep, and hands each read the very candidate set that
            # sweep would see: every read before it.  Only cluster
            # decisions wait for the sweep below.
            block_candidates = []
            for read_position, signature in enumerate(signatures, block_start):
                read = reads[read_position]
                block_candidates.append(index.candidates(read, signature=signature))
                index.add(read_position, read, signature=signature)
            # Distances depend only on the two strings, so filling them
            # ahead of the sweep changes none of its decisions.
            known = self._prefetch(
                reads, block_start, block_candidates, assignments, founders
            )
            for read_position, candidates in enumerate(block_candidates, block_start):
                read = reads[read_position]
                best_cluster = -1
                best_distance = self.distance_threshold + 1
                candidate_clusters = list(
                    {assignments[candidate] for candidate in candidates}
                )
                # Iteration order and the strict < first-minimum
                # tie-break match a one-at-a-time loop exactly.
                pattern = CompiledPattern(read)
                if candidate_clusters:
                    comparisons += len(candidate_clusters)
                    distances = _fill_missing(
                        pattern,
                        known.get(read_position, {}),
                        candidate_clusters,
                        founders,
                        compiled,
                        self.distance_threshold,
                    )
                    for cluster_index, distance in zip(candidate_clusters, distances):
                        if distance < best_distance:
                            best_distance = distance
                            best_cluster = cluster_index
                if best_cluster < 0:
                    best_cluster = len(founders)
                    founders.append(read_position)
                    founder_signatures.append(signatures[read_position - block_start])
                    compiled.append(pattern)
                assignments.append(best_cluster)

        merged_assignments, merged_representatives, merge_comparisons = (
            self._merge_fragments(
                reads, founder_signatures, assignments, founders, compiled
            )
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

    def _prefetch(
        self,
        reads: Sequence[str],
        block_start: int,
        block_candidates: list[set[int]],
        assignments: list[int],
        founders: list[int],
    ) -> dict[int, dict[int, int]]:
        """The distances the sweep over the block of reads from
        ``block_start`` (their candidate sets ``block_candidates``) will
        most likely ask for, as ``{read: {founder: distance}}`` (founders
        by read position), from two lockstep calls.

        Round 1: each read against the founders of its candidates before
        the block, whose clusters are settled.  Round 2: each read
        against the guessed founders of its candidates inside the block,
        a read's guess being its nearest round-1 founder within the
        threshold, else itself.  The sweep computes any other pair it
        meets on demand.
        """
        threshold = self.distance_threshold
        settled: dict[int, list[int]] = {}
        inside: dict[int, list[int]] = {}
        for read_position, candidates in enumerate(block_candidates, block_start):
            before = {
                founders[assignments[candidate]]
                for candidate in candidates
                if candidate < block_start
            }
            if before:
                settled[read_position] = list(before)
            within = [candidate for candidate in candidates if candidate >= block_start]
            if within:
                inside[read_position] = within
        known = _lane_table(reads, settled, threshold)

        guess = {}
        for read_position in range(block_start, block_start + len(block_candidates)):
            nearest = min(
                known.get(read_position, {}).items(),
                key=lambda item: item[1],
                default=(read_position, threshold + 1),
            )
            guess[read_position] = (
                nearest[0] if nearest[1] <= threshold else read_position
            )
        guessed = {}
        for read_position, candidates in inside.items():
            seen = known.get(read_position, {})
            wanted = {guess[candidate] for candidate in candidates} - seen.keys()
            if wanted:
                guessed[read_position] = list(wanted)
        for read_position, distances in _lane_table(reads, guessed, threshold).items():
            known.setdefault(read_position, {}).update(distances)
        return known

    def _merge_fragments(
        self,
        reads: Sequence[str],
        founder_signatures: list[list[int]],
        assignments: list[int],
        founders: list[int],
        compiled: list[CompiledPattern],
    ) -> tuple[list[int], list[str], int]:
        """Union clusters whose founding reads are within the threshold
        (``founder_signatures`` and ``compiled`` hold each founder's
        sweep-time signature and pattern, by cluster)."""
        n_clusters = len(founders)
        parent = list(range(n_clusters))

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        # Candidates come from an index that grows one representative at
        # a time and never from a union, so every pair is known up front
        # and its distance comes from one lockstep call.  A candidate
        # already unioned with this cluster wastes one distance, but
        # ``comparisons`` still counts exactly the pairs the serial loop
        # compares, and the union decisions are unchanged.
        representative_index = QGramIndex(q=self.q, bands=self.bands)
        candidate_lists: dict[int, list[int]] = {}
        for cluster_index, founder in enumerate(founders):
            representative = reads[founder]
            signature = founder_signatures[cluster_index]
            candidates = representative_index.candidates(
                representative, signature=signature
            )
            if candidates:
                candidate_lists[cluster_index] = list(candidates)
            representative_index.add(cluster_index, representative, signature=signature)
        lanes = {
            founders[cluster_index]: [founders[candidate] for candidate in candidates]
            for cluster_index, candidates in candidate_lists.items()
        }
        known = _lane_table(reads, lanes, self.distance_threshold)
        comparisons = 0
        for cluster_index, candidates in candidate_lists.items():
            distances = _fill_missing(
                compiled[cluster_index],
                known.get(founders[cluster_index], {}),
                candidates,
                founders,
                compiled,
                self.distance_threshold,
            )
            for candidate, distance in zip(candidates, distances):
                root_a, root_b = find(cluster_index), find(candidate)
                if root_a == root_b:
                    continue
                comparisons += 1
                if distance <= self.distance_threshold:
                    parent[root_a] = root_b

        # Compact the surviving roots into dense cluster ids.
        root_to_dense: dict[int, int] = {}
        dense_representatives: list[str] = []
        for cluster_index in range(n_clusters):
            root = find(cluster_index)
            if root not in root_to_dense:
                root_to_dense[root] = len(dense_representatives)
                dense_representatives.append(reads[founders[root]])
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


#: Reads per prefetched block: the first block, doubled block by block
#: up to the last size.  Early blocks found most clusters, so their
#: round-2 guesses miss the most; small blocks keep that waste small.
FIRST_BLOCK = 64
LAST_BLOCK = 1024


def _blocks(n_reads: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each prefetch block of ``n_reads`` reads."""
    bounds = []
    start, size = 0, FIRST_BLOCK
    while start < n_reads:
        bounds.append((start, min(start + size, n_reads)))
        start += size
        size = min(2 * size, LAST_BLOCK)
    return bounds


def _lane_table(
    strings: Sequence[str], lanes: dict[int, list[int]], band: int
) -> dict[int, dict[int, int]]:
    """``{i: {j: distance}}``: the banded distance of ``strings[i]`` to
    ``strings[j]`` for every ``j`` of ``lanes[i]``, from one lockstep
    distance call (:func:`repro.align.lockstep.lane_distances`)."""
    if not lanes:
        return {}
    distances = lane_distances(
        [strings[first] for first in lanes],
        [[strings[second] for second in seconds] for seconds in lanes.values()],
        band,
    ).tolist()
    table = {}
    at = 0
    for first, seconds in lanes.items():
        table[first] = dict(zip(seconds, distances[at : at + len(seconds)]))
        at += len(seconds)
    return table


def _fill_missing(
    pattern: CompiledPattern,
    known: dict[int, int],
    clusters: list[int],
    founders: list[int],
    compiled: list[CompiledPattern],
    band: int,
) -> list[int]:
    """The banded distance of ``pattern`` to the representative of each
    of ``clusters``: from ``known`` (keyed by the clusters' ``founders``)
    and any ``known`` lacks from one
    :meth:`~repro.align.kernels.CompiledPattern.banded_distances` call
    over their ``compiled`` patterns, the reference path."""
    distances = [known.get(founders[cluster]) for cluster in clusters]
    missing = [slot for slot, distance in enumerate(distances) if distance is None]
    if missing:
        computed = pattern.banded_distances(
            [compiled[clusters[slot]] for slot in missing], band
        )
        for slot, distance in zip(missing, computed):
            distances[slot] = distance
    return distances
