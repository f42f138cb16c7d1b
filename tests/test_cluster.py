"""Unit and behavioural tests for the clustering subsystem."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.cluster.greedy import GreedyClusterer
from repro.cluster.pseudo import (
    cluster_size_histogram,
    clustering_accuracy,
    flatten_with_labels,
    rebuild_pool,
    shuffle_reads,
)
from repro.cluster.qgram_index import QGramIndex, build_index, qgrams
from repro.core.errors import ErrorModel
from repro.core.simulator import Simulator
from repro.core.coverage import ConstantCoverage
from repro.data.nanopore import make_nanopore_dataset


class TestQGrams:
    def test_qgrams_enumerates_substrings(self):
        assert qgrams("ACGTA", 3) == {"ACG", "CGT", "GTA"}

    def test_short_sequence_is_its_own_gram(self):
        assert qgrams("AC", 5) == {"AC"}

    def test_empty_sequence_no_grams(self):
        assert qgrams("", 3) == set()

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            qgrams("ACGT", 0)


class TestQGramIndex:
    def test_identical_reads_share_buckets(self):
        index = QGramIndex(q=4, bands=2)
        index.add(0, "ACGTACGTACGT")
        assert 0 in index.candidates("ACGTACGTACGT")

    def test_similar_reads_usually_collide(self, rng):
        from repro.core.alphabet import random_strand

        index = QGramIndex(q=8, bands=4)
        hits = 0
        for read_index in range(50):
            reference = random_strand(110, rng)
            # A noisy copy: one deletion.
            position = rng.randrange(len(reference))
            noisy = reference[:position] + reference[position + 1 :]
            index.add(read_index, reference)
            if read_index in index.candidates(noisy):
                hits += 1
        assert hits >= 45  # near-certain collision for one edit

    def test_unrelated_reads_rarely_collide(self, rng):
        from repro.core.alphabet import random_strand

        index = QGramIndex(q=11, bands=4)
        index.add(0, random_strand(110, rng))
        collisions = sum(
            1
            for _ in range(50)
            if 0 in index.candidates(random_strand(110, rng))
        )
        assert collisions <= 5

    def test_signature_deterministic_across_instances(self):
        first = QGramIndex(q=5, bands=3).signature("ACGTACGTAA")
        second = QGramIndex(q=5, bands=3).signature("ACGTACGTAA")
        assert first == second

    def test_candidate_pairs_deduplicated(self):
        index = build_index(["ACGTACGT", "ACGTACGT", "ACGTACGT"], q=4, bands=3)
        pairs = list(index.candidate_pairs())
        assert len(pairs) == len(set(pairs)) == 3

    def test_len_counts_reads(self):
        index = build_index(["ACGT", "TTTT"], q=2)
        assert len(index) == 2

    def test_invalid_bands_raises(self):
        with pytest.raises(ValueError):
            QGramIndex(bands=0)

    @pytest.mark.parametrize("q", [0, -1])
    def test_invalid_q_raises(self, q):
        with pytest.raises(ValueError, match=f"q must be >= 1, got {q}"):
            QGramIndex(q=q)

    def test_empty_reads_never_collide(self):
        """Regression: empty reads used to sign bucket 0 in every band,
        colliding with each other and with any read whose min-hash was
        genuinely 0.  They now carry a sentinel signature and are never
        bucketed."""
        from repro.cluster.qgram_index import EMPTY_SIGNATURE

        index = QGramIndex(q=4, bands=3)
        assert index.signature("") == [EMPTY_SIGNATURE] * 3
        index.add(0, "")
        index.add(1, "")
        index.add(2, "ACGTACGTACGT")
        assert index.candidates("") == set()
        assert 0 not in index.candidates("ACGTACGTACGT")
        assert len(index) == 3  # still counted as added reads
        # No bucket anywhere contains the empty reads.
        assert all(
            0 not in members and 1 not in members
            for band in index._buckets
            for members in band.values()
        )
        assert list(index.candidate_pairs()) == []

    def test_short_reads_still_indexed(self):
        index = QGramIndex(q=8, bands=2)
        index.add(0, "ACG")  # shorter than q: the read is its own gram
        assert 0 in index.candidates("ACG")


class TestGreedyClusterer:
    @pytest.fixture(scope="class")
    def noisy_reads(self):
        simulator = Simulator(
            ErrorModel.uniform(0.05), ConstantCoverage(6), seed=21
        )
        pool = simulator.simulate_random(30, 110)
        reads = flatten_with_labels(pool)
        return pool, shuffle_reads(reads, random.Random(5))

    def test_recovers_clusters_with_high_purity(self, noisy_reads):
        _pool, reads = noisy_reads
        result = GreedyClusterer().cluster([read.sequence for read in reads])
        accuracy = clustering_accuracy(result.assignments, reads)
        assert accuracy > 0.95

    def test_cluster_count_close_to_truth(self, noisy_reads):
        pool, reads = noisy_reads
        result = GreedyClusterer().cluster([read.sequence for read in reads])
        # Mild over-fragmentation is inherent to greedy clustering (an
        # outlier read can found a cluster the index never re-links).
        assert len(pool) <= result.n_clusters <= len(pool) * 1.25

    def test_index_prunes_comparisons(self, noisy_reads):
        _pool, reads = noisy_reads
        result = GreedyClusterer().cluster([read.sequence for read in reads])
        n_reads = len(reads)
        assert result.comparisons < n_reads * (n_reads - 1) // 4

    def test_empty_input(self):
        result = GreedyClusterer().cluster([])
        assert result.assignments == []
        assert result.n_clusters == 0

    def test_cluster_sequences_partition_input(self, noisy_reads):
        _pool, reads = noisy_reads
        sequences = [read.sequence for read in reads]
        clusters = GreedyClusterer().cluster_sequences(sequences)
        assert sorted(sum(clusters, [])) == sorted(sequences)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            GreedyClusterer(distance_threshold=-1)

    @pytest.mark.parametrize(
        ("parameters", "message"),
        [
            ({"q": 0}, "q must be >= 1, got 0"),
            ({"q": -1}, "q must be >= 1, got -1"),
            ({"bands": 0}, "bands must be >= 1, got 0"),
            ({"bands": -2}, "bands must be >= 1, got -2"),
        ],
    )
    def test_invalid_index_parameters(self, parameters, message):
        """Rejected at construction, before any read is clustered (``q=0``
        used to make every read a candidate of every other)."""
        with pytest.raises(ValueError, match=message):
            GreedyClusterer(**parameters)

    def test_memory_follows_the_block_not_the_readout(self):
        """Greedy signs each sweep block as it reaches it, so its peak
        memory on 4x the reads stays under 3x: the blocks stop growing
        at ``LAST_BLOCK`` reads.  Signing the whole read-out up front
        read 4.0x here (9.9 MB at 1,500 reads, 39.7 MB at 6,000)."""
        pool = make_nanopore_dataset(n_clusters=260, seed=2)
        reads = shuffle_reads(flatten_with_labels(pool), random.Random(2))
        sequences = [read.sequence for read in reads]
        peaks = []
        for n_reads in (1_500, 6_000):
            tracemalloc.start()
            try:
                GreedyClusterer().cluster(sequences[:n_reads])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], peaks


class TestPseudoHelpers:
    def test_flatten_with_labels(self, small_pool):
        reads = flatten_with_labels(small_pool)
        assert len(reads) == small_pool.total_copies
        assert reads[0].true_cluster == 0

    def test_clustering_accuracy_perfect(self, small_pool):
        reads = flatten_with_labels(small_pool)
        assignments = [read.true_cluster for read in reads]
        assert clustering_accuracy(assignments, reads) == 1.0

    def test_clustering_accuracy_single_blob(self, small_pool):
        reads = flatten_with_labels(small_pool)
        assignments = [0] * len(reads)
        # The blob maps to the biggest true cluster (4 of 6 reads).
        assert clustering_accuracy(assignments, reads) == pytest.approx(4 / 6)

    def test_clustering_accuracy_length_mismatch(self, small_pool):
        reads = flatten_with_labels(small_pool)
        with pytest.raises(ValueError):
            clustering_accuracy([0], reads)

    def test_size_histogram(self):
        assert cluster_size_histogram([0, 0, 1, 2, 2, 2]) == {1: 1, 2: 1, 3: 1}

    def test_rebuild_pool_routes_copies(self, small_pool):
        reads = flatten_with_labels(small_pool)
        assignments = [read.true_cluster for read in reads]
        rebuilt = rebuild_pool(assignments, reads, small_pool)
        assert rebuilt.references == small_pool.references
        assert rebuilt[0].coverage == small_pool[0].coverage
