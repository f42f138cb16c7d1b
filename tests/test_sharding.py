"""Tests for the sharding layer: plans, streaming IO, and stage equivalence.

The load-bearing invariant throughout is **shard-count invariance**:
streamed generation and the full-scale runner partition their work into
shards and must produce results bit-identical to the serial path, while
the in-memory stages (profile fits, reconstruction, curves, greedy
clustering, archive reads) ignore the shard count altogether — neither a
``shards`` argument nor ``REPRO_SHARDS`` may change their output.
"""

from __future__ import annotations

import filecmp
import random

import pytest

from repro.core.coverage import ConstantCoverage
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile
from repro.core.simulator import Simulator
from repro.core.strand import Cluster, StrandPool
from repro.data.io import PoolWriter, iter_pool, read_pool, write_pool
from repro.data.nanopore import (
    NanoporeParameters,
    ground_truth_model,
    iter_nanopore_clusters,
)
from repro.exceptions import ConfigError
from repro.experiments import ext_reliability
from repro.metrics.accuracy import AccuracyTally
from repro.metrics.curves import post_reconstruction_curves, pre_reconstruction_curves
from repro.parallel import FORCE_ENV
from repro.pipeline.storage import DNAArchive
from repro.reconstruct.majority import PositionalMajority
from repro.robustness import RetryPolicy
from repro.sharding import (
    batched,
    default_shards,
    resolve_shards,
    run_fullscale,
    set_default_shards,
    split_contiguous,
)


# --------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------- #


class TestShardPlan:
    def test_contiguous_concatenation_restores_order(self):
        for n_items, n_shards in [(0, 3), (7, 3), (12, 4), (5, 8)]:
            shards = split_contiguous(list(range(n_items)), n_shards)
            flattened = [index for bucket in shards for index in bucket]
            assert flattened == list(range(n_items))

    def test_shard_sizes_sum_to_items(self):
        shards = split_contiguous(list(range(31)), 6)
        assert sum(len(bucket) for bucket in shards) == 31

    def test_trailing_shards_are_empty(self):
        shards = split_contiguous(list(range(5)), 8)
        assert [len(bucket) for bucket in shards] == [1, 1, 1, 1, 1, 0, 0, 0]
        assert [len(bucket) for bucket in split_contiguous([], 3)] == [0, 0, 0]

    def test_split_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigError, match="n_shards"):
            split_contiguous([1, 2, 3], 0)


class TestBatched:
    def test_batches_preserve_order(self):
        assert list(batched(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_accepts_generators(self):
        assert list(batched((i for i in range(4)), 2)) == [[0, 1], [2, 3]]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(batched([1], 0))


class TestDefaultResolution:
    def test_resolve_none_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        set_default_shards(None)
        assert resolve_shards(None) == 1

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        set_default_shards(None)
        assert default_shards() == 4

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        set_default_shards(2)
        try:
            assert resolve_shards(None) == 2
        finally:
            set_default_shards(None)

    def test_malformed_env_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "not-a-number")
        set_default_shards(None)
        assert default_shards() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert resolve_shards(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="shards"):
            resolve_shards(0)
        with pytest.raises(ValueError, match="shards"):
            set_default_shards(0)


# --------------------------------------------------------------------- #
# Streaming IO
# --------------------------------------------------------------------- #


class TestPoolWriter:
    def test_byte_identical_to_write_pool(self, small_pool, tmp_path):
        whole = tmp_path / "whole.txt"
        streamed = tmp_path / "streamed.txt"
        write_pool(small_pool, whole)
        with PoolWriter(streamed) as writer:
            for cluster in small_pool:
                writer.write_cluster(cluster)
        assert filecmp.cmp(whole, streamed, shallow=False)

    def test_counts_clusters_and_copies(self, small_pool, tmp_path):
        with PoolWriter(tmp_path / "pool.txt") as writer:
            writer.write_all(small_pool)
        assert writer.n_clusters == len(small_pool)
        assert writer.n_copies == sum(len(c.copies) for c in small_pool)

    def test_iter_pool_roundtrip(self, small_pool, tmp_path):
        path = tmp_path / "pool.txt"
        write_pool(small_pool, path)
        clusters = list(iter_pool(path))
        assert [c.reference for c in clusters] == small_pool.references
        assert [c.copies for c in clusters] == [c.copies for c in small_pool]

    def test_iter_pool_matches_read_pool(self, small_pool, tmp_path):
        path = tmp_path / "pool.txt"
        write_pool(small_pool, path)
        streamed = StrandPool(list(iter_pool(path)))
        loaded = read_pool(path)
        assert streamed.references == loaded.references

    def test_iter_pool_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ACGT\nACGA\n")
        with pytest.raises(ValueError, match="separator"):
            list(iter_pool(path))


# --------------------------------------------------------------------- #
# Sharded generation
# --------------------------------------------------------------------- #


class TestShardedGeneration:
    def test_invariant_across_shard_counts(self):
        base = StrandPool(
            list(iter_nanopore_clusters(n_clusters=24, seed=11, shards=1))
        )
        for shards in (2, 5):
            other = StrandPool(
                list(iter_nanopore_clusters(n_clusters=24, seed=11, shards=shards))
            )
            assert other.references == base.references
            assert [c.copies for c in other] == [c.copies for c in base]

    def test_invariant_across_worker_counts(self, monkeypatch):
        base = StrandPool(
            list(iter_nanopore_clusters(n_clusters=16, seed=4, shards=2))
        )
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        parallel = StrandPool(
            list(
                iter_nanopore_clusters(n_clusters=16, seed=4, shards=2, workers=2)
            )
        )
        assert parallel.references == base.references
        assert [c.copies for c in parallel] == [c.copies for c in base]

    def test_iterator_matches_materialised(self):
        pool = StrandPool(
            list(iter_nanopore_clusters(n_clusters=12, seed=6, shards=3))
        )
        streamed = list(
            iter_nanopore_clusters(n_clusters=12, seed=6, shards=3)
        )
        assert [c.reference for c in streamed] == pool.references
        assert [c.copies for c in streamed] == [c.copies for c in pool]

    def test_seed_changes_data(self):
        a = StrandPool(list(iter_nanopore_clusters(n_clusters=6, seed=1, shards=2)))
        b = StrandPool(list(iter_nanopore_clusters(n_clusters=6, seed=2, shards=2)))
        assert a.references != b.references


# --------------------------------------------------------------------- #
# Stage equivalence: serial vs sharded
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def stage_pool() -> StrandPool:
    """A modest pool exercised by every stage-equivalence test below."""
    return StrandPool(
        list(iter_nanopore_clusters(n_clusters=30, seed=21, shards=1))
    )


class TestStageEquivalence:
    def test_profile_fit_streaming_matches_pool(self, stage_pool, monkeypatch):
        whole = ErrorProfile.from_pool(stage_pool, max_copies_per_cluster=3)
        streamed = ErrorProfile.from_clusters(
            iter(stage_pool), max_copies_per_cluster=3, batch_size=7
        )
        assert (
            streamed.statistics.substitution_pairs
            == whole.statistics.substitution_pairs
        )
        assert streamed.statistics.pair_count == whole.statistics.pair_count
        monkeypatch.setenv(FORCE_ENV, "1")
        pooled = ErrorProfile.from_clusters(
            iter(stage_pool), max_copies_per_cluster=3, workers=2, batch_size=7
        )
        assert pooled.statistics == whole.statistics

    def test_accuracy_tally_merge_matches_whole(self, stage_pool):
        estimates = PositionalMajority().reconstruct_pool(
            stage_pool, len(stage_pool.references[0])
        )
        whole = AccuracyTally()
        whole.update_many(stage_pool.references, estimates)
        left, right = AccuracyTally(), AccuracyTally()
        half = len(estimates) // 2
        left.update_many(stage_pool.references[:half], estimates[:half])
        right.update_many(stage_pool.references[half:], estimates[half:])
        left.merge(right)
        assert left.report() == whole.report()


# --------------------------------------------------------------------- #
# Simulator streaming
# --------------------------------------------------------------------- #


class TestSimulatorShards:
    def _simulator(self, per_cluster_seeds: bool) -> Simulator:
        return Simulator(
            ErrorModel.uniform(0.06),
            ConstantCoverage(4),
            seed=13,
            per_cluster_seeds=per_cluster_seeds,
        )

    def test_iter_shards_matches_simulate(self):
        references = [
            "".join(random.Random(i).choices("ACGT", k=60)) for i in range(18)
        ]
        simulator = self._simulator(per_cluster_seeds=True)
        whole = simulator.simulate(references)
        streamed = list(
            self._simulator(per_cluster_seeds=True).iter_shards(
                references, shards=4
            )
        )
        assert [c.reference for c in streamed] == whole.references
        assert [c.copies for c in streamed] == [c.copies for c in whole]

    @pytest.mark.parametrize("shards", (1, 3, 8))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_iter_shards_pool_matches_simulate(self, monkeypatch, workers, shards):
        monkeypatch.setenv(FORCE_ENV, "1")
        references = [
            "".join(random.Random(i).choices("ACGT", k=60)) for i in range(18)
        ]
        whole = self._simulator(per_cluster_seeds=True).simulate(references)
        streamed = list(
            self._simulator(per_cluster_seeds=True).iter_shards(
                references, shards=shards, workers=workers
            )
        )
        assert [c.reference for c in streamed] == whole.references
        assert [c.copies for c in streamed] == [c.copies for c in whole]

    def test_iter_shards_requires_per_cluster_seeds(self):
        simulator = self._simulator(per_cluster_seeds=False)
        with pytest.raises(ConfigError, match="per_cluster_seeds"):
            list(simulator.iter_shards(["ACGT" * 10]))


# --------------------------------------------------------------------- #
# Greedy clustering (documented approximation)
# --------------------------------------------------------------------- #


class TestClusteringIgnoresShards:
    def test_ambient_shard_count_never_changes_clustering(self, monkeypatch):
        """Greedy clustering is one global serial sweep: ``REPRO_SHARDS``
        (or a ``shards`` argument) must not change its output.  On this
        read-out a shard-local sweep found 61 clusters, the serial one
        65."""
        from repro.cluster.greedy import GreedyClusterer
        from repro.cluster.pseudo import flatten_with_labels, shuffle_reads
        from repro.data.nanopore import make_nanopore_dataset

        pool = make_nanopore_dataset(60, seed=3)
        reads = [
            read.sequence
            for read in shuffle_reads(flatten_with_labels(pool), random.Random(3))
        ][:1200]
        default = GreedyClusterer().cluster(reads)
        monkeypatch.setenv("REPRO_SHARDS", "4")
        ambient = GreedyClusterer().cluster(reads)
        explicit = GreedyClusterer().cluster(reads, shards=4, workers=2)
        for result in (ambient, explicit):
            assert result.assignments == default.assignments
            assert result.representatives == default.representatives
            assert result.comparisons == default.comparisons


# --------------------------------------------------------------------- #
# In-memory stages and archive reads ignore the shard count
# --------------------------------------------------------------------- #


def _with_ambient_shards(monkeypatch, run):
    """``run()`` with ``REPRO_SHARDS`` unset, then set to 4."""
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    set_default_shards(None)
    unset = run()
    monkeypatch.setenv("REPRO_SHARDS", "4")
    return unset, run()


class TestInMemoryStagesIgnoreShards:
    """A ``shards`` argument to an in-memory stage is accepted and
    ignored, and so is ``REPRO_SHARDS``: each result equals the one with
    the environment unset."""

    @staticmethod
    def _archive():
        archive = DNAArchive(seed=5)
        archive.write("f", bytes(range(256)) * 4)
        return archive

    def _archive_read(self, **kwargs):
        archive = self._archive()
        report = archive.read(
            "f", channel_model=ground_truth_model(), coverage=20, **kwargs
        )
        return report, archive.rng.getstate()

    def test_archive_read_ignores_shards(self, monkeypatch):
        """A sharded survey once reseeded per strand: on this file the
        serial read decodes with 11 erasures, and under
        ``REPRO_SHARDS=4`` it raised "9 erasures exceed 8 parity
        strands"."""
        unset, ambient = _with_ambient_shards(monkeypatch, self._archive_read)
        explicit = self._archive_read(shards=4, workers=1)
        assert unset[0].data == bytes(range(256)) * 4
        assert ambient == unset
        assert explicit == unset

    def test_archive_retrieve_ignores_shards(self, monkeypatch):
        def retrieve():
            archive = self._archive()
            result = archive.retrieve(
                "f",
                ground_truth_model(),
                coverage=3,
                retry=RetryPolicy(max_attempts=2),
            )
            return result, archive.rng.getstate()

        unset, ambient = _with_ambient_shards(monkeypatch, retrieve)
        assert len(unset[0].attempts) == 2
        assert ambient == unset

    def test_profile_fit_ignores_shards(self, stage_pool, monkeypatch):
        def fit(**kwargs):
            return ErrorProfile.from_pool(
                stage_pool, max_copies_per_cluster=3, **kwargs
            ).statistics

        unset, ambient = _with_ambient_shards(monkeypatch, fit)
        assert ambient == unset
        assert fit(shards=4) == unset

    def test_reconstruct_pool_ignores_shards(self, stage_pool, monkeypatch):
        reconstructor = PositionalMajority()
        length = len(stage_pool.references[0])

        def reconstruct(**kwargs):
            return reconstructor.reconstruct_pool(stage_pool, length, **kwargs)

        unset, ambient = _with_ambient_shards(monkeypatch, reconstruct)
        assert ambient == unset
        assert reconstruct(shards=4) == unset

    def test_curves_ignore_shards(self, stage_pool, monkeypatch):
        estimates = PositionalMajority().reconstruct_pool(
            stage_pool, len(stage_pool.references[0])
        )

        def curves(**kwargs):
            return (
                pre_reconstruction_curves(stage_pool, **kwargs),
                post_reconstruction_curves(stage_pool, estimates, **kwargs),
            )

        unset, ambient = _with_ambient_shards(monkeypatch, curves)
        assert ambient == unset
        assert curves(shards=4) == unset

    def test_ext_reliability_ignores_shards(self, monkeypatch):
        """The E-X4 table once depended on the ambient shard count
        (Illumina-grade minimum coverage 4 vs 2, beyond-Nanopore 16 vs
        FAIL)."""
        unset, ambient = _with_ambient_shards(
            monkeypatch, lambda: ext_reliability.run(verbose=False)
        )
        assert ambient == unset


# --------------------------------------------------------------------- #
# Full-scale runner
# --------------------------------------------------------------------- #


class TestRunFullscale:
    def test_shard_count_never_changes_results(self):
        base = run_fullscale(
            n_clusters=12, strand_length=60, seed=5, shards=1,
            algorithms=("majority",),
        )
        for shards in (2, 4):
            other = run_fullscale(
                n_clusters=12, strand_length=60, seed=5, shards=shards,
                algorithms=("majority",),
            )
            assert other.n_reads == base.n_reads
            assert other.aggregate_error_rate == base.aggregate_error_rate
            assert other.accuracy["majority"] == base.accuracy["majority"]
            assert other.n_erasures == base.n_erasures

    def test_summary_is_json_ready(self):
        import json

        result = run_fullscale(
            n_clusters=6, strand_length=40, seed=1, shards=2,
            algorithms=("majority",),
        )
        summary = result.summary()
        json.dumps(summary)  # must not raise
        assert summary["n_clusters"] == 6
        assert summary["n_shards"] == 2
        assert "majority" in summary["accuracy"]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            run_fullscale(n_clusters=2, algorithms=("nope",))

    @pytest.mark.parametrize("n_clusters", (0, -3))
    def test_rejects_fewer_than_one_cluster(self, n_clusters):
        """A 0-cluster accuracy would read as total failure."""
        with pytest.raises(
            ConfigError, match=rf"^n_clusters must be >= 1, got {n_clusters}$"
        ):
            run_fullscale(n_clusters=n_clusters)

    def test_custom_parameters_flow_through(self):
        quiet = NanoporeParameters(
            substitution_rate=0.001,
            deletion_rate=0.001,
            insertion_rate=0.001,
            long_deletion_rate=0.0,
            burst_rate=0.0,
        )
        result = run_fullscale(
            n_clusters=8, strand_length=50, seed=3, shards=2,
            algorithms=("majority",), parameters=quiet,
        )
        loud = run_fullscale(
            n_clusters=8, strand_length=50, seed=3, shards=2,
            algorithms=("majority",),
        )
        assert result.aggregate_error_rate < loud.aggregate_error_rate
