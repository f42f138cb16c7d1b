"""Integration tests for the end-to-end DNA archive."""

from __future__ import annotations

import random

import pytest

from repro.core import channel, channel_backend
from repro.core.coverage import ConstantCoverage, ErasureCoverage
from repro.core.errors import ErrorModel
from repro.data.nanopore import ground_truth_model
from repro.pipeline.decay import DecayParameters, StorageDecay
from repro.pipeline import storage
from repro.pipeline.encoding import RotationCodec
from repro.pipeline.storage import ArchiveError, DNAArchive
from repro.reconstruct import bma
from repro.reconstruct.base import BLOCK_CLUSTERS, Reconstructor
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.iterative import IterativeReconstruction
from repro.robustness import FaultInjector, RetryPolicy


@pytest.fixture
def payload() -> bytes:
    return bytes(random.Random(11).randrange(256) for _ in range(500))


class TestWritePath:
    def test_write_produces_strands(self, payload):
        archive = DNAArchive(seed=0)
        stored = archive.write("doc", payload)
        assert stored.n_total_strands > stored.n_data_strands
        assert all(
            len(strand) == stored.layout.strand_length()
            for strand in stored.strands
        )

    def test_duplicate_key_rejected(self, payload):
        archive = DNAArchive(seed=0)
        archive.write("doc", payload)
        with pytest.raises(ValueError):
            archive.write("doc", payload)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            DNAArchive(seed=0).write("doc", b"")

    def test_files_get_distinct_primers(self, payload):
        archive = DNAArchive(seed=0)
        first = archive.write("a", payload)
        second = archive.write("b", payload)
        assert first.layout.primer != second.layout.primer

    def test_invalid_rs_configuration(self):
        with pytest.raises(ValueError):
            DNAArchive(rs_group_data=250, rs_group_parity=10)


class TestReadPath:
    def test_noiseless_roundtrip(self, payload):
        archive = DNAArchive(seed=0)
        archive.write("doc", payload)
        report = archive.read("doc")
        assert report.data == payload
        assert report.n_erasures == 0

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            DNAArchive(seed=0).read("missing")

    def test_roundtrip_through_mild_channel(self, payload):
        archive = DNAArchive(seed=0)
        archive.write("doc", payload)
        model = ErrorModel.naive(0.005, 0.005, 0.01)
        report = archive.read("doc", channel_model=model, coverage=6)
        assert report.data == payload

    def test_roundtrip_through_nanopore_channel(self, payload):
        archive = DNAArchive(seed=0, rs_group_data=24, rs_group_parity=16)
        archive.write("doc", payload)
        report = archive.read(
            "doc",
            channel_model=ground_truth_model(),
            coverage=10,
            reconstructor=IterativeReconstruction(),
        )
        assert report.data == payload
        assert report.n_reads > 0

    def test_roundtrip_with_storage_decay(self, payload):
        archive = DNAArchive(seed=0)
        archive.write("doc", payload)
        decay = StorageDecay(
            DecayParameters(half_life_years=1000.0), random.Random(1)
        )
        report = archive.read(
            "doc", decay=decay, storage_years=50.0, coverage=6
        )
        assert report.data == payload

    def test_rotation_codec_archive(self, payload):
        archive = DNAArchive(codec=RotationCodec(), seed=0)
        archive.write("doc", payload[:200])
        assert archive.read("doc").data == payload[:200]

    def test_unrecoverable_corruption_raises(self, payload):
        archive = DNAArchive(seed=0, rs_group_data=32, rs_group_parity=2)
        archive.write("doc", payload)
        # A harsh channel at coverage 1 destroys far more strands than two
        # parity strands per group can absorb.
        with pytest.raises(ArchiveError):
            archive.read(
                "doc",
                channel_model=ErrorModel.naive(0.05, 0.05, 0.05),
                coverage=1,
            )

    def test_all_strands_mixes_files(self, payload):
        archive = DNAArchive(seed=0)
        first = archive.write("a", payload[:100])
        second = archive.write("b", payload[100:200])
        assert len(archive.all_strands()) == (
            first.n_total_strands + second.n_total_strands
        )


class TestBatchedSurvey:
    """The survey reconstructs a block of strands per ``reconstruct_many``
    call; with that call patched back to the base-class per-cluster loop
    every read-back must come out the same: bytes, read counts, RS
    tallies and per-strand failure reasons."""

    #: 100 data strands in five rate-1/2 groups: four survey blocks.
    PAYLOAD = bytes(random.Random(5).randrange(256) for _ in range(1600))

    def _both_paths(self, read_back):
        """``read_back(archive)`` on the batched path and on the loop,
        each on a fresh archive with the same seed."""
        kernel_calls = []
        lockstep = bma._lockstep

        def counted(*args):
            kernel_calls.append(len(args[0]))
            return lockstep(*args)

        results = []
        for batched in (True, False):
            archive = DNAArchive(seed=3, rs_group_data=20, rs_group_parity=20)
            archive.write("f", self.PAYLOAD)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bma, "_lockstep", counted)
                if not batched:
                    patch.setattr(
                        BMALookahead, "reconstruct_many", Reconstructor.reconstruct_many
                    )
                results.append(read_back(archive))
        assert kernel_calls and max(kernel_calls) > 1
        return results

    @staticmethod
    def _read(archive, **kwargs):
        try:
            report = archive.read("f", ground_truth_model(), coverage=10, **kwargs)
        except ArchiveError as error:
            return str(error)
        return (
            report.data,
            report.n_reads,
            report.n_clusters_used,
            report.n_erasures,
            report.n_corrected_errors,
        )

    @pytest.mark.parametrize(
        "options",
        [
            {"shards": 1},
            {"shards": 1, "faults": "mild"},
        ],
        ids=["serial", "faults"],
    )
    def test_read_matches_per_cluster_loop(self, options):
        def read_back(archive):
            kwargs = dict(options)
            if "faults" in kwargs:
                kwargs["faults"] = FaultInjector(kwargs["faults"], seed=1)
            return self._read(archive, **kwargs)

        batched, looped = self._both_paths(read_back)
        assert batched == looped
        assert not isinstance(batched, str)

    def test_retrieve_with_retries_matches_per_cluster_loop(self):
        def read_back(archive):
            result = archive.retrieve(
                "f",
                ground_truth_model(),
                coverage=2,
                faults=FaultInjector("mild", seed=2),
                retry=RetryPolicy(max_attempts=2, coverage_growth=1.5),
            )
            return (
                result.data,
                result.complete,
                result.n_reads,
                result.n_erasures,
                result.n_corrected_errors,
                result.strand_failures,
                list(result.strand_failures),
                result.attempts,
            )

        batched, looped = self._both_paths(read_back)
        assert batched == looped
        assert batched[5] and len(batched[7]) == 2


class TestBulkSurvey:
    """The serial survey draws each block's reads from one bulk source
    over the archive RNG; with the sweep switched off every read-back
    must come out the same as the per-strand loop: report fields,
    per-strand outcomes (estimate, failure reason, read count), retry
    attempts, and the archive RNG state afterwards."""

    #: 100 data strands in five rate-1/2 groups: four survey blocks.
    PAYLOAD = TestBatchedSurvey.PAYLOAD

    def _both_paths(self, read_back):
        """``read_back(archive)`` on the default path and with every
        channel call forced onto the loop, each on a fresh archive with
        the same seed.  Asserts the two agree and that the default path
        opened one bulk source per survey block whose expected draws
        reach the sweep threshold, and none per strand.  Returns the
        default run's result and per-survey strand outcomes."""
        runs = []
        for forced_loop in (False, True):
            archive = DNAArchive(seed=3, rs_group_data=20, rs_group_parity=20)
            archive.write("f", self.PAYLOAD)
            surveys, outcomes, hints = [], [], []
            survey_strands = storage._survey_strands
            bulk_source = channel.UniformBulkSource

            def recorded(items, *args):
                surveys.append(items)
                outcomes.append(survey_strands(items, *args))
                return outcomes[-1]

            def counted(rng, hint=None):
                hints.append(hint)
                return bulk_source(rng, hint)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(storage, "_survey_strands", recorded)
                patch.setattr(channel, "UniformBulkSource", counted)
                if forced_loop:
                    patch.setattr(channel_backend, "AUTO_MIN_DRAWS", 10**12)
                try:
                    result = read_back(archive)
                except ArchiveError as error:
                    result = str(error)
            runs.append((result, outcomes, archive.rng.getstate(), surveys, hints))
        default, loop = runs
        assert default[:3] == loop[:3]
        assert not loop[4]
        block_draws = [
            sum(len(strand) * copies for _, strand, copies in block if strand)
            for items in default[3]
            for block in (
                items[start : start + BLOCK_CLUSTERS]
                for start in range(0, len(items), BLOCK_CLUSTERS)
            )
        ]
        assert default[4] == [
            draws + 64
            for draws in block_draws
            if draws >= channel_backend.AUTO_MIN_DRAWS
        ]
        return default[0], default[1], default[4]

    def test_read_opens_one_source_per_block(self):
        def read_back(archive):
            return archive.read("f", ground_truth_model(), coverage=10, shards=1)

        report, outcomes, hints = self._both_paths(read_back)
        assert report.data == self.PAYLOAD
        assert len(outcomes) == 1 and len(outcomes[0]) == 200
        assert len(hints) == 4

    @pytest.mark.parametrize(
        "options, failure",
        [
            ({"faults": "moderate"}, "cluster dropped by fault injection"),
            ({"storage_years": 400.0}, "strand lost before sequencing (decay)"),
            (
                {"coverage": ErasureCoverage(ConstantCoverage(10), 0.15)},
                "zero sequencing coverage drawn",
            ),
        ],
        ids=["faults", "decay", "zero-coverage"],
    )
    def test_read_matches_per_strand_loop(self, options, failure):
        def read_back(archive):
            kwargs = {"coverage": 10, "shards": 1, **options}
            if "faults" in kwargs:
                kwargs["faults"] = FaultInjector(kwargs["faults"], seed=1)
            if "storage_years" in kwargs:
                kwargs["decay"] = StorageDecay(
                    DecayParameters(half_life_years=1000.0), random.Random(1)
                )
            return archive.read("f", ground_truth_model(), **kwargs)

        _, outcomes, hints = self._both_paths(read_back)
        assert failure in [reason for _, reason, _ in outcomes[0]]
        assert len(hints) == 4

    def test_retrieve_with_retries_matches_per_strand_loop(self):
        def read_back(archive):
            result = archive.retrieve(
                "f",
                ground_truth_model(),
                coverage=2,
                faults=FaultInjector("mild", seed=2),
                retry=RetryPolicy(max_attempts=3, coverage_growth=1.5),
            )
            return (
                result.data,
                result.complete,
                result.n_reads,
                result.n_erasures,
                result.n_corrected_errors,
                result.strand_failures,
                list(result.strand_failures),
                result.attempts,
            )

        result, outcomes, hints = self._both_paths(read_back)
        assert len(result[7]) == len(outcomes) == 3
        assert hints
