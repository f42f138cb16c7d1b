"""Unit tests for repro.analysis.error_stats."""

from __future__ import annotations

import random

import pytest

from repro.analysis import error_stats
from repro.analysis.error_stats import ErrorStatistics
from repro.core.channel import Channel
from repro.core.strand import Cluster, StrandPool
from repro.data.nanopore import ground_truth_model
from repro.exceptions import ConfigError
from tests.test_alignment_oracle import statistics_fields


def stats_for(reference: str, copies: list[str]) -> ErrorStatistics:
    statistics = ErrorStatistics()
    for copy in copies:
        statistics.tally_pair(reference, copy)
    return statistics


class TestBasicTallies:
    def test_perfect_copy_counts_no_errors(self):
        statistics = stats_for("ACGT", ["ACGT"])
        assert statistics.total_errors() == 0
        assert statistics.aggregate_error_rate() == 0.0

    def test_opportunities_count_reference_bases(self):
        statistics = stats_for("AACG", ["AACG", "AACG"])
        assert statistics.base_opportunities["A"] == 4
        assert statistics.total_opportunities() == 8

    def test_single_substitution_tallied(self):
        statistics = stats_for("ACGT", ["AGGT"])
        assert statistics.substitution_counts["C"] == 1
        assert statistics.substitution_pairs[("C", "G")] == 1
        assert statistics.conditional_rate("substitution", "C") == 1.0

    def test_single_deletion_tallied(self):
        statistics = stats_for("ACGT", ["AGT"])
        assert statistics.deletion_counts["C"] == 1
        assert statistics.long_deletion_count == 0

    def test_insertion_attributed_to_preceding_base(self):
        statistics = stats_for("ACGT", ["ACTGT"])
        assert statistics.insertion_counts["C"] == 1
        assert statistics.inserted_bases["T"] == 1

    def test_error_positions_histogram(self):
        statistics = stats_for("ACGT", ["AGGT"])
        assert statistics.error_positions == [0, 1, 0, 0]


class TestLongDeletions:
    def test_run_counted_once(self):
        statistics = stats_for("AACCGGTT", ["AAGGTT"])
        assert statistics.long_deletion_count == 1
        assert statistics.long_deletion_lengths[2] == 1
        # Deleted bases inside the run are excluded from single-base counts.
        assert sum(statistics.deletion_counts.values()) == 0

    def test_rates_and_mean_length(self):
        statistics = stats_for("AACCGGTT", ["AAGGTT", "AACCGGTT"])
        assert statistics.long_deletion_rate() == pytest.approx(1 / 16)
        assert statistics.mean_long_deletion_length() == pytest.approx(2.0)

    def test_length_distribution_normalised(self):
        statistics = stats_for("ACGTACGTAC", ["GTACGTAC", "ACGTACGT"])
        distribution = statistics.long_deletion_length_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        statistics = stats_for("ACGT", ["ACGT"])
        assert statistics.long_deletion_length_distribution() == {}
        assert statistics.mean_long_deletion_length() == 0.0


class TestDerivedRates:
    def test_aggregate_rates_sum(self):
        statistics = stats_for("ACGTACGTAC", ["ACGTACGTAC", "ACGTACGTAG"])
        rates = statistics.aggregate_rates()
        assert rates["substitution"] == pytest.approx(1 / 20)
        assert rates["insertion"] == 0.0

    def test_substitution_matrix_rows_normalised(self):
        statistics = stats_for("CCCC", ["ACCC", "CCCT"])
        matrix = statistics.substitution_matrix()
        assert sum(matrix["C"].values()) == pytest.approx(1.0)
        assert matrix["C"]["A"] == pytest.approx(0.5)

    def test_matrix_uniform_for_unseen_base(self):
        statistics = stats_for("AAAA", ["AAAA"])
        matrix = statistics.substitution_matrix()
        assert matrix["G"] == {
            base: pytest.approx(1 / 3) for base in "ACT"
        }

    def test_inserted_base_distribution_uniform_when_empty(self):
        statistics = stats_for("ACGT", ["ACGT"])
        assert statistics.inserted_base_distribution() == {
            base: 0.25 for base in "ACGT"
        }

    def test_positional_error_rates_normalised_by_coverage(self):
        statistics = stats_for("ACGT", ["AGGT", "AGGT"])
        rates = statistics.positional_error_rates()
        assert rates[1] == pytest.approx(1.0)
        assert rates[0] == 0.0


class TestSecondOrder:
    def test_second_order_keys(self):
        statistics = stats_for("ACGT", ["AGGT", "AGT", "ACTGT"])
        keys = {key for key, _count in statistics.second_order_counts.items()}
        assert ("substitution", "C", "G") in keys
        assert ("insertion", "", "T") in keys

    def test_top_second_order_sorted(self):
        statistics = stats_for("ACGT", ["AGGT", "AGGT", "ACGA"])
        top = statistics.top_second_order_errors(2)
        assert top[0][0] == ("substitution", "C", "G")
        assert top[0][1] == 2

    def test_second_order_fraction(self):
        statistics = stats_for("ACGT", ["AGGT", "ACGA"])
        assert statistics.second_order_fraction(1) == pytest.approx(0.5)
        assert statistics.second_order_fraction(10) == pytest.approx(1.0)

    def test_positions_tracked_per_error(self):
        statistics = stats_for("ACGT", ["AGGT"])
        histogram = statistics.second_order_positions[("substitution", "C", "G")]
        assert histogram[1] == 1

    def test_describe(self):
        statistics = ErrorStatistics()
        assert statistics.describe_second_order(("deletion", "A", "")) == "del A"
        assert statistics.describe_second_order(("insertion", "", "G")) == "ins G"
        assert (
            statistics.describe_second_order(("substitution", "T", "C"))
            == "sub T->C"
        )


class TestPoolTally:
    def test_tally_pool_caps_copies(self, small_pool):
        statistics = ErrorStatistics()
        statistics.tally_pool(small_pool, max_copies_per_cluster=1)
        assert statistics.pair_count == 2  # erasure cluster contributes none

    def test_tally_pool_all_copies(self, small_pool):
        statistics = ErrorStatistics()
        statistics.tally_pool(small_pool)
        assert statistics.pair_count == 6


class TestEmptyReference:
    def test_tally_pair_rejects_copy_of_empty_reference(self):
        statistics = ErrorStatistics()
        with pytest.raises(ConfigError, match=r"\('', 'ACG'\)") as raised:
            statistics.tally_pair("", "ACG")
        assert "\n" not in str(raised.value)
        assert statistics.pair_count == 0

    def test_tally_many_rejects_copy_of_empty_reference(self):
        statistics = ErrorStatistics()
        with pytest.raises(ConfigError, match=r"pair 1 \('', 'ACG'\)"):
            statistics.tally_many([("ACGT", "AGT"), ("", "ACG")])
        assert statistics_fields(statistics) == statistics_fields(ErrorStatistics())

    def test_pool_with_copy_of_empty_reference_is_rejected(self):
        pool = StrandPool([Cluster("", ["ACG"])])
        with pytest.raises(ConfigError):
            ErrorStatistics().tally_pool(pool)

    @pytest.mark.parametrize("pair", [("", ""), ("ACGT", "")])
    def test_empty_sides_still_tally(self, pair):
        serial = ErrorStatistics()
        serial.tally_pair(*pair)
        lockstep = ErrorStatistics()
        lockstep.tally_many([pair])
        assert statistics_fields(lockstep) == statistics_fields(serial)
        assert serial.pair_count == 1


class TestTallyMany:
    def test_blocks_keep_first_seen_order(self, monkeypatch):
        """Pairs split across lockstep blocks tally as one loop."""
        channel = Channel(ground_truth_model(), random.Random(3))
        rng = random.Random(4)
        pairs = []
        for length in (40, 110, 70):
            reference = "".join(rng.choice("ACGT") for _ in range(length))
            pairs += [(reference, copy) for copy in channel.transmit_many(reference, 5)]
        serial = ErrorStatistics()
        for reference, copy in pairs:
            serial.tally_pair(reference, copy)
        monkeypatch.setattr(error_stats, "_TALLY_PAIRS", 4)
        lockstep = ErrorStatistics()
        lockstep.tally_many(pairs)
        assert statistics_fields(lockstep) == statistics_fields(serial)

    def test_seeded_pool_tally_keeps_the_scalar_loop(self, small_pool):
        seeded = ErrorStatistics()
        seeded.tally_pool(small_pool, rng=random.Random(0))
        serial = ErrorStatistics()
        rng = random.Random(0)
        for cluster in small_pool:
            for copy in cluster.copies:
                serial.tally_pair(cluster.reference, copy, rng)
        assert statistics_fields(seeded) == statistics_fields(serial)
