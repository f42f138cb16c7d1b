"""Tests for profile comparison."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_pools, compare_statistics
from repro.analysis.error_stats import ErrorStatistics
from repro.core.coverage import ConstantCoverage
from repro.core.profile import ErrorProfile
from repro.core.simulator import Simulator


class TestProfileComparison:
    def test_pool_compared_to_itself_is_zero(self, nanopore_pool):
        comparison = compare_pools(nanopore_pool, nanopore_pool)
        assert comparison.aggregate_rate_delta == 0.0
        assert comparison.positional_distance == pytest.approx(0.0)
        assert comparison.second_order_overlap == 1.0

    def test_fitted_simulator_closer_than_naive(self, nanopore_pool):
        """The paper's claim, numerically: the full model's profile is
        closer to the data on the spatial axis than the naive model's."""
        profile = ErrorProfile.from_pool(nanopore_pool, max_copies_per_cluster=3)
        references = nanopore_pool.references
        naive_pool = Simulator(
            profile.naive_model(), ConstantCoverage(6), seed=3
        ).simulate(references)
        full_pool = Simulator(
            profile.generalized_model(), ConstantCoverage(6), seed=3
        ).simulate(references)
        naive_comparison = compare_pools(naive_pool, nanopore_pool)
        full_comparison = compare_pools(full_pool, nanopore_pool)
        assert (
            full_comparison.positional_distance
            < naive_comparison.positional_distance
        )
        assert (
            full_comparison.substitution_matrix_distance
            < naive_comparison.substitution_matrix_distance
        )

    def test_summary_mentions_all_metrics(self, nanopore_pool):
        comparison = compare_pools(nanopore_pool, nanopore_pool)
        summary = comparison.summary()
        for keyword in ("aggregate", "substitution-matrix", "positional",
                        "long-deletion", "second-order"):
            assert keyword in summary

    def test_empty_statistics_compare(self):
        comparison = compare_statistics(ErrorStatistics(), ErrorStatistics())
        assert comparison.aggregate_rate_delta == 0.0
        assert comparison.second_order_overlap == 1.0
