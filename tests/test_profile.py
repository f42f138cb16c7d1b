"""Unit tests for repro.core.profile (data-driven model fitting)."""

from __future__ import annotations

import pytest

from repro import parallel
from repro.core.profile import (
    ErrorProfile,
    SimulatorStage,
    fit_three_position_skew,
)
from repro.core.spatial import HistogramSpatial, UniformSpatial
from repro.core.strand import Cluster, StrandPool
from tests.test_alignment_oracle import statistics_fields


@pytest.fixture(scope="module")
def nanopore_profile(request):
    pool = request.getfixturevalue("nanopore_pool")
    return ErrorProfile.from_pool(pool, max_copies_per_cluster=3)


class TestStageModels:
    def test_model_for_every_stage(self, nanopore_profile):
        for stage in SimulatorStage:
            model = nanopore_profile.model_for_stage(stage)
            assert 0.0 < model.aggregate_error_rate() < 0.2

    def test_stage_labels_match_paper_rows(self):
        assert SimulatorStage.NAIVE.label == "Naive Simulator"
        assert SimulatorStage.SKEW.label == '" + Spatial Skew'

    def test_naive_model_is_base_uniform(self, nanopore_profile):
        model = nanopore_profile.naive_model()
        rates = set(model.insertion_rate.values())
        assert len(rates) == 1  # identical for every base
        assert isinstance(model.spatial, UniformSpatial)
        assert model.long_deletion_rate == 0.0

    def test_naive_model_folds_long_deletions_into_deletion_rate(
        self, nanopore_profile
    ):
        naive = nanopore_profile.naive_model()
        conditional = nanopore_profile.conditional_model()
        # The naive deletion rate absorbs the long-deletion mass.
        naive_deletion = naive.deletion_rate["A"]
        conditional_mean = sum(conditional.deletion_rate.values()) / 4
        assert naive_deletion > conditional_mean

    def test_conditional_model_has_per_base_rates(self, nanopore_profile):
        model = nanopore_profile.conditional_model()
        assert len(set(model.substitution_rate.values())) > 1
        assert model.long_deletion_rate > 0.0

    def test_conditional_matrix_measures_transition_bias(self, nanopore_profile):
        # The ground truth uses a transition-biased matrix; the measured
        # matrix must recover that bias.
        matrix = nanopore_profile.conditional_model().substitution_matrix
        assert matrix["T"]["C"] > 0.5
        assert matrix["A"]["G"] > 0.5

    def test_skew_model_concentrates_terminals(self, nanopore_profile):
        model = nanopore_profile.skew_model()
        weights = model.spatial.weights(110)
        interior = weights[55]
        assert weights[-1] > 3 * interior
        assert weights[0] > interior

    def test_skew_model_full_histogram_variant(self, nanopore_profile):
        model = nanopore_profile.skew_model(three_position=False)
        weights = model.spatial.weights(110)
        # Full histogram: several elevated positions near the end, not one.
        assert weights[-2] > 1.5 * weights[55]

    def test_second_order_model_has_top_errors(self, nanopore_profile):
        model = nanopore_profile.second_order_model(top=5)
        assert len(model.second_order_errors) == 5
        for error in model.second_order_errors:
            assert error.rate > 0.0

    def test_second_order_preserves_aggregate_rate(self, nanopore_profile):
        skew = nanopore_profile.skew_model()
        second = nanopore_profile.second_order_model()
        assert second.aggregate_error_rate() == pytest.approx(
            skew.aggregate_error_rate(), rel=0.1
        )

    def test_stages_share_aggregate_rate(self, nanopore_profile):
        """The paper's control: every stage has (approximately) the same
        aggregate error probability."""
        rates = [
            nanopore_profile.model_for_stage(stage).aggregate_error_rate()
            for stage in SimulatorStage
        ]
        for rate in rates[1:]:
            assert rate == pytest.approx(rates[0], rel=0.15)


class TestChunkedFit:
    """Chunked fits merge lockstep tallies in chunk order: every count
    and every key order equals the serial fit's."""

    def test_from_clusters_batches_equal_serial(self, nanopore_pool):
        serial = ErrorProfile.from_pool(nanopore_pool, 3, workers=1)
        streamed = ErrorProfile.from_clusters(
            iter(nanopore_pool.clusters), 3, workers=1, batch_size=3
        )
        assert statistics_fields(streamed.statistics) == statistics_fields(
            serial.statistics
        )

    def test_pooled_fit_equals_serial(self, nanopore_pool, monkeypatch):
        serial = ErrorProfile.from_pool(nanopore_pool, 3, workers=1)
        monkeypatch.setenv(parallel.FORCE_ENV, "1")
        pooled = ErrorProfile.from_pool(nanopore_pool, 3, workers=2)
        assert statistics_fields(pooled.statistics) == statistics_fields(
            serial.statistics
        )


class TestEmptyProfile:
    def test_empty_pool_yields_zero_model(self):
        profile = ErrorProfile.from_pool(StrandPool([Cluster("ACGT")]))
        model = profile.naive_model()
        assert model.aggregate_error_rate() == 0.0


class TestThreePositionFit:
    def test_short_profile_falls_back_to_histogram(self):
        spatial = fit_three_position_skew([1.0, 2.0, 3.0])
        assert isinstance(spatial, HistogramSpatial)
        assert spatial.histogram == [1.0, 2.0, 3.0]

    def test_all_zero_profile_falls_back_to_uniform(self):
        spatial = fit_three_position_skew([0.0] * 50)
        assert isinstance(spatial, UniformSpatial)

    def test_flat_profile_stays_flat(self):
        spatial = fit_three_position_skew([0.05] * 50)
        weights = spatial.weights(50)
        assert max(weights) == pytest.approx(min(weights))

    def test_end_excess_concentrated_on_last_position(self):
        rates = [0.05] * 50
        for offset in range(1, 6):
            rates[-offset] = 0.15  # a wide end bump
        spatial = fit_three_position_skew(rates)
        weights = spatial.raw_weights(50)
        assert weights[-1] > 0.15  # absorbed more than its measured value
        assert weights[-2] == pytest.approx(0.05)  # flattened

    def test_start_positions_keep_measured_values(self):
        rates = [0.05] * 50
        rates[0] = 0.2
        rates[1] = 0.15
        spatial = fit_three_position_skew(rates)
        weights = spatial.raw_weights(50)
        assert weights[0] == pytest.approx(0.2)
        assert weights[1] == pytest.approx(0.15)
