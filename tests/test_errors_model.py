"""Unit tests for repro.core.errors (ErrorModel, SecondOrderError)."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.baselines.dnasimulator import DNASimulatorBaseline
from repro.core.channel import Channel
from repro.core.errors import (
    PAPER_LONG_DELETION_LENGTHS,
    ErrorModel,
    SecondOrderError,
    transition_biased_substitution_matrix,
    uniform_substitution_matrix,
)
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.spatial import TerminalSkew, UniformSpatial
from repro.data.nanopore import (
    NanoporeParameters,
    ground_truth_model,
    make_nanopore_dataset,
)
from repro.exceptions import ConfigError


class TestSubstitutionMatrices:
    def test_uniform_matrix_rows_sum_to_one(self):
        matrix = uniform_substitution_matrix()
        for original, row in matrix.items():
            assert original not in row
            assert sum(row.values()) == pytest.approx(1.0)

    def test_transition_matrix_favours_partner(self):
        matrix = transition_biased_substitution_matrix(0.8)
        assert matrix["A"]["G"] == pytest.approx(0.8)
        assert matrix["T"]["C"] == pytest.approx(0.8)
        assert matrix["A"]["C"] == pytest.approx(0.1)

    def test_transition_matrix_rows_sum_to_one(self):
        matrix = transition_biased_substitution_matrix(0.6)
        for row in matrix.values():
            assert sum(row.values()) == pytest.approx(1.0)

    def test_transition_probability_validated(self):
        with pytest.raises(ValueError):
            transition_biased_substitution_matrix(1.2)


class TestSecondOrderError:
    def test_deletion_description(self):
        error = SecondOrderError("deletion", "A", "", 0.01)
        assert error.describe() == "del A"

    def test_insertion_description(self):
        error = SecondOrderError("insertion", "", "G", 0.01)
        assert error.describe() == "ins G"

    def test_substitution_description(self):
        error = SecondOrderError("substitution", "G", "C", 0.01)
        assert error.describe() == "sub G->C"

    @pytest.mark.parametrize(
        "kind, base, replacement",
        [
            ("deletion", "", ""),  # deletion needs a base
            ("deletion", "A", "C"),  # deletion must not have a replacement
            ("insertion", "A", "G"),  # insertion must not have a base
            ("insertion", "", ""),  # insertion needs a replacement
            ("substitution", "A", "A"),  # replacement must differ
            ("substitution", "A", ""),  # substitution needs a replacement
            ("flip", "A", "C"),  # unknown kind
        ],
    )
    def test_invalid_specs_rejected(self, kind, base, replacement):
        with pytest.raises(ValueError):
            SecondOrderError(kind, base, replacement, 0.01)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            SecondOrderError("deletion", "A", "", 1.5)


class TestErrorModel:
    def test_scalar_rates_expand_per_base(self):
        model = ErrorModel.naive(0.01, 0.02, 0.03)
        assert model.insertion_rate == {base: 0.01 for base in "ACGT"}
        assert model.deletion_rate["T"] == 0.02

    def test_dict_rates_fill_missing_bases(self):
        model = ErrorModel(
            insertion_rate={"A": 0.1},
            deletion_rate=0.0,
            substitution_rate=0.0,
        )
        assert model.insertion_rate["C"] == 0.0

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel.naive(1.5, 0.0, 0.0)

    def test_uniform_splits_rate_evenly(self):
        model = ErrorModel.uniform(0.15)
        assert model.insertion_rate["A"] == pytest.approx(0.05)
        assert model.aggregate_error_rate() == pytest.approx(0.15)

    def test_first_order_rate_sums_components(self):
        model = ErrorModel.naive(0.01, 0.02, 0.03)
        assert model.first_order_rate("A") == pytest.approx(0.06)

    def test_aggregate_counts_long_deletions_by_length(self):
        model = ErrorModel(
            insertion_rate=0.0,
            deletion_rate=0.0,
            substitution_rate=0.0,
            long_deletion_rate=0.01,
            long_deletion_lengths={2: 1.0},
        )
        assert model.aggregate_error_rate() == pytest.approx(0.02)

    def test_aggregate_includes_second_order(self):
        model = ErrorModel.naive(0.0, 0.0, 0.0).with_second_order(
            (SecondOrderError("deletion", "A", "", 0.04),)
        )
        # Rate applies only at A positions: a quarter of the strand.
        assert model.aggregate_error_rate() == pytest.approx(0.01)

    def test_with_spatial_returns_new_model(self):
        model = ErrorModel.naive(0.01, 0.01, 0.01)
        skewed = model.with_spatial(TerminalSkew())
        assert isinstance(model.spatial, UniformSpatial)
        assert isinstance(skewed.spatial, TerminalSkew)

    def test_scaled_multiplies_all_rates(self):
        model = ErrorModel(
            insertion_rate=0.01,
            deletion_rate=0.02,
            substitution_rate=0.03,
            long_deletion_rate=0.001,
            second_order_errors=(
                SecondOrderError("deletion", "A", "", 0.004),
            ),
        )
        scaled = model.scaled(2.0)
        assert scaled.insertion_rate["A"] == pytest.approx(0.02)
        assert scaled.long_deletion_rate == pytest.approx(0.002)
        assert scaled.second_order_errors[0].rate == pytest.approx(0.008)

    def test_scaled_negative_raises(self):
        with pytest.raises(ValueError):
            ErrorModel.naive(0.01, 0.01, 0.01).scaled(-1.0)

    def test_expected_long_deletion_length_paper_values(self):
        model = ErrorModel.naive(0.0, 0.0, 0.0)
        expected = model.expected_long_deletion_length()
        # The paper reports a mean long-deletion length of 2.17.
        assert expected == pytest.approx(2.17, abs=0.05)

    def test_long_deletion_length_below_two_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(
                insertion_rate=0.0,
                deletion_rate=0.0,
                substitution_rate=0.0,
                long_deletion_lengths={1: 1.0},
            )

    def test_draw_substitution_respects_matrix(self, rng):
        model = ErrorModel(
            insertion_rate=0.0,
            deletion_rate=0.0,
            substitution_rate=0.1,
            substitution_matrix={
                "A": {"G": 1.0},
                "C": {"T": 1.0},
                "G": {"A": 1.0},
                "T": {"C": 1.0},
            },
        )
        assert model.draw_substitution("A", rng) == "G"

    def test_draw_long_deletion_length_in_support(self, rng):
        model = ErrorModel.naive(0.0, 0.0, 0.0)
        for _ in range(50):
            assert model.draw_long_deletion_length(rng) in PAPER_LONG_DELETION_LENGTHS

    def test_burst_parameters_validated(self):
        with pytest.raises(ValueError):
            ErrorModel.naive(0.0, 0.0, 0.0).__class__(
                insertion_rate=0.0,
                deletion_rate=0.0,
                substitution_rate=0.0,
                burst_min_length=0,
            )
        with pytest.raises(ValueError):
            ErrorModel(
                insertion_rate=0.0,
                deletion_rate=0.0,
                substitution_rate=0.0,
                burst_continue=1.0,
            )


def _ground(**overrides) -> ErrorModel:
    return dataclasses.replace(ground_truth_model(), **overrides)


def _row(base: str, row: dict) -> dict:
    return {**transition_biased_substitution_matrix(), base: row}


#: Each bad draw-table weight, with the one-line message it raises.
BAD_WEIGHTS = {
    "negative-row": (
        {"substitution_matrix": _row("A", {"C": 0.5, "G": -0.2, "T": 0.7})},
        "substitution_matrix['A']['G'] must be a finite non-negative weight, "
        "got -0.2",
    ),
    "infinite-row": (
        {"substitution_matrix": _row("C", {"A": math.inf, "G": 1.0})},
        "substitution_matrix['C']['A'] must be a finite non-negative weight, "
        "got inf",
    ),
    "nan-insertion": (
        {"insertion_base_probs": {"A": 0.5, "C": math.nan}},
        "insertion_base_probs['C'] must be a finite non-negative weight, got nan",
    ),
    "negative-length": (
        {"long_deletion_lengths": {2: 1.0, 3: -0.1}},
        "long_deletion_lengths[3] must be a finite non-negative weight, got -0.1",
    ),
    "overflow": (
        {"insertion_base_probs": {"A": 1e308, "C": 1e308}},
        "insertion_base_probs weights overflow to an infinite total",
    ),
}

#: Each positive rate whose event has nothing to draw from.
NOTHING_TO_DRAW = {
    "long-deletion": (
        {"long_deletion_rate": 0.05, "long_deletion_lengths": {}},
        "long_deletion_rate is positive but long_deletion_lengths "
        "has no positive weight",
    ),
    "insertion": (
        {"insertion_base_probs": {base: 0.0 for base in "ACGT"}},
        "insertion_rate is positive but insertion_base_probs "
        "has no positive weight",
    ),
    "substitution": (
        {"substitution_matrix": _row("G", {"A": 0.0, "C": 0.0})},
        "substitution_rate['G'] is positive but substitution_matrix['G'] "
        "has no positive weight",
    ),
    "burst": (
        {"substitution_matrix": {"A": {"G": 1.0}}, "substitution_rate": {"A": 0.01}},
        "burst_rate is positive (bursts substitute every base) but "
        "substitution_matrix['C'] has no positive weight",
    ),
}


class TestDrawTables:
    """A draw table the channel cannot draw from the same way on the loop
    and the sweep is a one-line ``[config]`` error at construction."""

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
    def test_bad_weight_rejected(self, case):
        overrides, message = BAD_WEIGHTS[case]
        with pytest.raises(ConfigError) as caught:
            _ground(**overrides)
        assert str(caught.value) == message
        assert caught.value.tagged() == f"[config] {message}"

    @pytest.mark.parametrize("case", sorted(NOTHING_TO_DRAW))
    def test_positive_rate_with_nothing_to_draw_rejected(self, case):
        overrides, message = NOTHING_TO_DRAW[case]
        with pytest.raises(ConfigError) as caught:
            _ground(**overrides)
        assert str(caught.value) == message

    def test_zero_rate_needs_no_table(self):
        model = ErrorModel(
            insertion_rate=0.0,
            deletion_rate=0.01,
            substitution_rate={"A": 0.02},
            substitution_matrix={"A": {"G": 1.0}},
            insertion_base_probs={},
            long_deletion_lengths={},
        )
        copies = Channel(model, random.Random(3)).transmit_many("ACGT" * 30, 30)
        assert len(copies) == 30

    def test_every_model_the_repo_builds_constructs(self):
        """The profile stages, the DNASimulator baseline, a scenario
        preset's ground truth, and each of them scaled to zero."""
        profile = ErrorProfile.from_pool(make_nanopore_dataset(n_clusters=30, seed=4))
        models = [profile.model_for_stage(stage) for stage in SimulatorStage]
        models.append(profile.generalized_model())
        models.append(profile.skew_model(three_position=False))
        baseline = DNASimulatorBaseline.from_error_statistics(profile.statistics)
        models.append(baseline.as_error_model())
        preset = NanoporeParameters(transition_probability=1.0)
        models.append(ground_truth_model(preset))
        models += [model.scaled(0.0) for model in models]
        assert all(isinstance(model, ErrorModel) for model in models)
