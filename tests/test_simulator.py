"""Unit tests for repro.core.simulator."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core import simulator as simulator_module
from repro.core.channel import Channel
from repro.core.coverage import ConstantCoverage
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.simulator import Simulator, transmit_chunk
from repro.core.spatial import UniformSpatial
from repro.data.nanopore import ground_truth_model
from repro.parallel import derive_seed


class TestSimulator:
    def test_simulate_pairs_references(self):
        simulator = Simulator(ErrorModel.naive(0.01, 0.01, 0.01), seed=1)
        references = ["ACGT" * 10, "TGCA" * 10]
        pool = simulator.simulate(references)
        assert pool.references == references
        assert pool.coverages() == [5, 5]  # default coverage

    def test_custom_coverage_model(self):
        simulator = Simulator(
            ErrorModel.naive(0.0, 0.0, 0.0), ConstantCoverage(3), seed=1
        )
        pool = simulator.simulate(["ACGT"])
        assert pool[0].copies == ["ACGT"] * 3

    def test_same_seed_reproducible(self):
        def build():
            return Simulator(
                ErrorModel.naive(0.05, 0.05, 0.05), ConstantCoverage(4), seed=9
            ).simulate(["ACGTACGTAC"] * 5)

        first, second = build(), build()
        for cluster_a, cluster_b in zip(first, second):
            assert cluster_a.copies == cluster_b.copies

    def test_different_seeds_differ(self):
        references = ["ACGTACGTACGTACGT"] * 10
        pool_a = Simulator(
            ErrorModel.naive(0.1, 0.1, 0.1), ConstantCoverage(3), seed=1
        ).simulate(references)
        pool_b = Simulator(
            ErrorModel.naive(0.1, 0.1, 0.1), ConstantCoverage(3), seed=2
        ).simulate(references)
        assert pool_a.all_copies() != pool_b.all_copies()

    def test_simulate_random_generates_references(self):
        simulator = Simulator(ErrorModel.naive(0.01, 0.01, 0.01), seed=0)
        pool = simulator.simulate_random(7, 42)
        assert len(pool) == 7
        assert all(len(cluster.reference) == 42 for cluster in pool)

    def test_simulate_like_matches_coverages(self, small_pool):
        simulator = Simulator(ErrorModel.naive(0.0, 0.0, 0.0), seed=0)
        mirrored = simulator.simulate_like(small_pool)
        assert mirrored.coverages() == small_pool.coverages()
        assert mirrored.references == small_pool.references

    def test_fitted_constructor(self, nanopore_pool):
        profile = ErrorProfile.from_pool(nanopore_pool, max_copies_per_cluster=2)
        simulator = Simulator.fitted(
            profile, SimulatorStage.CONDITIONAL, ConstantCoverage(2), seed=5
        )
        pool = simulator.simulate(nanopore_pool.references[:10])
        assert len(pool) == 10
        assert pool.coverages() == [2] * 10


def _direct(model: ErrorModel, seed: int, chunk) -> list[list[str]]:
    """Each item's copies from a channel over ``model`` itself."""
    return [
        Channel(model).transmit_seeded(reference, coverage, derive_seed(seed, index)).copies
        for index, reference, coverage in chunk
    ]


class TestTransmitChunkModelReuse:
    """A pool worker unpickles a fresh model copy for every task;
    :func:`transmit_chunk` runs a copy with the last model's pickled
    state on that model, whose ladders are already built.  The tests
    run in the main process, so those that check a worker's reuse patch
    in a parent process."""

    CHUNK = [(index, "ACGT" * 25 + "ACGTACGTAC", 4) for index in range(5)]

    @staticmethod
    def _count_builds(monkeypatch, in_worker: bool = True) -> list[int]:
        monkeypatch.setattr(simulator_module, "_last_model", None)
        if in_worker:
            monkeypatch.setattr(
                simulator_module.multiprocessing, "parent_process", object
            )
        builds: list[int] = []
        build = Channel._build_tables

        def counted(self, length):
            builds.append(length)
            return build(self, length)

        monkeypatch.setattr(Channel, "_build_tables", counted)
        return builds

    def test_equal_copies_build_tables_once(self, monkeypatch):
        state = pickle.dumps(ground_truth_model())
        first, second = pickle.loads(state), pickle.loads(state)
        builds = self._count_builds(monkeypatch)
        first_copies = [cluster.copies for cluster in transmit_chunk(first, 3, self.CHUNK)]
        second_copies = [cluster.copies for cluster in transmit_chunk(second, 3, self.CHUNK)]
        assert builds == [110]
        assert first_copies == second_copies == _direct(second, 3, self.CHUNK)

    def test_reordered_model_is_not_swapped(self, monkeypatch):
        """Dict ``==`` ignores key order, but the draw tables follow it:
        a model ``==`` the last one, with its substitution rows
        reordered, runs as itself."""
        model = ErrorModel.naive(0.05, 0.05, 0.05)
        reordered = replace(
            model,
            substitution_matrix={
                base: dict(reversed(row.items()))
                for base, row in model.substitution_matrix.items()
            },
        )
        assert reordered == model
        builds = self._count_builds(monkeypatch)
        copies = [cluster.copies for cluster in transmit_chunk(model, 3, self.CHUNK)]
        reordered_copies = [
            cluster.copies for cluster in transmit_chunk(reordered, 3, self.CHUNK)
        ]
        assert builds == [110, 110]
        assert reordered_copies == _direct(reordered, 3, self.CHUNK) != copies

    def test_unpicklable_model_runs_as_given(self, monkeypatch):
        """A model that cannot be pickled (a local spatial class) runs
        as given, and is not held."""

        class Local(UniformSpatial):
            pass

        model = replace(ErrorModel.naive(0.05, 0.05, 0.05), spatial=Local())
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(model)
        self._count_builds(monkeypatch)
        copies = [cluster.copies for cluster in transmit_chunk(model, 3, self.CHUNK)]
        assert copies == _direct(model, 3, self.CHUNK)
        assert simulator_module._last_model is None

    def test_main_process_holds_no_model(self, monkeypatch):
        """The main process's caller holds its own model, so nothing
        keeps a finished run's ladders alive."""
        builds = self._count_builds(monkeypatch, in_worker=False)
        model = ErrorModel.naive(0.05, 0.05, 0.05)
        transmit_chunk(model, 3, self.CHUNK)
        transmit_chunk(model, 3, self.CHUNK)
        assert builds == [110]
        assert simulator_module._last_model is None
