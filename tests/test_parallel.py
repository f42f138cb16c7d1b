"""Tests for the parallel execution engine and the context caches.

The load-bearing property throughout: for the RNG-free stages (profile
fitting, reconstruction, curve accumulation) and for the per-cluster-
seeded simulator, results must be **bit-identical** at every worker
count.  ``REPRO_FORCE_PARALLEL`` is set where the real process pool must
run even on single-core test runners (the serial fallback would
otherwise hide pickling and merge bugs).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from functools import partial

import pytest

from repro import parallel
from repro.core.coverage import ConstantCoverage, NegativeBinomialCoverage
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile
from repro.core.simulator import Simulator
from repro.core.strand import Cluster
from repro.data.io import PoolWriter
from repro.data.nanopore import make_nanopore_dataset
from repro.experiments import cache as context_cache
from repro.metrics.curves import (
    merge_curves,
    post_reconstruction_curves,
    pre_reconstruction_curves,
)
from repro.parallel import (
    default_chunk_size,
    derive_seed,
    parallel_stream,
    resolve_workers,
    set_default_workers,
    stream_chunks,
)
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.iterative import IterativeReconstruction
from repro.sharding.plan import batched
from repro.sharding.runner import run_fullscale

WORKER_COUNTS = (1, 2, 4)


def _square(value: int) -> int:
    return value * value


def _squares(values: list[int]) -> list[int]:
    return [value * value for value in values]


def _scaled(factor: int, values: list[int]) -> list[int]:
    return [factor * value for value in values]


def _inverses(values: list[int]) -> list[float]:
    return [1 / value for value in values]


def _chunk_map(fn, items, workers) -> list:
    """The flattened results of a :func:`stream_chunks` map."""
    return [result for chunk in stream_chunks(fn, items, workers) for result in chunk]


@pytest.fixture
def force_pool(monkeypatch):
    """Force the process pool so single-core runners still exercise it."""
    monkeypatch.setenv(parallel.FORCE_ENV, "1")


@pytest.fixture
def profiling_pool():
    return make_nanopore_dataset(n_clusters=25, seed=2)


class TestParallelMap:
    """The ordered chunk map every in-memory stage folds over
    (:func:`stream_chunks` on :func:`parallel_stream`)."""

    def test_serial_fallback_matches_comprehension(self):
        items = list(range(20))
        assert list(stream_chunks(_squares, items, workers=1)) == [_squares(items)]

    def test_pool_preserves_order(self, force_pool):
        items = list(range(37))
        assert len(list(stream_chunks(len, items, workers=2))) > 1
        assert _chunk_map(_squares, items, workers=2) == _squares(items)

    def test_empty_items(self, force_pool):
        assert list(stream_chunks(_squares, [], workers=4)) == [[]]

    def test_partial_functions_are_picklable(self, force_pool):
        fn = partial(_scaled, 2)
        assert _chunk_map(fn, [1, 2, 3, 4], workers=2) == [2, 4, 6, 8]

    def test_worker_exception_propagates(self, force_pool):
        with pytest.raises(ZeroDivisionError):
            _chunk_map(_inverses, [1, 0], workers=2)


def _slow_square(value: int) -> int:
    time.sleep(0.05)
    return value * value


class PullCounter:
    """An input generator that records, at every pull, how many items
    the stream has pulled beyond what its consumer has received."""

    def __init__(self, n_items: int) -> None:
        self.n_items = n_items
        self.pulled = 0
        self.received = 0
        self.ahead: list[int] = []

    def __iter__(self):
        for value in range(self.n_items):
            self.pulled += 1
            self.ahead.append(self.pulled - self.received)
            yield value


def _counting_pool(monkeypatch) -> list[int]:
    """Wrap ``parallel.ProcessPoolExecutor`` so each pool built is logged."""
    built: list[int] = []
    real = parallel.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting)
    return built


class TestParallelStream:
    def test_serial_fallback_matches_comprehension(self):
        assert list(parallel_stream(_square, iter(range(20)), workers=1)) == [
            value * value for value in range(20)
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pool_preserves_order(self, force_pool, workers):
        assert list(parallel_stream(_square, iter(range(23)), workers)) == [
            value * value for value in range(23)
        ]

    def test_empty_stream(self, force_pool):
        assert list(parallel_stream(_square, iter([]), workers=2)) == []

    @pytest.mark.parametrize("workers", (2, 3))
    def test_window_never_pulls_more_than_workers_ahead(
        self, monkeypatch, workers
    ):
        """The DESIGN §11 memory bound: at most ``workers`` items are
        pulled beyond the results the consumer has received."""
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        source = PullCounter(12)
        results = []
        for result in parallel_stream(_square, source, workers):
            source.received += 1
            results.append(result)
        assert results == [value * value for value in range(12)]
        assert max(source.ahead) == workers

    def test_worker_exception_surfaces_at_its_position(self, force_pool):
        results = []
        with pytest.raises(ZeroDivisionError):
            for result in parallel_stream(
                partial(divmod, 1), iter([1, 2, 0, 4, 5]), workers=2
            ):
                results.append(result)
        assert results == [divmod(1, 1), divmod(1, 2)]
        assert multiprocessing.active_children() == []


class TestStreamLifecycle:
    """A consumer that stops early shuts the stream's pool down: queued
    items are cancelled, no worker outlives the stream, and the stop
    waits at most for the items already running."""

    N_ITEMS = 400  # ~10 s of work on 2 workers if the stream ran on

    def test_break(self, force_pool):
        started = time.perf_counter()
        for result in parallel_stream(
            _slow_square, iter(range(self.N_ITEMS)), workers=2
        ):
            assert result == 0
            break
        assert time.perf_counter() - started < 5
        assert multiprocessing.active_children() == []

    def test_close(self, force_pool):
        source = PullCounter(self.N_ITEMS)
        stream = parallel_stream(_slow_square, source, workers=2)
        assert [next(stream), next(stream)] == [0, 1]
        stream.close()
        assert source.pulled <= 2 + 2  # results received + the window
        assert multiprocessing.active_children() == []

    def test_raising_pool_writer(self, force_pool, tmp_path, monkeypatch):
        written: list[Cluster] = []

        def fail_after_three(self, cluster):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(cluster)

        monkeypatch.setattr(PoolWriter, "write_cluster", fail_after_three)
        simulator = Simulator(
            ErrorModel.uniform(0.06),
            ConstantCoverage(4),
            seed=5,
            per_cluster_seeds=True,
        )
        references = ["ACGT" * 25] * self.N_ITEMS
        with pytest.raises(OSError, match="disk full"):
            with PoolWriter(tmp_path / "pool.txt") as writer:
                writer.write_all(
                    simulator.iter_shards(references, shards=50, workers=2)
                )
        assert len(written) == 3
        assert not (tmp_path / "pool.txt").exists()
        assert multiprocessing.active_children() == []


class TestIterShardsPools:
    REFERENCES = [
        "".join(random.Random(index).choices("ACGT", k=40))
        for index in range(40)
    ]

    def _simulator(self) -> Simulator:
        return Simulator(
            ErrorModel.uniform(0.06),
            ConstantCoverage(3),
            seed=11,
            per_cluster_seeds=True,
        )

    def test_one_pool_for_eight_shards(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        built = _counting_pool(monkeypatch)
        streamed = list(
            self._simulator().iter_shards(self.REFERENCES, shards=8, workers=2)
        )
        assert built == [2]
        whole = self._simulator().simulate(self.REFERENCES)
        assert [c.copies for c in streamed] == [c.copies for c in whole]

    def test_one_worker_builds_no_pool(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        built = _counting_pool(monkeypatch)
        list(self._simulator().iter_shards(self.REFERENCES, shards=8, workers=1))
        assert built == []


class TestFullScalePools:
    """``run_fullscale`` streams its shards through one pool at any shard
    count above one: two or three shards are not below some item-count
    gate."""

    @pytest.mark.parametrize("shards", (2, 3))
    def test_one_pool_for_few_shards(self, monkeypatch, shards):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        built = _counting_pool(monkeypatch)
        pooled = run_fullscale(n_clusters=60, shards=shards, workers=2)
        assert built == [2]
        serial = run_fullscale(n_clusters=60, shards=shards, workers=1)
        assert built == [2]
        assert pooled.summary() == {**serial.summary(), "workers": 2}


class TestSerialFastPath:
    """The serial rules the chunk map derives from its inputs — one
    worker, one CPU, or one chunk — run the function once over the whole
    input without a pool; there is no item-count gate."""

    def test_single_chunk_runs_serial(self, monkeypatch):
        def explode(*_args, **_kwargs):  # pragma: no cover - fails the test
            raise AssertionError("a one-chunk pool is pure overhead")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", explode)
        assert list(stream_chunks(_squares, [8], workers=4)) == [[64]]

    def test_one_cpu_runs_serial(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        built = _counting_pool(monkeypatch)
        items = list(range(12))
        assert list(stream_chunks(_squares, items, workers=4)) == [
            _squares(items)
        ]
        assert built == []

    def test_few_items_use_the_pool(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        built = _counting_pool(monkeypatch)
        assert _chunk_map(_squares, [1, 2, 3], workers=2) == [1, 4, 9]
        assert built == [2]

    def test_force_bypasses_all_fast_paths(self, force_pool, monkeypatch):
        built = _counting_pool(monkeypatch)
        assert _chunk_map(_squares, [1, 2], workers=1) == [1, 4]
        assert built == [2]

    @pytest.mark.parametrize(
        "reconstructor", [BMALookahead(), IterativeReconstruction()],
        ids=lambda r: r.name,
    )
    def test_one_worker_stages_call_once(
        self, profiling_pool, monkeypatch, reconstructor
    ):
        """At one worker each stage runs its function once over the
        whole input: one ``reconstruct_many``, one tally, one curve
        pass."""
        from repro.core import profile as profile_module
        from repro.metrics import curves as curves_module

        calls: list[str] = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        spy(type(reconstructor), "reconstruct_many")
        spy(profile_module, "_tally_cluster_chunk")
        spy(curves_module, "_curves_for_pairs")
        estimates = reconstructor.reconstruct_pool(profiling_pool, 110, workers=1)
        ErrorProfile.from_pool(profiling_pool, 4, workers=1)
        post_reconstruction_curves(profiling_pool, estimates, workers=1)
        assert calls == [
            "reconstruct_many", "_tally_cluster_chunk", "_curves_for_pairs"
        ]


class TestWorkerResolution:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert parallel.default_workers() == 3

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "0")
        assert parallel.default_workers() == (os.cpu_count() or 1)

    def test_env_garbage_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "many")
        assert parallel.default_workers() == 1

    def test_env_negative_falls_back_to_serial(self, monkeypatch):
        """A negative ``REPRO_WORKERS`` is rejected like a non-integer
        one — as ``set_default_workers`` and ``--workers`` reject it —
        not read as "all cores"."""
        monkeypatch.setattr(parallel, "_warned_worker_values", set())
        monkeypatch.setenv(parallel.WORKERS_ENV, "-2")
        assert parallel.default_workers() == 1
        assert resolve_workers(None) == 1
        assert parallel._warned_worker_values == {"-2"}

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        set_default_workers(5)
        try:
            assert parallel.default_workers() == 5
            assert resolve_workers(None) == 5
        finally:
            set_default_workers(None)

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError):
            set_default_workers(-1)

    def test_explicit_argument_wins(self):
        assert resolve_workers(7) == 7
        assert resolve_workers(0) == (os.cpu_count() or 1)


class TestChunking:
    def test_chunks_restore_order(self):
        items = list(range(23))
        chunks = list(batched(items, default_chunk_size(len(items), 4)))
        assert len(chunks) > 1
        assert [item for chunk in chunks for item in chunk] == items

    def test_default_chunk_size_targets_four_per_worker(self):
        assert default_chunk_size(80, 4) == 5
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 2) == 1

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(batched([1, 2], 0))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(17, 3) == derive_seed(17, 3)
        seeds = {derive_seed(17, index) for index in range(1000)}
        assert len(seeds) == 1000

    def test_base_seed_separates_streams(self):
        assert derive_seed(17, 0) != derive_seed(18, 0)


class TestStageEquivalence:
    """Parallel output must be bit-identical to serial for RNG-free stages."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_profile_fit(self, profiling_pool, force_pool, workers):
        serial = ErrorProfile.from_pool(profiling_pool, max_copies_per_cluster=4)
        parallel_fit = ErrorProfile.from_pool(
            profiling_pool, max_copies_per_cluster=4, workers=workers
        )
        assert parallel_fit.statistics == serial.statistics

    def test_profile_fit_with_rng_stays_serial(self, profiling_pool):
        import random

        profile = ErrorProfile.from_pool(
            profiling_pool, max_copies_per_cluster=2,
            rng=random.Random(5), workers=4,
        )
        assert profile.statistics.pair_count > 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "reconstructor", [BMALookahead(), IterativeReconstruction()],
        ids=lambda r: r.name,
    )
    def test_reconstruction(self, profiling_pool, force_pool, workers, reconstructor):
        serial = [
            reconstructor.reconstruct(cluster.copies, 110)
            for cluster in profiling_pool
        ]
        parallel_estimates = reconstructor.reconstruct_pool(
            profiling_pool, 110, workers=workers
        )
        assert parallel_estimates == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pre_reconstruction_curves(self, profiling_pool, force_pool, workers):
        serial = pre_reconstruction_curves(profiling_pool, max_copies_per_cluster=3)
        result = pre_reconstruction_curves(
            profiling_pool, max_copies_per_cluster=3, workers=workers
        )
        assert result == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_post_reconstruction_curves(self, profiling_pool, force_pool, workers):
        estimates = BMALookahead().reconstruct_pool(profiling_pool, 110, workers=1)
        serial = post_reconstruction_curves(profiling_pool, estimates)
        result = post_reconstruction_curves(
            profiling_pool, estimates, workers=workers
        )
        assert result == serial

    def test_post_curves_length_mismatch(self, profiling_pool):
        with pytest.raises(ValueError):
            post_reconstruction_curves(profiling_pool, ["A"])


class TestMergeCurves:
    def test_pads_shorter_curves(self):
        assert merge_curves([[1, 2, 3], [4], [0, 5]]) == [5, 7, 3]

    def test_empty(self):
        assert merge_curves([]) == []


class TestSeededSimulator:
    def _simulator(self, coverage):
        return Simulator(
            ErrorModel.uniform(0.05), coverage, seed=11, per_cluster_seeds=True
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deterministic_at_any_worker_count(self, force_pool, workers):
        references = make_nanopore_dataset(n_clusters=12, seed=4).references
        baseline = self._simulator(ConstantCoverage(4)).simulate(
            references, workers=1
        )
        pool = self._simulator(ConstantCoverage(4)).simulate(
            references, workers=workers
        )
        assert [cluster.copies for cluster in pool] == [
            cluster.copies for cluster in baseline
        ]
        assert pool.references == references

    def test_random_coverage_model_is_deterministic(self, force_pool):
        references = make_nanopore_dataset(n_clusters=10, seed=4).references
        coverage = NegativeBinomialCoverage(6.0, 4.0)
        first = self._simulator(coverage).simulate(references, workers=2)
        second = self._simulator(coverage).simulate(references, workers=4)
        assert [cluster.copies for cluster in first] == [
            cluster.copies for cluster in second
        ]

    def test_simulate_like_matches_coverages(self, force_pool, profiling_pool):
        pool = self._simulator(ConstantCoverage(1)).simulate_like(
            profiling_pool, workers=2
        )
        assert pool.coverages() == profiling_pool.coverages()

    def test_per_cluster_seeds_requires_seed(self):
        with pytest.raises(ValueError):
            Simulator(ErrorModel.uniform(0.05), per_cluster_seeds=True)

    def test_default_path_keeps_serial_stream(self):
        """Without the opt-in, simulate() must reproduce the historical
        single-stream draw order exactly (PR 1's RNG contract)."""
        references = make_nanopore_dataset(n_clusters=5, seed=4).references
        one = Simulator(ErrorModel.uniform(0.05), ConstantCoverage(3), seed=9)
        two = Simulator(ErrorModel.uniform(0.05), ConstantCoverage(3), seed=9)
        serial = one.channel.transmit_pool(references, one.coverage)
        via_simulate = two.simulate(references, workers=4)
        assert [cluster.copies for cluster in via_simulate] == [
            cluster.copies for cluster in serial
        ]


class TestContextDiskCache:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(context_cache.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(context_cache.CACHE_ENABLED_ENV, raising=False)
        from repro.experiments import common

        common.clear_contexts()
        yield
        common.clear_contexts()

    def test_second_build_hits_cache(self, monkeypatch):
        from repro.experiments import common

        first = common.ExperimentContext(12)
        assert context_cache.context_cache_path(
            12, common.DATASET_SEED, common.PROFILE_COPIES
        ).exists()

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("dataset regenerated despite cache hit")

        monkeypatch.setattr(common, "make_nanopore_dataset", explode)
        second = common.ExperimentContext(12)
        assert second.real_pool.total_copies == first.real_pool.total_copies
        assert second.profile.statistics == first.profile.statistics

    def test_corrupt_entry_regenerates(self):
        from repro.experiments import common

        path = context_cache.context_cache_path(
            11, common.DATASET_SEED, common.PROFILE_COPIES
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        context = common.ExperimentContext(11)
        assert len(context.real_pool) == 11
        # The corrupt file was replaced by a fresh entry.
        assert context_cache.load_context_artifacts(
            11, common.DATASET_SEED, common.PROFILE_COPIES
        ) is not None

    def test_disabled_cache_writes_nothing(self, monkeypatch, tmp_path):
        from repro.experiments import common

        monkeypatch.setenv(context_cache.CACHE_ENABLED_ENV, "off")
        common.ExperimentContext(10)
        assert list(tmp_path.iterdir()) == []

    def test_clear_cache(self):
        from repro.experiments import common

        common.ExperimentContext(10)
        assert context_cache.clear_cache() == 1
        assert context_cache.load_context_artifacts(
            10, common.DATASET_SEED, common.PROFILE_COPIES
        ) is None


class TestContextLRU:
    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv(context_cache.CACHE_DIR_ENV, str(tmp_path))
        from repro.experiments import common

        common.clear_contexts()
        yield
        common.clear_contexts()

    def test_keeps_most_recent_two(self):
        from repro.experiments import common

        first = common.get_context(8)
        second = common.get_context(9)
        third = common.get_context(10)
        assert list(common._CONTEXTS) == [9, 10]
        assert common.get_context(9) is second
        assert common.get_context(10) is third
        # Scale 8 was evicted; a fresh request rebuilds (from disk cache).
        assert common.get_context(8) is not first

    def test_reuse_refreshes_recency(self):
        from repro.experiments import common

        common.get_context(8)
        common.get_context(9)
        common.get_context(8)  # 8 becomes most recent
        common.get_context(10)  # evicts 9, not 8
        assert list(common._CONTEXTS) == [8, 10]

    def test_clear_contexts(self):
        from repro.experiments import common

        common.get_context(8)
        common.clear_contexts()
        assert len(common._CONTEXTS) == 0
