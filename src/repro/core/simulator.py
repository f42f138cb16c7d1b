"""The simulator front-end: the paper's primary deliverable.

A :class:`Simulator` bundles an :class:`~repro.core.errors.ErrorModel`
(what errors look like) with a
:class:`~repro.core.coverage.CoverageModel` (how many noisy copies each
strand receives) and produces pseudo-clustered
:class:`~repro.core.strand.StrandPool` datasets from reference strands —
the ``(Sigma_L)^N -> (Sigma^*)^M`` transformation of Section 2.3.

Typical use reproduces the paper's workflow end to end::

    profile = ErrorProfile.from_pool(real_data)          # data-driven fit
    simulator = Simulator.fitted(profile,
                                 stage=SimulatorStage.SECOND_ORDER,
                                 coverage=ConstantCoverage(5), seed=7)
    simulated = simulator.simulate(real_data.references)

``simulated`` can then be fed to any reconstruction algorithm and its
accuracy compared against the real data's (Section 3.1, metric 4).
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import chain

from repro.core.alphabet import random_strand
from repro.core.channel import Channel
from repro.core.coverage import ConstantCoverage, CoverageModel
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.strand import Cluster, StrandPool
from repro.exceptions import ConfigError
from repro.observability import counter, span
from repro.parallel import derive_seed, parallel_stream, stream_chunks
from repro.sharding.plan import resolve_shards, split_contiguous


class Simulator:
    """Generates noisy pseudo-clustered datasets from reference strands.

    Args:
        model: the error model to execute for every transmission.
        coverage: per-cluster coverage model (defaults to a constant 5,
            one of the paper's two reference coverages).
        seed: seed for the simulator's private random stream.  Two
            simulators constructed with the same model, coverage, and seed
            produce identical pools.
        per_cluster_seeds: opt into deriving an independent RNG stream
            per cluster from ``(seed, cluster_index)``.  This changes the
            generated pool relative to the default single-stream draw
            order (which is a reproducibility contract and stays serial),
            but makes :meth:`simulate` bit-identical at every worker
            count — the prerequisite for parallel simulation.  Requires
            an explicit ``seed``.
    """

    def __init__(
        self,
        model: ErrorModel,
        coverage: CoverageModel | None = None,
        seed: int | None = None,
        per_cluster_seeds: bool = False,
    ) -> None:
        if per_cluster_seeds and seed is None:
            raise ConfigError("per_cluster_seeds requires an explicit seed")
        self.model = model
        self.coverage = coverage if coverage is not None else ConstantCoverage(5)
        self.seed = seed
        self.per_cluster_seeds = per_cluster_seeds
        self.rng = random.Random(seed)
        self.channel = Channel(model, self.rng)

    @classmethod
    def fitted(
        cls,
        profile: ErrorProfile,
        stage: SimulatorStage = SimulatorStage.SECOND_ORDER,
        coverage: CoverageModel | None = None,
        seed: int | None = None,
        top_second_order: int = 10,
        per_cluster_seeds: bool = False,
    ) -> "Simulator":
        """Build a simulator from a fitted :class:`ErrorProfile` at any of
        the paper's four model stages."""
        model = profile.model_for_stage(stage, top_second_order)
        return cls(model, coverage, seed, per_cluster_seeds)

    def simulate(
        self,
        references: Sequence[str],
        workers: int | None = None,
    ) -> StrandPool:
        """Transmit every reference; returns a pseudo-clustered pool.

        The default simulator draws every random variate from one serial
        stream — that exact draw order is a compatibility contract, so
        ``workers`` is ignored unless the simulator was constructed with
        ``per_cluster_seeds=True``.  In that mode each cluster owns an
        RNG derived from ``(seed, cluster_index)`` and clusters can be
        transmitted on a process pool, bit-identical at any worker
        count.
        """
        with span(
            "simulate",
            clusters=len(references),
            per_cluster_seeds=self.per_cluster_seeds,
        ):
            counter("simulate.clusters").inc(len(references))
            if not self.per_cluster_seeds:
                return self.channel.transmit_pool(references, self.coverage)
            return self._simulate_seeded(references, self.coverage, workers)

    def iter_shards(
        self,
        references: Sequence[str],
        shards: int | None = None,
        workers: int | None = None,
    ) -> "Iterator[Cluster]":
        """Stream simulated clusters shard by shard, in reference order.

        The streaming counterpart of :meth:`simulate` for paper-scale
        generation (``dnasim generate --stream``): clusters are produced
        in contiguous shards (at most ``workers`` shards in flight) and
        yielded in the original reference order at any shard count, so
        they can be written straight to disk through
        :class:`repro.data.io.PoolWriter`.  Memory is bounded by one
        shard per worker in flight, so the bound needs ``shards`` > 1: a
        single shard is the whole output.  The yielded clusters are
        identical to :meth:`simulate`'s at any shard and worker count.

        Requires ``per_cluster_seeds=True``: each cluster's noise comes
        from its own ``(seed, index)``-derived stream, which is what
        makes partitioned generation deterministic.

        Raises:
            ConfigError: when the simulator draws from the serial stream.
        """
        if not self.per_cluster_seeds:
            raise ConfigError(
                "streamed simulation requires per_cluster_seeds=True "
                "(the default serial RNG stream cannot be partitioned)"
            )
        coverages = draw_coverages(self.coverage, len(references), self.seed)
        per_shard = split_contiguous(
            list(zip(range(len(references)), references, coverages)),
            resolve_shards(shards),
        )
        with span(
            "simulate_stream", clusters=len(references), shards=len(per_shard)
        ):
            counter("simulate.clusters").inc(len(references))
            yield from chain.from_iterable(
                parallel_stream(
                    partial(transmit_chunk, self.model, self.seed),
                    per_shard,
                    workers,
                )
            )

    def _simulate_seeded(
        self,
        references: Sequence[str],
        coverage_model: CoverageModel,
        workers: int | None,
    ) -> StrandPool:
        """Per-cluster-seeded simulation (serial or process pool).

        Coverages are drawn up front (:func:`draw_coverages`) so coverage
        models that need the whole pool at once (e.g. ``CustomCoverage``)
        keep working; each cluster's transmissions then consume only its
        own derived stream, making the result independent of chunking
        and worker count.
        """
        coverages = draw_coverages(coverage_model, len(references), self.seed)
        items = list(zip(range(len(references)), references, coverages))
        per_chunk = stream_chunks(
            partial(transmit_chunk, self.model, self.seed), items, workers
        )
        return StrandPool(list(chain.from_iterable(per_chunk)))

    def simulate_random(self, n_strands: int, strand_length: int) -> StrandPool:
        """Generate random references, then transmit them.

        Convenience for sensitivity studies (Section 3.4) that do not care
        about the reference content.
        """
        references = [
            random_strand(strand_length, self.rng) for _ in range(n_strands)
        ]
        return self.simulate(references)

    def simulate_like(
        self,
        reference_pool: StrandPool,
        workers: int | None = None,
    ) -> StrandPool:
        """Simulate with **custom coverage**: each cluster receives exactly
        the coverage of the corresponding cluster of ``reference_pool``
        (the paper's Table 2.1 protocol, Section 2.2.2).  Parallel only
        with ``per_cluster_seeds=True``, like :meth:`simulate`."""
        from repro.core.coverage import CustomCoverage

        coverages = CustomCoverage(reference_pool.coverages())
        if not self.per_cluster_seeds:
            return self.channel.transmit_pool(reference_pool.references, coverages)
        return self._simulate_seeded(reference_pool.references, coverages, workers)


# The per-cluster seeding convention, shared by every per-cluster-seeded
# generator (``per_cluster_seeds=True``, ``iter_nanopore_clusters``,
# ``run_shard``): cluster ``i``'s noise comes from ``derive_seed(seed,
# i)`` and the rest from negative stream indices, which no cluster can
# collide with.  Each cluster is then a pure function of ``(seed, i)``,
# so every shard and worker partitioning yields the same bytes.


def draw_coverages(
    coverage: CoverageModel, n_clusters: int, seed: int
) -> list[int]:
    """Every cluster's coverage, drawn up front in index order from
    stream -1.

    Raises:
        ConfigError: when ``n_clusters`` is negative.
    """
    if n_clusters < 0:
        raise ConfigError(f"n_clusters must be non-negative, got {n_clusters}")
    return coverage.draw(n_clusters, random.Random(derive_seed(seed, -1)))


def derived_reference(seed: int, strand_length: int, index: int) -> str:
    """Cluster ``index``'s random reference strand, from stream -2."""
    reference_seed = derive_seed(derive_seed(seed, -2), index)
    return random_strand(strand_length, random.Random(reference_seed))


def fault_seed(seed: int, index: int) -> int:
    """The seed of cluster ``index``'s fault injector, from stream -3."""
    return derive_seed(derive_seed(seed, -3), index)


#: The model the last :func:`transmit_chunk` call in this pool worker
#: ran, and its pickled state.  A worker unpickles a fresh copy of the
#: model for every task, and the copy misses the ladder cache, which is
#: keyed by model object (:mod:`repro.core.channel`).  Holding the last
#: model keeps its cache entry alive for the next task with the same
#: state.
_last_model: tuple[ErrorModel, bytes] | None = None


def _reused_model(model: ErrorModel) -> ErrorModel:
    """In a pool worker, the last model :func:`transmit_chunk` ran if
    ``model`` pickles to the same state; else ``model``.

    Pickled state, not ``==``: spatial distributions compare by
    identity, so two copies of one model are never ``==``; and dict
    ``==`` ignores key order, which the ladders' draw tables follow.  A
    model that does not pickle runs as given.  The main process passes
    its caller's own model object, whose cache lives as long as the
    caller holds it; holding it here too would keep a finished run's
    ladders alive through later stages.
    """
    global _last_model
    if multiprocessing.parent_process() is None:
        return model
    try:
        state = pickle.dumps(model)
    except (pickle.PicklingError, TypeError, AttributeError):
        return model
    if _last_model is not None and _last_model[1] == state:
        return _last_model[0]
    _last_model = (model, state)
    return model


def transmit_chunk(
    model: ErrorModel,
    seed: int,
    chunk: Sequence[tuple[int, str, int]],
) -> list[Cluster]:
    """Worker task for per-cluster-seeded generation.

    Transmits a chunk of ``(cluster_index, reference, coverage)`` items,
    each from the stream of a fresh ``random.Random(derive_seed(seed,
    cluster_index))`` (:meth:`Channel.transmit_seeded`), so the output is
    a pure function of the item; the channel and its per-length tables
    are shared across the chunk, and across chunks of one model
    (:func:`_reused_model`).
    """
    channel = Channel(_reused_model(model))
    return [
        channel.transmit_seeded(reference, coverage, derive_seed(seed, cluster_index))
        for cluster_index, reference, coverage in chunk
    ]


def transmit_derived_chunk(
    model: ErrorModel,
    seed: int,
    strand_length: int,
    chunk: Sequence[tuple[int, int]],
) -> list[Cluster]:
    """:func:`transmit_chunk` over ``(cluster_index, coverage)`` items
    whose references are :func:`derived_reference` strands, derived here
    in the worker rather than serially in the parent."""
    return transmit_chunk(
        model,
        seed,
        [
            (index, derived_reference(seed, strand_length, index), coverage)
            for index, coverage in chunk
        ],
    )
