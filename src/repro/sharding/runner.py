"""The full-scale sharded pipeline: generate → profile → reconstruct → score.

The paper's evaluation scale (10,000 strands × 110 bases, ~270k noisy
reads) never fits comfortably through the materialise-everything
experiment path: the pool alone is hundreds of megabytes of strings, and
every stage holds its own per-cluster intermediates on top.  This runner
executes the whole pipeline **shard by shard**: each shard worker
generates its clusters from derived per-cluster seeds, tallies error
statistics, reconstructs, and scores — returning only the mergeable
summaries (an :class:`~repro.analysis.error_stats.ErrorStatistics`, one
:class:`~repro.metrics.accuracy.AccuracyTally` per algorithm, and a few
counts).  The parent folds shard results together with the associative
merge machinery, so peak memory is bounded by the shards in flight, not
the archive, and the merged numbers are identical at every shard and
worker count.

Observability rides along: each shard runs under a ``fullscale.shard``
span and bumps ``fullscale.*`` counters, shipped home from pool workers
by :func:`repro.parallel.parallel_stream` when collection is enabled.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.analysis.error_stats import ErrorStatistics
from repro.core.errors import ErrorModel
from repro.core.simulator import draw_coverages, fault_seed, transmit_derived_chunk
from repro.core.strand import Cluster, StrandPool
from repro.exceptions import ConfigError
from repro.robustness.faults import SEVERITY_LEVELS, FaultInjector
from repro.metrics.accuracy import AccuracyReport, AccuracyTally
from repro.observability import counter, span
from repro.parallel import parallel_stream, resolve_workers
from repro.reconstruct.base import Reconstructor
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.majority import PositionalMajority
from repro.sharding.plan import resolve_shards, split_contiguous

#: Algorithms the full-scale runner can score, by CLI name.  Positional
#: majority is the default for speed, not accuracy: at paper scale it
#: recovers 0.15% of strands and 76.55% of characters, against BMA's
#: 81.67% and 93.93%, but it is the fastest algorithm, which keeps the
#: full-scale wall time dominated by simulation rather than scoring.
RECONSTRUCTORS: dict[str, type[Reconstructor]] = {
    "majority": PositionalMajority,
    "bma": BMALookahead,
    "divbma": DividerBMA,
    "iterative": IterativeReconstruction,
}


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard worker needs, picklable once per run.

    ``fault_severity`` applies a seeded
    :class:`repro.robustness.FaultInjector` to each cluster's reads,
    keyed by :func:`~repro.core.simulator.fault_seed` so faults — like
    the channel noise — are a pure function of the cluster index,
    preserving bit-identity at any shard/worker partitioning.
    """

    model: ErrorModel
    seed: int
    strand_length: int
    max_copies: int | None
    algorithms: tuple[str, ...]
    fault_severity: str = "none"


#: One shard's mergeable summary: ``(statistics, tallies, n_reads)``.
ShardResult = tuple[ErrorStatistics, dict[str, AccuracyTally], int]


@dataclass(frozen=True)
class FullScalePlan:
    """The deterministic decomposition of one full-scale run.

    A pure function of the run parameters: the same ``(n_clusters,
    strand_length, mean_coverage, seed, shards, algorithms, max_copies)``
    always yields the same per-shard work items, so
    :func:`run_fullscale` produces bit-identical merged results from the
    same plan at any worker count and in any completion order.
    """

    config: ShardConfig
    #: Per-shard ``(cluster_index, coverage)`` work items.
    per_shard: tuple[tuple[tuple[int, int], ...], ...]
    n_clusters: int
    strand_length: int
    n_erasures: int

    @property
    def n_shards(self) -> int:
        return len(self.per_shard)

    def shard_items(self) -> list[tuple[int, list[tuple[int, int]]]]:
        """The ``(shard_index, chunk)`` items :func:`run_shard` consumes."""
        return [
            (shard_index, list(chunk))
            for shard_index, chunk in enumerate(self.per_shard)
        ]


@dataclass
class FullScaleResult:
    """Merged outcome of a sharded full-scale run.

    Every field is derived from associatively merged per-shard summaries,
    so it is independent of the shard and worker counts used to compute
    it.
    """

    n_clusters: int
    strand_length: int
    n_shards: int
    workers: int
    n_reads: int
    n_erasures: int
    mean_coverage: float
    aggregate_error_rate: float
    accuracy: dict[str, AccuracyReport]
    shard_sizes: list[int] = field(default_factory=list)
    statistics: ErrorStatistics | None = None

    def summary(self) -> dict:
        """JSON-ready summary (what the bench record embeds)."""
        return {
            "n_clusters": self.n_clusters,
            "strand_length": self.strand_length,
            "n_shards": self.n_shards,
            "workers": self.workers,
            "n_reads": self.n_reads,
            "n_erasures": self.n_erasures,
            "mean_coverage": round(self.mean_coverage, 4),
            "aggregate_error_rate": round(self.aggregate_error_rate, 6),
            "accuracy": {
                name: {
                    "per_strand": round(report.per_strand, 4),
                    "per_character": round(report.per_character, 4),
                }
                for name, report in self.accuracy.items()
            },
        }


def run_shard(
    config: ShardConfig, item: tuple[int, list[tuple[int, int]]]
) -> ShardResult:
    """One shard of the full pipeline, start to finish.

    ``item`` is ``(shard_index, [(cluster_index, coverage), ...])``.
    Each cluster is a pure function of its index (the per-cluster
    seeding convention of :mod:`repro.core.simulator`), so shard
    results — and therefore the merged run — are identical at any
    partitioning.  Only the mergeable summaries leave the worker; the
    shard's clusters die with it, which is the whole memory story.
    """
    shard_index, chunk = item
    with span(
        "fullscale.shard", shard=shard_index, clusters=len(chunk)
    ) as shard_span:
        clusters = transmit_derived_chunk(
            config.model, config.seed, config.strand_length, chunk
        )
        if config.fault_severity != "none":
            # One injector per cluster, seeded from the cluster index:
            # faults never depend on which shard (or attempt) a cluster
            # runs in.
            clusters = [
                Cluster(
                    cluster.reference,
                    FaultInjector(
                        config.fault_severity,
                        seed=fault_seed(config.seed, cluster_index),
                    ).inject_reads(cluster.copies),
                )
                for (cluster_index, _), cluster in zip(chunk, clusters)
            ]
        n_reads = sum(cluster.coverage for cluster in clusters)
        pool = StrandPool(clusters)
        statistics = ErrorStatistics()
        statistics.tally_pool(pool, config.max_copies)
        tallies: dict[str, AccuracyTally] = {}
        for name in config.algorithms:
            reconstructor = RECONSTRUCTORS[name]()
            estimates = reconstructor.reconstruct_pool(
                pool, config.strand_length, workers=1
            )
            tally = AccuracyTally()
            tally.update_many(pool.references, estimates)
            tallies[name] = tally
        counter("fullscale.reads").inc(n_reads)
        counter("fullscale.clusters").inc(len(chunk))
        if shard_span is not None:
            shard_span.set(reads=n_reads)
        return statistics, tallies, n_reads


def plan_fullscale(
    n_clusters: int = 1_000,
    strand_length: int | None = None,
    mean_coverage: float | None = None,
    seed: int = 0,
    shards: int | None = None,
    algorithms: tuple[str, ...] = ("majority",),
    max_copies: int | None = 4,
    parameters: object = None,
    fault_severity: str = "none",
) -> FullScalePlan:
    """Build the deterministic shard decomposition of a full-scale run.

    Validates the parameters, draws the per-cluster coverages from the
    run seed, and partitions the clusters into contiguous shards.  The
    returned :class:`FullScalePlan` fully determines every shard's work:
    executing its shards in any order and
    merging with :func:`merge_shard_results` reproduces
    :func:`run_fullscale` bit for bit.

    ``fault_severity`` turns on per-cluster-seeded fault injection in
    the shards (see :class:`ShardConfig`).

    Raises:
        ConfigError: unknown algorithm or severity names, or
            ``n_clusters`` below 1 (a 0-cluster accuracy would read as
            total failure).
    """
    # Imported lazily: repro.data.nanopore imports this package's plan
    # module, so a module-level import here would be circular.
    from repro.data.nanopore import (
        PAPER_MEAN_COVERAGE,
        PAPER_STRAND_LENGTH,
        ground_truth_coverage,
        ground_truth_model,
    )

    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    for name in algorithms:
        if name not in RECONSTRUCTORS:
            raise ConfigError(
                f"unknown algorithm {name!r}; choose from "
                f"{sorted(RECONSTRUCTORS)}"
            )
    if fault_severity not in SEVERITY_LEVELS:
        raise ConfigError(
            f"unknown fault_severity {fault_severity!r}; choose from "
            f"{sorted(SEVERITY_LEVELS)}"
        )
    if strand_length is None:
        strand_length = PAPER_STRAND_LENGTH
    if mean_coverage is None:
        mean_coverage = PAPER_MEAN_COVERAGE
    n_shards = resolve_shards(shards)

    coverages = draw_coverages(
        ground_truth_coverage(mean_coverage, parameters), n_clusters, seed
    )
    per_shard = split_contiguous(list(enumerate(coverages)), n_shards)
    config = ShardConfig(
        model=ground_truth_model(parameters),
        seed=seed,
        strand_length=strand_length,
        max_copies=max_copies,
        algorithms=tuple(algorithms),
        fault_severity=fault_severity,
    )
    return FullScalePlan(
        config=config,
        per_shard=tuple(tuple(chunk) for chunk in per_shard),
        n_clusters=n_clusters,
        strand_length=strand_length,
        n_erasures=sum(1 for coverage in coverages if coverage == 0),
    )


def merge_shard_results(
    fullscale_plan: FullScalePlan,
    shard_results: Sequence[ShardResult],
    workers: int,
    keep_statistics: bool = False,
) -> FullScaleResult:
    """Fold per-shard summaries (in shard order) into the merged result.

    Every field is built with the associative merge machinery, so the
    outcome depends only on the plan and the per-shard summaries — not on
    which process computed them.
    """
    if len(shard_results) != fullscale_plan.n_shards:
        raise ValueError(
            f"plan has {fullscale_plan.n_shards} shards but "
            f"{len(shard_results)} results given"
        )
    statistics = ErrorStatistics()
    tallies: dict[str, AccuracyTally] = {
        name: AccuracyTally() for name in fullscale_plan.config.algorithms
    }
    n_reads = 0
    for shard_statistics, shard_tallies, shard_reads in shard_results:
        statistics.merge(shard_statistics)
        for name, tally in shard_tallies.items():
            tallies[name].merge(tally)
        n_reads += shard_reads
    n_clusters = fullscale_plan.n_clusters
    return FullScaleResult(
        n_clusters=n_clusters,
        strand_length=fullscale_plan.strand_length,
        n_shards=fullscale_plan.n_shards,
        workers=workers,
        n_reads=n_reads,
        n_erasures=fullscale_plan.n_erasures,
        mean_coverage=n_reads / n_clusters if n_clusters else 0.0,
        aggregate_error_rate=statistics.aggregate_error_rate(),
        accuracy={name: tally.report() for name, tally in tallies.items()},
        shard_sizes=[len(chunk) for chunk in fullscale_plan.per_shard],
        statistics=statistics if keep_statistics else None,
    )


def run_fullscale(
    n_clusters: int = 1_000,
    strand_length: int | None = None,
    mean_coverage: float | None = None,
    seed: int = 0,
    shards: int | None = None,
    workers: int | None = None,
    algorithms: tuple[str, ...] = ("majority",),
    max_copies: int | None = 4,
    parameters: object = None,
    keep_statistics: bool = False,
    fault_severity: str = "none",
) -> FullScaleResult:
    """Run the whole pipeline at (up to) paper scale in bounded memory.

    Generates a per-cluster-seeded Nanopore-like dataset, profiles it,
    reconstructs it with each requested algorithm, and scores the
    results — all shard by shard on the process pool, merging only
    summaries.  At the paper's 10,000 × 110 / ~270k-read scale the
    parent process never holds more than the shards currently in flight.

    Args:
        n_clusters: dataset scale (the paper uses 10,000).
        strand_length: reference length (default: the paper's 110).
        mean_coverage: mean copies per cluster (default: the paper's
            26.97, negative-binomial with explicit erasures).
        seed: dataset seed; results are reproducible per seed.
        shards: shard count (``None`` -> ``REPRO_SHARDS``/CLI default;
            the result is identical at any value, only memory and
            parallel granularity change).
        workers: pool workers (``None`` -> ``REPRO_WORKERS``/CLI
            default).
        algorithms: reconstruction algorithms to score, by CLI name
            (any of ``majority``, ``bma``, ``divbma``, ``iterative``).
        max_copies: copies aligned per cluster when profiling.
        parameters: optional
            :class:`~repro.data.nanopore.NanoporeParameters` overriding
            the paper-calibrated channel.
        keep_statistics: retain the merged
            :class:`~repro.analysis.error_stats.ErrorStatistics` on the
            result (off by default — the tally holds per-position
            histograms the caller usually only needs summarised).
        fault_severity: named fault-injection severity applied per
            cluster inside the shards (``"none"`` disables).

    Raises:
        ConfigError: unknown algorithm or severity names.
    """
    fullscale_plan = plan_fullscale(
        n_clusters=n_clusters,
        strand_length=strand_length,
        mean_coverage=mean_coverage,
        seed=seed,
        shards=shards,
        algorithms=algorithms,
        max_copies=max_copies,
        parameters=parameters,
        fault_severity=fault_severity,
    )
    effective_workers = resolve_workers(workers)
    with span(
        "fullscale",
        clusters=n_clusters,
        shards=fullscale_plan.n_shards,
        workers=effective_workers,
    ):
        shard_results = list(
            parallel_stream(
                partial(run_shard, fullscale_plan.config),
                fullscale_plan.shard_items(),
                effective_workers,
            )
        )
    return merge_shard_results(
        fullscale_plan,
        shard_results,
        workers=effective_workers,
        keep_statistics=keep_statistics,
    )
