"""The full-scale sharded pipeline: generate → profile → reconstruct → score.

The paper's evaluation scale (10,000 strands × 110 bases, ~270k noisy
reads) never fits comfortably through the materialise-everything
experiment path: the pool alone is hundreds of megabytes of strings, and
every stage holds its own per-cluster intermediates on top.  This runner
executes the whole pipeline **shard by shard**: each shard task
generates its clusters from derived per-cluster seeds, tallies error
statistics, reconstructs, and scores — returning only the mergeable
summaries (an :class:`~repro.analysis.error_stats.ErrorStatistics`, one
:class:`~repro.metrics.accuracy.AccuracyTally` per algorithm, and a read
count).  :func:`run_fullscale` folds those summaries in shard order as
they arrive, with the associative merge machinery, so peak memory is
bounded by the shards in flight, not the archive, and the merged numbers
are identical at every shard and worker count.

Observability rides along: each shard runs under a ``fullscale.shard``
span and bumps ``fullscale.*`` counters, shipped home from pool workers
by :func:`repro.parallel.parallel_stream` when collection is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.error_stats import ErrorStatistics
from repro.core.errors import ErrorModel
from repro.core.simulator import draw_coverages, fault_seed, transmit_derived_chunk
from repro.core.strand import Cluster, StrandPool
from repro.data.nanopore import (
    PAPER_MEAN_COVERAGE,
    PAPER_STRAND_LENGTH,
    ground_truth_coverage,
    ground_truth_model,
)
from repro.exceptions import ConfigError
from repro.metrics.accuracy import AccuracyReport, AccuracyTally
from repro.observability import counter, span
from repro.parallel import parallel_stream, resolve_workers
from repro.reconstruct import RECONSTRUCTORS
from repro.robustness.faults import SEVERITY_LEVELS, FaultInjector
from repro.sharding.plan import resolve_shards, split_contiguous


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
    model: ErrorModel,
    seed: int,
    strand_length: int,
    max_copies: int | None,
    algorithms: tuple[str, ...],
    fault_severity: str,
    item: tuple[int, list[tuple[int, int]]],
) -> tuple[ErrorStatistics, dict[str, AccuracyTally], int]:
    """One shard of the full pipeline, start to finish.

    ``item`` is ``(shard_index, [(cluster_index, coverage), ...])``.
    Each cluster is a pure function of its index (the per-cluster
    seeding convention of :mod:`repro.core.simulator`), and so are its
    faults when ``fault_severity`` is not ``"none"``: one
    :class:`~repro.robustness.FaultInjector` per cluster, seeded by
    :func:`~repro.core.simulator.fault_seed`.  Shard results — and
    therefore the merged run — are identical at any partitioning.  Only
    the mergeable ``(statistics, tallies, n_reads)`` leave the worker;
    the shard's clusters die with it, which is the whole memory story.
    """
    shard_index, chunk = item
    with span(
        "fullscale.shard", shard=shard_index, clusters=len(chunk)
    ) as shard_span:
        clusters = transmit_derived_chunk(model, seed, strand_length, chunk)
        if fault_severity != "none":
            clusters = [
                Cluster(
                    cluster.reference,
                    FaultInjector(
                        fault_severity, seed=fault_seed(seed, cluster_index)
                    ).inject_reads(cluster.copies),
                )
                for (cluster_index, _), cluster in zip(chunk, clusters)
            ]
        n_reads = sum(cluster.coverage for cluster in clusters)
        pool = StrandPool(clusters)
        statistics = ErrorStatistics()
        statistics.tally_pool(pool, max_copies)
        tallies: dict[str, AccuracyTally] = {}
        for name in algorithms:
            reconstructor = RECONSTRUCTORS[name]()
            estimates = reconstructor.reconstruct_pool(
                pool, strand_length, workers=1
            )
            tally = AccuracyTally()
            tally.update_many(pool.references, estimates)
            tallies[name] = tally
        counter("fullscale.reads").inc(n_reads)
        counter("fullscale.clusters").inc(len(chunk))
        if shard_span is not None:
            shard_span.set(reads=n_reads)
        return statistics, tallies, n_reads


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
    results — all shard by shard on the process pool, folding each
    shard's summaries in shard order as they arrive.  At the paper's
    10,000 × 110 / ~270k-read scale the parent process never holds more
    than the shards currently in flight.

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
        algorithms: reconstruction algorithms to score, by name in
            :data:`repro.reconstruct.RECONSTRUCTORS`.  The default,
            positional majority, is there for speed, not accuracy: at
            paper scale it recovers 0.15% of strands and 76.55% of
            characters, against BMA's 81.67% and 93.93%, but it keeps
            the wall time dominated by simulation rather than scoring.
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
        ConfigError: unknown algorithm or severity names, or
            ``n_clusters`` below 1 (a 0-cluster accuracy would read as
            total failure).
    """
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
    shard_task = partial(
        run_shard,
        ground_truth_model(parameters),
        seed,
        strand_length,
        max_copies,
        tuple(algorithms),
        fault_severity,
    )
    effective_workers = resolve_workers(workers)

    statistics = ErrorStatistics()
    tallies = {name: AccuracyTally() for name in algorithms}
    n_reads = 0
    with span(
        "fullscale",
        clusters=n_clusters,
        shards=n_shards,
        workers=effective_workers,
    ):
        for shard_statistics, shard_tallies, shard_reads in parallel_stream(
            shard_task, enumerate(per_shard), effective_workers
        ):
            statistics.merge(shard_statistics)
            for name, tally in shard_tallies.items():
                tallies[name].merge(tally)
            n_reads += shard_reads
    return FullScaleResult(
        n_clusters=n_clusters,
        strand_length=strand_length,
        n_shards=n_shards,
        workers=effective_workers,
        n_reads=n_reads,
        n_erasures=sum(1 for coverage in coverages if coverage == 0),
        mean_coverage=n_reads / n_clusters,
        aggregate_error_rate=statistics.aggregate_error_rate(),
        accuracy={name: tally.report() for name, tally in tallies.items()},
        statistics=statistics if keep_statistics else None,
    )
