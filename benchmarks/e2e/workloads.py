"""One repeat of one end-to-end workload, run in a fresh interpreter.

``run.py`` spawns this file once per repeat, so no in-process cache (the
``matching_blocks`` LRU, the channel's ``_tables``, the experiment-context
cache) can carry over from one repeat to the next::

    python benchmarks/e2e/workloads.py WORKLOAD SEED SCALE TRACE

with ``src`` on ``PYTHONPATH``.  It prints one JSON object: the time the
inputs were ready (``setup_end``, on the system-wide ``perf_counter``
clock, so the parent can subtract its own spawn time), the timed
pipeline's ``wall_s``, ``peak_rss_mb``, a BLAKE2b ``digest`` of the
outputs, the named ``checks`` that must all hold, exact ``counts``, the
resolved backends, and with ``TRACE=1`` the per-layer ``layers``.

Every workload builds its inputs from ``SEED`` alone and passes
``workers``/``shards`` explicitly, so ambient settings cannot change the
work done.  Sizes are multiplied by ``SCALE`` (floors keep tiny scales
valid).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
import resource
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import observability
from repro.align import gestalt, operations
from repro.align.kernels import CompiledPattern, align_backend
from repro.cluster.greedy import GreedyClusterer
from repro.cluster.pseudo import (
    clustering_accuracy,
    flatten_with_labels,
    rebuild_pool,
    shuffle_reads,
)
from repro.core.alphabet import random_strand
from repro.core.channel import Channel
from repro.core.channel_backend import channel_backend
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.simulator import Simulator
from repro.core.strand import StrandPool
from repro.data.io import PoolWriter, iter_pool
from repro.data.nanopore import (
    PAPER_STRAND_LENGTH,
    ground_truth_coverage,
    ground_truth_model,
    make_nanopore_dataset,
)
from repro.metrics.accuracy import AccuracyTally
from repro.metrics.curves import post_reconstruction_curves, pre_reconstruction_curves
from repro.observability import counter, span
from repro.observability.bench import content_digest
from repro.pipeline.reed_solomon import ReedSolomon
from repro.pipeline.storage import DNAArchive
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.majority import PositionalMajority
from repro.report.dashboard import flame_rollup

ROOT = Path(__file__).resolve().parents[2]

#: Copies aligned per cluster by the profile fit and the pre-reconstruction
#: curves (the experiments' ``PROFILE_COPIES`` and Fig. 3.2's cap).
PROFILE_COPIES = 4

#: The paper's fixed-coverage protocol trims every cluster to 10 copies.
TRIM_COVERAGE = 10

#: simulate_bulk is the only workload with a pool; 2 workers = ``nproc``
#: of the 2-vCPU host the benchmark was sized on.
BULK_SHARDS = 8
BULK_WORKERS = 2

#: A rate-1/2 outer code: at the ~15-19% strand erasure rate that BMA
#: leaves at coverage 14, a 40-strand group exceeds its 20-erasure budget
#: with probability ~2e-6, so no seed fails to decode.
ARCHIVE_PAYLOAD_BYTES = 16
ARCHIVE_GROUP_DATA = 20
ARCHIVE_GROUP_PARITY = 20
ARCHIVE_COVERAGE = 14


def scaled(size: int, scale: float, floor: int) -> int:
    """``size * scale`` rounded, but never below ``floor``."""
    return max(floor, round(size * scale))


class Clock:
    """Marks the end of set-up and times the one measured region."""

    def __init__(self) -> None:
        self.setup_end: float | None = None
        self.wall_s: float | None = None

    @contextmanager
    def timed(self):
        self.setup_end = time.perf_counter()
        start = self.setup_end
        yield
        self.wall_s = time.perf_counter() - start


# ------------------------------------------------------------------ #
# Workloads: set-up, the timed pipeline, then checks outside the timer.
# Each returns (digest payload, checks, counts).
# ------------------------------------------------------------------ #


def shuffled_trim(pool: StrandPool, seed: int, n_clusters: int) -> StrandPool:
    """The paper's fixed-coverage protocol on the first ``n_clusters``
    clusters that have at least ``TRIM_COVERAGE`` copies.

    A fixed cluster count keeps the reconstruction work, which is most of
    eval_pseudo, the same for every seed.
    """
    eligible = pool.shuffled_copies(random.Random(seed)).with_min_coverage(
        TRIM_COVERAGE
    )
    return StrandPool(eligible.clusters[:n_clusters]).trimmed(TRIM_COVERAGE)


def eval_pseudo(seed: int, scale: float, clock: Clock, workdir: Path):
    real = make_nanopore_dataset(n_clusters=scaled(80, scale, 12), seed=seed)
    n_reconstructed = scaled(64, scale, 8)
    length = PAPER_STRAND_LENGTH
    outputs: dict = {}
    tallies: dict[str, AccuracyTally] = {}
    with clock.timed():
        with span("bench.profile_fit"):
            profile = ErrorProfile.from_pool(
                real, PROFILE_COPIES, workers=1, shards=1
            )
        with span("bench.simulate"):
            simulated = Simulator.fitted(
                profile, SimulatorStage.SECOND_ORDER, seed=seed
            ).simulate_like(real)
        with span("bench.curves_pre"):
            outputs["pre_curves"] = [
                pre_reconstruction_curves(pool, PROFILE_COPIES, workers=1, shards=1)
                for pool in (real, simulated)
            ]
        for label, pool in (("real", real), ("simulated", simulated)):
            with span("bench.trim"):
                trimmed = shuffled_trim(pool, seed, n_reconstructed)
            for reconstructor in (BMALookahead(), IterativeReconstruction()):
                with span("bench.reconstruct", algorithm=reconstructor.name):
                    estimates = reconstructor.reconstruct_pool(
                        trimmed, length, workers=1, shards=1
                    )
                with span("bench.accuracy"):
                    tally = AccuracyTally()
                    tally.update_many(trimmed.references, estimates)
                with span("bench.curves_post"):
                    curves = post_reconstruction_curves(
                        trimmed, estimates, workers=1, shards=1
                    )
                key = f"{label}/{reconstructor.name}"
                tallies[key] = tally
                outputs[key] = {
                    "tally": vars(tally),
                    "curves": curves,
                    "estimates": estimates,
                }
    outputs["simulated"] = [cluster.copies for cluster in simulated]
    checks = {"simulated pool keeps the real coverages": (
        simulated.coverages() == real.coverages()
    )}
    for key, tally in tallies.items():
        checks[f"{key} reconstructs every cluster"] = (
            tally.n_clusters == n_reconstructed
        )
        # Random estimates score ~30%; BMA at coverage 10 scores 84-95%.
        checks[f"{key} per-character accuracy >= 75%"] = (
            tally.report().per_character >= 75.0
        )
    counts = {
        "clusters": len(real),
        "reads": real.total_copies,
        "simulated_reads": simulated.total_copies,
        "reconstructed_clusters": n_reconstructed,
    }
    return outputs, checks, counts


def cluster_readout(seed: int, scale: float, clock: Clock, workdir: Path):
    pool = make_nanopore_dataset(n_clusters=scaled(240, scale, 8), seed=seed)
    # A sequencing run returns a fixed read budget; fixing it (instead of
    # the pool's seed-dependent total) keeps the clustering work steady.
    read_budget = scaled(5500, scale, 160)
    with clock.timed():
        with span("bench.readout"):
            reads = shuffle_reads(flatten_with_labels(pool), random.Random(seed))
            reads = reads[:read_budget]
            sequences = [read.sequence for read in reads]
        with span("bench.cluster"):
            result = GreedyClusterer().cluster(sequences, shards=1, workers=1)
        with span("bench.rebuild"):
            rebuilt = rebuild_pool(result.assignments, reads, pool)
        with span("bench.reconstruct", algorithm="Majority"):
            estimates = PositionalMajority().reconstruct_pool(
                rebuilt, PAPER_STRAND_LENGTH, workers=1, shards=1
            )
        with span("bench.purity"):
            purity = clustering_accuracy(result.assignments, reads)
    outputs = {"assignments": result.assignments, "estimates": estimates}
    checks = {
        "purity >= 0.99": purity >= 0.99,
        "every read is assigned": len(result.assignments) == len(reads),
    }
    counts = {
        "reads": len(reads),
        "predicted_clusters": result.n_clusters,
        "comparisons": result.comparisons,
        "purity": purity,
    }
    return outputs, checks, counts


def simulate_bulk(seed: int, scale: float, clock: Clock, workdir: Path):
    sample = make_nanopore_dataset(n_clusters=scaled(200, scale, 20), seed=seed)
    with span("setup.profile_fit"):
        profile = ErrorProfile.from_pool(sample, PROFILE_COPIES, workers=1, shards=1)
    rng = random.Random(seed)
    references = [
        random_strand(PAPER_STRAND_LENGTH, rng)
        for _ in range(scaled(5000, scale, 64))
    ]
    path = workdir / "simulated.txt"
    with clock.timed():
        with span("bench.simulate_stream"):
            simulator = Simulator.fitted(
                profile,
                SimulatorStage.SECOND_ORDER,
                coverage=ground_truth_coverage(),
                seed=seed,
                per_cluster_seeds=True,
            )
            with PoolWriter(path) as writer:
                for cluster in simulator.iter_shards(
                    references, shards=BULK_SHARDS, workers=BULK_WORKERS
                ):
                    writer.write_cluster(cluster)
    file_digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            file_digest.update(block)
    read_back = [
        (cluster.reference, cluster.coverage) for cluster in iter_pool(path)
    ]
    checks = {
        "read-back references match": [ref for ref, _ in read_back] == references,
        "read-back read count matches": sum(n for _, n in read_back)
        == writer.n_copies,
    }
    counts = {
        "clusters": writer.n_clusters,
        "simulated_reads": writer.n_copies,
        "file_bytes": path.stat().st_size,
    }
    return {"file": file_digest.hexdigest()}, checks, counts


def archive_roundtrip(seed: int, scale: float, clock: Clock, workdir: Path):
    data = random.Random(seed).randbytes(scaled(10240, scale, 320))
    with clock.timed():
        archive = DNAArchive(
            payload_bytes=ARCHIVE_PAYLOAD_BYTES,
            rs_group_data=ARCHIVE_GROUP_DATA,
            rs_group_parity=ARCHIVE_GROUP_PARITY,
            seed=seed,
        )
        with span("bench.archive_write"):
            stored = archive.write("payload", data)
        with span("bench.archive_read"):
            report = archive.read(
                "payload",
                ground_truth_model(),
                coverage=ARCHIVE_COVERAGE,
                reconstructor=BMALookahead(),
                shards=1,
                workers=1,
            )
    outputs = {
        "data": report.data.hex(),
        "reads": report.n_reads,
        "erasures": report.n_erasures,
        "corrected": report.n_corrected_errors,
    }
    checks = {"decoded bytes equal the written bytes": report.data == data}
    counts = {
        "data_bytes": len(data),
        "strands": stored.n_total_strands,
        "reads": report.n_reads,
        "erasures": report.n_erasures,
        "corrected": report.n_corrected_errors,
    }
    return outputs, checks, counts


WORKLOADS = {
    "eval_pseudo": eval_pseudo,
    "cluster_readout": cluster_readout,
    "simulate_bulk": simulate_bulk,
    "archive_roundtrip": archive_roundtrip,
}


# ------------------------------------------------------------------ #
# Traced runs: call probes on each layer's public entry points
# ------------------------------------------------------------------ #


class CallStats:
    """Calls into one layer entry point, time spent there, and items."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.items = 0


def _probe(function, stats: CallStats, items=None):
    @functools.wraps(function)
    def probe(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            stats.seconds += time.perf_counter() - start
            stats.calls += 1
            if items is not None:
                stats.items += items(args)

    return probe


#: (stats key, owner, attribute, per-call item count).  Methods are
#: patched on their class; module functions in every loaded ``repro``
#: module that imported them by name.
PROBES = (
    ("edit_operations", operations, "edit_operations", None),
    ("matching_blocks", gestalt, "matching_blocks", None),
    (
        "banded_distances",
        CompiledPattern,
        "banded_distances",
        lambda args: len(args[1]),
    ),
    ("transmit_many", Channel, "transmit_many", None),
    ("bma", BMALookahead, "reconstruct", None),
    ("iterative", IterativeReconstruction, "reconstruct", None),
    ("majority", PositionalMajority, "reconstruct", None),
    ("rs_decode", ReedSolomon, "decode", None),
    ("io_write", PoolWriter, "write_cluster", None),
    ("io_write", PoolWriter, "close", None),
)


@contextmanager
def probes_installed():
    """Install every probe, yield the stats by key, then restore."""
    stats: dict[str, CallStats] = {}
    restore: list[tuple[object, str, object]] = []
    try:
        for key, owner, attribute, items in PROBES:
            original = getattr(owner, attribute)
            wrapped = _probe(original, stats.setdefault(key, CallStats()), items)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [
                    module
                    for name, module in list(sys.modules.items())
                    if name.split(".")[0] == "repro"
                    and getattr(module, attribute, None) is original
                ]
            for target in targets:
                restore.append((target, attribute, original))
                setattr(target, attribute, wrapped)
        yield stats
    finally:
        for target, attribute, original in reversed(restore):
            setattr(target, attribute, original)


def noop_event_ns(events: int = 20_000, batches: int = 5) -> float:
    """Cost of one disabled instrumentation event (a span plus a counter,
    what every instrumented call site pays), best of ``batches``."""
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter_ns()
        for _ in range(events):
            with span("bench.noop", clusters=0):
                counter("bench.noop").inc()
        best = min(best, (time.perf_counter_ns() - start) / events)
    return best


#: Program spans whose self time is reported per layer.
PROGRAM_SPANS = ("profile_fit", "simulate_stream", "reconstruct", "cluster.greedy")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    records: list[dict],
    counters: dict,
    stats: dict[str, CallStats],
    cache_hit_frac: float,
    counts: dict,
    wall_s: float,
) -> dict[str, float]:
    """Per-layer numbers of one traced repeat, set-up included (``run.py``
    adds the tracing overhead, which needs the untraced median).

    Probes see calls made in this process only: the simulate_bulk pool
    workers' channel calls are not counted.
    """

    def spent(*names: str) -> float:
        return sum(
            record["duration_s"] for record in records if record["name"] in names
        )

    kernel_calls: Counter = Counter()
    for (name, labels), value in counters.items():
        if name == "kernel.calls":
            kernel_calls[dict(labels)["kernel"]] += value
    edit = stats["edit_operations"]
    blocks = stats["matching_blocks"]
    banded = stats["banded_distances"]
    io_write = stats["io_write"]
    simulate_s = spent("bench.simulate", "bench.simulate_stream")
    reads = counts.get("reads", 0)
    comparisons = counts.get("comparisons", 0)
    layers = {
        "align.edit_operations.calls": edit.calls,
        "align.edit_operations.s": edit.seconds,
        "align.edit_operations.us_per_call": _ratio(edit.seconds * 1e6, edit.calls),
        "align.matching_blocks.calls": blocks.calls,
        "align.matching_blocks.s": blocks.seconds,
        "align.matching_blocks.cache_hit_frac": cache_hit_frac,
        "align.banded_distances.calls": banded.calls,
        "align.banded_distances.pairs": banded.items,
        "align.banded_distances.s": banded.seconds,
        "cluster.greedy_s": spent("bench.cluster"),
        "cluster.comparisons_per_read": _ratio(comparisons, reads),
        "cluster.useful_frac": _ratio(
            reads - counts.get("predicted_clusters", reads), comparisons
        ),
        "cluster.purity": counts.get("purity", 0.0),
        "profile.fit_s": spent("bench.profile_fit", "setup.profile_fit"),
        "simulate.s": simulate_s,
        "simulate.wait_s": simulate_s - io_write.seconds,
        "simulate.reads_per_s": _ratio(counts.get("simulated_reads", 0), simulate_s),
        "channel.transmit_many.calls": stats["transmit_many"].calls,
        "channel.transmit_many.s": stats["transmit_many"].seconds,
        "io.write_s": io_write.seconds,
        "io.mb_per_s": _ratio(counts.get("file_bytes", 0) / 1e6, io_write.seconds),
        "reconstruct.iterative_s": stats["iterative"].seconds,
        "reconstruct.bma_s": stats["bma"].seconds,
        "reconstruct.majority_s": stats["majority"].seconds,
        "curves.s": spent("bench.curves_pre", "bench.curves_post"),
        "archive.write_s": spent("bench.archive_write"),
        "archive.read_s": spent("bench.archive_read"),
        "pipeline.rs_decode.calls": stats["rs_decode"].calls,
        "pipeline.rs_decode.s": stats["rs_decode"].seconds,
        "archive.erasures": counts.get("erasures", 0),
        "archive.corrected": counts.get("corrected", 0),
        "observability.span_coverage_frac": _ratio(
            sum(
                record["duration_s"]
                for record in records
                if record["parent_id"] is None
                and record["name"].startswith("bench.")
            ),
            wall_s,
        ),
    }
    for kernel in ("edit", "banded", "batch"):
        layers[f"align.kernel_calls.{kernel}"] = kernel_calls[kernel]
    rollup = flame_rollup(records)
    for name in PROGRAM_SPANS:
        layers[f"span.{name}.self_s"] = sum(
            row["self_s"]
            for row in rollup
            if row["path"].rsplit("/", 1)[-1] == name
        )
    return layers


def traced(workload, seed: int, scale: float, clock: Clock, workdir: Path):
    """Run ``workload`` with tracing, metrics and probes on; returns its
    results plus the per-layer numbers."""
    noop_ns = noop_event_ns()
    cache = gestalt._matching_blocks_cached
    before = cache.cache_info()
    observability.enable()
    try:
        with probes_installed() as stats:
            outputs, checks, counts = workload(seed, scale, clock, workdir)
        records = observability.tracer().records
        counters = observability.registry().snapshot()["counters"]
    finally:
        observability.disable()
    after = cache.cache_info()
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    layers = layer_metrics(
        records, counters, stats, _ratio(hits, lookups), counts, clock.wall_s
    )
    layers["observability.noop_event_ns"] = noop_ns
    return outputs, checks, counts, layers


# ------------------------------------------------------------------ #
# Entry point
# ------------------------------------------------------------------ #


def peak_rss_mb() -> float:
    """Peak resident set of this process or any pool worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_one(name: str, seed: int, scale: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    clock = Clock()
    layers = None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2e-work-") as workdir:
        if trace:
            outputs, checks, counts, layers = traced(
                workload, seed, scale, clock, Path(workdir)
            )
        else:
            outputs, checks, counts = workload(seed, scale, clock, Path(workdir))
    return {
        "setup_end": clock.setup_end,
        "wall_s": clock.wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "digest": content_digest(outputs),
        "checks": checks,
        "counts": counts,
        "layers": layers,
        "environment": {
            "align_backend": align_backend(),
            "channel_backend": channel_backend(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


if __name__ == "__main__":
    workload_name, seed_text, scale_text, trace_text = sys.argv[1:5]
    print(
        json.dumps(
            run_one(workload_name, int(seed_text), float(scale_text), trace_text == "1")
        )
    )
