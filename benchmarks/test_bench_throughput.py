"""Micro-benchmarks of the hot paths (proper repeated-timing benches).

Unlike the table/figure benches these measure throughput of the library's
kernels: channel transmission, maximum-likelihood alignment, gestalt
matching, and each reconstruction algorithm on a fixed cluster — plus
the serial-vs-parallel stage comparison (dataset generation, profile
fit, reconstruction, and curves), whose timings are written to
``BENCH_throughput.json`` at the repo root so the perf trajectory of the
per-cluster stages is recorded PR over PR.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.align.gestalt import matching_blocks
from repro.align.operations import edit_operations
from repro.observability import counter, span
from repro.observability.bench import assert_stamped, stamp_record
from repro.report.dashboard import committed_floor
from repro.report.history import append_record
from repro.core.channel import Channel
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile
from repro.core.simulator import Simulator
from repro.data.nanopore import ground_truth_coverage, ground_truth_model
from repro.metrics.curves import pre_reconstruction_curves
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.two_way import TwoWayIterative

STRAND_LENGTH = 110

#: Where the stage-timing record lands (the repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Worker count used for the parallel passes (capped by the machine).
BENCH_WORKERS = 4

#: Wall-clock speedup the reconstruct stage must reach with 4 workers on
#: multi-core hardware (the floor the dashboard charts).
MIN_RECONSTRUCT_SPEEDUP = committed_floor("throughput", "reconstruct speedup")


@pytest.fixture(scope="module")
def reference():
    rng = random.Random(0)
    return "".join(rng.choice("ACGT") for _ in range(STRAND_LENGTH))


@pytest.fixture(scope="module")
def cluster(reference):
    channel = Channel(ground_truth_model(), random.Random(1))
    return channel.transmit_many(reference, 6)


def test_bench_channel_transmit(benchmark, reference):
    channel = Channel(ErrorModel.naive(0.01, 0.02, 0.03), random.Random(2))
    benchmark(channel.transmit, reference)


def test_bench_ground_truth_transmit(benchmark, reference):
    channel = Channel(ground_truth_model(), random.Random(2))
    benchmark(channel.transmit, reference)


def test_bench_edit_operations(benchmark, reference, cluster):
    benchmark(edit_operations, reference, cluster[0])


def test_bench_gestalt_blocks(benchmark, reference, cluster):
    benchmark(matching_blocks, reference, cluster[0])


@pytest.mark.parametrize(
    "reconstructor",
    [BMALookahead(), DividerBMA(), IterativeReconstruction(), TwoWayIterative()],
    ids=lambda r: r.name,
)
def test_bench_reconstructors(benchmark, reconstructor, cluster):
    benchmark(reconstructor.reconstruct, cluster, STRAND_LENGTH)


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def test_bench_parallel_stages(warm_context, n_clusters):
    """Serial vs parallel wall-clock for the three RNG-free per-cluster
    stages, recorded to ``BENCH_throughput.json``.

    Each stage's parallel result is also checked bit-identical to its
    serial result — a speedup that changes the numbers would be a bug,
    not a win.  When the machine caps ``workers`` at 1 the "parallel"
    pass would run the identical serial code path, so it is not re-timed:
    the recorded speedup is exactly 1.0 by construction instead of
    timing noise (the committed 0.82–0.97x "speedups" were exactly that
    noise).  The >= 1.5x assertion runs only on hosts with at least
    ``BENCH_WORKERS`` cores; smaller hosts record timings, then *skip*
    (visibly, not silently pass).
    """
    context = warm_context
    cpu_count = os.cpu_count() or 1
    workers = min(BENCH_WORKERS, cpu_count)
    reconstruct_pool = context.real_at_coverage(10)
    stages = {}

    def measure(run_stage):
        """Time ``run_stage(workers)`` against ``run_stage(1)``.

        Returns (serial result, parallel result, timings).  With one
        worker the serial result and timing are reused verbatim.
        """
        serial_result, serial_s = _timed(run_stage, 1)
        if workers <= 1:
            timings = {"serial_s": serial_s, "parallel_s": serial_s}
            return serial_result, serial_result, timings
        parallel_result, parallel_s = _timed(run_stage, workers)
        timings = {"serial_s": serial_s, "parallel_s": parallel_s}
        return serial_result, parallel_result, timings

    # Dataset generation at paper coverage: the per-cluster-seeded mode
    # (bit-identical at any worker count) over the context's references.
    simulator = Simulator(
        ground_truth_model(),
        coverage=ground_truth_coverage(),
        seed=97,
        per_cluster_seeds=True,
    )
    serial_pool, parallel_pool, stages["simulate"] = measure(
        lambda n: simulator.simulate(context.real_pool.references, workers=n)
    )
    assert parallel_pool == serial_pool

    serial_profile, parallel_profile, stages["profile_fit"] = measure(
        lambda n: ErrorProfile.from_pool(context.real_pool, 4, None, n)
    )
    assert parallel_profile.statistics == serial_profile.statistics

    reconstructor = IterativeReconstruction()
    serial_estimates, parallel_estimates, stages["reconstruct"] = measure(
        lambda n: reconstructor.reconstruct_pool(
            reconstruct_pool, STRAND_LENGTH, n
        )
    )
    assert parallel_estimates == serial_estimates

    serial_curves, parallel_curves, stages["curves"] = measure(
        lambda n: pre_reconstruction_curves(context.real_pool, 4, n)
    )
    assert parallel_curves == serial_curves

    for timings in stages.values():
        timings["speedup"] = (
            timings["serial_s"] / timings["parallel_s"]
            if timings["parallel_s"] > 0
            else 0.0
        )

    # Zero-cost-by-default check: time the no-op instrumentation event
    # (a disabled span plus a disabled counter — the construct every
    # instrumented call site pays) and bound its worst-case share of each
    # stage's serial wall-clock, assuming one event per cluster (the
    # instrumentation actually emits a constant handful per *stage call*,
    # so this overestimates).
    noop_events = 20_000
    start = time.perf_counter()
    for _ in range(noop_events):
        with span("bench.noop", clusters=0):
            counter("bench.noop").inc()
    per_event_s = (time.perf_counter() - start) / noop_events
    overhead = {
        "noop_event_ns": per_event_s * 1e9,
        "per_stage_fraction": {},
    }
    for stage_name, timings in stages.items():
        if timings["serial_s"] > 0:
            fraction = per_event_s * n_clusters / timings["serial_s"]
            overhead["per_stage_fraction"][stage_name] = fraction
            assert fraction < 0.05, (
                f"disabled-instrumentation overhead is {fraction * 100:.2f}% "
                f"of the serial {stage_name} stage (floor < 5%)"
            )

    record = stamp_record(
        {
            "n_clusters": n_clusters,
            "workers": workers,
            "cpu_count": cpu_count,
            "reconstructor": reconstructor.name,
            "reconstruct_coverage": 10,
            "stages": stages,
            "observability_overhead": overhead,
        }
    )
    assert_stamped(record)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    append_record(record, "throughput", root=BENCH_JSON.parent)

    # Skip (never silently pass) below BENCH_WORKERS cores: a 2- or
    # 3-core host can't be held to the 4-worker floor, but the record is
    # already written above, cpu_count stamped, so the trajectory still
    # shows what the machine did.
    if cpu_count < BENCH_WORKERS:
        pytest.skip(
            f"host has {cpu_count} core(s) < {BENCH_WORKERS}: "
            f"speedup floor not assertable (timings recorded with "
            f"cpu_count in {BENCH_JSON.name})"
        )
    assert stages["reconstruct"]["speedup"] >= MIN_RECONSTRUCT_SPEEDUP, (
        f"reconstruct stage speedup {stages['reconstruct']['speedup']:.2f}x "
        f"with {workers} workers is below {MIN_RECONSTRUCT_SPEEDUP}x "
        f"(timings recorded in {BENCH_JSON.name})"
    )
