"""Alignment-kernel benchmarks, recorded to ``BENCH_kernels.json``.

Times each kernel (exact edit distance, banded edit distance, the
one-vs-many batch kernel, and gestalt matching blocks) under every
backend at the paper's strand length (110) plus 220 and 1000, the
edit-operation traceback (one implementation, so one number per
length), and the greedy-clustering end-to-end wall-clock under the
``python`` reference backend versus ``bitparallel``.  The JSON lands at
the repo root so the kernel perf trajectory is recorded PR over PR.

Three floors are asserted (they are the PRs' acceptance criteria):

* bit-parallel exact distance >= 5x the pure-Python DP at length 110;
* clustering end-to-end >= 2x under ``bitparallel`` vs ``python``,
  with bit-identical assignments;
* the batched one-vs-many sweep >= 10x scalar bit-parallel on a
  4096-read batch of length-110 strands, bit-identical distances.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.align import kernels
from repro.align.gestalt import clear_block_cache, matching_blocks
from repro.align.kernels import (
    edit_distance_kernel,
    banded_distance_kernel,
    edit_distances_one_to_many,
    set_align_backend,
)
from repro.align.operations import edit_operations
from repro.cluster.greedy import GreedyClusterer
from repro.core.channel import Channel
from repro.data.nanopore import ground_truth_model
from repro.observability.bench import assert_stamped, stamp_record
from repro.report.history import append_record

#: Where the kernel-timing record lands (the repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

STRAND_LENGTHS = (110, 220, 1000)

KERNEL_BACKENDS = ("python", "numpy", "bitparallel", "batched")

BAND = 25

#: Pairs timed per (kernel, backend, length) cell; long strands use fewer.
PAIRS_PER_CELL = {110: 40, 220: 20, 1000: 4}

#: Acceptance floors (ISSUE 3; batched floor from ISSUE 7).
MIN_KERNEL_SPEEDUP = 5.0
MIN_CLUSTER_SPEEDUP = 2.0
MIN_BATCHED_SPEEDUP = 10.0

#: One-vs-many batch size for the batched-backend floor: wide enough
#: that NumPy per-op dispatch overhead is amortised across lanes (the
#: sweep's per-pair cost keeps dropping up to ~4k lanes).
BATCH_READS = 4096

#: Clustering corpus shape: references x noisy copies each.
CLUSTER_REFERENCES = 40
CLUSTER_COVERAGE = 8


@pytest.fixture(scope="module", autouse=True)
def _restore_backend():
    yield
    set_align_backend(None)


def _noisy_pairs(length: int, count: int) -> list[tuple[str, str]]:
    rng = random.Random(length)
    channel = Channel(ground_truth_model(), random.Random(length + 1))
    pairs = []
    for _ in range(count):
        reference = "".join(rng.choice("ACGT") for _ in range(length))
        pairs.append((reference, channel.transmit(reference)))
    return pairs


def _time_per_pair(function, pairs, repeats: int = 3) -> float:
    """Best-of-``repeats`` mean ns per pair."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for first, second in pairs:
            function(first, second)
        best = min(best, time.perf_counter() - start)
    return best / len(pairs) * 1e9


def test_bench_kernels_record():
    """Time every kernel x backend x length cell and write the record."""
    kernels_record: dict[str, dict] = {}
    for length in STRAND_LENGTHS:
        pairs = _noisy_pairs(length, PAIRS_PER_CELL[length])
        reads = [second for _, second in pairs]
        reference = pairs[0][0]
        cell: dict[str, dict[str, float] | float] = {
            "edit_distance": {},
            "banded_distance": {},
            "one_to_many": {},
            "matching_blocks": {},
            "edit_operations": _time_per_pair(edit_operations, pairs),
        }
        for backend in KERNEL_BACKENDS:
            set_align_backend(backend)
            cell["edit_distance"][backend] = _time_per_pair(
                edit_distance_kernel, pairs
            )
            cell["banded_distance"][backend] = _time_per_pair(
                lambda a, b: banded_distance_kernel(a, b, BAND), pairs
            )
            start = time.perf_counter()
            edit_distances_one_to_many(reference, reads)
            cell["one_to_many"][backend] = (
                (time.perf_counter() - start) / len(reads) * 1e9
            )
            clear_block_cache()
            cell["matching_blocks"][backend] = _time_per_pair(
                lambda a, b: (clear_block_cache(), matching_blocks(a, b))[1],
                pairs,
                repeats=2,
            )
        kernels_record[str(length)] = cell
    set_align_backend(None)

    # Clustering end-to-end: python reference vs bit-parallel.
    rng = random.Random(99)
    channel = Channel(ground_truth_model(), random.Random(100))
    references = [
        "".join(rng.choice("ACGT") for _ in range(110))
        for _ in range(CLUSTER_REFERENCES)
    ]
    reads = [
        channel.transmit(reference)
        for reference in references
        for _ in range(CLUSTER_COVERAGE)
    ]
    rng.shuffle(reads)
    clustering: dict[str, float] = {}
    results = {}
    for backend in ("python", "bitparallel"):
        set_align_backend(backend)
        clear_block_cache()
        start = time.perf_counter()
        results[backend] = GreedyClusterer().cluster(reads)
        clustering[backend] = time.perf_counter() - start
    set_align_backend(None)
    assert results["bitparallel"].assignments == results["python"].assignments
    clustering["speedup"] = clustering["python"] / clustering["bitparallel"]

    # Batched one-vs-many floor: a paper-length reference against a
    # 4096-read batch, scalar bit-parallel vs the uint64 batched sweep.
    batch_rng = random.Random(101)
    batch_channel = Channel(ground_truth_model(), random.Random(102))
    batch_reference = "".join(batch_rng.choice("ACGT") for _ in range(110))
    batch_reads = [
        batch_channel.transmit(batch_reference) for _ in range(BATCH_READS)
    ]
    set_align_backend("bitparallel")
    scalar_distances = edit_distances_one_to_many(batch_reference, batch_reads)
    start = time.perf_counter()
    edit_distances_one_to_many(batch_reference, batch_reads)
    scalar_s = time.perf_counter() - start
    set_align_backend("batched")
    batched_distances = edit_distances_one_to_many(batch_reference, batch_reads)
    batched_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        edit_distances_one_to_many(batch_reference, batch_reads)
        batched_s = min(batched_s, time.perf_counter() - start)
    set_align_backend(None)
    assert batched_distances == scalar_distances
    batched_record = {
        "reads": BATCH_READS,
        "strand_length": 110,
        "bitparallel_ns_per_pair": scalar_s / BATCH_READS * 1e9,
        "batched_ns_per_pair": batched_s / BATCH_READS * 1e9,
        "speedup": scalar_s / batched_s,
    }

    length_110 = kernels_record["110"]["edit_distance"]
    kernel_speedup = length_110["python"] / length_110["bitparallel"]
    record = stamp_record(
        {
            "band": BAND,
            "pairs_per_cell": PAIRS_PER_CELL,
            "kernels_ns_per_pair": kernels_record,
            "clustering": {
                "reads": len(reads),
                "strand_length": 110,
                "python_s": clustering["python"],
                "bitparallel_s": clustering["bitparallel"],
                "speedup": clustering["speedup"],
            },
            "batched_one_to_many": batched_record,
            "edit_distance_110_speedup": kernel_speedup,
        }
    )
    assert_stamped(record)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    append_record(record, "kernels", root=BENCH_JSON.parent)

    assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
        f"bit-parallel edit distance is only {kernel_speedup:.1f}x the "
        f"python DP at length 110 (floor {MIN_KERNEL_SPEEDUP}x; timings "
        f"recorded in {BENCH_JSON.name})"
    )
    assert clustering["speedup"] >= MIN_CLUSTER_SPEEDUP, (
        f"clustering end-to-end is only {clustering['speedup']:.2f}x "
        f"under bitparallel (floor {MIN_CLUSTER_SPEEDUP}x; timings "
        f"recorded in {BENCH_JSON.name})"
    )
    assert batched_record["speedup"] >= MIN_BATCHED_SPEEDUP, (
        f"batched one-vs-many sweep is only {batched_record['speedup']:.1f}x "
        f"scalar bit-parallel on {BATCH_READS} length-110 reads (floor "
        f"{MIN_BATCHED_SPEEDUP}x; timings recorded in {BENCH_JSON.name})"
    )
