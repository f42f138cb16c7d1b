"""Alignment-kernel benchmarks, recorded to ``BENCH_kernels.json``.

Times each kernel (exact edit distance, banded edit distance, the
one-vs-many batch kernel, and gestalt matching blocks) at the paper's
strand length (110) plus 220 and 1000, once as the ``python`` reference
function and once per fast path that serves the shape (``bitparallel``
for pairwise distances and, as the lane-packed sweep, one-vs-many
batches; ``runtable`` for gestalt); the edit-operation traceback (one
implementation, so one number per length); one block of 64 110-nt
pairs through ``matching_blocks_many`` against 64 scalar
decompositions, both cold; and the greedy-clustering
end-to-end wall-clock with the reference DPs patched in (``python``)
versus the code-chosen kernels (``bitparallel``).  The JSON lands at the
repo root so the kernel perf trajectory is recorded PR over PR.

Two floors are asserted, with the values the dashboard's
``TRAJECTORY_METRICS`` charts:

* bit-parallel exact distance >= 5x the pure-Python DP at length 110;
* clustering end-to-end >= 2x with the code-chosen kernels vs the
  reference DPs, with bit-identical assignments.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.align import kernels
from repro.align.gestalt import (
    _decompose,
    clear_block_cache,
    matching_blocks,
    matching_blocks_many,
    reference_blocks,
)
from repro.align.kernels import (
    CompiledPattern,
    banded_distance_kernel,
    edit_distance_kernel,
    edit_distances_one_to_many,
)
from repro.align.operations import edit_operations
from repro.cluster import greedy
from repro.cluster.greedy import GreedyClusterer
from repro.core.channel import Channel
from repro.data.nanopore import ground_truth_model
from repro.observability.bench import assert_stamped, stamp_record
from repro.report.dashboard import committed_floor
from repro.report.history import append_record

#: Where the kernel-timing record lands (the repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

STRAND_LENGTHS = (110, 220, 1000)

BAND = 25

#: Pairs timed per (kernel, path, length) cell; long strands use fewer.
PAIRS_PER_CELL = {110: 40, 220: 20, 1000: 4}

#: Acceptance floors, as the dashboard charts them.
MIN_KERNEL_SPEEDUP = committed_floor("kernels", "edit distance 110 speedup")
MIN_CLUSTER_SPEEDUP = committed_floor("kernels", "clustering speedup")

#: Pairs in the block gestalt row: one block of 110-nt channel pairs.
GESTALT_BLOCK_PAIRS = 64

#: Clustering corpus shape: references x noisy copies each.
CLUSTER_REFERENCES = 40
CLUSTER_COVERAGE = 8


def _reference_distance(pattern: CompiledPattern, other: str) -> int:
    return kernels._python_distance(pattern.text, other)


def _reference_banded(pattern: CompiledPattern, other: str, band: int) -> int:
    if abs(len(pattern.text) - len(other)) > band:
        return band + 1
    return kernels._python_banded(pattern.text, other, band)


def _reference_lanes(
    text: str, lanes: list[CompiledPattern], band: int | None = None
) -> list[int]:
    if band is None:
        return [kernels._python_distance(text, lane.text) for lane in lanes]
    return [kernels._python_banded(lane.text, text, band) for lane in lanes]


def _no_prefetch(
    strings: list[str], lanes: dict[int, list[int]], band: int
) -> dict[int, dict[int, int]]:
    return {}


def _patch_reference_kernels(patch: pytest.MonkeyPatch) -> dict[str, int]:
    """Route every distance through the seed's DPs: the clustering
    baseline the floor compares against.  Each lane of a one-vs-many
    sweep goes through the reference DP behind the same short-circuits,
    and greedy clustering's lockstep prefetch is off, so every pair its
    sweep compares takes that path.
    Returns a count of reference banded-DP calls, so the caller can check
    the baseline really ran them."""
    calls = {"banded": 0}
    python_banded = kernels._python_banded

    def counted_banded(first: str, second: str, band: int) -> int:
        calls["banded"] += 1
        return python_banded(first, second, band)

    patch.setattr(greedy, "_lane_table", _no_prefetch)
    patch.setattr(kernels, "_python_banded", counted_banded)
    patch.setattr(kernels, "_bitparallel_distance", kernels._python_distance)
    patch.setattr(kernels, "_bitparallel_banded", counted_banded)
    patch.setattr(CompiledPattern, "distance", _reference_distance)
    patch.setattr(CompiledPattern, "banded_distance", _reference_banded)
    patch.setattr(kernels, "_packed_distances", _reference_lanes)
    return calls


def _per_read_ns(function, reference: str, reads: list[str]) -> float:
    start = time.perf_counter()
    function(reference, reads)
    return (time.perf_counter() - start) / len(reads) * 1e9


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


def _gestalt_block_record() -> dict:
    """Cold block decomposition of 64 workload-shaped pairs against 64
    cold scalar decompositions, best of 3, in ns per pair."""
    pairs = _noisy_pairs(110, GESTALT_BLOCK_PAIRS)
    assert matching_blocks_many(pairs) == [_decompose(*pair) for pair in pairs]
    scalar = _time_per_pair(_decompose, pairs)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        matching_blocks_many(pairs)
        best = min(best, time.perf_counter() - start)
    block = best / len(pairs) * 1e9
    return {
        "pairs": len(pairs),
        "strand_length": 110,
        "decompose_ns_per_pair": scalar,
        "matching_blocks_many_ns_per_pair": block,
        "speedup": scalar / block,
    }


def test_bench_kernels_record():
    """Time every kernel x path x length cell and write the record."""
    kernels_record: dict[str, dict] = {}
    for length in STRAND_LENGTHS:
        pairs = _noisy_pairs(length, PAIRS_PER_CELL[length])
        reads = [second for _, second in pairs]
        reference = pairs[0][0]
        cell = {
            "edit_distance": {
                "python": _time_per_pair(kernels._python_distance, pairs),
                "bitparallel": _time_per_pair(edit_distance_kernel, pairs),
            },
            "banded_distance": {
                "python": _time_per_pair(
                    lambda a, b: kernels._python_banded(a, b, BAND), pairs
                ),
                "bitparallel": _time_per_pair(
                    lambda a, b: banded_distance_kernel(a, b, BAND), pairs
                ),
            },
            "one_to_many": {
                "python": _per_read_ns(
                    lambda a, batch: [kernels._python_distance(a, b) for b in batch],
                    reference,
                    reads,
                ),
                "bitparallel": _per_read_ns(
                    edit_distances_one_to_many, reference, reads
                ),
            },
            "matching_blocks": {
                "python": _time_per_pair(reference_blocks, pairs, repeats=2),
                "runtable": _time_per_pair(
                    lambda a, b: (clear_block_cache(), matching_blocks(a, b))[1],
                    pairs,
                    repeats=2,
                ),
            },
            "edit_operations": _time_per_pair(edit_operations, pairs),
        }
        kernels_record[str(length)] = cell

    # Clustering end-to-end: reference DPs vs the code-chosen kernels.
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
    with pytest.MonkeyPatch.context() as patch:
        reference_calls = _patch_reference_kernels(patch)
        start = time.perf_counter()
        results["python"] = GreedyClusterer().cluster(reads)
        clustering["python"] = time.perf_counter() - start
    assert reference_calls["banded"] > 0
    start = time.perf_counter()
    results["bitparallel"] = GreedyClusterer().cluster(reads)
    clustering["bitparallel"] = time.perf_counter() - start
    assert results["bitparallel"].assignments == results["python"].assignments
    clustering["speedup"] = clustering["python"] / clustering["bitparallel"]

    length_110 = kernels_record["110"]["edit_distance"]
    kernel_speedup = length_110["python"] / length_110["bitparallel"]
    record = stamp_record(
        {
            "band": BAND,
            "pairs_per_cell": PAIRS_PER_CELL,
            "kernels_ns_per_pair": kernels_record,
            "gestalt_block": _gestalt_block_record(),
            "clustering": {
                "reads": len(reads),
                "strand_length": 110,
                "python_s": clustering["python"],
                "bitparallel_s": clustering["bitparallel"],
                "speedup": clustering["speedup"],
            },
            "edit_distance_110_speedup": kernel_speedup,
            "cpu_count": os.cpu_count(),
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
