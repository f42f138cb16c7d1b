"""Absolute digests of every per-cluster-seeded generator's output.

The shard- and worker-invariance tests elsewhere compare a generator
against itself, so a change that shifted every derived stream the same
way (coverages, references, noise or faults) would still pass them.
These digests pin the bytes themselves: the streamed Nanopore-like
dataset, the per-cluster-seeded simulator (in memory and streamed) and
the full-scale runner's merged statistics and summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections.abc import Iterable

from repro.core.alphabet import random_strand
from repro.core.coverage import ConstantCoverage
from repro.core.simulator import Simulator
from repro.core.strand import Cluster
from repro.data.nanopore import ground_truth_model, iter_nanopore_clusters
from repro.sharding import run_fullscale


def _clusters_digest(clusters: Iterable[Cluster]) -> str:
    digest = hashlib.sha256()
    for cluster in clusters:
        digest.update(cluster.reference.encode("ascii") + b"\n")
        for copy in cluster.copies:
            digest.update(copy.encode("ascii") + b"\n")
        digest.update(b"*\n")
    return digest.hexdigest()


def _statistics_digest(statistics) -> str:
    """Every field, with dict and Counter keys in insertion order."""
    fields = []
    for spec in dataclasses.fields(statistics):
        value = getattr(statistics, spec.name)
        if isinstance(value, dict):
            value = list(value.items())
        fields.append((spec.name, value))
    return hashlib.sha256(repr(fields).encode("ascii")).hexdigest()


def _seeded_simulator() -> Simulator:
    return Simulator(
        ground_truth_model(), ConstantCoverage(6), seed=23, per_cluster_seeds=True
    )


def _references() -> list[str]:
    rng = random.Random(3)
    return [random_strand(110, rng) for _ in range(12)]


def test_streamed_nanopore_dataset_digest():
    clusters = iter_nanopore_clusters(n_clusters=40, seed=7, shards=3, workers=1)
    assert _clusters_digest(clusters) == (
        "146bcda8225187aff69bd04a0476cc37149bd81b7e48add23956fd16d4f3d27f"
    )


def test_seeded_simulate_digest():
    pool = _seeded_simulator().simulate(_references())
    assert _clusters_digest(pool) == (
        "4366ae47219cd477bc5da5481428b43384c6a05147ef99650f43dc9edc888bba"
    )


def test_seeded_iter_shards_digest():
    clusters = _seeded_simulator().iter_shards(_references(), shards=4)
    assert _clusters_digest(clusters) == (
        "4366ae47219cd477bc5da5481428b43384c6a05147ef99650f43dc9edc888bba"
    )


def test_fullscale_digests():
    result = run_fullscale(
        n_clusters=40,
        seed=5,
        shards=3,
        workers=1,
        algorithms=("majority", "bma"),
        fault_severity="mild",
        keep_statistics=True,
    )
    assert _statistics_digest(result.statistics) == (
        "34da96bce84937c1a4762186a194917975afc016add5cddf72805dd50f02445d"
    )
    summary = json.dumps(result.summary(), sort_keys=True)
    assert hashlib.sha256(summary.encode("ascii")).hexdigest() == (
        "ab71d2bdb27ec7550056325a564ed68836047c1e92edb07f518e0baa455c9dfc"
    )
