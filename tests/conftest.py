"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens of clusters, short strands) so the
whole suite stays fast; statistical assertions use wide tolerances and
fixed seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.coverage import ConstantCoverage
from repro.core.errors import ErrorModel
from repro.core.simulator import Simulator
from repro.core.strand import Cluster, StrandPool
from repro.data.nanopore import make_nanopore_dataset


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random stream, fresh per test."""
    return random.Random(1234)


@pytest.fixture
def small_cluster() -> Cluster:
    """A hand-built cluster with known noisy copies."""
    return Cluster(
        "ACGTACGTAC",
        ["ACGTACGTAC", "ACGTACGAC", "ACGTTACGTAC", "ACGAACGTAC"],
    )


@pytest.fixture
def small_pool(small_cluster: Cluster) -> StrandPool:
    """A three-cluster pool with one erasure."""
    return StrandPool(
        [
            small_cluster,
            Cluster("TTTTGGGGCC", ["TTTTGGGGCC", "TTTGGGGCC"]),
            Cluster("GACTGACTGA"),  # erasure: no copies
        ]
    )


@pytest.fixture(scope="session")
def uniform_pool() -> StrandPool:
    """A 60-cluster pool from a uniform 6% channel at coverage 5."""
    simulator = Simulator(
        ErrorModel.uniform(0.06), ConstantCoverage(5), seed=99
    )
    return simulator.simulate_random(60, 110)


@pytest.fixture(scope="session")
def nanopore_pool() -> StrandPool:
    """A small synthetic Nanopore dataset (session-cached: generation and
    profiling of the same pool are reused across test modules)."""
    return make_nanopore_dataset(n_clusters=80, seed=7)
