"""Shared infrastructure for the paper-reproduction experiments.

Every table and figure of the paper maps to one runner module in this
package (see DESIGN.md section 3).  Runners share a cached *context* — the
synthetic Nanopore dataset, its fitted error profile, and the
fixed-coverage trims — so a full benchmark session generates the dataset
once.

Scale: the paper's dataset has 10,000 clusters; experiments default to
``DEFAULT_N_CLUSTERS`` so the whole suite runs on a laptop in minutes.
Override with the ``REPRO_N_CLUSTERS`` environment variable or the
runners' ``n_clusters`` argument; EXPERIMENTS.md records the scale used
for the committed numbers.
"""

from __future__ import annotations

import os
import random
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.experiments import cache as context_cache
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.simulator import Simulator
from repro.core.coverage import ConstantCoverage
from repro.core.strand import StrandPool
from repro.data.nanopore import make_nanopore_dataset
from repro.observability import span
from repro.reconstruct.base import Reconstructor
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction

#: Default experiment scale (clusters). The paper uses 10,000.
DEFAULT_N_CLUSTERS = int(os.environ.get("REPRO_N_CLUSTERS", "200"))

#: Dataset seed shared by all experiments (reproducibility).
DATASET_SEED = 2

#: Seed for the one-time within-cluster shuffle of the paper's
#: fixed-coverage protocol (Section 3.2).
SHUFFLE_SEED = 3

#: Seed for simulators under test.
SIMULATOR_SEED = 17

#: Copies aligned per cluster when profiling (statistics converge fast).
PROFILE_COPIES = 4


@dataclass
class ExperimentContext:
    """Cached dataset + profile shared across experiment runners."""

    n_clusters: int = DEFAULT_N_CLUSTERS
    real_pool: StrandPool = field(init=False)
    profile: ErrorProfile = field(init=False)
    _trims: dict[int, StrandPool] = field(init=False, default_factory=dict)
    _shuffled: StrandPool = field(init=False)

    def __post_init__(self) -> None:
        cached = context_cache.load_context_artifacts(
            self.n_clusters, DATASET_SEED, PROFILE_COPIES
        )
        if cached is not None:
            self.real_pool, statistics = cached
            self.profile = ErrorProfile(statistics)
        else:
            with span("context.build", n_clusters=self.n_clusters, seed=DATASET_SEED):
                self.real_pool = make_nanopore_dataset(
                    n_clusters=self.n_clusters, seed=DATASET_SEED
                )
                self.profile = ErrorProfile.from_pool(
                    self.real_pool, max_copies_per_cluster=PROFILE_COPIES
                )
                context_cache.store_context_artifacts(
                    self.n_clusters,
                    DATASET_SEED,
                    PROFILE_COPIES,
                    self.real_pool,
                    self.profile.statistics,
                )
        rng = random.Random(SHUFFLE_SEED)
        self._shuffled = self.real_pool.shuffled_copies(rng).with_min_coverage(10)

    @property
    def strand_length(self) -> int:
        return len(self.real_pool.references[0])

    def real_at_coverage(self, coverage: int) -> StrandPool:
        """The paper's fixed-coverage protocol (Section 3.2): shuffle once,
        drop clusters under coverage 10, take the first N copies."""
        if coverage not in self._trims:
            self._trims[coverage] = self._shuffled.trimmed(coverage)
        return self._trims[coverage]

    def simulator_for_stage(
        self, stage: SimulatorStage, coverage: int, seed_offset: int = 0
    ) -> Simulator:
        """A fitted simulator at one of the paper's four model stages."""
        return Simulator.fitted(
            self.profile,
            stage=stage,
            coverage=ConstantCoverage(coverage),
            seed=SIMULATOR_SEED + seed_offset,
        )


#: In-memory contexts kept alive at once.  A context pins its full
#: dataset plus fitted profile, so an unbounded map would leak one
#: dataset per scale during sweeps (sensitivity studies, chaos at
#: multiple ``n_clusters``); two covers the common "main scale plus one
#: sweep point" access pattern, and evicted scales reload cheaply from
#: the on-disk cache.
MAX_CACHED_CONTEXTS = 2

_CONTEXTS: OrderedDict[int, ExperimentContext] = OrderedDict()


def get_context(n_clusters: int | None = None) -> ExperimentContext:
    """Fetch (or build) the cached context at a given scale.

    At most :data:`MAX_CACHED_CONTEXTS` contexts stay in memory; the
    least recently used is evicted when a new scale is requested.
    """
    scale = n_clusters if n_clusters is not None else DEFAULT_N_CLUSTERS
    context = _CONTEXTS.get(scale)
    if context is None:
        context = ExperimentContext(scale)
        _CONTEXTS[scale] = context
    _CONTEXTS.move_to_end(scale)
    while len(_CONTEXTS) > MAX_CACHED_CONTEXTS:
        _CONTEXTS.popitem(last=False)
    return context


def clear_contexts() -> None:
    """Drop every in-memory context (tests, and sweeps that want a clean
    slate between scales).  The on-disk artifact cache is unaffected."""
    _CONTEXTS.clear()


def standard_reconstructors() -> list[Reconstructor]:
    """The algorithms of Table 2.1: BMA, Divider BMA, Iterative."""
    return [BMALookahead(), DividerBMA(), IterativeReconstruction()]


def paper_reconstructors() -> list[Reconstructor]:
    """The two algorithms of Chapter 3's evaluation: BMA and Iterative."""
    return [BMALookahead(), IterativeReconstruction()]


# --------------------------------------------------------------------- #
# Text rendering
# --------------------------------------------------------------------- #


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table (the experiments' output form)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in materialised:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def format_curve(curve: Sequence[int], bins: int = 11) -> str:
    """Render a positional curve as coarse-binned counts plus a sparkline."""
    from repro.metrics.curves import curve_summary

    summary = curve_summary(curve, bins)
    peak = max(summary) if summary else 0
    blocks = " .:-=+*#%@"
    spark = "".join(
        blocks[min(len(blocks) - 1, int(value / peak * (len(blocks) - 1)))]
        if peak
        else " "
        for value in summary
    )
    return f"[{spark}] {list(summary)}"


def percent(value: float) -> str:
    """Format a percentage the way the paper's tables do."""
    return f"{value:.2f}"


def format_scenario(scenario: "OrderedDict | dict") -> str:
    """Render a scenario cell's axis values on one line.

    Shared by ``dnasim sweep`` output and the sweep status table so a
    cell reads the same everywhere: ``channel=paper coverage=6.0 ...``.
    """
    return " ".join(f"{axis}={value}" for axis, value in scenario.items())
