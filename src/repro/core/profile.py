"""From measured error statistics to simulator parameters.

This module is the paper's "data-driven approach that does not require
manual intervention and classification of key probabilities"
(Section 2.3): it turns an :class:`~repro.analysis.error_stats.ErrorStatistics`
tally (measured on real — or ground-truth synthetic — data) into the four
progressively refined :class:`~repro.core.errors.ErrorModel` stages of
Section 3.3:

* :attr:`SimulatorStage.NAIVE` — aggregate P(ins)/P(del)/P(sub) only;
* :attr:`SimulatorStage.CONDITIONAL` — per-base conditional rates, the
  measured substitution matrix, and the long-deletion process (§3.3.1);
* :attr:`SimulatorStage.SKEW` — plus the measured spatial distribution of
  errors (§3.3.2);
* :attr:`SimulatorStage.SECOND_ORDER` — plus the top-K second-order
  errors, each with its own measured positional skew (§3.3.3).

The stages are constructed so the **aggregate error rate is identical**
across all four — exactly the control the paper relies on when comparing
stages ("a further decrease in accuracy despite the same aggregate
probability").
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from functools import partial

from repro.analysis.error_stats import ErrorStatistics, SecondOrderKey
from repro.core.alphabet import BASES
from repro.core.errors import ErrorModel, SecondOrderError
from repro.core.spatial import HistogramSpatial, SpatialDistribution, UniformSpatial
from repro.core.strand import Cluster, StrandPool
from repro.observability import counter, span
from repro.parallel import parallel_stream, resolve_workers, stream_chunks
from repro.sharding.plan import batched


#: How many positions at each end are scanned for excess terminal error
#: mass when fitting the three-position skew.
_TERMINAL_WINDOW = 10


def fit_three_position_skew(rates: list[float]) -> SpatialDistribution:
    """Fit the paper's three-position terminal skew to a positional profile.

    Section 3.3.2 models the measured skew as affecting only positions 0,
    1, and the last: "the remaining positions have approximately [equal]
    noise".  The fit flattens the interior to its median level and sets
    the three terminal parameters as follows:

    * positions 0 and 1 keep their *measured* error levels — the start
      bump in real data is only about two positions wide, so the two
      model slots already carry its mass;
    * the last position absorbs the *entire excess mass* of the end
      region — the measured end bump decays over many positions, but the
      model has a single slot to represent it, so conserving the regional
      mass pins it all there.

    The end-side over-concentration (one position carrying what reality
    spreads over ten) is deliberate and paper-faithful: it is the
    mechanism behind the Iterative algorithm's over-correction in
    Tables 3.1/3.2 — "an over-correction due to the underlying error
    distribution..., and not by the simulator" (Section 3.3.2).
    """
    length = len(rates)
    if length < 2 * _TERMINAL_WINDOW + 4:
        return HistogramSpatial(rates) if sum(rates) > 0 else UniformSpatial()
    interior = sorted(rates[_TERMINAL_WINDOW : length - _TERMINAL_WINDOW])
    interior_level = interior[len(interior) // 2]
    if interior_level <= 0:
        return HistogramSpatial(rates) if sum(rates) > 0 else UniformSpatial()
    # Excess errors measured near — but not at — the end are only partly
    # attributable to the terminal process, so their contribution decays
    # with distance from the last position.
    attribution_decay = _TERMINAL_WINDOW / 2.0
    end_excess = sum(
        max(0.0, rates[position] - interior_level)
        * math.exp(-(length - 1 - position) / attribution_decay)
        for position in range(length - _TERMINAL_WINDOW, length)
    )
    weights = [interior_level] * length
    weights[0] = max(rates[0], interior_level)
    weights[1] = max(rates[1], interior_level)
    # Cap the end parameter: a single position absorbing much more than
    # an order of magnitude of the interior level would drive its
    # per-position error probability toward 1, which is a small-sample
    # measurement artifact rather than channel physics.
    weights[-1] = interior_level + min(end_excess, 9.0 * interior_level)
    return HistogramSpatial(weights)


def _tally_cluster_chunk(
    max_copies_per_cluster: int | None, clusters: list[Cluster]
) -> ErrorStatistics:
    """Tally one chunk of clusters (the whole pool on a serial fit)."""
    statistics = ErrorStatistics()
    statistics.tally_pool(StrandPool(clusters), max_copies_per_cluster)
    return statistics


class SimulatorStage(Enum):
    """The paper's progressive simulator refinements (Tables 3.1/3.2 rows)."""

    NAIVE = "naive"
    CONDITIONAL = "conditional"  # "+ Cond. Prob + Del"
    SKEW = "skew"  # "+ Spatial Skew"
    SECOND_ORDER = "second_order"  # "+ 2nd-order Errors"

    @property
    def label(self) -> str:
        """The row label used in the paper's tables."""
        return {
            SimulatorStage.NAIVE: "Naive Simulator",
            SimulatorStage.CONDITIONAL: '" + Cond. Prob + Del',
            SimulatorStage.SKEW: '" + Spatial Skew',
            SimulatorStage.SECOND_ORDER: '" + 2nd-order Errors',
        }[self]


@dataclass
class ErrorProfile:
    """A fitted error profile: measurement plus model construction.

    Build one with :meth:`from_pool` on any pseudo-clustered dataset, then
    ask for the model at any stage.
    """

    statistics: ErrorStatistics

    @classmethod
    def from_pool(
        cls,
        pool: StrandPool,
        max_copies_per_cluster: int | None = None,
        rng: random.Random | None = None,
        workers: int | None = None,
        shards: int | None = None,
    ) -> "ErrorProfile":
        """Profile a dataset by aligning every copy to its reference.

        Without ``rng`` the pairs are aligned and tallied in lockstep
        (:meth:`ErrorStatistics.tally_many`, DESIGN §19).  Per-cluster
        tallies are independent and additive, so with ``workers > 1``
        chunks of clusters are profiled on a process pool
        (:func:`repro.parallel.stream_chunks`) and the per-chunk
        statistics merged in order — bit-identical to the serial fit,
        which tallies the whole pool at once.  A caller-supplied ``rng``
        (random tie-breaking whose draw order is serial by definition)
        runs the scalar :meth:`ErrorStatistics.tally_pair` loop in one
        process.

        Args:
            pool: pseudo-clustered dataset to measure.
            max_copies_per_cluster: optional cap on copies aligned per
                cluster; the statistics converge with a few copies per
                cluster, and profiling cost is linear in this cap.
            rng: optional randomness for Algorithm 2 tie-breaking.
            workers: worker processes (None -> ``REPRO_WORKERS``/CLI
                default; 0 -> all cores; <= 1 -> serial).
            shards: accepted for call-site compatibility and ignored;
                an in-memory pool needs no second partition, so neither
                it nor ``REPRO_SHARDS`` changes the fit.
        """
        effective_workers = resolve_workers(workers)
        with span("profile_fit", clusters=len(pool), workers=effective_workers):
            counter("profile.clusters").inc(len(pool))
            if rng is not None:
                statistics = ErrorStatistics()
                statistics.tally_pool(pool, max_copies_per_cluster, rng)
                return cls(statistics)
            parts = stream_chunks(
                partial(_tally_cluster_chunk, max_copies_per_cluster),
                pool.clusters,
                effective_workers,
            )
            statistics = next(parts)
            for part in parts:
                statistics.merge(part)
            return cls(statistics)

    @classmethod
    def from_clusters(
        cls,
        clusters: "Iterable[Cluster]",
        max_copies_per_cluster: int | None = None,
        workers: int | None = None,
        batch_size: int = 512,
    ) -> "ErrorProfile":
        """Profile a *stream* of clusters in bounded memory.

        The streaming counterpart of :meth:`from_pool` for sources that
        must never be materialised whole — :func:`repro.data.io.iter_pool`
        over a paper-scale evyat file, or a generator of simulated
        clusters.  Batches of ``batch_size`` clusters are tallied (on one
        process pool when ``workers > 1``, at most ``workers`` batches in
        flight) and merged in batch order as they arrive, so peak memory
        is one batch per worker.  Bit-identical to :meth:`from_pool` over
        the materialised equivalent.
        """
        effective_workers = resolve_workers(workers)
        statistics = ErrorStatistics()
        n_clusters = 0

        def counted_batches() -> "Iterator[list[Cluster]]":
            nonlocal n_clusters
            for batch in batched(clusters, batch_size):
                n_clusters += len(batch)
                yield batch

        with span("profile_fit_stream", workers=effective_workers):
            for part in parallel_stream(
                partial(_tally_cluster_chunk, max_copies_per_cluster),
                counted_batches(),
                effective_workers,
            ):
                statistics.merge(part)
            counter("profile.clusters").inc(n_clusters)
        return cls(statistics)

    # ---------------------------------------------------------------- #
    # Stage models
    # ---------------------------------------------------------------- #

    def model_for_stage(
        self, stage: SimulatorStage, top_second_order: int = 10
    ) -> ErrorModel:
        """The fitted :class:`ErrorModel` for any stage of Section 3.3."""
        if stage is SimulatorStage.NAIVE:
            return self.naive_model()
        if stage is SimulatorStage.CONDITIONAL:
            return self.conditional_model()
        if stage is SimulatorStage.SKEW:
            return self.skew_model()
        return self.second_order_model(top_second_order)

    def naive_model(self) -> ErrorModel:
        """Aggregate three-probability model; long deletions are folded
        into the deletion rate base-by-base so the aggregate error rate
        matches the data (the naive simulator "ignores long-deletions",
        Section 2.2.2)."""
        stats = self.statistics
        opportunities = stats.total_opportunities()
        if opportunities == 0:
            return ErrorModel.naive(0.0, 0.0, 0.0)
        deleted_in_runs = sum(
            length * count
            for length, count in stats.long_deletion_lengths.items()
        )
        deletion_rate = (
            sum(stats.deletion_counts.values()) + deleted_in_runs
        ) / opportunities
        insertion_rate = sum(stats.insertion_counts.values()) / opportunities
        substitution_rate = sum(stats.substitution_counts.values()) / opportunities
        return ErrorModel.naive(insertion_rate, deletion_rate, substitution_rate)

    def conditional_model(self) -> ErrorModel:
        """Per-base conditional probabilities plus the long-deletion
        process (Section 3.3.1)."""
        stats = self.statistics
        return ErrorModel(
            insertion_rate={
                base: stats.conditional_rate("insertion", base) for base in BASES
            },
            deletion_rate={
                base: stats.conditional_rate("deletion", base) for base in BASES
            },
            substitution_rate={
                base: stats.conditional_rate("substitution", base) for base in BASES
            },
            substitution_matrix=stats.substitution_matrix(),
            insertion_base_probs=stats.inserted_base_distribution(),
            long_deletion_rate=stats.long_deletion_rate(),
            long_deletion_lengths=stats.long_deletion_length_distribution()
            or {2: 1.0},
        )

    def skew_model(self, three_position: bool = True) -> ErrorModel:
        """Conditional model plus the fitted spatial skew (Section 3.3.2).

        By default this fits the paper's literal *three-position* skew
        model — "only the first 2 positions (0 and 1), and the last
        position are affected; the remaining positions have approximately
        [equal] noise" — by reassigning all excess terminal error mass
        onto those three positions.  That over-concentration (real
        terminal errors decay over several positions) is precisely what
        makes the Iterative algorithm over-correct in Tables 3.1/3.2.
        Pass ``three_position=False`` for the full measured histogram
        instead (used by the ablation study).
        """
        rates = self.statistics.positional_error_rates()
        if three_position:
            spatial = fit_three_position_skew(rates)
        else:
            spatial = self._aggregate_spatial()
        return self.conditional_model().with_spatial(spatial)

    def generalized_model(self, top: int | None = None) -> ErrorModel:
        """The paper's future-work generalisation (Section 4.3): every
        observed second-order error becomes a parameter, each with its
        *full* positional histogram (no three-position approximation),
        and the residual first-order skew keeps the full measured
        histogram as well.

        Args:
            top: number of second-order errors to model; None models all
                observed ones (capped at 64 — beyond that the model
                memorises the dataset, the risk the paper warns about).
        """
        stats = self.statistics
        if top is None:
            top = min(64, len(stats.second_order_counts))
        return self.second_order_model(top, full_histograms=True)

    def second_order_model(
        self, top: int = 10, full_histograms: bool = False
    ) -> ErrorModel:
        """Skew model plus the top-``top`` second-order errors, each with
        its own positional histogram (Section 3.3.3).

        The counts attributed to second-order errors are subtracted from
        the first-order conditional rates (and from the first-order
        spatial histogram), so the aggregate error rate is unchanged —
        errors are *reassigned*, never added.

        Args:
            top: how many of the most common second-order errors to model.
            full_histograms: keep full measured positional histograms for
                each error and for the residual first-order skew instead
                of the paper's three-position fit (the generalisation of
                Section 4.3; see :meth:`generalized_model`).
        """
        stats = self.statistics
        top_errors = stats.top_second_order_errors(top)
        if not top_errors:
            return self.skew_model()

        insertion_counts = dict(stats.insertion_counts)
        deletion_counts = dict(stats.deletion_counts)
        substitution_counts = dict(stats.substitution_counts)
        substitution_pairs = dict(stats.substitution_pairs)
        residual_positions = list(stats.error_positions)

        second_order: list[SecondOrderError] = []
        for key, count in top_errors:
            kind, base, replacement = key
            rate_denominator = (
                stats.total_opportunities()
                if kind == "insertion"
                else stats.base_opportunities[base]
            )
            if rate_denominator == 0:
                continue
            histogram = stats.second_order_positions.get(key)
            # Spatial skews are modelled the same way as the aggregate one:
            # excess terminal mass concentrated on the three paper
            # positions (Section 3.3.3 keeps "the same aggregate
            # probability" while reassigning specific errors) — unless the
            # generalised full-histogram variant was requested.
            if not histogram or sum(histogram) == 0:
                spatial: SpatialDistribution = UniformSpatial()
            elif full_histograms:
                spatial = HistogramSpatial([float(v) for v in histogram])
            else:
                spatial = fit_three_position_skew(
                    [float(value) for value in histogram]
                )
            second_order.append(
                SecondOrderError(
                    kind=kind,
                    base=base,
                    replacement=replacement,
                    rate=count / rate_denominator,
                    spatial=spatial,
                )
            )
            self._subtract_counts(
                key,
                count,
                insertion_counts,
                deletion_counts,
                substitution_counts,
                substitution_pairs,
            )
            if histogram:
                for position, value in enumerate(histogram):
                    residual_positions[position] = max(
                        0, residual_positions[position] - value
                    )

        opportunities = stats.total_opportunities()
        model = ErrorModel(
            insertion_rate=self._rates_from_counts(insertion_counts),
            deletion_rate=self._rates_from_counts(deletion_counts),
            substitution_rate=self._rates_from_counts(substitution_counts),
            substitution_matrix=self._matrix_from_pairs(substitution_pairs),
            insertion_base_probs=stats.inserted_base_distribution(),
            long_deletion_rate=(
                stats.long_deletion_count / opportunities if opportunities else 0.0
            ),
            long_deletion_lengths=stats.long_deletion_length_distribution()
            or {2: 1.0},
            spatial=self._residual_spatial(residual_positions, full_histograms),
            second_order_errors=tuple(second_order),
        )
        return model

    # ---------------------------------------------------------------- #
    # Internals
    # ---------------------------------------------------------------- #

    @staticmethod
    def _residual_spatial(
        residual_positions: list[float], full_histograms: bool
    ) -> SpatialDistribution:
        if sum(residual_positions) <= 0:
            return UniformSpatial()
        if full_histograms:
            return HistogramSpatial([float(v) for v in residual_positions])
        return fit_three_position_skew(residual_positions)

    def _aggregate_spatial(self) -> HistogramSpatial | UniformSpatial:
        rates = self.statistics.positional_error_rates()
        if not rates or sum(rates) == 0:
            return UniformSpatial()
        return HistogramSpatial(rates)

    def _rates_from_counts(self, counts: dict[str, int]) -> dict[str, float]:
        stats = self.statistics
        rates = {}
        for base in BASES:
            opportunities = stats.base_opportunities[base]
            rates[base] = counts.get(base, 0) / opportunities if opportunities else 0.0
        return rates

    @staticmethod
    def _matrix_from_pairs(
        pairs: dict[tuple[str, str], int],
    ) -> dict[str, dict[str, float]]:
        matrix: dict[str, dict[str, float]] = {}
        for original in BASES:
            row = {
                replacement: pairs.get((original, replacement), 0)
                for replacement in BASES
                if replacement != original
            }
            total = sum(row.values())
            if total == 0:
                matrix[original] = {replacement: 1.0 / 3.0 for replacement in row}
            else:
                matrix[original] = {
                    replacement: count / total for replacement, count in row.items()
                }
        return matrix

    @staticmethod
    def _subtract_counts(
        key: SecondOrderKey,
        count: int,
        insertion_counts: dict[str, int],
        deletion_counts: dict[str, int],
        substitution_counts: dict[str, int],
        substitution_pairs: dict[tuple[str, str], int],
    ) -> None:
        kind, base, replacement = key
        if kind == "insertion":
            # Insertions were attributed to preceding bases in the tally;
            # the second-order event replaces a share of every base's
            # insertion count proportionally.
            total = sum(insertion_counts.values())
            if total > 0:
                scale = max(0.0, 1.0 - count / total)
                for attributed in list(insertion_counts):
                    insertion_counts[attributed] = int(
                        round(insertion_counts[attributed] * scale)
                    )
        elif kind == "deletion":
            deletion_counts[base] = max(0, deletion_counts.get(base, 0) - count)
        else:
            substitution_counts[base] = max(
                0, substitution_counts.get(base, 0) - count
            )
            substitution_pairs[(base, replacement)] = max(
                0, substitution_pairs.get((base, replacement), 0) - count
            )
