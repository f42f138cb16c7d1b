"""Synthetic stand-in for the paper's real Nanopore dataset.

The paper evaluates against a Microsoft/Technion Nanopore dataset (10,000
reference strands of length 110; 269,709 noisy reads; mean coverage 26.97;
16 empty clusters; aggregate error ~5.9%) which is not redistributable
here.  This module builds a **ground-truth wetlab channel** whose
parameters are set to the statistics the paper reports for that dataset —
see DESIGN.md §1 for the full property-by-property mapping.

Crucially, the ground truth includes two effects that *no simulator under
test models* — homopolymer error amplification and Nanopore burst errors
(Section 1.2) — so, as in the paper, data simulated even by the best
fitted model remains slightly "cleaner" than the (synthetic) real data,
and each added model parameter moves simulated reconstruction accuracy
toward, not past, the real data's.

Everything downstream treats the generated pool exactly like real data:
profilers estimate parameters *from the reads*, never from this module's
constants.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain

from repro.core.alphabet import random_strand
from repro.core.channel import Channel
from repro.core.coverage import (
    ConstantCoverage,
    CoverageModel,
    ErasureCoverage,
    NegativeBinomialCoverage,
)
from repro.core.errors import (
    PAPER_LONG_DELETION_LENGTHS,
    ErrorModel,
    SecondOrderError,
    transition_biased_substitution_matrix,
)
from repro.core.spatial import TerminalSkew, UniformSpatial
from repro.core.strand import Cluster, StrandPool
from repro.core.simulator import draw_coverages, transmit_derived_chunk
from repro.exceptions import ConfigError
from repro.parallel import parallel_stream
from repro.sharding.plan import resolve_shards, split_contiguous

#: Statistics of the real dataset, as reported in Section 3.2.
PAPER_N_CLUSTERS = 10_000
PAPER_STRAND_LENGTH = 110
PAPER_MEAN_COVERAGE = 26.97
PAPER_AGGREGATE_ERROR = 0.059
PAPER_ERASURE_COUNT = 16
PAPER_COVERAGE_MAX = 164


@dataclass(frozen=True)
class NanoporeParameters:
    """Tunable knobs of the ground-truth channel.

    Defaults are calibrated so the generated data matches the paper's
    reported dataset statistics (aggregate error ~5.9%, end-of-strand
    errors ~2x start-of-strand, long-deletion probability ~0.33%).
    """

    substitution_rate: float = 0.0190
    deletion_rate: float = 0.0100
    insertion_rate: float = 0.0056
    long_deletion_rate: float = 0.0025
    transition_probability: float = 0.8
    start_boost: float = 1.6
    end_boost: float = 5.5
    skew_decay: float = 5.0
    homopolymer_factor: float = 1.8
    burst_rate: float = 0.0003
    erasure_probability: float = PAPER_ERASURE_COUNT / PAPER_N_CLUSTERS
    coverage_dispersion: float = 4.0


def nanopore_parameters(
    overrides: dict | None,
) -> NanoporeParameters | None:
    """Build :class:`NanoporeParameters` from a mapping of overrides.

    The scenario layer stores channel presets as plain JSON dicts; this
    is the one validated path from that representation back to the
    frozen dataclass.  ``None`` and ``{}`` both mean "the paper
    defaults" and return ``None`` so callers can distinguish "default
    channel" from an explicit parameter set.

    Raises:
        ConfigError: unknown field names (with a did-you-mean hint) or
            non-numeric values.
    """
    if not overrides:
        return None
    from difflib import get_close_matches

    from repro.exceptions import ConfigError

    known = tuple(NanoporeParameters.__dataclass_fields__)
    clean: dict[str, float] = {}
    for name, value in overrides.items():
        if name not in known:
            hint = get_close_matches(str(name), known, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(
                f"unknown channel parameter {name!r}{suggestion} "
                f"(known: {', '.join(known)})"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"channel parameter {name!r} must be a number, got "
                f"{value!r}"
            )
        clean[name] = float(value)
    return NanoporeParameters(**clean)


def ground_truth_model(
    parameters: NanoporeParameters | None = None,
) -> ErrorModel:
    """The full ground-truth Nanopore error model.

    Includes second-order errors with their own positional skews
    (Section 3.3.3 observed "significantly more errors at one of the
    terminal positions" for the common second-order errors): deletions of
    A and T pile up at the strand end, the dominant transition
    substitutions at the start, and G insertions uniformly.
    """
    parameters = parameters or NanoporeParameters()
    end_heavy = TerminalSkew(start_boost=1.0, end_boost=10.0, decay=6.0)
    start_heavy = TerminalSkew(start_boost=8.0, end_boost=2.0, decay=5.0)
    second_order = (
        SecondOrderError("deletion", "A", "", 0.0030, end_heavy),
        SecondOrderError("deletion", "T", "", 0.0022, end_heavy),
        SecondOrderError("substitution", "T", "C", 0.0026, start_heavy),
        SecondOrderError("substitution", "A", "G", 0.0022, start_heavy),
        SecondOrderError("insertion", "", "G", 0.0009, UniformSpatial()),
    )
    return ErrorModel(
        insertion_rate=parameters.insertion_rate,
        deletion_rate=parameters.deletion_rate,
        substitution_rate=parameters.substitution_rate,
        substitution_matrix=transition_biased_substitution_matrix(
            parameters.transition_probability
        ),
        long_deletion_rate=parameters.long_deletion_rate,
        long_deletion_lengths=dict(PAPER_LONG_DELETION_LENGTHS),
        spatial=TerminalSkew(
            start_boost=parameters.start_boost,
            end_boost=parameters.end_boost,
            decay=parameters.skew_decay,
        ),
        second_order_errors=second_order,
        homopolymer_factor=parameters.homopolymer_factor,
        burst_rate=parameters.burst_rate,
    )


def ground_truth_coverage(
    mean_coverage: float = PAPER_MEAN_COVERAGE,
    parameters: NanoporeParameters | None = None,
) -> CoverageModel:
    """Negative-binomial coverage with explicit erasures (Section 2.1's
    empirical finding; 16/10,000 clusters in the paper's data are empty)."""
    parameters = parameters or NanoporeParameters()
    return ErasureCoverage(
        NegativeBinomialCoverage(mean_coverage, parameters.coverage_dispersion),
        parameters.erasure_probability,
    )


def make_nanopore_dataset(
    n_clusters: int = 1_000,
    strand_length: int = PAPER_STRAND_LENGTH,
    mean_coverage: float = PAPER_MEAN_COVERAGE,
    seed: int | None = 0,
    parameters: NanoporeParameters | None = None,
    constant_coverage: int | None = None,
) -> StrandPool:
    """Generate a Nanopore-like wetlab dataset.

    Args:
        n_clusters: number of reference strands (the paper uses 10,000;
            experiments default lower so the whole suite runs quickly —
            the scale used is recorded in EXPERIMENTS.md).
        strand_length: reference strand length (110 in the paper).
        mean_coverage: mean noisy copies per strand (26.97 in the paper).
        seed: dataset seed; the same seed reproduces the same dataset.
        parameters: channel knobs; defaults are paper-calibrated.
        constant_coverage: bypass the negative-binomial coverage and give
            every cluster exactly this many copies (used by sensitivity
            studies that control coverage).

    Returns:
        A pseudo-clustered pool: references paired with their noisy reads.

    Raises:
        ConfigError: when ``n_clusters`` is negative.
    """
    if n_clusters < 0:
        raise ConfigError(f"n_clusters must be non-negative, got {n_clusters}")
    rng = random.Random(seed)
    references = [random_strand(strand_length, rng) for _ in range(n_clusters)]
    model = ground_truth_model(parameters)
    channel = Channel(model, rng)
    if constant_coverage is not None:
        coverage_model: CoverageModel = ConstantCoverage(constant_coverage)
    else:
        coverage_model = ground_truth_coverage(mean_coverage, parameters)
    return channel.transmit_pool(references, coverage_model)


def iter_nanopore_clusters(
    n_clusters: int = 1_000,
    strand_length: int = PAPER_STRAND_LENGTH,
    mean_coverage: float = PAPER_MEAN_COVERAGE,
    seed: int = 0,
    parameters: NanoporeParameters | None = None,
    constant_coverage: int | None = None,
    shards: int | None = None,
    workers: int | None = None,
) -> Iterator[Cluster]:
    """Stream a Nanopore-like dataset shard by shard, in index order.

    The streaming counterpart of :func:`make_nanopore_dataset` for
    paper-scale generation: one process pool serves the whole stream, and
    at most ``workers`` shards are in flight plus the one being consumed,
    instead of the whole pool, so 10,000 clusters / ~270k reads can be
    written straight to disk in bounded memory.

    Unlike the serial generator, randomness is derived **per cluster**
    from ``(seed, index)`` by the convention of
    :mod:`repro.core.simulator` (references derived in the workers,
    coverages drawn upfront in index order), so the stream is identical
    at any shard and worker count — but *not* to
    :func:`make_nanopore_dataset` with the same seed, which consumes one
    serial stream whose draw order is a compatibility contract.

    Args:
        shards: contiguous shards to split generation into (``None`` ->
            ``REPRO_SHARDS``/CLI default); the unit of both parallelism
            and peak memory.
        workers: worker processes, and the number of shards in flight
            (``None`` -> ``REPRO_WORKERS``/CLI default).
    """
    model = ground_truth_model(parameters)
    if constant_coverage is not None:
        coverage_model: CoverageModel = ConstantCoverage(constant_coverage)
    else:
        coverage_model = ground_truth_coverage(mean_coverage, parameters)
    per_shard = split_contiguous(
        list(enumerate(draw_coverages(coverage_model, n_clusters, seed))),
        resolve_shards(shards),
    )
    generate = partial(transmit_derived_chunk, model, seed, strand_length)
    # One pool for the whole stream with at most `workers` shards in
    # flight: enough to keep the pool busy, few enough that peak memory
    # stays bounded by the shards in flight, not the pool.
    yield from chain.from_iterable(parallel_stream(generate, per_shard, workers))
