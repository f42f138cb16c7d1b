"""The IDS noisy channel: executes an :class:`ErrorModel` over strands.

This is the runtime of every simulator in the repository — the naive
simulator, each progressive stage of the paper's simulator, the
DNASimulator baseline (re-expressed as an ``ErrorModel``), and the
ground-truth wetlab substitute all share this one channel implementation
and differ only in parameters.

The channel maps ``(Sigma_L)^N -> (Sigma^*)^M`` (Section 1.1): each
reference strand is transmitted ``coverage`` times, and each transmission
walks the strand base by base, rolling a single uniform variate per
position against a precomputed cumulative *event ladder* (burst ->
second-order errors -> long deletion -> substitution -> insertion ->
deletion -> no error).  Ladders are cached per model and strand length,
so the hot loop does one ``random()`` call and one short scan per base.

Two execution paths share that draw-order contract bit for bit: the
reference loop below, and the sparse-event NumPy sweep in
:mod:`repro.core.channel_backend`.  Every serial-stream entry point
funnels into :meth:`Channel.transmit_many`, which rejects non-ACGT
references before any draw and then picks the path from the call's
shape (:meth:`Channel._use_sweep`): bulk calls on a plain
``random.Random`` run the sweep, everything else the loop.  Both consume
the same uniform variates in the same order from ``self.rng``, so seeds
give the same pools whichever path runs.  :meth:`Channel.transmit_seeded`
is the per-cluster-seeded entry: it always runs the sweep, on a source
seeded straight from the cluster's seed.
"""

from __future__ import annotations

import contextlib
import random
import weakref
from collections.abc import Sequence

from repro.core import channel_backend
from repro.core.alphabet import BASES, validate_strand
from repro.core.channel_backend import (
    ReferencePrep,
    UniformBulkSource,
    VectorTables,
    homopolymer_mask_fast,
    rng_supports_bulk,
    transmit_batch,
)
from repro.core.coverage import CoverageModel
from repro.core.errors import ErrorModel
from repro.core.strand import Cluster, StrandPool

# Event tags used in the ladder; tuples keep second-order errors attached.
_BURST = ("burst",)
_LONG_DELETION = ("long_deletion",)
_SUBSTITUTION = ("substitution",)
_INSERTION = ("insertion",)
_DELETION = ("deletion",)

# One ladder per (base, position): (total_probability, [(cum, event), ...]).
_Ladder = tuple[float, list[tuple[float, tuple]]]

#: Shared per-model caches, keyed by ``id(model)`` with a weakref
#: callback evicting the entry when the model is collected.
#: ``ErrorModel`` is a frozen dataclass with dict-valued fields, so it
#: is neither hashable (no ``WeakKeyDictionary``) nor mutable (no
#: instance attribute) — an id-keyed registry is the remaining option
#: that keeps ladders shared across every ``Channel`` over the same
#: model object, including the fresh per-cluster channels created by
#: ``per_cluster_seeds`` workers.
_MODEL_CACHES: dict[int, tuple[weakref.ref, dict]] = {}


def _shared_model_cache(model: ErrorModel) -> dict:
    key = id(model)
    entry = _MODEL_CACHES.get(key)
    if entry is not None:
        return entry[1]
    cache: dict = {}
    try:
        ref = weakref.ref(model, lambda _ref, _key=key: _MODEL_CACHES.pop(_key, None))
    except TypeError:  # un-weakrefable model subclass: correct, just uncached
        return cache
    _MODEL_CACHES[key] = (ref, cache)
    return cache


def _check_call(reference: str, coverage: int) -> None:
    """Reject a transmit call's arguments before any draw."""
    if coverage < 0:
        raise ValueError(f"coverage must be non-negative, got {coverage}")
    validate_strand(reference)


class Channel:
    """A stochastic IDS channel parameterised by an :class:`ErrorModel`.

    Args:
        model: the error model to execute.
        rng: source of randomness.  Supply a seeded ``random.Random`` for
            reproducible experiments.
    """

    def __init__(self, model: ErrorModel, rng: random.Random | None = None) -> None:
        self.model = model
        self.rng = rng if rng is not None else random.Random()
        # Single-entry reference-local caches: pool generation transmits
        # the same reference ``coverage`` times back to back, so the mask
        # and the per-position prep only need the most recent strand.
        self._mask_entry: tuple[str, list[bool]] | None = None
        self._prep_entry: ReferencePrep | None = None
        self._active_source: UniformBulkSource | None = None

    # ---------------------------------------------------------------- #
    # Public API
    # ---------------------------------------------------------------- #

    def transmit(self, reference: str) -> str:
        """Transmit one strand through the channel, returning a noisy copy."""
        return self.transmit_many(reference, 1)[0]

    def transmit_many(self, reference: str, coverage: int) -> list[str]:
        """Generate ``coverage`` independent noisy copies of one strand.

        Raises:
            AlphabetError: ``reference`` holds a character outside
                ``{A, C, G, T}`` (checked before any draw).
        """
        _check_call(reference, coverage)
        with self.bulk_window(len(reference) * coverage) as bulk:
            if bulk is None:
                return [self._transmit_python(reference) for _ in range(coverage)]
            return transmit_batch(
                self, reference, coverage, bulk, self._reference_prep(reference)
            )

    def transmit_cluster(self, reference: str, coverage: int) -> Cluster:
        """Generate one cluster: the reference plus ``coverage`` noisy copies."""
        return Cluster(reference, self.transmit_many(reference, coverage))

    def transmit_seeded(self, reference: str, coverage: int, seed: int) -> Cluster:
        """One cluster from a fresh ``random.Random(seed)`` stream.

        Returns exactly ``Channel(model, random.Random(seed))
        .transmit_cluster(reference, coverage)``, on the sweep at any
        size: the source is seeded straight from ``seed`` and nothing
        reads its stream afterwards, so there is no state transplant for
        :data:`~repro.core.channel_backend.AUTO_MIN_DRAWS` to amortise.
        ``self.rng`` is neither read nor advanced.

        Raises:
            AlphabetError: ``reference`` holds a character outside
                ``{A, C, G, T}`` (checked before any draw).
        """
        _check_call(reference, coverage)
        source = UniformBulkSource(hint=len(reference) * coverage + 64, seed=seed)
        try:
            copies = transmit_batch(
                self, reference, coverage, source, self._reference_prep(reference)
            )
        finally:
            source.close()
        return Cluster(reference, copies)

    def transmit_pool(
        self, references: Sequence[str], coverage_model: CoverageModel
    ) -> StrandPool:
        """Transmit a whole pool of references with per-cluster coverages
        drawn from ``coverage_model`` (pseudo-clustered output,
        Section 3.1)."""
        # Coverages are drawn from the raw RNG *before* any bulk source
        # opens — the serial draw order is coverages first, then rolls.
        coverages = coverage_model.draw(len(references), self.rng)
        draws_hint = sum(
            len(reference) * coverage
            for reference, coverage in zip(references, coverages)
        )
        with self.bulk_window(draws_hint):
            return StrandPool(
                [
                    self.transmit_cluster(reference, coverage)
                    for reference, coverage in zip(references, coverages)
                ]
            )

    # ---------------------------------------------------------------- #
    # Path selection
    # ---------------------------------------------------------------- #

    def _use_sweep(self, draws_hint: int) -> bool:
        """Whether a call expected to consume roughly ``draws_hint``
        uniform variates runs the vectorised sweep: only when the RNG's
        state can be mirrored and the transplant overhead amortises
        (:data:`repro.core.channel_backend.AUTO_MIN_DRAWS`, read at call
        time so a test can lower it to force the sweep).  Output is
        bit-identical either way."""
        return (
            rng_supports_bulk(self.rng)
            and draws_hint >= channel_backend.AUTO_MIN_DRAWS
        )

    def bulk_window(self, draws_hint: int):
        """Context manager around a run of transmissions expected to
        consume roughly ``draws_hint`` uniform variates.

        Yields the bulk source those transmissions draw from: an already
        open source over ``self.rng``, or a new one (sized
        ``draws_hint + 64``) when :meth:`_use_sweep` holds.  Otherwise it
        yields ``None`` and the transmissions run the reference loop.
        ``transmit_many``, ``transmit_pool`` and the archive's survey
        blocks open their windows here, so a nested call reuses the
        outer source and the state transplant happens once per window.
        """
        active = self._active_source
        if (active is not None and active.rng is self.rng) or self._use_sweep(
            draws_hint
        ):
            return self._bulk_source(draws_hint + 64)
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _bulk_source(self, hint: int | None = None):
        """Open a :class:`UniformBulkSource` over ``self.rng`` for the
        duration of a bulk transmission, re-entrantly: nested calls (e.g.
        ``transmit_pool`` -> ``transmit_many``) reuse the outer source so
        the state transplant happens once per pool, not once per cluster.
        """
        existing = self._active_source
        if existing is not None and existing.rng is self.rng:
            yield existing
            return
        source = UniformBulkSource(self.rng, hint)
        self._active_source = source
        try:
            yield source
        finally:
            self._active_source = None
            source.close()

    # ---------------------------------------------------------------- #
    # Reference-local caches
    # ---------------------------------------------------------------- #

    def _mask_for(self, reference: str) -> list[bool]:
        """``homopolymer_mask(reference)``, cached across the coverage
        copies of the same strand."""
        entry = self._mask_entry
        if entry is not None and entry[0] == reference:
            return entry[1]
        mask = homopolymer_mask_fast(reference)  # validated ACGT: never None
        self._mask_entry = (reference, mask)
        return mask

    def _reference_prep(self, reference: str) -> ReferencePrep:
        """Per-reference tables for the vectorised walk (exact thresholds,
        ladders, mask), cached across the coverage copies of the strand."""
        entry = self._prep_entry
        if entry is not None and entry.reference == reference:
            return entry
        length = len(reference)
        vector = self._vector_tables(length, self._tables(length))
        mask = (
            self._mask_for(reference)
            if self.model.homopolymer_factor != 1.0
            else None
        )
        prep = ReferencePrep(reference, vector, mask)
        self._prep_entry = prep
        return prep

    # ---------------------------------------------------------------- #
    # Reference transmit loop
    # ---------------------------------------------------------------- #

    def _transmit_python(self, reference: str) -> str:
        """The serial reference loop: one ``rng.random()`` per position."""
        model = self.model
        rng = self.rng
        length = len(reference)
        if length == 0:
            return ""
        tables = self._tables(length)
        mask = (
            self._mask_for(reference)
            if model.homopolymer_factor != 1.0
            else None
        )
        output: list[str] = []
        position = 0
        while position < length:
            base = reference[position]
            total, ladder = tables[base][position]
            roll = rng.random()
            if mask is not None and mask[position]:
                # Scaling every event probability by the homopolymer factor
                # is equivalent to shrinking the roll.
                factor = model.homopolymer_factor
                roll = roll / factor if factor > 0 else 2.0
            if roll >= total:
                output.append(base)
                position += 1
                continue
            event = None
            for threshold, candidate in ladder:
                if roll < threshold:
                    event = candidate
                    break
            if event is None:  # floating-point edge at the ladder top
                output.append(base)
                position += 1
                continue
            position = self._apply_event(event, reference, position, output, rng)
        return "".join(output)

    # ---------------------------------------------------------------- #
    # Event execution
    # ---------------------------------------------------------------- #

    def _apply_event(
        self,
        event: tuple,
        reference: str,
        position: int,
        output: list[str],
        rng,
    ) -> int:
        """Apply one channel event; returns the next reference position.

        ``rng`` may be any object with a ``random()`` method — the raw
        channel RNG on the reference loop, or the bulk source's scalar
        shim on the sweep (same variates, same order).
        """
        model = self.model
        base = reference[position]
        tag = event[0]
        if tag == "substitution":
            output.append(model.draw_substitution(base, rng))
            return position + 1
        if tag == "insertion":
            output.append(base)
            output.append(model.draw_insertion_base(rng))
            return position + 1
        if tag == "deletion":
            return position + 1
        if tag == "long_deletion":
            run_length = model.draw_long_deletion_length(rng)
            return position + run_length
        if tag == "second_order":
            error = event[1]
            if error.kind == "deletion":
                return position + 1
            if error.kind == "substitution":
                output.append(error.replacement)
                return position + 1
            # insertion: emit the base, then the inserted base after it.
            output.append(base)
            output.append(error.replacement)
            return position + 1
        if tag == "burst":
            return self._apply_burst(reference, position, output, rng)
        raise RuntimeError(f"unknown channel event {event!r}")  # pragma: no cover

    def _apply_burst(
        self, reference: str, position: int, output: list[str], rng
    ) -> int:
        """Nanopore burst: corrupt >= burst_min_length consecutive bases."""
        model = self.model
        run_length = model.burst_min_length
        while rng.random() < model.burst_continue:
            run_length += 1
        run_length = min(run_length, len(reference) - position)
        if rng.random() < model.burst_deletion_fraction:
            return position + run_length  # the whole run is deleted
        for offset in range(run_length):
            burst_base = reference[position + offset]
            output.append(model.draw_substitution(burst_base, rng))
        return position + run_length

    # ---------------------------------------------------------------- #
    # Ladder construction
    # ---------------------------------------------------------------- #

    def _tables(self, length: int) -> dict[str, list[_Ladder]]:
        """Cumulative event ladders for every (base, position), shared
        across all channels over the same model object via the
        model-keyed cache."""
        cache = _shared_model_cache(self.model)
        key = ("tables", length)
        cached = cache.get(key)
        if cached is not None:
            return cached
        tables = self._build_tables(length)
        cache[key] = tables
        return tables

    def _vector_tables(self, length: int, tables) -> VectorTables:
        """Vectorised-walk threshold tables, shared like the ladders."""
        cache = _shared_model_cache(self.model)
        key = ("vector", length)
        cached = cache.get(key)
        if cached is not None:
            return cached
        vector = VectorTables(self.model, tables, length)
        cache[key] = vector
        return vector

    def _build_tables(self, length: int) -> dict[str, list[_Ladder]]:
        model = self.model
        weights = model.spatial.weights(length)
        second_order_weights = [
            error.spatial.weights(length) for error in model.second_order_errors
        ]
        tables: dict[str, list[_Ladder]] = {base: [] for base in BASES}
        for position in range(length):
            weight = weights[position]
            for base in BASES:
                cumulative = 0.0
                ladder: list[tuple[float, tuple]] = []
                if model.burst_rate > 0:
                    cumulative += model.burst_rate * weight
                    ladder.append((cumulative, _BURST))
                for error, error_weights in zip(
                    model.second_order_errors, second_order_weights
                ):
                    if error.kind == "insertion" or error.base == base:
                        probability = error.rate * error_weights[position]
                        if probability > 0:
                            cumulative += probability
                            ladder.append(
                                (cumulative, ("second_order", error))
                            )
                if model.long_deletion_rate > 0:
                    cumulative += model.long_deletion_rate * weight
                    ladder.append((cumulative, _LONG_DELETION))
                for rate_table, event in (
                    (model.substitution_rate, _SUBSTITUTION),
                    (model.insertion_rate, _INSERTION),
                    (model.deletion_rate, _DELETION),
                ):
                    probability = rate_table[base] * weight
                    if probability > 0:
                        cumulative += probability
                        ladder.append((cumulative, event))
                tables[base].append((cumulative, ladder))
        return tables
