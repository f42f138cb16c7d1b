"""An end-to-end DNA archival store (Fig. 1.1's full pipeline).

:class:`DNAArchive` composes every subsystem in this repository into the
write-store-read loop of Section 1.1:

1. **encode** — file bytes are chunked into per-strand payloads; an outer
   Reed-Solomon code across strands adds parity strands (logical
   redundancy); each strand gets a primer, an index, and a CRC
   (:mod:`repro.pipeline.synthesis`);
2. **synthesise/store** — strands join the pool; optional storage decay
   loses molecules over archival years;
3. **retrieve** — PCR selects and amplifies the file's primer; the
   sequencing channel (any :class:`~repro.core.errors.ErrorModel`) draws
   noisy reads at a chosen coverage, optionally faulted by a
   :class:`~repro.robustness.FaultInjector`;
4. **cluster + reconstruct** — reads are grouped (pseudo or greedy
   clustering) and a trace-reconstruction algorithm produces one strand
   estimate per cluster;
5. **decode** — estimates are parsed (CRC failures become erasures),
   reassembled by index, and the outer RS code corrects erasures and
   corruptions to return the original bytes.

Two read entry points:

* :meth:`DNAArchive.read` — one attempt, raises :class:`ArchiveError` on
  unrecoverable corruption (the strict mode experiments use);
* :meth:`DNAArchive.retrieve` — the resilient loop: on decode failure it
  *re-sequences* at escalating coverage per a
  :class:`~repro.robustness.RetryPolicy`, optionally switching to a
  fallback reconstructor, and when retries are exhausted returns a
  structured :class:`~repro.robustness.RecoveryResult` (recovered bytes,
  erasure map, per-strand failure reasons) instead of raising.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

from repro.core.channel import Channel
from repro.core.coverage import ConstantCoverage, CoverageModel
from repro.core.errors import ErrorModel
from repro.exceptions import ConfigError, EncodeError, RetrievalError
from repro.observability import counter, get_logger, span
from repro.pipeline.decay import StorageDecay
from repro.pipeline.encoding import Basic2BitCodec, Codec
from repro.pipeline.primers import generate_primer_library
from repro.pipeline.reed_solomon import ReedSolomon, ReedSolomonError
from repro.pipeline.synthesis import StrandLayout, StrandParseError
from repro.reconstruct.base import BLOCK_CLUSTERS, Reconstructor
from repro.reconstruct.bma import BMALookahead
from repro.robustness.faults import FaultInjector
from repro.robustness.retry import (
    AttemptReport,
    RecoveryResult,
    RetryPolicy,
    ranges_from_flags,
)


_logger = get_logger("repro.pipeline.storage")


class ArchiveError(RetrievalError):
    """Raised when a file cannot be recovered from the pool."""


def _survey_strands(
    items: list[tuple[int, str | None, int]],
    draw_reads: Callable[[int, str, int], list[str]],
    reconstructor: Reconstructor,
    strand_length: int,
    block_window: Callable[[int], AbstractContextManager] | None = None,
) -> list[tuple[str | None, str | None, int]]:
    """Sequence and reconstruct ``(position, strand, coverage)`` items.

    Items go in blocks of
    :data:`~repro.reconstruct.base.BLOCK_CLUSTERS`: ``draw_reads`` runs for
    every strand of a block in item order, then one
    :meth:`~repro.reconstruct.base.Reconstructor.reconstruct_many` call
    reconstructs the block.  Reconstruction draws no randomness, so
    every RNG stream sees the same draws as a strand-by-strand loop.
    ``block_window``, if given, is entered around each block's
    ``draw_reads`` calls with the block's expected draw count (bases
    times copies over its live strands) and left before reconstruction;
    :meth:`DNAArchive._survey` passes :meth:`Channel.bulk_window` so a block's
    reads come from one bulk source.
    Returns ``(estimate, failure_reason, n_reads)`` per item; exactly one
    of estimate/failure is set.
    """
    results: list[tuple[str | None, str | None, int]] = []
    for start in range(0, len(items), BLOCK_CLUSTERS):
        block = items[start : start + BLOCK_CLUSTERS]
        outcomes: list[tuple[list[str], str | None]] = []
        block_draws = sum(len(strand) * copies for _, strand, copies in block if strand)
        with block_window(block_draws) if block_window else nullcontext():
            for position, strand, n_copies in block:
                if strand is None:
                    outcomes.append(([], "strand lost before sequencing (decay)"))
                elif n_copies == 0:
                    outcomes.append(([], "zero sequencing coverage drawn"))
                else:
                    reads = draw_reads(position, strand, n_copies)
                    failure = None if reads else "cluster dropped by fault injection"
                    outcomes.append((reads, failure))
        sequenced = [reads for reads, failure in outcomes if failure is None]
        with span("reconstruct", algorithm=reconstructor.name, clusters=len(sequenced)):
            counter("reconstruct.clusters", algorithm=reconstructor.name).inc(
                len(sequenced)
            )
            estimates = iter(reconstructor.reconstruct_many(sequenced, strand_length))
        for reads, failure in outcomes:
            estimate = next(estimates) if failure is None else None
            if failure is None and not estimate:
                estimate, failure = None, "reconstruction produced no estimate"
            results.append((estimate, failure, len(reads)))
    return results


@dataclass
class StoredFile:
    """Bookkeeping for one written file."""

    key: str
    layout: StrandLayout
    data_length: int
    n_data_strands: int
    n_total_strands: int
    strands: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RetrievalReport:
    """Diagnostics from one read-back."""

    data: bytes
    n_reads: int
    n_clusters_used: int
    n_erasures: int
    n_corrected_errors: int


@dataclass
class _Survey:
    """What one sequencing pass recovered, per strand index."""

    payload_by_index: dict[int, bytes]
    failures: dict[int, str]
    n_reads: int
    n_clusters_used: int


@dataclass
class _Decoded:
    """One Reed-Solomon decode of a file's strands (padded data)."""

    data: bytes
    #: Whether each byte of ``data`` is trustworthy.
    recovered_flags: list[bool]
    n_erasures: int
    n_corrected: int
    #: The first group or column over the RS budget; ``None`` if exact.
    failure: str | None


class DNAArchive:
    """A key-value DNA archival store.

    Args:
        codec: payload codec (defaults to the 2-bit codec).
        payload_bytes: payload bytes per strand.
        rs_group_data: data strands per Reed-Solomon group (k).
        rs_group_parity: parity strands per group (n - k); the archive
            survives up to that many strand erasures per group, or half
            as many silent corruptions.
        seed: seed for primer design and retrieval randomness.
    """

    def __init__(
        self,
        codec: Codec | None = None,
        payload_bytes: int = 16,
        rs_group_data: int = 32,
        rs_group_parity: int = 8,
        seed: int | None = 0,
    ) -> None:
        if rs_group_data < 1 or rs_group_data + rs_group_parity > 255:
            raise ConfigError(
                "rs_group_data must be >= 1 and group size <= 255, got "
                f"{rs_group_data}+{rs_group_parity}"
            )
        self.codec = codec if codec is not None else Basic2BitCodec()
        self.payload_bytes = payload_bytes
        self.rs_group_data = rs_group_data
        self.rs_group_parity = rs_group_parity
        self._reed_solomon = ReedSolomon(rs_group_parity)
        self.rng = random.Random(seed)
        self._primer_pool: list[str] = []
        self.files: dict[str, StoredFile] = {}

    # ---------------------------------------------------------------- #
    # Write path
    # ---------------------------------------------------------------- #

    def write(self, key: str, data: bytes) -> StoredFile:
        """Encode ``data`` into strands under ``key`` and store them.

        Raises:
            EncodeError: for duplicate keys or empty data.
        """
        if key in self.files:
            raise EncodeError(f"key {key!r} already stored")
        if not data:
            raise EncodeError("cannot store an empty file")
        primer = self._next_primer()
        layout = StrandLayout(primer, self.codec, self.payload_bytes)

        chunks = self._chunk(data)
        strands: list[str] = []
        index = 0
        for group_start in range(0, len(chunks), self.rs_group_data):
            group = chunks[group_start : group_start + self.rs_group_data]
            for chunk in self._add_parity(group):
                strands.append(layout.build(index, chunk))
                index += 1
        stored = StoredFile(
            key=key,
            layout=layout,
            data_length=len(data),
            n_data_strands=len(chunks),
            n_total_strands=len(strands),
            strands=strands,
        )
        self.files[key] = stored
        return stored

    def _chunk(self, data: bytes) -> list[bytes]:
        chunks = []
        for start in range(0, len(data), self.payload_bytes):
            chunk = data[start : start + self.payload_bytes]
            if len(chunk) < self.payload_bytes:
                chunk = chunk + bytes(self.payload_bytes - len(chunk))
            chunks.append(chunk)
        return chunks

    def _add_parity(self, group: list[bytes]) -> list[bytes]:
        """RS-encode each byte column across the group's strands."""
        columns = []
        for byte_position in range(self.payload_bytes):
            column = bytes(chunk[byte_position] for chunk in group)
            columns.append(self._reed_solomon.encode(column))
        n_total = len(group) + self.rs_group_parity
        return [
            bytes(columns[byte_position][strand_position]
                  for byte_position in range(self.payload_bytes))
            for strand_position in range(n_total)
        ]

    def _next_primer(self) -> str:
        if not self._primer_pool:
            self._primer_pool = generate_primer_library(
                count=8, rng=self.rng, min_distance=8
            )
        return self._primer_pool.pop()

    # ---------------------------------------------------------------- #
    # Read path
    # ---------------------------------------------------------------- #

    def all_strands(self) -> list[str]:
        """Every physical strand in the pool (all files mixed)."""
        strands: list[str] = []
        for stored in self.files.values():
            strands.extend(stored.strands)
        return strands

    def _aged_strands(
        self,
        stored: StoredFile,
        decay: StorageDecay | None,
        storage_years: float,
    ) -> list[str | None]:
        strands: list[str | None] = list(stored.strands)
        if decay is not None and storage_years > 0:
            strands = decay.age_pool(stored.strands, storage_years)
        return strands

    def _survey(
        self,
        stored: StoredFile,
        strands: list[str | None],
        channel_model: ErrorModel | None,
        coverages: list[int],
        reconstructor: Reconstructor,
        faults: FaultInjector | None,
    ) -> _Survey:
        """One sequencing pass: noisy reads per surviving strand
        (pseudo-clustered; the paper's evaluation setting, Section 3.1),
        reconstructed and parsed into per-index payloads.

        Reads come from the archive's serial RNG, strand by strand in
        pool order, through one channel whose bulk window spans each
        survey block; faults, if any, apply to each strand's reads as
        they are drawn.  The draw stream is the strand-by-strand one:
        coverages were drawn before the survey, the fault injector has
        its own RNG, reconstruction draws nothing, and closing a window
        advances ``self.rng`` by exactly the variates consumed.
        """
        channel = None if channel_model is None else Channel(channel_model, self.rng)

        def draw_reads(position: int, strand: str, n_copies: int) -> list[str]:
            if channel is None:
                reads = [strand] * n_copies
            else:
                reads = channel.transmit_many(strand, n_copies)
            if faults is not None:
                reads = faults.inject_reads(reads)
            return reads

        outcomes = _survey_strands(
            list(zip(range(len(strands)), strands, coverages)),
            draw_reads,
            reconstructor,
            stored.layout.strand_length(),
            channel.bulk_window if channel is not None else None,
        )
        return self._parse_survey(stored, outcomes)

    @staticmethod
    def _parse_survey(
        stored: StoredFile,
        outcomes: list[tuple[str | None, str | None, int]],
    ) -> _Survey:
        """Parse per-position ``(estimate, failure, n_reads)`` outcomes
        into per-index payloads.

        Every strand index that yields no payload gets a failure reason,
        so partial-recovery results can name *why* each strand is gone.
        """
        payload_by_index: dict[int, bytes] = {}
        failures: dict[int, str] = {}
        n_reads = 0
        n_clusters_used = 0
        parse_failures: dict[int, str] = {}
        for position, (estimate, failure, strand_reads) in enumerate(outcomes):
            n_reads += strand_reads
            if strand_reads:
                n_clusters_used += 1
            if failure is not None:
                failures[position] = failure
                continue
            try:
                index, payload = stored.layout.parse(estimate)
            except StrandParseError as error:
                failures[position] = f"parse failed: {error}"
                continue
            if 0 <= index < stored.n_total_strands:
                payload_by_index.setdefault(index, payload)
            else:
                failures[position] = f"parsed index {index} out of range"
        # A strand whose own cluster failed may still have been recovered
        # under its index via another cluster (chimeras, duplicates) —
        # failure reasons apply only to indices that stayed missing.
        # Conversely a cluster that parsed fine can land on a wrong index;
        # mark indices that never materialised.
        for index in range(stored.n_total_strands):
            if index in payload_by_index:
                failures.pop(index, None)
            elif index not in failures:
                parse_failures[index] = "no read parsed to this index"
        failures.update(parse_failures)
        return _Survey(payload_by_index, failures, n_reads, n_clusters_used)

    def read(
        self,
        key: str,
        channel_model: ErrorModel | None = None,
        coverage: CoverageModel | int = 8,
        reconstructor: Reconstructor | None = None,
        decay: StorageDecay | None = None,
        storage_years: float = 0.0,
        faults: FaultInjector | None = None,
        shards: int | None = None,
        workers: int | None = None,
    ) -> RetrievalReport:
        """Retrieve a file through the full noisy pipeline (one attempt).

        Args:
            key: the file to retrieve.
            channel_model: sequencing-channel error model (None = a
                noiseless channel; pass a fitted Nanopore model for
                realism).
            coverage: reads per strand (int or a coverage model).
            reconstructor: trace-reconstruction algorithm (default: BMA).
            decay: optional storage-decay model applied before reading.
            storage_years: archival time for the decay model.
            faults: optional fault injector applied to the sequenced
                reads (dropped clusters, truncation, contamination, ...).
            shards, workers: accepted for call-site compatibility and
                ignored.  A read is one serial sequencing pass over the
                pool, so neither they nor ``REPRO_SHARDS`` change the
                result or the archive's RNG state.

        Raises:
            KeyError: unknown key.
            ArchiveError: unrecoverable corruption (RS budget exceeded).
                Use :meth:`retrieve` for retry escalation and graceful
                partial recovery instead.
        """
        stored = self.files[key]
        strands = self._aged_strands(stored, decay, storage_years)
        coverage_model = (
            coverage
            if isinstance(coverage, CoverageModel)
            else ConstantCoverage(coverage)
        )
        reconstructor = reconstructor or BMALookahead()
        coverages = coverage_model.draw(len(strands), self.rng)
        survey = self._survey(
            stored, strands, channel_model, coverages, reconstructor, faults
        )
        decoded = self._decode_groups(stored, survey.payload_by_index)
        if decoded.failure is not None:
            raise ArchiveError(decoded.failure)
        return RetrievalReport(
            data=decoded.data[: stored.data_length],
            n_reads=survey.n_reads,
            n_clusters_used=survey.n_clusters_used,
            n_erasures=decoded.n_erasures,
            n_corrected_errors=decoded.n_corrected,
        )

    def retrieve(
        self,
        key: str,
        channel_model: ErrorModel | None = None,
        coverage: int = 8,
        reconstructor: Reconstructor | None = None,
        decay: StorageDecay | None = None,
        storage_years: float = 0.0,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> RecoveryResult:
        """Resilient retrieval: retry escalation, then partial recovery.

        Each attempt re-sequences the (aged) pool at the coverage the
        :class:`~repro.robustness.RetryPolicy` prescribes and merges the
        newly parsed strands with everything earlier attempts recovered —
        re-sequencing only ever adds information.  A policy with
        ``deadline_s`` set stops escalating between attempts once the
        wall-clock budget is spent and salvages from what was already
        recovered.  If the Reed-Solomon
        decode still fails after the last attempt, the file is decoded
        *group by group and byte-column by byte-column*: columns the RS
        budget can correct are corrected, CRC-validated payload bytes of
        present strands are kept as-is, and only genuinely unrecoverable
        byte ranges are zero-filled and reported in the erasure map.

        Never raises on decode failure — the structured
        :class:`~repro.robustness.RecoveryResult` reports partial
        outcomes instead.

        Raises:
            KeyError: unknown key (a caller bug, not a channel failure).
            ConfigError: invalid retry policy or coverage.
        """
        if coverage < 1:
            raise ConfigError(f"coverage must be >= 1, got {coverage}")
        policy = retry if retry is not None else RetryPolicy()
        stored = self.files[key]
        primary = reconstructor or BMALookahead()
        strands = self._aged_strands(stored, decay, storage_years)

        started = time.monotonic()
        with span("retrieve", key=key, max_attempts=policy.max_attempts):
            payload_by_index: dict[int, bytes] = {}
            failures: dict[int, str] = {}
            attempts: list[AttemptReport] = []
            total_reads = 0
            for attempt in range(policy.max_attempts):
                if attempt > 0 and policy.over_deadline(
                    time.monotonic() - started
                ):
                    # Over the wall-clock budget: stop escalating and
                    # salvage from what earlier attempts recovered rather
                    # than burning the remaining attempts.
                    counter("retry.deadline_exceeded").inc()
                    _logger.warning(
                        "retrieve_deadline_exceeded",
                        key=key,
                        attempt=attempt,
                        deadline_s=policy.deadline_s,
                        elapsed_s=round(time.monotonic() - started, 3),
                    )
                    break
                attempt_coverage = policy.coverage_for_attempt(
                    coverage, attempt, len(strands)
                )
                algorithm = policy.reconstructor_for_attempt(primary, attempt)
                with span(
                    "retrieve.attempt",
                    attempt=attempt,
                    coverage=attempt_coverage,
                    reconstructor=algorithm.name,
                ) as attempt_span:
                    coverages = [attempt_coverage] * len(strands)
                    survey = self._survey(
                        stored, strands, channel_model, coverages, algorithm, faults
                    )
                    total_reads += survey.n_reads
                    for index, payload in survey.payload_by_index.items():
                        payload_by_index.setdefault(index, payload)
                    failures = {
                        index: reason
                        for index, reason in survey.failures.items()
                        if index not in payload_by_index
                    }
                    n_missing = stored.n_total_strands - len(payload_by_index)
                    if attempt_span is not None:
                        attempt_span.set(missing_strands=n_missing)
                    decoded = self._decode_groups(stored, payload_by_index)
                    if decoded.failure is not None:
                        counter("retry.attempts", outcome="decode_failure").inc()
                        if attempt_span is not None:
                            attempt_span.set(outcome="decode_failure")
                        _logger.warning(
                            "retrieve_attempt_failed",
                            key=key,
                            attempt=attempt,
                            coverage=attempt_coverage,
                            reconstructor=algorithm.name,
                            missing_strands=n_missing,
                            stage=ArchiveError.stage,
                            error=decoded.failure,
                        )
                        attempts.append(
                            AttemptReport(
                                attempt=attempt,
                                coverage=attempt_coverage,
                                n_reads=survey.n_reads,
                                n_parsed_strands=len(payload_by_index),
                                n_missing_strands=n_missing,
                                reconstructor=algorithm.name,
                                succeeded=False,
                                failure=decoded.failure,
                            )
                        )
                        continue
                    counter("retry.attempts", outcome="success").inc()
                    if attempt_span is not None:
                        attempt_span.set(outcome="success")
                    attempts.append(
                        AttemptReport(
                            attempt=attempt,
                            coverage=attempt_coverage,
                            n_reads=survey.n_reads,
                            n_parsed_strands=len(payload_by_index),
                            n_missing_strands=n_missing,
                            reconstructor=algorithm.name,
                            succeeded=True,
                        )
                    )
                return RecoveryResult(
                    key=key,
                    data=decoded.data[: stored.data_length],
                    complete=True,
                    data_length=stored.data_length,
                    recovered_bytes=stored.data_length,
                    erasure_map=(),
                    strand_failures={},
                    attempts=tuple(attempts),
                    n_erasures=decoded.n_erasures,
                    n_corrected_errors=decoded.n_corrected,
                    n_reads=total_reads,
                )

            # Retries exhausted (or the deadline fired): salvage whatever
            # the pool still supports.
            counter("retry.exhausted").inc()
            _logger.warning(
                "retrieve_retries_exhausted",
                key=key,
                attempts=len(attempts),
                missing_strands=stored.n_total_strands - len(payload_by_index),
            )
            # The last attempt decoded exactly these payloads (a deadline
            # stop adds none), so its salvage is what the pool supports.
            flags = decoded.recovered_flags[: stored.data_length]
            return RecoveryResult(
                key=key,
                data=decoded.data[: stored.data_length],
                complete=False,
                data_length=stored.data_length,
                recovered_bytes=sum(flags),
                erasure_map=ranges_from_flags(flags),
                strand_failures=failures,
                attempts=tuple(attempts),
                n_erasures=decoded.n_erasures,
                n_corrected_errors=decoded.n_corrected,
                n_reads=total_reads,
            )

    # ---------------------------------------------------------------- #
    # Decoding
    # ---------------------------------------------------------------- #

    def _iter_groups(self, stored: StoredFile):
        """Yield ``(first_index, k, group_indices)`` per RS group."""
        index = 0
        remaining_data = stored.n_data_strands
        while remaining_data > 0:
            k = min(self.rs_group_data, remaining_data)
            group_indices = list(
                range(index, index + k + self.rs_group_parity)
            )
            yield index, k, group_indices
            index += k + self.rs_group_parity
            remaining_data -= k

    def _decode_groups(
        self, stored: StoredFile, payload_by_index: dict[int, bytes]
    ) -> _Decoded:
        """Decode every Reed-Solomon group; never raises.

        Per group and byte column: if the RS budget holds, correct as
        usual; otherwise keep the CRC-validated payload bytes of present
        strands verbatim (a valid CRC makes them near-certainly correct)
        and mark the missing strands' bytes unrecovered.  The result's
        ``failure`` names the first group or column the budget could not
        cover (``None`` when the decode is exact), which :meth:`read`
        raises as an :class:`ArchiveError`.
        """
        data = bytearray()
        recovered_flags: list[bool] = []
        n_erasures = 0
        n_corrected = 0
        failure: str | None = None
        for index, k, group_indices in self._iter_groups(stored):
            erasure_rows = [
                row
                for row, strand_index in enumerate(group_indices)
                if strand_index not in payload_by_index
            ]
            n_erasures += len(erasure_rows)
            budget_holds = len(erasure_rows) <= self.rs_group_parity
            if not budget_holds and failure is None:
                failure = (
                    f"group at strand {index}: {len(erasure_rows)} erasures "
                    f"exceed {self.rs_group_parity} parity strands"
                )
            group_payloads = [
                payload_by_index.get(strand_index, bytes(self.payload_bytes))
                for strand_index in group_indices
            ]
            decoded_chunks = [bytearray() for _ in range(k)]
            chunk_flags = [[True] * self.payload_bytes for _ in range(k)]
            for byte_position in range(self.payload_bytes):
                column = bytes(
                    payload[byte_position] for payload in group_payloads
                )
                corrected: bytes | None = None
                if budget_holds:
                    try:
                        corrected = self._reed_solomon.decode(
                            column, erasure_positions=erasure_rows
                        )
                    except ReedSolomonError as error:
                        if failure is None:
                            failure = (
                                f"group at strand {index}, "
                                f"byte {byte_position}: {error}"
                            )
                if corrected is not None:
                    if corrected != column[: len(corrected)]:
                        n_corrected += 1
                    for row in range(k):
                        decoded_chunks[row].append(corrected[row])
                else:
                    # RS cannot help this column: present strands keep
                    # their CRC-validated bytes, missing ones are erased.
                    for row in range(k):
                        decoded_chunks[row].append(column[row])
                    for row in erasure_rows:
                        if row < k:
                            chunk_flags[row][byte_position] = False
            for row in range(k):
                data.extend(decoded_chunks[row])
                recovered_flags.extend(chunk_flags[row])
        return _Decoded(
            bytes(data), recovered_flags, n_erasures, n_corrected, failure
        )
