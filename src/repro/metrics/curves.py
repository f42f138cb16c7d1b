"""Positional error curves: the Hamming and gestalt-aligned comparisons.

Every figure in the paper's evaluation is one of these two curves:

* the **Hamming comparison** (Fig. 3.2a, 3.4a/c, ...) marks every
  position at which a strand differs from its reference — indels
  propagate, so these curves show how errors *spread*;
* the **gestalt-aligned comparison** (Fig. 3.2b, 3.4b/d, ...) marks only
  the positions not covered by any gestalt matching block — the *sources*
  of misalignment.

Curves can be computed pre-reconstruction (every noisy copy against its
reference) or post-reconstruction (each estimate against its reference).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate

from repro.align.gestalt import matching_blocks_many
from repro.align.hamming import hamming_error_positions
from repro.core.strand import StrandPool
from repro.parallel import chunk_items, parallel_map, resolve_workers
from repro.sharding.plan import resolve_shards


def _accumulate(
    positions_per_pair: Sequence[list[int]], length: int
) -> list[int]:
    curve = [0] * length
    for positions in positions_per_pair:
        for position in positions:
            if position < length:
                curve[position] += 1
            else:
                curve.extend([0] * (position - length + 1))
                curve[position] += 1
                length = len(curve)
    return curve


def hamming_error_curve(
    references: Sequence[str], others: Sequence[str]
) -> list[int]:
    """Positional histogram of Hamming errors over all (reference, other)
    pairs.  The curve may be longer than the reference length when copies
    overshoot it (the paper's curves drop sharply after position 110)."""
    if len(references) != len(others):
        raise ValueError(f"{len(references)} references but {len(others)} strands")
    length = max((len(reference) for reference in references), default=0)
    return _accumulate(
        [
            hamming_error_positions(reference, other)
            for reference, other in zip(references, others)
        ],
        length,
    )


def gestalt_error_curve(
    references: Sequence[str], others: Sequence[str]
) -> list[int]:
    """Positional histogram of gestalt-aligned errors (misalignment
    sources) over all pairs.

    The pairs are decomposed in blocks
    (:func:`~repro.align.gestalt.matching_blocks_many`).  Each pair adds
    one to every position of its reference and takes one away from every
    position its matching blocks cover, tallied as interval endpoints of
    one difference array."""
    if len(references) != len(others):
        raise ValueError(f"{len(references)} references but {len(others)} strands")
    length = max((len(reference) for reference in references), default=0)
    difference = [0] * (length + 1)
    for reference, blocks in zip(
        references, matching_blocks_many(list(zip(references, others)))
    ):
        difference[0] += 1
        difference[len(reference)] -= 1
        for block in blocks:
            difference[block.first_start] -= 1
            difference[block.first_start + block.size] += 1
    return list(accumulate(difference[:length]))


def merge_curves(curves: Iterable[Sequence[int]]) -> list[int]:
    """Element-wise sum of positional curves of possibly differing
    lengths (shorter curves are zero-padded).  Curve accumulation is
    additive, so merging per-chunk curves reproduces the serial curve
    exactly."""
    merged: list[int] = []
    for curve in curves:
        if len(curve) > len(merged):
            merged.extend([0] * (len(curve) - len(merged)))
        for position, value in enumerate(curve):
            merged[position] += value
    return merged


def _curves_for_pairs(
    pairs: Sequence[tuple[str, str]],
) -> tuple[list[int], list[int]]:
    """Worker task for the parallel curve passes: both curves over a
    chunk of (reference, other) pairs."""
    references = [pair[0] for pair in pairs]
    others = [pair[1] for pair in pairs]
    return (
        hamming_error_curve(references, others),
        gestalt_error_curve(references, others),
    )


def _paired_curves(
    pairs: list[tuple[str, str]],
    workers: int | None,
    chunk_size: int | None,
    reference_length: int,
    shards: int | None = None,
) -> tuple[list[int], list[int]]:
    """Both curves over (reference, other) pairs, chunked over a process
    pool when ``workers > 1``; results are merged in order and padded to
    the full reference length, matching the serial pass bit for bit.
    With ``shards > 1`` the pairs are partitioned into that many
    contiguous chunks instead (the sharded pipeline's unit of work) —
    curve merging is element-wise addition, so any partition produces
    the identical curve."""
    effective_workers = resolve_workers(workers)
    n_shards = resolve_shards(shards)
    if n_shards > 1 and pairs:
        shard_size = -(-len(pairs) // n_shards)
        chunks = [
            pairs[start : start + shard_size]
            for start in range(0, len(pairs), shard_size)
        ]
        per_chunk = parallel_map(
            _curves_for_pairs, chunks, workers=effective_workers, chunk_size=1
        )
        hamming = merge_curves(chunk[0] for chunk in per_chunk)
        gestalt = merge_curves(chunk[1] for chunk in per_chunk)
    elif effective_workers <= 1 or len(pairs) < 2:
        hamming, gestalt = _curves_for_pairs(pairs)
    else:
        chunks = chunk_items(pairs, effective_workers, chunk_size)
        per_chunk = parallel_map(
            _curves_for_pairs, chunks, workers=effective_workers, chunk_size=1
        )
        hamming = merge_curves(chunk[0] for chunk in per_chunk)
        gestalt = merge_curves(chunk[1] for chunk in per_chunk)
    # A chunk containing only short references yields a short curve; the
    # serial curve is always at least the longest reference.
    for curve in (hamming, gestalt):
        if len(curve) < reference_length:
            curve.extend([0] * (reference_length - len(curve)))
    return hamming, gestalt


def pre_reconstruction_curves(
    pool: StrandPool,
    max_copies_per_cluster: int | None = None,
    workers: int | None = None,
    chunk_size: int | None = None,
    shards: int | None = None,
) -> tuple[list[int], list[int]]:
    """(Hamming, gestalt) curves of raw noisy copies against references —
    the paper's Fig. 3.2 analysis of dataset noise.  With ``workers > 1``
    the pairs are accumulated on a process pool, and with ``shards > 1``
    in per-shard chunks (both bit-identical merges)."""
    pairs: list[tuple[str, str]] = []
    for cluster in pool:
        cluster_copies = cluster.copies
        if max_copies_per_cluster is not None:
            cluster_copies = cluster_copies[:max_copies_per_cluster]
        for copy in cluster_copies:
            pairs.append((cluster.reference, copy))
    reference_length = max(
        (len(cluster.reference) for cluster in pool if cluster.copies), default=0
    )
    return _paired_curves(pairs, workers, chunk_size, reference_length, shards)


def post_reconstruction_curves(
    pool: StrandPool,
    estimates: Sequence[str],
    workers: int | None = None,
    chunk_size: int | None = None,
    shards: int | None = None,
) -> tuple[list[int], list[int]]:
    """(Hamming, gestalt) curves of reconstruction estimates against
    references — the paper's Fig. 3.4/3.5/3.7/3.10 analyses.  With
    ``workers > 1`` the pairs are accumulated on a process pool, and
    with ``shards > 1`` in per-shard chunks (both bit-identical
    merges)."""
    references = pool.references
    if len(references) != len(estimates):
        raise ValueError(
            f"{len(references)} references but {len(estimates)} estimates"
        )
    pairs = list(zip(references, estimates))
    reference_length = max((len(reference) for reference in references), default=0)
    return _paired_curves(pairs, workers, chunk_size, reference_length, shards)


def curve_summary(curve: Sequence[int], bins: int = 11) -> list[int]:
    """Downsample a positional curve into ``bins`` coarse bins (for compact
    textual display of figure series)."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not curve:
        return [0] * bins
    # A curve shorter than the bin count would otherwise scatter its
    # positions across non-adjacent bins (a length-2 curve with 11 bins
    # lands in bins 0 and 5); clamp the effective bin count to the curve
    # length so short curves fill the leading bins contiguously.
    effective_bins = min(bins, len(curve))
    summary = [0] * bins
    for position, value in enumerate(curve):
        bin_index = min(position * effective_bins // len(curve), effective_bins - 1)
        summary[bin_index] += value
    return summary
