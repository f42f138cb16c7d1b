"""Deterministic shard planning: which clusters a shard owns, and why.

A *shard* is a contiguous, order-preserving range of a run's clusters
(:func:`split_contiguous`) small enough to simulate, profile,
reconstruct, and score in memory.
Shards are the unit of memory, and only where that
matters do they act:

* streamed generation (:meth:`Simulator.iter_shards
  <repro.core.simulator.Simulator.iter_shards>`,
  :func:`~repro.data.nanopore.iter_nanopore_clusters`), where one shard
  at a time is held per worker and written to disk in original index
  order;
* :func:`~repro.sharding.runner.run_fullscale`, where each shard is
  one pool task whose summaries are folded in shard order as they
  arrive, and the sweep ``shards`` axis that calls it.

Per-shard results merge through the associative merge machinery
(:meth:`ErrorStatistics.merge
<repro.analysis.error_stats.ErrorStatistics.merge>`,
:func:`~repro.metrics.curves.merge_curves`,
:meth:`~repro.metrics.accuracy.AccuracyTally.merge`), so the shard count
never changes a merged result, only the peak memory and the unit of
parallel work.  In-memory stages (profile fits, reconstruction, curves,
clustering, archive reads) take no shard partition: a ``shards=`` they
are passed is accepted and ignored.

The default shard count resolves like the worker count does: the
``REPRO_SHARDS`` environment variable (default 1), overridden per
process by the CLI's ``--shards`` flag via :func:`set_default_shards`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

from repro.exceptions import ConfigError
from repro.observability import get_logger

Item = TypeVar("Item")

_logger = get_logger("repro.sharding")

#: Environment variable naming the default shard count (1 = unsharded).
SHARDS_ENV = "REPRO_SHARDS"

#: Process-wide override installed by the CLI's ``--shards`` flag.
_default_shards_override: int | None = None

#: Malformed or below-1 ``REPRO_SHARDS`` values already warned about (one
#: warning per distinct bad value, mirroring the worker-count resolver).
_warned_shard_values: set[str] = set()


def set_default_shards(shards: int | None) -> None:
    """Install (or clear, with ``None``) a process-wide shard default.

    The CLI's ``--shards`` flag calls this so every shardable stage a
    subcommand touches inherits the requested partitioning without
    threading the value through each call site.
    """
    global _default_shards_override
    if shards is not None and shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    _default_shards_override = shards


def default_shards() -> int:
    """The shard count used when a stage is called with ``shards=None``.

    Resolution order: :func:`set_default_shards` override, then the
    ``REPRO_SHARDS`` environment variable, then 1 (unsharded — exactly
    the pre-sharding code path).  A malformed or below-1 ``REPRO_SHARDS``
    logs one ``invalid_shards_env`` warning and falls back to 1.
    """
    if _default_shards_override is not None:
        return _default_shards_override
    raw = os.environ.get(SHARDS_ENV, "1")
    try:
        shards = int(raw)
    except ValueError:
        shards = 0
    if shards < 1:
        if raw not in _warned_shard_values:
            _warned_shard_values.add(raw)
            _logger.warning(
                "invalid_shards_env", variable=SHARDS_ENV, value=raw, fallback=1
            )
        return 1
    return shards


def resolve_shards(shards: int | None) -> int:
    """Normalise a ``shards`` argument: ``None`` -> default.

    Raises:
        ConfigError: when ``shards`` is below 1.
    """
    if shards is None:
        return default_shards()
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    return shards


def split_contiguous(items: Sequence[Item], n_shards: int) -> list[list[Item]]:
    """Partition ``items`` into ``n_shards`` near-equal contiguous runs.

    Concatenating the shards restores ``items`` exactly, so a stream
    written shard by shard keeps the original item order at any shard
    count.  Trailing shards are empty when there are fewer items than
    shards.

    Raises:
        ConfigError: when ``n_shards`` is below 1.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    size = -(-len(items) // n_shards)
    return [
        list(items[shard * size : (shard + 1) * size]) for shard in range(n_shards)
    ]


def batched(items: Iterable[Item], batch_size: int) -> Iterator[list[Item]]:
    """Yield ``items`` in lists of at most ``batch_size``, preserving
    order — the chunks of :func:`repro.parallel.stream_chunks`, and the
    batches of sources that must never be materialised whole (a
    270k-read evyat file, a generator of simulated clusters)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    batch: list[Item] = []
    for item in items:
        batch.append(item)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
