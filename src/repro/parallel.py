"""Deterministic chunked process-pool execution for per-cluster stages.

Every expensive stage of the harness — profile fitting, reconstruction,
curve accumulation, simulation — is embarrassingly parallel over
clusters, yet at the paper's 10,000-cluster scale a serial pass through
``IterativeReconstruction.reconstruct_pool`` alone costs minutes.  This
module provides the two primitives those stages share:

* :func:`parallel_map` — a chunked ``ProcessPoolExecutor`` map whose
  results are merged **in input order**, so any stage whose per-item work
  is deterministic produces bit-identical output at any worker count;
  inputs too small to amortise the pool (fewer than
  :data:`MIN_PARALLEL_ITEMS` items, one worker, one CPU, or a single
  chunk) run as a plain serial loop with identical results;
* :func:`parallel_stream` — its streaming counterpart for sources that
  must never be materialised whole (shards of a streamed dataset,
  batches of an evyat file): one pool serves the whole stream, at most
  ``workers`` items are in flight, and results are yielded in input
  order;
* worker-count resolution — the ``REPRO_WORKERS`` environment variable
  (``0`` means "all cores") overridden per-process by the CLI's
  ``--workers`` flag via :func:`set_default_workers`;
* :func:`derive_seed` — a stable per-cluster seed derivation for the
  opt-in parallel simulator path (``(seed, cluster_index)`` must map to
  the same RNG stream on every platform and at every worker count).

Stages that consume randomness in a serial order (the default simulator
path) are *not* routed through this module: their RNG draw order is a
compatibility contract, and they stay serial unless the caller opts into
per-cluster seeding.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from typing import Any, TypeVar

from repro import observability
from repro.observability import get_logger

Item = TypeVar("Item")
Result = TypeVar("Result")

_logger = get_logger("repro.parallel")

#: Malformed ``REPRO_WORKERS`` values already warned about — the
#: resolver runs on every stage call, and one structured warning per
#: distinct bad value is signal; one per call is noise.
_warned_worker_values: set[str] = set()

#: Environment variable naming the default worker count (0 = all cores).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable forcing the process pool even on single-core
#: machines (used by the test suite to exercise the pool path; the
#: normal serial fallback would otherwise hide pickling regressions on
#: one-CPU runners).
FORCE_ENV = "REPRO_FORCE_PARALLEL"

#: The minimum item count worth dispatching to the pool.  Below it, pool
#: startup plus pickling costs more than the work itself — the
#: ``BENCH_throughput`` sub-1× "speedups" were exactly this overhead
#: measured on inputs too small to parallelise.  Kept small: the
#: full-scale runner dispatches one item per shard (4 shards is a common
#: test configuration), and those items are coarse enough to amortise the
#: pool even at this count.  It gates :func:`parallel_map` only: a stream's
#: length is unknown up front, and its one pool is amortised over the
#: whole stream.
MIN_PARALLEL_ITEMS = 4

#: Process-wide override installed by the CLI's ``--workers`` flag.
_default_workers_override: int | None = None

#: Chunks per worker when no chunk size is given: small enough to
#: balance uneven per-cluster cost, large enough to amortise pickling.
_CHUNKS_PER_WORKER = 4


def set_default_workers(workers: int | None) -> None:
    """Install (or clear, with ``None``) a process-wide worker default.

    The CLI's ``--workers`` flag calls this so every stage a subcommand
    touches inherits the requested parallelism without threading the
    value through each call site.
    """
    global _default_workers_override
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    _default_workers_override = workers


def default_workers() -> int:
    """The worker count used when a stage is called with ``workers=None``.

    Resolution order: :func:`set_default_workers` override, then the
    ``REPRO_WORKERS`` environment variable, then 1 (serial).  A value of
    0 means "one worker per CPU core".
    """
    if _default_workers_override is not None:
        workers = _default_workers_override
    else:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            if raw not in _warned_worker_values:
                _warned_worker_values.add(raw)
                _logger.warning(
                    "invalid_workers_env",
                    variable=WORKERS_ENV,
                    value=raw,
                    fallback=1,
                )
            workers = 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` -> default, 0 -> all cores."""
    if workers is None:
        return default_workers()
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _force_parallel() -> bool:
    return os.environ.get(FORCE_ENV, "").lower() in {"1", "true", "yes", "on"}


def default_chunk_size(n_items: int, workers: int) -> int:
    """Chunk size splitting ``n_items`` into ~4 chunks per worker."""
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // (workers * _CHUNKS_PER_WORKER)))


def chunk_items(
    items: Sequence[Item], workers: int, chunk_size: int | None = None
) -> list[list[Item]]:
    """Split ``items`` into ordered chunks of ``chunk_size`` (derived from
    the worker count when not given).  Concatenating the chunks restores
    the input order exactly."""
    if chunk_size is None:
        chunk_size = default_chunk_size(len(items), workers)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def parallel_map(
    fn: Callable[[Item], Result],
    items: Sequence[Item],
    workers: int | None = None,
    chunk_size: int | None = None,
    force: bool = False,
) -> list[Result]:
    """Map ``fn`` over ``items`` on a process pool, preserving order.

    The result is ``[fn(item) for item in items]`` exactly — results are
    merged back in input order, so a deterministic ``fn`` makes the
    whole map deterministic at any worker count.

    Falls back to a plain serial loop — bit-identical results, zero pool
    or pickling overhead — whenever dispatching cannot pay for itself:
    the resolved worker count is <= 1, the machine has a single CPU, the
    input is smaller than :data:`MIN_PARALLEL_ITEMS`, or an explicit
    ``chunk_size`` covers the whole input in one chunk (a one-task pool
    is a serial loop plus process startup).  Pass ``force=True`` (or set
    ``REPRO_FORCE_PARALLEL=1``) to use the pool regardless — the test
    suite does this to exercise pickling on single-core runners.

    Args:
        fn: picklable callable applied to each item (a module-level
            function or a ``functools.partial`` over one).
        items: sequence of picklable work items.
        workers: worker processes; ``None`` uses :func:`default_workers`,
            0 uses all cores.
        chunk_size: items per pool task; defaults to ~4 chunks per worker.
        force: bypass the serial fast path entirely.
    """
    workers = _pool_workers(len(items), workers, chunk_size, force)
    if not workers:
        return [fn(item) for item in items]
    if not items:
        return []
    if chunk_size is None:
        chunk_size = default_chunk_size(len(items), workers)
    if observability.collection_enabled():
        # Pool tasks collect metrics/spans into fresh worker-local
        # instruments and ship the snapshots home with their results, so
        # a --workers N run is exactly as observable as a serial one.
        with ProcessPoolExecutor(max_workers=workers) as executor:
            packed = list(
                executor.map(
                    partial(_observed_call, fn), items, chunksize=chunk_size
                )
            )
        results: list[Result] = []
        for result, metrics_snapshot, span_records in packed:
            observability.merge_worker_snapshot(metrics_snapshot, span_records)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, items, chunksize=chunk_size))


def parallel_map_chunks(
    fn: Callable[[list[Item]], list[Result]],
    items: Sequence[Item],
    workers: int | None = None,
    chunk_size: int | None = None,
    force: bool = False,
) -> list[Result]:
    """:func:`parallel_map` for a function that maps a *list* of items to
    the list of their results (a batched kernel).

    Where :func:`parallel_map` would loop serially, ``fn`` is called once
    on every item; otherwise once per chunk of ``chunk_size`` items on
    the pool.  The concatenated result is the same either way when
    ``fn``'s result for an item does not depend on the other items.
    """
    pool_workers = _pool_workers(len(items), workers, chunk_size, force)
    if not pool_workers:
        return fn(list(items))
    chunks = chunk_items(items, pool_workers, chunk_size)
    per_chunk = parallel_map(fn, chunks, pool_workers, chunk_size=1, force=True)
    return [result for part in per_chunk for result in part]


def parallel_stream(
    fn: Callable[[Item], Result],
    items: Iterable[Item],
    workers: int | None = None,
) -> Iterator[Result]:
    """Yield ``fn(item)`` for each item of ``items``, in input order,
    computed on one process pool that serves the whole stream.

    ``items`` is read lazily, and at most ``workers`` items are ever
    submitted but not yet yielded: the next item is pulled and submitted
    only when the consumer asks for the next result.  Whatever the
    stream's length, memory therefore holds at most ``workers`` items and
    results at once, the one the consumer is working on included.

    Runs as a plain serial loop when the resolved worker count is <= 1
    or the machine has a single CPU; ``REPRO_FORCE_PARALLEL=1`` forces
    the pool regardless.  A worker's exception is raised at its item's
    position in the output.  Closing the generator early (``break``, an
    exception in the consumer, ``close()``) cancels the queued items and
    shuts the pool down.
    """
    workers = resolve_workers(workers)
    if _force_parallel():
        workers = max(workers, 2)
    elif workers <= 1 or (os.cpu_count() or 1) == 1:
        yield from map(fn, items)
        return
    observed = observability.collection_enabled()
    task = partial(_observed_call, fn) if observed else fn
    pending: deque[Future] = deque()
    executor = ProcessPoolExecutor(max_workers=workers)
    try:
        for item in items:
            pending.append(executor.submit(task, item))
            if len(pending) == workers:
                yield _take(pending.popleft(), observed)
        while pending:
            yield _take(pending.popleft(), observed)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _take(future: Future, observed: bool) -> Any:
    """A stream task's result, its worker snapshots merged home first."""
    if not observed:
        return future.result()
    result, metrics_snapshot, span_records = future.result()
    observability.merge_worker_snapshot(metrics_snapshot, span_records)
    return result


def _pool_workers(
    n_items: int, workers: int | None, chunk_size: int | None, force: bool
) -> int:
    """The pool size a map of ``n_items`` items runs on, or 0 when it
    runs as a serial loop (the conditions :func:`parallel_map` lists)."""
    workers = resolve_workers(workers)
    if force or _force_parallel():
        return max(workers, 2)
    if (
        workers <= 1
        or (os.cpu_count() or 1) == 1
        or n_items < MIN_PARALLEL_ITEMS
        or (chunk_size is not None and n_items <= chunk_size)
    ):
        return 0
    return workers


def _observed_call(
    fn: Callable[[Item], Result], item: Item
) -> tuple[Result, dict, list[dict]]:
    """Pool-task wrapper: run ``fn`` under worker-local collection and
    return its result together with the collected snapshots."""
    observability.begin_worker_collection()
    try:
        result = fn(item)
    finally:
        metrics_snapshot, span_records = observability.end_worker_collection()
    return result, metrics_snapshot, span_records


def derive_seed(base_seed: int, index: int) -> int:
    """A stable 64-bit seed for cluster ``index`` of a run seeded with
    ``base_seed``.

    Uses BLAKE2b rather than Python's ``hash`` (randomised per process)
    or a linear mix (adjacent indices would produce correlated
    ``random.Random`` states), so the per-cluster streams are
    independent, platform-stable, and identical at every worker count.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")
