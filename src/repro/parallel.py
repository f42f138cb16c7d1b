"""Deterministic process-pool execution for per-cluster stages.

Every expensive stage of the harness — profile fitting, reconstruction,
curve accumulation, simulation — is embarrassingly parallel over
clusters, yet at the paper's 10,000-cluster scale a serial pass through
``IterativeReconstruction.reconstruct_pool`` alone costs minutes.  One
primitive serves them all:

* :func:`parallel_stream` — the only place a process pool is started:
  ``fn`` over a lazily read stream of items on one pool, at most
  ``workers`` items in flight, results yielded **in input order**, so
  any stage whose per-item work is deterministic produces bit-identical
  output at any worker count;
* :func:`stream_chunks` — the in-memory stages' view of it: a list cut
  into ~4 ordered chunks per worker and streamed, or handed to ``fn``
  whole when the stream would run serially (one worker, one CPU) or the
  list is a single chunk — each stage folds the chunk results in order;
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
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from typing import Any, TypeVar

from repro import observability
from repro.observability import get_logger
from repro.sharding.plan import batched

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

#: Process-wide override installed by the CLI's ``--workers`` flag.
_default_workers_override: int | None = None

#: Chunks per worker of a :func:`stream_chunks` input: small enough to
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
    0 means "one worker per CPU core"; a malformed or negative
    ``REPRO_WORKERS`` logs one ``invalid_workers_env`` warning and runs
    serially.
    """
    if _default_workers_override is not None:
        workers = _default_workers_override
    else:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = -1
        if workers < 0:
            if raw not in _warned_worker_values:
                _warned_worker_values.add(raw)
                _logger.warning(
                    "invalid_workers_env",
                    variable=WORKERS_ENV,
                    value=raw,
                    fallback=1,
                )
            workers = 1
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` -> default, 0 -> all cores."""
    if workers is None:
        return default_workers()
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _stream_workers(workers: int | None) -> int:
    """The pool size a stream runs on; 1 means a plain serial loop (one
    worker or one CPU), unless ``REPRO_FORCE_PARALLEL`` forces a pool."""
    workers = resolve_workers(workers)
    if os.environ.get(FORCE_ENV, "").lower() in {"1", "true", "yes", "on"}:
        return max(workers, 2)
    if (os.cpu_count() or 1) == 1:
        return 1
    return workers


def default_chunk_size(n_items: int, workers: int) -> int:
    """Chunk size splitting ``n_items`` into ~4 chunks per worker."""
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // (workers * _CHUNKS_PER_WORKER)))


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
    workers = _stream_workers(workers)
    if workers <= 1:
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


def stream_chunks(
    fn: Callable[[list[Item]], Result],
    items: list[Item],
    workers: int | None = None,
) -> Iterator[Result]:
    """Yield ``fn(chunk)`` for ordered chunks of ``items`` — the fold
    every in-memory per-cluster stage is built on.

    When :func:`parallel_stream` would run serially (one resolved worker,
    one CPU) or ``items`` makes a single chunk, ``fn`` runs once, here,
    over the whole list.  Otherwise ``items`` is cut into
    :func:`default_chunk_size` items per chunk (about four chunks per
    worker) and the chunks run through :func:`parallel_stream`.  Always
    yields at least one result, so a stage can start its fold from the
    first; concatenating or merging the results in order reproduces the
    serial result whenever ``fn``'s result for an item does not depend
    on the other items of its chunk.
    """
    workers = _stream_workers(workers)
    chunk_size = default_chunk_size(len(items), workers)
    if workers <= 1 or chunk_size >= len(items):
        yield fn(items)
        return
    yield from parallel_stream(fn, batched(items, chunk_size), workers)


def _take(future: Future, observed: bool) -> Any:
    """A stream task's result, its worker snapshots merged home first."""
    if not observed:
        return future.result()
    result, metrics_snapshot, span_records = future.result()
    observability.merge_worker_snapshot(metrics_snapshot, span_records)
    return result


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
