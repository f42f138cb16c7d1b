"""Span tracing, metrics, and structured logging for the whole pipeline.

The paper's evaluation is a sequence of expensive multi-stage runs
(simulate -> cluster -> reconstruct -> profile-fit); this package makes
every one of them observable without editing source:

* :func:`span` — nestable timed regions forming a trace tree, exportable
  as JSON-lines (``--trace``) or a flame-style rollup
  (:mod:`repro.observability.tracing`);
* :func:`counter` / :func:`gauge` / :func:`histogram` — a metrics
  registry with Prometheus-text and JSON exporters
  (:mod:`repro.observability.metrics`);
* :func:`get_logger` — structured key=value / JSON logging
  (:mod:`repro.observability.logs`);
* cross-process aggregation — workers spawned by
  :func:`repro.parallel.parallel_stream` collect into fresh local
  instances and the parent merges the snapshots, so a ``--workers 8``
  run is exactly as observable as a serial one.

Everything is **zero-cost by default**: until :func:`enable` installs a
tracer/registry, every instrumented call site hits a shared no-op object
behind a single attribute check (measured at well under 5% of the
``BENCH_throughput`` stage costs — see
``benchmarks/test_bench_throughput.py``).
"""

from __future__ import annotations

from repro.observability import _state
from repro.observability.logs import (
    StructuredLogger,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    histogram_quantile,
)
from repro.observability.tracing import Tracer, span

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "StructuredLogger",
    "Tracer",
    "begin_worker_collection",
    "collection_enabled",
    "configure_logging",
    "counter",
    "disable",
    "enable",
    "end_worker_collection",
    "gauge",
    "get_logger",
    "histogram",
    "histogram_quantile",
    "merge_worker_snapshot",
    "metrics_enabled",
    "registry",
    "reset_logging",
    "span",
    "tracer",
    "tracing_enabled",
]


def enable(tracing: bool = True, metrics: bool = True) -> None:
    """Install a fresh tracer and/or metrics registry process-wide.

    Either collector can be enabled independently (``--trace`` turns on
    tracing, ``--metrics-out`` turns on metrics).  Calling again replaces
    the collectors with empty ones.
    """
    _state.tracer = Tracer() if tracing else None
    _state.registry = MetricsRegistry() if metrics else None


def disable() -> None:
    """Return to the zero-cost no-op state."""
    _state.tracer = None
    _state.registry = None


def tracing_enabled() -> bool:
    return _state.tracer is not None


def metrics_enabled() -> bool:
    return _state.registry is not None


def collection_enabled() -> bool:
    """Whether any collector is active (the parallel_stream wrapping gate)."""
    return _state.tracer is not None or _state.registry is not None


def tracer() -> Tracer | None:
    """The active tracer, or None when tracing is disabled."""
    return _state.tracer


def registry() -> MetricsRegistry | None:
    """The active metrics registry, or None when metrics are disabled."""
    return _state.registry


# ------------------------------------------------------------------ #
# Cross-process aggregation (used by repro.parallel.parallel_stream)
# ------------------------------------------------------------------ #


def begin_worker_collection() -> None:
    """Start collecting into fresh worker-local instances.

    Called at the top of each instrumented pool task.  Whatever state the
    worker inherited (a fork copies the parent's collectors, counts and
    all) is set aside so the task's snapshot contains exactly the
    activity of this one task — merging it back cannot double count.
    """
    _state.worker_saved = (_state.tracer, _state.registry)
    _state.tracer = Tracer()
    _state.registry = MetricsRegistry()


def end_worker_collection() -> tuple[dict, list[dict]]:
    """Stop worker-local collection; returns ``(metrics_snapshot,
    span_records)`` — plain picklable data for the trip home."""
    worker_tracer, worker_registry = _state.tracer, _state.registry
    saved = _state.worker_saved
    _state.tracer, _state.registry = saved if saved is not None else (None, None)
    _state.worker_saved = None
    return worker_registry.snapshot(), worker_tracer.records


def merge_worker_snapshot(
    metrics_snapshot: dict, span_records: list[dict]
) -> None:
    """Fold one worker task's collected state into the parent collectors.

    Each side merges only if the corresponding collector is active in
    the parent (a ``--trace``-only run discards worker metrics and vice
    versa)."""
    if _state.registry is not None and metrics_snapshot:
        _state.registry.merge(metrics_snapshot)
    if _state.tracer is not None and span_records:
        _state.tracer.merge_worker_records(span_records)
