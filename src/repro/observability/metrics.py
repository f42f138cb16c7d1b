"""Named counters, gauges, and fixed-bucket histograms.

The registry is deliberately small: three metric kinds, labels as sorted
``(key, value)`` tuples, and exporters for the two formats a benchmark
session actually consumes — Prometheus text (for scraping / eyeballing)
and JSON (for the bench-trajectory records and CI assertions).

Every metric is **mergeable**: counters and histograms add, gauges keep
their maximum.  That is the property the cross-process aggregation in
:func:`repro.parallel.parallel_stream` relies on — workers snapshot their
local registry, the parent merges the snapshots, and the merged totals
are identical to a serial run's because the same instrumented code ran
the same number of times, just in different processes.

Module-level :func:`counter` / :func:`gauge` / :func:`histogram` helpers
read the process-wide registry and return shared no-op objects when
metrics are disabled, so instrumented hot paths cost one attribute check
when nothing is collecting.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections.abc import Sequence

from repro.observability import _state

#: Exported-schema version for the JSON exporter.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-flavoured: spans use
#: these for per-stage latency).  An implicit +Inf bucket is always last.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) label tuple used as a dict key."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merges keep the maximum observed."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    A value lands in the first bucket whose upper bound is ``>= value``
    (boundary values belong to the bucket they name); values above every
    bound land in the implicit +Inf bucket.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, name: str, labels: LabelKey, buckets: Sequence[float]
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts
        (see :func:`histogram_quantile`)."""
        return histogram_quantile(self.bounds, self.bucket_counts, q)


def histogram_quantile(
    bounds: Sequence[float], bucket_counts: Sequence[int], q: float
) -> float:
    """Estimate a quantile from fixed-bucket counts by linear interpolation.

    Prometheus ``histogram_quantile`` semantics: observations are assumed
    uniformly distributed inside each bucket, the first bucket starts at
    0 (these histograms hold non-negative durations), and a quantile that
    lands in the implicit +Inf bucket reports the highest finite bound —
    the estimate cannot exceed what the buckets can resolve.

    Args:
        bounds: sorted finite bucket upper bounds.
        bucket_counts: per-bucket counts, ``len(bounds) + 1`` entries
            (the last is the +Inf bucket).
        q: the quantile in ``[0, 1]`` (clamped).

    Returns:
        The estimated quantile, or ``nan`` for an empty histogram.
    """
    total = sum(bucket_counts)
    if total == 0:
        return float("nan")
    q = min(max(q, 0.0), 1.0)
    target = q * total
    cumulative = 0
    for index, count in enumerate(bucket_counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            if index >= len(bounds):  # +Inf bucket: clamp to last bound
                return float(bounds[-1])
            lower = float(bounds[index - 1]) if index > 0 else 0.0
            upper = float(bounds[index])
            fraction = (target - cumulative) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += count
    return float(bounds[-1])


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instances returned by the module helpers when metrics
#: are disabled — the zero-cost-by-default path.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """All metrics of one process (or one worker task)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -------------------------------------------------------------- #
    # Instrument lookup
    # -------------------------------------------------------------- #

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return instrument

    # -------------------------------------------------------------- #
    # Snapshots and merging (cross-process aggregation)
    # -------------------------------------------------------------- #

    def snapshot(self) -> dict:
        """A plain-data (picklable) copy of every metric, for shipping
        from a worker process back to the parent."""
        return {
            "counters": {
                key: counter.value for key, counter in self._counters.items()
            },
            "gauges": {key: gauge.value for key, gauge in self._gauges.items()},
            "histograms": {
                key: {
                    "bounds": histogram.bounds,
                    "bucket_counts": list(histogram.bucket_counts),
                    "sum": histogram.sum,
                    "count": histogram.count,
                }
                for key, histogram in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges keep the maximum.  Merging
        is associative and commutative, so the merged totals are
        independent of worker count and completion order.
        """
        for (name, labels), value in snapshot.get("counters", {}).items():
            key = (name, labels)
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, labels)
            instrument.value += value
        for (name, labels), value in snapshot.get("gauges", {}).items():
            key = (name, labels)
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, labels)
            instrument.value = max(instrument.value, value)
        for (name, labels), data in snapshot.get("histograms", {}).items():
            key = (name, labels)
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    name, labels, data["bounds"]
                )
            if instrument.bounds != tuple(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ across processes"
                )
            for index, count in enumerate(data["bucket_counts"]):
                instrument.bucket_counts[index] += count
            instrument.sum += data["sum"]
            instrument.count += data["count"]

    # -------------------------------------------------------------- #
    # Exporters
    # -------------------------------------------------------------- #

    def to_json(self) -> dict:
        """A JSON-serialisable structure (``--metrics-out file.json``)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": [
                {
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "value": counter.value,
                }
                for counter in self._counters.values()
            ],
            "gauges": [
                {
                    "name": gauge.name,
                    "labels": dict(gauge.labels),
                    "value": gauge.value,
                }
                for gauge in self._gauges.values()
            ],
            "histograms": [
                {
                    "name": histogram.name,
                    "labels": dict(histogram.labels),
                    "bounds": list(histogram.bounds),
                    "bucket_counts": list(histogram.bucket_counts),
                    "sum": histogram.sum,
                    "count": histogram.count,
                }
                for histogram in self._histograms.values()
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format
        (``--metrics-out file.prom``)."""
        lines: list[str] = []
        for counter in sorted(
            self._counters.values(), key=lambda c: (c.name, c.labels)
        ):
            name = _prometheus_name(counter.name)
            lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{_prometheus_labels(counter.labels)} {counter.value}"
            )
        for gauge in sorted(
            self._gauges.values(), key=lambda g: (g.name, g.labels)
        ):
            name = _prometheus_name(gauge.name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(
                f"{name}{_prometheus_labels(gauge.labels)} {_format_float(gauge.value)}"
            )
        for histogram in sorted(
            self._histograms.values(), key=lambda h: (h.name, h.labels)
        ):
            name = _prometheus_name(histogram.name)
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(
                list(histogram.bounds) + [float("inf")],
                histogram.bucket_counts,
            ):
                cumulative += count
                le = "+Inf" if bound == float("inf") else _format_float(bound)
                lines.append(
                    f"{name}_bucket"
                    f"{_prometheus_labels(histogram.labels, le=le)} {cumulative}"
                )
            lines.append(
                f"{name}_sum{_prometheus_labels(histogram.labels)} "
                f"{_format_float(histogram.sum)}"
            )
            lines.append(
                f"{name}_count{_prometheus_labels(histogram.labels)} "
                f"{histogram.count}"
            )
        return "\n".join(lines) + "\n"


def _prometheus_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prometheus_labels(labels: LabelKey, le: str | None = None) -> str:
    pairs = list(labels)
    if le is not None:
        pairs = pairs + [("le", le)]
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prometheus_name(key)}="{_escape_label(value)}"'
        for key, value in pairs
    )
    return "{" + rendered + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_float(value: float) -> str:
    return repr(float(value)) if value != int(value) else str(int(value))


# ------------------------------------------------------------------ #
# Hot-path helpers (no-op when metrics are disabled)
# ------------------------------------------------------------------ #


def counter(name: str, **labels: object):
    """The named counter of the active registry, or a shared no-op."""
    registry = _state.registry
    if registry is None:
        return NULL_COUNTER
    return registry.counter(name, **labels)


def gauge(name: str, **labels: object):
    """The named gauge of the active registry, or a shared no-op."""
    registry = _state.registry
    if registry is None:
        return NULL_GAUGE
    return registry.gauge(name, **labels)


def histogram(name: str, buckets: Sequence[float] | None = None, **labels: object):
    """The named histogram of the active registry, or a shared no-op."""
    registry = _state.registry
    if registry is None:
        return NULL_HISTOGRAM
    return registry.histogram(name, buckets, **labels)
