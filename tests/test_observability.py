"""Tests for span tracing, the metrics registry, structured logging,
cross-process aggregation, and the observability CLI surface."""

from __future__ import annotations

import io
import json
import math
import pickle
import random
import subprocess
from pathlib import Path

import pytest

from repro import observability
from repro.cli import main
from repro.core.coverage import ConstantCoverage
from repro.core.errors import ErrorModel
from repro.core.simulator import Simulator
from repro.data.io import write_pool
from repro.experiments import cache as context_cache
from repro.observability.bench import (
    BENCH_SCHEMA_VERSION,
    assert_stamped,
    git_sha,
    stamp_record,
)
from repro.observability.logs import configure_logging, get_logger
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.parallel import parallel_stream
from repro.reconstruct.iterative import IterativeReconstruction

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with collectors off and default logging."""
    observability.disable()
    observability.reset_logging()
    yield
    observability.disable()
    observability.reset_logging()


# ------------------------------------------------------------------ #
# Spans
# ------------------------------------------------------------------ #


def test_span_noop_when_disabled():
    with observability.span("anything", x=1) as live:
        assert live is None
    assert observability.tracer() is None


def test_span_nesting_and_attributes():
    observability.enable(tracing=True, metrics=False)
    with observability.span("outer", a=1):
        with observability.span("inner", b=2) as inner:
            inner.set(c=3)
    records = observability.tracer().records
    assert [record["name"] for record in records] == ["inner", "outer"]
    inner_record, outer_record = records
    assert inner_record["parent_id"] == outer_record["span_id"]
    assert outer_record["parent_id"] is None
    assert inner_record["attrs"] == {"b": 2, "c": 3}
    assert outer_record["attrs"] == {"a": 1}
    assert all(record["outcome"] == "ok" for record in records)
    assert all(record["duration_s"] >= 0 for record in records)


def test_span_records_error_outcome():
    observability.enable(tracing=True, metrics=False)
    with pytest.raises(ValueError):
        with observability.span("failing"):
            raise ValueError("boom")
    (record,) = observability.tracer().records
    assert record["outcome"] == "error"
    assert record["error"] == "ValueError"


def test_span_observes_latency_histogram():
    observability.enable(tracing=True, metrics=True)
    with observability.span("timed"):
        pass
    exported = observability.registry().to_json()
    (histogram,) = [
        h for h in exported["histograms"] if h["name"] == "span.seconds"
    ]
    assert histogram["labels"] == {"span": "timed"}
    assert histogram["count"] == 1


def test_flame_summary_groups_by_path():
    observability.enable(tracing=True, metrics=False)
    for _ in range(3):
        with observability.span("root"):
            with observability.span("leaf"):
                pass
    rows = observability.tracer().flame_summary()
    by_path = {row["path"]: row for row in rows}
    assert by_path["root"]["count"] == 3
    assert by_path["root/leaf"]["count"] == 3
    text = observability.tracer().flame_text()
    assert "root/leaf" in text


# ------------------------------------------------------------------ #
# Metrics
# ------------------------------------------------------------------ #


def test_counter_gauge_and_labels():
    registry = MetricsRegistry()
    registry.counter("hits", kind="a").inc()
    registry.counter("hits", kind="a").inc(2)
    registry.counter("hits", kind="b").inc()
    registry.gauge("depth").set(4.5)
    exported = registry.to_json()
    counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in exported["counters"]
    }
    assert counters[("hits", (("kind", "a"),))] == 3
    assert counters[("hits", (("kind", "b"),))] == 1
    assert exported["gauges"][0]["value"] == 4.5


def test_histogram_bucket_edges():
    histogram = Histogram("h", (), buckets=(1.0, 2.0, 5.0))
    # Boundary values land in the bucket they name (Prometheus le
    # semantics); values above every bound land in +Inf.
    histogram.observe(0.5)
    histogram.observe(1.0)
    histogram.observe(1.0000001)
    histogram.observe(5.0)
    histogram.observe(7.0)
    assert histogram.bucket_counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(14.5000001)


def test_histogram_single_bucket_and_empty_bounds():
    histogram = Histogram("h", (), buckets=(0.1,))
    histogram.observe(0.1)
    histogram.observe(0.2)
    assert histogram.bucket_counts == [1, 1]
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=())


def test_histogram_quantile_uniform_distribution():
    # 100 observations spread uniformly over (0, 10] in buckets of 1:
    # linear interpolation recovers the exact quantiles.
    histogram = Histogram("h", (), buckets=tuple(float(b) for b in range(1, 11)))
    for i in range(100):
        histogram.observe(i / 10.0 + 0.05)
    assert histogram.quantile(0.5) == pytest.approx(5.0, abs=0.1)
    assert histogram.quantile(0.95) == pytest.approx(9.5, abs=0.1)
    assert histogram.quantile(0.99) == pytest.approx(9.9, abs=0.1)


def test_histogram_quantile_skewed_distribution():
    histogram = Histogram("h", (), buckets=(1.0, 10.0, 100.0))
    for _ in range(90):
        histogram.observe(0.5)  # 90% fast
    for _ in range(10):
        histogram.observe(50.0)  # 10% slow tail
    # p50 interpolates inside the first bucket (assumed uniform over
    # [0, 1]): 50/90 of the way through.
    assert histogram.quantile(0.5) == pytest.approx(50 / 90, rel=1e-6)
    # p95 lands in the tail bucket (10, 100].
    assert 10.0 < histogram.quantile(0.95) <= 100.0


def test_histogram_quantile_edge_cases():
    from repro.observability.metrics import histogram_quantile

    # Empty histogram: no data, NaN.
    assert math.isnan(histogram_quantile((1.0, 2.0), (0, 0, 0), 0.5))
    # q clamped to [0, 1].
    histogram = Histogram("h", (), buckets=(1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(1.5)
    assert histogram.quantile(-1.0) == histogram.quantile(0.0)
    assert histogram.quantile(2.0) == histogram.quantile(1.0)
    # All mass in the +Inf bucket clamps to the highest finite bound.
    overflow = Histogram("h", (), buckets=(1.0, 2.0))
    overflow.observe(100.0)
    assert overflow.quantile(0.5) == 2.0
    assert overflow.quantile(0.99) == 2.0


def test_prometheus_export_cumulative_buckets():
    registry = MetricsRegistry()
    registry.counter("cache.hit").inc(2)
    registry.gauge("pool.size", stage="x").set(3)
    h = registry.histogram("lat", buckets=(1.0, 2.0), op="r")
    h.observe(0.5)
    h.observe(1.5)
    h.observe(9.0)
    text = registry.to_prometheus_text()
    assert "# TYPE cache_hit counter" in text
    assert "cache_hit 2" in text
    assert 'pool_size{stage="x"} 3' in text
    assert 'lat_bucket{op="r",le="1"} 1' in text
    assert 'lat_bucket{op="r",le="2"} 2' in text
    assert 'lat_bucket{op="r",le="+Inf"} 3' in text
    assert 'lat_count{op="r"} 3' in text


def test_json_export_round_trips():
    registry = MetricsRegistry()
    registry.counter("c", backend="auto").inc()
    parsed = json.loads(registry.to_json_text())
    assert parsed["schema_version"] == 1
    assert parsed["counters"] == [
        {"name": "c", "labels": {"backend": "auto"}, "value": 1}
    ]


def test_merge_adds_counters_and_histograms_max_gauges():
    parent = MetricsRegistry()
    parent.counter("n").inc(1)
    parent.gauge("g").set(5)
    parent.histogram("h", buckets=(1.0,)).observe(0.5)
    worker = MetricsRegistry()
    worker.counter("n").inc(2)
    worker.counter("only_worker").inc()
    worker.gauge("g").set(3)
    worker.histogram("h", buckets=(1.0,)).observe(2.0)
    parent.merge(worker.snapshot())
    assert parent.counter("n").value == 3
    assert parent.counter("only_worker").value == 1
    assert parent.gauge("g").value == 5
    merged = parent.histogram("h", buckets=(1.0,))
    assert merged.bucket_counts == [1, 1]
    assert merged.count == 2


def test_merge_rejects_mismatched_histogram_bounds():
    parent = MetricsRegistry()
    parent.histogram("h", buckets=(1.0,)).observe(0.5)
    worker = MetricsRegistry()
    worker.histogram("h", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        parent.merge(worker.snapshot())


# ------------------------------------------------------------------ #
# Structured logging
# ------------------------------------------------------------------ #


def test_logger_key_value_format_and_level_threshold():
    stream = io.StringIO()
    configure_logging(level="info", json_mode=False, stream=stream)
    logger = get_logger("repro.test")
    logger.debug("dropped")
    logger.info("kept", key="a b", n=3)
    output = stream.getvalue()
    assert "dropped" not in output
    assert 'event=kept key="a b" n=3' in output
    assert "logger=repro.test" in output


def test_logger_json_mode():
    stream = io.StringIO()
    configure_logging(level="debug", json_mode=True, stream=stream)
    get_logger("repro.test").warning("cache.miss", key="k1", path=Path("/x"))
    record = json.loads(stream.getvalue())
    assert record["level"] == "warning"
    assert record["event"] == "cache.miss"
    assert record["key"] == "k1"
    assert record["path"] == "/x"  # non-JSON types stringified


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure_logging(level="loud")


def test_malformed_workers_env_warns_once(monkeypatch):
    from repro import parallel

    stream = io.StringIO()
    configure_logging(level="warning", stream=stream)
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    monkeypatch.setattr(parallel, "_warned_worker_values", set())
    assert parallel.default_workers() == 1
    assert parallel.default_workers() == 1
    output = stream.getvalue()
    assert output.count("event=invalid_workers_env") == 1
    assert "value=banana" in output
    assert "fallback=1" in output


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_invalid_shards_env_warns_once(monkeypatch, value):
    from repro.sharding import plan

    stream = io.StringIO()
    configure_logging(level="warning", stream=stream)
    monkeypatch.setenv("REPRO_SHARDS", value)
    monkeypatch.setattr(plan, "_warned_shard_values", set())
    monkeypatch.setattr(plan, "_default_shards_override", None)
    assert plan.default_shards() == 1
    assert plan.default_shards() == 1
    output = stream.getvalue()
    assert output.count("event=invalid_shards_env") == 1
    assert f"value={value}" in output
    assert "fallback=1" in output


# ------------------------------------------------------------------ #
# Cross-process aggregation
# ------------------------------------------------------------------ #


def _observed_task(item: int) -> int:
    """Module-level pool task: emits one span, one counter, and one
    backend-labelled kernel call per item."""
    from repro.align.edit_distance import edit_distance

    with observability.span("task", item=item):
        observability.counter("task.items").inc()
        edit_distance("ACGTACGT", "ACGAACGT")  # -> kernel.calls{backend=...}
    return item * 2


def test_parallel_map_merges_worker_metrics_and_spans(monkeypatch):
    """A materialised pool run (a list in, a list out) merges worker
    counters, kernel calls and spans under the caller's open span."""
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    observability.enable(tracing=True, metrics=True)
    items = list(range(6))
    with observability.span("parent"):
        results = list(parallel_stream(_observed_task, items, workers=2))
    assert results == [item * 2 for item in items]
    assert observability.registry().counter("task.items").value == len(items)
    kernel_calls = [
        c
        for c in observability.registry().to_json()["counters"]
        if c["name"] == "kernel.calls"
    ]
    assert sum(c["value"] for c in kernel_calls) == len(items)
    assert all(c["labels"]["kernel"] == "edit" for c in kernel_calls)
    records = observability.tracer().records
    worker_records = [r for r in records if r.get("worker")]
    assert len(worker_records) == len(items)
    parent_record = next(r for r in records if r["name"] == "parent")
    assert {r["parent_id"] for r in worker_records} == {
        parent_record["span_id"]
    }
    assert len({r["span_id"] for r in records}) == len(records)
    assert sorted(r["attrs"]["item"] for r in worker_records) == items


def test_serial_and_parallel_counters_match(monkeypatch):
    observability.enable(tracing=False, metrics=True)
    items = list(range(5))
    serial_results = list(parallel_stream(_observed_task, iter(items), workers=1))
    serial_count = observability.registry().counter("task.items").value

    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    observability.enable(tracing=False, metrics=True)  # fresh registry
    parallel_results = list(parallel_stream(_observed_task, iter(items), workers=2))
    parallel_count = observability.registry().counter("task.items").value

    assert parallel_results == serial_results
    assert parallel_count == serial_count == len(items)


def test_parallel_stream_merges_worker_metrics_and_spans(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    observability.enable(tracing=True, metrics=True)
    items = list(range(6))
    with observability.span("parent"):
        results = list(parallel_stream(_observed_task, iter(items), workers=2))
    assert results == [item * 2 for item in items]
    assert observability.registry().counter("task.items").value == len(items)
    worker_records = [r for r in observability.tracer().records if r.get("worker")]
    assert [r["attrs"]["item"] for r in worker_records] == items


def _counter_totals() -> dict:
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in observability.registry().to_json()["counters"]
    }


def test_traced_iter_shards_counters_match_serial(monkeypatch):
    """A traced pooled stream merges the same counters as a serial one,
    and yields the same clusters."""
    references = [
        "".join(random.Random(index).choices("ACGT", k=50)) for index in range(24)
    ]

    def stream(workers: int) -> list:
        simulator = Simulator(
            ErrorModel.uniform(0.05),
            ConstantCoverage(3),
            seed=4,
            per_cluster_seeds=True,
        )
        return [
            cluster.copies
            for cluster in simulator.iter_shards(
                references, shards=6, workers=workers
            )
        ]

    observability.enable(tracing=True, metrics=True)
    serial = stream(workers=1)
    serial_counters = _counter_totals()

    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    observability.enable(tracing=True, metrics=True)
    pooled = stream(workers=2)
    pooled_counters = _counter_totals()

    assert pooled == serial
    assert pooled_counters == serial_counters
    assert serial_counters[("simulate.clusters", ())] == len(references)


def test_profile_fit_observability_matches_serial(monkeypatch, uniform_pool):
    """The merged kernel/stage counters of a --workers 2 profile fit equal
    the serial run's, and the fitted statistics are bit-identical."""
    from repro.core.profile import ErrorProfile

    observability.enable(tracing=False, metrics=True)
    serial = ErrorProfile.from_pool(uniform_pool, 4, None, 1)
    serial_counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in observability.registry().to_json()["counters"]
    }

    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    observability.enable(tracing=False, metrics=True)
    parallel = ErrorProfile.from_pool(uniform_pool, 4, None, 2)
    parallel_counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in observability.registry().to_json()["counters"]
    }

    assert parallel.statistics == serial.statistics
    assert parallel_counters == serial_counters
    assert serial_counters[("profile.clusters", ())] == len(uniform_pool)


def test_pipeline_output_identical_with_tracing_on():
    simulator_off = Simulator(
        ErrorModel.uniform(0.04), ConstantCoverage(4), seed=5
    )
    pool_off = simulator_off.simulate_random(10, 60)
    estimates_off = IterativeReconstruction().reconstruct_pool(pool_off, 60)

    observability.enable(tracing=True, metrics=True)
    simulator_on = Simulator(
        ErrorModel.uniform(0.04), ConstantCoverage(4), seed=5
    )
    pool_on = simulator_on.simulate_random(10, 60)
    estimates_on = IterativeReconstruction().reconstruct_pool(pool_on, 60)

    assert pool_on.references == pool_off.references
    assert [c.copies for c in pool_on] == [c.copies for c in pool_off]
    assert estimates_on == estimates_off
    assert observability.tracer().records  # and it actually traced


def test_traced_gestalt_curves_show_block_span_and_pair_count():
    """The block gestalt decomposition is one ``align.gestalt_many`` span
    per call, and its kernel counter counts the pairs that reach the run
    tables: neither side empty and the two not identical."""
    from repro.core.strand import StrandPool
    from repro.metrics.curves import post_reconstruction_curves

    references = ["ACGTACGTAC", "GGGTTTCCCA", "ACGTTGCA", "TTTTAAAACC", "CAGT"]
    estimates = ["ACGTACGTAC", "GGGTTCCCA", "", "TTTTAAAACC", "CAGTT"]
    pool = StrandPool.from_references(references)
    observability.enable(tracing=True, metrics=True)
    post_reconstruction_curves(pool, estimates, workers=1, shards=1)
    records = observability.tracer().records
    assert [r["name"] for r in records].count("align.gestalt_many") == 1
    assert _counter_totals()[("kernel.calls", (("kernel", "gestalt"),))] == 2


# ------------------------------------------------------------------ #
# Cache lifecycle events
# ------------------------------------------------------------------ #


def test_cache_lifecycle_counters_and_logs(monkeypatch, tmp_path, small_pool):
    from repro.core.profile import ErrorProfile

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    stream = io.StringIO()
    configure_logging(level="debug", stream=stream)
    observability.enable(tracing=False, metrics=True)
    statistics = ErrorProfile.from_pool(small_pool).statistics
    key_args = (len(small_pool), 123, None)

    assert context_cache.load_context_artifacts(*key_args) is None  # miss
    assert context_cache.store_context_artifacts(
        *key_args, small_pool, statistics
    )
    cached = context_cache.load_context_artifacts(*key_args)  # hit
    assert cached is not None

    path = context_cache.context_cache_path(*key_args)
    path.write_bytes(b"not a pickle")
    assert context_cache.load_context_artifacts(*key_args) is None
    assert not path.exists()  # unreadable entries are discarded

    path.write_bytes(
        pickle.dumps({"pool": small_pool, "statistics": "wrong type"})
    )
    assert context_cache.load_context_artifacts(*key_args) is None  # stale
    assert not path.exists()

    counters = {
        c["name"]: c["value"]
        for c in observability.registry().to_json()["counters"]
    }
    assert counters["cache.miss"] == 1
    assert counters["cache.store"] == 1
    assert counters["cache.hit"] == 1
    assert counters["cache.unreadable_discard"] == 1
    assert counters["cache.stale_discard"] == 1

    output = stream.getvalue()
    key = context_cache.context_cache_key(*key_args)
    for event in ("cache.miss", "cache.hit", "cache.unreadable_discard"):
        assert f"event={event}" in output
    assert f"key={key}" in output


# ------------------------------------------------------------------ #
# Retry / fault event stream
# ------------------------------------------------------------------ #


def test_chaos_produces_auditable_event_stream():
    from repro.experiments import chaos

    observability.enable(tracing=True, metrics=True)
    result = chaos.run(
        n_clusters=8, verbose=False, severities=("mild",), n_trials=1
    )
    assert result["unhandled_errors"] == 0

    names = {record["name"] for record in observability.tracer().records}
    assert {"chaos.severity", "retrieve", "retrieve.attempt"} <= names
    attempt_records = [
        r
        for r in observability.tracer().records
        if r["name"] == "retrieve.attempt"
    ]
    assert all(
        {"attempt", "coverage", "reconstructor", "outcome"}
        <= set(r["attrs"])
        for r in attempt_records
    )

    exported = observability.registry().to_json()
    counter_names = {c["name"] for c in exported["counters"]}
    assert "chaos.trials" in counter_names
    assert "retry.attempts" in counter_names
    fault_counters = [
        c for c in exported["counters"] if c["name"] == "faults.injected"
    ]
    assert fault_counters  # mild severity injects faults
    assert all(
        c["labels"]["severity"] == "mild" for c in fault_counters
    )
    assert sum(c["value"] for c in fault_counters) == result["fault_counts"][
        "mild"
    ]


# ------------------------------------------------------------------ #
# CLI flags
# ------------------------------------------------------------------ #


def test_cli_trace_and_metrics_export(tmp_path, small_pool, capsys):
    dataset = tmp_path / "pool.evyat"
    write_pool(small_pool, dataset)
    trace_file = tmp_path / "trace.jsonl"
    metrics_file = tmp_path / "metrics.json"
    exit_code = main(
        [
            "--trace",
            str(trace_file),
            "--metrics-out",
            str(metrics_file),
            "evaluate",
            str(dataset),
            "--algorithms",
            "majority",
        ]
    )
    assert exit_code == 0
    capsys.readouterr()
    records = [
        json.loads(line) for line in trace_file.read_text().splitlines()
    ]
    assert any(record["name"] == "reconstruct" for record in records)
    metrics = json.loads(metrics_file.read_text())
    assert any(
        c["name"] == "reconstruct.clusters" for c in metrics["counters"]
    )
    # The CLI tears the collectors back down after exporting.
    assert not observability.collection_enabled()


def test_cli_metrics_prom_extension(tmp_path, small_pool, capsys):
    dataset = tmp_path / "pool.evyat"
    write_pool(small_pool, dataset)
    metrics_file = tmp_path / "metrics.prom"
    exit_code = main(
        [
            "--metrics-out",
            str(metrics_file),
            "evaluate",
            str(dataset),
            "--algorithms",
            "majority",
        ]
    )
    assert exit_code == 0
    capsys.readouterr()
    text = metrics_file.read_text()
    assert "# TYPE reconstruct_clusters counter" in text


def test_cli_log_level_flag(tmp_path, small_pool, capsys):
    from repro.observability import logs

    dataset = tmp_path / "pool.evyat"
    write_pool(small_pool, dataset)
    exit_code = main(
        ["--log-level", "debug", "evaluate", str(dataset), "--algorithms", "majority"]
    )
    assert exit_code == 0
    capsys.readouterr()
    assert logs.log_level() == logs.LEVELS["debug"]


# ------------------------------------------------------------------ #
# Bench record provenance
# ------------------------------------------------------------------ #


def test_stamp_record_and_assert_stamped():
    record = stamp_record({"payload": 1})
    assert record["payload"] == 1
    assert record["schema_version"] == BENCH_SCHEMA_VERSION
    assert_stamped(record)
    with pytest.raises(AssertionError):
        assert_stamped({"payload": 1})
    with pytest.raises(AssertionError):
        assert_stamped({**record, "schema_version": BENCH_SCHEMA_VERSION + 1})


@pytest.mark.parametrize(
    ("status", "expected"), [("", "abc1234"), (" M src/x.py", "abc1234-dirty")]
)
def test_git_sha_marks_a_modified_tree(monkeypatch, status, expected):
    outputs = {"rev-parse": "abc1234\n", "status": status}

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=outputs[argv[1]])

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert git_sha() == expected


def test_git_sha_outside_a_checkout_is_unknown(monkeypatch):
    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 128, stdout="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert git_sha() == "unknown"

    def missing_git(argv, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", missing_git)
    assert git_sha() == "unknown"


@pytest.mark.parametrize(
    "bench_name",
    ["BENCH_throughput.json", "BENCH_kernels.json", "BENCH_pipeline.json"],
)
def test_committed_bench_records_are_stamped(bench_name):
    record = json.loads((REPO_ROOT / bench_name).read_text())
    assert_stamped(record)
