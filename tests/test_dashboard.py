"""Tests for the observability dashboard: the bench-trajectory store,
flame rollups, HTML generation, and the CLI surface."""

from __future__ import annotations

import html.parser
import json
import math

import pytest

from repro.cli import main
from repro.observability.bench import BENCH_SCHEMA_VERSION, stamp_record
from repro.report.dashboard import (
    SECTION_IDS,
    TRAJECTORY_METRICS,
    build_dashboard_html,
    committed_floor,
    collect_run_inputs,
    flame_rollup,
    write_dashboard,
)
from repro.report.history import (
    append_record,
    history_path,
    load_history,
    read_history_file,
)


class _WellFormedChecker(html.parser.HTMLParser):
    """Asserts every non-void open tag is closed, in order."""

    VOID = {"meta", "br", "hr", "img", "input", "link", "circle", "line",
            "rect", "polyline", "path"}

    def __init__(self) -> None:
        super().__init__()
        self.stack: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        pass  # <tag/> is balanced by construction

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        assert self.stack, f"closing </{tag}> with nothing open"
        assert self.stack[-1] == tag, (
            f"mismatched </{tag}>; open stack: {self.stack}"
        )
        self.stack.pop()


def assert_well_formed_html(document: str) -> None:
    checker = _WellFormedChecker()
    checker.feed(document)
    checker.close()
    assert checker.stack == [], f"unclosed tags: {checker.stack}"


def _stamped(**fields) -> dict:
    return stamp_record(dict(fields))


# ------------------------------------------------------------------ #
# Run-dir fixture: one of everything the dashboard discovers
# ------------------------------------------------------------------ #


SPANS = [
    {"span_id": 1, "parent_id": None, "name": "experiment",
     "start_s": 0.0, "duration_s": 1.0, "outcome": "ok", "attrs": {}},
    {"span_id": 2, "parent_id": 1, "name": "simulate",
     "start_s": 0.1, "duration_s": 0.4, "outcome": "ok", "attrs": {}},
    {"span_id": 3, "parent_id": 1, "name": "reconstruct",
     "start_s": 0.5, "duration_s": 0.5, "outcome": "ok", "attrs": {}},
    {"span_id": 4, "parent_id": 3, "name": "cluster",
     "start_s": 0.5, "duration_s": 0.2, "outcome": "error", "attrs": {},
     "worker": True},
]

METRICS = {
    "schema_version": 1,
    "counters": [
        {"name": "cache.hit", "labels": {}, "value": 7},
        {"name": "cache.miss", "labels": {}, "value": 3},
        {"name": "retry.attempts", "labels": {"op": "shard"}, "value": 2},
    ],
    "gauges": [{"name": "pool.size", "labels": {}, "value": 42}],
    "histograms": [
        {
            "name": "span.latency",
            "labels": {"span": "reconstruct"},
            "bounds": [0.1, 1.0, 10.0],
            "bucket_counts": [5, 4, 1, 0],
            "sum": 4.2,
            "count": 10,
        }
    ],
}

CHAOS = {
    "severities": ["mild", "moderate"],
    "recovery_rate": {"mild": 1.0, "moderate": 0.5},
    "mean_fraction": {"mild": 1.0, "moderate": 0.9},
    "mean_attempts": {"mild": 1.0, "moderate": 2.5},
    "fault_counts": {"mild": 4, "moderate": 9},
    "unhandled_errors": 0,
}


@pytest.fixture()
def run_dir(tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    (root / "trace.jsonl").write_text(
        "".join(json.dumps(span) + "\n" for span in SPANS)
    )
    (root / "metrics.json").write_text(json.dumps(METRICS))
    (root / "chaos.json").write_text(json.dumps(CHAOS))
    (root / "conformance.json").write_text(
        json.dumps({"suite": "channel-conformance", "passed": 12, "failed": 0})
    )
    return root


@pytest.fixture()
def repo_root(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    for i, sha in enumerate(("aaaa111", "bbbb222", "cccc333")):
        record = _stamped(
            edit_distance_110_speedup=6.0 + i,
            clustering={"speedup": 3.0 + i},
            batched_one_to_many={"speedup": 12.0 + i},
        )
        record["git_sha"] = sha
        append_record(record, "kernels", root=root)
    return root


# ------------------------------------------------------------------ #
# History store
# ------------------------------------------------------------------ #


class TestHistory:
    def test_append_and_load(self, tmp_path):
        record = _stamped(metric=1.5)
        path = append_record(record, "kernels", root=tmp_path)
        assert path == history_path("kernels", tmp_path)
        assert load_history(tmp_path) == {"kernels": [record]}

    def test_append_dedupes_by_sha_and_schema(self, tmp_path):
        first = _stamped(metric=1.0)
        second = _stamped(metric=2.0)
        second["git_sha"] = first["git_sha"]  # same commit, re-run
        append_record(first, "bench", root=tmp_path)
        append_record(second, "bench", root=tmp_path)
        records = load_history(tmp_path)["bench"]
        assert len(records) == 1
        assert records[0]["metric"] == 2.0  # latest measurement wins

    def test_different_shas_accumulate_in_order(self, tmp_path):
        for index, sha in enumerate(("aaa", "bbb", "ccc")):
            record = _stamped(metric=float(index))
            record["git_sha"] = sha
            append_record(record, "bench", root=tmp_path)
        values = [r["metric"] for r in load_history(tmp_path)["bench"]]
        assert values == [0.0, 1.0, 2.0]

    def test_unstamped_record_rejected(self, tmp_path):
        with pytest.raises(AssertionError):
            append_record({"metric": 1.0}, "bench", root=tmp_path)

    def test_read_skips_torn_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps({"a": 1}) + "\n"
            + "not json at all\n"
            + json.dumps({"b": 2}) + "\n"
            + '{"torn": tr'  # crashed mid-append
        )
        assert read_history_file(path) == [{"a": 1}, {"b": 2}]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_history_file(tmp_path / "absent.jsonl") == []

    def test_load_history_no_directory(self, tmp_path):
        assert load_history(tmp_path / "nowhere") == {}


# ------------------------------------------------------------------ #
# Flame rollup
# ------------------------------------------------------------------ #


class TestFlameRollup:
    def test_self_time_subtracts_children(self):
        rows = {row["path"]: row for row in flame_rollup(SPANS)}
        experiment = rows["experiment"]
        # experiment ran 1.0s total but its children cover 0.9s.
        assert experiment["total_s"] == pytest.approx(1.0)
        assert experiment["self_s"] == pytest.approx(0.1)
        reconstruct = rows["experiment/reconstruct"]
        assert reconstruct["total_s"] == pytest.approx(0.5)
        assert reconstruct["self_s"] == pytest.approx(0.3)

    def test_paths_nest_and_errors_count(self):
        rows = {row["path"]: row for row in flame_rollup(SPANS)}
        assert "experiment/reconstruct/cluster" in rows
        assert rows["experiment/reconstruct/cluster"]["errors"] == 1

    def test_repeated_spans_aggregate(self):
        records = [
            {"span_id": i, "parent_id": None, "name": "work",
             "duration_s": 0.5, "outcome": "ok"}
            for i in range(4)
        ]
        rows = flame_rollup(records)
        assert len(rows) == 1
        assert rows[0]["count"] == 4
        assert rows[0]["total_s"] == pytest.approx(2.0)
        assert rows[0]["self_s"] == pytest.approx(2.0)

    def test_sorted_by_total_desc(self):
        totals = [row["total_s"] for row in flame_rollup(SPANS)]
        assert totals == sorted(totals, reverse=True)

    def test_empty_records(self):
        assert flame_rollup([]) == []


# ------------------------------------------------------------------ #
# Dashboard document
# ------------------------------------------------------------------ #


class TestDashboard:
    def test_well_formed_with_all_sections(self, run_dir, repo_root):
        document = build_dashboard_html(run_dir, repo_root)
        assert_well_formed_html(document)
        for section in SECTION_IDS:
            assert f'id="{section}"' in document

    def test_content_reaches_every_section(self, run_dir, repo_root):
        document = build_dashboard_html(run_dir, repo_root)
        # trajectory: the curated kernels metrics with their floors
        assert "edit distance 110 speedup" in document
        assert "all floors honoured" in document
        # flame: nested span paths with self/total bars
        assert "experiment/reconstruct/cluster" in document
        # metrics: family cards and quantile columns
        assert "cache events" in document
        assert "p95" in document
        # run health: chaos table, conformance
        assert "recovered exactly" in document
        assert "channel-conformance" in document

    def test_byte_stable(self, run_dir, repo_root):
        first = build_dashboard_html(run_dir, repo_root)
        second = build_dashboard_html(run_dir, repo_root)
        assert first == second

    def test_self_contained(self, run_dir, repo_root):
        document = build_dashboard_html(run_dir, repo_root)
        for marker in ("http://", "https://", "src=", "<script"):
            assert marker not in document.replace(
                "http://www.w3.org/2000/svg", ""
            ), marker
        assert "<svg" in document
        assert "<style>" in document

    def test_graceful_without_any_inputs(self, tmp_path):
        document = build_dashboard_html(tmp_path, tmp_path)
        assert_well_formed_html(document)
        for section in SECTION_IDS:
            assert f'id="{section}"' in document
        assert document.count("no ") >= 4  # one visible notice per gap

    def test_graceful_with_no_run_dir_at_all(self):
        document = build_dashboard_html(None, None)
        assert_well_formed_html(document)
        for section in SECTION_IDS:
            assert f'id="{section}"' in document

    def test_regression_highlighted(self, tmp_path, repo_root):
        record = _stamped(
            edit_distance_110_speedup=2.0,  # below the 5.0 floor
            clustering={"speedup": 9.0},
            batched_one_to_many={"speedup": 20.0},
        )
        record["git_sha"] = "dddd444"
        append_record(record, "kernels", root=repo_root)
        document = build_dashboard_html(None, repo_root)
        assert "REGRESSION" in document
        assert "floor violation" in document

    def test_committed_floor_reads_the_charted_table(self):
        for bench, metrics in TRAJECTORY_METRICS.items():
            for label, _path, _op, floor in metrics:
                if floor is None:
                    with pytest.raises(KeyError):
                        committed_floor(bench, label)
                else:
                    assert committed_floor(bench, label) == floor
        assert committed_floor("kernels", "clustering speedup") == 2.0
        with pytest.raises(KeyError):
            committed_floor("kernels", "batched one-to-many speedup")

    def test_serial_throughput_floor_not_flagged(self, tmp_path):
        # workers == 1 records a 1.0x speedup by construction; the
        # conditional floor must not mark it as a regression.
        record = _stamped(
            workers=1, stages={"reconstruct": {"speedup": 1.0}}
        )
        append_record(record, "throughput", root=tmp_path)
        document = build_dashboard_html(None, tmp_path)
        assert "REGRESSION" not in document

    def test_unknown_bench_charts_generic_fields(self, tmp_path):
        record = _stamped(throughput_mbps=12.5, latency_ms=3.0)
        append_record(record, "mystery", root=tmp_path)
        document = build_dashboard_html(None, tmp_path)
        assert "throughput_mbps" in document
        assert "latency_ms" in document

    def test_corrupt_inputs_do_not_fail_the_build(self, run_dir, repo_root):
        (run_dir / "broken.json").write_text("{not json")
        (run_dir / "broken.jsonl").write_text("not a trace\n")
        document = build_dashboard_html(run_dir, repo_root)
        assert_well_formed_html(document)

    def test_write_dashboard_creates_parents(self, tmp_path, run_dir):
        out = write_dashboard(
            tmp_path / "deep" / "nested" / "dash.html", run_dir, None
        )
        assert out.is_file()
        assert "<!DOCTYPE html>" in out.read_text()


class TestDiscovery:
    def test_content_based_classification(self, run_dir):
        inputs = collect_run_inputs(run_dir)
        assert [label for label, _ in inputs.traces] == ["trace.jsonl"]
        assert [label for label, _ in inputs.metrics] == ["metrics.json"]
        assert [label for label, _ in inputs.chaos_sweeps] == ["chaos.json"]
        assert [label for label, _ in inputs.test_summaries] == [
            "conformance.json"
        ]

    def test_job_internal_files_not_misclassified(self, run_dir):
        # Sweep directories written before cell records were the only
        # resume state still hold per-cell job journals: their
        # events.jsonl must not be picked up as a trace, and job.json
        # must not look like metrics.
        job = run_dir / "jobs" / "demo"
        job.mkdir(parents=True)
        (job / "job.json").write_text(
            json.dumps({"format_version": 1, "job_id": "demo",
                        "state": "succeeded", "spec": {}})
        )
        (job / "events.jsonl").write_text(
            json.dumps({"event": "shard_started", "shard": 0, "t": 1.0})
            + "\n"
        )
        inputs = collect_run_inputs(run_dir)
        assert all("events" not in label for label, _ in inputs.traces)
        assert all("job.json" not in label for label, _ in inputs.metrics)

    def test_missing_run_dir(self, tmp_path):
        inputs = collect_run_inputs(tmp_path / "nope")
        assert inputs.traces == [] and inputs.sweeps == []


# ------------------------------------------------------------------ #
# CLI surface
# ------------------------------------------------------------------ #


class TestDashboardCLI:
    def test_report_dashboard_command(self, run_dir, repo_root, tmp_path,
                                      capsys):
        out = tmp_path / "dash.html"
        code = main(
            [
                "report", "dashboard",
                "--run-dir", str(run_dir),
                "--out", str(out),
                "--repo-root", str(repo_root),
            ]
        )
        assert code == 0
        assert "dashboard written to" in capsys.readouterr().out
        document = out.read_text()
        assert_well_formed_html(document)
        for section in SECTION_IDS:
            assert f'id="{section}"' in document

    def test_report_figures_still_works(self, tmp_path, capsys):
        code = main(
            ["report", "figures", str(tmp_path / "figs"), "--clusters", "4"]
        )
        assert code == 0
        assert (tmp_path / "figs" / "index.html").is_file()

    def test_auto_dashboard_after_traced_experiment(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--trace", str(trace), "experiment", "table_1_1"]
        )
        assert code == 0
        dashboard = tmp_path / "dashboard.html"
        assert dashboard.is_file()
        assert "dnasim: dashboard ->" in capsys.readouterr().err
        assert_well_formed_html(dashboard.read_text())

    def test_no_auto_dashboard_without_observability(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", "table_1_1"])
        assert code == 0
        assert not (tmp_path / "dashboard.html").exists()

    def test_chaos_json_out(self, tmp_path, capsys):
        out_file = tmp_path / "chaos.json"
        code = main(
            [
                "chaos", "--clusters", "10", "--trials", "1",
                "--severities", "mild", "--json-out", str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["severities"] == ["mild"]
        assert "recovery_rate" in document
        # The dashboard discovers the written outcome as a chaos sweep.
        inputs = collect_run_inputs(tmp_path)
        assert [label for label, _ in inputs.chaos_sweeps] == ["chaos.json"]


class TestSweepSection:
    @pytest.fixture()
    def sweep_run_dir(self, tmp_path):
        from repro.scenarios import SweepSpec, run_sweep

        root = tmp_path / "run"
        spec = SweepSpec(
            name="dash-sweep",
            seed=2,
            n_clusters=6,
            axes={"coverage": (4.0,), "algorithm": ("majority", "bma")},
        )
        run_sweep(spec, root / "sweeps" / "dash")
        return root

    def test_sweep_block_renders(self, sweep_run_dir, tmp_path):
        document = build_dashboard_html(sweep_run_dir, tmp_path)
        assert_well_formed_html(document)
        assert 'id="sweep"' in document
        assert "dash-sweep" in document
        assert "cells declared" in document
        assert "majority" in document and "bma" in document

    def test_sweep_section_byte_stable(self, sweep_run_dir, tmp_path):
        first = build_dashboard_html(sweep_run_dir, tmp_path)
        assert first == build_dashboard_html(sweep_run_dir, tmp_path)

    def test_empty_state_message(self, tmp_path):
        document = build_dashboard_html(tmp_path, tmp_path)
        assert "no sweep results found" in document

    def test_orphan_cell_records_get_their_own_block(
        self, sweep_run_dir, tmp_path
    ):
        manifest = sweep_run_dir / "sweeps" / "dash" / "sweep.json"
        manifest.unlink()
        document = build_dashboard_html(sweep_run_dir, tmp_path)
        assert_well_formed_html(document)
        assert "dash-sweep (records only)" in document
