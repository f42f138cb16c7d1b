"""One self-contained HTML observability dashboard per run.

``dnasim report dashboard`` (and the automatic hook at the end of every
traced experiment run) walks a *run directory* plus the repo root and
emits ONE HTML file — inline CSS, inline SVG, zero external requests —
with four sections:

1. **Bench trajectory** — every stamped ``BENCH_*.json`` record appended
   to ``bench_history/*.jsonl`` (:mod:`repro.report.history`) rendered as
   perf-over-git-SHA line charts, with points that violate the committed
   benchmark floors highlighted as regressions;
2. **Trace flame rollup** — span-path self/total time tables built from
   ``--trace`` JSON-lines files (cross-process worker spans included,
   since the CLI exports an already-merged tree);
3. **Metrics** — counter/gauge/histogram snapshots from
   ``--metrics-out`` JSON files, with p50/p95/p99 latency estimated by
   :func:`repro.observability.metrics.histogram_quantile`;
4. **Run health** — chaos-harness outcomes and conformance/golden test
   summaries.

Discovery is **layout-agnostic**: files are classified by *content*
(a JSONL file whose lines carry ``span_id``/``duration_s`` is a trace; a
JSON file with ``counters``/``histograms`` is a metrics snapshot; a
JSON file with ``recovery_rate`` + ``severities`` is a chaos sweep;
``passed`` + ``failed`` marks a test
summary) — not by path conventions, so any run layout works.  Every
section degrades to a visible "no data" notice when its inputs are
absent, and the generated bytes are a pure function of the inputs (no
build-time clock), so a fixed run directory renders byte-stably.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.observability.metrics import histogram_quantile
from repro.report.history import load_history, read_history_file
from repro.report.svg import PALETTE, SVGCanvas, escape

#: The ``id=`` anchors of the five sections, in page order.  Tests (and
#: CI validation) assert every one is present in the generated document.
SECTION_IDS = (
    "bench-trajectory",
    "flame-rollup",
    "metrics",
    "sweep",
    "run-health",
)

#: Colour for floor-violating trajectory points and failure badges.
REGRESSION_COLOR = "#d62728"

#: Trajectory metrics charted per bench name: ``(label, path-into-record,
#: comparison, committed floor)``.  This is the one place a charted floor
#: is written: ``benchmarks/test_bench_*.py`` assert the same values via
#: :func:`committed_floor`, and a point on the wrong side of its floor is
#: highlighted as a regression.  ``None`` floor = chart only.
TRAJECTORY_METRICS: dict[str, tuple] = {
    "kernels": (
        ("edit distance 110 speedup", ("edit_distance_110_speedup",), ">=", 5.0),
        ("clustering speedup", ("clustering", "speedup"), ">=", 2.0),
    ),
    "throughput": (
        ("reconstruct speedup", ("stages", "reconstruct", "speedup"), ">=", 1.5),
        (
            "observability no-op event (ns)",
            ("observability_overhead", "noop_event_ns"),
            None,
            None,
        ),
    ),
    "channel": (
        ("vectorised speedup vs python", ("speedup_vs_python",), ">=", 1.6),
        (
            "vectorised speedup vs seed-equivalent",
            ("speedup_vs_seed_equivalent",),
            ">=",
            2.3,
        ),
    ),
    "fullscale": (
        ("streamed / in-memory peak RSS ratio", ("rss_ratio",), "<=", 1.2),
    ),
    "cluster": (
        ("largest read-out peak RSS (MB)", ("largest", "peak_rss_mb"), None, None),
        ("largest read-out wall (s)", ("largest", "wall_s"), None, None),
        (
            "largest read-out comparisons per read",
            ("largest", "comparisons_per_read"),
            None,
            None,
        ),
    ),
}

#: Floors that only apply under a recorded condition, keyed by metric
#: label.  ``benchmarks/test_bench_throughput.py`` asserts its speedup
#: floor only on hosts with >= 2 workers — a serial record's 1.0x is by
#: construction, not a regression.
FLOOR_GUARDS: dict[str, object] = {
    "reconstruct speedup": lambda record: record.get("workers", 0) >= 2,
}


def committed_floor(bench: str, label: str) -> float:
    """The floor :data:`TRAJECTORY_METRICS` charts for ``label`` of
    ``bench`` — what that bench asserts."""
    for metric_label, _path, _op, floor in TRAJECTORY_METRICS[bench]:
        if metric_label == label and floor is not None:
            return floor
    raise KeyError(f"no committed floor for {bench!r} metric {label!r}")

#: Counter-name prefixes rolled up into the headline metric cards.
COUNTER_FAMILIES = (
    ("retry", "retry."),
    ("faults", "faults."),
    ("chaos", "chaos."),
    ("clusters", "cluster."),
    ("sweep", "sweep."),
)

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 1080px; color: #222; background: #fff; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 6px; }
h2 { margin-top: 2em; color: #1f77b4; }
h3 { margin-bottom: 0.4em; }
nav a { margin-right: 1.2em; color: #1f77b4; }
table { border-collapse: collapse; margin: 0.8em 0; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
figure { margin: 1em 0; }
figcaption { font-size: 0.85em; color: #555; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; margin: 0.8em 0; }
.card { border: 1px solid #ddd; border-radius: 6px; padding: 8px 14px;
        min-width: 110px; background: #fafafa; }
.card .value { font-size: 1.4em; font-weight: bold; }
.card .label { font-size: 0.78em; color: #555; }
.bar { background: #e8eef5; height: 10px; border-radius: 3px;
       min-width: 120px; }
.bar .fill { background: #1f77b4; height: 10px; border-radius: 3px; }
.bar .fill.self { background: #ff7f0e; }
.badge { display: inline-block; border-radius: 4px; padding: 1px 7px;
         font-size: 0.8em; color: #fff; }
.badge.ok { background: #2ca02c; }
.badge.fail { background: #d62728; }
.badge.warn { background: #ff7f0e; }
.badge.info { background: #7f7f7f; }
.empty { color: #999; font-style: italic; margin: 0.6em 0; }
.mono { font-family: Menlo, Consolas, monospace; font-size: 0.85em; }
"""


# ------------------------------------------------------------------ #
# Input discovery (content-based, layout-agnostic)
# ------------------------------------------------------------------ #


def _read_json(path: Path) -> dict | None:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


def _is_trace_records(records: list[dict]) -> bool:
    return bool(records) and all(
        "span_id" in record and "duration_s" in record
        for record in records[:5]
    )


def _is_metrics_snapshot(document: dict) -> bool:
    return "schema_version" in document and (
        "counters" in document or "histograms" in document
    )


def _is_chaos_sweep(document: dict) -> bool:
    return "recovery_rate" in document and "severities" in document


def _is_test_summary(document: dict) -> bool:
    return isinstance(document.get("passed"), int) and isinstance(
        document.get("failed"), int
    )


def _is_sweep_manifest(document: dict) -> bool:
    return document.get("record") == "scenario-sweep"


def _is_scenario_cell(document: dict) -> bool:
    return document.get("record") == "scenario-cell"


class RunInputs:
    """Everything the dashboard found, grouped by section."""

    def __init__(self) -> None:
        self.traces: list[tuple[str, list[dict]]] = []
        self.metrics: list[tuple[str, dict]] = []
        self.chaos_sweeps: list[tuple[str, dict]] = []
        self.test_summaries: list[tuple[str, dict]] = []
        self.sweeps: list[tuple[str, dict]] = []
        self.sweep_cells: list[tuple[str, dict]] = []


def collect_run_inputs(run_dir: str | Path | None) -> RunInputs:
    """Walk ``run_dir`` and classify every readable file by content."""
    inputs = RunInputs()
    if run_dir is None:
        return inputs
    root = Path(run_dir)
    if not root.is_dir():
        return inputs

    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        label = path.relative_to(root).as_posix()
        if path.suffix == ".jsonl":
            records = read_history_file(path)
            if _is_trace_records(records):
                inputs.traces.append((label, records))
            continue
        if path.suffix != ".json":
            continue
        document = _read_json(path)
        if document is None:
            continue
        if _is_sweep_manifest(document):
            inputs.sweeps.append((label, document))
        elif _is_scenario_cell(document):
            inputs.sweep_cells.append((label, document))
        elif _is_metrics_snapshot(document):
            inputs.metrics.append((label, document))
        elif _is_chaos_sweep(document):
            inputs.chaos_sweeps.append((label, document))
        elif _is_test_summary(document):
            inputs.test_summaries.append((label, document))
    return inputs


def collect_bench_history(repo_root: str | Path | None) -> dict[str, list[dict]]:
    """The bench trajectory: ``bench_history/*.jsonl`` plus the current
    ``BENCH_*.json`` snapshots (as the newest point when their SHA is not
    in the history yet)."""
    if repo_root is None:
        return {}
    root = Path(repo_root)
    history = load_history(root)
    for path in sorted(root.glob("BENCH_*.json")):
        record = _read_json(path)
        if record is None or "git_sha" not in record:
            continue
        name = path.stem[len("BENCH_"):]
        records = history.setdefault(name, [])
        key = (record.get("git_sha"), record.get("schema_version"))
        if key not in {
            (entry.get("git_sha"), entry.get("schema_version"))
            for entry in records
        }:
            records.append(record)
    return dict(sorted(history.items()))


# ------------------------------------------------------------------ #
# Flame rollup (trace JSONL -> self/total per span path)
# ------------------------------------------------------------------ #


def flame_rollup(records: list[dict]) -> list[dict]:
    """Aggregate span records by name path with self- and total-time.

    ``total_s`` sums each span's wall time; ``self_s`` subtracts the
    time attributed to its direct children, so a parent that merely
    waits on instrumented children rolls up near zero self time.
    Returns rows sorted by descending total time.
    """
    by_id = {record["span_id"]: record for record in records}
    child_time: dict[object, float] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent in by_id:
            child_time[parent] = (
                child_time.get(parent, 0.0) + record["duration_s"]
            )

    path_cache: dict[object, str] = {}

    def path_of(record: dict) -> str:
        span_id = record["span_id"]
        cached = path_cache.get(span_id)
        if cached is not None:
            return cached
        parent = by_id.get(record.get("parent_id"))
        path = (path_of(parent) + "/" if parent else "") + record["name"]
        path_cache[span_id] = path
        return path

    rollup: dict[str, dict] = {}
    for record in records:
        path = path_of(record)
        row = rollup.get(path)
        if row is None:
            row = rollup[path] = {
                "path": path,
                "count": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "errors": 0,
            }
        row["count"] += 1
        row["total_s"] += record["duration_s"]
        row["self_s"] += max(
            0.0, record["duration_s"] - child_time.get(record["span_id"], 0.0)
        )
        if record.get("outcome") == "error":
            row["errors"] += 1
    return sorted(rollup.values(), key=lambda row: (-row["total_s"], row["path"]))


# ------------------------------------------------------------------ #
# HTML helpers
# ------------------------------------------------------------------ #


def _badge(text: str, kind: str) -> str:
    return f'<span class="badge {kind}">{escape(text)}</span>'


def _card(value: str, label: str) -> str:
    return (
        f'<div class="card"><div class="value">{escape(value)}</div>'
        f'<div class="label">{escape(label)}</div></div>'
    )


def _table(headers: list[str], rows: list[list[str]], raw: bool = False) -> str:
    """An HTML table; with ``raw`` the cells are pre-rendered HTML."""
    cell = (lambda value: value) if raw else (lambda value: escape(str(value)))
    head = "".join(f"<th>{escape(str(header))}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell(value)}</td>" for value in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _empty(message: str) -> str:
    return f'<p class="empty">{escape(message)}</p>'


def _bar(fraction: float, css: str = "") -> str:
    width = max(0.0, min(1.0, fraction)) * 100.0
    css_class = f"fill {css}".strip()
    return (
        f'<div class="bar"><div class="{css_class}" '
        f'style="width:{width:.1f}%"></div></div>'
    )


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return f"{int(value):,d}"


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ", ".join(
        f"{key}={value}" for key, value in sorted(labels.items())
    ) + "}"


def _dig(record: dict, path: tuple) -> object:
    value: object = record
    for key in path:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _violates(value: float, op: str, floor: float) -> bool:
    return value < floor if op == ">=" else value > floor


# ------------------------------------------------------------------ #
# Section 1 — bench trajectory
# ------------------------------------------------------------------ #


def _trajectory_chart(
    title: str,
    points: list[dict],
    op: str | None,
    floor: float | None,
    width: int = 560,
    height: int = 230,
) -> str:
    """A perf-over-SHA line chart with floor line + regression markers.

    ``points`` rows: ``{"x", "value", "sha", "regressed"}``.
    """
    canvas = SVGCanvas(width=width, height=height, margin_bottom=52)
    finite = [
        point
        for point in points
        if isinstance(point["value"], (int, float))
        and math.isfinite(point["value"])
    ]
    if not finite:
        canvas.set_ranges((0, 1), (0, 1))
        canvas.axes()
        canvas.title(title)
        canvas.placeholder()
        return canvas.render()
    values = [point["value"] for point in finite]
    low = min(values + ([floor] if floor is not None else []))
    high = max(values + ([floor] if floor is not None else []))
    pad = (high - low) * 0.15 or max(abs(high) * 0.15, 0.5)
    x_high = max(point["x"] for point in finite)
    canvas.set_ranges((-0.25, x_high + 0.25), (max(0.0, low - pad), high + pad))
    canvas.axes(
        "record (chronological)",
        "",
        x_ticks=min(6, max(1, x_high)),
        y_format="{:.2f}",
    )
    canvas.title(title)
    if floor is not None:
        y_floor = canvas.y_pixel(floor)
        canvas.line(
            canvas.margin_left,
            y_floor,
            canvas.width - canvas.margin_right,
            y_floor,
            color=REGRESSION_COLOR,
            width=1.0,
            dash="6,4",
        )
        canvas.text(
            canvas.width - canvas.margin_right - 4,
            y_floor - 5,
            f"floor {op} {floor:g}",
            size=9,
            anchor="end",
            color=REGRESSION_COLOR,
        )
    if len(finite) > 1:
        canvas.polyline(
            [(point["x"], point["value"]) for point in finite], PALETTE[0]
        )
    for point in finite:
        canvas.circle(
            point["x"],
            point["value"],
            radius=3.5,
            color=REGRESSION_COLOR if point["regressed"] else PALETTE[0],
        )
    # SHA labels under the axis, rotated to stay readable when dense.
    for point in finite:
        canvas.text(
            canvas.x_pixel(point["x"]),
            canvas.height - canvas.margin_bottom + 22,
            str(point["sha"]),
            size=8,
            anchor="middle",
            rotate=-35,
        )
    return canvas.render()


def _generic_trajectory_metrics(records: list[dict]) -> tuple:
    """For benches without a curated metric list: chart every top-level
    scalar field (stamp fields excluded), floor-less, capped at six."""
    from repro.observability.bench import STAMP_FIELDS

    fields: list[str] = []
    for record in records:
        for key, value in record.items():
            if key in STAMP_FIELDS or key in fields:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fields.append(key)
    return tuple((field, (field,), None, None) for field in sorted(fields)[:6])


def _bench_trajectory_section(history: dict[str, list[dict]]) -> str:
    parts = ["<section id=\"bench-trajectory\"><h2>Bench trajectory</h2>"]
    if not history:
        parts.append(
            _empty(
                "no bench history found (bench_history/*.jsonl or "
                "BENCH_*.json at the repo root)"
            )
        )
        parts.append("</section>")
        return "".join(parts)
    regressions = 0
    for name, records in history.items():
        metrics = TRAJECTORY_METRICS.get(name) or _generic_trajectory_metrics(
            records
        )
        parts.append(f"<h3>{escape(name)}</h3>")
        rows = []
        charts = []
        for label, path, op, floor in metrics:
            points = []
            for index, record in enumerate(records):
                value = _dig(record, path)
                if not isinstance(value, (int, float)):
                    continue
                guard = FLOOR_GUARDS.get(label)
                regressed = bool(
                    floor is not None
                    and math.isfinite(value)
                    and (guard is None or guard(record))
                    and _violates(value, op, floor)
                )
                points.append(
                    {
                        "x": index,
                        "value": float(value),
                        "sha": record.get("git_sha", "?"),
                        "regressed": regressed,
                    }
                )
            if not points:
                continue
            latest = points[-1]
            regressions += sum(point["regressed"] for point in points)
            if floor is None:
                status = _badge("tracked", "info")
            elif latest["regressed"]:
                status = _badge("REGRESSION", "fail")
            else:
                status = _badge("ok", "ok")
            rows.append(
                [
                    escape(label),
                    escape(f"{latest['value']:.4g}"),
                    escape(f"{op} {floor:g}" if floor is not None else "—"),
                    escape(str(latest["sha"])),
                    str(len(points)),
                    status,
                ]
            )
            charts.append(
                "<figure>"
                + _trajectory_chart(label, points, op, floor)
                + "</figure>"
            )
        if rows:
            parts.append(
                _table(
                    ["metric", "latest", "floor", "latest SHA", "points",
                     "status"],
                    rows,
                    raw=True,
                )
            )
            parts.extend(charts)
        else:
            parts.append(_empty("no chartable numeric fields in this bench"))
    summary = (
        _badge(f"{regressions} floor violation(s)", "fail")
        if regressions
        else _badge("all floors honoured", "ok")
    )
    parts.insert(1, f"<p>{summary}</p>")
    parts.append("</section>")
    return "".join(parts)


# ------------------------------------------------------------------ #
# Section 2 — flame rollup
# ------------------------------------------------------------------ #


def _flame_section(traces: list[tuple[str, list[dict]]]) -> str:
    parts = ["<section id=\"flame-rollup\"><h2>Trace flame rollup</h2>"]
    if not traces:
        parts.append(
            _empty(
                "no trace files found (JSON-lines span records from "
                "--trace) in the run directory"
            )
        )
        parts.append("</section>")
        return "".join(parts)
    for label, records in traces:
        rollup = flame_rollup(records)
        worker_spans = sum(1 for record in records if record.get("worker"))
        parts.append(
            f"<h3>{escape(label)}</h3>"
            f"<p>{len(records)} spans ({worker_spans} merged from worker "
            f"processes), {len(rollup)} distinct paths</p>"
        )
        max_total = max(row["total_s"] for row in rollup) or 1.0
        table_rows = []
        for row in rollup[:40]:
            table_rows.append(
                [
                    f'<span class="mono">{escape(row["path"])}</span>',
                    str(row["count"]),
                    escape(f"{row['total_s']:.4f}"),
                    _bar(row["total_s"] / max_total),
                    escape(f"{row['self_s']:.4f}"),
                    _bar(row["self_s"] / max_total, css="self"),
                    _badge(str(row["errors"]), "fail")
                    if row["errors"]
                    else "0",
                ]
            )
        parts.append(
            _table(
                ["span path", "count", "total s", "total", "self s", "self",
                 "errors"],
                table_rows,
                raw=True,
            )
        )
        if len(rollup) > 40:
            parts.append(
                _empty(f"{len(rollup) - 40} colder paths omitted")
            )
    parts.append("</section>")
    return "".join(parts)


# ------------------------------------------------------------------ #
# Section 3 — metrics cards
# ------------------------------------------------------------------ #


def _metrics_section(snapshots: list[tuple[str, dict]]) -> str:
    parts = ["<section id=\"metrics\"><h2>Metrics</h2>"]
    if not snapshots:
        parts.append(
            _empty(
                "no metrics snapshots found (JSON files from "
                "--metrics-out) in the run directory"
            )
        )
        parts.append("</section>")
        return "".join(parts)
    for label, snapshot in snapshots:
        parts.append(f"<h3>{escape(label)}</h3>")
        counters = snapshot.get("counters", [])
        gauges = snapshot.get("gauges", [])
        histograms = snapshot.get("histograms", [])

        # Headline family cards (retry/fault events, cluster and sweep
        # counters) — summed over label sets.
        cards = []
        for family, prefix in COUNTER_FAMILIES:
            total = sum(
                counter.get("value", 0)
                for counter in counters
                if str(counter.get("name", "")).startswith(prefix)
            )
            if total:
                cards.append(_card(_format_value(total), f"{family} events"))
        if cards:
            parts.append(f'<div class="cards">{"".join(cards)}</div>')

        if counters:
            parts.append("<h4>Counters</h4>")
            parts.append(
                _table(
                    ["counter", "labels", "value"],
                    [
                        [
                            counter.get("name", "?"),
                            _labels_text(counter.get("labels", {})),
                            _format_value(counter.get("value", 0)),
                        ]
                        for counter in sorted(
                            counters,
                            key=lambda c: (
                                c.get("name", ""),
                                sorted(c.get("labels", {}).items()),
                            ),
                        )
                    ],
                )
            )
        if gauges:
            parts.append("<h4>Gauges</h4>")
            parts.append(
                _table(
                    ["gauge", "labels", "value"],
                    [
                        [
                            gauge.get("name", "?"),
                            _labels_text(gauge.get("labels", {})),
                            _format_value(gauge.get("value", 0)),
                        ]
                        for gauge in sorted(
                            gauges,
                            key=lambda g: (
                                g.get("name", ""),
                                sorted(g.get("labels", {}).items()),
                            ),
                        )
                    ],
                )
            )
        if histograms:
            parts.append("<h4>Latency distributions</h4>")
            rows = []
            for histogram in sorted(
                histograms,
                key=lambda h: (
                    h.get("name", ""),
                    sorted(h.get("labels", {}).items()),
                ),
            ):
                bounds = histogram.get("bounds", [])
                bucket_counts = histogram.get("bucket_counts", [])
                count = histogram.get("count", 0)
                total = histogram.get("sum", 0.0)
                quantiles = {
                    q: histogram_quantile(bounds, bucket_counts, q)
                    if bounds and bucket_counts
                    else float("nan")
                    for q in (0.5, 0.95, 0.99)
                }
                rows.append(
                    [
                        histogram.get("name", "?")
                        + _labels_text(histogram.get("labels", {})),
                        _format_value(count),
                        f"{total:.4f}",
                        f"{total / count:.4f}" if count else "—",
                        *(
                            f"{quantiles[q]:.4f}"
                            if math.isfinite(quantiles[q])
                            else "—"
                            for q in (0.5, 0.95, 0.99)
                        ),
                    ]
                )
            parts.append(
                _table(
                    ["histogram", "count", "sum s", "mean s", "p50 s",
                     "p95 s", "p99 s"],
                    rows,
                )
            )
    parts.append("</section>")
    return "".join(parts)


# ------------------------------------------------------------------ #
# Section 4 — run health
# ------------------------------------------------------------------ #


def _chaos_health(sweeps: list[tuple[str, dict]]) -> list[str]:
    parts = ["<h3>Chaos harness</h3>"]
    if not sweeps:
        parts.append(
            _empty("no chaos outcomes (dnasim chaos --json-out files)")
        )
        return parts
    for label, sweep in sweeps:
        unhandled = sweep.get("unhandled_errors", 0)
        parts.append(
            f"<h4>{escape(label)} "
            + (
                _badge(f"{unhandled} unhandled errors", "fail")
                if unhandled
                else _badge("no unhandled errors", "ok")
            )
            + "</h4>"
        )
        parts.append(
            _table(
                ["severity", "recovered exactly", "mean bytes recovered",
                 "mean attempts", "faults injected"],
                [
                    [
                        severity,
                        f"{sweep['recovery_rate'].get(severity, 0) * 100:.0f}%",
                        f"{sweep.get('mean_fraction', {}).get(severity, 0) * 100:.1f}%",
                        f"{sweep.get('mean_attempts', {}).get(severity, 0):.1f}",
                        str(sweep.get("fault_counts", {}).get(severity, "—")),
                    ]
                    for severity in sweep.get("severities", [])
                ],
            )
        )
    return parts


def _test_summary_health(summaries: list[tuple[str, dict]]) -> list[str]:
    parts = ["<h3>Conformance &amp; golden tests</h3>"]
    if not summaries:
        parts.append(
            _empty(
                "no test summaries (JSON files with passed/failed counts)"
            )
        )
        return parts
    rows = []
    for label, summary in summaries:
        failed = summary.get("failed", 0)
        rows.append(
            [
                escape(str(summary.get("suite", label))),
                str(summary.get("passed", 0)),
                str(failed),
                str(summary.get("skipped", "—")),
                _badge("fail", "fail") if failed else _badge("ok", "ok"),
            ]
        )
    parts.append(
        _table(["suite", "passed", "failed", "skipped", "status"], rows,
               raw=True)
    )
    return parts


def _sweep_section(inputs: RunInputs) -> str:
    """Scenario sweeps: one block per discovered manifest, cells grouped
    to their sweep by spec digest (orphan cell records get their own
    block keyed by sweep name)."""
    parts = ['<section id="sweep"><h2>Scenario sweeps</h2>']
    if not inputs.sweeps and not inputs.sweep_cells:
        parts.append(
            _empty(
                "no sweep results found (sweep.json manifests / "
                "scenario-cell records)"
            )
        )
        parts.append("</section>")
        return "".join(parts)

    cells_by_digest: dict[str, list[dict]] = {}
    claimed = set()
    for label, cell in inputs.sweep_cells:
        digest = str(cell.get("spec_digest"))
        cells_by_digest.setdefault(digest, []).append(cell)
    for label, manifest in sorted(inputs.sweeps):
        digest = str(manifest.get("spec_digest"))
        claimed.add(digest)
        cells = sorted(
            cells_by_digest.get(digest, []),
            key=lambda cell: cell.get("cell_index", 0),
        )
        parts.extend(_sweep_block(manifest, cells, label))
    orphans = [
        cell
        for digest, cells in sorted(cells_by_digest.items())
        if digest not in claimed
        for cell in cells
    ]
    if orphans:
        names = sorted({str(cell.get("sweep")) for cell in orphans})
        for name in names:
            cells = sorted(
                (c for c in orphans if str(c.get("sweep")) == name),
                key=lambda cell: cell.get("cell_index", 0),
            )
            parts.extend(
                _sweep_block(
                    {
                        "sweep": name,
                        "n_cells": len(cells),
                        "spec_digest": "(manifest not found)",
                    },
                    cells,
                    f"{name} (records only)",
                )
            )
    parts.append("</section>")
    return "".join(parts)


def _sweep_block(manifest: dict, cells: list[dict], label: str) -> list[str]:
    """One sweep's cards + per-cell results table."""
    declared = int(manifest.get("n_cells") or 0)
    succeeded = sum(
        1 for cell in cells if cell.get("job_state") == "succeeded"
    )
    parts = [f"<h3>{escape(str(manifest.get('sweep')))}</h3>"]
    parts.append(
        f'<p class="mono">{escape(label)} · spec digest '
        f"{escape(str(manifest.get('spec_digest'))[:12])}</p>"
    )
    parts.append(
        '<div class="cards">'
        + _card(str(declared), "cells declared")
        + _card(str(len(cells)), "recorded")
        + _card(str(succeeded), "succeeded")
        + _card(str(len(cells) - succeeded), "not succeeded")
        + "</div>"
    )
    if not cells:
        parts.append(_empty("no cell records yet for this sweep"))
        return parts
    rows = []
    for cell in cells:
        scenario = cell.get("scenario") or {}
        result = cell.get("result") or {}
        accuracy = (result.get("accuracy") or {}).get(
            str(scenario.get("algorithm")), {}
        )
        state = str(cell.get("job_state"))
        badge = _badge(state, "ok" if state == "succeeded" else "fail")
        scenario_text = " ".join(
            f"{axis}={scenario[axis]}" for axis in sorted(scenario)
        )
        rows.append(
            [
                f'<span class="mono">{escape(str(cell.get("cell_id")))}</span>',
                escape(scenario_text),
                badge,
                _format_value(result["aggregate_error_rate"])
                if result.get("aggregate_error_rate") is not None
                else "—",
                _format_value(accuracy["per_strand"])
                if accuracy.get("per_strand") is not None
                else "—",
                _format_value(accuracy["per_character"])
                if accuracy.get("per_character") is not None
                else "—",
            ]
        )
    parts.append(
        _table(
            [
                "cell",
                "scenario",
                "state",
                "error rate",
                "per-strand %",
                "per-char %",
            ],
            rows,
            raw=True,
        )
    )
    return parts


def _run_health_section(inputs: RunInputs) -> str:
    parts = ["<section id=\"run-health\"><h2>Run health</h2>"]
    parts.extend(_chaos_health(inputs.chaos_sweeps))
    parts.extend(_test_summary_health(inputs.test_summaries))
    parts.append("</section>")
    return "".join(parts)


# ------------------------------------------------------------------ #
# Assembly
# ------------------------------------------------------------------ #


def build_dashboard_html(
    run_dir: str | Path | None = None,
    repo_root: str | Path | None = None,
    title: str = "dnasim observability dashboard",
) -> str:
    """Render the full dashboard document as one self-contained string.

    The output is a pure function of the discovered inputs: no clock, no
    randomness, deterministic iteration order — a fixed run directory
    renders byte-identically every time.
    """
    inputs = collect_run_inputs(run_dir)
    history = collect_bench_history(repo_root)
    nav = "".join(
        f'<a href="#{section}">{section.replace("-", " ")}</a>'
        for section in SECTION_IDS
    )
    provenance = []
    if run_dir is not None:
        provenance.append(f"run dir: {Path(run_dir).name or str(run_dir)}")
    if repo_root is not None:
        provenance.append("bench history: bench_history/")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{escape(title)}</title><style>{_STYLE}</style></head><body>"
        f"<h1>{escape(title)}</h1>"
        + (
            f"<p class=\"mono\">{escape(' · '.join(provenance))}</p>"
            if provenance
            else ""
        )
        + f"<nav>{nav}</nav>"
        + _bench_trajectory_section(history)
        + _flame_section(inputs.traces)
        + _metrics_section(inputs.metrics)
        + _sweep_section(inputs)
        + _run_health_section(inputs)
        + "</body></html>\n"
    )


def write_dashboard(
    out: str | Path = "dashboard.html",
    run_dir: str | Path | None = None,
    repo_root: str | Path | None = None,
    title: str = "dnasim observability dashboard",
) -> Path:
    """Generate the dashboard and write it to ``out``; returns the path."""
    out_path = Path(out)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        build_dashboard_html(run_dir=run_dir, repo_root=repo_root, title=title),
        encoding="utf-8",
    )
    return out_path
