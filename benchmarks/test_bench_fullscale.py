"""Full-scale memory/wall-time benchmark: streamed+sharded vs in-memory.

Measures the paper-scale dataset generation path (Section 3.2's 10,000
strands x 110 bases, ~270k reads) end to end through the real CLI —
``dnasim dataset --stream`` with a sharded default against the classic
materialise-everything path — and records both variants' wall time and
peak RSS to ``BENCH_fullscale.json`` at the repo root.

Each variant runs in its OWN subprocess so ``resource.getrusage``'s
``ru_maxrss`` is that variant's true high-water mark (a shared process
would report the max of both).  Workers are pinned to 1 in both children
so the comparison is apples to apples: with a process pool the streamed
variant's working set would partly live in pool workers, outside
``RUSAGE_SELF``.  A child's peak is its own ``VmHWM`` where Linux
reports one: ``ru_maxrss`` after ``exec`` also holds the peak of the
process that spawned it, so under pytest it read the test process's
peak whenever that was the larger (the streamed peak once moved from
52.8 to 59.8 MB with no code change).  The two variants run
:data:`REPEATS` times each, interleaved; every run must meet the
bounds, and the record keeps each measurement's median, min and max.

Scale defaults to ``REPRO_N_CLUSTERS`` like every bench; the committed
record is produced at the paper's 10,000 clusters with
``REPRO_BENCH_FULLSCALE_CLUSTERS=10000``, and only a run with that
variable set writes ``BENCH_fullscale.json`` and its
``bench_history/fullscale.jsonl`` line; any other run writes both under
its ``tmp_path``.  The memory assertion is
scale-aware: at small CI scales interpreter baseline dominates both
numbers, so only a loose ceiling is enforced; at paper scale the
streamed variant must stay strictly below the in-memory one.
"""

from __future__ import annotations

import filecmp
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.nanopore import PAPER_STRAND_LENGTH
from repro.observability.bench import assert_stamped, stamp_record
from repro.report.dashboard import committed_floor
from repro.report.history import append_record

#: Where a record run's record lands (the repo root, next to the other
#: BENCH files).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fullscale.json"

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Shards used by the streamed variant (bounds its working set to
#: ~n_clusters / shards clusters at a time).
BENCH_SHARDS = 32

#: Above this scale the dataset dwarfs the interpreter baseline and the
#: streamed variant must win on peak RSS outright.
STRICT_SCALE = 5_000

#: Loose ceiling applied at any scale: streaming must never cost more
#: than a sliver over the in-memory path even when both are dominated by
#: the ~50 MB interpreter baseline.  The value is the floor the
#: dashboard charts.
LOOSE_RSS_RATIO = committed_floor(
    "fullscale", "streamed / in-memory peak RSS ratio"
)

#: Strict ceiling at paper scale: the streamed high-water mark holds one
#: shard (~300 clusters) instead of all 10,000, so well under the
#: in-memory peak even with the baseline included.
STRICT_RSS_RATIO = 0.85

#: Runs of each variant.
REPEATS = 3

_CHILD_TEMPLATE = """\
import json, resource, sys, time
from repro.cli import main

started = time.perf_counter()
status = main({argv!r})
elapsed = time.perf_counter() - started
if status != 0:
    sys.exit(status)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    # On Linux ru_maxrss also holds the spawning process's peak, which
    # the child inherits at exec; VmHWM is this process's own peak.
    with open("/proc/self/status") as status_file:
        peak_kb = next(
            int(line.split()[1]) for line in status_file if line.startswith("VmHWM:")
        )
except (OSError, StopIteration):
    pass
print(json.dumps({{"wall_time_s": elapsed, "peak_rss_kb": peak_kb}}))
"""


def _scale() -> int:
    explicit = os.environ.get("REPRO_BENCH_FULLSCALE_CLUSTERS")
    if explicit:
        return int(explicit)
    return int(os.environ.get("REPRO_N_CLUSTERS", "200"))


def _record_root(tmp_path: Path) -> Path:
    """Where the record and its history line go: the repo root when
    ``REPRO_BENCH_FULLSCALE_CLUSTERS`` asks for a record run, else
    ``tmp_path``, so a run at the default scale never replaces the
    committed paper-scale record."""
    if os.environ.get("REPRO_BENCH_FULLSCALE_CLUSTERS"):
        return BENCH_JSON.parent
    return tmp_path


def _run_variant(argv: list[str], tmp_path: Path, name: str) -> dict:
    """Run one CLI invocation in a subprocess; return its measurements."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    environment["REPRO_WORKERS"] = "1"
    environment.pop("REPRO_FORCE_PARALLEL", None)
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_TEMPLATE.format(argv=argv)],
        capture_output=True,
        text=True,
        env=environment,
        cwd=tmp_path,
        timeout=3600,
    )
    assert completed.returncode == 0, (
        f"{name} variant failed:\n{completed.stdout}\n{completed.stderr}"
    )
    measurement = json.loads(completed.stdout.strip().splitlines()[-1])
    measurement["peak_rss_mb"] = round(measurement.pop("peak_rss_kb") / 1024, 1)
    measurement["wall_time_s"] = round(measurement["wall_time_s"], 2)
    return measurement


def _spread(values: list[float], digits: int) -> dict[str, float]:
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def _summary(runs: list[dict]) -> dict:
    """A variant's runs as the median (under the single-run keys), min
    and max of each measurement."""
    summary: dict = {"repeats": len(runs)}
    for key, digits in (("wall_time_s", 2), ("peak_rss_mb", 1)):
        spread = _spread([run[key] for run in runs], digits)
        summary[key] = spread["median"]
        summary[f"{key}_min"] = spread["min"]
        summary[f"{key}_max"] = spread["max"]
    return summary


def test_bench_fullscale_streamed_memory_is_bounded(tmp_path):
    n_clusters = _scale()
    streamed_path = tmp_path / "streamed.txt"
    inmemory_path = tmp_path / "inmemory.txt"
    common = ["--clusters", str(n_clusters), "--seed", "2"]

    streamed_runs: list[dict] = []
    inmemory_runs: list[dict] = []
    ratios: list[float] = []
    for _ in range(REPEATS):
        streamed = _run_variant(
            ["--shards", str(BENCH_SHARDS), "dataset", str(streamed_path)]
            + common
            + ["--stream"],
            tmp_path,
            "streamed",
        )
        # The unsharded baseline: the same streaming writer, but a single
        # shard — the whole dataset is materialised as one result before a
        # byte is written, exactly the classic in-memory working set, while
        # drawing from the same per-cluster seed streams so the outputs are
        # comparable byte for byte.
        inmemory = _run_variant(
            ["--shards", "1", "dataset", str(inmemory_path)] + common + ["--stream"],
            tmp_path,
            "in-memory",
        )

        # The sharded stream writes clusters in original index order, so the
        # two files must be byte-identical — the memory win is free.
        # (Compared in chunks: the datasets are ~30 MB each at paper scale.)
        assert filecmp.cmp(
            streamed_path, inmemory_path, shallow=False
        ), "streamed dataset differs from the in-memory dataset"

        ratio = streamed["peak_rss_mb"] / inmemory["peak_rss_mb"]
        assert ratio <= LOOSE_RSS_RATIO, (streamed, inmemory)
        if n_clusters >= STRICT_SCALE:
            assert ratio <= STRICT_RSS_RATIO, (streamed, inmemory)
        streamed_runs.append(streamed)
        inmemory_runs.append(inmemory)
        ratios.append(ratio)

    ratio_spread = _spread(ratios, 3)
    record = stamp_record(
        {
            "n_clusters": n_clusters,
            "strand_length": PAPER_STRAND_LENGTH,
            "shards": BENCH_SHARDS,
            "workers": 1,
            "cpu_count": os.cpu_count(),
            "dataset_bytes": streamed_path.stat().st_size,
            "streamed": _summary(streamed_runs),
            "in_memory": _summary(inmemory_runs),
            "rss_ratio": ratio_spread["median"],
            "rss_ratio_min": ratio_spread["min"],
            "rss_ratio_max": ratio_spread["max"],
        }
    )
    assert_stamped(record)
    record_root = _record_root(tmp_path)
    (record_root / BENCH_JSON.name).write_text(json.dumps(record, indent=2) + "\n")
    append_record(record, "fullscale", root=record_root)
    streamed, inmemory = record["streamed"], record["in_memory"]
    print(
        f"\nfullscale ({n_clusters} clusters, median of {REPEATS}): streamed "
        f"{streamed['peak_rss_mb']} MB / {streamed['wall_time_s']}s vs "
        f"in-memory {inmemory['peak_rss_mb']} MB / {inmemory['wall_time_s']}s"
    )
