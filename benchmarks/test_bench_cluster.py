"""Clustering at paper shape: greedy clustering's cost as the read-out grows.

The paper clusters an unordered read-out of 269,709 reads (Sections
1.1.2 and 3.1).  This bench clusters ``cluster_readout``-shaped
read-outs at three sizes: the Nanopore-like dataset of seed 2, shuffled,
cut to a fixed read budget.  At the record scale the sizes are 5,500,
22,000 and 55,000 reads, from 240, 960 and 2,400 clusters.  For each
size it records the comparisons (and comparisons per read), the purity
against the true clusters, the clustering wall time, and the peak RSS.

Each read-out runs in its own child process, as in
``test_bench_fullscale.py``, so that the peak is that run's own: the
child's ``VmHWM`` where Linux reports one, else ``ru_maxrss``.  The child
also reports its RSS just before clustering, so the record shows what
clustering adds on top of the read-out.

``REPRO_BENCH_CLUSTER_SCALE`` scales the three sizes (default 0.1: 550,
2,200 and 5,500 reads).  Only a run with the variable set writes
``BENCH_cluster.json`` and its ``bench_history/cluster.jsonl`` line at
the repo root; any other run writes both under its ``tmp_path``.  The
committed record is taken with ``REPRO_BENCH_CLUSTER_SCALE=1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.observability.bench import assert_stamped, stamp_record
from repro.report.history import append_record

#: Where a record run's record lands (the repo root, next to the other
#: BENCH files).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SEED = 2

#: ``cluster_readout``'s shape at scale 1: reads kept from a dataset of
#: this many clusters.
READOUT_READS = 5_500
READOUT_CLUSTERS = 240

#: Read-out sizes, as multiples of ``cluster_readout``'s.
FACTORS = (1, 4, 10)

#: The default scale: 550, 2,200 and 5,500 reads.
DEFAULT_SCALE = 0.1

#: Comparisons greedy clustering makes on the record-scale read-outs.
#: The candidate set decides the output, so a change here is a change to
#: which reads the sweep compares (ROADMAP item 9(c)).
RECORD_COMPARISONS = {5_500: 40_565, 22_000: 589_331, 55_000: 3_585_236}

#: This bench at ``c66a9b7``, when greedy signed the whole read-out
#: before its sweep: a 2-CPU host, one run per size, and the same
#: comparisons.  Kept in the record beside the figures it measures.
SIGNED_UP_FRONT = {
    "git_sha": "c66a9b7",
    "peak_rss_mb": {"5500": 77.8, "22000": 193.4, "55000": 404.8},
    "wall_s": {"5500": 0.58, "22000": 4.15, "55000": 18.65},
}

_CHILD_TEMPLATE = """\
import json, random, resource, time
from repro.cluster.greedy import GreedyClusterer
from repro.cluster.pseudo import clustering_accuracy, flatten_with_labels, shuffle_reads
from repro.data.nanopore import make_nanopore_dataset


def status_kb(field):
    try:
        with open("/proc/self/status") as status_file:
            return next(
                int(line.split()[1]) for line in status_file if line.startswith(field + ":")
            )
    except (OSError, StopIteration):
        return None


pool = make_nanopore_dataset(n_clusters={n_clusters}, seed={seed})
reads = shuffle_reads(flatten_with_labels(pool), random.Random({seed}))[:{n_reads}]
sequences = [read.sequence for read in reads]
before_kb = status_kb("VmRSS")
started = time.perf_counter()
result = GreedyClusterer().cluster(sequences)
elapsed = time.perf_counter() - started
# On Linux ru_maxrss also holds the spawning process's peak, which the
# child inherits at exec; VmHWM is this process's own peak.
peak_kb = status_kb("VmHWM") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "reads": len(sequences),
    "assigned": len(result.assignments),
    "predicted_clusters": result.n_clusters,
    "comparisons": result.comparisons,
    "purity": clustering_accuracy(result.assignments, reads),
    "wall_s": elapsed,
    "rss_before_kb": before_kb,
    "peak_rss_kb": peak_kb,
}}))
"""


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_CLUSTER_SCALE", DEFAULT_SCALE))


def _record_root(tmp_path: Path) -> Path:
    """The repo root when ``REPRO_BENCH_CLUSTER_SCALE`` asks for a record
    run, else ``tmp_path``, so a default run never replaces the committed
    record."""
    if os.environ.get("REPRO_BENCH_CLUSTER_SCALE"):
        return BENCH_JSON.parent
    return tmp_path


def _cluster_readout(n_clusters: int, n_reads: int, tmp_path: Path) -> dict:
    """Cluster one read-out in a child process; return its measurements."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    script = _CHILD_TEMPLATE.format(n_clusters=n_clusters, n_reads=n_reads, seed=SEED)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=environment,
        cwd=tmp_path,
        timeout=3600,
    )
    assert completed.returncode == 0, completed.stderr
    run = json.loads(completed.stdout.strip().splitlines()[-1])
    before_kb = run.pop("rss_before_kb")
    run["clusters_in_dataset"] = n_clusters
    run["comparisons_per_read"] = round(run["comparisons"] / max(run["reads"], 1), 2)
    run["purity"] = round(run["purity"], 6)
    run["wall_s"] = round(run["wall_s"], 2)
    run["peak_rss_mb"] = round(run.pop("peak_rss_kb") / 1024, 1)
    run["rss_before_mb"] = round(before_kb / 1024, 1) if before_kb else None
    return run


def test_bench_cluster_readouts(tmp_path):
    scale = _scale()
    runs = []
    for factor in FACTORS:
        n_reads = max(1, round(READOUT_READS * factor * scale))
        n_clusters = max(1, round(READOUT_CLUSTERS * factor * scale))
        run = _cluster_readout(n_clusters, n_reads, tmp_path)
        assert run.pop("assigned") == run["reads"] == n_reads, run
        assert run["purity"] >= 0.99, run
        if scale == 1:
            assert run["comparisons"] == RECORD_COMPARISONS[n_reads], run
        runs.append(run)

    record = stamp_record(
        {
            "seed": SEED,
            "scale": scale,
            "cpu_count": os.cpu_count(),
            "readouts": runs,
            "largest": runs[-1],
            "signed_up_front": SIGNED_UP_FRONT,
        }
    )
    assert_stamped(record)
    record_root = _record_root(tmp_path)
    (record_root / BENCH_JSON.name).write_text(json.dumps(record, indent=2) + "\n")
    append_record(record, "cluster", root=record_root)
    print()
    for run in runs:
        print(
            f"cluster {run['reads']} reads: {run['comparisons']} comparisons "
            f"({run['comparisons_per_read']}/read), purity {run['purity']}, "
            f"{run['wall_s']} s, peak {run['peak_rss_mb']} MB"
        )
