"""Write ``BENCH_pipeline.json``: the whole pipeline at paper shape.

Runs the end-to-end harness (``benchmarks/e2e/run.py``, unmodified) on
``eval_pseudo`` at seed 2 and scale 125, which is the paper's shape:
10,000 clusters of 110 nt at ~27 reads each, through generate, profile
fit, curves, BMA and Iterative.  The harness runs twice:

* three untraced repeats, for the median, min and max of ``wall_s``,
  ``setup_s`` and ``peak_rss_mb``;
* one traced run, for the stage self-times of the flame rollup and the
  ``kernel.calls`` counts.

The stamped record is written to ``BENCH_pipeline.json`` and appended to
``bench_history/pipeline.jsonl`` (one line per SHA).  Run it from a clean
checkout, so the stamp names the SHA it measured (a few minutes on a
2-vCPU host)::

    python3 benchmarks/record_pipeline.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "benchmarks" / "e2e" / "run.py"
RECORD = ROOT / "BENCH_pipeline.json"
WORKLOAD = "eval_pseudo"
SHAPE = ["--workload", WORKLOAD, "--seed", "2", "--scale", "125", "--seconds", "0"]


def harness(*extra: str) -> dict:
    """One harness run's ``--json`` record; a failed repeat raises."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"
        subprocess.run(
            [sys.executable, str(HARNESS), *SHAPE, *extra, "--json", str(out)],
            cwd=ROOT,
            check=True,
        )
        return json.loads(out.read_text())


def main() -> int:
    untraced_args = ["--repeats", "3"]
    traced_args = ["--trace", "1"]
    untraced = harness(*untraced_args)
    traced = harness(*traced_args)
    run = untraced["workloads"][WORKLOAD]
    layers = traced["workloads"][WORKLOAD]["per_layer"]

    sys.path.insert(0, str(ROOT / "src"))
    from repro.observability.bench import stamp_record
    from repro.report.history import append_record

    record = stamp_record(
        {
            "workload": WORKLOAD,
            "commands": [
                ["benchmarks/e2e/run.py", *SHAPE, *untraced_args, "--json"],
                ["benchmarks/e2e/run.py", *SHAPE, *traced_args, "--json"],
            ],
            "cpu_count": untraced["environment"]["cpu_count"],
            "environment": untraced["environment"],
            "digest": run["digest"],
            "counts": run["counts"],
            "end_to_end": run["end_to_end"],
            "repeats": run["repeats"],
            "stage_self_s": {
                name: value for name, value in layers.items() if name.startswith("span.")
            },
            "kernel_calls": {
                name.rsplit(".", 1)[-1]: value
                for name, value in layers.items()
                if name.startswith("align.kernel_calls.")
            },
            "per_layer": layers,
        }
    )
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    history = append_record(record, "pipeline", root=ROOT)
    print(f"record_pipeline.py: wrote {RECORD.name} and {history.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
