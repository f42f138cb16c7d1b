"""Calibrate the benchmark's noise and record its results.

    python3 benchmarks/e2e/calibrate.py [--runs 10] [--out results.json]

Runs two independent sets.  In each set every workload runs ``--runs``
times exactly as ``BENCHMARK.json``'s command is run (seeds 1..runs,
workloads round-robin), plus one traced run per workload at seed 2.  For
each end-to-end metric it reports the spread of the run medians (the
distance between the first and third quartile as a share of the median)
and how much the second set's median is worse than the first's, and
checks both against the metric's bound: every spread except ``setup_s``
must stay under a third of the bound, and no median may worsen by more
than the bound.  Count-type per-layer metrics and the output digests must
be identical between the sets.  Writes everything to ``--out`` and exits
1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def invoke(manifest: dict, workload: str, seed: int, trace: bool, record: Path):
    command = [
        *manifest["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", str(int(trace)),
        "--json", str(record),
    ]
    completed = subprocess.run(
        command, cwd=run.ROOT, capture_output=True, text=True, timeout=180
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if completed.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stderr}")
    return result, json.loads(record.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def is_count(metric: dict) -> bool:
    """Counts (``count``, ``count/read``) must repeat exactly."""
    return metric["unit"].startswith("count")


def run_set(manifest: dict, runs: int, scratch: Path) -> dict:
    names = [workload["name"] for workload in manifest["workloads"]]
    values: dict[str, dict[str, list[float]]] = {
        name: {metric["name"]: [] for metric in manifest["end_to_end"]}
        for name in names
    }
    for seed in range(1, runs + 1):
        for name in names:
            result, _ = invoke(manifest, name, seed, False, scratch)
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"  seed {seed} {name}: {result['metrics']['wall_s']['value']:.3f} s")
    traced = {}
    for name in names:
        result, record = invoke(manifest, name, run.PINNED_SEED, True, scratch)
        traced[name] = {
            "per_layer": {
                metric: entry["value"] for metric, entry in result["metrics"].items()
            },
            "end_to_end": record["workloads"][name]["end_to_end"],
            "digest": record["workloads"][name]["digest"],
            "environment": record["environment"],
        }
    return {
        "end_to_end": {
            name: {metric: spread(series) for metric, series in metrics.items()}
            for name, metrics in values.items()
        },
        "traced_seed_2": traced,
    }


def verdict(manifest: dict, sets: list[dict]) -> tuple[dict, list[str]]:
    problems: list[str] = []
    table: dict[str, dict] = {}
    first, second = sets
    for workload in first["end_to_end"]:
        table[workload] = {}
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = first["end_to_end"][workload][name]
            b = second["end_to_end"][workload][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            widest = max(a["spread"], b["spread"])
            table[workload][name] = {
                "bound": bound,
                "spread_max": widest,
                "second_median_worse_by": worse,
            }
            if name != "setup_s" and widest >= bound / 3:
                problems.append(
                    f"{workload} {name}: spread {widest:.4f} >= bound/3"
                )
            if worse > bound:
                problems.append(
                    f"{workload} {name}: second median worse by {worse:.4f}"
                )
        traced_a = first["traced_seed_2"][workload]
        traced_b = second["traced_seed_2"][workload]
        if traced_a["digest"] != traced_b["digest"]:
            problems.append(f"{workload}: output digests differ between sets")
        for metric in manifest["per_layer"]:
            if is_count(metric):
                name = metric["name"]
                if traced_a["per_layer"][name] != traced_b["per_layer"][name]:
                    problems.append(f"{workload} {name}: counts differ between sets")
    return table, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=run.RESULTS)
    args = parser.parse_args()
    manifest = json.loads(run.MANIFEST.read_text())
    scratch = run.ROOT / ".e2e-work-calibrate.json"
    sets = []
    try:
        for index in (1, 2):
            print(f"set {index}")
            sets.append(run_set(manifest, args.runs, scratch))
    finally:
        scratch.unlink(missing_ok=True)
    table, problems = verdict(manifest, sets)
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print(
                f"{workload:18} {name:12} bound {row['bound']:.2f} "
                f"spread {row['spread_max']:.4f} "
                f"median change {row['second_median_worse_by']:+.4f}"
            )
    for problem in problems:
        print(f"calibrate.py: {problem}", file=sys.stderr)
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.observability.bench import stamp_record

    first = sets[0]["traced_seed_2"]
    record = stamp_record(
        {
            "protocol": {
                "runs_per_set": args.runs,
                "seeds": f"1..{args.runs}",
                "run_seconds": manifest["run_seconds"],
                "command": manifest["command"],
            },
            "environment": next(iter(first.values()))["environment"],
            "bounds": {m["name"]: m["bound"] for m in manifest["end_to_end"]},
            "verdict": table,
            "problems": problems,
            "digests": {name: traced["digest"] for name, traced in first.items()},
            "sets": sets,
        }
    )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
