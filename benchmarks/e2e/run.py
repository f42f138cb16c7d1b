"""End-to-end benchmark of the DNA-storage simulation pipeline.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload eval_pseudo --seed 2 --seconds 20

Each workload is one client in a closed loop: a batch job whose repeats
run one after another, each in a fresh interpreter (``workloads.py``) with
``REPRO_*`` cleared and ``REPRO_CACHE=off``.  Repeats continue until at
least ``--repeats`` have run and the next one would overrun ``--seconds``;
with ``--workload all`` the repeats go round-robin across workloads.  The
end-to-end metrics are the best (lowest) value over the repeats:

* ``wall_s``      -- the timed pipeline;
* ``setup_s``     -- process spawn until the inputs are ready;
* ``peak_rss_mb`` -- peak RSS of the repeat's process or its pool workers.

The best repeat, not the median, because on a shared host a co-tenant
can slow the core up to 2x for seconds to minutes at a time: over ten
runs the median repeat spread 20% (first to third quartile) and the best
repeat 5%.  ``--json`` keeps the median, max and count as well.

``--trace 1`` adds one traced repeat per workload and reports its
per-layer metrics instead.  Every repeat's outputs are checked (named
checks, digests equal across repeats, and equal to the digests pinned in
``results.json`` at seed 2, scale 1); any failure exits 1.  Metric lines
are ``<workload> <metric> <value> <unit>``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results.json"
CHILD = HERE / "workloads.py"
SOURCE = ROOT / "src" / "repro"

#: A repeat that runs longer than this counts as failed.
REPEAT_TIMEOUT_S = 120

#: Digests in ``results.json`` are pinned for this seed at scale 1.
PINNED_SEED = 2

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: Which end-to-end metrics each per-layer metric should move, and the
#: workload that shows it (the others do little or none of that work).
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "align.edit_operations.calls": ("eval_pseudo", ("wall_s", "setup_s")),
    "align.edit_operations.s": ("eval_pseudo", ("wall_s", "setup_s")),
    "align.edit_operations.us_per_call": ("eval_pseudo", ("wall_s", "setup_s")),
    "align.matching_blocks.calls": ("eval_pseudo", ("wall_s",)),
    "align.matching_blocks.s": ("eval_pseudo", ("wall_s",)),
    "align.matching_blocks.cache_hit_frac": ("eval_pseudo", ("wall_s",)),
    "align.banded_distances.calls": ("cluster_readout", ("wall_s",)),
    "align.banded_distances.pairs": ("cluster_readout", ("wall_s",)),
    "align.banded_distances.s": ("cluster_readout", ("wall_s",)),
    "align.kernel_calls.edit": ("cluster_readout", ("wall_s",)),
    "align.kernel_calls.banded": ("cluster_readout", ("wall_s",)),
    "align.kernel_calls.batch": ("cluster_readout", ("wall_s",)),
    "cluster.greedy_s": ("cluster_readout", ("wall_s",)),
    "cluster.comparisons_per_read": ("cluster_readout", ("wall_s", "peak_rss_mb")),
    "cluster.useful_frac": ("cluster_readout", ("wall_s",)),
    "cluster.purity": ("cluster_readout", ("wall_s",)),
    "profile.fit_s": ("eval_pseudo", ("wall_s", "setup_s")),
    "simulate.s": ("simulate_bulk", ("wall_s",)),
    "simulate.wait_s": ("simulate_bulk", ("wall_s",)),
    "simulate.reads_per_s": ("simulate_bulk", ("wall_s",)),
    "channel.transmit_many.calls": ("archive_roundtrip", ("wall_s",)),
    "channel.transmit_many.s": ("archive_roundtrip", ("wall_s",)),
    "io.write_s": ("simulate_bulk", ("wall_s", "peak_rss_mb")),
    "io.mb_per_s": ("simulate_bulk", ("wall_s", "peak_rss_mb")),
    "reconstruct.iterative_s": ("eval_pseudo", ("wall_s",)),
    "reconstruct.bma_s": ("archive_roundtrip", ("wall_s",)),
    "reconstruct.majority_s": ("cluster_readout", ("wall_s",)),
    "curves.s": ("eval_pseudo", ("wall_s",)),
    "archive.write_s": ("archive_roundtrip", ("wall_s",)),
    "archive.read_s": ("archive_roundtrip", ("wall_s",)),
    "pipeline.rs_decode.calls": ("archive_roundtrip", ("wall_s",)),
    "pipeline.rs_decode.s": ("archive_roundtrip", ("wall_s",)),
    "archive.erasures": ("archive_roundtrip", ("wall_s",)),
    "archive.corrected": ("archive_roundtrip", ("wall_s",)),
    "span.profile_fit.self_s": ("eval_pseudo", ("wall_s", "setup_s")),
    "span.simulate_stream.self_s": ("simulate_bulk", ("wall_s",)),
    "span.reconstruct.self_s": ("eval_pseudo", ("wall_s",)),
    "span.cluster.greedy.self_s": ("cluster_readout", ("wall_s",)),
    "observability.noop_event_ns": ("eval_pseudo", ("wall_s",)),
    "observability.trace_overhead_frac": ("eval_pseudo", ("wall_s",)),
    "observability.span_coverage_frac": ("eval_pseudo", ("wall_s",)),
}


def child_environment() -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, with the
    context cache off and only this checkout's ``src`` importable."""
    environment = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    environment["REPRO_CACHE"] = "off"
    environment["PYTHONPATH"] = str(ROOT / "src")
    return environment


def run_repeat(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """Spawn one repeat and wait for it; never raises for a bad repeat.

    The repeat gets its own process group, so a timeout also kills any
    pool workers it started.  ``perf_counter`` is the system-wide
    monotonic clock, so the child's set-up end minus this spawn time is
    the set-up time including interpreter start and imports.
    """
    command = [
        sys.executable, str(CHILD), workload, str(seed), repr(scale), str(int(trace))
    ]
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_environment(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timed out after {REPEAT_TIMEOUT_S} s"}
    elapsed = time.perf_counter() - spawned
    if process.returncode != 0:
        return {"error": f"exit {process.returncode}: {stderr.strip()[-2000:]}"}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"no result line in output: {stdout[-500:]!r}"}
    result["setup_s"] = result.pop("setup_end") - spawned
    result["elapsed_s"] = elapsed
    failed = [name for name, ok in result["checks"].items() if not ok]
    if failed:
        result["error"] = "failed checks: " + "; ".join(failed)
    return result


def pinned_digests(seed: int, scale: float) -> dict[str, str]:
    if seed != PINNED_SEED or scale != 1.0 or not RESULTS.exists():
        return {}
    return json.loads(RESULTS.read_text()).get("digests", {})


class WorkloadRun:
    """The repeats of one workload within one invocation."""

    def __init__(self, name: str, expected_digest: str | None) -> None:
        self.name = name
        self.expected_digest = expected_digest
        self.repeats: list[dict] = []
        self.traced: dict | None = None
        self.failures: list[str] = []
        self.elapsed_s = 0.0

    def add(self, result: dict, traced: bool = False) -> None:
        if traced:
            self.traced = result
        else:
            self.repeats.append(result)
            self.elapsed_s += result.get("elapsed_s", 0.0)
        if "error" not in result:
            expected = self.expected_digest or self.digest
            if expected is not None and result["digest"] != expected:
                result["error"] = (
                    f"output digest {result['digest']} != expected {expected}"
                )
        if "error" in result:
            kind = "traced repeat" if traced else "repeat"
            self.failures.append(f"{self.name} {kind}: {result['error']}")

    @property
    def digest(self) -> str | None:
        for result in self.repeats:
            if "error" not in result:
                return result["digest"]
        return None

    def wants_more(self, repeats: int, seconds: float) -> bool:
        if self.failures:
            return False
        if len(self.repeats) < repeats:
            return True
        return self.elapsed_s + self.repeats[-1]["elapsed_s"] <= seconds

    def good(self) -> list[dict]:
        return [result for result in self.repeats if "error" not in result]

    def end_to_end(self) -> dict[str, dict]:
        summary = {}
        for metric in END_TO_END:
            values = [result[metric] for result in self.good()]
            if values:
                summary[metric] = {
                    "median": statistics.median(values),
                    "min": min(values),
                    "max": max(values),
                    "n": len(values),
                }
        return summary

    def per_layer(self) -> dict[str, float]:
        if self.traced is None or "error" in self.traced or not self.good():
            return {}
        layers = dict(self.traced["layers"])
        untraced = min(result["wall_s"] for result in self.good())
        layers["observability.trace_overhead_frac"] = (
            self.traced["wall_s"] / untraced - 1.0
        )
        return layers


def parse_args(workload_names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulation pipeline.",
    )
    parser.add_argument(
        "--workload", choices=[*workload_names, "all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="measuring budget per workload: no repeat starts that would "
        "end past it, once --repeats have run",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="minimum untraced repeats"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies every input size"
    )
    parser.add_argument(
        "--json", type=Path, help="also write the full record to this file"
    )
    return parser.parse_args()


def main() -> int:
    if not MANIFEST.is_file() or not SOURCE.is_dir():
        print(
            f"run.py: needs {MANIFEST.name} and src/repro beside it; run it "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    manifest = json.loads(MANIFEST.read_text())
    workload_names = [workload["name"] for workload in manifest["workloads"]]
    args = parse_args(workload_names)
    names = workload_names if args.workload == "all" else [args.workload]
    pinned = pinned_digests(args.seed, args.scale)
    runs = [WorkloadRun(name, pinned.get(name)) for name in names]

    pending = list(runs)
    while pending:
        for run in pending:
            run.add(run_repeat(run.name, args.seed, args.scale, False))
        pending = [
            run for run in pending if run.wants_more(args.repeats, args.seconds)
        ]
    if args.trace:
        for run in runs:
            if not run.failures:
                run.add(run_repeat(run.name, args.seed, args.scale, True), True)

    units = {
        metric["name"]: metric["unit"]
        for metric in manifest["end_to_end"] + manifest["per_layer"]
    }
    reported: dict[str, dict] = {}
    for run in runs:
        values = {
            metric: summary["min"]
            for metric, summary in run.end_to_end().items()
        }
        if args.trace:
            values.update(run.per_layer())
        for metric in units:
            if metric in values:
                print(f"{run.name} {metric} {values[metric]!r} {units[metric]}")
        wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
        for metric in wanted:
            if metric["name"] in values:
                key = metric["name"] if len(runs) == 1 else f"{run.name}.{metric['name']}"
                reported[key] = {
                    "value": values[metric["name"]],
                    "unit": metric["unit"],
                }

    failures = [failure for run in runs for failure in run.failures]
    for failure in failures:
        print(f"run.py: {failure}", file=sys.stderr)
    attempted = sum(len(run.repeats) + (run.traced is not None) for run in runs)
    if args.json:
        write_record(args, runs, failures)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": reported,
            }
        )
    )
    return 0 if not failures else 1


def write_record(
    args: argparse.Namespace, runs: list[WorkloadRun], failures: list[str]
) -> None:
    """The full record: settings, environment, every repeat's numbers."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.observability.bench import stamp_record

    environment = next(
        (result["environment"] for run in runs for result in run.good()), {}
    )
    record = stamp_record(
        {
            "settings": {
                "seed": args.seed,
                "scale": args.scale,
                "seconds": args.seconds,
                "repeats": args.repeats,
                "trace": args.trace,
            },
            "environment": environment,
            "failures": failures,
            "workloads": {
                run.name: {
                    "end_to_end": run.end_to_end(),
                    "per_layer": run.per_layer(),
                    "digest": run.digest,
                    "counts": run.good()[0]["counts"] if run.good() else {},
                    "repeats": [
                        {
                            key: result.get(key)
                            for key in ("wall_s", "setup_s", "peak_rss_mb", "error")
                        }
                        for result in run.repeats
                    ],
                }
                for run in runs
            },
        }
    )
    args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
