"""E-FS — the paper-scale sharded pipeline run.

The paper's evaluation dataset is 10,000 strands × 110 bases with
~270k noisy reads (Section 3.2); the other experiments default to small
scales because they materialise everything.  This runner executes the
whole generate → profile → reconstruct → score pipeline through
:func:`repro.sharding.run_fullscale` — shard by shard, in bounded
memory — and reports the merged channel statistics and reconstruction
accuracy plus the wall time.

Scale defaults to ``REPRO_N_CLUSTERS`` like every experiment; pass
``--clusters 10000`` (with ``--shards``/``--workers``) for the paper
scale.  EXPERIMENTS.md records measured full-scale wall-time and
peak-RSS figures.
"""

from __future__ import annotations

import time

from repro.experiments.common import DATASET_SEED, format_table, percent
from repro.sharding import run_fullscale

#: Algorithms scored at full scale.  BMA is the paper's main algorithm;
#: positional majority rides along as the fast baseline.
ALGORITHMS = ("majority", "bma")


def run(n_clusters: int | None = None, verbose: bool = True) -> dict:
    """Run the sharded full-scale pipeline; returns its merged summary."""
    from repro.experiments.common import DEFAULT_N_CLUSTERS

    scale = n_clusters if n_clusters is not None else DEFAULT_N_CLUSTERS
    started = time.perf_counter()
    result = run_fullscale(
        n_clusters=scale, seed=DATASET_SEED, algorithms=ALGORITHMS
    )
    elapsed = time.perf_counter() - started
    summary = result.summary()
    summary["wall_time_s"] = round(elapsed, 3)

    if verbose:
        print(
            f"Full-scale sharded pipeline: {result.n_clusters} clusters x "
            f"{result.strand_length} bases, {result.n_reads} reads "
            f"({result.n_shards} shard(s), {result.workers} worker(s), "
            f"{elapsed:.1f}s)"
        )
        print(
            f"channel: aggregate error "
            f"{result.aggregate_error_rate * 100:.2f}%  mean coverage "
            f"{result.mean_coverage:.2f}  erasures {result.n_erasures}"
        )
        print(
            format_table(
                ["Algorithm", "Per-strand (%)", "Per-char (%)"],
                [
                    [name, percent(report.per_strand), percent(report.per_character)]
                    for name, report in result.accuracy.items()
                ],
            )
        )
    return summary


if __name__ == "__main__":
    run()
