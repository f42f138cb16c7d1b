"""Sharded, streaming execution of the pipeline at paper scale.

The paper's evaluation dataset is 10,000 strands of length 110 with
~270k noisy reads; materialising the whole archive, read pool, and every
stage's intermediate state at once is what kept the experiments at small
default scales.  This package closes that gap:

* :mod:`repro.sharding.plan` — deterministic shard assignment
  (order-preserving contiguous ranges, :func:`split_contiguous`), plus
  the ``REPRO_SHARDS``/``--shards`` default resolution;
* :mod:`repro.sharding.runner` — :func:`run_fullscale`, the full-scale
  pipeline: per-shard generate → profile → reconstruct → score tasks on
  :func:`repro.parallel.parallel_stream`, whose summaries it folds in
  shard order as they arrive (:meth:`ErrorStatistics.merge
  <repro.analysis.error_stats.ErrorStatistics.merge>`,
  :meth:`AccuracyTally.merge
  <repro.metrics.accuracy.AccuracyTally.merge>`), so peak memory is
  bounded by the shards in flight, not the archive.

Shards act only where they bound memory: streamed generation, the
full-scale runner and the sweep ``shards`` axis.  Their results are
identical at every shard count.  In-memory stages accept a ``shards=``
keyword and ignore it.
"""

from repro.sharding.plan import (
    SHARDS_ENV,
    batched,
    default_shards,
    resolve_shards,
    set_default_shards,
    split_contiguous,
)

#: Runner symbols resolved lazily (PEP 562): the runner pulls in the
#: reconstruction stack, and every stage module imports this package for
#: plan machinery alone — eager re-export would make that import heavy
#: and circular.
_RUNNER_EXPORTS = ("FullScaleResult", "run_fullscale", "run_shard")


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.sharding import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SHARDS_ENV",
    "batched",
    "default_shards",
    "resolve_shards",
    "set_default_shards",
    "split_contiguous",
    "FullScaleResult",
    "run_fullscale",
    "run_shard",
]
