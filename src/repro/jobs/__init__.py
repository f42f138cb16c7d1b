"""Durable, checkpointed, resumable job execution.

The sharded full-scale runner (:mod:`repro.sharding.runner`) made the
paper-scale pipeline *computable*; this package makes it *survivable*.
A :class:`JobSpec` describes one unit of long-running work — the
full-scale pipeline or an experiment runner, plus its retry/watchdog/
partial-result envelope.  A :class:`~repro.jobs.journal.JobJournal`
persists everything the run learns (state machine position, per-shard
checkpoints, an append-only event log) with atomic fsync'd writes, and
the :class:`~repro.jobs.engine.JobEngine` supervises worker processes
against it.  Kill the engine at any instant — SIGKILL included — and
``resume`` replays completed shards from checkpoints and re-runs only
the rest, producing **bit-identical** merged output, because shard
execution is pure and the merge is associative.

``dnasim jobs`` exposes submit/status/resume/cancel on the command line
with distinct exit codes per outcome.
"""

from repro.jobs.backoff import DecorrelatedJitter, backoff_schedule
from repro.jobs.engine import JobEngine, resume_job, run_job
from repro.jobs.journal import JOBS_DIR_ENV, JobJournal, default_jobs_root
from repro.jobs.spec import (
    EXIT_CODES,
    FULLSCALE_WORKLOAD,
    JOURNAL_FORMAT_VERSION,
    JobResult,
    JobSpec,
    JobState,
    QuarantinedShard,
    VALID_TRANSITIONS,
    check_transition,
    exit_code_for,
)

__all__ = [
    "DecorrelatedJitter",
    "EXIT_CODES",
    "FULLSCALE_WORKLOAD",
    "JOBS_DIR_ENV",
    "JOURNAL_FORMAT_VERSION",
    "JobEngine",
    "JobJournal",
    "JobResult",
    "JobSpec",
    "JobState",
    "QuarantinedShard",
    "VALID_TRANSITIONS",
    "backoff_schedule",
    "check_transition",
    "default_jobs_root",
    "exit_code_for",
    "resume_job",
    "run_job",
]
