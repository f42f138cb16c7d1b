"""Job specifications and the durable-job state machine.

A :class:`JobSpec` is the complete, JSON-serialisable description of one
unit of long-running work: the workload (the sharded full-scale pipeline
or one of the experiment runners), its scale and seed, the shard layout,
and the robustness envelope (retry attempts, backoff, watchdog deadline,
partial-result policy).  Everything the engine does is a pure function
of the spec plus the journal, which is what makes a crashed job
resumable: re-reading ``job.json`` after a kill reconstructs exactly the
run that was in flight.

The state machine is deliberately small::

    PENDING ──> RUNNING ──┬──> SUCCEEDED
                 ^  │     ├──> FAILED
                 │  v     └──> CANCELLED
               RETRYING ──> DEGRADED ──> (SUCCEEDED | FAILED | CANCELLED)

``RETRYING`` means at least one shard attempt failed and a seeded-backoff
retry is pending or in flight; ``DEGRADED`` means at least one shard has
been quarantined (retries exhausted) and the job is continuing toward a
partial result.  A resume re-enters ``RUNNING`` from any non-``SUCCEEDED``
state — including a stale ``RUNNING`` left behind by a SIGKILL.
"""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

from repro.exceptions import ConfigError, JobError

#: Bump whenever the journal layout or checkpoint payload encoding
#: changes meaning: a journal written by older code must be rejected
#: rather than silently mis-read.
JOURNAL_FORMAT_VERSION = 1

#: The workload name of the sharded full-scale pipeline.
FULLSCALE_WORKLOAD = "fullscale"

#: Prefix for experiment-runner workloads (``experiment:fig_3_3`` runs
#: ``repro.experiments.fig_3_3.run`` as a single checkpointed unit).
EXPERIMENT_PREFIX = "experiment:"

#: Spec fields of older journals that no longer exist.  Every value they
#: could hold gave the same bytes, so :meth:`JobSpec.from_json` drops them.
RETIRED_FIELDS = frozenset({"align_backend", "channel_backend"})


class JobState(str, Enum):
    """Where a job is in its lifecycle (persisted verbatim in job.json)."""

    PENDING = "pending"
    RUNNING = "running"
    RETRYING = "retrying"
    DEGRADED = "degraded"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the engine considers the job finished in this state."""
        return self in _TERMINAL_STATES


_TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED}
)

#: Legal transitions.  Self-loops on the active states let a resumed
#: engine re-assert ``RUNNING`` over a stale journal, and the terminal
#: ``FAILED``/``CANCELLED`` states re-open to ``RUNNING`` on resume;
#: ``SUCCEEDED`` is final — resuming a succeeded job replays its result
#: from checkpoints without re-entering the machine.
VALID_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.PENDING: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {
            JobState.RUNNING,
            JobState.RETRYING,
            JobState.DEGRADED,
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.CANCELLED,
        }
    ),
    JobState.RETRYING: frozenset(
        {
            JobState.RUNNING,
            JobState.RETRYING,
            JobState.DEGRADED,
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.CANCELLED,
        }
    ),
    JobState.DEGRADED: frozenset(
        {
            JobState.RUNNING,
            JobState.RETRYING,
            JobState.DEGRADED,
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.CANCELLED,
        }
    ),
    JobState.SUCCEEDED: frozenset(),
    JobState.FAILED: frozenset({JobState.RUNNING}),
    JobState.CANCELLED: frozenset({JobState.RUNNING}),
}


def check_transition(current: JobState, target: JobState) -> None:
    """Validate a state-machine edge.

    Raises:
        JobError: when the transition is not in the machine.
    """
    if target not in VALID_TRANSITIONS[current]:
        raise JobError(
            f"invalid job state transition {current.value!r} -> "
            f"{target.value!r}"
        )


@dataclass(frozen=True)
class JobSpec:
    """The durable description of one job (what ``job.json`` stores).

    Attributes:
        job_id: unique journal-directory name for the job.
        workload: ``"fullscale"`` (sharded, checkpointed per shard) or
            ``"experiment:<name>"`` (one experiment runner, checkpointed
            as a single unit).
        n_clusters / strand_length / mean_coverage / seed / algorithms /
            max_copies: forwarded to
            :func:`repro.sharding.plan_fullscale` (scale parameters also
            reach experiment workloads as ``n_clusters``).
        shards: shard count, resolved to a concrete int at submit time so
            a resume partitions identically no matter what
            ``REPRO_SHARDS`` says later.
        workers: maximum shard worker processes in flight at once.
        max_attempts: attempts per shard before quarantine (>= 1).
        backoff_base_s / backoff_cap_s: seeded decorrelated-jitter
            exponential backoff between a shard's attempts.
        shard_deadline_s: optional wall-clock watchdog per shard attempt;
            a worker that exceeds it is killed and the attempt counts as
            failed.
        heartbeat_interval_s: how often workers emit liveness heartbeats;
            a worker silent for many intervals is presumed hung.
        allow_partial: quarantine failing shards and degrade to a partial
            result (True) or fail the whole job on the first exhausted
            shard (False).
        max_quarantined_shards: optional cap on quarantined shards before
            the job fails even with ``allow_partial``.
        fault_severity: named fault-injection severity applied to every
            cluster's reads inside the shards (``"none"`` disables it;
            see :data:`repro.robustness.SEVERITY_LEVELS`).
        channel_parameters: optional mapping of
            :class:`repro.data.NanoporeParameters` field overrides, so
            one journal can describe a non-default channel without a
            bespoke experiment module.
        kill_worker_at_shard: chaos hook — the worker for this shard
            index calls ``os._exit`` on its first attempt (exercises
            worker-death retry; cleared on resume).
        crash_engine_at_shard: chaos hook — the engine ``os._exit``\\ s
            when this shard's result arrives, *before* its checkpoint is
            written (simulates SIGKILL mid-shard; cleared on resume).
        shard_delay_s: chaos/test hook — workers sleep this long per
            shard attempt, giving kill/cancel windows a deterministic
            target.
    """

    job_id: str
    workload: str = FULLSCALE_WORKLOAD
    n_clusters: int = 1_000
    strand_length: int | None = None
    mean_coverage: float | None = None
    seed: int = 0
    shards: int = 1
    workers: int = 1
    algorithms: tuple[str, ...] = ("majority",)
    max_copies: int | None = 4
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    shard_deadline_s: float | None = None
    heartbeat_interval_s: float = 0.25
    allow_partial: bool = True
    max_quarantined_shards: int | None = None
    fault_severity: str = "none"
    channel_parameters: dict | None = None
    kill_worker_at_shard: int | None = None
    crash_engine_at_shard: int | None = None
    shard_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.job_id or "/" in self.job_id or self.job_id in (".", ".."):
            raise ConfigError(
                f"job_id must be a non-empty path-safe name, got "
                f"{self.job_id!r}"
            )
        if self.workload != FULLSCALE_WORKLOAD and not self.workload.startswith(
            EXPERIMENT_PREFIX
        ):
            raise ConfigError(
                f"unknown workload {self.workload!r}; use "
                f"{FULLSCALE_WORKLOAD!r} or '{EXPERIMENT_PREFIX}<name>'"
            )
        if self.workload.startswith(EXPERIMENT_PREFIX):
            name = self.workload[len(EXPERIMENT_PREFIX) :]
            if importlib.util.find_spec(f"repro.experiments.{name}") is None:
                raise ConfigError(
                    f"unknown experiment workload {name!r}: no module "
                    f"repro.experiments.{name}"
                )
        if self.n_clusters < 1:
            raise ConfigError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ConfigError(
                "backoff must satisfy 0 <= base <= cap, got "
                f"base={self.backoff_base_s} cap={self.backoff_cap_s}"
            )
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ConfigError(
                f"shard_deadline_s must be > 0, got {self.shard_deadline_s}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ConfigError(
                "heartbeat_interval_s must be > 0, got "
                f"{self.heartbeat_interval_s}"
            )
        if (
            self.max_quarantined_shards is not None
            and self.max_quarantined_shards < 0
        ):
            raise ConfigError(
                "max_quarantined_shards must be >= 0, got "
                f"{self.max_quarantined_shards}"
            )
        if self.shard_delay_s < 0:
            raise ConfigError(
                f"shard_delay_s must be >= 0, got {self.shard_delay_s}"
            )
        # Imported here, not at module top: repro.jobs sits below the
        # robustness layer in some import orders.
        from repro.robustness.faults import SEVERITY_LEVELS

        if self.fault_severity not in SEVERITY_LEVELS:
            raise ConfigError(
                f"unknown fault_severity {self.fault_severity!r}; "
                f"choose from {sorted(SEVERITY_LEVELS)}"
            )
        if self.channel_parameters is not None:
            from repro.data.nanopore import nanopore_parameters

            # Validates field names/values; result discarded here.
            nanopore_parameters(self.channel_parameters)

    @property
    def experiment_name(self) -> str | None:
        """The experiment module name, for experiment workloads."""
        if self.workload.startswith(EXPERIMENT_PREFIX):
            return self.workload[len(EXPERIMENT_PREFIX) :]
        return None

    def without_chaos(self) -> "JobSpec":
        """The spec with the one-shot chaos hooks cleared.

        Resume strips the hooks: an injected crash belongs to the run it
        was injected into, not to every future resume of the journal.
        """
        if (
            self.kill_worker_at_shard is None
            and self.crash_engine_at_shard is None
        ):
            return self
        return replace(
            self, kill_worker_at_shard=None, crash_engine_at_shard=None
        )

    def to_json(self) -> dict:
        """A JSON-ready dict (tuples become lists)."""
        payload = asdict(self)
        payload["algorithms"] = list(self.algorithms)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_json` output.

        The retired backend fields (:data:`RETIRED_FIELDS`) of older
        journals are dropped: every value they could hold gave the same
        bytes, so dropping them cannot change a result.

        Raises:
            JobError: for payloads with unknown fields (a newer journal
                read by older code) — failing loudly beats silently
                dropping robustness configuration.
        """
        data = {
            key: value
            for key, value in payload.items()
            if key not in RETIRED_FIELDS
        }
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise JobError(
                f"job spec has unknown fields {sorted(unknown)} "
                "(journal written by a newer version?)"
            )
        if "algorithms" in data:
            data["algorithms"] = tuple(data["algorithms"])
        return cls(**data)


@dataclass(frozen=True)
class QuarantinedShard:
    """Why one shard was given up on (carried into the job result)."""

    shard_index: int
    attempts: int
    reason: str


@dataclass
class JobResult:
    """The outcome of one engine run (or resume) of a job.

    ``result`` carries the workload's merged output — a
    :class:`repro.sharding.FullScaleResult` summary dict for fullscale
    jobs, the experiment's summary dict otherwise — and is ``None`` only
    when no shard ever completed.  ``complete`` distinguishes a full
    merge from a partial one that skipped quarantined shards, mirroring
    :class:`repro.robustness.RecoveryResult`'s complete/partial shape at
    job granularity.
    """

    job_id: str
    state: JobState
    complete: bool
    n_shards: int
    completed_shards: int
    quarantined: tuple[QuarantinedShard, ...] = ()
    result: dict | None = None
    error: str | None = None

    @property
    def quarantined_indices(self) -> tuple[int, ...]:
        return tuple(q.shard_index for q in self.quarantined)

    def summary(self) -> dict:
        """JSON-ready summary (what ``result.json`` persists)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "complete": self.complete,
            "n_shards": self.n_shards,
            "completed_shards": self.completed_shards,
            "quarantined": [asdict(q) for q in self.quarantined],
            "result": self.result,
            "error": self.error,
        }


#: CLI exit codes per terminal outcome — distinct so scripts can branch
#: on success / partial / failed / cancelled without parsing output.
EXIT_CODES: dict[JobState, int] = {
    JobState.SUCCEEDED: 0,
    JobState.DEGRADED: 3,
    JobState.FAILED: 4,
    JobState.CANCELLED: 5,
}


def exit_code_for(state: JobState) -> int:
    """The ``dnasim jobs`` exit code for a job's final state."""
    return EXIT_CODES.get(state, 4)
