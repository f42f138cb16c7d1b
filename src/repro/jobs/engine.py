"""The crash-safe job engine: checkpointed, resumable shard execution.

The engine turns a :class:`~repro.jobs.spec.JobSpec` plus a
:class:`~repro.jobs.journal.JobJournal` into a finished
:class:`~repro.jobs.spec.JobResult`, surviving worker death, engine
death, watchdog kills, and operator cancellation along the way.  The
contract that makes all of this safe is established one layer down, in
:mod:`repro.sharding.runner`:

* :func:`~repro.sharding.runner.plan_fullscale` is a pure function of
  the spec, so every run — first attempt or fifth resume — decomposes
  the job into exactly the same shard work items;
* :func:`~repro.sharding.runner.run_shard` is pure per item, so a shard
  can be retried, re-run after a crash, or executed by a different
  process and still produce the same summary;
* :func:`~repro.sharding.runner.merge_shard_results` folds summaries in
  shard order, so the merged result is independent of scheduling.

Given those three facts, crash safety reduces to bookkeeping: checkpoint
each shard summary durably the moment it arrives, and on resume re-run
only the shards without a valid checkpoint.  The engine's job is the
bookkeeping — and the supervision around it:

* one worker **process** per shard attempt, heartbeating over a pipe
  while a worker thread computes, so a hung worker is distinguishable
  from a slow one;
* a **watchdog** that kills attempts past their wall-clock deadline or
  silent past the heartbeat-staleness window;
* seeded **decorrelated-jitter backoff** between a shard's attempts
  (deterministic per ``(job seed, shard index)``);
* **quarantine** for shards that exhaust their attempts, degrading the
  job to a partial result instead of losing everything — unless the
  spec says partial results are unacceptable;
* **signal handlers** (SIGINT/SIGTERM) and a cross-process cancel flag
  that stop the job at the next supervision tick, with every completed
  shard already durable.
"""

from __future__ import annotations

import inspect
import importlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from pathlib import Path

from repro.exceptions import JobError, ReproError
from repro.jobs.backoff import DecorrelatedJitter
from repro.jobs.journal import JobJournal
from repro.jobs.spec import (
    FULLSCALE_WORKLOAD,
    JobResult,
    JobSpec,
    JobState,
    QuarantinedShard,
)
from repro.observability import counter, get_logger, span
from repro.sharding.runner import (
    FullScalePlan,
    merge_shard_results,
    plan_fullscale,
    run_shard,
)


def _plan_for_spec(spec: JobSpec) -> FullScalePlan:
    """The deterministic fullscale plan a spec describes.

    One code path for first runs, resumes, and result replays: every
    scenario knob the spec carries (channel parameters, fault severity)
    reaches :func:`plan_fullscale` identically, which is what makes
    checkpointed shard results valid across restarts.
    """
    from repro.data.nanopore import nanopore_parameters

    return plan_fullscale(
        n_clusters=spec.n_clusters,
        strand_length=spec.strand_length,
        mean_coverage=spec.mean_coverage,
        seed=spec.seed,
        shards=spec.shards,
        algorithms=spec.algorithms,
        max_copies=spec.max_copies,
        parameters=nanopore_parameters(spec.channel_parameters),
        fault_severity=spec.fault_severity,
    )

_logger = get_logger("repro.jobs.engine")

#: A worker silent for this many heartbeat intervals is presumed hung
#: and killed by the watchdog (generous: heartbeats come from the
#: child's main thread, which never blocks on shard compute).
_STALE_HEARTBEAT_FACTOR = 10.0

#: Supervision tick: the upper bound on how long the engine waits for
#: worker messages before checking watchdogs, retries, and cancellation.
_TICK_S = 0.1


def _shard_worker(
    connection: Connection,
    config,
    item,
    heartbeat_interval_s: float,
    shard_delay_s: float,
    chaos_kill: bool,
) -> None:
    """Worker-process entry point: run one shard attempt, heartbeating.

    The shard computation runs on a worker thread while this (main)
    thread emits heartbeats, so liveness signalling is independent of
    how long a single alignment takes.  ``chaos_kill`` simulates an
    external kill (OOM, node loss) via ``os._exit`` — no cleanup, no
    exception, exactly what the supervisor must survive.
    """
    if chaos_kill:
        os._exit(1)
    box: dict[str, object] = {}

    def _work() -> None:
        try:
            if shard_delay_s > 0:
                time.sleep(shard_delay_s)
            box["result"] = run_shard(config, item)
        except BaseException as error:  # ship the failure, don't die silently
            box["error"] = f"{type(error).__name__}: {error}"

    thread = threading.Thread(target=_work, daemon=True)
    thread.start()
    try:
        while thread.is_alive():
            connection.send(("heartbeat",))
            thread.join(heartbeat_interval_s)
        if "result" in box:
            connection.send(("result", box["result"]))
        else:
            connection.send(("error", box.get("error", "worker failed")))
    except (BrokenPipeError, OSError):
        pass  # supervisor is gone; nothing left to report to
    finally:
        connection.close()


@dataclass
class _Attempt:
    """One in-flight shard attempt under supervision."""

    shard_index: int
    attempt: int
    process: multiprocessing.Process
    connection: Connection
    started: float
    last_heartbeat: float = field(init=False)

    def __post_init__(self) -> None:
        self.last_heartbeat = self.started


def _jsonable(value):
    """``value`` if JSON can carry it verbatim, else its ``repr``.

    Experiment runners return rich dicts (some with tuple keys); the
    journal's ``result.json`` must stay valid JSON, so anything JSON
    cannot express is stored as its repr — the pickled checkpoint keeps
    the exact object.
    """
    import json

    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return {"repr": repr(value)}


class JobEngine:
    """Drives one job from its journal to a terminal (or degraded) state.

    Use :meth:`submit` to create the journal for a new spec, or
    :meth:`attach` to pick up an existing one; then :meth:`run` executes
    (or resumes) the workload.  Both paths end with ``result.json``
    written and the state machine parked on the outcome.
    """

    def __init__(self, journal: JobJournal) -> None:
        self.journal = journal
        self._signalled: str | None = None

    # ---------------------------------------------------------------- #
    # Construction
    # ---------------------------------------------------------------- #

    @classmethod
    def submit(cls, root: str | Path, spec: JobSpec) -> "JobEngine":
        """Create the durable journal for a new job (state PENDING)."""
        return cls(JobJournal.create(root, spec))

    @classmethod
    def attach(cls, root: str | Path, job_id: str) -> "JobEngine":
        """Attach to an existing job's journal."""
        return cls(JobJournal.open(root, job_id))

    # ---------------------------------------------------------------- #
    # Entry point
    # ---------------------------------------------------------------- #

    def run(self, resume: bool = False) -> JobResult:
        """Execute the job to completion, retrying and checkpointing.

        With ``resume=True`` the engine replays the journal first:
        completed shards are loaded from checkpoints (and *not* re-run),
        one-shot chaos hooks are stripped from the spec, and a job that
        already succeeded is replayed without re-entering the state
        machine.  Either way the merged result is bit-identical to an
        uninterrupted :func:`~repro.sharding.run_fullscale` of the same
        spec.
        """
        journal = self.journal
        state = journal.state()
        if state is JobState.SUCCEEDED:
            # SUCCEEDED is final: replay the recorded result.
            counter("jobs.resume_replays").inc()
            return self._replayed_result()
        if state is not JobState.PENDING and not resume:
            raise JobError(
                f"job {journal.job_id!r} is {state.value!r}; use resume to "
                "re-enter it"
            )
        spec = journal.spec()
        if resume:
            stripped = spec.without_chaos()
            if stripped is not spec:
                journal.replace_spec(stripped)
                journal.append_event("chaos_hooks_stripped")
            spec = stripped
            counter("jobs.resumed").inc()
        journal.set_state(JobState.RUNNING, pid=os.getpid(), resume=resume)
        journal.clear_cancel_request()
        journal.touch_heartbeat()

        previous_handlers = self._install_signal_handlers()
        try:
            with span("job.run", job_id=spec.job_id, workload=spec.workload):
                if spec.workload == FULLSCALE_WORKLOAD:
                    result = self._run_fullscale(spec, resume=resume)
                else:
                    result = self._run_experiment(spec)
        except ReproError as error:
            result = self._finish(
                spec,
                JobState.FAILED,
                complete=False,
                n_shards=0,
                completed=0,
                quarantined=(),
                payload=None,
                error=str(error),
            )
        finally:
            self._restore_signal_handlers(previous_handlers)
        return result

    # ---------------------------------------------------------------- #
    # Fullscale workload: the supervised shard loop
    # ---------------------------------------------------------------- #

    def _run_fullscale(self, spec: JobSpec, resume: bool) -> JobResult:
        plan = _plan_for_spec(spec)
        items = dict(plan.shard_items())
        results: dict[int, object] = self.journal.checkpointed_shards(
            plan.n_shards
        )
        if resume and results:
            self.journal.append_event(
                "checkpoints_replayed", shards=sorted(results)
            )
            counter("jobs.checkpoints_replayed").inc(len(results))

        pending = [
            index for index in range(plan.n_shards) if index not in results
        ]
        attempts_used: dict[int, int] = {index: 0 for index in pending}
        jitter: dict[int, DecorrelatedJitter] = {}
        retry_at: dict[int, float] = {}
        running: dict[Connection, _Attempt] = {}
        quarantined: dict[int, QuarantinedShard] = {}
        stale_after = spec.heartbeat_interval_s * _STALE_HEARTBEAT_FACTOR

        def shard_failed(attempt: _Attempt, reason: str) -> bool:
            """Bookkeep one failed attempt; True if the job must stop."""
            index = attempt.shard_index
            used = attempts_used[index] = attempt.attempt + 1
            counter("jobs.shard_failures").inc()
            _logger.warning(
                "job_shard_attempt_failed",
                job_id=spec.job_id,
                shard=index,
                attempt=attempt.attempt,
                reason=reason,
            )
            self.journal.append_event(
                "shard_failed",
                shard=index,
                attempt=attempt.attempt,
                reason=reason,
            )
            if used < spec.max_attempts:
                delay = jitter.setdefault(
                    index,
                    DecorrelatedJitter(
                        spec.seed,
                        index,
                        spec.backoff_base_s,
                        spec.backoff_cap_s,
                    ),
                ).next_delay()
                retry_at[index] = time.monotonic() + delay
                counter("jobs.shard_retries").inc()
                self.journal.set_state(
                    JobState.RETRYING, shard=index, delay_s=round(delay, 4)
                )
                return False
            quarantined[index] = QuarantinedShard(
                shard_index=index, attempts=used, reason=reason
            )
            self.journal.record_quarantine(index, used, reason)
            too_many = (
                spec.max_quarantined_shards is not None
                and len(quarantined) > spec.max_quarantined_shards
            )
            if not spec.allow_partial or too_many:
                return True
            self.journal.set_state(JobState.DEGRADED, shard=index)
            return False

        def launch(index: int) -> None:
            attempt_number = attempts_used[index]
            parent_end, child_end = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_shard_worker,
                args=(
                    child_end,
                    plan.config,
                    (index, items[index]),
                    spec.heartbeat_interval_s,
                    spec.shard_delay_s,
                    spec.kill_worker_at_shard == index and attempt_number == 0,
                ),
                daemon=True,
            )
            process.start()
            child_end.close()
            running[parent_end] = _Attempt(
                shard_index=index,
                attempt=attempt_number,
                process=process,
                connection=parent_end,
                started=time.monotonic(),
            )
            counter("jobs.shard_attempts").inc()
            self.journal.append_event(
                "shard_started", shard=index, attempt=attempt_number
            )

        def reap(attempt: _Attempt) -> None:
            try:
                attempt.connection.close()
            except OSError:
                pass
            running.pop(attempt.connection, None)
            attempt.process.join(timeout=1.0)
            if attempt.process.is_alive():
                attempt.process.kill()
                attempt.process.join(timeout=1.0)

        def kill_all(reason: str) -> None:
            for attempt in list(running.values()):
                attempt.process.terminate()
                reap(attempt)
            self.journal.append_event("workers_stopped", reason=reason)

        aborted: JobState | None = None
        abort_error: str | None = None
        while pending or retry_at or running:
            now = time.monotonic()
            # Operator cancellation: signal or cross-process flag file.
            if self._signalled or self.journal.cancel_requested():
                kill_all(self._signalled or "cancel_requested")
                aborted = JobState.CANCELLED
                abort_error = None
                break
            # Promote due retries back into the launch queue.
            for index in [i for i, due in retry_at.items() if due <= now]:
                del retry_at[index]
                pending.append(index)
            pending.sort()
            # Keep up to `workers` attempts in flight.
            while pending and len(running) < spec.workers:
                launch(pending.pop(0))
            if not running:
                if retry_at:  # everything in flight is waiting on backoff
                    time.sleep(
                        min(
                            _TICK_S,
                            max(0.0, min(retry_at.values()) - time.monotonic()),
                        )
                    )
                continue
            # Wait for worker messages (or a tick, for the watchdog).
            for connection in connection_wait(list(running), timeout=_TICK_S):
                attempt = running.get(connection)
                if attempt is None:
                    continue
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    reap(attempt)
                    if shard_failed(attempt, "worker died"):
                        aborted = JobState.FAILED
                        abort_error = (
                            f"shard {attempt.shard_index} exhausted "
                            f"{spec.max_attempts} attempts: worker died"
                        )
                    continue
                kind = message[0]
                if kind == "heartbeat":
                    attempt.last_heartbeat = time.monotonic()
                elif kind == "result":
                    reap(attempt)
                    if spec.crash_engine_at_shard == attempt.shard_index:
                        # Chaos: die *after* computing the shard but
                        # *before* checkpointing it — the hardest crash
                        # point for resume correctness.
                        self.journal.append_event(
                            "chaos_engine_crash", shard=attempt.shard_index
                        )
                        os._exit(137)
                    results[attempt.shard_index] = message[1]
                    self.journal.write_checkpoint(
                        attempt.shard_index, message[1], attempt.attempt
                    )
                elif kind == "error":
                    reap(attempt)
                    if shard_failed(attempt, str(message[1])):
                        aborted = JobState.FAILED
                        abort_error = (
                            f"shard {attempt.shard_index} exhausted "
                            f"{spec.max_attempts} attempts: {message[1]}"
                        )
                if aborted:
                    break
            if aborted:
                kill_all("job failed")
                break
            # Watchdog sweep: wall-clock deadline and heartbeat staleness.
            now = time.monotonic()
            for attempt in list(running.values()):
                over_deadline = (
                    spec.shard_deadline_s is not None
                    and now - attempt.started > spec.shard_deadline_s
                )
                stale = now - attempt.last_heartbeat > stale_after
                if not over_deadline and not stale:
                    continue
                reason = (
                    f"watchdog: exceeded {spec.shard_deadline_s}s deadline"
                    if over_deadline
                    else "watchdog: heartbeat stale"
                )
                counter("jobs.watchdog_kills").inc()
                attempt.process.terminate()
                reap(attempt)
                if shard_failed(attempt, reason):
                    aborted = JobState.FAILED
                    abort_error = (
                        f"shard {attempt.shard_index} exhausted "
                        f"{spec.max_attempts} attempts: {reason}"
                    )
            if aborted:
                kill_all("job failed")
                break
            self.journal.touch_heartbeat()

        if aborted is not None:
            return self._finish(
                spec,
                aborted,
                complete=False,
                n_shards=plan.n_shards,
                completed=len(results),
                quarantined=tuple(
                    quarantined[i] for i in sorted(quarantined)
                ),
                payload=self._merge(plan, spec, results),
                error=abort_error,
            )

        final_quarantine = tuple(quarantined[i] for i in sorted(quarantined))
        complete = len(results) == plan.n_shards
        return self._finish(
            spec,
            JobState.SUCCEEDED if complete else JobState.DEGRADED,
            complete=complete,
            n_shards=plan.n_shards,
            completed=len(results),
            quarantined=final_quarantine,
            payload=self._merge(plan, spec, results),
            error=None,
        )

    def _merge(
        self,
        plan: FullScalePlan,
        spec: JobSpec,
        results: dict[int, object],
    ) -> dict | None:
        """Merge whatever shards completed; None if nothing did."""
        if not results:
            return None
        if len(results) == plan.n_shards:
            merged = merge_shard_results(
                plan,
                [results[i] for i in range(plan.n_shards)],
                workers=spec.workers,
            )
            return merged.summary()
        return self._partial_summary(plan, spec, results)

    @staticmethod
    def _partial_summary(
        plan: FullScalePlan, spec: JobSpec, results: dict[int, object]
    ) -> dict:
        """Merge only the completed shards into a partial summary.

        Same associative fold as the complete merge, but normalised over
        the clusters actually covered, with the gap made explicit —
        mirroring :class:`repro.robustness.RecoveryResult`'s partial
        shape at job granularity.
        """
        from repro.analysis.error_stats import ErrorStatistics
        from repro.metrics.accuracy import AccuracyTally

        present = sorted(results)
        statistics = ErrorStatistics()
        tallies = {name: AccuracyTally() for name in plan.config.algorithms}
        n_reads = 0
        for index in present:
            shard_statistics, shard_tallies, shard_reads = results[index]
            statistics.merge(shard_statistics)
            for name, tally in shard_tallies.items():
                tallies[name].merge(tally)
            n_reads += shard_reads
        covered = sum(len(plan.per_shard[index]) for index in present)
        return {
            "partial": True,
            "n_clusters": plan.n_clusters,
            "covered_clusters": covered,
            "strand_length": plan.strand_length,
            "n_shards": plan.n_shards,
            "completed_shards": len(present),
            "workers": spec.workers,
            "n_reads": n_reads,
            "mean_coverage": round(n_reads / covered, 4) if covered else 0.0,
            "aggregate_error_rate": round(
                statistics.aggregate_error_rate(), 6
            ),
            "accuracy": {
                name: {
                    "per_strand": round(tally.report().per_strand, 4),
                    "per_character": round(tally.report().per_character, 4),
                }
                for name, tally in tallies.items()
            },
        }

    # ---------------------------------------------------------------- #
    # Experiment workloads: one checkpointed unit
    # ---------------------------------------------------------------- #

    def _run_experiment(self, spec: JobSpec) -> JobResult:
        """Run an experiment module as a single checkpointed shard.

        Experiment runners are not internally sharded, so the journal
        treats the whole run as shard 0: a resume of a crashed
        experiment job replays the checkpoint if the run completed, and
        simply re-runs it otherwise.  Retries and backoff apply as for
        any shard.
        """
        cached = self.journal.read_checkpoint(0)
        if cached is not None:
            return self._finish(
                spec,
                JobState.SUCCEEDED,
                complete=True,
                n_shards=1,
                completed=1,
                quarantined=(),
                payload=_jsonable(cached),
                error=None,
            )
        module = importlib.import_module(
            f"repro.experiments.{spec.experiment_name}"
        )
        kwargs: dict[str, object] = {"verbose": False}
        if "n_clusters" in inspect.signature(module.run).parameters:
            kwargs["n_clusters"] = spec.n_clusters
        jitter = DecorrelatedJitter(
            spec.seed, 0, spec.backoff_base_s, spec.backoff_cap_s
        )
        last_error = "experiment failed"
        for attempt in range(spec.max_attempts):
            if self._signalled or self.journal.cancel_requested():
                return self._finish(
                    spec,
                    JobState.CANCELLED,
                    complete=False,
                    n_shards=1,
                    completed=0,
                    quarantined=(),
                    payload=None,
                    error=None,
                )
            self.journal.append_event("shard_started", shard=0, attempt=attempt)
            counter("jobs.shard_attempts").inc()
            try:
                with span("job.shard", job_id=spec.job_id, shard=0):
                    payload = module.run(**kwargs)
            except Exception as error:  # noqa: BLE001 — quarantine semantics
                last_error = f"{type(error).__name__}: {error}"
                counter("jobs.shard_failures").inc()
                self.journal.append_event(
                    "shard_failed", shard=0, attempt=attempt, reason=last_error
                )
                if attempt + 1 < spec.max_attempts:
                    delay = jitter.next_delay()
                    self.journal.set_state(
                        JobState.RETRYING, shard=0, delay_s=round(delay, 4)
                    )
                    counter("jobs.shard_retries").inc()
                    time.sleep(delay)
                continue
            self.journal.write_checkpoint(0, payload, attempt)
            return self._finish(
                spec,
                JobState.SUCCEEDED,
                complete=True,
                n_shards=1,
                completed=1,
                quarantined=(),
                payload=_jsonable(payload),
                error=None,
            )
        quarantine = QuarantinedShard(
            shard_index=0, attempts=spec.max_attempts, reason=last_error
        )
        self.journal.record_quarantine(0, spec.max_attempts, last_error)
        return self._finish(
            spec,
            JobState.FAILED,
            complete=False,
            n_shards=1,
            completed=0,
            quarantined=(quarantine,),
            payload=None,
            error=last_error,
        )

    # ---------------------------------------------------------------- #
    # Completion, replay, signals
    # ---------------------------------------------------------------- #

    def _finish(
        self,
        spec: JobSpec,
        state: JobState,
        complete: bool,
        n_shards: int,
        completed: int,
        quarantined: tuple[QuarantinedShard, ...],
        payload: dict | None,
        error: str | None,
    ) -> JobResult:
        result = JobResult(
            job_id=spec.job_id,
            state=state,
            complete=complete,
            n_shards=n_shards,
            completed_shards=completed,
            quarantined=quarantined,
            result=payload,
            error=error,
        )
        # Persist the result *before* the state flip: a crash between
        # the two leaves a re-runnable RUNNING job, never a terminal
        # state with no recorded outcome.
        self.journal.write_result(result.summary())
        self.journal.set_state(state, error=error)
        counter("jobs.finished", state=state.value).inc()
        _logger.info(
            "job_finished",
            job_id=spec.job_id,
            state=state.value,
            complete=complete,
            completed_shards=completed,
            quarantined=len(quarantined),
        )
        return result

    def _replayed_result(self) -> JobResult:
        """Rebuild the JobResult of an already-succeeded job."""
        summary = self.journal.read_result()
        if summary is None:
            # result.json lost but checkpoints intact: re-merge.
            spec = self.journal.spec()
            if spec.workload == FULLSCALE_WORKLOAD:
                plan = _plan_for_spec(spec)
                results = self.journal.checkpointed_shards(plan.n_shards)
                if len(results) != plan.n_shards:
                    raise JobError(
                        f"job {spec.job_id!r} is marked succeeded but only "
                        f"{len(results)}/{plan.n_shards} checkpoints are "
                        "readable"
                    )
                payload = self._merge(plan, spec, results)
                n_shards = plan.n_shards
            else:
                payload = _jsonable(self.journal.read_checkpoint(0))
                n_shards = 1
            result = JobResult(
                job_id=spec.job_id,
                state=JobState.SUCCEEDED,
                complete=True,
                n_shards=n_shards,
                completed_shards=n_shards,
                result=payload,
            )
            self.journal.write_result(result.summary())
            return result
        return JobResult(
            job_id=summary["job_id"],
            state=JobState(summary["state"]),
            complete=summary["complete"],
            n_shards=summary["n_shards"],
            completed_shards=summary["completed_shards"],
            quarantined=tuple(
                QuarantinedShard(**entry)
                for entry in summary.get("quarantined", [])
            ),
            result=summary.get("result"),
            error=summary.get("error"),
        )

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM into graceful checkpoint-then-cancel.

        Signal handlers can only live on the main thread; when the
        engine runs on another thread, the cross-process cancel flag is
        the stop channel instead.
        """
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, _frame):
            self._signalled = signal.Signals(signum).name
            counter("jobs.signals").inc()

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def run_job(
    root: str | Path,
    spec: JobSpec,
) -> JobResult:
    """Submit and run a job in one call (the CLI's submit path)."""
    return JobEngine.submit(root, spec).run()


def resume_job(root: str | Path, job_id: str) -> JobResult:
    """Resume a job from its journal (the CLI's resume path)."""
    return JobEngine.attach(root, job_id).run(resume=True)
