"""Tests for repro.jobs — the durable, checkpointed, resumable job engine.

The load-bearing property throughout: a job interrupted at *any* point
(worker death, engine SIGKILL, operator cancel) resumes from its journal
to a merged result **bit-identical** to the uninterrupted run.  The
kill-mid-shard property test exercises the hardest crash point (shard
computed but not yet checkpointed) at every shard index.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exceptions import ConfigError, JobError, ReproError
from repro.jobs import (
    DecorrelatedJitter,
    EXIT_CODES,
    JobEngine,
    JobJournal,
    JobResult,
    JobSpec,
    JobState,
    VALID_TRANSITIONS,
    backoff_schedule,
    check_transition,
    exit_code_for,
    resume_job,
    run_job,
)
from repro.sharding import run_fullscale

#: One small full-scale workload shared by every bit-identity test.
N_CLUSTERS = 12
SHARDS = 4
SEED = 7


def _spec(job_id: str, **overrides) -> JobSpec:
    defaults = dict(
        job_id=job_id,
        n_clusters=N_CLUSTERS,
        shards=SHARDS,
        workers=2,
        seed=SEED,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


@pytest.fixture(scope="module")
def golden_summary():
    """The uninterrupted run every engine outcome must reproduce."""
    return run_fullscale(
        n_clusters=N_CLUSTERS, shards=SHARDS, workers=2, seed=SEED
    ).summary()


def _run_cli_job(root, *argv, env_extra=None, **popen_kwargs):
    """Run ``dnasim jobs ...`` in a child interpreter (chaos os._exit
    and signal delivery must not touch the pytest process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(Path(__file__).resolve().parents[1] / "src"),
            env.get("PYTHONPATH"),
        )
        if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "jobs", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        **popen_kwargs,
    )


class TestJobSpec:
    def test_json_round_trip(self):
        spec = _spec("round-trip", algorithms=("majority", "bma"))
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_round_trip_through_text_json(self):
        spec = _spec("text-json", shard_deadline_s=1.5)
        rebuilt = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.algorithms == ("majority",)  # list -> tuple

    def test_unknown_fields_rejected(self):
        payload = _spec("newer").to_json()
        payload["from_the_future"] = 1
        with pytest.raises(JobError, match="unknown fields"):
            JobSpec.from_json(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"job_id": ""},
            {"job_id": "a/b"},
            {"job_id": ".."},
            {"workload": "nonsense"},
            {"workload": "experiment:not_a_module"},
            {"n_clusters": 0},
            {"shards": 0},
            {"workers": 0},
            {"max_attempts": 0},
            {"backoff_base_s": -0.1},
            {"backoff_cap_s": 0.001},  # cap < base
            {"shard_deadline_s": 0.0},
            {"heartbeat_interval_s": 0.0},
            {"max_quarantined_shards": -1},
            {"shard_delay_s": -1.0},
            {"fault_severity": "apocalyptic"},
            {"job_id": "."},
            {"job_id": ""},
            {"channel_parameters": {"substition_rate": 0.1}},  # typo'd field
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            _spec(overrides.pop("job_id", "bad"), **overrides)

    def test_scenario_fields_round_trip(self):
        spec = _spec(
            "scenario",
            fault_severity="mild",
            channel_parameters={"substitution_rate": 0.04},
        )
        rebuilt = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.channel_parameters == {"substitution_rate": 0.04}

    def test_pre_scenario_payloads_still_load(self):
        """Journals written before the scenario fields existed resume
        with the no-fault defaults."""
        payload = _spec("legacy").to_json()
        for field in ("fault_severity", "channel_parameters"):
            payload.pop(field, None)
        spec = JobSpec.from_json(payload)
        assert spec.fault_severity == "none"
        assert spec.channel_parameters is None

    def test_retired_backend_fields_are_dropped(self):
        """Journals that pinned the retired alignment/channel backends
        load as the same spec without them: every backend value gave
        identical bytes, so dropping the field cannot change a result."""
        payload = json.loads(json.dumps(_spec("pinned").to_json()))
        stored = {**payload, "align_backend": "python", "channel_backend": "auto"}
        assert JobSpec.from_json(stored) == JobSpec.from_json(payload)

    def test_experiment_workload_accepted(self):
        spec = _spec("exp", workload="experiment:table_1_1")
        assert spec.experiment_name == "table_1_1"

    def test_without_chaos_strips_hooks(self):
        spec = _spec("chaos", kill_worker_at_shard=1, crash_engine_at_shard=2)
        clean = spec.without_chaos()
        assert clean.kill_worker_at_shard is None
        assert clean.crash_engine_at_shard is None
        assert clean.job_id == spec.job_id
        # Idempotent and identity-preserving when already clean.
        assert clean.without_chaos() is clean

    def test_exit_codes_are_distinct(self):
        assert exit_code_for(JobState.SUCCEEDED) == 0
        assert exit_code_for(JobState.DEGRADED) == 3
        assert exit_code_for(JobState.FAILED) == 4
        assert exit_code_for(JobState.CANCELLED) == 5
        assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)


class TestStateMachine:
    def test_succeeded_is_final(self):
        assert VALID_TRANSITIONS[JobState.SUCCEEDED] == frozenset()
        with pytest.raises(JobError, match="invalid job state transition"):
            check_transition(JobState.SUCCEEDED, JobState.RUNNING)

    def test_failed_and_cancelled_reopen_to_running(self):
        check_transition(JobState.FAILED, JobState.RUNNING)
        check_transition(JobState.CANCELLED, JobState.RUNNING)

    def test_pending_cannot_finish_directly(self):
        with pytest.raises(JobError):
            check_transition(JobState.PENDING, JobState.SUCCEEDED)

    def test_terminal_property(self):
        assert JobState.SUCCEEDED.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.DEGRADED.terminal
        assert not JobState.RUNNING.terminal


class TestBackoff:
    def test_deterministic_per_seed_and_shard(self):
        first = backoff_schedule(3, 1, 0.05, 2.0, 6)
        again = backoff_schedule(3, 1, 0.05, 2.0, 6)
        other_shard = backoff_schedule(3, 2, 0.05, 2.0, 6)
        other_seed = backoff_schedule(4, 1, 0.05, 2.0, 6)
        assert first == again
        assert first != other_shard
        assert first != other_seed

    def test_delays_within_envelope(self):
        jitter = DecorrelatedJitter(0, 0, base_s=0.1, cap_s=1.0)
        previous = 0.1
        for _ in range(50):
            delay = jitter.next_delay()
            assert 0.1 <= delay <= 1.0
            assert delay <= max(previous * 3, 0.1) + 1e-12
            previous = delay

    def test_invalid_envelope_rejected(self):
        with pytest.raises(ValueError):
            DecorrelatedJitter(0, 0, base_s=-1.0, cap_s=1.0)
        with pytest.raises(ValueError):
            DecorrelatedJitter(0, 0, base_s=2.0, cap_s=1.0)


class TestJournal:
    def test_create_open_list(self, tmp_path):
        spec = _spec("j1")
        JobJournal.create(tmp_path, spec)
        journal = JobJournal.open(tmp_path, "j1")
        assert journal.spec() == spec
        assert journal.state() is JobState.PENDING
        assert JobJournal.list_jobs(tmp_path) == ["j1"]

    def test_duplicate_create_rejected(self, tmp_path):
        JobJournal.create(tmp_path, _spec("dup"))
        with pytest.raises(JobError, match="already exists"):
            JobJournal.create(tmp_path, _spec("dup"))

    def test_open_unknown_job_rejected(self, tmp_path):
        with pytest.raises(JobError, match="no job"):
            JobJournal.open(tmp_path, "ghost")

    def test_format_version_mismatch_rejected(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("old"))
        document = json.loads((journal.job_dir / "job.json").read_text())
        document["format_version"] = 999
        (journal.job_dir / "job.json").write_text(json.dumps(document))
        with pytest.raises(JobError, match="format"):
            JobJournal.open(tmp_path, "old")

    def test_state_transitions_persist_and_validate(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("s"))
        journal.set_state(JobState.RUNNING, pid=123)
        assert journal.state() is JobState.RUNNING
        assert journal.pid() == 123
        with pytest.raises(JobError, match="invalid job state transition"):
            JobJournal.open(tmp_path, "s").set_state(JobState.PENDING)
        # The failed transition must not have altered the document.
        assert journal.state() is JobState.RUNNING

    def test_event_log_replays_in_order(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("e"))
        journal.append_event("alpha", n=1)
        journal.append_event("beta", n=2)
        names = [record["event"] for record in journal.events()]
        assert names == ["submitted", "alpha", "beta"]

    def test_torn_event_tail_tolerated(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("torn"))
        journal.append_event("whole")
        with open(journal.job_dir / "events.jsonl", "a") as handle:
            handle.write('{"event": "torn-by-sigki')  # no newline, invalid
        events = [record["event"] for record in journal.events()]
        assert events == ["submitted", "whole"]

    def test_checkpoint_round_trip_exact(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("c"))
        payload = ({"tuple-key": 1}, [1, 2.5, "x"], ("nested", (3, 4)))
        journal.write_checkpoint(2, payload, attempt=0)
        assert journal.read_checkpoint(2) == payload
        assert journal.checkpointed_shards(SHARDS) == {2: payload}

    def test_corrupt_checkpoint_treated_as_missing(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("corrupt"))
        journal.write_checkpoint(0, {"fine": True}, attempt=0)
        path = journal.shards_dir / "shard-00000.json"
        document = json.loads(path.read_text())
        document["payload"] = document["payload"][:-8] + "AAAAAAAA"
        path.write_text(json.dumps(document))
        assert journal.read_checkpoint(0) is None  # digest mismatch
        assert not path.exists()  # discarded, shard will re-run

    def test_truncated_checkpoint_treated_as_missing(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("trunc"))
        journal.write_checkpoint(1, {"fine": True}, attempt=0)
        path = journal.shards_dir / "shard-00001.json"
        path.write_text(path.read_text()[:20])
        assert journal.read_checkpoint(1) is None

    def test_quarantine_records_persist(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("q"))
        journal.record_quarantine(3, attempts=2, reason="worker died")
        journal.record_quarantine(1, attempts=3, reason="watchdog")
        records = JobJournal.open(tmp_path, "q").quarantined()
        assert [q.shard_index for q in records] == [1, 3]
        assert records[1].reason == "worker died"

    def test_cancel_flag_round_trip(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("cxl"))
        assert not journal.cancel_requested()
        journal.request_cancel()
        assert JobJournal.open(tmp_path, "cxl").cancel_requested()
        journal.clear_cancel_request()
        assert not journal.cancel_requested()

    def test_heartbeat_liveness(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("hb"))
        assert not journal.engine_alive()
        journal.touch_heartbeat()
        assert journal.engine_alive()
        assert not journal.engine_alive(stale_after_s=0.0)


class TestEngineGolden:
    """The engine must reproduce run_fullscale bit for bit."""

    def test_clean_run_matches_run_fullscale(self, tmp_path, golden_summary):
        result = run_job(tmp_path, _spec("clean"))
        assert result.state is JobState.SUCCEEDED
        assert result.complete
        assert result.completed_shards == SHARDS
        assert result.result == golden_summary

    def test_worker_death_retried_identically(self, tmp_path, golden_summary):
        result = run_job(tmp_path, _spec("kill-w", kill_worker_at_shard=2))
        assert result.state is JobState.SUCCEEDED
        assert result.result == golden_summary
        journal = JobJournal.open(tmp_path, "kill-w")
        events = [record["event"] for record in journal.events()]
        assert "shard_failed" in events  # the injected death was seen

    def test_resume_of_succeeded_job_replays(self, tmp_path, golden_summary):
        run_job(tmp_path, _spec("replay"))
        replayed = resume_job(tmp_path, "replay")
        assert replayed.state is JobState.SUCCEEDED
        assert replayed.result == golden_summary
        # Still exactly SHARDS checkpoints — nothing re-ran.
        journal = JobJournal.open(tmp_path, "replay")
        starts = [
            record
            for record in journal.events()
            if record["event"] == "shard_started"
        ]
        assert len(starts) == SHARDS

    def test_running_job_needs_resume_flag(self, tmp_path):
        journal = JobJournal.create(tmp_path, _spec("midflight"))
        journal.set_state(JobState.RUNNING)
        with pytest.raises(JobError, match="use resume"):
            JobEngine(journal).run()


class TestDegradation:
    def test_exhausted_shard_quarantined_partial_result(self, tmp_path):
        result = run_job(
            tmp_path,
            _spec("degraded", kill_worker_at_shard=1, max_attempts=1),
        )
        assert result.state is JobState.DEGRADED
        assert not result.complete
        assert result.quarantined_indices == (1,)
        assert result.completed_shards == SHARDS - 1
        assert result.result["partial"] is True
        assert result.result["completed_shards"] == SHARDS - 1
        assert 0.0 < result.result["aggregate_error_rate"] < 1.0
        assert exit_code_for(result.state) == 3

    def test_no_partial_fails_fast(self, tmp_path):
        result = run_job(
            tmp_path,
            _spec(
                "strict",
                kill_worker_at_shard=0,
                max_attempts=1,
                allow_partial=False,
            ),
        )
        assert result.state is JobState.FAILED
        assert "exhausted" in result.error
        assert exit_code_for(result.state) == 4

    def test_max_quarantined_cap_enforced(self, tmp_path):
        result = run_job(
            tmp_path,
            _spec(
                "capped",
                kill_worker_at_shard=0,
                max_attempts=1,
                max_quarantined_shards=0,
            ),
        )
        assert result.state is JobState.FAILED

    def test_watchdog_kills_slow_shard(self, tmp_path):
        result = run_job(
            tmp_path,
            _spec(
                "watchdog",
                n_clusters=SHARDS,  # one tiny cluster per shard
                shard_delay_s=30.0,
                shard_deadline_s=0.3,
                max_attempts=1,
                workers=SHARDS,
            ),
        )
        assert result.state is JobState.DEGRADED
        assert len(result.quarantined) == SHARDS
        assert all("watchdog" in q.reason for q in result.quarantined)
        assert result.result is None  # nothing completed

    def test_degraded_job_resumes_to_success(self, tmp_path, golden_summary):
        run_job(tmp_path, _spec("heal", kill_worker_at_shard=1, max_attempts=1))
        healed = resume_job(tmp_path, "heal")
        assert healed.state is JobState.SUCCEEDED
        assert healed.result == golden_summary
        assert healed.quarantined == ()


class TestKillMidShardProperty:
    """Seeded property test: SIGKILL-equivalent engine death at *each*
    shard index, before that shard's checkpoint lands, must resume to a
    bit-identical result."""

    @pytest.mark.parametrize("crash_shard", range(SHARDS))
    def test_crash_at_every_shard_resumes_identically(
        self, tmp_path, golden_summary, crash_shard
    ):
        worker_count = 2
        victim = _run_cli_job(
            tmp_path,
            "submit",
            f"crash-{crash_shard}",
            "--jobs-dir",
            str(tmp_path),
            "--clusters",
            str(N_CLUSTERS),
            "--seed",
            str(SEED),
            "--crash-at-shard",
            str(crash_shard),
            env_extra={
                "REPRO_SHARDS": str(SHARDS),
                "REPRO_WORKERS": str(worker_count),
            },
        )
        assert victim.returncode == 137, victim.stderr
        journal = JobJournal.open(tmp_path, f"crash-{crash_shard}")
        assert journal.state() is JobState.RUNNING  # stale, mid-flight
        before = set(journal.checkpointed_shards(SHARDS))
        assert crash_shard not in before  # died before its checkpoint
        resumed = resume_job(tmp_path, f"crash-{crash_shard}")
        assert resumed.state is JobState.SUCCEEDED
        assert resumed.complete
        assert resumed.result == golden_summary
        # The chaos hook must not survive into the resumed spec.
        assert journal.spec().crash_engine_at_shard is None


class TestSigtermCheckpointsAndCancels:
    def test_sigterm_mid_run_leaves_resumable_journal(
        self, tmp_path, golden_summary
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (
                str(Path(__file__).resolve().parents[1] / "src"),
                env.get("PYTHONPATH"),
            )
            if p
        )
        env["REPRO_SHARDS"] = str(SHARDS)
        env["REPRO_WORKERS"] = "2"  # golden summary embeds workers=2
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "jobs",
                "submit",
                "sigterm",
                "--jobs-dir",
                str(tmp_path),
                "--clusters",
                str(N_CLUSTERS),
                "--seed",
                str(SEED),
                "--shard-delay",
                "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            journal = None
            while time.monotonic() < deadline:
                try:
                    journal = JobJournal.open(tmp_path, "sigterm")
                    if journal.state() is JobState.RUNNING:
                        break
                except JobError:
                    pass
                time.sleep(0.1)
            assert journal is not None and journal.state() is JobState.RUNNING
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == EXIT_CODES[JobState.CANCELLED]
        journal = JobJournal.open(tmp_path, "sigterm")
        assert journal.state() is JobState.CANCELLED
        # And the journal re-opens cleanly into a full run.
        resumed = resume_job(tmp_path, "sigterm")
        assert resumed.state is JobState.SUCCEEDED
        assert resumed.result == golden_summary


class TestExperimentWorkload:
    def test_experiment_job_checkpoints_and_replays(self, tmp_path):
        spec = _spec("table", workload="experiment:table_1_1")
        result = run_job(tmp_path, spec)
        assert result.state is JobState.SUCCEEDED
        assert result.n_shards == 1
        # Replay: the checkpoint answers without re-running the module.
        replay = resume_job(tmp_path, "table")
        assert replay.state is JobState.SUCCEEDED
        assert replay.result == result.result


class TestCliExitCodes:
    def test_submit_success_exit_zero(self, tmp_path, golden_summary):
        from repro.cli import main

        code = main(
            [
                "jobs",
                "submit",
                "ok",
                "--jobs-dir",
                str(tmp_path),
                "--clusters",
                str(N_CLUSTERS),
                "--seed",
                str(SEED),
            ]
        )
        assert code == 0
        summary = json.loads(
            (tmp_path / "ok" / "result.json").read_text()
        )
        assert summary["state"] == "succeeded"

    def test_submit_degraded_exit_three(self, tmp_path):
        from repro.cli import main

        code = main(
            [
                "--shards",
                str(SHARDS),
                "jobs",
                "submit",
                "partial",
                "--jobs-dir",
                str(tmp_path),
                "--clusters",
                str(N_CLUSTERS),
                "--seed",
                str(SEED),
                "--kill-worker-at",
                "1",
                "--max-attempts",
                "1",
            ]
        )
        assert code == 3

    def test_duplicate_submit_is_usage_error(self, tmp_path):
        from repro.cli import main

        argv = [
            "jobs",
            "submit",
            "twice",
            "--jobs-dir",
            str(tmp_path),
            "--clusters",
            "4",
        ]
        assert main(argv) == 0
        assert main(argv) == 2  # JobError -> usage-error convention

    def test_status_and_cancel_and_list(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "jobs",
                    "submit",
                    "st",
                    "--jobs-dir",
                    str(tmp_path),
                    "--clusters",
                    "4",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["jobs", "status", "st", "--jobs-dir", str(tmp_path)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "succeeded"
        assert main(["jobs", "cancel", "st", "--jobs-dir", str(tmp_path)]) == 0
        assert main(["jobs", "list", "--jobs-dir", str(tmp_path)]) == 0
        assert "st" in capsys.readouterr().out


class TestKillResumeChaosMode:
    def test_run_kill_resume_asserts_bit_identity(self, tmp_path):
        from repro.experiments import chaos

        result = chaos.run_kill_resume(
            n_clusters=N_CLUSTERS, shards=SHARDS, seed=SEED, verbose=False,
            jobs_root=str(tmp_path),
        )
        assert result["bit_identical"] is True
        assert result["crash_exit"] == 137
        assert result["state_after_crash"] == "running"
        assert result["state_after_resume"] == "succeeded"
        assert result["crash_shard"] not in result["checkpoints_before_resume"]
