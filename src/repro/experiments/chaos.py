"""E-X5 — chaos harness: recovery rate under escalating injected faults.

The paper's datasets fail in structured ways (empty clusters, coverage
0–164, terminal-skewed bursts); this harness *injects* those failure
modes deliberately — at each documented
:data:`~repro.robustness.SEVERITY_LEVELS` step — and measures whether the
end-to-end archive either recovers byte-exact data via retry escalation
or degrades gracefully to a structured partial result.  The acceptance
bar: **no unhandled exception ever escapes**
:meth:`~repro.pipeline.storage.DNAArchive.retrieve`, at any severity.

Output: recovery rate (byte-exact), mean recovered fraction, and mean
attempts used, per severity — the companion to E-X4's coverage sweep
(:mod:`repro.experiments.ext_reliability`).
"""

from __future__ import annotations

import random

from repro.core.errors import ErrorModel
from repro.experiments.common import format_table
from repro.observability import counter, get_logger, span
from repro.pipeline.storage import DNAArchive
from repro.reconstruct.iterative import IterativeReconstruction
from repro.robustness import FaultInjector, RetryPolicy, SEVERITY_LEVELS

_logger = get_logger("repro.experiments.chaos")

#: Severity sweep order (mirrors the documented ladder).
SEVERITIES = tuple(SEVERITY_LEVELS)

#: Independent trials per severity (different archive + fault seeds).
N_TRIALS = 3

#: Payload bytes carried per strand.
PAYLOAD_BYTES = 16

#: Reed-Solomon geometry: 16 data + 8 parity strands per group (the
#: archive survives 8 lost strands per 24, or 4 silent corruptions).
RS_GROUP_DATA = 16
RS_GROUP_PARITY = 8

#: Base sequencing coverage of the first attempt.
BASE_COVERAGE = 4


def _mild_channel() -> ErrorModel:
    """A mild sequencing channel so the faults, not the channel, dominate."""
    return ErrorModel.naive(0.005, 0.005, 0.01)


def _retry_policy() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3,
        coverage_growth=2.0,
        fallback_reconstructor=IterativeReconstruction(),
    )


def run(
    n_clusters: int | None = None,
    verbose: bool = True,
    severities: tuple[str, ...] = SEVERITIES,
    n_trials: int = N_TRIALS,
    seed: int = 0,
) -> dict:
    """Sweep fault severity; report recovery statistics per level.

    ``n_clusters`` sets the number of *data strands* per archived file
    (each strand is one cluster of the retrieval pipeline), so
    ``REPRO_N_CLUSTERS`` scales this experiment like every other.

    Returns a dict with per-severity ``recovery_rate`` (byte-exact
    fraction of trials), ``mean_fraction`` (mean recovered-byte
    fraction), ``mean_attempts``, ``fault_counts``, and the
    all-severities ``unhandled_errors`` count (must be 0).
    """
    from repro.exceptions import ConfigError
    from repro.experiments.common import DEFAULT_N_CLUSTERS

    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    n_strands = n_clusters if n_clusters is not None else DEFAULT_N_CLUSTERS
    n_strands = max(8, min(n_strands, 200))
    payload_length = PAYLOAD_BYTES * n_strands

    recovery_rate: dict[str, float] = {}
    mean_fraction: dict[str, float] = {}
    mean_attempts: dict[str, float] = {}
    fault_counts: dict[str, int] = {}
    unhandled_errors = 0
    channel = _mild_channel()
    policy = _retry_policy()

    for severity in severities:
        exact = 0
        fractions: list[float] = []
        attempts_used: list[int] = []
        faults_injected = 0
        with span(
            "chaos.severity", severity=severity, trials=n_trials
        ) as severity_span:
            for trial in range(n_trials):
                counter("chaos.trials", severity=severity).inc()
                trial_rng = random.Random(f"{seed}:{severity}:{trial}")
                payload = bytes(
                    trial_rng.randrange(256) for _ in range(payload_length)
                )
                archive = DNAArchive(
                    seed=seed + trial,
                    payload_bytes=PAYLOAD_BYTES,
                    rs_group_data=RS_GROUP_DATA,
                    rs_group_parity=RS_GROUP_PARITY,
                )
                archive.write("file", payload)
                injector = FaultInjector(severity, seed=seed * 1000 + trial)
                try:
                    result = archive.retrieve(
                        "file",
                        channel_model=channel,
                        coverage=BASE_COVERAGE,
                        faults=injector,
                        retry=policy,
                    )
                except Exception as error:  # noqa: BLE001 — the metric under test
                    unhandled_errors += 1
                    counter("chaos.unhandled_errors", severity=severity).inc()
                    _logger.error(
                        "chaos_unhandled_error",
                        severity=severity,
                        trial=trial,
                        error=str(error),
                    )
                    continue
                faults_injected += injector.report.total_faults
                attempts_used.append(result.n_attempts)
                recovered = bool(result.complete and result.data == payload)
                if recovered:
                    exact += 1
                    fractions.append(1.0)
                else:
                    fractions.append(result.recovery_fraction)
                _logger.info(
                    "chaos_trial",
                    severity=severity,
                    trial=trial,
                    recovered=recovered,
                    attempts=result.n_attempts,
                    faults=injector.report.total_faults,
                )
            if severity_span is not None:
                severity_span.set(
                    recovered_exactly=exact, faults_injected=faults_injected
                )
        recovery_rate[severity] = exact / n_trials
        mean_fraction[severity] = (
            sum(fractions) / len(fractions) if fractions else 0.0
        )
        mean_attempts[severity] = (
            sum(attempts_used) / len(attempts_used) if attempts_used else 0.0
        )
        fault_counts[severity] = faults_injected

    result = {
        "severities": list(severities),
        "recovery_rate": recovery_rate,
        "mean_fraction": mean_fraction,
        "mean_attempts": mean_attempts,
        "fault_counts": fault_counts,
        "unhandled_errors": unhandled_errors,
        "n_strands": n_strands,
        "n_trials": n_trials,
    }
    if verbose:
        print(
            "Chaos harness: archive recovery under injected faults "
            f"({n_strands} strands/file, {n_trials} trials, "
            f"retry x{policy.max_attempts})"
        )
        print(
            format_table(
                [
                    "Severity",
                    "recovered exactly",
                    "mean bytes recovered",
                    "mean attempts",
                    "faults injected",
                ],
                [
                    [
                        severity,
                        f"{recovery_rate[severity] * 100:.0f}%",
                        f"{mean_fraction[severity] * 100:.1f}%",
                        f"{mean_attempts[severity]:.1f}",
                        fault_counts[severity],
                    ]
                    for severity in severities
                ],
            )
        )
        print(f"unhandled exceptions: {unhandled_errors} (must be 0)")
    return result


if __name__ == "__main__":
    run()
