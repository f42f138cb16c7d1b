"""The sweep orchestrator: a scenario matrix, executed durably.

Every :class:`~repro.scenarios.spec.ScenarioCell` runs as one
:func:`repro.sharding.run_fullscale` call, and the orchestrator keeps
two sweep-level artifacts, both provenance-stamped like the committed
``BENCH_*.json`` records:

``sweep.json``
    The manifest: the canonical spec, its content digest, and the cell
    ids in execution order.  A sweep directory belongs to exactly one
    spec — running a *different* spec against it is a loud
    :class:`~repro.exceptions.ConfigError`, never a silent cache hit.

``cells/<cell_id>.json``
    One stamped record per finished cell: the resolved configuration,
    its digest, the job outcome, and the merged result.  A record is
    reused on re-run/resume only when it re-validates (stamp intact,
    digests matching the current spec); anything stale or tampered is
    re-run instead — bit-identical, because shard execution is pure.

Killing a sweep at any instant — SIGKILL included — loses at most
the cell in flight: :func:`resume_sweep` reuses valid records and
re-runs only what never completed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.data.io import atomic_write
from repro.exceptions import ConfigError, ReproError
from repro.observability import counter, get_logger, span
from repro.observability.bench import assert_stamped, content_digest, stamp_record
from repro.scenarios.spec import ScenarioCell, SweepSpec
from repro.sharding import run_fullscale

import json

_logger = get_logger("repro.scenarios")

#: The manifest's ``record`` discriminator (dashboard discovery key).
SWEEP_RECORD = "scenario-sweep"

#: The per-cell record discriminator.
CELL_RECORD = "scenario-cell"

#: Sub-directory holding the per-cell provenance records.
CELLS_SUBDIR = "cells"

#: Manifest file name.
MANIFEST_NAME = "sweep.json"


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell in this orchestrator pass."""

    cell: ScenarioCell
    state: str
    complete: bool
    #: True when a valid provenance record satisfied the cell without
    #: running it.
    reused: bool
    exit_code: int
    record: dict


@dataclass
class SweepOutcome:
    """The result of one :func:`run_sweep`/:func:`resume_sweep` pass."""

    name: str
    sweep_dir: Path
    spec_digest: str
    cells: tuple[CellOutcome, ...]

    @property
    def exit_code(self) -> int:
        """The ``dnasim sweep`` exit code: 0 ok, 4 when a cell failed."""
        return max((outcome.exit_code for outcome in self.cells), default=0)

    @property
    def succeeded(self) -> int:
        return sum(1 for c in self.cells if c.state == "succeeded")

    @property
    def reused(self) -> int:
        return sum(1 for c in self.cells if c.reused)

    def summary(self) -> dict:
        return {
            "sweep": self.name,
            "sweep_dir": str(self.sweep_dir),
            "spec_digest": self.spec_digest,
            "n_cells": len(self.cells),
            "succeeded": self.succeeded,
            "reused": self.reused,
            "exit_code": self.exit_code,
            "cells": [
                {
                    "cell_id": outcome.cell.cell_id,
                    "state": outcome.state,
                    "complete": outcome.complete,
                    "reused": outcome.reused,
                }
                for outcome in self.cells
            ],
        }


def _manifest_path(sweep_dir: Path) -> Path:
    return sweep_dir / MANIFEST_NAME


def _cell_record_path(sweep_dir: Path, cell_id: str) -> Path:
    return sweep_dir / CELLS_SUBDIR / f"{cell_id}.json"


def read_manifest(sweep_dir: str | Path) -> dict:
    """Load and verify a sweep directory's manifest.

    Raises:
        ConfigError: missing or unparsable manifest, or one whose
            embedded spec no longer matches its recorded digest.
    """
    sweep_dir = Path(sweep_dir)
    path = _manifest_path(sweep_dir)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigError(
            f"{sweep_dir} is not a sweep directory (no readable "
            f"{MANIFEST_NAME}: {error})"
        ) from None
    except json.JSONDecodeError as error:
        raise ConfigError(f"corrupt sweep manifest {path}: {error}") from None
    if manifest.get("record") != SWEEP_RECORD:
        raise ConfigError(
            f"{path} is not a sweep manifest (record="
            f"{manifest.get('record')!r})"
        )
    spec = SweepSpec.from_json(manifest.get("spec", {}))
    if spec.digest() != manifest.get("spec_digest"):
        raise ConfigError(
            f"sweep manifest {path} is internally inconsistent: embedded "
            "spec does not match its recorded digest"
        )
    return manifest


def _write_manifest(sweep_dir: Path, spec: SweepSpec, cells) -> dict:
    manifest = stamp_record(
        {
            "record": SWEEP_RECORD,
            "sweep": spec.name,
            "spec": spec.to_json(),
            "spec_digest": spec.digest(),
            "n_cells": len(cells),
            "cell_ids": [cell.cell_id for cell in cells],
        }
    )
    sweep_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(
        _manifest_path(sweep_dir), json.dumps(manifest, indent=2) + "\n"
    )
    return manifest


def _valid_cell_record(
    record: dict, cell: ScenarioCell, spec_digest: str
) -> tuple[bool, str]:
    """Whether a recorded cell result may be reused for this spec."""
    try:
        assert_stamped(record)
    except AssertionError as error:
        return False, f"stamp invalid ({error})"
    if record.get("record") != CELL_RECORD:
        return False, f"not a cell record (record={record.get('record')!r})"
    if record.get("cell_digest") != cell.digest():
        return False, "cell digest mismatch (spec changed?)"
    if record.get("spec_digest") != spec_digest:
        return False, "spec digest mismatch"
    if record.get("job_state") != "succeeded":
        return False, f"job_state {record.get('job_state')!r}"
    if record.get("result") is None:
        return False, "no result payload"
    if record.get("payload_digest") != _payload_digest(record):
        return False, "result payload digest mismatch (record tampered?)"
    return True, "ok"


def _payload_digest(record: dict) -> str:
    """Digest binding a record's outcome fields together, so a record
    whose result was edited after the fact re-derives instead of being
    silently reused."""
    return content_digest(
        {
            "result": record.get("result"),
            "job_state": record.get("job_state"),
            "complete": record.get("complete"),
        }
    )


def _load_cell_record(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def run_sweep(
    spec: SweepSpec,
    sweep_dir: str | Path,
    echo=None,
    crash_after_cells: int | None = None,
) -> SweepOutcome:
    """Execute (or continue) a sweep spec against a sweep directory.

    Idempotent and crash-safe: cells with valid provenance records are
    reused without recomputation, and everything else runs
    fresh.  Re-running a *completed* sweep touches nothing but reads.

    Args:
        spec: the validated sweep spec.
        sweep_dir: directory owned by this spec (created if missing).
        echo: optional ``print``-like callable for per-cell progress.
        crash_after_cells: chaos hook — ``os._exit(137)`` after this
            many cells have *executed* (not reused), before the last
            one's record is written; exercises the kill/resume path.

    Raises:
        ConfigError: when ``sweep_dir`` already belongs to a different
            spec (provenance mismatch is never silently reused).
    """
    sweep_dir = Path(sweep_dir)
    manifest_path = _manifest_path(sweep_dir)
    spec_digest = spec.digest()
    if manifest_path.exists():
        manifest = read_manifest(sweep_dir)
        if manifest["spec_digest"] != spec_digest:
            raise ConfigError(
                f"sweep directory {sweep_dir} was built from a different "
                f"spec (manifest digest {manifest['spec_digest']}, this "
                f"spec {spec_digest}); use a fresh directory or the "
                "original spec"
            )
    cells = spec.expand()
    _write_manifest(sweep_dir, spec, cells)
    (sweep_dir / CELLS_SUBDIR).mkdir(parents=True, exist_ok=True)

    outcomes: list[CellOutcome] = []
    executed = 0
    with span("sweep", sweep=spec.name, cells=len(cells)):
        for position, cell in enumerate(cells):
            outcome = _run_cell(
                cell,
                spec,
                spec_digest,
                sweep_dir,
                crash=(
                    crash_after_cells is not None
                    and executed + 1 >= crash_after_cells
                ),
            )
            if not outcome.reused:
                executed += 1
            outcomes.append(outcome)
            if echo is not None:
                echo(
                    f"[{position + 1}/{len(cells)}] {outcome.cell.cell_id}: "
                    f"{outcome.state}"
                    + (" (reused)" if outcome.reused else "")
                )
    counter("sweep.runs").inc()
    return SweepOutcome(
        name=spec.name,
        sweep_dir=sweep_dir,
        spec_digest=spec_digest,
        cells=tuple(outcomes),
    )


def _run_cell(
    cell: ScenarioCell,
    spec: SweepSpec,
    spec_digest: str,
    sweep_dir: Path,
    crash: bool,
) -> CellOutcome:
    record_path = _cell_record_path(sweep_dir, cell.cell_id)
    existing = _load_cell_record(record_path)
    if existing is not None:
        valid, reason = _valid_cell_record(existing, cell, spec_digest)
        if valid:
            counter("sweep.cells_reused").inc()
            return CellOutcome(
                cell=cell,
                state=existing["job_state"],
                complete=bool(existing.get("complete")),
                reused=True,
                exit_code=0,
                record=existing,
            )
        counter("sweep.cells_stale").inc()
        _logger.warning(
            "sweep_cell_record_stale",
            cell_id=cell.cell_id,
            reason=reason,
        )

    result, error = None, None
    with span("sweep.cell", cell=cell.cell_id, index=cell.index):
        try:
            result = run_fullscale(
                n_clusters=cell.n_clusters,
                strand_length=cell.strand_length,
                mean_coverage=cell.coverage,
                seed=cell.seed,
                shards=cell.shards,
                workers=cell.workers,
                algorithms=(cell.algorithm,),
                max_copies=cell.max_copies,
                parameters=cell.parameters(),
                fault_severity=cell.severity,
            ).summary()
        except ReproError as failure:
            error = str(failure)
    if crash:
        # Chaos hook: die like SIGKILL, before the record is written.
        os._exit(137)
    state = "succeeded" if error is None else "failed"

    record = {
        "record": CELL_RECORD,
        "sweep": spec.name,
        "cell_id": cell.cell_id,
        "cell_index": cell.index,
        "scenario": cell.scenario(),
        "config": cell.config(),
        "cell_digest": cell.digest(),
        "spec_digest": spec_digest,
        "job_state": state,
        "complete": error is None,
        "result": result,
        "error": error,
    }
    record["payload_digest"] = _payload_digest(record)
    record = stamp_record(record)
    atomic_write(record_path, json.dumps(record, indent=2) + "\n")
    if state == "succeeded":
        counter("sweep.cells_completed").inc()
    else:
        counter("sweep.cells_failed").inc()
    return CellOutcome(
        cell=cell,
        state=state,
        complete=error is None,
        reused=False,
        exit_code=0 if error is None else 4,
        record=record,
    )


def resume_sweep(
    sweep_dir: str | Path,
    echo=None,
) -> SweepOutcome:
    """Continue a sweep from its own manifest (no spec file needed).

    Raises:
        ConfigError: when ``sweep_dir`` holds no valid manifest.
    """
    manifest = read_manifest(sweep_dir)
    spec = SweepSpec.from_json(manifest["spec"])
    return run_sweep(spec, sweep_dir, echo=echo)


def sweep_status(sweep_dir: str | Path) -> dict:
    """A JSON-ready status summary of a sweep directory.

    Per cell: ``recorded`` (valid provenance record present), the
    recorded job state, and whether the record is stale with
    respect to the manifest's spec.
    """
    sweep_dir = Path(sweep_dir)
    manifest = read_manifest(sweep_dir)
    spec = SweepSpec.from_json(manifest["spec"])
    spec_digest = manifest["spec_digest"]
    cells = []
    counts = {"recorded": 0, "pending": 0, "stale": 0}
    for cell in spec.expand():
        record = _load_cell_record(_cell_record_path(sweep_dir, cell.cell_id))
        state = None
        recorded = False
        stale = False
        if record is not None:
            valid, reason = _valid_cell_record(record, cell, spec_digest)
            recorded = valid
            stale = not valid
            state = record.get("job_state")
        counts["recorded" if recorded else "stale" if stale else "pending"] += 1
        cells.append(
            {
                "cell_id": cell.cell_id,
                "index": cell.index,
                "scenario": cell.scenario(),
                "state": state,
                "recorded": recorded,
                "stale": stale,
            }
        )
    return {
        "sweep": manifest["sweep"],
        "sweep_dir": str(sweep_dir),
        "spec_digest": spec_digest,
        "n_cells": manifest["n_cells"],
        **counts,
        "cells": cells,
    }
