"""A queryable view over sweep results on disk.

The orchestrator's on-disk layout (stamped manifest + one stamped record
per cell) *is* the results store; this module is the read side.  A
:class:`SweepStore` loads a sweep directory and answers axis-filtered
queries without re-running anything, and :func:`list_sweeps` discovers
every sweep under a root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import ConfigError
from repro.scenarios.orchestrator import (
    CELL_RECORD,
    CELLS_SUBDIR,
    MANIFEST_NAME,
    read_manifest,
)
from repro.scenarios.spec import AXES, SweepSpec


class SweepStore:
    """Read-only access to one sweep directory's records."""

    def __init__(self, sweep_dir: str | Path) -> None:
        self.sweep_dir = Path(sweep_dir)
        self.manifest = read_manifest(self.sweep_dir)
        self.spec = SweepSpec.from_json(self.manifest["spec"])

    @property
    def name(self) -> str:
        return self.manifest["sweep"]

    def cell_records(self) -> list[dict]:
        """Every parseable cell record, sorted by cell index."""
        records = []
        cells_dir = self.sweep_dir / CELLS_SUBDIR
        if cells_dir.is_dir():
            for path in sorted(cells_dir.glob("*.json")):
                try:
                    record = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    continue
                if record.get("record") == CELL_RECORD:
                    records.append(record)
        records.sort(key=lambda record: record.get("cell_index", 0))
        return records

    def query(self, **filters) -> list[dict]:
        """Cell records whose scenario matches every given axis value.

        ``store.query(algorithm="bma", severity="none")`` returns the
        records of exactly those matrix cells.

        Raises:
            ConfigError: for filter names that are not axes.
        """
        for axis in filters:
            if axis not in AXES:
                raise ConfigError(
                    f"unknown query axis {axis!r}; choose from {list(AXES)}"
                )
        return [
            record
            for record in self.cell_records()
            if all(
                record.get("scenario", {}).get(axis) == value
                for axis, value in filters.items()
            )
        ]

    def results_table(self) -> list[dict]:
        """Flat per-cell rows (scenario + headline metrics), ready for
        table rendering or the dashboard."""
        rows = []
        for record in self.cell_records():
            result = record.get("result") or {}
            accuracy = result.get("accuracy") or {}
            report = accuracy.get(record["scenario"]["algorithm"], {})
            rows.append(
                {
                    "cell_id": record.get("cell_id"),
                    "cell_index": record.get("cell_index"),
                    **record.get("scenario", {}),
                    "job_state": record.get("job_state"),
                    "complete": record.get("complete"),
                    "aggregate_error_rate": result.get("aggregate_error_rate"),
                    "mean_coverage": result.get("mean_coverage"),
                    "per_strand": report.get("per_strand"),
                    "per_character": report.get("per_character"),
                }
            )
        return rows


def list_sweeps(root: str | Path) -> list[dict]:
    """Manifest summaries for every sweep directory under ``root``.

    A directory counts as a sweep when it holds a valid ``sweep.json``
    manifest (any nesting depth, matching the dashboard's content-based
    discovery).
    """
    root = Path(root)
    summaries = []
    if not root.is_dir():
        return summaries
    for path in sorted(root.rglob(MANIFEST_NAME)):
        try:
            store = SweepStore(path.parent)
        except ConfigError:
            continue
        records = store.cell_records()
        summaries.append(
            {
                "sweep": store.name,
                "sweep_dir": str(path.parent),
                "spec_digest": store.manifest["spec_digest"],
                "n_cells": store.manifest["n_cells"],
                "recorded": len(records),
                "succeeded": sum(
                    1 for r in records if r.get("job_state") == "succeeded"
                ),
            }
        )
    return summaries
