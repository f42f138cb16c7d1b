"""Declarative scenarios: sweep specs, the orchestrator, and the store.

This package turns hand-written experiment modules into data.  A TOML
(or in-code) :class:`SweepSpec` names a scenario matrix — channel ×
coverage × reconstructor × fault severity × shard/worker layout —
:func:`run_sweep` executes every cell on the sharded full-scale
runner with stamped per-cell provenance
records, and :class:`SweepStore` queries the results.  ``dnasim sweep``
exposes run/status/resume/list on the command line; the report
dashboard renders recorded sweeps in its "sweep" section.
"""

from repro.scenarios.orchestrator import (
    CELL_RECORD,
    SWEEP_RECORD,
    CellOutcome,
    SweepOutcome,
    read_manifest,
    resume_sweep,
    run_sweep,
    sweep_status,
)
from repro.scenarios.spec import (
    AXES,
    AXIS_DEFAULTS,
    DEFAULT_CHANNEL,
    ORDERS,
    ScenarioCell,
    SweepSpec,
    load_sweep_spec,
    parse_sweep_spec,
)
from repro.scenarios.store import SweepStore, list_sweeps

__all__ = [
    "AXES",
    "AXIS_DEFAULTS",
    "CELL_RECORD",
    "CellOutcome",
    "DEFAULT_CHANNEL",
    "ORDERS",
    "SWEEP_RECORD",
    "ScenarioCell",
    "SweepOutcome",
    "SweepSpec",
    "SweepStore",
    "list_sweeps",
    "load_sweep_spec",
    "parse_sweep_spec",
    "read_manifest",
    "resume_sweep",
    "run_sweep",
    "sweep_status",
]
