"""What importing the dashboard costs a fresh process.

The end-to-end harness and the benches import
:mod:`repro.report.dashboard` for its floors and history helpers.  It
must not pull in the experiment modules (only :mod:`repro.report.report`
needs them) or the HTTP stack that ``xml.sax.saxutils`` drags in through
``urllib.request``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules_after(statement: str) -> set[str]:
    """The ``sys.modules`` keys of a fresh interpreter after ``statement``."""
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return set(json.loads(result.stdout))


def test_dashboard_import_loads_no_experiment_or_http_module():
    modules = _modules_after("import repro.report.dashboard")
    assert "repro.report.dashboard" in modules
    assert not {name for name in modules if name.startswith("repro.experiments")}
    assert "ssl" not in modules
    assert "urllib.request" not in modules
    assert "repro.report.report" not in modules

