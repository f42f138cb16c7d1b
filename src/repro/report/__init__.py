"""Figure/report generation: a dependency-free SVG renderer, an HTML
report that regenerates every table and figure of the paper, and a
self-contained observability dashboard (bench trajectory, flame rollups,
metrics, run health) built from the same primitives.

The report (:mod:`repro.report.report`) runs every experiment, so it is
not re-exported here: importing the package, or the dashboard, loads no
experiment module.  Import ``ReportBuilder`` and ``generate_report``
from :mod:`repro.report.report`."""

from repro.report.charts import (
    bar_chart,
    curve_chart,
    grouped_bar_chart,
    line_chart,
)
from repro.report.dashboard import (
    SECTION_IDS,
    build_dashboard_html,
    flame_rollup,
    write_dashboard,
)
from repro.report.history import (
    HISTORY_DIR_NAME,
    append_record,
    history_path,
    load_history,
    read_history_file,
)
from repro.report.svg import PALETTE, SVGCanvas

__all__ = [
    "HISTORY_DIR_NAME",
    "PALETTE",
    "SECTION_IDS",
    "SVGCanvas",
    "append_record",
    "bar_chart",
    "build_dashboard_html",
    "curve_chart",
    "flame_rollup",
    "grouped_bar_chart",
    "history_path",
    "line_chart",
    "load_history",
    "read_history_file",
    "write_dashboard",
]
