"""Full HTML evaluation report: every table and figure, regenerated.

``generate_report(output_dir)`` runs each experiment, renders its figures
as standalone SVG files plus an ``index.html`` that mirrors the paper's
evaluation section — the artifact a reviewer would diff against the
original figures.  Also exposed as ``dnasim report``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.profile import SimulatorStage
from repro.experiments import (
    ablation,
    appendix_c,
    ext_staged,
    ext_two_way,
    fig_3_2,
    fig_3_3,
    fig_3_4,
    fig_3_5,
    fig_3_6,
    fig_3_7,
    fig_3_8,
    fig_3_9,
    fig_3_10,
    table_1_1,
    table_2_1,
    table_2_2,
    table_3_1,
    table_3_2,
)
from repro.report.charts import bar_chart, curve_chart, grouped_bar_chart, line_chart
from repro.report.svg import escape

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 960px; color: #222; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 6px; }
h2 { margin-top: 2em; color: #1f77b4; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
figure { margin: 1em 0; }
figcaption { font-size: 0.85em; color: #555; }
"""


class ReportBuilder:
    """Accumulates sections and writes the report directory."""

    def __init__(self, output_dir: str | Path) -> None:
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self._sections: list[str] = []
        self._figure_count = 0

    def heading(self, text: str) -> None:
        self._sections.append(f"<h2>{escape(text)}</h2>")

    def paragraph(self, text: str) -> None:
        self._sections.append(f"<p>{escape(text)}</p>")

    def table(self, headers: list[str], rows: list[list[object]]) -> None:
        header_html = "".join(f"<th>{escape(str(cell))}</th>" for cell in headers)
        rows_html = "".join(
            "<tr>" + "".join(f"<td>{escape(str(cell))}</td>" for cell in row) + "</tr>"
            for row in rows
        )
        self._sections.append(
            f"<table><thead><tr>{header_html}</tr></thead>"
            f"<tbody>{rows_html}</tbody></table>"
        )

    def figure(self, svg: str, caption: str) -> Path:
        self._figure_count += 1
        filename = f"figure_{self._figure_count:02d}.svg"
        path = self.output_dir / filename
        path.write_text(svg, encoding="utf-8")
        self._sections.append(
            f'<figure><img src="{filename}" alt="{escape(caption)}"/>'
            f"<figcaption>{escape(caption)}</figcaption></figure>"
        )
        return path

    def write(self, title: str) -> Path:
        html = (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{escape(title)}</title><style>{_STYLE}</style></head>"
            f"<body><h1>{escape(title)}</h1>"
            + "\n".join(self._sections)
            + "</body></html>"
        )
        index = self.output_dir / "index.html"
        index.write_text(html, encoding="utf-8")
        return index


def _accuracy_table(builder: ReportBuilder, results: dict) -> None:
    builder.table(
        ["Data", "BMA ps (%)", "BMA pc (%)", "Iter ps (%)", "Iter pc (%)"],
        [
            [
                label,
                f"{cell['BMA'][0]:.2f}",
                f"{cell['BMA'][1]:.2f}",
                f"{cell['Iterative'][0]:.2f}",
                f"{cell['Iterative'][1]:.2f}",
            ]
            for label, cell in results.items()
        ],
    )


def generate_report(
    output_dir: str | Path, n_clusters: int | None = None
) -> Path:
    """Run every experiment and write the HTML+SVG report.

    Returns the path of ``index.html``.
    """
    builder = ReportBuilder(output_dir)
    builder.paragraph(
        "Reproduction of every table and figure of 'Simulating Noisy "
        "Channels in DNA Storage'. All datasets are synthetic; see "
        "DESIGN.md for the wetlab-substitution rationale and "
        "EXPERIMENTS.md for paper-vs-measured commentary."
    )

    # --- Table 1.1 -------------------------------------------------- #
    builder.heading("Table 1.1 — sequencing technologies")
    rows = table_1_1.run(verbose=False)
    builder.table(
        ["Technology", "Cost/Kb", "Error rate", "Length", "Speed/Kb"],
        [
            [
                row["technology"],
                row["cost_per_kb"],
                row["error_rate"],
                row["sequencing_length"],
                row["read_speed_per_kb"],
            ]
            for row in rows
        ],
    )

    # --- Table 2.1 -------------------------------------------------- #
    builder.heading("Table 2.1 — per-strand accuracy, real vs simulated")
    t21 = table_2_1.run(n_clusters=n_clusters, verbose=False)
    builder.table(
        ["Data", "BMA (%)", "DivBMA (%)", "Iterative (%)"],
        [
            [label, f"{row['BMA']:.2f}", f"{row['DivBMA']:.2f}",
             f"{row['Iterative']:.2f}"]
            for label, row in t21.items()
        ],
    )
    builder.figure(
        grouped_bar_chart(
            {label: row for label, row in t21.items()},
            title="Table 2.1: per-strand accuracy (%)",
            y_label="per-strand accuracy (%)",
            y_max=100.0,
        ),
        "Per-strand accuracy of BMA / DivBMA / Iterative across datasets.",
    )

    # --- Table 2.2 -------------------------------------------------- #
    builder.heading("Table 2.2 — fixed-coverage comparison")
    t22 = table_2_2.run(n_clusters=n_clusters, verbose=False)
    builder.table(
        ["Data", "Coverage", "BMA ps", "BMA pc", "Iter ps", "Iter pc"],
        [
            [
                name,
                coverage,
                f"{cell['BMA'][0]:.2f}",
                f"{cell['BMA'][1]:.2f}",
                f"{cell['Iterative'][0]:.2f}",
                f"{cell['Iterative'][1]:.2f}",
            ]
            for (name, coverage), cell in t22.items()
        ],
    )

    # --- Tables 3.1 / 3.2 ------------------------------------------- #
    for coverage, runner, label in (
        (5, table_3_1, "Table 3.1"),
        (6, table_3_2, "Table 3.2"),
    ):
        builder.heading(
            f"{label} — progressive model refinement at N = {coverage}"
        )
        results = runner.run(n_clusters=n_clusters, verbose=False)
        _accuracy_table(builder, results)
        builder.figure(
            grouped_bar_chart(
                {
                    label_: {
                        "BMA": cell["BMA"][0],
                        "Iterative": cell["Iterative"][0],
                    }
                    for label_, cell in results.items()
                },
                title=f"{label}: per-strand accuracy at N = {coverage}",
                y_label="per-strand accuracy (%)",
                y_max=100.0,
            ),
            f"Each added parameter moves simulated accuracy toward real "
            f"(N = {coverage}).",
        )

    # --- Fig. 3.2 ---------------------------------------------------- #
    builder.heading("Fig. 3.2 — pre-reconstruction noise analysis")
    f32 = fig_3_2.run(n_clusters=n_clusters, verbose=False)
    builder.figure(
        curve_chart(
            {"Hamming": f32["hamming_curve"]},
            title="Fig 3.2a: Hamming errors by position",
        ),
        "Indel propagation produces the linear rise and the post-110 drop.",
    )
    builder.figure(
        curve_chart(
            {"gestalt-aligned": f32["gestalt_curve"]},
            title="Fig 3.2b: gestalt-aligned errors by position",
        ),
        f"Error sources are terminal-skewed; end/start ratio "
        f"{f32['gestalt_end_to_start_ratio']:.2f}.",
    )

    # --- Fig. 3.3 ---------------------------------------------------- #
    builder.heading("Fig. 3.3 — Iterative accuracy vs coverage")
    f33 = fig_3_3.run(n_clusters=n_clusters, verbose=False)
    builder.figure(
        line_chart(
            {
                "per-strand": [
                    (coverage, values[0]) for coverage, values in f33.items()
                ],
                "per-character": [
                    (coverage, values[1]) for coverage, values in f33.items()
                ],
            },
            title="Fig 3.3: Iterative reconstruction accuracy, N = 1..10",
            x_label="coverage",
            y_label="accuracy (%)",
            y_max=100.0,
        ),
        "Steep rise through coverages 4-6; stabilisation beyond 7.",
    )

    # --- Figs. 3.4 / 3.5 --------------------------------------------- #
    builder.heading("Fig. 3.4 — post-reconstruction, real data (N = 5)")
    f34 = fig_3_4.run(n_clusters=n_clusters, verbose=False)
    for algorithm, (hamming, gestalt) in f34["curves"].items():
        builder.figure(
            curve_chart(
                {"Hamming": hamming, "gestalt-aligned": gestalt},
                title=f"Fig 3.4: {algorithm} on real Nanopore data",
            ),
            f"{algorithm}: Hamming shows propagation; gestalt shows sources.",
        )

    builder.heading("Fig. 3.5 — post-reconstruction, skewed simulation (N = 5)")
    f35 = fig_3_5.run(n_clusters=n_clusters, verbose=False)
    for algorithm, (hamming, gestalt) in f35["curves"].items():
        builder.figure(
            curve_chart(
                {"Hamming": hamming, "gestalt-aligned": gestalt},
                title=f"Fig 3.5: {algorithm} on skew-stage simulation",
            ),
            f"{algorithm}: end-skew breaks BMA's symmetry.",
        )

    # --- Fig. 3.6 ---------------------------------------------------- #
    builder.heading("Fig. 3.6 — second-order errors")
    f36 = fig_3_6.run(n_clusters=n_clusters, verbose=False)
    builder.table(
        ["Error", "Count"],
        [[entry["error"], entry["count"]] for entry in f36["top_errors"]],
    )
    top = f36["top_errors"][0]
    builder.figure(
        bar_chart(
            top["positions"],
            title=f"Fig 3.6: positional distribution of '{top['error']}'",
            x_label="position",
            y_label="count",
        ),
        f"The most common second-order error; top-10 cover "
        f"{f36['top10_fraction'] * 100:.1f}% of all errors.",
    )

    # --- Figs. 3.7 / 3.8 ---------------------------------------------- #
    builder.heading("Fig. 3.7 — uniform p = 0.15, post-reconstruction")
    f37 = fig_3_7.run(n_clusters=n_clusters, verbose=False)
    builder.figure(
        curve_chart(
            {
                f"{algorithm} Hamming": curves[0]
                for algorithm, curves in f37["curves"].items()
            },
            title="Fig 3.7: Hamming curves at p-bar = 0.15, N = 5",
        ),
        "BMA: symmetric A-shape.  Iterative: linear rise.",
    )

    builder.heading("Fig. 3.8 — BMA gestalt curves vs coverage")
    f38 = fig_3_8.run(n_clusters=n_clusters, verbose=False)
    builder.figure(
        curve_chart(
            {f"N = {coverage}": curve for coverage, curve in f38["curves"].items()},
            title="Fig 3.8: BMA gestalt-aligned errors, p-bar = 0.15",
        ),
        "Higher coverage concentrates residual misalignment mid-strand.",
    )

    # --- Figs. 3.9 / 3.10 --------------------------------------------- #
    builder.heading("Figs. 3.9 / 3.10 — A-shaped vs V-shaped distributions")
    f39 = fig_3_9.run(n_clusters=n_clusters, verbose=False)
    builder.figure(
        curve_chart(
            {
                shape: [rate * 100 for rate in rates]
                for shape, rates in f39["measured_rates"].items()
            },
            title="Fig 3.9: measured pre-reconstruction error rates (%)",
            y_label="error rate (%)",
        ),
        "Triangular distribution (a=0, b=0.30, mean 0.15) and its inversion.",
    )
    f310 = fig_3_10.run(n_clusters=n_clusters, verbose=False)
    for shape, (hamming, gestalt) in f310["curves"].items():
        builder.figure(
            curve_chart(
                {"Hamming": hamming, "gestalt-aligned": gestalt},
                title=f"Fig 3.10: BMA on {shape} data",
            ),
            f"BMA on {shape} errors: per-char "
            f"{f310['accuracy'][shape][1]:.1f}%.",
        )

    # --- Appendix C + extensions -------------------------------------- #
    builder.heading("Appendix C — post-reconstruction panel grid (N = 5)")
    grid = appendix_c.run(n_clusters=n_clusters, verbose=False)
    for label, algorithms in grid.items():
        builder.figure(
            curve_chart(
                {
                    f"{algorithm} Hamming": curves[0]
                    for algorithm, curves in algorithms.items()
                },
                title=f"Appendix C: {label}",
                height=260,
            ),
            f"Hamming curves for {label}.",
        )

    builder.heading("Extensions")
    x1 = ext_two_way.run(n_clusters=n_clusters, verbose=False)
    builder.table(
        ["Data", "Algorithm", "Per-strand (%)", "Per-char (%)"],
        [
            [dataset, algorithm, f"{values[0]:.2f}", f"{values[1]:.2f}"]
            for dataset, cell in x1.items()
            for algorithm, values in cell.items()
        ],
    )
    x2 = ablation.run(n_clusters=n_clusters, verbose=False)
    builder.table(
        ["Ablation variant", "Sim per-strand (%)", "Gap to real (pp)"],
        [
            [variant, f"{values[0]:.2f}", f"{values[1]:.2f}"]
            for variant, values in x2["variants"].items()
        ],
    )
    x3 = ext_staged.run(n_clusters=n_clusters, verbose=False)
    builder.paragraph(
        f"Multi-stage channel: coverage mean {x3['coverage_mean']:.2f}, "
        f"variance {x3['coverage_variance']:.2f} (over-dispersed: "
        f"{x3['overdispersed']}); aggregate error "
        f"{x3['aggregate_error_rate'] * 100:.2f}%."
    )

    return builder.write("Simulating Noisy Channels in DNA Storage — reproduction report")
