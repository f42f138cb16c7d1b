"""Command-line interface (``dnasim``), modelled on DNASimulator's tooling.

Subcommands:

* ``dataset``     — generate a synthetic Nanopore-like wetlab dataset;
* ``profile``     — measure error statistics of a clustered dataset;
* ``generate``    — fit a simulator to a dataset and generate noisy copies;
* ``evaluate``    — run reconstruction algorithms and report accuracy;
* ``experiment``  — run one (or all) of the paper's table/figure
  reproductions;
* ``report``      — HTML reporting: ``figures`` regenerates every paper
  table/figure, ``dashboard`` builds the self-contained observability
  dashboard (bench trajectory across git SHAs, trace flame rollups,
  metrics cards, chaos run health) as one HTML artifact;
* ``chaos``       — sweep injected-fault severity against the archive's
  resilient retrieval loop and report recovery rates;
* ``sweep``       — expand a declarative scenario matrix and run, resume,
  inspect or list it cell by cell (exit codes: 0 ok, 4 a cell failed).

All clustered files use DNASimulator's evyat text format
(:mod:`repro.data.io`).

User-input failures (:class:`~repro.exceptions.ReproError`, bad paths)
exit with a one-line stage-tagged message and a non-zero code; pass
``--debug`` (before the subcommand) to re-raise with a full traceback.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import observability
from repro.core.coverage import ConstantCoverage
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.parallel import set_default_workers
from repro.core.simulator import Simulator
from repro.data.io import PoolWriter, iter_pool, read_pool, read_references, write_pool
from repro.data.nanopore import iter_nanopore_clusters, make_nanopore_dataset
from repro.exceptions import ConfigError, ReproError
from repro.sharding.plan import set_default_shards
from repro.metrics.accuracy import evaluate_reconstruction
from repro.reconstruct import RECONSTRUCTORS, Reconstructor

EXPERIMENTS = (
    "fullscale",
    "table_1_1",
    "table_2_1",
    "table_2_2",
    "table_3_1",
    "table_3_2",
    "fig_3_2",
    "fig_3_3",
    "fig_3_4",
    "fig_3_5",
    "fig_3_6",
    "fig_3_7",
    "fig_3_8",
    "fig_3_9",
    "fig_3_10",
    "appendix_c",
    "ext_two_way",
    "ext_staged",
    "ext_reliability",
    "ablation",
    "chaos",
)


def _make_reconstructor(name: str) -> Reconstructor:
    try:
        return RECONSTRUCTORS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from {sorted(RECONSTRUCTORS)}"
        ) from None


def _cmd_dataset(args: argparse.Namespace) -> int:
    if args.stream:
        # Shard-by-shard generation written straight to disk: peak memory
        # is bounded by the shards in flight, so the paper's full
        # 10k x 110 / ~270k-read scale fits on any machine.  Streamed
        # datasets use per-cluster derived seeds (identical at any
        # --shards/--workers; different draws than the serial generator).
        with PoolWriter(args.output) as writer:
            writer.write_all(
                iter_nanopore_clusters(
                    n_clusters=args.clusters,
                    strand_length=args.length,
                    mean_coverage=args.coverage,
                    seed=args.seed,
                )
            )
        print(
            f"wrote {writer.n_clusters} clusters / {writer.n_copies} noisy "
            f"copies to {args.output} (streamed)"
        )
        return 0
    pool = make_nanopore_dataset(
        n_clusters=args.clusters,
        strand_length=args.length,
        mean_coverage=args.coverage,
        seed=args.seed,
    )
    write_pool(pool, args.output)
    print(
        f"wrote {len(pool)} clusters / {pool.total_copies} noisy copies "
        f"to {args.output}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.stream:
        profile = ErrorProfile.from_clusters(
            iter_pool(args.dataset), max_copies_per_cluster=args.max_copies
        )
        statistics = profile.statistics
        rates = statistics.aggregate_rates()
        print(f"dataset: {args.dataset} (streamed)")
        print(
            f"aggregate error rate: "
            f"{statistics.aggregate_error_rate() * 100:.2f}%"
        )
        print(
            "rates: "
            + "  ".join(
                f"{kind}={value * 100:.3f}%" for kind, value in rates.items()
            )
        )
        print(
            f"long deletions: p={statistics.long_deletion_rate() * 100:.3f}%  "
            f"mean length={statistics.mean_long_deletion_length():.2f}"
        )
        return 0
    pool = read_pool(args.dataset)
    profile = ErrorProfile.from_pool(
        pool, max_copies_per_cluster=args.max_copies
    )
    statistics = profile.statistics
    rates = statistics.aggregate_rates()
    print(f"dataset: {len(pool)} clusters, {pool.total_copies} copies")
    print(f"mean coverage: {pool.mean_coverage:.2f}  erasures: {pool.erasure_count}")
    print(f"aggregate error rate: {statistics.aggregate_error_rate() * 100:.2f}%")
    print(
        "rates: "
        + "  ".join(f"{kind}={value * 100:.3f}%" for kind, value in rates.items())
    )
    print(
        f"long deletions: p={statistics.long_deletion_rate() * 100:.3f}%  "
        f"mean length={statistics.mean_long_deletion_length():.2f}"
    )
    print("top second-order errors:")
    for key, count in statistics.top_second_order_errors(10):
        print(f"  {statistics.describe_second_order(key):14s} {count}")
    print(
        f"top-10 second-order coverage: "
        f"{statistics.second_order_fraction(10) * 100:.1f}% of errors"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    training = read_pool(args.train)
    profile = ErrorProfile.from_pool(
        training, max_copies_per_cluster=args.max_copies
    )
    stage = SimulatorStage(args.stage)
    simulator = Simulator.fitted(
        profile,
        stage=stage,
        coverage=ConstantCoverage(args.coverage),
        seed=args.seed,
        per_cluster_seeds=args.parallel_seeds,
    )
    if args.references:
        references = read_references(args.references)
    else:
        references = training.references
    if args.stream:
        if not args.parallel_seeds:
            raise ConfigError(
                "--stream requires --parallel-seeds: streamed generation "
                "partitions clusters into shards, which needs per-cluster "
                "RNG streams (the default serial stream cannot be split)"
            )
        with PoolWriter(args.output) as writer:
            writer.write_all(simulator.iter_shards(references))
        print(
            f"simulated {writer.n_clusters} clusters at coverage "
            f"{args.coverage} ({stage.value} stage) -> {args.output} "
            "(streamed)"
        )
        return 0
    pool = simulator.simulate(references)
    write_pool(pool, args.output)
    print(
        f"simulated {len(pool)} clusters at coverage {args.coverage} "
        f"({stage.value} stage) -> {args.output}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pool = read_pool(args.dataset)
    if args.trim is not None:
        pool = pool.trimmed(args.trim)
    for name in args.algorithms:
        reconstructor = _make_reconstructor(name)
        report = evaluate_reconstruction(pool, reconstructor)
        print(f"{reconstructor.name:20s} {report}")
    return 0


def _cmd_report_figures(args: argparse.Namespace) -> int:
    from repro.report.report import generate_report

    index = generate_report(args.output_dir, n_clusters=args.clusters)
    print(f"report written to {index}")
    return 0


def _cmd_report_dashboard(args: argparse.Namespace) -> int:
    from repro.report.dashboard import write_dashboard
    from repro.report.history import default_repo_root

    repo_root = args.repo_root if args.repo_root else default_repo_root()
    out = write_dashboard(
        out=args.out, run_dir=args.run_dir, repo_root=repo_root
    )
    print(f"dashboard written to {out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    if args.clusters is not None and args.clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {args.clusters}")
    names = EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        print(f"=== {name} ===")
        with observability.span("experiment", experiment=name):
            if name != "table_1_1":
                module.run(n_clusters=args.clusters)
            else:
                module.run()
        print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import chaos
    from repro.robustness import SEVERITY_LEVELS

    severities = tuple(args.severities or chaos.SEVERITIES)
    for severity in severities:
        if severity not in SEVERITY_LEVELS:
            raise SystemExit(
                f"unknown fault severity {severity!r}; choose from "
                f"{sorted(SEVERITY_LEVELS)}"
            )
    result = chaos.run(
        n_clusters=args.clusters,
        severities=severities,
        n_trials=args.trials,
        seed=args.seed,
    )
    exit_code = 0 if result["unhandled_errors"] == 0 else 1
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"dnasim: chaos outcome -> {args.json_out}", file=sys.stderr)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """The ``dnasim`` argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="dnasim",
        description="DNA-storage noisy-channel simulator "
        "(reproduction of 'Simulating Noisy Channels in DNA Storage')",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise errors with a full traceback instead of a "
        "one-line message",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for per-cluster stages (profile fitting, "
        "reconstruction, curves; 0 = all cores; overrides REPRO_WORKERS; "
        "default: serial)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition streamed generation (dataset/generate --stream), "
        "and full-scale runs into N contiguous shards (bounded memory "
        "at paper scale; results are identical "
        "at any shard count; other stages ignore it; overrides "
        "REPRO_SHARDS; default: 1)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="structured-log threshold (overrides REPRO_LOG_LEVEL; "
        "default: warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines instead of key=value",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="enable span tracing and write the trace as JSON lines to "
        "FILE when the command finishes",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable the metrics registry and write it to FILE when the "
        "command finishes (.prom -> Prometheus text, else JSON)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dataset = commands.add_parser(
        "dataset", help="generate a synthetic Nanopore wetlab dataset"
    )
    dataset.add_argument("output", help="output evyat file")
    dataset.add_argument("--clusters", type=int, default=1000)
    dataset.add_argument("--length", type=int, default=110)
    dataset.add_argument("--coverage", type=float, default=26.97)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument(
        "--stream",
        action="store_true",
        help="generate shard by shard and write clusters to disk as they "
        "are produced (memory holds one shard per worker in flight, so "
        "pass the global --shards N to bound it: at the default of one "
        "shard it holds the whole dataset; per-cluster seeds, so the "
        "drawn noise differs from the default serial stream)",
    )
    dataset.set_defaults(handler=_cmd_dataset)

    profile = commands.add_parser(
        "profile", help="measure error statistics of a clustered dataset"
    )
    profile.add_argument("dataset", help="input evyat file")
    profile.add_argument("--max-copies", type=int, default=4)
    profile.add_argument(
        "--stream",
        action="store_true",
        help="profile the dataset as a cluster stream instead of "
        "materialising it (bounded memory; identical statistics)",
    )
    profile.set_defaults(handler=_cmd_profile)

    generate = commands.add_parser(
        "generate", help="fit a simulator to data and generate noisy copies"
    )
    generate.add_argument("train", help="training dataset (evyat)")
    generate.add_argument("output", help="output evyat file")
    generate.add_argument(
        "--stage",
        choices=[stage.value for stage in SimulatorStage],
        default=SimulatorStage.SECOND_ORDER.value,
    )
    generate.add_argument("--coverage", type=int, default=5)
    generate.add_argument("--references", help="optional reference-strand file")
    generate.add_argument("--max-copies", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--parallel-seeds",
        action="store_true",
        help="derive one RNG stream per cluster from (seed, index) so "
        "simulation can run on --workers processes; changes the drawn "
        "noise relative to the default serial stream",
    )
    generate.add_argument(
        "--stream",
        action="store_true",
        help="simulate shard by shard and write clusters to disk as they "
        "are produced (memory holds one shard per worker in flight, so "
        "pass the global --shards N to bound it: at the default of one "
        "shard it holds the whole output; requires --parallel-seeds)",
    )
    generate.set_defaults(handler=_cmd_generate)

    evaluate = commands.add_parser(
        "evaluate", help="run reconstruction algorithms over a dataset"
    )
    evaluate.add_argument("dataset", help="input evyat file")
    evaluate.add_argument(
        "--algorithms",
        nargs="+",
        default=["bma", "iterative"],
        metavar="ALGO",
        help=f"any of {sorted(RECONSTRUCTORS)}",
    )
    evaluate.add_argument(
        "--trim", type=int, help="trim every cluster to this coverage first"
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    experiment = commands.add_parser(
        "experiment", help="run a paper table/figure reproduction"
    )
    experiment.add_argument(
        "name", choices=EXPERIMENTS + ("all",), help="experiment id"
    )
    experiment.add_argument("--clusters", type=int, default=None)
    experiment.set_defaults(handler=_cmd_experiment)

    report = commands.add_parser(
        "report",
        help="HTML reporting: paper figures, observability dashboard",
    )
    report_verbs = report.add_subparsers(dest="report_command", required=True)

    figures = report_verbs.add_parser(
        "figures",
        help="regenerate every table and figure as an HTML+SVG report",
    )
    figures.add_argument("output_dir", help="directory for index.html + SVGs")
    figures.add_argument("--clusters", type=int, default=None)
    figures.set_defaults(handler=_cmd_report_figures)

    dashboard = report_verbs.add_parser(
        "dashboard",
        help="build the self-contained observability dashboard "
        "(bench trajectory, flame rollups, metrics, run health) "
        "as one HTML file",
    )
    dashboard.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="directory holding a run's artifacts (trace JSONL, metrics "
        "JSON, sweeps, chaos outcomes, test summaries); "
        "discovered by content, any layout works",
    )
    dashboard.add_argument(
        "--out",
        default="dashboard.html",
        metavar="FILE",
        help="output HTML path (default: dashboard.html)",
    )
    dashboard.add_argument(
        "--repo-root",
        default=None,
        metavar="DIR",
        help="checkout root whose bench_history/ and BENCH_*.json feed "
        "the trajectory section (default: this checkout)",
    )
    dashboard.set_defaults(handler=_cmd_report_dashboard)

    chaos = commands.add_parser(
        "chaos",
        help="sweep injected-fault severity and report archive recovery",
    )
    chaos.add_argument("--clusters", type=int, default=None)
    chaos.add_argument(
        "--trials", type=int, default=3, help="trials per severity level"
    )
    chaos.add_argument(
        "--severities",
        nargs="+",
        metavar="LEVEL",
        help="severity levels to sweep (default: the full ladder)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the sweep outcome document as JSON "
        "(the dashboard's run-health section discovers these)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    _add_sweep_commands(commands)

    return parser


def _add_sweep_commands(commands) -> None:
    """The ``dnasim sweep`` verb group (declarative scenario sweeps)."""
    sweep = commands.add_parser(
        "sweep",
        help="declarative scenario sweeps: expand a TOML spec into a "
        "matrix of resumable cells (run/status/resume/list)",
    )
    verbs = sweep.add_subparsers(dest="sweep_command", required=True)

    run = verbs.add_parser(
        "run",
        help="expand a sweep spec and run every cell on the sharded "
        "runner (exit 0 ok / 4 failed; idempotent — "
        "recorded cells are reused, not recomputed)",
    )
    run.add_argument("spec", metavar="SPEC.toml", help="sweep spec file")
    run.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="sweep directory (manifest + per-cell records); "
        "owned by this spec — a different spec against the same "
        "directory is a config error",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded scenario matrix and exit without running",
    )
    run.add_argument(
        "--crash-after-cells",
        type=int,
        default=None,
        metavar="N",
        help="chaos: the orchestrator dies (as if SIGKILLed) after N "
        "cells have executed, before the Nth record is written; "
        "'sweep resume' must re-run it bit-identically",
    )
    run.set_defaults(handler=_cmd_sweep)

    resume = verbs.add_parser(
        "resume",
        help="continue a sweep from its own manifest: valid records are "
        "reused, the rest run fresh (exit codes as for run)",
    )
    resume.add_argument("dir", metavar="DIR", help="sweep directory")
    resume.set_defaults(handler=_cmd_sweep)

    status = verbs.add_parser(
        "status",
        help="per-cell state of a sweep directory (records, staleness)",
    )
    status.add_argument("dir", metavar="DIR", help="sweep directory")
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    status.set_defaults(handler=_cmd_sweep)

    listing = verbs.add_parser(
        "list", help="list every sweep directory under a root"
    )
    listing.add_argument("root", metavar="DIR", help="directory to scan")
    listing.set_defaults(handler=_cmd_sweep)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.common import format_scenario, format_table
    from repro.scenarios import (
        list_sweeps,
        load_sweep_spec,
        resume_sweep,
        run_sweep,
        sweep_status,
    )

    command = args.sweep_command

    if command == "run":
        spec = load_sweep_spec(args.spec)
        cells = spec.expand()
        if args.dry_run:
            print(
                f"sweep {spec.name!r}: {len(cells)} cells "
                f"(digest {spec.digest()[:12]})"
            )
            print(
                format_table(
                    ["cell", "scenario"],
                    [
                        [cell.cell_id, format_scenario(cell.scenario())]
                        for cell in cells
                    ],
                )
            )
            return 0
        print(f"sweep {spec.name!r}: {len(cells)} cells -> {args.out}")
        outcome = run_sweep(
            spec,
            args.out,
            echo=print,
            crash_after_cells=args.crash_after_cells,
        )
        _print_sweep_results(outcome.sweep_dir, format_table)
        return outcome.exit_code

    if command == "resume":
        outcome = resume_sweep(args.dir, echo=print)
        _print_sweep_results(outcome.sweep_dir, format_table)
        return outcome.exit_code

    if command == "status":
        status = sweep_status(args.dir)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(
            f"sweep {status['sweep']!r}: {status['recorded']}/"
            f"{status['n_cells']} recorded, {status['pending']} pending, "
            f"{status['stale']} stale"
        )
        print(
            format_table(
                ["cell", "state", "scenario"],
                [
                    [
                        cell["cell_id"],
                        ("reusable" if cell["recorded"] else cell["state"])
                        or "-",
                        format_scenario(cell["scenario"]),
                    ]
                    for cell in status["cells"]
                ],
            )
        )
        return 0

    # list
    sweeps = list_sweeps(args.root)
    if not sweeps:
        print(f"no sweeps under {args.root}")
        return 0
    print(
        format_table(
            ["sweep", "cells", "recorded", "succeeded", "dir"],
            [
                [
                    entry["sweep"],
                    entry["n_cells"],
                    entry["recorded"],
                    entry["succeeded"],
                    entry["sweep_dir"],
                ]
                for entry in sweeps
            ],
        )
    )
    return 0


def _print_sweep_results(sweep_dir, format_table) -> None:
    """The per-cell results table ``sweep run``/``resume`` end with."""
    from repro.scenarios import SweepStore

    rows = SweepStore(sweep_dir).results_table()
    if not rows:
        return
    print()
    print(
        format_table(
            ["cell", "state", "error", "per_strand", "per_char"],
            [
                [
                    row["cell_id"],
                    row["job_state"],
                    (
                        f"{row['aggregate_error_rate']:.4f}"
                        if row["aggregate_error_rate"] is not None
                        else "-"
                    ),
                    (
                        f"{row['per_strand']:.2f}"
                        if row["per_strand"] is not None
                        else "-"
                    ),
                    (
                        f"{row['per_character']:.2f}"
                        if row["per_character"] is not None
                        else "-"
                    ),
                ]
                for row in rows
            ],
        )
    )


def _export_observability(args: argparse.Namespace) -> None:
    """Write the collected trace / metrics to the requested files.

    Runs in ``main``'s ``finally`` so a failing subcommand still leaves
    its partial trace behind — usually exactly the run one wants to
    inspect.
    """
    if args.trace:
        active_tracer = observability.tracer()
        if active_tracer is not None:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(active_tracer.to_jsonl())
            print(
                f"dnasim: trace: {len(active_tracer.records)} spans "
                f"-> {args.trace}",
                file=sys.stderr,
            )
    if args.metrics_out:
        active_registry = observability.registry()
        if active_registry is not None:
            if args.metrics_out.endswith(".prom"):
                text = active_registry.to_prometheus_text()
            else:
                text = active_registry.to_json_text()
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"dnasim: metrics -> {args.metrics_out}", file=sys.stderr)
    _auto_dashboard(args)


def _auto_dashboard(args: argparse.Namespace) -> None:
    """After a traced/metriced experiment run, drop a dashboard next to
    the exported artifacts.

    Best-effort by design: the dashboard is a convenience by-product, so
    a failure here prints a note instead of failing the run that just
    produced the data.
    """
    if getattr(args, "command", None) != "experiment":
        return
    if not (args.trace or args.metrics_out):
        return
    from pathlib import Path

    try:
        from repro.report.dashboard import write_dashboard
        from repro.report.history import default_repo_root

        run_dir = Path(args.trace or args.metrics_out).resolve().parent
        out = write_dashboard(
            out=run_dir / "dashboard.html",
            run_dir=run_dir,
            repo_root=default_repo_root(),
        )
        print(f"dnasim: dashboard -> {out}", file=sys.stderr)
    except Exception as error:  # noqa: BLE001 - never fail the run
        print(f"dnasim: dashboard skipped: {error}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.log_level is not None or args.log_json:
            observability.configure_logging(
                level=args.log_level, json_mode=args.log_json or None
            )
        if args.trace or args.metrics_out:
            observability.enable(
                tracing=bool(args.trace), metrics=bool(args.metrics_out)
            )
        if args.workers is not None:
            # Install the default so every per-cluster stage a subcommand
            # reaches (directly or through the experiment runners)
            # inherits it.
            try:
                set_default_workers(args.workers)
            except ValueError as error:
                raise ConfigError(str(error)) from error
        if args.shards is not None:
            # Same propagation story as --workers: stages resolve the
            # shard default internally, so experiments and pipelines pick
            # up the requested partitioning without new plumbing.
            try:
                set_default_shards(args.shards)
            except ValueError as error:
                raise ConfigError(str(error)) from error
        try:
            return args.handler(args)
        finally:
            _export_observability(args)
            if args.trace or args.metrics_out:
                observability.disable()
    except (ReproError, OSError) as error:
        if args.debug:
            raise
        message = (
            error.tagged() if isinstance(error, ReproError) else str(error)
        )
        print(f"dnasim: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
