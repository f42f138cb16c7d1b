"""End-to-end tests for the dnasim command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data.io import read_pool, write_pool, write_references


@pytest.fixture
def dataset_file(tmp_path, nanopore_pool):
    path = tmp_path / "real.txt"
    write_pool(nanopore_pool.trimmed(4), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table_9_9"])


class TestDatasetCommand:
    def test_generates_file(self, tmp_path):
        output = tmp_path / "out.txt"
        code = main(
            ["dataset", str(output), "--clusters", "10", "--seed", "3"]
        )
        assert code == 0
        pool = read_pool(output)
        assert len(pool) == 10


class TestProfileCommand:
    def test_prints_statistics(self, dataset_file, capsys):
        assert main(["profile", str(dataset_file)]) == 0
        output = capsys.readouterr().out
        assert "aggregate error rate" in output
        assert "second-order" in output


class TestGenerateCommand:
    def test_fits_and_generates(self, dataset_file, tmp_path):
        output = tmp_path / "sim.txt"
        code = main(
            [
                "generate",
                str(dataset_file),
                str(output),
                "--stage",
                "skew",
                "--coverage",
                "3",
            ]
        )
        assert code == 0
        pool = read_pool(output)
        assert pool.coverages() == [3] * len(pool)

    def test_generate_with_reference_file(self, dataset_file, tmp_path):
        references = tmp_path / "refs.txt"
        write_references(["ACGT" * 25, "TGCA" * 25], references)
        output = tmp_path / "sim.txt"
        code = main(
            [
                "generate",
                str(dataset_file),
                str(output),
                "--references",
                str(references),
                "--coverage",
                "2",
            ]
        )
        assert code == 0
        assert len(read_pool(output)) == 2


class TestEvaluateCommand:
    def test_reports_accuracy(self, dataset_file, capsys):
        code = main(
            ["evaluate", str(dataset_file), "--algorithms", "bma", "majority"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "BMA" in output
        assert "per-strand" in output

    def test_trim_option(self, dataset_file, capsys):
        assert main(["evaluate", str(dataset_file), "--trim", "2"]) == 0

    def test_unknown_algorithm_exits(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["evaluate", str(dataset_file), "--algorithms", "magic"])


class TestExperimentCommand:
    def test_runs_table_1_1(self, capsys):
        assert main(["experiment", "table_1_1"]) == 0
        assert "Nanopore" in capsys.readouterr().out

    def test_runs_fig_3_2_at_small_scale(self, capsys):
        assert main(["experiment", "fig_3_2", "--clusters", "30"]) == 0
        assert "Gestalt-aligned" in capsys.readouterr().out


class TestChaosCommand:
    def test_sweeps_and_reports_recovery(self, capsys):
        code = main(
            [
                "chaos",
                "--clusters",
                "10",
                "--trials",
                "1",
                "--severities",
                "none",
                "severe",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "recovered exactly" in output
        assert "unhandled exceptions: 0" in output

    def test_unknown_severity_exits(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--severities", "apocalyptic"])


class TestErrorHandling:
    def test_missing_file_exits_nonzero_with_one_line_message(self, capsys):
        code = main(["profile", "/no/such/dataset.txt"])
        assert code != 0
        captured = capsys.readouterr()
        assert captured.err.startswith("dnasim: error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_malformed_dataset_exits_with_tagged_message(
        self, tmp_path, capsys
    ):
        path = tmp_path / "broken.txt"
        path.write_text("ACGT\nACGA\n")  # missing separator line
        code = main(["profile", str(path)])
        assert code != 0
        err = capsys.readouterr().err
        assert "dnasim: error: [data]" in err
        assert f"{path.name}:2:" in err

    def test_negative_workers_exits_with_config_message(self, capsys):
        code = main(["--workers", "-3", "experiment", "table_1_1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dnasim: error: [config]")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dataset", "{out}", "--clusters", "-5", "--stream"],
            ["dataset", "{out}", "--clusters", "-5"],
            ["experiment", "fullscale", "--clusters", "-5"],
        ],
        ids=["dataset-stream", "dataset", "fullscale"],
    )
    def test_negative_clusters_exits_with_config_message(
        self, argv, tmp_path, capsys
    ):
        out = str(tmp_path / "out.txt")
        code = main([arg.format(out=out) for arg in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("dnasim: error: [config]")
        assert "n_clusters" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "wrote" not in captured.out

    @pytest.mark.parametrize("clusters", ["0", "-5"])
    def test_bad_clusters_prints_nothing_to_stdout(self, clusters, capsys):
        code = main(["experiment", "fullscale", "--clusters", clusters])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"dnasim: error: [config] n_clusters must be >= 1, got {clusters}\n"
        )

    def test_debug_flag_reraises(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("ACGT\nACGA\n")
        with pytest.raises(ValueError):
            main(["--debug", "profile", str(path)])

    def test_debug_flag_reraises_oserror(self):
        with pytest.raises(OSError):
            main(["--debug", "profile", "/no/such/dataset.txt"])


class TestSweepCommand:
    SPEC = """\
[sweep]
name = "cli-sweep"
seed = 2
clusters = 6

[axes]
coverage = [4.0]
algorithm = ["majority", "bma"]
"""

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(self.SPEC)
        return path

    def test_dry_run_prints_matrix_without_running(
        self, spec_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        code = main(
            ["sweep", "run", str(spec_path), "--out", str(out_dir), "--dry-run"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2 cells" in output
        assert "algorithm=majority" in output
        assert not out_dir.exists()

    def test_run_status_resume_list(self, spec_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", "run", str(spec_path), "--out", str(out_dir)]) == 0
        run_output = capsys.readouterr().out
        assert "succeeded" in run_output
        assert (out_dir / "sweep.json").exists()

        assert main(["sweep", "status", str(out_dir)]) == 0
        status_output = capsys.readouterr().out
        assert "2/2 recorded" in status_output
        assert "reusable" in status_output

        assert main(["sweep", "status", str(out_dir), "--json"]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["recorded"] == 2

        assert main(["sweep", "resume", str(out_dir)]) == 0
        assert "(reused)" in capsys.readouterr().out

        assert main(["sweep", "list", str(tmp_path)]) == 0
        assert "cli-sweep" in capsys.readouterr().out

    def test_list_without_sweeps(self, tmp_path, capsys):
        assert main(["sweep", "list", str(tmp_path)]) == 0
        assert "no sweeps" in capsys.readouterr().out

    def test_spec_typo_is_positioned_config_error(self, tmp_path, capsys):
        path = tmp_path / "typo.toml"
        path.write_text(self.SPEC.replace("coverage =", "coverges ="))
        code = main(["sweep", "run", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dnasim: error: [config]")
        assert "typo.toml:7:" in err
        assert "did you mean 'coverage'?" in err

    def test_missing_spec_file_is_config_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "run", "/no/such/spec.toml", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_status_of_non_sweep_dir_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "status", str(tmp_path)])
        assert code == 2
        assert "not a sweep directory" in capsys.readouterr().err
