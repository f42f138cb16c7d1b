"""Property and conformance tests for the scenario DSL and orchestrator.

Three layers, matching the package:

* **Spec properties** — expansion is a pure function with two verified
  inverses (``expand``/``from_cells`` and ``to_toml``/``parse``), the
  shuffled execution order is seed-deterministic, and every malformed
  spec dies loudly with a ``file:line``-positioned :class:`ConfigError`
  carrying a did-you-mean hint (a typo'd axis must never silently
  shrink the matrix).
* **Orchestrator conformance** — every artifact a sweep writes passes
  ``assert_stamped``; a perturbed spec is a loud mismatch against an
  existing sweep directory; a tampered or failed cell record is
  detected and re-derived, never silently reused.
* **Retired backends** — the alignment and channel paths are chosen
  from the input shape, so a stale ``REPRO_*_BACKEND`` environment
  cannot change what a cell computes, and a spec naming a retired
  backend axis is a positioned ``[config]`` error.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import pytest

from repro.core import channel_backend
from repro.core.channel import Channel
from repro.exceptions import ConfigError
from repro.observability.bench import assert_stamped
from repro.scenarios import orchestrator
from repro.scenarios import (
    AXES,
    AXIS_DEFAULTS,
    ORDERS,
    ScenarioCell,
    SweepSpec,
    SweepStore,
    list_sweeps,
    parse_sweep_spec,
    read_manifest,
    resume_sweep,
    run_sweep,
    sweep_status,
)
from tests.test_channel_backend import loop_transmit_seeded
from tests.test_kernels import patch_reference_kernels

# ----------------------------------------------------------------- #
# Fixtures
# ----------------------------------------------------------------- #

WIDE_TOML = """\
[sweep]
name = "wide"
seed = 7
clusters = 12
order = "lexicographic"

[axes]
channel = ["paper", "hot"]
coverage = [4.0, 6.0]
algorithm = ["majority", "bma"]
severity = ["none", "mild"]
shards = [1, 2]

[channels.hot]
substitution_rate = 0.04
deletion_rate = 0.02
"""


def wide_spec() -> SweepSpec:
    return parse_sweep_spec(WIDE_TOML, source="wide.toml")


def tiny_spec(**overrides) -> SweepSpec:
    """A 2-cell spec small enough to execute inside a test."""
    settings = {
        "name": "tiny",
        "seed": 2,
        "n_clusters": 6,
        "axes": {"coverage": (4.0,), "algorithm": ("majority", "bma")},
    }
    settings.update(overrides)
    return SweepSpec(**settings)


# ----------------------------------------------------------------- #
# Spec properties
# ----------------------------------------------------------------- #


class TestExpansion:
    def test_cross_product_size_and_indices(self):
        spec = wide_spec()
        cells = spec.expand()
        assert len(cells) == spec.n_cells == 2 * 2 * 2 * 2 * 2
        assert [cell.index for cell in cells] == list(range(len(cells)))

    def test_unlisted_axes_get_defaults(self):
        spec = tiny_spec()
        cell = spec.expand()[0]
        assert cell.channel == AXIS_DEFAULTS["channel"][0]
        assert cell.severity == "none"
        assert cell.shards == 1

    def test_expansion_is_deterministic(self):
        assert wide_spec().expand() == wide_spec().expand()

    def test_cells_carry_channel_overrides(self):
        cells = wide_spec().expand()
        hot = [cell for cell in cells if cell.channel == "hot"]
        paper = [cell for cell in cells if cell.channel == "paper"]
        assert hot and paper
        assert all(
            cell.channel_parameters
            == (("deletion_rate", 0.02), ("substitution_rate", 0.04))
            for cell in hot
        )
        assert all(cell.channel_parameters == () for cell in paper)

    def test_cell_digests_unique(self):
        cells = wide_spec().expand()
        assert len({cell.digest() for cell in cells}) == len(cells)
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_cell_id_embeds_index_and_coordinates(self):
        cell = wide_spec().expand()[0]
        assert cell.cell_id == (
            f"cell-000-{cell.channel}-{cell.algorithm}-{cell.digest()[:8]}"
        )

    def test_scenario_covers_exactly_the_axes(self):
        cell = wide_spec().expand()[0]
        assert tuple(cell.scenario()) == AXES

    def test_digest_depends_on_scale_not_just_axes(self):
        base = tiny_spec().expand()[0]
        rescaled = tiny_spec(n_clusters=7).expand()[0]
        assert base.scenario() == rescaled.scenario()
        assert base.digest() != rescaled.digest()


class TestRoundTrip:
    def test_from_cells_inverts_expand(self):
        spec = wide_spec()
        assert SweepSpec.from_cells(spec.expand()) == spec

    def test_from_cells_inverts_shuffled_expand(self):
        spec = wide_spec()
        spec.order = "shuffled"
        rebuilt = SweepSpec.from_cells(spec.expand(), order="shuffled")
        assert rebuilt == spec

    def test_parse_inverts_to_toml(self):
        spec = wide_spec()
        assert parse_sweep_spec(spec.to_toml()) == spec

    def test_toml_round_trip_preserves_digest(self):
        spec = wide_spec()
        assert parse_sweep_spec(spec.to_toml()).digest() == spec.digest()

    def test_json_round_trip(self):
        spec = wide_spec()
        payload = json.loads(json.dumps(spec.to_json()))
        assert SweepSpec.from_json(payload) == spec

    def test_json_rejects_unknown_fields(self):
        payload = wide_spec().to_json()
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown fields.*surprise"):
            SweepSpec.from_json(payload)


class TestShuffledOrder:
    def test_same_seed_same_order(self):
        spec = wide_spec()
        spec.order = "shuffled"
        other = wide_spec()
        other.order = "shuffled"
        assert spec.expand() == other.expand()

    def test_different_seed_different_order(self):
        spec = wide_spec()
        spec.order = "shuffled"
        reseeded = wide_spec()
        reseeded.seed = 8
        reseeded.order = "shuffled"
        assert [c.index for c in spec.expand()] != [
            c.index for c in reseeded.expand()
        ]

    def test_shuffle_permutes_but_preserves_cells(self):
        spec = wide_spec()
        lexicographic = spec.expand()
        spec.order = "shuffled"
        shuffled = spec.expand()
        assert [c.index for c in shuffled] != [c.index for c in lexicographic]
        assert sorted(shuffled, key=lambda c: c.index) != list(shuffled)
        # Same cells, same indices, same digests — only visit order moves,
        # and the seed participates in every digest, not the order.
        by_index = {c.index: c for c in shuffled}
        assert all(
            by_index[c.index].digest() == c.digest() for c in lexicographic
        )

    def test_orders_vocabulary(self):
        assert ORDERS == ("lexicographic", "shuffled")
        with pytest.raises(ConfigError, match="unknown order 'shufled'"):
            tiny_spec(order="shufled")


def run_fullscale_arguments(spec, sweep_dir, monkeypatch) -> dict:
    """Run ``spec`` with ``run_fullscale`` captured; map each cell to the
    keyword arguments of the one ``run_fullscale`` call it made."""
    calls = []

    def capture(**kwargs):
        calls.append(kwargs)
        return SimpleNamespace(summary=dict)

    monkeypatch.setattr(orchestrator, "run_fullscale", capture)
    outcome = run_sweep(spec, sweep_dir)
    assert outcome.exit_code == 0
    assert len(calls) == spec.n_cells
    return dict(zip((c.cell for c in outcome.cells), calls))


class TestJobSpecMapping:
    """Each cell runs as one ``run_fullscale`` call with its own
    coordinates: coverage is the mean coverage, severity the fault
    severity, and a preset's overrides the channel parameters."""

    def test_cell_maps_onto_job_spec(self, tmp_path, monkeypatch):
        spec = tiny_spec(
            axes={
                "channel": ("hot",),
                "coverage": (6.0,),
                "algorithm": ("bma",),
                "severity": ("mild",),
                "shards": (1, 2),
            },
            channels={"hot": {"substitution_rate": 0.04,
                              "deletion_rate": 0.02}},
        )
        by_cell = run_fullscale_arguments(spec, tmp_path / "sweep", monkeypatch)
        assert len(by_cell) == 2  # one cell per shards value
        for cell, kwargs in by_cell.items():
            parameters = kwargs.pop("parameters")
            assert kwargs == {
                "n_clusters": spec.n_clusters,
                "strand_length": spec.strand_length,
                "mean_coverage": 6.0,
                "seed": spec.seed,
                "shards": cell.shards,
                "workers": cell.workers,
                "algorithms": ("bma",),
                "max_copies": spec.max_copies,
                "fault_severity": "mild",
            }
            assert parameters == cell.parameters()
            assert parameters.substitution_rate == 0.04
            assert parameters.deletion_rate == 0.02

    def test_paper_channel_pins_no_parameter_overrides(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec()
        by_cell = run_fullscale_arguments(spec, tmp_path / "sweep", monkeypatch)
        assert {cell.channel for cell in by_cell} == {"paper"}
        for cell, kwargs in by_cell.items():
            assert cell.parameters() is None
            assert kwargs["parameters"] is None


class TestValidation:
    def test_scalar_axis_values_coerce_to_one_element_axes(self):
        spec = SweepSpec(name="s", axes={"coverage": 5, "shards": 2})
        assert spec.axes["coverage"] == (5.0,)
        assert spec.axes["shards"] == (2,)

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(
            ConfigError, match="duplicate value 4.0 in axis 'coverage'"
        ):
            tiny_spec(axes={"coverage": (4.0, 4)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis 'coverage' must not be empty"):
            tiny_spec(axes={"coverage": ()})

    @pytest.mark.parametrize(
        ("axes", "message"),
        [
            ({"algorithm": ("mojority",)}, r"unknown algorithm 'mojority'; did you mean 'majority'\?"),
            ({"severity": ("mild-ish",)}, r"unknown severity 'mild-ish'; did you mean 'mild'\?"),
            ({"align_backend": ("auto",)}, r"axis 'align_backend' was removed"),
            ({"channel_backend": ("auto",)}, r"axis 'channel_backend' was removed"),
            ({"channel": ("papre",)}, r"unknown channel 'papre'; did you mean 'paper'\?"),
            ({"coverage": (0,)}, r"coverage values must be > 0"),
            ({"coverage": (True,)}, r"coverage values must be numbers"),
            ({"shards": (1.5,)}, r"shards values must be an integer"),
            ({"workers": (0,)}, r"workers values must be >= 1"),
        ],
    )
    def test_bad_axis_values(self, axes, message):
        with pytest.raises(ConfigError, match=message):
            tiny_spec(axes=axes)

    def test_unknown_axis_gets_suggestion(self):
        with pytest.raises(
            ConfigError, match=r"unknown key 'coverges' in \[axes\]; did you mean 'coverage'\?"
        ):
            tiny_spec(axes={"coverges": (4.0,)})

    def test_paper_preset_cannot_be_redefined(self):
        with pytest.raises(ConfigError, match="'paper' is built in"):
            tiny_spec(channels={"paper": {"substitution_rate": 0.1}})

    def test_unreferenced_preset_rejected(self):
        with pytest.raises(
            ConfigError, match="'cold' is defined but never referenced"
        ):
            tiny_spec(channels={"cold": {"substitution_rate": 0.001}})

    def test_unknown_channel_parameter_gets_suggestion(self):
        with pytest.raises(
            ConfigError, match=r"substition_rate.*did you mean 'substitution_rate'\?"
        ):
            tiny_spec(
                axes={"channel": ("paper", "bad")},
                channels={"bad": {"substition_rate": 0.1}},
            )

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="sweep name must match"):
            tiny_spec(name="no spaces allowed")

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="clusters must be an integer"):
            tiny_spec(n_clusters=True)


class TestTomlErrors:
    """Every TOML-level failure carries a ``file:line`` position."""

    def test_typo_in_axes_has_position_and_suggestion(self):
        text = WIDE_TOML.replace("coverage =", "coverges =")
        line = 1 + text.splitlines().index("coverges = [4.0, 6.0]")
        with pytest.raises(
            ConfigError,
            match=rf"sweep\.toml:{line}: unknown key 'coverges' in \[axes\]; "
            r"did you mean 'coverage'\?",
        ) as exc_info:
            parse_sweep_spec(text, source="sweep.toml")
        assert exc_info.value.stage == "config"

    def test_typo_in_sweep_table_has_position(self):
        text = WIDE_TOML.replace("clusters = 12", "clutsers = 12")
        with pytest.raises(
            ConfigError,
            match=r"sweep\.toml:4: unknown key 'clutsers' in \[sweep\]; "
            r"did you mean 'clusters'\?",
        ):
            parse_sweep_spec(text, source="sweep.toml")

    def test_bad_axis_value_points_at_its_line(self):
        text = WIDE_TOML.replace(
            'algorithm = ["majority", "bma"]',
            'algorithm = ["majority", "mba"]',
        )
        line = 1 + text.splitlines().index('algorithm = ["majority", "mba"]')
        with pytest.raises(
            ConfigError, match=rf"sweep\.toml:{line}: unknown algorithm 'mba'"
        ):
            parse_sweep_spec(text, source="sweep.toml")

    def test_retired_backend_axis_points_at_its_line(self):
        text = WIDE_TOML.replace(
            "[axes]\n", '[axes]\nchannel_backend = ["vectorised"]\n'
        )
        line = 1 + text.splitlines().index('channel_backend = ["vectorised"]')
        with pytest.raises(
            ConfigError,
            match=rf"sweep\.toml:{line}: axis 'channel_backend' was removed",
        ) as exc_info:
            parse_sweep_spec(text, source="sweep.toml")
        assert exc_info.value.stage == "config"
        assert len(str(exc_info.value).splitlines()) == 1

    def test_unknown_top_level_table(self):
        with pytest.raises(
            ConfigError, match=r"spec\.toml:1: unknown table or key 'axis'"
        ):
            parse_sweep_spec('[axis]\ncoverage = [4.0]\n', source="spec.toml")

    def test_missing_sweep_table(self):
        with pytest.raises(ConfigError, match=r"missing required \[sweep\] table"):
            parse_sweep_spec("[axes]\ncoverage = [4.0]\n", source="spec.toml")

    def test_missing_name(self):
        with pytest.raises(
            ConfigError, match=r"spec\.toml:1: missing required key 'name'"
        ):
            parse_sweep_spec("[sweep]\nseed = 1\n", source="spec.toml")

    def test_invalid_toml(self):
        with pytest.raises(ConfigError, match=r"spec\.toml: invalid TOML"):
            parse_sweep_spec("[sweep\nname=", source="spec.toml")

    def test_duplicate_axis_value_points_at_axis_line(self):
        text = WIDE_TOML.replace("coverage = [4.0, 6.0]", "coverage = [4.0, 4.0]")
        line = 1 + text.splitlines().index("coverage = [4.0, 4.0]")
        with pytest.raises(ConfigError, match=rf"sweep\.toml:{line}: duplicate"):
            parse_sweep_spec(text, source="sweep.toml")


# ----------------------------------------------------------------- #
# Orchestrator conformance (tiny real sweeps)
# ----------------------------------------------------------------- #


class TestConformance:
    def test_every_artifact_is_stamped(self, tmp_path):
        outcome = run_sweep(tiny_spec(), tmp_path / "sweep")
        assert outcome.exit_code == 0
        assert_stamped(read_manifest(tmp_path / "sweep"))
        store = SweepStore(tmp_path / "sweep")
        records = store.cell_records()
        assert len(records) == 2
        for record in records:
            assert_stamped(record)

    def test_rerun_reuses_every_cell(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path / "sweep")
        again = run_sweep(spec, tmp_path / "sweep")
        assert again.reused == again.succeeded == 2

    def test_perturbed_spec_is_a_loud_mismatch(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "sweep")
        perturbed = tiny_spec(n_clusters=7)
        with pytest.raises(ConfigError, match="built from a different spec"):
            run_sweep(perturbed, tmp_path / "sweep")

    def test_tampered_record_is_rederived_not_reused(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, tmp_path / "sweep")
        record_path = next((tmp_path / "sweep" / "cells").glob("cell-000-*.json"))
        record = json.loads(record_path.read_text())
        pristine_result = json.loads(json.dumps(record["result"]))
        record["result"]["aggregate_error_rate"] = 0.0
        record_path.write_text(json.dumps(record, indent=2) + "\n")

        again = run_sweep(spec, tmp_path / "sweep")
        tampered = next(c for c in again.cells if c.cell.index == 0)
        assert not tampered.reused
        # Re-run: the forged number is gone and the record holds the
        # original result again.
        rewritten = json.loads(record_path.read_text())
        assert rewritten["result"] == pristine_result
        assert rewritten["result"] == first.cells[0].record["result"]

    def test_unstamped_record_is_rederived(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path / "sweep")
        record_path = next((tmp_path / "sweep" / "cells").glob("cell-001-*.json"))
        record = json.loads(record_path.read_text())
        del record["git_sha"]
        record_path.write_text(json.dumps(record) + "\n")
        again = run_sweep(spec, tmp_path / "sweep")
        assert not next(c for c in again.cells if c.cell.index == 1).reused
        assert_stamped(json.loads(record_path.read_text()))

    def test_status_counts_and_stale_detection(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path / "sweep")
        status = sweep_status(tmp_path / "sweep")
        assert status["recorded"] == 2
        assert status["stale"] == status["pending"] == 0

        record_path = next((tmp_path / "sweep" / "cells").glob("cell-000-*.json"))
        record = json.loads(record_path.read_text())
        record["job_state"] = "failed"
        record_path.write_text(json.dumps(record) + "\n")
        status = sweep_status(tmp_path / "sweep")
        assert status["recorded"] == 1
        assert status["stale"] == 1

    def test_resume_sweep_needs_no_spec_file(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "sweep")
        outcome = resume_sweep(tmp_path / "sweep")
        assert outcome.exit_code == 0
        assert outcome.reused == 2

    def test_resume_of_non_sweep_directory_fails(self, tmp_path):
        with pytest.raises(ConfigError, match="not a sweep directory"):
            resume_sweep(tmp_path)

    def test_failed_cell_is_recorded_and_rerun(self, tmp_path, monkeypatch):
        """A run that raises fails its own cell only: the record says so,
        the sweep goes on, and the next pass re-runs the failed cell."""
        real_run_fullscale = orchestrator.run_fullscale

        def fail_majority(**kwargs):
            if kwargs["algorithms"] == ("majority",):
                raise ConfigError("injected shard failure")
            return real_run_fullscale(**kwargs)

        spec = tiny_spec()
        monkeypatch.setattr(orchestrator, "run_fullscale", fail_majority)
        outcome = run_sweep(spec, tmp_path / "sweep")
        assert outcome.exit_code == 4
        failed, later = outcome.cells
        assert failed.record["job_state"] == "failed"
        assert failed.record["complete"] is False
        assert failed.record["result"] is None
        assert failed.record["error"] == "injected shard failure"
        assert later.state == "succeeded" and later.exit_code == 0

        monkeypatch.setattr(orchestrator, "run_fullscale", real_run_fullscale)
        again = run_sweep(spec, tmp_path / "sweep")
        assert again.exit_code == 0
        assert [c.reused for c in again.cells] == [False, True]
        assert again.cells[0].state == "succeeded"

    def test_sweep_dir_with_stale_job_journals_is_reused(self, tmp_path):
        """Sweep directories written when each cell ran as a durable job
        also hold ``jobs/<cell_id>/job.json``: their records still
        validate, and the journals are ignored."""
        spec = tiny_spec()
        sweep_dir = tmp_path / "sweep"
        run_sweep(spec, sweep_dir)
        for cell in spec.expand():
            journal = sweep_dir / "jobs" / cell.cell_id
            journal.mkdir(parents=True)
            (journal / "job.json").write_text(
                json.dumps({"format_version": 1, "job_id": cell.cell_id,
                            "state": "running", "spec": {}})
            )
        outcome = resume_sweep(sweep_dir)
        assert outcome.exit_code == 0
        assert outcome.reused == 2
        status = sweep_status(sweep_dir)
        assert status["recorded"] == 2
        assert [cell["state"] for cell in status["cells"]] == [
            "succeeded", "succeeded"
        ]

        next((sweep_dir / "cells").glob("cell-000-*.json")).unlink()
        status = sweep_status(sweep_dir)
        assert status["pending"] == 1
        assert status["cells"][0]["state"] is None


class TestStore:
    def test_query_by_axis(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "sweep")
        store = SweepStore(tmp_path / "sweep")
        assert len(store.query(algorithm="majority")) == 1
        assert len(store.query(algorithm="bma", coverage=4.0)) == 1
        assert store.query(algorithm="divbma") == []

    def test_query_rejects_unknown_axis(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "sweep")
        with pytest.raises(ConfigError, match="unknown query axis 'algorithms'"):
            SweepStore(tmp_path / "sweep").query(algorithms="bma")

    def test_results_table_rows(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "sweep")
        rows = SweepStore(tmp_path / "sweep").results_table()
        assert [row["algorithm"] for row in rows] == ["majority", "bma"]
        for row in rows:
            assert row["job_state"] == "succeeded"
            assert 0.0 <= row["aggregate_error_rate"] <= 1.0

    def test_list_sweeps_finds_nested_manifests(self, tmp_path):
        run_sweep(tiny_spec(), tmp_path / "a" / "sweep")
        run_sweep(tiny_spec(name="tiny2"), tmp_path / "b" / "deep" / "sweep")
        found = list_sweeps(tmp_path)
        assert sorted(entry["sweep"] for entry in found) == ["tiny", "tiny2"]


# ----------------------------------------------------------------- #
# Backend pinning
# ----------------------------------------------------------------- #


class TestBackendPinning:
    def test_pinned_backends_ignore_poisoned_environment(
        self, tmp_path, monkeypatch
    ):
        """A sweep never reads the retired ``REPRO_*_BACKEND`` variables:
        bogus values neither fail the run nor change its result."""
        spec = tiny_spec(axes={"coverage": (4.0,), "algorithm": ("bma",)})
        clean = run_sweep(spec, tmp_path / "clean")
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "bogus-backend")
        monkeypatch.setenv("REPRO_CHANNEL_BACKEND", "also-bogus")
        outcome = run_sweep(spec, tmp_path / "sweep")
        assert outcome.exit_code == 0
        assert outcome.succeeded == 1
        assert (
            outcome.cells[0].record["result"] == clean.cells[0].record["result"]
        )

    @staticmethod
    def _result(spec, directory) -> dict:
        outcome = run_sweep(spec, directory)
        assert outcome.exit_code == 0
        payload = dict(outcome.cells[0].record["result"])
        return json.loads(json.dumps(payload, sort_keys=True))

    def test_align_backends_are_bit_identical(self, tmp_path, monkeypatch):
        """A cell computes the same result with the reference DPs patched
        into the alignment kernels as on the default paths."""
        spec = tiny_spec(axes={"coverage": (4.0,), "algorithm": ("bma",)})
        default = self._result(spec, tmp_path / "auto")
        patch_reference_kernels(monkeypatch)
        assert self._result(spec, tmp_path / "python") == default

    def test_channel_backends_are_bit_identical(self, tmp_path):
        """A cell computes the same result with every channel call on the
        reference loop as with every call on the vectorised sweep.  The
        per-cluster-seeded transmissions always run the sweep, so the
        loop run routes them through the loop over each cluster's
        ``Random(seed)``."""
        spec = tiny_spec(axes={"coverage": (4.0,), "algorithm": ("majority",)})
        results = {}
        for path, threshold in (("python", sys.maxsize), ("vectorised", 0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(channel_backend, "AUTO_MIN_DRAWS", threshold)
                if path == "python":
                    patch.setattr(Channel, "transmit_seeded", loop_transmit_seeded)
                results[path] = self._result(spec, tmp_path / path)
        assert results["python"] == results["vectorised"]
