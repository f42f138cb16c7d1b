"""Smoke and schema test of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Runs every workload once untraced and once traced at ``--scale 0.02``
(a few seconds) and checks the output format against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = json.loads(run.MANIFEST.read_text())


@pytest.fixture(scope="session")
def warm_context():
    """Replaces the paper benchmarks' autouse fixture of the same name:
    this benchmark builds its inputs in child processes."""


@pytest.fixture(scope="module")
def smoke():
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--scale", "0.02",
            "--seconds", "0",
            "--repeats", "1",
            "--trace", "1",
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    *lines, result = completed.stdout.strip().splitlines()
    return lines, json.loads(result)


def test_manifest_schema():
    workloads = [workload["name"] for workload in MANIFEST["workloads"]]
    end_to_end = [metric["name"] for metric in MANIFEST["end_to_end"]]
    per_layer = [metric["name"] for metric in MANIFEST["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(
        workload["why"].strip() and "\n" not in workload["why"]
        for workload in MANIFEST["workloads"]
    )
    assert set(run.END_TO_END) == set(end_to_end)
    assert max(m["bound"] for m in MANIFEST["end_to_end"]) == next(
        m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"
    )
    assert set(run.LAYERS) == set(per_layer)
    for workload, moved in run.LAYERS.values():
        assert workload in workloads
        assert moved and set(moved) <= set(end_to_end)


def test_every_metric_prints_with_its_unit(smoke):
    lines, result = smoke
    units = {
        metric["name"]: metric["unit"]
        for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    }
    printed = set()
    for line in lines:
        workload, metric, value, unit = line.split(" ")
        float(value)
        assert units[metric] == unit, line
        printed.add((workload, metric))
    expected = {
        (workload["name"], metric)
        for workload in MANIFEST["workloads"]
        for metric in units
    }
    assert printed == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(MANIFEST["workloads"])


def test_traced_stage_spans_cover_the_wall_time(smoke):
    _lines, result = smoke
    for workload in MANIFEST["workloads"]:
        key = f"{workload['name']}.observability.span_coverage_frac"
        assert result["metrics"][key]["value"] >= 0.9, key


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "eval_pseudo"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
