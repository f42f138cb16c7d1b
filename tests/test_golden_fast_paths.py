"""The pinned goldens with every call forced onto the fast paths.

The channel picks its path from the input shape: calls worth at least
``channel_backend.AUTO_MIN_DRAWS`` draws run the vectorised sweep.  Here
that threshold drops to its minimum, so every channel call takes the
fast path.  Every BMA call made through ``reconstruct_pool`` or an
archive survey already runs the lockstep kernel
(``BMALookahead.reconstruct_many``), and every unseeded Iterative call
through ``reconstruct_pool`` runs the lockstep Iterative
(``IterativeReconstruction.reconstruct_many``); the fixture counts the
blocks of both.  The committed golden sweep and the ``table_2_1`` golden
must still come out byte for byte.  Sweep cells run in forked job workers, which inherit the
lowered threshold.
"""

from __future__ import annotations

import pytest

from repro.core import channel, channel_backend
from repro.experiments import table_2_1
from repro.reconstruct import bma, iterative
from repro.scenarios import load_sweep_spec, run_sweep
from tests.test_golden_experiments import _load, _run_experiment, private_cache  # noqa: F401
from tests.test_golden_sweep import SPEC_PATH, _assert_matches_golden


@pytest.fixture
def fast_paths_everywhere(monkeypatch):
    """Lower the channel threshold; returns counts of in-process channel
    sweeps, lockstep BMA blocks and lockstep Iterative blocks."""
    monkeypatch.setattr(channel_backend, "AUTO_MIN_DRAWS", 0)
    calls = {"channel": 0, "bma": 0, "iterative": 0}
    transmit_batch = channel.transmit_batch
    lockstep = bma._lockstep
    iterative_lockstep = iterative._lockstep

    def counted_channel(*args):
        calls["channel"] += 1
        return transmit_batch(*args)

    def counted_bma(*args, **kwargs):
        calls["bma"] += 1
        return lockstep(*args, **kwargs)

    def counted_iterative(*args, **kwargs):
        calls["iterative"] += 1
        return iterative_lockstep(*args, **kwargs)

    monkeypatch.setattr(channel, "transmit_batch", counted_channel)
    monkeypatch.setattr(bma, "_lockstep", counted_bma)
    monkeypatch.setattr(iterative, "_lockstep", counted_iterative)
    return calls


def test_goldens_unchanged_on_fast_paths(
    fast_paths_everywhere, private_cache, tmp_path
):
    outcome = run_sweep(load_sweep_spec(SPEC_PATH), tmp_path / "sweep")
    assert outcome.exit_code == 0
    _assert_matches_golden(tmp_path / "sweep")
    iterative_blocks = fast_paths_everywhere["iterative"]
    assert _run_experiment(table_2_1) == _load("table_2_1")
    assert fast_paths_everywhere["channel"] > 0
    assert fast_paths_everywhere["bma"] > 0
    # table_2_1 runs Iterative through reconstruct_pool.
    assert fast_paths_everywhere["iterative"] > iterative_blocks
