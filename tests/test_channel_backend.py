"""The vectorised channel sweep against the reference transmit loop.

The sweep must be byte-identical to the loop — same pools, same copies,
and the same final ``random.Random`` state (the draw-order contract) —
across every model stage (bursts, second-order errors, long deletions,
spatial weights, homopolymer scaling), both RNG modes (serial stream and
``per_cluster_seeds``), and degenerate inputs (empty references,
coverage 0, all-homopolymer strands, burst-heavy models).

The per-model comparison of ``transmit``, ``transmit_many`` and
``transmit_pool`` is the ``channel`` entry of the oracle registry in
``tests/test_alignment_oracle.py``, built from :func:`reference_run` and
:func:`fast_run` below.  This file keeps the per-model
``transmit_many`` / ``transmit_pool`` checks beside it, and adds the
stream-level and simulator-level equivalences, path selection, the
canary for the MT19937 state transplant the sweep rests on, and the
canary for the seeded source that per-cluster-seeded clusters draw from.
:func:`walk_reach` records which branches of the sweep's walk those
oracle inputs reach, and :func:`hot_zone_reach` which head-zone and
long-deletion branches a run reaches; the oracle file asserts that
every one is.
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys

import pytest

from repro.core import channel as channel_module
from repro.core import channel_backend
from repro.core.alphabet import AlphabetError, homopolymer_mask, random_strand
from repro.core.channel import Channel
from repro.core.channel_backend import (
    AUTO_MIN_DRAWS,
    UniformBulkSource,
    homopolymer_mask_fast,
    rng_supports_bulk,
)
from repro.core.coverage import ConstantCoverage, NegativeBinomialCoverage
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.simulator import Simulator, derived_reference, draw_coverages
from repro.core.spatial import PaperTerminalSkew, TerminalSkew
from repro.core.strand import StrandPool
from repro.data.nanopore import (
    PAPER_STRAND_LENGTH,
    ground_truth_coverage,
    ground_truth_model,
    iter_nanopore_clusters,
    make_nanopore_dataset,
)
from repro.parallel import derive_seed

MAIN_SEED = 20260808

#: Seeds a seeded source must open exactly as ``random.Random(seed)``:
#: one-word keys (0, 1, 7, 2**32 - 1), the first two-word key, the
#: largest 64-bit seed, and the per-cluster seeds of a ``--seed 2`` run.
SEEDED_SOURCE_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1) + tuple(
    derive_seed(2, index) for index in range(4)
)


def _ground(**overrides) -> ErrorModel:
    return dataclasses.replace(ground_truth_model(), **overrides)


#: One model per channel stage/regime the walk special-cases.
MODELS = {
    "ground_truth": ground_truth_model(),
    "naive": ErrorModel.naive(0.006, 0.010, 0.019),
    "zero_rate": ErrorModel.naive(0.0, 0.0, 0.0),
    "high_rate": ErrorModel.naive(0.15, 0.20, 0.25),
    "burst_heavy": _ground(burst_rate=0.05),
    "long_deletion_heavy": _ground(long_deletion_rate=0.05),
    "homopolymer_factor_zero": _ground(homopolymer_factor=0.0),
    "no_homopolymer_scaling": _ground(homopolymer_factor=1.0),
    # The fitted SECOND_ORDER profile's shape: positions 0-1 at ~3x the
    # interior and the last one at ~9x, so both hot zones are non-empty.
    "head_spike": _ground(
        spatial=PaperTerminalSkew(start_multiplier=3.0, end_multiplier=9.0),
        homopolymer_factor=1.0,
        burst_rate=0.0,
    ),
    # An event at most positions, each insertion and long deletion
    # drawing once more: copies outrun a seeded source's sized first
    # chunk, so buffer ends land on long-deletion rolls (their length
    # draws fall back to the serial loop's event code) and, under the
    # wide start skew, inside the head zone.
    "long_deletion_dense": ErrorModel(
        insertion_rate=0.5,
        deletion_rate=0.1,
        substitution_rate=0.0,
        long_deletion_rate=0.4,
        spatial=TerminalSkew(start_boost=8.0, end_boost=0.0, decay=4.0),
    ),
}

#: The bulk entry points the oracle compares.
METHODS = ("transmit", "transmit_many", "transmit_pool")


class LoopRandom(random.Random):
    """The same Mersenne-Twister stream as ``random.Random``, but a
    subclass, so :func:`rng_supports_bulk` is False and the channel runs
    the reference loop for every call."""


def _flatten(pool: StrandPool) -> list[tuple[str, list[str]]]:
    return [(cluster.reference, list(cluster.copies)) for cluster in pool]


def _references(rng: random.Random) -> list[str]:
    """Degenerate shapes beside paper-shaped strands: empty, length-1,
    all-homopolymer, mixed lengths straddling the chunk maths, and one
    exactly as long as the hot-zone budget (a single hot zone)."""
    strands = ["", "A", "A" * 110, "ACGT" * 30]
    strands += [random_strand(length, rng) for length in (5, 110, 110, 333)]
    strands.append(random_strand(channel_backend._HOT_MIN, rng))
    return strands


def _run(model_name: str, method: str, seed: int, rng: random.Random):
    """One channel entry point over the reference strands: its outputs
    and the RNG state it leaves behind."""
    channel = Channel(MODELS[model_name], rng)
    references = _references(random.Random(seed + 1))
    if method == "transmit":
        outputs = [channel.transmit(reference) for reference in references]
    elif method == "transmit_many":
        outputs = [channel.transmit_many(reference, 25) for reference in references]
    else:
        outputs = _flatten(
            channel.transmit_pool(references, NegativeBinomialCoverage(8.0, 2.0))
        )
    return outputs, rng.getstate()


def reference_run(model_name: str, method: str, seed: int):
    """The reference loop, reached through a ``random.Random`` subclass."""
    return _run(model_name, method, seed, LoopRandom(seed))


def fast_run(model_name: str, method: str, seed: int):
    """The vectorised sweep, forced for every call by lowering
    ``AUTO_MIN_DRAWS`` to 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_backend, "AUTO_MIN_DRAWS", 0)
        return _run(model_name, method, seed, random.Random(seed))


def channel_inputs(seed: int) -> list[tuple[str, str, int]]:
    """Every (model, entry point) pair at one corpus seed."""
    return [
        (model_name, method, MAIN_SEED + seed)
        for model_name in sorted(MODELS)
        for method in METHODS
    ]


def walk_reach(seed: int) -> set[str]:
    """The branches of the sweep's walk that the ``channel`` oracle's
    inputs at ``seed`` reach, read off spies on the walk's out-of-line
    calls (its table prep, buffer refills and scalar event code)."""
    reached: set[str] = set()
    walk_code = channel_backend.transmit_batch.__code__
    batch = channel_backend.transmit_batch
    refill = UniformBulkSource.refill
    apply_event = Channel._apply_event

    def walk_locals():
        # Two frames up, past this helper and the spy: the spied call's
        # caller, which is the walk when the sweep made the call.
        frame = sys._getframe(2)
        return frame.f_locals if frame.f_code is walk_code else None

    def spy_batch(channel, reference, coverage, source, prep):
        tail_start = prep.vector.tail_start
        if reference and tail_start == 0:
            reached.add("no interior")
        if reference and tail_start == len(reference):
            reached.add("no terminal zone")
        return batch(channel, reference, coverage, source, prep)

    def spy_refill(source, *args):
        walk = walk_locals()
        if walk is not None and walk.get("position", 0) > 0:
            interior = walk["position"] < walk["tail_start"]
            reached.add(f"{'interior' if interior else 'terminal'} refill mid-strand")
        return refill(source, *args)

    def spy_event(channel, event, reference, position, output, rng):
        walk = walk_locals()
        at_buffer_end = rng.cursor >= rng.n if walk is not None else False
        after = apply_event(channel, event, reference, position, output, rng)
        if walk is not None:
            tag = event[0]
            if tag in ("substitution", "insertion") and at_buffer_end:
                reached.add(f"{tag} draw at buffer end")
            jumps = position < walk["tail_start"] < after
            if tag in ("long_deletion", "burst") and jumps:
                reached.add("jump past tail_start")
        return after

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_module, "transmit_batch", spy_batch)
        patch.setattr(UniformBulkSource, "refill", spy_refill)
        patch.setattr(Channel, "_apply_event", spy_event)
        for args in channel_inputs(seed):
            fast_run(*args)
    return reached


def hot_zone_reach(run) -> set[str]:
    """The head-zone and long-deletion branches of the sweep's walk that
    ``run()`` reaches, read off spies on the walk's ``bisect_right``
    calls (rung picks and inline draws), buffer refills and scalar event
    code."""
    reached: set[str] = set()
    walk_code = channel_backend.transmit_batch.__code__
    bisect = channel_backend.bisect_right
    refill = UniformBulkSource.refill
    apply_event = Channel._apply_event

    def walk_locals():
        frame = sys._getframe(2)
        return frame.f_locals if frame.f_code is walk_code else None

    def spy_bisect(table, point):
        walk = walk_locals()
        if walk is not None:
            if table is walk["cums"] and walk["position"] < walk["head_end"]:
                reached.add("event in head zone")
            payload = walk.get("payload")
            if (
                walk.get("code") == channel_backend._LONG
                and isinstance(payload, tuple)
                and table is payload[1]
            ):
                reached.add("inline long-deletion draw")
        return bisect(table, point)

    def spy_refill(source, *args):
        walk = walk_locals()
        if walk is not None and 0 < walk["position"] < walk["head_end"]:
            reached.add("refill in head zone")
        return refill(source, *args)

    def spy_event(channel, event, reference, position, output, rng):
        walk = walk_locals()
        if walk is not None and event[0] == "long_deletion" and rng.cursor >= rng.n:
            reached.add("long-deletion draw at buffer end")
        return apply_event(channel, event, reference, position, output, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_backend, "bisect_right", spy_bisect)
        patch.setattr(UniformBulkSource, "refill", spy_refill)
        patch.setattr(Channel, "_apply_event", spy_event)
        run()
    return reached


@pytest.fixture
def force_path(monkeypatch):
    """Pin the channel to one path for every call: ``"python"`` (the
    reference loop) or ``"vectorised"`` (the sweep)."""

    def force(path: str) -> None:
        threshold = sys.maxsize if path == "python" else 0
        monkeypatch.setattr(channel_backend, "AUTO_MIN_DRAWS", threshold)

    return force


class TestBackendEquivalence:
    """Pools and final RNG states must match bit for bit between the
    reference loop and the sweep."""

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_transmit_pool_identical(self, model_name):
        reference = reference_run(model_name, "transmit_pool", MAIN_SEED)
        assert fast_run(model_name, "transmit_pool", MAIN_SEED) == reference

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_transmit_many_identical(self, model_name):
        reference = reference_run(model_name, "transmit_many", MAIN_SEED + 2)
        assert fast_run(model_name, "transmit_many", MAIN_SEED + 2) == reference

    def test_degenerate_coverage_and_reference(self, force_path):
        for path in ("python", "vectorised"):
            force_path(path)
            rng = random.Random(MAIN_SEED)
            channel = Channel(ground_truth_model(), rng)
            assert channel.transmit_many("ACGT" * 30, 0) == []
            assert channel.transmit_many("", 7) == [""] * 7
            assert channel.transmit("") == ""
            # Degenerate calls consume no randomness on either path.
            assert rng.getstate() == random.Random(MAIN_SEED).getstate()

    def test_interleaved_transmits_share_the_stream(self, force_path):
        """Mixing transmit/transmit_many/raw rng draws stays in lockstep:
        the bulk source must leave the Python RNG exactly where the
        serial loop would have."""
        results, states = {}, {}
        for path in ("python", "vectorised"):
            force_path(path)
            rng = random.Random(MAIN_SEED + 4)
            channel = Channel(ground_truth_model(), rng)
            trace = []
            for round_index in range(4):
                trace.append(channel.transmit_many("ACGT" * 30, 9))
                trace.append(rng.random())  # raw draw between bulk calls
                trace.append(channel.transmit(random_strand(110, rng)))
            results[path] = trace
            states[path] = rng.getstate()
        assert results["vectorised"] == results["python"]
        assert states["vectorised"] == states["python"]


#: Non-ACGT references: N, lowercase, non-ASCII, lone surrogate.
BAD_REFERENCES = (
    "ACGTN" * 30,
    "acgt" * 30,
    "ACGT" * 20 + "é" + "ACGT" * 10,
    "ACG\ud800T" * 25,
)


class TestAlphabetValidation:
    """Every entry point rejects a non-ACGT reference with
    ``AlphabetError`` naming the base and its position, on both paths,
    before drawing anything."""

    @pytest.mark.parametrize("path", ("python", "vectorised"))
    @pytest.mark.parametrize(
        "reference", BAD_REFERENCES, ids=("N", "lower", "nonascii", "surrogate")
    )
    def test_rejected_before_any_draw(self, force_path, path, reference):
        force_path(path)
        rng_class = LoopRandom if path == "python" else random.Random
        rng = rng_class(MAIN_SEED)
        channel = Channel(ground_truth_model(), rng)
        index = next(i for i, base in enumerate(reference) if base not in "ACGT")
        message = re.escape(f"invalid base {reference[index]!r} at position {index}")
        with pytest.raises(AlphabetError, match=message):
            channel.transmit(reference)
        with pytest.raises(AlphabetError, match=message):
            channel.transmit_many(reference, 30)
        with pytest.raises(AlphabetError, match=message):
            channel.transmit_seeded(reference, 30, MAIN_SEED)
        assert rng.getstate() == random.Random(MAIN_SEED).getstate()
        with pytest.raises(AlphabetError, match=message):
            channel.transmit_pool(["ACGT" * 30, reference], ConstantCoverage(30))


def loop_transmit_seeded(channel, reference, coverage, seed):
    """``Channel.transmit_seeded`` on the reference loop, for patching in
    where a test pins every channel call to the loop."""
    return Channel(channel.model, LoopRandom(seed)).transmit_cluster(
        reference, coverage
    )


def seeded_loop_clusters(model, seed, items) -> list[tuple[str, list[str]]]:
    """Per-cluster-seeded ``(index, reference, coverage)`` items rebuilt
    on the reference loop, each cluster over its own
    ``Random(derive_seed(seed, index))`` stream."""
    channel = Channel(model)
    return _flatten(
        StrandPool(
            [
                loop_transmit_seeded(
                    channel, reference, coverage, derive_seed(seed, index)
                )
                for index, reference, coverage in items
            ]
        )
    )


class TestSimulatorEquivalence:
    """Both RNG modes of the Simulator, plus the streamed generator, on
    the sweep against the reference loop."""

    @pytest.fixture(scope="class")
    def profile(self) -> ErrorProfile:
        pool = make_nanopore_dataset(n_clusters=30, seed=MAIN_SEED)
        return ErrorProfile.from_pool(pool)

    @pytest.mark.parametrize("stage", list(SimulatorStage))
    def test_serial_stream_identical_across_stages(self, profile, stage, force_path):
        references = [
            random_strand(110, random.Random(MAIN_SEED + 5)) for _ in range(12)
        ]
        pools = {}
        for path in ("python", "vectorised"):
            force_path(path)
            simulator = Simulator.fitted(
                profile, stage=stage, coverage=ConstantCoverage(6), seed=17
            )
            pools[path] = _flatten(simulator.simulate(references))
        assert pools["vectorised"] == pools["python"], stage

    def test_per_cluster_seeds_identical(self):
        references = [
            random_strand(110, random.Random(MAIN_SEED + 6)) for _ in range(10)
        ]
        simulator = Simulator(
            ground_truth_model(),
            coverage=ConstantCoverage(5),
            seed=23,
            per_cluster_seeds=True,
        )
        pool = _flatten(simulator.simulate(references, workers=1))
        items = [(index, reference, 5) for index, reference in enumerate(references)]
        assert pool == seeded_loop_clusters(simulator.model, 23, items)

    def test_streamed_nanopore_identical(self):
        clusters = [
            (cluster.reference, list(cluster.copies))
            for cluster in iter_nanopore_clusters(
                n_clusters=20, seed=MAIN_SEED, shards=3, workers=1
            )
        ]
        coverages = draw_coverages(ground_truth_coverage(), 20, MAIN_SEED)
        items = [
            (index, derived_reference(MAIN_SEED, PAPER_STRAND_LENGTH, index), coverage)
            for index, coverage in enumerate(coverages)
        ]
        assert clusters == seeded_loop_clusters(ground_truth_model(), MAIN_SEED, items)


class TestFastMask:
    """The vectorised homopolymer mask must equal the reference scan."""

    def test_matches_reference_implementation(self):
        rng = random.Random(MAIN_SEED)
        strands = ["", "A", "AA", "ACGT" * 30, "A" * 110, "AABBAACC"]
        strands += [random_strand(length, rng) for length in (2, 3, 110, 257)]
        strands += [
            "".join(rng.choice("AACCGT") for _ in range(50)) for _ in range(20)
        ]
        for strand in strands:
            assert homopolymer_mask_fast(strand) == homopolymer_mask(strand)

    def test_non_ascii_falls_back(self):
        assert homopolymer_mask_fast("AAééT") is None


class TestDispatch:
    """The channel picks its path from the call's shape alone."""

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHANNEL_BACKEND", "bogus")
        assert channel_backend.channel_backend() == "auto"

    def test_auto_threshold(self):
        channel = Channel(ground_truth_model(), random.Random(0))
        assert channel._use_sweep(AUTO_MIN_DRAWS)
        assert not channel._use_sweep(AUTO_MIN_DRAWS - 1)

    def test_subclassed_rng_degrades_to_python(self):
        assert not rng_supports_bulk(LoopRandom(0))
        channel = Channel(ground_truth_model(), LoopRandom(0))
        assert not channel._use_sweep(10**9)
        reference = "ACGT" * 30
        assert channel.transmit_many(reference, 20) == Channel(
            ground_truth_model(), random.Random(0)
        ).transmit_many(reference, 20)


class TestStateTransplantCanary:
    """The sweep assumes CPython's ``random.Random`` and NumPy's MT19937
    share the Mersenne-Twister state layout and the 53-bit double
    construction.  If either library changes that, this fails first."""

    def test_bulk_doubles_match_cpython_stream(self):
        draws = 10_000
        bulk_rng = random.Random(MAIN_SEED)
        # No size hint: full 8192-draw chunks, so close() must replay a
        # partly consumed second chunk.
        source = UniformBulkSource(bulk_rng)
        bulk = [source.random() for _ in range(draws)]
        source.close()
        serial_rng = random.Random(MAIN_SEED)
        assert bulk == [serial_rng.random() for _ in range(draws)]
        assert bulk_rng.getstate() == serial_rng.getstate()


class TestSeededSourceCanary:
    """A seeded source assumes NumPy's ``MT19937._legacy_seeding`` over a
    list of 32-bit words runs the same ``init_by_array`` as CPython's
    ``random.seed(int)``, one-word keys included.  If a NumPy upgrade
    changes that, this fails before any output byte does."""

    @pytest.mark.parametrize("seed", SEEDED_SOURCE_SEEDS + (-(2**33 + 5),))
    def test_seeded_doubles_match_cpython_stream(self, seed):
        draws = 10_000
        # A small hint: one short chunk, then 256-draw tail chunks.
        source = UniformBulkSource(hint=300, seed=seed)
        bulk = [source.random() for _ in range(draws)]
        source.close()
        serial_rng = random.Random(seed)
        assert bulk == [serial_rng.random() for _ in range(draws)]

    def test_stream_ends_at_close(self):
        source = UniformBulkSource(seed=3)
        source.random()
        source.close()
        with pytest.raises(RuntimeError, match="ends at close"):
            source.random()
