"""Equivalence and fast-exit tests for the alignment kernel layer.

The kernels pick their path from the input shape, and every path must
give what the pure-Python reference DPs give: exact distances, banded
lower bounds and clustering assignments.  Here the code-chosen kernels
and the reference DPs (see :data:`PATHS`) run over a seeded corpus of
~500 pairs; the shared-corpus oracle registry of
``tests/test_alignment_oracle.py`` checks the same contract, gestalt
matching blocks and the q-gram signatures, over its edge alphabets and
batch sizes.  This file
also covers one-vs-many batches, the fast exits, block memoisation, and
the retired backend selection.
"""

from __future__ import annotations

import random

import pytest

from repro import observability
from repro.align import gestalt, kernels
from repro.align.edit_distance import edit_distance, edit_distance_banded
from repro.align.gestalt import clear_block_cache, matching_blocks
from repro.align.kernels import CompiledPattern, edit_distances_one_to_many
from repro.align.operations import OpKind, apply_operations, edit_operations
from repro.cli import main
from repro.cluster import greedy
from repro.cluster.greedy import GreedyClusterer


def _strand(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(length))


def _ids_noised(rng: random.Random, reference: str, rate: float = 0.06) -> str:
    """Insertion/deletion/substitution noise at the paper's error scale."""
    out: list[str] = []
    for base in reference:
        draw = rng.random()
        if draw < rate / 3:
            continue  # deletion
        if draw < 2 * rate / 3:
            out.append(rng.choice("ACGT"))  # substitution
            continue
        out.append(base)
        if draw < rate:
            out.append(rng.choice("ACGT"))  # insertion
    return "".join(out)


def _reference_distance(pattern: CompiledPattern, other: str) -> int:
    return kernels._python_distance(pattern.text, other)


def _reference_banded(pattern: CompiledPattern, other: str, band: int) -> int:
    if abs(len(pattern.text) - len(other)) > band:
        return band + 1
    return kernels._python_banded(pattern.text, other, band)


def _reference_lanes(
    text: str, lanes: list[CompiledPattern], band: int | None = None
) -> list[int]:
    """The packed kernel's entry, one reference DP per lane (the
    short-circuits stay in the ``CompiledPattern`` methods)."""
    if band is None:
        return [kernels._python_distance(text, lane.text) for lane in lanes]
    return [kernels._python_banded(lane.text, text, band) for lane in lanes]


def _no_prefetch(
    strings: list[str], lanes: dict[int, list[int]], band: int
) -> dict[int, dict[int, int]]:
    """Greedy clustering's lockstep prefetch, turned off: every pair the
    sweep and the merge pass compare is then computed on demand."""
    return {}


def patch_reference_kernels(patch: pytest.MonkeyPatch) -> None:
    """Route every distance through the seed's DPs, so a run computes
    what the reference kernels would: the pairwise kernels, the pairwise
    ``CompiledPattern`` methods, and each lane of the one-vs-many sweep.
    Greedy clustering's lockstep prefetch is off, so its every pair takes
    the on-demand one-vs-many path and thus the reference DP."""
    patch.setattr(greedy, "_lane_table", _no_prefetch)
    patch.setattr(kernels, "_bitparallel_distance", kernels._python_distance)
    patch.setattr(kernels, "_bitparallel_banded", kernels._python_banded)
    patch.setattr(CompiledPattern, "distance", _reference_distance)
    patch.setattr(CompiledPattern, "banded_distance", _reference_banded)
    patch.setattr(kernels, "_packed_distances", _reference_lanes)


def count_reference_calls(patch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count calls into the reference banded DP from here on (installed
    after :func:`patch_reference_kernels`, it sees every lane it routes)."""
    calls = {"banded": 0}
    python_banded = kernels._python_banded

    def counted_banded(first: str, second: str, band: int) -> int:
        calls["banded"] += 1
        return python_banded(first, second, band)

    patch.setattr(kernels, "_python_banded", counted_banded)
    return calls


#: The distance paths a test can pin.  ``python`` patches the reference
#: DPs in; ``bitparallel`` (like ``auto``) leaves the code-chosen
#: kernels: the pairwise Myers kernel for one pair, the lane-packed
#: sweep for one-vs-many.
PATHS = ("python", "bitparallel")

BANDS = (0, 1, 3, 25)


@pytest.fixture
def use_path(monkeypatch):
    """Pin the alignment kernels to one of :data:`PATHS` (or ``auto``)
    for the rest of the test."""

    def use(path: str) -> None:
        if path == "python":
            patch_reference_kernels(monkeypatch)
        else:
            assert path in ("bitparallel", "auto"), path

    return use


def _pair_corpus() -> list[tuple[str, str]]:
    """~500 seeded pairs spanning the tricky regions of the input space."""
    rng = random.Random(20260805)
    pairs: list[tuple[str, str]] = [
        ("", ""),
        ("", "ACGT"),
        ("ACGT", ""),
        ("A", "A"),
        ("A", "C"),
        ("AC", "CA"),
    ]
    # Equal strings at assorted lengths (distance 0, band 0 exercised).
    for length in (1, 7, 63, 64, 65, 110, 200):
        strand = _strand(rng, length)
        pairs.append((strand, strand))
    # 64-bit word-boundary lengths: the bit-parallel kernel must be
    # seamless across the one-word/multi-word transition.
    for length in (63, 64, 65, 127, 128, 129):
        for _ in range(8):
            other = rng.randint(max(0, length - 6), length + 6)
            pairs.append((_strand(rng, length), _strand(rng, other)))
    # Assorted short random pairs (including many length-0/1 edge cases).
    for _ in range(300):
        pairs.append(
            (
                _strand(rng, rng.randint(0, 40)),
                _strand(rng, rng.randint(0, 40)),
            )
        )
    # The paper's shape: length-110 references with IDS noise.
    for _ in range(120):
        reference = _strand(rng, 110)
        pairs.append((reference, _ids_noised(rng, reference)))
    # A few long pairs (multi-word patterns, large matrices).
    for _ in range(3):
        reference = _strand(rng, 1000)
        pairs.append((reference, _ids_noised(rng, reference)))
    return pairs


PAIRS = _pair_corpus()


@pytest.fixture(scope="module")
def reference_distances() -> list[int]:
    """Ground-truth distances from the seed's pure-Python DP."""
    return [kernels._python_distance(first, second) for first, second in PAIRS]


class TestDistanceEquivalence:
    def test_corpus_is_large_and_varied(self):
        assert len(PAIRS) >= 450
        assert any(not first for first, _ in PAIRS)
        assert any(first == second and first for first, second in PAIRS)
        assert any(len(first) > 64 for first, _ in PAIRS)

    @pytest.mark.parametrize("path", PATHS + ("auto",))
    def test_edit_distance_matches_reference(
        self, path, use_path, reference_distances
    ):
        use_path(path)
        for (first, second), expected in zip(PAIRS, reference_distances):
            assert edit_distance(first, second) == expected, (first, second)

    @pytest.mark.parametrize("path", PATHS)
    def test_banded_matches_reference_bound(
        self, path, use_path, reference_distances
    ):
        """Banded result is exactly min(true distance, band + 1): the true
        distance when within the band, the lower bound band + 1 the moment
        the band is provably exceeded."""
        use_path(path)
        for (first, second), exact in zip(PAIRS, reference_distances):
            for band in BANDS:
                assert edit_distance_banded(first, second, band) == min(
                    exact, band + 1
                ), (first, second, band)

    @pytest.mark.parametrize("path", PATHS)
    def test_one_to_many_matches_pairwise(self, path, use_path):
        rng = random.Random(7)
        reference = _strand(rng, 110)
        reads = [_ids_noised(rng, reference) for _ in range(15)]
        reads += ["", reference, _strand(rng, 40)]
        use_path(path)
        assert edit_distances_one_to_many(reference, reads) == [
            edit_distance(reference, read) for read in reads
        ]
        assert edit_distances_one_to_many(reference, reads, band=10) == [
            edit_distance_banded(reference, read, 10) for read in reads
        ]

    @pytest.mark.parametrize("path", PATHS)
    def test_compiled_pattern_matches_functions(self, path, use_path):
        use_path(path)
        rng = random.Random(11)
        pattern = CompiledPattern(_strand(rng, 80))
        for _ in range(25):
            other = _strand(rng, rng.randint(0, 120))
            assert pattern.distance(other) == edit_distance(pattern.text, other)
            for band in (0, 5, 25):
                assert pattern.banded_distance(other, band) == (
                    edit_distance_banded(pattern.text, other, band)
                )


class TestClusteringIdentity:
    @pytest.fixture(scope="class")
    def reads(self) -> list[str]:
        rng = random.Random(5)
        references = [_strand(rng, 110) for _ in range(25)]
        reads = [
            _ids_noised(rng, reference)
            for reference in references
            for _ in range(6)
        ]
        rng.shuffle(reads)
        return reads

    def test_assignments_identical_across_backends(self, reads, monkeypatch):
        """Greedy clustering assigns every read identically with the
        reference DPs patched in and with the default paths."""
        default = GreedyClusterer().cluster(reads)
        with monkeypatch.context() as patch:
            patch_reference_kernels(patch)
            calls = count_reference_calls(patch)
            baseline = GreedyClusterer().cluster(reads)
        # The baseline really ran the reference DP, once per compared pair
        # the length difference did not settle.
        assert 0 < calls["banded"] <= baseline.comparisons
        assert default.assignments == baseline.assignments
        assert default.representatives == baseline.representatives
        assert default.comparisons == baseline.comparisons


class TestBatchedBackendEquivalence:
    """Fuzz the one-vs-many batch calls (``CompiledPattern.distances`` /
    ``banded_distances``) against the reference DP.

    Lengths straddle the word boundary and the paper's strand length;
    alphabets include N, lowercase, and astral-plane unicode; bands
    include the degenerate 0 and band >= max(len) cases.  Everything is
    checked bit-identical to the pure-Python DP.
    """

    LENGTHS = (0, 1, 109, 110, 111, 500)
    ALPHABETS = ("ACGT", "ACGTN", "acgt", "Aé世\U0001F600T")

    @staticmethod
    def _noised(rng: random.Random, reference: str, alphabet: str) -> str:
        out = list(reference)
        for _ in range(rng.randint(0, 12)):
            if not out:
                break
            draw, position = rng.random(), rng.randrange(len(out))
            if draw < 0.34:
                out[position] = rng.choice(alphabet)
            elif draw < 0.67:
                del out[position]
            else:
                out.insert(position, rng.choice(alphabet))
        return "".join(out)

    def _batch(
        self, rng: random.Random, reference: str, alphabet: str
    ) -> list[str]:
        reads = ["", reference]
        reads += [self._noised(rng, reference, alphabet) for _ in range(10)]
        reads += [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 130)))
            for _ in range(4)
        ]
        return reads

    def test_batched_matches_reference_dp(self):
        rng = random.Random(20260808)
        for length in self.LENGTHS:
            for alphabet in self.ALPHABETS:
                reference = "".join(
                    rng.choice(alphabet) for _ in range(length)
                )
                reads = self._batch(rng, reference, alphabet)
                expected = [
                    kernels._python_distance(reference, read) for read in reads
                ]
                pattern = CompiledPattern(reference)
                assert pattern.distances(reads) == expected, (length, alphabet)
                for band in (0, 1, 3, 25, 1000):
                    assert pattern.banded_distances(reads, band) == [
                        min(distance, band + 1) for distance in expected
                    ], (length, alphabet, band)

    def test_one_to_many_counts_lanes_in_one_increment(self, monkeypatch):
        """A one-vs-many call adds the pairs that reach the kernel to
        ``kernel.calls`` in one increment, and counts what a per-pair
        loop counts."""
        pattern = CompiledPattern("ACGTACGT")
        others = ["ACGTACGT", "", "ACGAACGT", "ACG", "A" * 30, "TTTTACGT"]
        increments = []
        count = kernels._count_kernel_call

        def spy(kernel: str, pairs: int = 1) -> None:
            increments.append((kernel, pairs))
            count(kernel, pairs)

        monkeypatch.setattr(kernels, "_count_kernel_call", spy)
        observability.enable(tracing=False, metrics=True)
        try:
            pattern.distances(others)
            pattern.banded_distances(others, 3)
            assert increments == [("edit", 4), ("banded", 2)]
            for other in others:
                pattern.distance(other)
                pattern.banded_distance(other, 3)
            counters = {
                counter["labels"]["kernel"]: counter["value"]
                for counter in observability.registry().to_json()["counters"]
                if counter["name"] == "kernel.calls"
            }
        finally:
            observability.disable()
        assert counters == {"edit": 8, "banded": 4}

    def test_one_to_many_empty_batch(self):
        assert edit_distances_one_to_many("ACGT", []) == []
        assert edit_distances_one_to_many("ACGT", [], band=3) == []

    def test_auto_large_batch_matches_reference(self):
        rng = random.Random(31)
        reference = _strand(rng, 110)
        # 93 copies: the largest cluster one-vs-many call measured on the
        # paper-coverage read-out.
        reads = [_ids_noised(rng, reference) for _ in range(93)]
        expected = [kernels._python_distance(reference, read) for read in reads]
        assert edit_distances_one_to_many(reference, reads) == expected
        assert edit_distances_one_to_many(reference, reads, band=25) == [
            min(distance, 26) for distance in expected
        ]

    def test_greedy_identity_under_env_backend(self, monkeypatch):
        """With the retired ``REPRO_ALIGN_BACKEND=batched`` in the
        environment (ignored), greedy clustering matches the reference
        kernels."""
        rng = random.Random(37)
        references = [_strand(rng, 110) for _ in range(12)]
        reads = [
            _ids_noised(rng, reference)
            for reference in references
            for _ in range(5)
        ]
        rng.shuffle(reads)
        with monkeypatch.context() as patch:
            patch_reference_kernels(patch)
            calls = count_reference_calls(patch)
            baseline = GreedyClusterer().cluster(reads)
        assert calls["banded"] > 0
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "batched")
        assert kernels.align_backend() == "auto"
        result = GreedyClusterer().cluster(reads)
        assert result.assignments == baseline.assignments
        assert result.representatives == baseline.representatives
        assert result.comparisons == baseline.comparisons


class TestFastExits:
    def test_empty_side_returns_length_difference(self):
        assert edit_distance("", "ACGTACGT") == 8
        assert edit_distance("ACGT", "") == 4
        assert edit_distance("", "") == 0

    def test_equal_strings_skip_kernel(self, monkeypatch):
        def explode(*_args, **_kwargs):  # pragma: no cover - fails the test
            raise AssertionError("kernel must not run on a fast-exit pair")

        monkeypatch.setattr(kernels, "edit_distance_kernel", explode)
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("", "ACGT") == 4

    def test_operations_equal_strings_all_equal_ops(self):
        rng = random.Random(0)
        for use_rng in (None, rng):
            operations = edit_operations("ACGT", "ACGT", use_rng)
            assert [op.kind for op in operations] == [OpKind.EQUAL] * 4
            assert apply_operations("ACGT", operations) == "ACGT"

    def test_operations_empty_copy_all_deletions(self):
        operations = edit_operations("ACG", "")
        assert [op.kind for op in operations] == [OpKind.DELETION] * 3
        assert apply_operations("ACG", operations) == ""

    def test_operations_empty_reference_all_insertions(self):
        operations = edit_operations("", "ACG")
        assert [op.kind for op in operations] == [OpKind.INSERTION] * 3
        assert apply_operations("", operations) == "ACG"


class TestMeanReconstructionDistance:
    def test_mean_over_pairs(self):
        from repro.metrics import mean_reconstruction_edit_distance

        assert mean_reconstruction_edit_distance(
            ["ACGT", "AAAA"], ["ACGT", "AATA"]
        ) == pytest.approx(0.5)

    def test_empty_input_is_zero(self):
        from repro.metrics import mean_reconstruction_edit_distance

        assert mean_reconstruction_edit_distance([], []) == 0.0

    def test_length_mismatch_raises(self):
        from repro.metrics import mean_reconstruction_edit_distance

        with pytest.raises(ValueError, match="1 references but 2"):
            mean_reconstruction_edit_distance(["A"], ["A", "C"])

    def test_matches_reference_dp(self):
        from repro.metrics import mean_reconstruction_edit_distance

        rng = random.Random(17)
        references = [_strand(rng, 110) for _ in range(10)]
        estimates = [_ids_noised(rng, reference) for reference in references]
        expected = sum(
            kernels._python_distance(reference, estimate)
            for reference, estimate in zip(references, estimates)
        ) / len(references)
        assert mean_reconstruction_edit_distance(references, estimates) == expected

    @pytest.mark.parametrize("path", PATHS)
    def test_identical_across_backends(self, path, use_path):
        from repro.metrics import mean_reconstruction_edit_distance

        rng = random.Random(17)
        references = [_strand(rng, 110) for _ in range(10)]
        estimates = [_ids_noised(rng, reference) for reference in references]
        expected = mean_reconstruction_edit_distance(references, estimates)
        use_path(path)
        assert mean_reconstruction_edit_distance(references, estimates) == expected


class TestBlockMemoisation:
    def test_same_pair_computes_blocks_once(self, monkeypatch):
        clear_block_cache()
        calls = {"n": 0}
        real = gestalt._decompose

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(gestalt, "_decompose", counting)
        first = matching_blocks("WIKIMEDIA", "WIKIMANIA")
        after_first = calls["n"]
        assert after_first > 0
        second = matching_blocks("WIKIMEDIA", "WIKIMANIA")
        assert calls["n"] == after_first  # served from the LRU
        assert second == first
        assert second is not first  # fresh list, safe to mutate

    def test_clear_block_cache_forces_recompute(self, monkeypatch):
        matching_blocks("ACGTACGT", "ACGGACGT")
        clear_block_cache()
        calls = {"n": 0}
        real = gestalt._decompose

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(gestalt, "_decompose", counting)
        matching_blocks("ACGTACGT", "ACGGACGT")
        assert calls["n"] > 0


class TestBackendConfiguration:
    """There is no backend selection: the kernels pick their path from
    the input shape, and the retired ``REPRO_ALIGN_BACKEND`` is ignored."""

    def test_default_is_auto(self):
        assert kernels.align_backend() == "auto"

    def test_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "not-a-backend")
        assert kernels.align_backend() == "auto"
        assert edit_distance("ACGT", "ACGA") == 1

    def test_cli_ignores_bogus_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "bogus")
        monkeypatch.setenv("REPRO_CHANNEL_BACKEND", "bogus")
        assert main(["experiment", "table_1_1"]) == 0
        assert "Nanopore" in capsys.readouterr().out
