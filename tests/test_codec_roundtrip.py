"""Property-based round-trip tests for the archive's Reed-Solomon code.

Each property runs across many randomised trials derived from one fixed
master seed — deterministic in CI, but covering a broad slice of the
input space (lengths, parity budgets, erasure patterns).  Every
assertion message carries the per-trial seed so a failure is
reproducible with ``random.Random(seed)`` in isolation.

The properties encode the code's *design margin*: Reed-Solomon corrects
up to ``n_parity // 2`` unknown errors, up to ``n_parity`` known
erasures, and mixtures with ``2t + e <= n_parity``.
"""

from __future__ import annotations

import random

import pytest

from repro.pipeline.reed_solomon import ReedSolomon, ReedSolomonError

MASTER_SEED = 20260805

#: Trials per property — enough variety to hit odd/even lengths, empty
#: corruption sets, and boundary budgets, while keeping the suite fast.
N_TRIALS = 25


def _trial_seeds(tag: str) -> list[int]:
    """Per-trial seeds derived deterministically from the master seed."""
    rng = random.Random(f"{MASTER_SEED}:{tag}")
    return [rng.randrange(2**32) for _ in range(N_TRIALS)]


def _corrupt(
    codeword: bytes, positions: list[int], rng: random.Random
) -> bytes:
    corrupted = bytearray(codeword)
    for position in positions:
        original = corrupted[position]
        corrupted[position] = rng.choice(
            [value for value in range(256) if value != original]
        )
    return bytes(corrupted)


# --------------------------------------------------------------------- #
# Reed-Solomon
# --------------------------------------------------------------------- #


class TestReedSolomonRoundtrip:
    @pytest.mark.parametrize("seed", _trial_seeds("rs-errors"))
    def test_corrects_up_to_half_parity_errors(self, seed):
        rng = random.Random(seed)
        n_parity = rng.randrange(2, 17)
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 240 - n_parity)))
        rs = ReedSolomon(n_parity)
        codeword = rs.encode(data)
        n_errors = rng.randrange(0, n_parity // 2 + 1)
        positions = rng.sample(range(len(codeword)), n_errors)
        decoded = rs.decode(_corrupt(codeword, positions, rng))
        assert decoded == data, f"seed={seed} parity={n_parity} errors={n_errors}"

    @pytest.mark.parametrize("seed", _trial_seeds("rs-erasures"))
    def test_corrects_up_to_full_parity_erasures(self, seed):
        rng = random.Random(seed)
        n_parity = rng.randrange(2, 17)
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 240 - n_parity)))
        rs = ReedSolomon(n_parity)
        codeword = rs.encode(data)
        n_erasures = rng.randrange(0, n_parity + 1)
        erasures = rng.sample(range(len(codeword)), n_erasures)
        decoded = rs.decode(
            _corrupt(codeword, erasures, rng), erasure_positions=erasures
        )
        assert decoded == data, f"seed={seed} parity={n_parity} erasures={n_erasures}"

    @pytest.mark.parametrize("seed", _trial_seeds("rs-mixed"))
    def test_corrects_mixed_errors_and_erasures_within_budget(self, seed):
        """Any mix with 2 * errors + erasures <= n_parity must decode."""
        rng = random.Random(seed)
        n_parity = rng.randrange(4, 17)
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(8, 200)))
        rs = ReedSolomon(n_parity)
        codeword = rs.encode(data)
        n_errors = rng.randrange(0, n_parity // 2 + 1)
        n_erasures = rng.randrange(0, n_parity - 2 * n_errors + 1)
        positions = rng.sample(range(len(codeword)), n_errors + n_erasures)
        erasures = positions[:n_erasures]
        decoded = rs.decode(
            _corrupt(codeword, positions, rng), erasure_positions=erasures
        )
        assert decoded == data, (
            f"seed={seed} parity={n_parity} errors={n_errors} "
            f"erasures={n_erasures}"
        )

    def test_too_many_erasures_is_rejected(self):
        rs = ReedSolomon(4)
        codeword = rs.encode(b"hello world")
        with pytest.raises(ReedSolomonError, match="erasures exceed"):
            rs.decode(codeword, erasure_positions=[0, 1, 2, 3, 4])
