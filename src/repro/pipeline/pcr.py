"""PCR amplification with sequence-dependent bias and retrieval noise.

Section 1.1.1: polymerase-chain reaction enables random access (strands
carrying the selected primer are amplified exponentially), but it is also
a noise source — "the amplification is imperfect; strands of undesired
files might remain, and even strands of desired files might be corrupted
via substitution."  Heckel et al. (Section 2.1) additionally showed that
PCR *prefers some sequences over others*, distorting the copy-number
distribution of individual strands — one of the reasons coverage is
negative-binomial rather than constant.

The model: each strand has a per-cycle amplification efficiency derived
from its GC-content (extreme GC amplifies poorly); molecule counts evolve
as a Galton-Watson branching process over the requested cycles, with a
small per-copy substitution rate.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.alphabet import gc_content, substitute_base
from repro.exceptions import ConfigError


@dataclass(frozen=True)
class PCRParameters:
    """Knobs of the PCR model.

    Attributes:
        base_efficiency: per-cycle duplication probability for a strand
            with ideal 50% GC-content (real PCR runs at ~0.8-0.95).
        gc_penalty: efficiency lost per unit of |GC - 0.5| * 2 (so a
            100%-GC strand loses the full penalty).
        substitution_rate: per-base substitution probability *per
            duplication* (polymerase copy errors are rare but compound
            over cycles).
        off_target_rate: probability that a strand with a *different*
            primer is nevertheless carried along in one cycle (imperfect
            selectivity).
        max_molecules_per_strand: cap on the tracked population so deep
            amplification stays cheap; beyond it growth is deterministic.
    """

    base_efficiency: float = 0.9
    gc_penalty: float = 0.3
    substitution_rate: float = 1e-4
    off_target_rate: float = 0.02
    max_molecules_per_strand: int = 4_096

    def efficiency(self, strand: str) -> float:
        """Per-cycle duplication probability for ``strand``."""
        imbalance = abs(gc_content(strand) - 0.5) * 2.0
        return max(0.0, min(1.0, self.base_efficiency - self.gc_penalty * imbalance))


@dataclass
class AmplifiedPool:
    """Result of a PCR run: per-source-strand molecule populations.

    ``molecules[i]`` is a list of (sequence, count) pairs descended from
    source strand i — mutated variants are tracked separately from
    faithful copies.
    """

    molecules: list[list[tuple[str, int]]] = field(default_factory=list)

    def copy_number(self, index: int) -> int:
        """Total molecules descended from source strand ``index``."""
        return sum(count for _sequence, count in self.molecules[index])

    def sample_reads(self, n_reads: int, rng: random.Random) -> list[tuple[int, str]]:
        """Draw reads proportionally to molecule abundance.

        Returns ``(source_index, sequence)`` pairs — the ground-truth
        labelling downstream clustering tries to recover.
        """
        population: list[tuple[int, str, int]] = []
        total = 0
        for index, variants in enumerate(self.molecules):
            for sequence, count in variants:
                population.append((index, sequence, count))
                total += count
        if total == 0 or n_reads <= 0:
            return []
        reads = []
        for _ in range(n_reads):
            point = rng.randrange(total)
            cumulative = 0
            for index, sequence, count in population:
                cumulative += count
                if point < cumulative:
                    reads.append((index, sequence))
                    break
        return reads


class PCRAmplifier:
    """Galton-Watson PCR amplification over a strand pool."""

    def __init__(
        self,
        parameters: PCRParameters | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.parameters = parameters or PCRParameters()
        self.rng = rng if rng is not None else random.Random()

    def amplify(
        self,
        strands: Sequence[str],
        cycles: int = 10,
        selected: Sequence[bool] | None = None,
    ) -> AmplifiedPool:
        """Run ``cycles`` of PCR over ``strands``.

        Args:
            strands: source molecules (one molecule each at cycle 0).
            cycles: number of thermal cycles.
            selected: per-strand flag — True for strands whose primer
                matches the PCR target (amplified normally), False for
                off-target strands (amplified only at the off-target
                rate).  None selects everything.

        Returns:
            An :class:`AmplifiedPool` with per-strand molecule variants.
        """
        if cycles < 0:
            raise ConfigError(f"cycles must be non-negative, got {cycles}")
        if selected is not None and len(selected) != len(strands):
            raise ConfigError(
                f"{len(selected)} selection flags for {len(strands)} strands"
            )
        parameters = self.parameters
        pool = AmplifiedPool()
        for index, strand in enumerate(strands):
            is_selected = True if selected is None else selected[index]
            efficiency = (
                parameters.efficiency(strand)
                if is_selected
                else parameters.off_target_rate
            )
            variants: dict[str, int] = {strand: 1}
            population = 1
            for _cycle in range(cycles):
                if population >= parameters.max_molecules_per_strand:
                    # Saturated: grow deterministically without mutation
                    # tracking (mutation mass is negligible relative to
                    # the dominant variants by now).
                    growth = 1.0 + efficiency
                    variants = {
                        sequence: int(count * growth)
                        for sequence, count in variants.items()
                    }
                    population = sum(variants.values())
                    continue
                new_variants: dict[str, int] = dict(variants)
                for sequence, count in variants.items():
                    duplicated = self._binomial(count, efficiency)
                    if duplicated == 0:
                        continue
                    mutated = self._mutate_copies(sequence, duplicated)
                    for new_sequence, new_count in mutated.items():
                        new_variants[new_sequence] = (
                            new_variants.get(new_sequence, 0) + new_count
                        )
                variants = new_variants
                population = sum(variants.values())
            pool.molecules.append(sorted(variants.items()))
        return pool

    # ---------------------------------------------------------------- #

    def _binomial(self, trials: int, probability: float) -> int:
        """Binomial draw; normal approximation above a size cutoff."""
        if trials <= 0 or probability <= 0:
            return 0
        if probability >= 1:
            return trials
        if trials > 64:
            mean = trials * probability
            stdev = math.sqrt(trials * probability * (1 - probability))
            return max(0, min(trials, round(self.rng.gauss(mean, stdev))))
        return sum(1 for _ in range(trials) if self.rng.random() < probability)

    def _mutate_copies(self, sequence: str, count: int) -> dict[str, int]:
        """Apply per-duplication substitutions to ``count`` new copies."""
        rate = self.parameters.substitution_rate
        if rate <= 0 or not sequence:
            return {sequence: count}
        expected_mutants = count * (1 - (1 - rate) ** len(sequence))
        n_mutants = self._binomial(
            count, min(1.0, expected_mutants / count if count else 0.0)
        )
        result = {sequence: count - n_mutants}
        for _ in range(n_mutants):
            position = self.rng.randrange(len(sequence))
            mutated = (
                sequence[:position]
                + substitute_base(sequence[position], self.rng)
                + sequence[position + 1 :]
            )
            result[mutated] = result.get(mutated, 0) + 1
        if result[sequence] == 0:
            del result[sequence]
        return result
