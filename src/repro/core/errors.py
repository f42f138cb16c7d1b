"""Composable IDS error models.

An :class:`ErrorModel` is a full parameterisation of the noisy channel of
Section 2.3: per-base insertion/deletion/substitution rates, a conditional
substitution matrix, a long-deletion process, a spatial distribution of
errors, second-order errors with their own positional skews, and the two
ground-truth-only effects (homopolymer amplification and Nanopore burst
errors) that no simulator in the paper models.

The paper refines its simulator progressively (Section 3.3):

1. **naive** — three aggregate probabilities, uniform everywhere;
2. **+ conditional probabilities & long deletions** (Section 3.3.1);
3. **+ spatial skew** (Section 3.3.2);
4. **+ second-order errors** (Section 3.3.3).

Each stage is just an ``ErrorModel`` with more fields populated, so the
same :class:`repro.core.channel.Channel` executes every stage, the
DNASimulator baseline, and the ground-truth wetlab substitute.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from repro.core.alphabet import BASES
from repro.core.spatial import SpatialDistribution, UniformSpatial
from repro.exceptions import ConfigError

#: Error kinds used by second-order errors (string-valued to keep
#: second-order specs literal and serialisable).
ERROR_KINDS = ("insertion", "deletion", "substitution")


def _as_base_rates(value: float | dict[str, float], name: str) -> dict[str, float]:
    """Expand a scalar rate into a per-base dict and validate ranges."""
    if isinstance(value, dict):
        rates = {base: float(value.get(base, 0.0)) for base in BASES}
    else:
        rates = {base: float(value) for base in BASES}
    for base, rate in rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name}[{base}] must be in [0, 1], got {rate}")
    return rates


def _draw_total(weights: dict, name: str) -> float:
    """The total of a draw table's weights, which must each be finite and
    non-negative: the channel's sweep picks a key by bisecting the
    running sums, which matches the loop's linear scan only while they
    never decrease."""
    for key, weight in weights.items():
        if not 0.0 <= weight < math.inf:
            raise ConfigError(
                f"{name}[{key!r}] must be a finite non-negative weight, got {weight!r}"
            )
    total = sum(weights.values())
    if total == math.inf:
        raise ConfigError(f"{name} weights overflow to an infinite total")
    return total


def uniform_substitution_matrix() -> dict[str, dict[str, float]]:
    """P(replacement | original) uniform over the three other bases.

    This is DNASimulator's (criticised) choice, Section 2.2.3.
    """
    matrix: dict[str, dict[str, float]] = {}
    for original in BASES:
        others = [base for base in BASES if base != original]
        matrix[original] = {base: 1.0 / len(others) for base in others}
    return matrix


def transition_biased_substitution_matrix(
    transition_probability: float = 0.8,
) -> dict[str, dict[str, float]]:
    """Substitution matrix favouring transitions (A<->G, C<->T).

    Heckel et al. measured p ~ 0.4 for mistaking T for C or A for G versus
    p ~ 0.01 for other combinations (Section 2.1); ``transition_probability``
    is the mass given to the transition partner, with the remainder split
    between the two transversions.
    """
    if not 0.0 <= transition_probability <= 1.0:
        raise ValueError(
            f"transition_probability must be in [0, 1], got {transition_probability}"
        )
    from repro.core.alphabet import TRANSITION

    matrix: dict[str, dict[str, float]] = {}
    for original in BASES:
        partner = TRANSITION[original]
        transversions = [
            base for base in BASES if base not in (original, partner)
        ]
        row = {partner: transition_probability}
        for base in transversions:
            row[base] = (1.0 - transition_probability) / len(transversions)
        matrix[original] = row
    return matrix


#: Long-deletion run-length distribution measured by the paper
#: (Section 3.3.1): lengths 2..6 with ratios 84 / 13 / 1.8 / 0.2 / 0.02 %.
PAPER_LONG_DELETION_LENGTHS: dict[int, float] = {
    2: 0.84,
    3: 0.13,
    4: 0.018,
    5: 0.002,
    6: 0.0002,
}


@dataclass(frozen=True)
class SecondOrderError:
    """A specific error with its own rate and positional distribution.

    Second-order errors (Section 3.3.3) are concrete events such as "the
    insertion of A" or "the substitution of G with C".  The paper found
    the 10 most common of them to account for 56% of all errors, each with
    its own spatial skew (Fig. 3.6).

    Attributes:
        kind: one of ``insertion`` / ``deletion`` / ``substitution``.
        base: the reference base the error applies to.  Empty for
            insertions, which can fire at any position.
        replacement: the emitted base — the inserted base for insertions,
            the new base for substitutions, empty for deletions.
        rate: per-opportunity probability of the event.
        spatial: this event's own positional distribution.
    """

    kind: str
    base: str
    replacement: str
    rate: float
    spatial: SpatialDistribution = field(default_factory=UniformSpatial)

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"kind must be one of {ERROR_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        base_set = frozenset(BASES)  # "" is a substring of BASES, not a base
        if self.kind == "insertion":
            if self.base:
                raise ValueError("insertion second-order errors must have base=''")
            if self.replacement not in base_set:
                raise ValueError(
                    f"insertion replacement must be a base, got {self.replacement!r}"
                )
        elif self.kind == "deletion":
            if self.base not in base_set:
                raise ValueError(f"deletion base must be a base, got {self.base!r}")
            if self.replacement:
                raise ValueError("deletion second-order errors must have replacement=''")
        else:
            if self.base not in base_set or self.replacement not in base_set:
                raise ValueError("substitution needs base and replacement bases")
            if self.base == self.replacement:
                raise ValueError("substitution replacement must differ from base")

    def describe(self) -> str:
        """Short label, e.g. ``del A``, ``sub G->C``, ``ins T``."""
        if self.kind == "deletion":
            return f"del {self.base}"
        if self.kind == "insertion":
            return f"ins {self.replacement}"
        return f"sub {self.base}->{self.replacement}"


@dataclass(frozen=True)
class ErrorModel:
    """Full parameterisation of the IDS noisy channel.

    All rates are per-position probabilities; the spatial distribution
    redistributes them along the strand without changing aggregates.

    Attributes:
        insertion_rate / deletion_rate / substitution_rate: per-base
            conditional rates, e.g. ``P(ins | A)`` (Section 3.3.1).
        substitution_matrix: ``P(replacement | original base substituted)``.
        insertion_base_probs: distribution of the inserted base.
        long_deletion_rate: probability a long deletion *starts* at a
            position (0.33% in the paper's data).
        long_deletion_lengths: run-length distribution (length >= 2).
        spatial: positional distribution applied to first-order rates.
        second_order_errors: specific errors layered on top, each with its
            own rate and spatial skew.  Their probability mass is in
            *addition* to the first-order rates, so a profiler fitting
            both must subtract second-order counts from first-order rates
            (see :mod:`repro.core.profile`).
        homopolymer_factor: error-rate multiplier inside homopolymer runs
            (>= 2 consecutive identical bases).  Ground-truth channel only.
        burst_rate: probability a burst error starts at a position;
            Nanopore bursts corrupt >= 5 consecutive bases (Section 1.2).
        burst_min_length / burst_continue: burst length is
            ``burst_min_length`` plus a geometric tail with continuation
            probability ``burst_continue``.
        burst_deletion_fraction: fraction of bursts that delete the run
            (the rest substitute every base in the run).

    Raises:
        ConfigError: a draw table (a ``substitution_matrix`` row,
            ``insertion_base_probs``, ``long_deletion_lengths``) holds a
            negative or non-finite weight, or a positive rate's event
            has nothing to draw from.
    """

    insertion_rate: dict[str, float]
    deletion_rate: dict[str, float]
    substitution_rate: dict[str, float]
    substitution_matrix: dict[str, dict[str, float]] = field(
        default_factory=uniform_substitution_matrix
    )
    insertion_base_probs: dict[str, float] = field(
        default_factory=lambda: {base: 0.25 for base in BASES}
    )
    long_deletion_rate: float = 0.0
    long_deletion_lengths: dict[int, float] = field(
        default_factory=lambda: dict(PAPER_LONG_DELETION_LENGTHS)
    )
    spatial: SpatialDistribution = field(default_factory=UniformSpatial)
    second_order_errors: tuple[SecondOrderError, ...] = ()
    homopolymer_factor: float = 1.0
    burst_rate: float = 0.0
    burst_min_length: int = 5
    burst_continue: float = 0.3
    burst_deletion_fraction: float = 0.7

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "insertion_rate", _as_base_rates(self.insertion_rate, "insertion_rate")
        )
        object.__setattr__(
            self, "deletion_rate", _as_base_rates(self.deletion_rate, "deletion_rate")
        )
        object.__setattr__(
            self,
            "substitution_rate",
            _as_base_rates(self.substitution_rate, "substitution_rate"),
        )
        if not 0.0 <= self.long_deletion_rate <= 1.0:
            raise ValueError(
                f"long_deletion_rate must be in [0, 1], got {self.long_deletion_rate}"
            )
        for length in self.long_deletion_lengths:
            if length < 2:
                raise ValueError(
                    f"long deletions have length >= 2, got length {length}"
                )
        if self.homopolymer_factor < 0:
            raise ValueError("homopolymer_factor must be non-negative")
        if not 0.0 <= self.burst_rate <= 1.0:
            raise ValueError(f"burst_rate must be in [0, 1], got {self.burst_rate}")
        if self.burst_min_length < 1:
            raise ValueError("burst_min_length must be >= 1")
        if not 0.0 <= self.burst_continue < 1.0:
            raise ValueError("burst_continue must be in [0, 1)")
        if not 0.0 <= self.burst_deletion_fraction <= 1.0:
            raise ValueError("burst_deletion_fraction must be in [0, 1]")
        self._check_draw_tables()
        object.__setattr__(
            self, "second_order_errors", tuple(self.second_order_errors)
        )

    def _check_draw_tables(self) -> None:
        """Reject a draw table with a bad weight, and a positive rate
        whose event would have nothing to draw from."""
        row_totals = {
            base: _draw_total(row, f"substitution_matrix[{base!r}]")
            for base, row in self.substitution_matrix.items()
        }
        insertion_total = _draw_total(
            self.insertion_base_probs, "insertion_base_probs"
        )
        length_total = _draw_total(
            self.long_deletion_lengths, "long_deletion_lengths"
        )
        for base in BASES:
            if row_totals.get(base, 0.0) > 0:
                continue
            if self.substitution_rate[base] > 0:
                raise ConfigError(
                    f"substitution_rate[{base!r}] is positive but "
                    f"substitution_matrix[{base!r}] has no positive weight"
                )
            if self.burst_rate > 0:
                raise ConfigError(
                    "burst_rate is positive (bursts substitute every base) but "
                    f"substitution_matrix[{base!r}] has no positive weight"
                )
        if insertion_total <= 0 and any(self.insertion_rate.values()):
            raise ConfigError(
                "insertion_rate is positive but insertion_base_probs "
                "has no positive weight"
            )
        if length_total <= 0 and self.long_deletion_rate > 0:
            raise ConfigError(
                "long_deletion_rate is positive but long_deletion_lengths "
                "has no positive weight"
            )

    # ---------------------------------------------------------------- #
    # Factories for the paper's model stages
    # ---------------------------------------------------------------- #

    @classmethod
    def naive(
        cls,
        insertion_rate: float,
        deletion_rate: float,
        substitution_rate: float,
    ) -> "ErrorModel":
        """The naive simulator: three aggregate probabilities, nothing else
        (Section 3.3's starting point)."""
        return cls(
            insertion_rate=insertion_rate,
            deletion_rate=deletion_rate,
            substitution_rate=substitution_rate,
        )

    @classmethod
    def uniform(cls, total_error_rate: float) -> "ErrorModel":
        """A naive model with the aggregate rate split evenly across the
        three error types — the sensitivity-analysis channel of
        Section 3.4.1 (p-bar in {0.03, ..., 0.15})."""
        per_kind = total_error_rate / 3.0
        return cls.naive(per_kind, per_kind, per_kind)

    # ---------------------------------------------------------------- #
    # Derived quantities and transformations
    # ---------------------------------------------------------------- #

    def first_order_rate(self, base: str) -> float:
        """Total first-order error probability at a position holding ``base``."""
        return (
            self.insertion_rate[base]
            + self.deletion_rate[base]
            + self.substitution_rate[base]
            + self.long_deletion_rate
        )

    def aggregate_error_rate(self) -> float:
        """Mean per-position error probability, averaged over bases.

        Counts each long deletion by its expected length and includes
        second-order error mass (averaged across positions — spatial
        weights have mean 1 so they cancel).  Burst and homopolymer
        effects are excluded: they are ground-truth-only extras.
        """
        expected_long = self.long_deletion_rate * self.expected_long_deletion_length()
        first_order = sum(
            self.insertion_rate[base]
            + self.deletion_rate[base]
            + self.substitution_rate[base]
            for base in BASES
        ) / len(BASES)
        second_order = 0.0
        for error in self.second_order_errors:
            if error.kind == "insertion":
                second_order += error.rate
            else:
                second_order += error.rate / len(BASES)
        return first_order + expected_long + second_order

    def expected_long_deletion_length(self) -> float:
        """Mean length of a long-deletion run (0.0 if disabled)."""
        total = sum(self.long_deletion_lengths.values())
        if total == 0:
            return 0.0
        return (
            sum(length * weight for length, weight in self.long_deletion_lengths.items())
            / total
        )

    def with_spatial(self, spatial: SpatialDistribution) -> "ErrorModel":
        """A copy of this model with a different spatial distribution."""
        return replace(self, spatial=spatial)

    def with_second_order(
        self, errors: tuple[SecondOrderError, ...]
    ) -> "ErrorModel":
        """A copy of this model with the given second-order errors."""
        return replace(self, second_order_errors=tuple(errors))

    def scaled(self, factor: float) -> "ErrorModel":
        """Scale every error rate by ``factor`` (for error-rate sweeps)."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return replace(
            self,
            insertion_rate={
                base: rate * factor for base, rate in self.insertion_rate.items()
            },
            deletion_rate={
                base: rate * factor for base, rate in self.deletion_rate.items()
            },
            substitution_rate={
                base: rate * factor for base, rate in self.substitution_rate.items()
            },
            long_deletion_rate=self.long_deletion_rate * factor,
            second_order_errors=tuple(
                replace(error, rate=error.rate * factor)
                for error in self.second_order_errors
            ),
            burst_rate=self.burst_rate * factor,
        )

    def draw_substitution(self, base: str, rng: random.Random) -> str:
        """Draw the replacement base for a substitution of ``base``."""
        return _draw_from(self.substitution_matrix[base], rng)

    def draw_insertion_base(self, rng: random.Random) -> str:
        """Draw the base to insert."""
        return _draw_from(self.insertion_base_probs, rng)

    def draw_long_deletion_length(self, rng: random.Random) -> int:
        """Draw a long-deletion run length (>= 2)."""
        return _draw_from(self.long_deletion_lengths, rng)


def _draw_from(weights: dict, rng: random.Random):
    """Draw a key from a weight dict (weights need not sum to 1)."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("cannot draw from an all-zero weight dict")
    point = rng.random() * total
    cumulative = 0.0
    for key, weight in weights.items():
        cumulative += weight
        if point < cumulative:
            return key
    return key  # floating-point edge: return the last key
