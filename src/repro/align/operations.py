"""Maximum-likelihood edit-operation extraction (the paper's Algorithm 2).

Given a reference strand and one of its noisy copies it is impossible to
know which exact sequence of channel errors produced the copy; the paper
uses the **edit-distance operations as a proxy** for the most likely error
sequence (Section 3.3.1, Appendix B).  These operation sequences are the
raw material of the data-driven profiler: conditional error probabilities,
long-deletion statistics, spatial histograms and second-order error counts
are all tallied from them.

The paper's Appendix B presents the extraction as an exponential recursion
with random tie-breaking (``ChooseRandomAndInsertOp``).  This module
implements the same semantics as a backtrace over the full edit-distance
matrix, held implicitly: one Myers/Hyyrö bit-vector pass over the copy
keeps each DP column's delta words (O(ceil(len(reference)/64) *
len(copy)) word operations), and the backtrace reads every cell
comparison it needs from them as a bit test.  Ties between optimal paths are broken either deterministically
(preferring substitutions, the maximum-likelihood single-base error) or
randomly when an ``rng`` is supplied, matching Algorithm 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.align import kernels


class OpKind(Enum):
    """The kinds of edit operations over the IDS channel."""

    EQUAL = "equal"
    SUBSTITUTION = "substitution"
    DELETION = "deletion"
    INSERTION = "insertion"


@dataclass(frozen=True)
class EditOp:
    """One edit operation positioned on the *reference* strand.

    Attributes:
        kind: the operation type.
        reference_position: index into the reference strand.  For an
            insertion this is the index of the reference base *before*
            which the new base appears (``len(reference)`` for an append).
        reference_base: the reference base consumed (empty for insertions).
        copy_base: the base emitted into the copy (empty for deletions).
    """

    kind: OpKind
    reference_position: int
    reference_base: str
    copy_base: str

    @property
    def is_error(self) -> bool:
        """True for every operation except EQUAL."""
        return self.kind is not OpKind.EQUAL

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``del G@12`` or ``sub A->G@3``."""
        if self.kind is OpKind.EQUAL:
            return f"eq {self.reference_base}@{self.reference_position}"
        if self.kind is OpKind.DELETION:
            return f"del {self.reference_base}@{self.reference_position}"
        if self.kind is OpKind.INSERTION:
            return f"ins {self.copy_base}@{self.reference_position}"
        return (
            f"sub {self.reference_base}->{self.copy_base}"
            f"@{self.reference_position}"
        )


def edit_operations(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """Extract a minimal edit-operation sequence turning ``reference`` into
    ``copy``.

    This is Algorithm 2 (Appendix B) implemented as a DP backtrace.  When
    several operation sequences achieve the minimum edit distance, the
    paper chooses among them randomly; pass ``rng`` for that behaviour, or
    leave it None for a deterministic maximum-likelihood preference order
    (match/substitution, then deletion, then insertion — single-base
    substitutions and deletions being the most common channel errors).

    The returned list is ordered by reference position; applying the
    operations left to right reproduces ``copy`` exactly (verified by the
    test suite's round-trip property).
    """
    # Distance pre-checks: when the distance is trivially 0 (equal
    # strings) or trivially len(other) (one side empty) the operation
    # sequence is forced — every backtrace candidate set is a singleton,
    # so tie-breaking (random or deterministic) cannot diverge — and the
    # DP is skipped entirely.  Identical copies are the common case when
    # profiling low-noise pools.
    if reference == copy:
        return [_equal_op(position, base) for position, base in enumerate(reference)]
    if not copy:
        return [
            EditOp(OpKind.DELETION, position, base, "")
            for position, base in enumerate(reference)
        ]
    if not reference:
        return [EditOp(OpKind.INSERTION, 0, "", base) for base in copy]
    diagonal_zeros, vertical_positives, horizontal_positives = _delta_columns(
        reference, copy
    )
    operations: list[EditOp] = []
    row, column = len(reference), len(copy)
    # Bit ``row - 1`` of a column's words describes DP cell (row, column).
    bit = 1 << (row - 1)
    while row and column:
        reference_base = reference[row - 1]
        copy_base = copy[column - 1]
        # A matching diagonal is always optimal (D[i][j] == D[i-1][j-1]
        # whenever the bases agree); on a mismatch the diagonal is a
        # substitution exactly when D0 is clear, since D[i][j] -
        # D[i-1][j-1] is 0 or 1.
        if reference_base == copy_base:
            diagonal: OpKind | None = _EQUAL
        elif diagonal_zeros[column - 1] & bit:
            diagonal = None
        else:
            diagonal = _SUBSTITUTION
        if rng is None:
            if diagonal is not None:
                kind = diagonal
            elif vertical_positives[column - 1] & bit:
                kind = _DELETION
            else:
                kind = _INSERTION
        else:
            candidates = [] if diagonal is None else [diagonal]
            if vertical_positives[column - 1] & bit:
                candidates.append(_DELETION)
            if horizontal_positives[column - 1] & bit:
                candidates.append(_INSERTION)
            kind = rng.choice(candidates)
        if kind is _EQUAL:
            operations.append(_equal_op(row - 1, reference_base))
            column -= 1
        elif kind is _SUBSTITUTION:
            operations.append(EditOp(kind, row - 1, reference_base, copy_base))
            column -= 1
        elif kind is _DELETION:
            operations.append(EditOp(kind, row - 1, reference_base, ""))
        else:
            operations.append(EditOp(kind, row, "", copy_base))
            column -= 1
            continue
        row -= 1
        bit >>= 1
    # One border remains: every cell on it has a single candidate, which
    # ``rng.choice`` still draws for.
    while row:
        row -= 1
        if rng is not None:
            rng.choice(_FORCED)
        operations.append(EditOp(_DELETION, row, reference[row], ""))
    while column:
        column -= 1
        if rng is not None:
            rng.choice(_FORCED)
        operations.append(EditOp(_INSERTION, 0, "", copy[column]))
    operations.reverse()
    return operations


_EQUAL = OpKind.EQUAL
_SUBSTITUTION = OpKind.SUBSTITUTION
_DELETION = OpKind.DELETION
_INSERTION = OpKind.INSERTION

#: A one-candidate list: ``rng.choice`` draws the same bits for any
#: list of the same length.
_FORCED = (None,)


@lru_cache(maxsize=1 << 14)
def _equal_op(position: int, base: str) -> EditOp:
    """Shared EQUAL operations.  ``EditOp`` is frozen, so reusing one
    instance is indistinguishable from building a new one, and EQUAL is
    ~94% of every operation sequence."""
    return EditOp(_EQUAL, position, base, base)


def _delta_columns(reference: str, copy: str) -> tuple[list[int], list[int], list[int]]:
    """Myers/Hyyrö bit vectors of every DP column, for the backtrace.

    The pattern is ``reference`` (bit ``i - 1`` of a word is DP row
    ``i``), the text is ``copy``; entry ``j - 1`` of each list describes
    column ``j``:

    * ``D0`` — bit set iff ``D[i][j] == D[i-1][j-1]``;
    * ``VP`` — bit set iff ``D[i][j] == D[i-1][j] + 1`` (a deletion);
    * ``PH`` before the shift — bit set iff ``D[i][j] == D[i][j-1] + 1``
      (an insertion).

    Together these decide every backtrace move of the full matrix, so
    no band and no explicit matrix are needed.
    """
    masks = kernels.pattern_masks(reference)
    full = (1 << len(reference)) - 1
    vertical_positive = full
    vertical_negative = 0
    diagonal_zeros: list[int] = []
    vertical_positives: list[int] = []
    horizontal_positives: list[int] = []
    get_mask = masks.get
    for char in copy:
        eq = get_mask(char, 0)
        diagonal_zero = (
            ((eq & vertical_positive) + vertical_positive) ^ vertical_positive
        ) | eq | vertical_negative
        horizontal_positive = vertical_negative | (
            full & ~(diagonal_zero | vertical_positive)
        )
        horizontal_negative = vertical_positive & diagonal_zero
        diagonal_zeros.append(diagonal_zero)
        horizontal_positives.append(horizontal_positive)
        horizontal_positive = ((horizontal_positive << 1) | 1) & full
        horizontal_negative = (horizontal_negative << 1) & full
        vertical_positive = horizontal_negative | (
            full & ~(diagonal_zero | horizontal_positive)
        )
        vertical_negative = horizontal_positive & diagonal_zero
        vertical_positives.append(vertical_positive)
    return diagonal_zeros, vertical_positives, horizontal_positives


def apply_operations(reference: str, operations: list[EditOp]) -> str:
    """Replay an operation sequence against ``reference``.

    Used to verify round-trips:
    ``apply_operations(r, edit_operations(r, c)) == c``.
    """
    output: list[str] = []
    cursor = 0
    for operation in operations:
        if operation.kind is OpKind.INSERTION:
            if operation.reference_position < cursor:
                raise ValueError("operations are not ordered by reference position")
            output.append(reference[cursor : operation.reference_position])
            cursor = operation.reference_position
            output.append(operation.copy_base)
            continue
        if operation.reference_position != cursor:
            if operation.reference_position < cursor:
                raise ValueError("operations are not ordered by reference position")
            output.append(reference[cursor : operation.reference_position])
            cursor = operation.reference_position
        if operation.kind in (OpKind.EQUAL, OpKind.SUBSTITUTION):
            output.append(operation.copy_base)
        # DELETION emits nothing.
        cursor += 1
    output.append(reference[cursor:])
    return "".join(output)


def error_operations(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """Only the non-EQUAL operations of :func:`edit_operations`."""
    return [
        operation
        for operation in edit_operations(reference, copy, rng)
        if operation.is_error
    ]


def deletion_runs(operations: list[EditOp]) -> list[tuple[int, int]]:
    """Group consecutive deletions into runs.

    Long deletions — runs of length >= 2 — are an explicit channel
    parameter (Section 3.3.1: p_ld = 0.33%, mean length 2.17).

    Returns:
        ``(start_reference_position, run_length)`` for every maximal run of
        DELETION operations at consecutive reference positions.
    """
    runs: list[tuple[int, int]] = []
    run_start: int | None = None
    run_length = 0
    previous_position = -2
    for operation in operations:
        if operation.kind is OpKind.DELETION:
            if (
                run_start is not None
                and operation.reference_position == previous_position + 1
            ):
                run_length += 1
            else:
                if run_start is not None:
                    runs.append((run_start, run_length))
                run_start = operation.reference_position
                run_length = 1
            previous_position = operation.reference_position
        else:
            if run_start is not None:
                runs.append((run_start, run_length))
                run_start = None
                run_length = 0
            previous_position = -2
    if run_start is not None:
        runs.append((run_start, run_length))
    return runs
