"""Alignment substrate: edit distance, maximum-likelihood edit operations
(Algorithm 2), gestalt pattern matching, and Hamming comparisons — all
running on the bit-parallel and vectorised kernels of
:mod:`repro.align.kernels`."""

from repro.align.edit_distance import (
    edit_distance,
    edit_distance_banded,
    edit_distance_matrix,
    normalized_edit_distance,
)
from repro.align.gestalt import (
    MatchingBlock,
    aligned_segments,
    gestalt_error_positions,
    gestalt_score,
    matching_blocks,
)
from repro.align.kernels import (
    CompiledPattern,
    edit_distances_one_to_many,
)
from repro.align.hamming import (
    hamming_distance,
    hamming_error_positions,
    normalized_hamming_distance,
)
from repro.align.operations import (
    EditOp,
    OpKind,
    apply_operations,
    deletion_runs,
    edit_operations,
    error_operations,
)

__all__ = [
    "CompiledPattern",
    "EditOp",
    "MatchingBlock",
    "OpKind",
    "aligned_segments",
    "apply_operations",
    "deletion_runs",
    "edit_distance",
    "edit_distance_banded",
    "edit_distance_matrix",
    "edit_distances_one_to_many",
    "edit_operations",
    "error_operations",
    "gestalt_error_positions",
    "gestalt_score",
    "hamming_distance",
    "hamming_error_positions",
    "matching_blocks",
    "normalized_edit_distance",
    "normalized_hamming_distance",
]
