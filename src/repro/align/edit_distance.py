"""Levenshtein edit distance over DNA strands.

Edit distance underpins three subsystems: clustering (reads are grouped by
edit-distance similarity, Section 1.1.2), reconstruction-quality metrics
(normalised edit distance, Section 3.1), and the maximum-likelihood
extraction of error sequences from reference/copy pairs (Appendix B,
implemented in :mod:`repro.align.operations`).

Distance-only queries run the Myers bit-parallel kernels of
:mod:`repro.align.kernels`, which are bit-identical to the seed's
pure-Python DPs (kept there as the oracles' references).  The full DP
matrix is available here for inspection; the backtrace in
:mod:`repro.align.operations` reads the same cell values from Myers bit
vectors instead.
"""

from __future__ import annotations

import numpy as np

from repro.align import kernels


def edit_distance(first: str, second: str) -> int:
    """Levenshtein distance between two strings (unit costs).

    O(max(len)/64 * min(len)) word-time on the bit-parallel kernel.
    """
    if first == second:
        return 0
    if not first or not second:
        # One side empty: the length-difference lower bound is achieved
        # exactly (pure insertions/deletions), no DP needed.
        return abs(len(first) - len(second))
    return kernels.edit_distance_kernel(first, second)


def edit_distance_banded(first: str, second: str, band: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``band``.

    If the true distance exceeds ``band`` the result is a lower bound of
    ``band + 1`` ("at least this far apart"), which is all clustering needs
    to reject a pair quickly.  The length-difference lower bound
    short-circuits before any kernel runs; the bit-parallel kernel
    early-exits the moment the band is provably exceeded.
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if abs(len(first) - len(second)) > band:
        return band + 1
    if first == second:
        return 0
    return kernels.banded_distance_kernel(first, second, band)


def normalized_edit_distance(first: str, second: str) -> float:
    """Edit distance divided by the longer string's length (0.0 for two
    empty strings).

    One of the candidate simulator-evaluation metrics of Section 3.1.
    """
    longest = max(len(first), len(second))
    if longest == 0:
        return 0.0
    return edit_distance(first, second) / longest


def edit_distance_matrix(first: str, second: str) -> np.ndarray:
    """Full (len(first)+1) x (len(second)+1) DP matrix as ``int32`` numpy.

    ``matrix[i][j]`` is the distance between ``first[:i]`` and
    ``second[:j]``; any alphabet is accepted.  Large inputs are routed to the
    vectorised :func:`edit_distance_matrix_fast`; small inputs use a
    pure-Python DP (less per-row overhead) whose result is converted, so
    **every** call returns the same type — callers must not have to care
    which path ran when they mutate, ``len()``, or compare the result.
    """
    if len(first) * len(second) > 1024:
        return edit_distance_matrix_fast(first, second)
    rows, columns = len(first) + 1, len(second) + 1
    matrix = [[0] * columns for _ in range(rows)]
    for row in range(rows):
        matrix[row][0] = row
    for column in range(columns):
        matrix[0][column] = column
    for row in range(1, rows):
        first_char = first[row - 1]
        matrix_row = matrix[row]
        matrix_above = matrix[row - 1]
        for column in range(1, columns):
            substitution_cost = 0 if first_char == second[column - 1] else 1
            matrix_row[column] = min(
                matrix_above[column] + 1,
                matrix_row[column - 1] + 1,
                matrix_above[column - 1] + substitution_cost,
            )
    return np.asarray(matrix, dtype=np.int32)


def edit_distance_matrix_fast(first: str, second: str) -> np.ndarray:
    """Vectorised DP matrix, row by row with numpy.

    The only wrinkle is the left-to-right dependency of insertions within
    a row; it is resolved in closed form:
    ``min_k (row[k] + (j - k)) = j + cummin(row[k] - k)``, a single
    ``np.minimum.accumulate`` per row.  This makes bulk alignment (the
    profiler aligns every noisy copy against its reference) roughly an
    order of magnitude faster than the pure-Python matrix.
    """
    rows, columns = len(first) + 1, len(second) + 1
    second_codes = kernels._string_codes(second)
    matrix = np.empty((rows, columns), dtype=np.int32)
    matrix[0] = np.arange(columns, dtype=np.int32)
    column_index = np.arange(columns, dtype=np.int32)
    for row in range(1, rows):
        above = matrix[row - 1]
        current = np.empty(columns, dtype=np.int32)
        current[0] = row
        substitution_cost = (second_codes != ord(first[row - 1])).astype(np.int32)
        # Candidates ignoring the intra-row insertion dependency.
        current[1:] = np.minimum(above[1:] + 1, above[:-1] + substitution_cost)
        # Resolve insertions: current[j] = min over k <= j of current[k] + (j - k).
        current = np.minimum.accumulate(current - column_index) + column_index
        matrix[row] = current
    return matrix
