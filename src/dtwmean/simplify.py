"""Minimum-error sequence simplification restricted to input vertices.

The dynamic program below computes, for a sequence pi of complexity m, the
sequence over the vertex set of pi with at most ell vertices that minimizes
dtw_p to pi.  Restricting vertices to the input costs at most a factor 2 in
error against the best unrestricted simplification, so the result is a
2-approximate minimum-error simplification.

The DP assigns to each output vertex a contiguous, non-empty block of input
positions; blocks are disjoint and cover the whole prefix.  Any warping that
matches two output vertices to one input vertex can be rewritten into this
form without increasing cost, so the block model loses nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointSequence, as_sequence, path_overflow_error, pow_dist_matrix
from .errors import require


@dataclass(frozen=True)
class SimplificationResult:
    """A simplified sequence plus its dtw_p cost to the input."""

    sequence: PointSequence
    discrete_cost: float
    alpha: float = 2.0


def simplify(pi, ell: int, p: float) -> SimplificationResult:
    """Best vertex-restricted simplification of pi with at most ell vertices.

    Returns the cheapest sequence over {pi_1, ..., pi_m}^{<= ell} under dtw_p,
    hence a (2, ell)-simplification.  All argmin ties (anchor point, block
    split, output length) resolve to the smallest index.
    """
    seq = as_sequence(pi)
    require(ell >= 1, "ell must be >= 1")
    require(p >= 1, "p must be >= 1")
    anchors, total = _anchors(seq.vertices, ell, p)
    return SimplificationResult(
        sequence=PointSequence(seq.vertices[anchors]), discrete_cost=total ** (1.0 / p)
    )


def _segments(powd: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, m) tables seg_val[a, b] / seg_arg[a, b]: the best anchor cost and
    pool index for the input block a..b (0-based, inclusive), inf / 0 for
    a > b, from the (input position, pool point) p-th-power table `powd`;
    DomainError if a prefix sum of `powd` overflows.

    The tables are filled one block length r at a time.  The row of block
    a..a+r-1 is ``prefix[a + r] - prefix[a]``, so all m - r + 1 rows of
    length r are one contiguous subtraction into a reused (m, m) buffer, and
    their row argmins land on diagonal r - 1.  Each row is the same
    subtraction of the same operands as block start by block start, so its
    values, ties and anchors have the same bits.
    """
    m = len(powd)
    prefix = np.zeros((m + 1, m))
    # a prefix sum may overflow although every table entry fits; the terms
    # are non-negative, so the last prefix row then holds inf
    with np.errstate(over="ignore"):
        np.cumsum(powd, axis=0, out=prefix[1:])
    if math.isinf(prefix[-1].max()):
        raise path_overflow_error(p)
    seg_val = np.full((m, m), np.inf)
    seg_arg = np.zeros((m, m), dtype=int)
    buf = np.empty((m, m))
    rows = np.arange(0, m * m, m)  # flat offset of each buffer row
    for r in range(1, m + 1):
        k = m - r + 1
        args = np.argmin(np.subtract(prefix[r:], prefix[:k], out=buf[:k]), axis=1)
        # entries (a, a + r - 1), a = 0..m-r, of the row-major tables
        diag = slice(r - 1, r - 1 + k * (m + 1), m + 1)
        seg_arg.reshape(-1)[diag] = args
        seg_val.reshape(-1)[diag] = buf.reshape(-1)[rows[:k] + args]
    return seg_val, seg_arg


def _anchors(pool: np.ndarray, ell: int, p: float) -> tuple[list[int], float]:
    """Row indices into `pool`, an (m, d) sequence, of its best simplification
    with at most ell vertices, and that simplification's dtw_p^p cost.  Of
    equal vertices the first is the anchor.  The block costs come from
    `_segments`, which fills its tables one block length at a time."""
    m = len(pool)
    L = min(ell, m)
    seg_val, seg_arg = _segments(pow_dist_matrix(pool, pool, p), p)

    # D[i, j]: cheapest cover of the prefix of length i by j anchored blocks
    D = np.full((m + 1, L + 1), np.inf)
    split = np.zeros((m + 1, L + 1), dtype=int)
    D[1:, 1] = seg_val[0, :]
    for j in range(2, L + 1):
        # cand[a - (j-1), i - j]: last block a..i-1 (0-based) for every i in
        # [j, m] at once; seg_val is inf for a > i-1, so those never win
        cand = D[j - 1 : m, j - 1, None] + seg_val[j - 1 :, j - 1 :]
        a0 = np.argmin(cand, axis=0)
        D[j:, j] = cand[a0, np.arange(m - j + 1)]
        split[j:, j] = j - 1 + a0

    j_star = 1 + int(np.argmin(D[m, 1:]))
    anchors: list[int] = []
    i, j = m, j_star
    while j >= 1:
        a = 0 if j == 1 else split[i, j]
        anchors.append(int(seg_arg[a, i - 1]))
        i, j = a, j - 1
    anchors.reverse()
    return anchors, float(D[m, j_star])
