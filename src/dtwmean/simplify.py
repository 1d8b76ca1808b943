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

from dataclasses import dataclass

import numpy as np

from .core import PointSequence, as_sequence, pow_dist_matrix
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


def _anchors(pool: np.ndarray, ell: int, p: float) -> tuple[list[int], float]:
    """Row indices into `pool`, an (m, d) sequence, of its best simplification
    with at most ell vertices, and that simplification's dtw_p^p cost.  Of
    equal vertices the first is the anchor."""
    m = len(pool)
    L = min(ell, m)

    powd = pow_dist_matrix(pool, pool, p)  # (input position, pool point)
    prefix = np.vstack([np.zeros(m), np.cumsum(powd, axis=0)])  # (m+1, m)

    # seg_val[a, b] / seg_arg[a, b]: best anchor cost and pool index for the
    # input block a..b (0-based, inclusive)
    seg_val = np.full((m, m), np.inf)
    seg_arg = np.zeros((m, m), dtype=int)
    for a in range(m):
        sums = prefix[a + 1 :] - prefix[a]  # rows b = a..m-1
        args = np.argmin(sums, axis=1)
        seg_arg[a, a:] = args
        seg_val[a, a:] = sums[np.arange(m - a), args]

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
