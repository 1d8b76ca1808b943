"""Minimum-error sequence simplification restricted to input vertices.

The dynamic program below computes, for a sequence pi of complexity m, the
sequence over the vertex set of pi with at most ell vertices that minimizes
dtw_p to pi.  Restricting vertices to the input costs at most a factor 2 in
error against the best unrestricted simplification, so the result is a
2-approximate minimum-error simplification.

The DP assigns to each output vertex a contiguous, non-empty block of input
positions; blocks are disjoint and cover the whole prefix.  Any warping that
matches two output vertices to one input vertex can be rewritten into this
form without increasing cost, so the block model loses nothing.  The DP
walks the input positions once and keeps, per block count and anchor, the
cheapest cover ending in a block at that anchor: O(m^2 * ell) time and
O(m * ell) state besides the m x m distance table.  It adds
every term in path order, as `dtw` does, so the reported cost is the dtw_p
of the emitted sequence to pi, bit for bit.
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
    hence a (2, ell)-simplification; `discrete_cost` is that sequence's
    dtw_p to pi, bit for bit.  Ties go to the fewest vertices.  The blocks
    are fixed from the last one back: of the cheapest covers of the prefix
    left, take those whose last block has the smallest anchor index, and open
    that block at the earliest position among them.  Each block's vertex is
    then its cheapest anchor, exact ties going to the smaller difference of
    column prefix sums over the block (a nan one, of two overflowed sums,
    first), then to the smallest index.
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
    with at most ell vertices, and that simplification's dtw_p^p cost, summed
    in path order.  Of equal vertices the first is the anchor.  DomainError
    if that cost overflows float64."""
    m = len(pool)
    L = min(ell, m)
    powd = pow_dist_matrix(pool, pool, p)

    # E[j, x]: cheapest cover of the positions so far by j + 1 blocks, the
    # last anchored at x.  F[i, j]: cheapest cover of positions 0..i-1 by j
    # blocks (F[0, 0] = 0 opens the first); A[i, j - 1]: the smallest x whose
    # E gave F[i, j]
    E = np.full((L, m), np.inf)
    F = np.full((m + 1, L + 1), np.inf)
    F[0, 0] = 0.0
    A = np.zeros((m + 1, L), dtype=np.intp)
    rows, prev = np.arange(L), F[:, :-1, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            np.minimum(E, prev[i], out=E)  # continue each block, or open one at i
            E += powd[i]
            a = A[i + 1] = E.argmin(axis=1)
            F[i + 1, 1:] = E[rows, a]

        j = int(np.argmin(F[m, 1:]))  # the fewest blocks among the cheapest
        total, costs = float(F[m, j + 1]), F.T.tolist()
        if math.isinf(total):
            raise path_overflow_error(p)
        anchors: list[int] = []
        b = m - 1
        while j >= 0:
            # replay the forward scan for the argmin anchor alone: its block
            # opens where it last opened strictly cheaper than continuing
            e, s, col = math.inf, j, powd[:, A[b + 1, j]].tolist()
            for i in range(j, b + 1):
                if costs[j][i] < e:
                    e, s = costs[j][i], i
                e += col[i]
            # every anchor's path-order sum over block s..b; the minimum is F[b + 1, j + 1]
            v = np.full(m, costs[j][s])
            for i in range(s, b + 1):
                v += powd[i]
            ties = np.flatnonzero(v == v.min())
            # the tied columns' prefix sums break the tie; a difference of
            # overflowed sums reads nan, which argmin takes first
            prefix = np.cumsum(powd[: b + 1, ties], axis=0)
            anchors.append(int(ties[np.argmin(prefix[b] - (prefix[s - 1] if s else 0.0))]))
            b, j = s - 1, j - 1
    anchors.reverse()
    return anchors, total
