"""Vectorized scoring of many candidate sequences against one dataset.

The candidate-search algorithms all end with an argmin of cost over a large
candidate set.  This module runs the tiny DTW dynamic program across the
whole candidate axis with numpy, through one recurrence, `_extend`, over
tables from `core.pow_dist_matrix`, chunked to keep intermediates small.
Every DP end cell equals scalar `dtw`'s p-th-power distance bit for bit.
There are two entry points:

* `score_candidates` scores a listed (K, L, d) candidate array and keeps
  one entry per input sequence, its powers taken with Python float ``**``
  as scalar `dtw` takes them, so each entry is bit-identical to
  ``dtw(c, tau, p).distance ** q``;
* `score_tuples` scores every sequence of length 1..ell over a table of u
  points.  Row r of such a sequence's DTW grid depends only on its first r
  vertices, so it fills each row once per prefix and extends it to all u
  next vertices by broadcasting.  Once a level's rows are extended, it takes
  their end cells' powers in place with numpy, skipping powers of exactly 1,
  and adds them up in sequence order (numpy's array ``**`` rounds
  differently from Python's in the last bit for some elements).

Both raise DomainError, without a numpy warning, when a q-th power
overflows float64 (`score_tuples` also when a sum does), and, with one
message, when a DP path sum of p-th powers overflows although every table
entry fits.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset, _q_powers, path_overflow_error, pow_dist_matrix, q_overflow_error

# cap on elements of one chunk's distance tables and DP rows
_BLOCK_ELEMENTS = 4_000_000


def score_candidates(T: Dataset, cands: np.ndarray, p: float, q: float) -> np.ndarray:
    """(K, n) matrix of dtw_p(c, tau)^q for a (K, L, d) candidate array,
    each entry equal to scalar ``dtw(c, tau, p).distance ** q`` bit for bit."""
    K, L, d = cands.shape
    out = np.empty((K, T.n))
    step = max(1, _BLOCK_ELEMENTS // (L * T.m * d))
    # a path sum may overflow although every table entry fits
    with np.errstate(over="ignore"):
        for s in range(0, K, step):
            flat = cands[s : s + step].reshape(-1, d)
            for j, tau in enumerate(T.sequences):
                # D[k, c, i] = |cands[s + c, i] - tau[k]|^p
                D = pow_dist_matrix(tau.vertices, flat, p).reshape(len(tau), -1, L)
                rows = np.cumsum(D[:, :, 0], axis=0)
                for i in range(1, L):
                    rows = _extend(rows, D[:, :, i, None], i + 1 < L)
                out[s : s + step, j] = rows[-1]
    if math.isinf(out.max(initial=0.0)):
        raise path_overflow_error(p)
    for j in range(T.n):
        out[:, j] = _q_powers(out[:, j], p, q)
    return out


def _extend(prev: np.ndarray, D: np.ndarray, full: bool) -> np.ndarray:
    """(m, P*w) DP rows of one-vertex extensions of P prefixes, prefix-major,
    from their (m, P) rows and the next vertices' |v - tau[k]|^p table D:
    (m, 1, u) extends every prefix by all u points (w = u), (m, P, 1) each
    prefix by its own vertex (w = 1).  Unless `full`, only the (1, P*w) end
    cells, kept in one rolling column.  Row 1 takes min(prev[0], prev[1])
    alone: cell (0, new) is prev[0] plus a non-negative distance, never below
    prev[0] after rounding, so unless `full` it is computed only for m = 1."""
    m, P = prev.shape
    new = np.empty((m if full else 1, P, D.shape[2]))
    if full or m == 1:
        np.add(prev[0][:, None], D[0], out=new[0])
    if m > 1:
        cur = new[1] if full else new[0]
        np.add(np.minimum(prev[0], prev[1])[:, None], D[1], out=cur)
    for k in range(2, m):
        nxt = new[k] if full else cur
        np.minimum(np.minimum(prev[k - 1], prev[k])[:, None], cur, out=nxt)
        nxt += D[k]
        cur = nxt
    return new.reshape(len(new), -1)


def score_tuples(
    T: Dataset, points: np.ndarray, ell: int, p: float, q: float
) -> list[np.ndarray]:
    """cost_p^q of every sequence of length 1..ell over a (u, d) point table.

    Returns one (u^L,) array per L = 1..ell, in lexicographic index order:
    entry i scores ``points[np.unravel_index(i, (u,) * L)]``, the sum over
    the sequences, in order, of numpy powers of its DP end cells.  Chunked
    over leading prefixes so that no block of DP rows exceeds `_BLOCK_ELEMENTS`.
    """
    u = len(points)
    totals = [np.zeros(u**L) for L in range(1, ell + 1)]

    def walk(rows: np.ndarray, D: np.ndarray, L: int, start: int) -> None:
        # extend the length-L prefixes start.., then fold their end cells in
        # place: `rows` is this walk's own array and is no longer read
        if math.isinf(rows[-1].max()):
            raise path_overflow_error(p)
        if L < ell:
            full = L + 1 < ell
            step = max(1, _BLOCK_ELEMENTS // (u * (len(D) if full else 1)))
            for s in range(0, rows.shape[1], step):
                walk(_extend(rows[:, s : s + step], D, full), D, L + 1, (start + s) * u)
        end = rows[-1]
        if p != 1:  # numpy's x ** 1.0 is x
            end **= 1.0 / p
        if q != 1:
            end **= q
        totals[L - 1][start : start + len(end)] += end

    # longer tuples extend by the whole table, so only ell = 1 splits it
    lead = max(1, u if ell > 1 else _BLOCK_ELEMENTS // (T.m * points.shape[1]))
    try:
        with np.errstate(over="ignore"):
            for lo in range(0, u, lead):
                for tau in T.sequences:
                    D = pow_dist_matrix(tau.vertices, points[lo : lo + lead], p)
                    walk(np.cumsum(D, axis=0), D[:, None, :], 1, lo)
    finally:
        walk = None  # no cycle through the recursion, so `totals` goes at once
    # the terms are non-negative, so any inf term leaves an inf total
    for total in totals:
        if math.isinf(total.max(initial=0.0)):
            raise q_overflow_error(q)
    return totals


def argmin_tuples(T: Dataset, points: np.ndarray, ell: int, p: float, q: float,
                  best=(math.inf, None)):
    """Fold `score_tuples`' levels, in order, into `best` = (cost, winner): a
    score strictly below the cost so far wins, the first tuple of a level
    first; the winner is the winning tuple's (L, d) vertices."""
    (best_cost, winner), u = best, len(points)
    for L, scores in enumerate(score_tuples(T, points, ell, p, q), 1):
        i = int(np.argmin(scores))
        if scores[i] < best_cost:
            best_cost, winner = float(scores[i]), points[list(np.unravel_index(i, (u,) * L))]
    return best_cost, winner
