"""Vectorized scoring of many candidate sequences against one dataset.

The candidate-search algorithms all end with an argmin of cost over a large
enumerated candidate set.  This module runs the tiny DTW dynamic program
simultaneously across the whole candidate axis with numpy, chunked to keep
intermediates small.  `score_candidates` agrees with the scalar path up to
float round-off in the final powers; `cost_rows`, which keeps one entry per
input sequence, is bit-identical to it.

Most candidate sets are all sequences of length 1..ell over a table of u
points.  Row r of such a sequence's DTW grid depends only on its first r
vertices, so `score_tuples` fills each row once per prefix and extends it to
all u next vertices by broadcasting.  Its per-cell adds and mins and its
final powers are those of `score_candidates`, so its scores are
bit-identical to `score_candidates` on the materialized tuples.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset

# cap on elements of the (K, L, m) distance block per chunk
_BLOCK_ELEMENTS = 4_000_000


def dtw_pow_block(tau: np.ndarray, cands: np.ndarray, p: float) -> np.ndarray:
    """min over warpings of the summed p-th-power distances, per candidate.

    tau: (m, d) vertices; cands: (K, L, d) candidate vertices.  Returns (K,).
    """
    diff = cands[:, :, None, :] - tau[None, None, :, :]
    powd = np.sqrt((diff * diff).sum(axis=-1)) ** p  # (K, L, m)
    K, L, m = powd.shape
    acc = np.empty_like(powd)
    acc[:, 0, 0] = powd[:, 0, 0]
    for k in range(1, m):
        acc[:, 0, k] = acc[:, 0, k - 1] + powd[:, 0, k]
    for j in range(1, L):
        acc[:, j, 0] = acc[:, j - 1, 0] + powd[:, j, 0]
        for k in range(1, m):
            best = np.minimum(acc[:, j - 1, k - 1], acc[:, j - 1, k])
            np.minimum(best, acc[:, j, k - 1], out=best)
            acc[:, j, k] = powd[:, j, k] + best
    return acc[:, -1, -1]


def score_block(T: Dataset, cands: np.ndarray, p: float, q: float) -> np.ndarray:
    """cost_p^q of every candidate in a (K, L, d) block."""
    total = np.zeros(cands.shape[0])
    for tau in T.sequences:
        pow_acc = dtw_pow_block(tau.vertices, cands, p)
        total += (pow_acc ** (1.0 / p)) ** q
    return total


def _chunk(T: Dataset, L: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, L * T.m))


def score_candidates(T: Dataset, cands: np.ndarray, p: float, q: float) -> np.ndarray:
    """Chunked cost_p^q scores for a (K, L, d) candidate array."""
    K, L, _ = cands.shape
    if K == 0:
        return np.empty(0)
    chunk = _chunk(T, L)
    if K <= chunk:
        return score_block(T, cands, p, q)
    parts = [
        score_block(T, cands[s : s + chunk], p, q) for s in range(0, K, chunk)
    ]
    return np.concatenate(parts)


def cost_rows(T: Dataset, cands: np.ndarray, p: float, q: float) -> np.ndarray:
    """(K, n) matrix of dtw_p(c, tau)^q for a (K, L, d) candidate array.

    Every entry equals scalar ``dtw(c, tau, p).distance ** q`` bit for bit:
    the DP does the same per-cell adds and mins, and both powers are taken
    with Python float ``**`` as there, since numpy's array ``**`` rounds
    differently in the last bit for some elements.
    """
    K, L, _ = cands.shape
    out = np.empty((K, T.n))
    inv_p = 1.0 / p
    chunk = _chunk(T, L)
    for s in range(0, K, chunk):
        block = cands[s : s + chunk]
        for j, tau in enumerate(T.sequences):
            pow_acc = dtw_pow_block(tau.vertices, block, p)
            out[s : s + chunk, j] = [(a**inv_p) ** q for a in pow_acc.tolist()]
    return out


def _extend(prev: np.ndarray, D: np.ndarray, full: bool) -> np.ndarray:
    """(m, P*u) DP rows of the u one-vertex extensions of each of P prefixes,
    prefix-major, from their (m, P) rows and the (m, u) table of |v - tau[k]|^p;
    unless `full`, only the (1, P*u) end cells, kept in one rolling column."""
    m, P = prev.shape
    new = np.empty((m if full else 1, P, D.shape[1]))
    cur = new[0]
    np.add(prev[0][:, None], D[0], out=cur)
    for k in range(1, m):
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
    entry i scores ``points[np.unravel_index(i, (u,) * L)]``.  Bit-identical
    to `score_candidates` on the materialized tuples.  Chunked over leading
    prefixes so that no block of DP rows exceeds `_BLOCK_ELEMENTS`.
    """
    u = len(points)
    totals = [np.zeros(u**L) for L in range(1, ell + 1)]

    def walk(rows: np.ndarray, D: np.ndarray, L: int, start: int) -> None:
        # fold the end cells of length-L prefixes start.., then extend them
        end = rows[-1] ** (1.0 / p)
        end **= q
        totals[L - 1][start : start + len(end)] += end
        if L < ell:
            full = L + 1 < ell
            step = max(1, _BLOCK_ELEMENTS // (u * (len(D) if full else 1)))
            for s in range(0, rows.shape[1], step):
                walk(_extend(rows[:, s : s + step], D, full), D, L + 1, (start + s) * u)

    # longer tuples extend by the whole table, so only ell = 1 splits it
    lead = max(1, u if ell > 1 else _BLOCK_ELEMENTS // (T.m * points.shape[1]))
    for lo in range(0, u, lead):
        for tau in T.sequences:
            # (m, u) table of |point - tau[k]|^p, computed as in `dtw_pow_block`
            diff = points[None, lo : lo + lead, :] - tau.vertices[:, None, :]
            D = np.sqrt((diff * diff).sum(axis=-1)) ** p
            walk(np.cumsum(D, axis=0), D, 1, lo)
    return totals


def argmin_first(scores: np.ndarray) -> int:
    """Index of the strictly smallest score; ties resolve to the first index."""
    return int(np.argmin(scores))


def argmin_fold(groups, best=(math.inf, None)):
    """Fold (scores, pick) groups, in order, into `best` = (cost, winner): a
    score strictly below the cost so far wins, the first index of a group
    first; the winner is pick(i) of the winning index."""
    best_cost, winner = best
    for scores, pick in groups:
        i = argmin_first(scores)
        if scores[i] < best_cost:
            best_cost, winner = float(scores[i]), pick(i)
    return best_cost, winner


def tuple_groups(T: Dataset, points: np.ndarray, ell: int, p: float, q: float):
    """`score_tuples` as `argmin_fold` groups; pick(i) is tuple i's (L, d) vertices."""
    shape: tuple[int, ...] = ()
    for scores in score_tuples(T, points, ell, p, q):
        shape += (len(points),)
        yield scores, lambda i, shape=shape: points[list(np.unravel_index(i, shape))]
