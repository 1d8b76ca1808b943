"""Vectorized scoring of many candidate sequences against one dataset.

The candidate-search algorithms all end with an argmin of cost over a large
enumerated candidate set.  This module runs the tiny DTW dynamic program
simultaneously across the whole candidate axis with numpy, chunked to keep
intermediates small.  `score_candidates` agrees with the scalar path up to
float round-off in the final powers; `cost_rows`, which keeps one entry per
input sequence, is bit-identical to it.
"""

from __future__ import annotations

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


def argmin_first(scores: np.ndarray) -> int:
    """Index of the strictly smallest score; ties resolve to the first index."""
    return int(np.argmin(scores))
