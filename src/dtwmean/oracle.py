"""Desk-scale exact oracles for restricted means and clusterings.

For p = q the mean cost under a fixed tuple of warpings separates over
sections, so exhausting all warping tuples and placing each vertex at its
section's closed-form minimizer yields the true continuous optimum:

* mode ``euclidean-2-2`` (p = q = 2): section minimizer is the centroid;
* mode ``line-1-1``      (p = q = 1, d = 1): section minimizer is the median
  (lower median on ties).

Mode ``discrete`` instead exhausts all sequences over the vertex pool and
scores the true cost_p^q, which is exact among vertex-restricted means for
any p, q.  Everything is guarded to stay desk-scale; these oracles exist to
verify the approximation algorithms, not to be fast.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    PointSequence,
    Warping,
    _fold_rows,
    _pow_ends,
    _q_powers,
    enumerate_warpings,
    optimal_sections,
    q_overflow_error,
    warping_count,
)
from .errors import CapacityError, DomainError, require
from .meanapprox import _cheapest_tuple

MODES = ("euclidean-2-2", "line-1-1", "discrete")

#: Cap on warping tuples (continuous modes) and candidates (discrete mode).
TUPLE_GUARD = 1_000_000

CLUSTER_MAX_N = 8
CLUSTER_MAX_K = 3


@dataclass
class OracleResult:
    mean: PointSequence
    cost: float
    warping_tuple: list[Warping]
    mode: str


def _resolve_mode(T: Dataset, mode: str, p, q) -> tuple[float, float]:
    require(mode in MODES, f"unknown oracle mode {mode!r}")
    if mode == "euclidean-2-2":
        require(p in (None, 2) and q in (None, 2), "mode euclidean-2-2 fixes p = q = 2")
        return 2.0, 2.0
    if mode == "line-1-1":
        require(p in (None, 1) and q in (None, 1), "mode line-1-1 fixes p = q = 1")
        require(T.dimension == 1, "mode line-1-1 needs one-dimensional data")
        return 1.0, 1.0
    require(p is not None and q is not None, "mode discrete needs explicit p and q")
    require(p >= 1 and q >= 1, "p and q must be >= 1")
    return float(p), float(q)


def _finite(cost: float) -> float:
    if not math.isfinite(cost):
        raise DomainError("the oracle's cost overflows float64; rescale the coordinates")
    return cost


def _median_cost(values: list[float]) -> tuple[float, float]:
    s = sorted(values)
    med = s[(len(s) - 1) // 2]  # lower median
    return med, _finite(float(sum(abs(v - med) for v in s)))


def _mean_cost(values: list[np.ndarray]) -> tuple[np.ndarray, float]:
    arr = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        center = arr.mean(axis=0)
        diff = arr - center
        return center, _finite(float((diff * diff).sum()))


def _groups_for_warping(pairs, ell: int, tau: PointSequence, as_scalar: bool):
    groups: list[list] = [[] for _ in range(ell)]
    for j, k in pairs:
        v = tau.vertices[k - 1]
        groups[j - 1].append(float(v[0]) if as_scalar else v)
    return groups


def _exact_mean_continuous(T: Dataset, ell: int, mode: str) -> OracleResult:
    scalar = mode == "line-1-1"
    section_min = _median_cost if scalar else _mean_cost
    n = T.n
    lengths = [tau.complexity for tau in T.sequences]

    best_cost = math.inf
    best_vertices: list | None = None
    best_tuple: list[Warping] | None = None

    # every mean length is checked against the guards before any is searched;
    # each length warps n * ellp pairs or more, even when every m is 1
    for ellp in range(1, ell + 1):
        tuples = 1
        for mi in lengths:
            tuples *= warping_count(ellp, mi)
            if tuples > TUPLE_GUARD:
                raise CapacityError(
                    f"{tuples}+ warping tuples at mean length {ellp} exceed "
                    f"the guard of {TUPLE_GUARD}"
                )
        if n * ellp * (ellp + 1) // 2 > TUPLE_GUARD:
            raise CapacityError(f"mean lengths up to {ellp} warp over {TUPLE_GUARD} pairs")

    for ellp in range(1, ell + 1):
        per_seq = []
        for tau in T.sequences:
            per_seq.append(
                [
                    (w, _groups_for_warping(w.pairs, ellp, tau, scalar))
                    for w in enumerate_warpings(ellp, tau.complexity)
                ]
            )
        # cheapest completion of a single sequence, for branch pruning
        tail_min = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            own = min(
                sum(section_min(g)[1] for g in groups) for _, groups in per_seq[i]
            )
            tail_min[i] = tail_min[i + 1] + own

        sections: list[list] = [[] for _ in range(ellp)]
        chosen: list[Warping] = []

        def recurse(i: int) -> None:
            nonlocal best_cost, best_vertices, best_tuple
            partial = sum(section_min(g)[1] for g in sections if g)
            if partial + tail_min[i] >= best_cost:
                return
            if i == n:
                mins = [section_min(g) for g in sections]
                total = sum(c for _, c in mins)
                if total < best_cost:
                    best_cost = total
                    best_vertices = [v for v, _ in mins]
                    best_tuple = list(chosen)
                return
            for w, groups in per_seq[i]:
                for j in range(ellp):
                    sections[j].extend(groups[j])
                chosen.append(w)
                recurse(i + 1)
                chosen.pop()
                for j in range(ellp):
                    del sections[j][len(sections[j]) - len(groups[j]) :]

        recurse(0)

    _finite(best_cost)  # no warping tuple wins only if every total overflows
    return OracleResult(
        mean=PointSequence(np.array(best_vertices).reshape(len(best_vertices), -1)),
        cost=float(best_cost),
        warping_tuple=best_tuple,
        mode=mode,
    )


def _exact_mean_discrete(T: Dataset, ell: int, p: float, q: float) -> OracleResult:
    res = _cheapest_tuple(T, T.vertex_pool(), ell, p, q, TUPLE_GUARD)
    _, warpings = optimal_sections(res.sequence, T, p)
    return OracleResult(res.sequence, res.cost, warpings, mode="discrete")


def exact_mean(
    T: Dataset, ell: int, mode: str, p: float | None = None, q: float | None = None
) -> OracleResult:
    """Exact restricted mean by exhaustive search; see the module docstring."""
    require(ell >= 1, "ell must be >= 1")
    p_eff, q_eff = _resolve_mode(T, mode, p, q)
    if mode == "discrete":
        return _exact_mean_discrete(T, ell, p_eff, q_eff)
    return _exact_mean_continuous(T, ell, mode)


def _partitions_up_to_k(n: int, k: int):
    """Set partitions of range(n) into at most k tuple blocks, canonical order."""

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def exact_clustering(
    T: Dataset,
    k: int,
    ell: int,
    mode: str,
    p: float | None = None,
    q: float | None = None,
) -> tuple[list[PointSequence], float]:
    """Optimal center set of size <= k by exhausting all dataset partitions.

    Each block's exact center is found once.  A partition's total adds its
    terms in sequence order (`core._fold_rows`), so the cost is `clustering_cost`
    of the centers bit for bit; DomainError if every total overflows.
    """
    require(k >= 1, "k must be >= 1")
    if T.n > CLUSTER_MAX_N or k > CLUSTER_MAX_K:
        raise CapacityError(
            f"exact clustering is guarded to n <= {CLUSTER_MAX_N}, k <= {CLUSTER_MAX_K}"
        )
    p_eff, q_eff = _resolve_mode(T, mode, p, q)

    @functools.cache  # a block -> its exact center and that center's row of dtw_p(c, tau)^q
    def center_of(block: tuple[int, ...]) -> tuple[PointSequence, np.ndarray]:
        c = exact_mean(Dataset([T.sequences[i] for i in block]), ell, mode, p, q).mean
        return c, np.array(_q_powers(_pow_ends([c], T.sequences, p_eff)[0], p_eff, q_eff))

    parts = [[center_of(b) for b in blocks] for blocks in _partitions_up_to_k(T.n, k)]
    totals = _fold_rows(np.array([np.min([row for _, row in part], axis=0) for part in parts]))
    i = int(np.argmin(totals))  # the first cheapest partition; an inf total never wins
    if math.isinf(totals[i]):
        raise q_overflow_error(q_eff)
    return [c for c, _ in parts[i]], float(totals[i])
