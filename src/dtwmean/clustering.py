"""(k, ell, p, q)-clustering via candidate generation plus recursive search.

Two candidate generators are available, chosen by `k_clustering`'s
`generator` argument.  `cand1` samples pool vertices and enumerates all
short sequences over the sample; with the stated probability it contains
a (2^p + eps)-approximate restricted p-mean of every sufficiently large
subset of the input.  `cand2` samples whole input sequences and simplifies
them, giving an O((m * ell)^(1/p))-approximate median candidate for every
such subset.

`k_clustering` plugs a generator into a branch-and-prune driver: at each node
it either commits one generated candidate as the next center, or discards the
points best served by the current centers and recurses on the rest, so some
root-to-leaf path isolates each optimal cluster well enough for the
generator's per-subset guarantee to apply.

Both generators only ever emit sequences of input vertices, so the search
runs on a point table: the dataset's vertex pool (`Dataset.point_table`)
with every input sequence held as an array of pool ids.  A candidate is a
tuple of pool ids; its row of dtw_p(c, tau)^q over the dataset is scored
once, batched by length through `_batch.cost_rows`, and looked up by the
tuple after that.  Nodes one center short of k take all of their children
in one vectorized step.  Only the returned centers are built as
`PointSequence`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._batch import cost_rows
from .core import (
    Dataset,
    PointSequence,
    _distances,
    _fold,
    _pow_ends,
    dedup_rows,
)
from .errors import CapacityError, DomainError, require
from .meanapprox import CANDIDATE_GUARD, guard_draws, guard_tuples
from .simplify import _anchors

NODE_GUARD = 1_000_000


@dataclass(frozen=True)
class ClusteringParams:
    """Parameters of one clustering run; beta must exceed 2k."""

    k: int
    beta: float
    delta: float
    p: float = 1.0
    q: float = 1.0
    ell: int = 2
    eps: float = 1.0  # consumed by the cand1 generator only

    def __post_init__(self) -> None:
        require(self.k >= 1, "k must be >= 1")
        require(self.beta > 2 * self.k, "beta must exceed 2k")
        require(0 < self.delta < 1, "delta must lie in (0, 1)")
        require(self.p >= 1 and self.q >= 1, "p and q must be >= 1")
        require(self.ell >= 1, "ell must be >= 1")
        require(self.eps > 0, "eps must be positive")


@dataclass
class CenterSet:
    """Centers and cost of a clustering; `nodes` and `rows_scored` count the
    search nodes visited and the distinct candidate rows scored."""

    centers: list[PointSequence]
    cost: float
    nodes: int = 0
    rows_scored: int = 0


def clustering_cost(T: Dataset, centers, p: float, q: float) -> float:
    """Sum over the dataset of the q-th power of the distance to the nearest center."""
    cs = [c if isinstance(c, PointSequence) else PointSequence(c) for c in centers]
    require(len(cs) >= 1, "need at least one center")
    rows = [_distances(ends, p) for ends in _pow_ends(cs, T.sequences, p)]
    return _fold(map(min, zip(*rows)), q)


def cand1_sample_size(
    beta: float, delta: float, eps: float, p: float, m: int, ell: int
) -> int:
    try:
        return math.ceil((2.0**p / eps + 1.0) * beta * m * math.log(ell / delta))
    except OverflowError:
        raise DomainError(f"the cand1 sample size overflows a float at p = {p}") from None


def cand2_sample_size(beta: float, delta: float) -> int:
    return math.ceil(2.0 * beta * math.log2(2.0 / delta))


def _cand1(
    pool_ids: np.ndarray, m: int, beta: float, delta: float, eps: float, p: float,
    ell: int, rng,
) -> list[tuple[int, ...]]:
    """All tuples of length 1..ell over a sample of `pool_ids`, as pool-id tuples.

    `pool_ids` is the vertex pool of the sequences in play (distinct ids in
    first-occurrence order) and `m` their largest complexity.  The tuples come
    by length, then lexicographic in sample order.
    """
    size = guard_draws(cand1_sample_size(beta, delta, eps, p, m, ell))
    draws = rng.integers(0, len(pool_ids), size=size)
    sample = list(dict.fromkeys(pool_ids[draws].tolist()))
    guard_tuples(len(sample), ell, CANDIDATE_GUARD)
    return [c for L in range(1, ell + 1) for c in product(sample, repeat=L)]


def _cand2(
    active: tuple[int, ...], simplified, beta: float, delta: float, rng
) -> dict[tuple[int, ...], int]:
    """Distinct simplifications of sampled `active` sequences, in draw order.

    Maps each simplification's pool-id tuple to the first sequence drawn
    that yields it; `simplified(i)` gives the tuple of sequence i.
    """
    draws = rng.integers(0, len(active), size=guard_draws(cand2_sample_size(beta, delta)))
    out: dict[tuple[int, ...], int] = {}
    for i in draws.tolist():
        out.setdefault(simplified(active[i]), active[i])
    return out


class _PointTable:
    """A dataset's vertex pool with every sequence held as pool ids."""

    def __init__(self, T: Dataset, p: float, ell: int) -> None:
        self.T, self.p, self.ell = T, p, ell
        self.points, self.seq_ids = T.point_table()
        self._simplified: dict[int, tuple[int, ...]] = {}

    def simplified(self, i: int) -> tuple[int, ...]:
        """Pool ids of sequence i's simplification, computed once per sequence."""
        if i not in self._simplified:
            anchors, _ = _anchors(self.T.sequences[i].vertices, self.ell, self.p)
            self._simplified[i] = tuple(self.seq_ids[i][anchors].tolist())
        return self._simplified[i]

    def sequence(self, ids: tuple[int, ...], src: tuple[int, ...]) -> PointSequence:
        """The sequence of pool points `ids`, each vertex copied from its first
        occurrence in the sequences `src` (which fixes the sign of a zero)."""
        rows = []
        for v in ids:
            i = next(i for i in src if v in self.seq_ids[i])
            rows.append(self.T.sequences[i].vertices[int(np.argmax(self.seq_ids[i] == v))])
        return PointSequence(rows)


def k_clustering(
    T: Dataset, params: ClusteringParams, generator: str = "cand1", seed: int = 0
) -> CenterSet:
    """Best center set found by the recursive branch-and-prune search.

    At every node with fewer than k centers the search branches on each
    generated candidate as the next center, and additionally (once at least
    one center exists) on discarding the ceil(|active| * (1 - 2k/beta))
    active points closest to the current centers.  Costs are always accounted
    over the full dataset; the returned cost is the minimum over all complete
    center sets explored.

    The search runs on the dataset's point table: a node's vertex pool is the
    first-occurrence union of its active sequences' pool ids, and every
    candidate is a tuple of pool ids.  A candidate's row of dtw_p(c, tau)^q
    over the dataset is scored once, batched by length through
    `_batch.cost_rows`, and looked up by its id tuple after that.  A node
    with k - 1 centers takes all of its children (the leaves) in one step,
    min(dmin, row) summed per candidate, and keeps the first cheapest; each
    leaf still counts as one node against `NODE_GUARD`.  Centers become
    sequences only in the returned `CenterSet`, whose `nodes` and
    `rows_scored` count the search nodes and the distinct candidate rows
    scored.
    """
    require(generator in ("cand1", "cand2"), f"unknown generator {generator!r}")
    k, beta, p, q, ell = params.k, params.beta, params.p, params.q, params.ell
    rng = np.random.default_rng(seed)
    delta_node = params.delta / (k + 1)
    table = _PointTable(T, p, ell)
    seq_ids = table.seq_ids

    row_at: dict[tuple[int, ...], int] = {}  # candidate -> its row in `rows`
    rows = np.empty((0, T.n))

    def rows_of(cands: list[tuple[int, ...]]) -> np.ndarray:
        nonlocal rows
        new = [c for c in cands if c not in row_at]
        need = len(row_at) + len(new)
        if need > len(rows):
            rows = np.concatenate([rows, np.empty((need, T.n))])
        for L in sorted({len(c) for c in new}):
            group = [c for c in new if len(c) == L]
            start = len(row_at)
            rows[start : start + len(group)] = cost_rows(
                T, table.points[np.array(group)], p, q
            )
            row_at.update((c, start + j) for j, c in enumerate(group))
        return rows[[row_at[c] for c in cands]]

    pools: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    def generate(active: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list]:
        """Candidates at a node, and per candidate the sequences its vertices
        are copied from when it becomes a returned center."""
        if generator == "cand2":
            found = _cand2(active, table.simplified, beta, delta_node, rng)
            return list(found), [(i,) for i in found.values()]
        if active not in pools:
            ids = np.concatenate([seq_ids[i] for i in active])
            pools[active] = (dedup_rows(ids), max(len(seq_ids[i]) for i in active))
        pool_ids, m = pools[active]
        cands = _cand1(pool_ids, m, beta, delta_node, params.eps, p, ell, rng)
        return cands, [active] * len(cands)

    best_cost = math.inf
    best_centers: list | None = None
    nodes = 0

    def count_nodes(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > NODE_GUARD:
            raise CapacityError(f"search exceeded {NODE_GUARD} nodes")

    def record(centers: list, total: float) -> None:
        nonlocal best_cost, best_centers
        if total < best_cost:
            best_cost = total
            best_centers = list(centers)

    def recurse(centers: list, dmin: np.ndarray | None, active: tuple[int, ...]) -> None:
        count_nodes(1)
        if len(centers) == k or not active:
            if dmin is not None:
                record(centers, float(dmin.sum()))
            return
        cands, srcs = generate(active)
        R = rows_of(cands)
        if len(centers) == k - 1:
            count_nodes(len(cands))
            totals = (R if dmin is None else np.minimum(dmin, R)).sum(axis=1)
            i = int(np.argmin(totals))
            record(centers + [(cands[i], srcs[i])], float(totals[i]))
        else:
            for c, src, row in zip(cands, srcs, R):
                centers.append((c, src))
                recurse(centers, row if dmin is None else np.minimum(dmin, row), active)
                centers.pop()
        if centers:
            n_rm = math.ceil(len(active) * (1.0 - 2.0 * k / beta))
            act = np.array(active)
            keep = act[np.argsort(dmin[act], kind="stable")[n_rm:]]
            recurse(centers, dmin, tuple(np.sort(keep).tolist()))

    recurse([], None, tuple(range(T.n)))
    assert best_centers is not None
    return CenterSet(
        centers=[table.sequence(c, src) for c, src in best_centers],
        cost=best_cost,
        nodes=nodes,
        rows_scored=len(row_at),
    )
