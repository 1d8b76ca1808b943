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
tuple of pool ids whose row of dtw_p(c, tau)^q over the dataset is scored
once through `_batch.score_candidates`.  Both generators draw through
`_cand1`.  The search is walked a chunk of nodes at a time, the nodes one
center short of k in chunks of many: one `rng.integers` call draws a chunk,
and its guards, node counts and best leaf come from array sums, so that no
per-node Python touches a cand1 sample or candidate.  Only the centers
returned become `PointSequence`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import score_candidates
from .core import (
    Dataset,
    PointSequence,
    _distances,
    _fold,
    _fold_rows,
    _pow_ends,
    dedup_rows,
    q_overflow_error,
    seeded_rng,
)
from .errors import CapacityError, DomainError, require
from .meanapprox import CANDIDATE_GUARD, guard_draws, guard_tuples, tuple_count
from .simplify import _anchors

NODE_GUARD = 1_000_000

#: bounds a last-level chunk: its draws, first-draw table and fold (one node may exceed it alone);
#: the largest budget swept whose cluster-planted tracemalloc peak is within 0.5 MB of 12288's
_FOLD_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ClusteringParams:
    """Parameters of one clustering run; beta must exceed 2k."""

    k: int
    beta: float
    delta: float
    p: float = 1.0
    q: float = 1.0
    ell: int = 2
    eps: float = 1.0  # sizes cand1's sample; cand2 ignores it, and the CLI refuses it there

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
        at = f"beta = {beta}, eps = {eps}, m = {m}, p = {p}"
        raise DomainError(f"the cand1 sample size overflows a float at {at}") from None


def cand2_sample_size(beta: float, delta: float) -> int:
    return math.ceil(2.0 * beta * math.log2(2.0 / delta))


def _cand1(nodes: list[tuple[np.ndarray, int]], rng) -> np.ndarray:
    """Each node's distinct draws in first-draw order, one row per node padded
    with -1.  A node `(ids, size)` draws `size` times from `ids`; both
    generators draw through here: cand1 from the pool ids of the sequences in
    play (distinct, in first-occurrence order), whose tuples of length 1..ell,
    by length, then lexicographic, are its candidates, and cand2 from the
    sequence ids in play, whose simplifications are.  The one `rng.integers`
    call draws what a call per node would."""
    ids, sizes = zip(*nodes)
    lens = np.fromiter(map(len, ids), np.intp, len(ids))
    w, at = lens.max(), rng.integers(0, np.repeat(lens, sizes))
    at += np.repeat(np.arange(0, len(nodes) * w, w), sizes)  # at[d]: the cell draw d hits
    # first[j * w + i]: the first draw of node j's position i, or len(at) if none
    first = np.full(len(nodes) * w, len(at))
    np.minimum.at(first, at, np.arange(len(at)))
    node, i = np.divmod(at[np.sort(first[first < len(at)])], w)  # first draws, in draw order
    rank = np.arange(len(node)) - node.searchsorted(node)
    out = np.full((len(nodes), rank.max() + 1), -1)
    out[node, rank] = np.concatenate(ids)[(np.cumsum(lens) - lens)[node] + i]
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
    center sets explored, the first found in depth-first order on ties.  Each
    total adds its terms in sequence order (`core._fold_rows`), so the cost is
    `clustering_cost` of the returned centers bit for bit.

    Below a node with k - 2 centers (the root if k = 1), each child and its
    discard descendants form a chain that keeps the child's dmin, so all
    chains' active sets come up front, one stable argsort per depth, each
    mapped once to its pool.  The chains are walked depth first a chunk at a
    time, drawn by one `_cand1` call: up to the next node that draws and, at
    the last level (k - 1 centers), on while the chunk's draws, first-draw
    table and fold fit `_FOLD_ELEMENTS`.  A chunk's node counts (one per node,
    one more per last-level candidate), guards and best leaf (the first
    cheapest in walk order) come from array sums and argmins, and the nodes
    walked before one that raises are folded first, so an overflow
    `DomainError` precedes any later node's error.  A node above the last
    level scores its candidates and recurses.  If every leaf's total
    overflows, the search raises as `clustering_cost` does.  `nodes` and
    `rows_scored` count the search nodes and the distinct rows scored.
    """
    require(generator in ("cand1", "cand2"), f"unknown generator {generator!r}")
    k, beta, p, q, ell, eps = params.k, params.beta, params.p, params.q, params.ell, params.eps
    rng = seeded_rng(seed)
    delta_node = params.delta / (k + 1)
    table = _PointTable(T, p, ell)
    seq_ids, P, n = table.seq_ids, len(table.points), T.n

    keys, rows = [], np.empty((n, 0))  # column r of `rows` scores candidate keys[r]
    # cand1: length -> sorted codes and their rows, topped by a sentinel code,
    # a tuple's code being its prefix's row * P + its last id; cand2: tuple -> row
    index, top = {}, (np.array([np.iinfo(np.intp).max]), np.array([-1]))

    def resolve_tuples(ids: np.ndarray, jobs: list) -> np.ndarray:
        # one row of sample ids per node, padded with -1 to one width u: entry
        # e of a node's length-L row has prefix e // u and last id e % u, so
        # without the padded entries its tuples come by length, then lexicographic
        u = ids.shape[1]
        ok, prev, parts = np.ones((len(ids), 1), bool), np.zeros((len(ids), 1), np.intp), []
        for L in range(1, ell + 1):
            ok = (ok[:, :, None] & (ids >= 0)[:, None, :]).reshape(len(ids), -1)
            codes = (prev[:, :, None] * P + ids[:, None, :]).reshape(len(ids), -1)[ok]
            ks, rs = index.get(L, top)
            pos = ks.searchsorted(codes)
            miss = np.flatnonzero(ks[pos] != codes)
            if len(miss):
                miss = np.sort(miss[np.unique(codes[miss], return_index=True)[1]])
                node, e = np.divmod(np.flatnonzero(ok)[miss], ok.shape[1])
                got = np.arange(len(keys), len(keys) + len(miss))
                keys.extend([(keys[r] if L > 1 else ()) + (v,) for r, v in
                             zip(prev[node, e // u].tolist(), ids[node, e % u].tolist())])
                jobs += [(j, L, got[node == j]) for j in dict.fromkeys(node.tolist())]
                ks, rs = np.concatenate([ks, codes[miss]]), np.concatenate([rs, got])
                ks, rs = index[L] = ks[order := ks.argsort(kind="stable")], rs[order]
                pos = ks.searchsorted(codes)
            prev = np.zeros(ok.shape, np.intp)
            prev[ok] = rs[pos]
            parts.append((prev, ok))
        return np.concatenate([r for r, _ in parts], 1)[np.concatenate([o for _, o in parts], 1)]

    def resolve_found(founds: list[dict], jobs: list) -> np.ndarray:
        for j, found in enumerate(founds):
            new = [c for c in found if c not in index]
            for L in sorted({len(c) for c in new}):
                group = [c for c in new if len(c) == L]
                index.update(zip(group, range(len(keys), len(keys) + len(group))))
                jobs.append((j, L, [index[c] for c in group]))
                keys.extend(group)
        return np.array([index[c] for found in founds for c in found], dtype=np.intp)

    def resolve(draws) -> np.ndarray:
        """Rows of consecutive nodes' candidates (cand1: their `_cand1` rows;
        cand2: their simplifications' dicts); new ones scored node by node."""
        nonlocal rows
        jobs: list = []
        rid = (resolve_tuples if generator == "cand1" else resolve_found)(draws, jobs)
        if len(keys) > rows.shape[1]:
            rows = np.concatenate([rows, np.empty((n, len(keys) - rows.shape[1]))], 1)
        for _, _, got in sorted(jobs, key=lambda job: job[:2]):
            cands = table.points[np.array([keys[r] for r in got])]
            rows[:, got] = score_candidates(T, cands, p, q).T
        return rid

    pool_of: dict[tuple[int, ...], int] = {}  # active set -> its index in `pools`
    # per pool: (ids to draw from, draws or the error drawing raises) and a row
    # of `stats` (its id count, a node's draws plus fold, most candidates x
    # sequences, capped, and whether drawing raises); pool 0 has no ids
    pools, stats = [(np.empty(0, np.intp), 0)], np.zeros((64, 3), np.int64)

    def pool(a: tuple[int, ...]) -> int:
        nonlocal stats
        if a not in pool_of:
            cand1 = generator == "cand1"
            ids = dedup_rows(np.concatenate([seq_ids[v] for v in a])) if cand1 else np.array(a)
            m = max(len(seq_ids[v]) for v in a) if cand1 else 0  # largest complexity
            try:
                size = guard_draws(cand1_sample_size(beta, delta_node, eps, p, m, ell)
                                   if m else cand2_sample_size(beta, delta_node))
            except (CapacityError, DomainError) as e:
                size = e.with_traceback(None)  # raised where the walk meets it
            most = 0 if isinstance(size, Exception) else min(size, len(ids))  # distinct draws
            most = tuple_count(most, ell, CANDIDATE_GUARD) if m else most  # cand1's: their tuples
            spend = size + most * n if most else math.inf  # a node that raises fits no chunk
            if len(pools) == len(stats):
                stats = np.concatenate([stats, stats])
            stats[len(pools)] = len(ids), min(spend, _FOLD_ELEMENTS + 1), not most
            pool_of[a] = len(pools)
            pools.append((ids, size))
        return pool_of[a]

    best, nodes = [math.inf, []], 0  # the first cheapest leaf (cost, centers); nodes seen

    def chains(heads: list, D: np.ndarray, active: np.ndarray, depth: int) -> None:
        """Walk, depth first, the chains of the children (`depth` centers) of
        one node: chain s is the child with centers heads[s] and dmin D[s] and
        its discard descendants."""
        nonlocal nodes
        acts = [np.tile(active, (len(D), 1))]
        while depth and (act := acts[-1]).shape[1]:
            # less the ceil(|act| * (1 - 2k/beta)) of least dmin, the first on ties
            n_rm = math.ceil(act.shape[1] * (1.0 - 2.0 * k / beta))
            order = np.argsort(np.take_along_axis(D, act, 1), axis=1, kind="stable")
            acts.append(np.sort(np.take_along_axis(act, order[:, n_rm:], 1), axis=1))
        # walk node w is chain w // L at level w % L; g[w]: its pool, 0 if its
        # active set is empty, which makes it a leaf
        L, last, g = len(acts), depth == k - 1, np.zeros((len(D), len(acts)), np.intp)
        for l, act in enumerate(acts):
            if act.shape[1]:
                g[:, l] = [pool(a) for a in map(tuple, act.tolist())]
        g, sums = g.ravel(), _fold_rows(D)  # sums: the leaves' totals
        width, spend, err = stats[:, 0], stats[:, 1], stats[:, 2] > 0
        nz = np.append(np.flatnonzero(g), len(g))  # the drawing nodes, then the walk's end
        spent = np.cumsum(spend[g[nz[:-1]]]) if last else None  # cuts the last level

        def src(w: int, draw):  # a center's source: cand1's active set, cand2's draws
            return draw if generator == "cand2" else tuple(acts[w % L][w // L].tolist())

        def fold(lo: int, hi: int, drawn, K: np.ndarray) -> None:
            """Record walk nodes lo..hi - 1 by the first cheapest leaf in walk
            order, a drawn node's candidate or an empty node's dmin sum;
            `drawn` and `K` are the drawn nodes' samples and candidate counts."""
            s, has = np.arange(lo, hi) // L, g[lo:hi] > 0
            vals = sums[s]
            if len(K):
                rid = resolve(drawn)
                totals, at = np.zeros(len(rid)), np.repeat(s[has], K)
                with np.errstate(over="ignore"):  # added as `_fold_rows` adds
                    for row, dmin in zip(rows, D.T):
                        totals += np.minimum(row.take(rid), dmin.take(at))
                vals[has] = np.minimum.reduceat(totals, np.cumsum(K) - K)
            if len(vals) and vals[j := int(np.argmin(vals))] < best[0]:
                head = heads[s[j]]
                if has[j]:
                    c = keys[rid[int(np.argmin(totals))]]
                    head = head + [(c, src(lo + j, drawn[np.count_nonzero(has[:j])]))]
                best[:] = float(vals[j]), head

        i, at = 0, 0  # the next walk node, and nz[at] the next that draws
        while i < len(g):
            # a chunk: the walk up to the next drawing node f and, at the last
            # level, on while the drawing nodes' draws, folds and nodes x widest
            # ids fit `_FOLD_ELEMENTS` (a node whose draws raise never fits)
            take = int((f := nz[at]) < len(g) and not err[g[f]])
            if take and last:
                base = spent[at - 1] if at else 0
                hi = max(int(spent.searchsorted(base + _FOLD_ELEMENTS, "right")), at + 1)
                w = np.maximum.accumulate(width[g[nz[at:hi]]]) * np.arange(1, hi - at + 1)
                take = max(1, int(np.count_nonzero(spent[at:hi] - base + w <= _FOLD_ELEMENTS)))
            sel, e = nz[at : at + take], nz[at + take] if last and take else min(f + 1, len(g))
            drawn, K, bad = [], np.zeros(take, np.int64), err[g[i:e]]
            if take:
                ids = _cand1([pools[j] for j in g[sel].tolist()], rng)
                if generator == "cand1":
                    drawn, u = ids, (ids >= 0).sum(axis=1)
                    us = np.flatnonzero(np.bincount(u))  # the distinct sample widths
                    K = np.array([tuple_count(v, ell, CANDIDATE_GUARD) for v in us.tolist()])
                    K = K[us.searchsorted(u)]
                    bad[sel - i] = K > CANDIDATE_GUARD
                else:  # each simplification maps to the first sequence drawn that yields it
                    drawn, j = [{} for _ in sel], 0
                    try:
                        for j, v in zip(np.nonzero(ids >= 0)[0].tolist(), ids[ids >= 0].tolist()):
                            drawn[j].setdefault(table.simplified(v), v)
                    except (CapacityError, DomainError):  # raised again at its node
                        bad[sel[j] - i] = True
                    K = np.array([len(draw) for draw in drawn])
            Kc = np.zeros(e - i, np.int64)  # each node's leaves, counted after it
            Kc[sel - i] = K if last else 0
            end, total = e, nodes + e - i + int(Kc.sum())
            if total > NODE_GUARD or bad.any():  # the walk stops at the first node over
                one = nodes + np.cumsum(Kc + 1) - Kc  # the guard or whose draws raise
                end = i + int(np.logical_and.accumulate((one <= NODE_GUARD) & ~bad).sum())
            # the nodes walked, one tripping on its own leaves among them, are folded first
            nd = int(sel.searchsorted(end)) if last else 0
            fold(i, end if last else min(end, f), drawn[:nd], K[:nd])
            if end < e and one[end - i] <= NODE_GUARD:  # raise as node `end`'s draws did
                if not take:  # afresh, so that no cycle runs through `pools`
                    raise type(pools[g[f]][1])(*pools[g[f]][1].args)
                row = ids[j := int(sel.searchsorted(end))]
                if generator == "cand1":
                    guard_tuples(int(u[j]), ell, CANDIDATE_GUARD)
                for v in row[row >= 0].tolist():
                    table.simplified(v)
            if (nodes := total) > NODE_GUARD:  # a node's leaves count too
                raise CapacityError(f"search exceeded {NODE_GUARD} nodes")
            if take and not last:
                rid, a = resolve(drawn), src(f, drawn[0])
                sub = [heads[f // L] + [(keys[r], a)] for r in rid.tolist()]
                chains(sub, np.minimum(D[f // L], rows[:, rid].T), acts[f % L][f // L], depth + 1)
            i, at = e, at + max(take, 1)

    # the root, no center and dmin inf (min(inf, row) is the row), is a chain
    chains([[]], np.full((1, n), math.inf), np.arange(n), 0)
    chains = None  # no cycle through the recursion, so the search's arrays go at once
    if best[0] == math.inf:
        raise q_overflow_error(q)
    return CenterSet(
        centers=[table.sequence(c, (s[c],) if generator == "cand2" else s) for c, s in best[1]],
        cost=best[0],
        nodes=nodes,
        rows_scored=len(keys),
    )
