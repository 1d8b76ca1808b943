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
`_cand1`.  The nodes one center short of k draw in chunks of consecutive
nodes, one `rng.integers` call each, and each chunk is folded in numpy once,
so that no per-node Python touches cand1's candidates.  Only the centers
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
    sizes = [size for _, size in nodes]
    lens = np.array([len(ids) for ids, _ in nodes])
    w, at = lens.max(), rng.integers(0, np.repeat(lens, sizes))
    at += np.repeat(np.arange(0, len(nodes) * w, w), sizes)  # at[d]: the cell draw d hits
    # first[j * w + i]: the first draw of node j's position i, or len(at) if none
    first = np.full(len(nodes) * w, len(at))
    np.minimum.at(first, at, pos := np.arange(len(at)))
    node, i = np.divmod(at[first[at] == pos], w)  # draws first in their cell, in draw order
    rank = np.arange(len(node)) - node.searchsorted(node)
    out = np.full((len(nodes), rank.max() + 1), -1)
    out[node, rank] = np.concatenate([ids for ids, _ in nodes])[(np.cumsum(lens) - lens)[node] + i]
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

    Per node the search draws and counts against `NODE_GUARD` (once, and
    once per leaf child).  Nodes with fewer than k - 1 centers then score
    their candidates and recurse.  Below a node with k - 2 centers (the root
    if k = 1), each child and its discard descendants form a chain that keeps
    the child's dmin, so all chains' active sets come up front, one stable
    argsort per depth.  The chains are walked in depth-first order, both
    generators drawing a chunk of consecutive nodes at once, as many as its
    draws, first-draw table and fold keep within `_FOLD_ELEMENTS`, and each
    chunk folded once, at its last node: its candidate rows are resolved at
    once, the new ones scored node by node, shortest first, and its nodes
    recorded in walk order by their first cheapest candidate.  Each node's
    errors come when the walk reaches it; cand2 simplifies its draws there.  If
    the walk raises, the nodes walked so far are scored first, so an overflow
    `DomainError` still precedes any later node's error, and if every leaf's
    total overflows, the search raises as `clustering_cost` does.  `nodes`
    and `rows_scored` count the search nodes and the distinct rows scored.
    """
    require(generator in ("cand1", "cand2"), f"unknown generator {generator!r}")
    k, beta, p, q, ell, eps = params.k, params.beta, params.p, params.q, params.ell, params.eps
    rng = seeded_rng(seed)
    delta_node = params.delta / (k + 1)
    table = _PointTable(T, p, ell)
    seq_ids, P = table.seq_ids, len(table.points)

    keys, rows = [], np.empty((0, T.n))  # row r of `rows` scores candidate keys[r]
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

    def resolve(draws: list) -> np.ndarray:
        """Rows of consecutive nodes' candidates; new ones scored node by node."""
        nonlocal rows
        jobs: list = []
        draws = np.array(draws) if generator == "cand1" else draws  # cand1: one row per node
        rid = (resolve_tuples if generator == "cand1" else resolve_found)(draws, jobs)
        if len(keys) > len(rows):
            rows = np.concatenate([rows, np.empty((len(keys) - len(rows), T.n))])
        for _, _, got in sorted(jobs, key=lambda job: job[:2]):
            rows[got] = score_candidates(T, table.points[np.array([keys[r] for r in got])], p, q)
        return rid

    pools: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}  # active -> (ids drawn, m)
    sizes: dict[int, int] = {}  # cand1's largest complexity m (cand2: 0) -> draws

    def sample(walk: list, i: int, last: bool) -> dict:
        """Samples of walk node i and, at the last level, of the nodes after it
        while their draws, their fold (most candidates x sequences each) and
        nodes x widest ids fit in `_FOLD_ELEMENTS`: walk index -> (ids row,
        count).  A later node whose size raises ends the chunk before it."""
        js, chunk, total, width = [], [], 0, 0
        for j in range(i, len(walk) if last else i + 1):
            if not (a := walk[j][1]):
                continue
            if a not in pools and generator == "cand2":
                pools[a] = (np.array(a), 0)
            elif a not in pools:
                ids = np.concatenate([seq_ids[v] for v in a])
                pools[a] = (dedup_rows(ids), max(len(seq_ids[v]) for v in a))
            ids, m = pools[a]
            try:
                if m not in sizes:
                    sizes[m] = guard_draws(cand1_sample_size(beta, delta_node, eps, p, m, ell)
                                           if m else cand2_sample_size(beta, delta_node))
            except (CapacityError, DomainError):
                if chunk:
                    break
                raise
            most = min(sizes[m], len(ids))  # distinct draws: cand2's candidates at most
            most = tuple_count(most, ell, CANDIDATE_GUARD) if m else most  # cand1's: their tuples
            total, width = total + sizes[m] + most * T.n, max(width, len(ids))
            if chunk and total + (len(chunk) + 1) * width > _FOLD_ELEMENTS:
                break
            js.append(j)
            chunk.append((ids, sizes[m]))
        ids = _cand1(chunk, rng)
        return dict(zip(js, zip(ids, (ids >= 0).sum(axis=1).tolist())))

    best, nodes = [math.inf, []], 0  # the first cheapest leaf (cost, centers); nodes seen

    def count_nodes(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > NODE_GUARD:
            raise CapacityError(f"search exceeded {NODE_GUARD} nodes")

    def fold(block: list, heads: list, D: np.ndarray, sums: list) -> None:
        """Record walked nodes in order: by first cheapest candidate, or dmin sum."""
        drawn = [b for b in block if b[2] is not None]
        if drawn:
            rid, sizes = resolve([b[2] for b in drawn]), [b[3] for b in drawn]
            totals, ends = rows.take(rid, axis=0), np.cumsum(sizes)
            starts, lo = ends - sizes, 0  # a chain's nodes are consecutive and share its dmin
            for s, hi in {b[0]: end for b, end in zip(drawn, ends.tolist())}.items():
                np.minimum(D[s], totals[lo:hi], out=totals[lo:hi])
                lo = hi
            totals = _fold_rows(totals)
            firsts = iter(zip(starts.tolist(), np.minimum.reduceat(totals, starts).tolist()))
        for s, src, draw, K in block:
            if draw is None:
                if sums[s] < best[0]:
                    best[:] = sums[s], heads[s]
                continue
            lo, total = next(firsts)
            if total < best[0]:
                i = lo + int(np.argmin(totals[lo : lo + K]))
                best[:] = total, heads[s] + [(keys[rid[i]], src)]

    def chains(heads: list, D: np.ndarray, active: np.ndarray, depth: int) -> None:
        """Walk, depth first, the chains of the children (`depth` centers) of
        one node: chain s is the child with centers heads[s] and dmin D[s] and
        its discard descendants.  Nodes of k - 1 centers are folded in blocks."""
        acts = [np.tile(active, (len(D), 1))]
        while depth and (act := acts[-1]).shape[1]:
            # less the ceil(|act| * (1 - 2k/beta)) of least dmin, the first on ties
            n_rm = math.ceil(act.shape[1] * (1.0 - 2.0 * k / beta))
            order = np.argsort(np.take_along_axis(D, act, 1), axis=1, kind="stable")
            acts.append(np.sort(np.take_along_axis(act, order[:, n_rm:], 1), axis=1))
        walk = [(s, tuple(act[s].tolist())) for s in range(len(D)) for act in acts]
        block, drawn, end = [], {}, -1  # a block: one chunk, so its cand1 rows share one width
        sums = _fold_rows(D).tolist()  # a leaf's total: its chain's dmin summed
        try:
            for i, (s, a) in enumerate(walk):
                count_nodes(1)
                if not a:
                    draw, src, K = None, None, 0
                else:
                    if i not in drawn:
                        end = max(drawn := sample(walk, i, depth == k - 1))
                    row, u = drawn[i]
                    if generator == "cand1":
                        draw, src, K = row, a, guard_tuples(u, ell, CANDIDATE_GUARD)
                    else:  # each simplification maps to the first sequence drawn that yields it
                        draw = src = {}
                        for v in row[:u].tolist():
                            draw.setdefault(table.simplified(v), v)
                        K = len(draw)
                if folded := not a or depth == k - 1:
                    block.append((s, src, draw, K))
                    count_nodes(K)
                if not folded or i == end:
                    full, block = block, []
                    fold(full, heads, D, sums)
                if not folded:
                    rid = resolve([draw])
                    sub = [heads[s] + [(keys[r], src)] for r in rid.tolist()]
                    chains(sub, np.minimum(D[s], rows[rid]), np.array(a), depth + 1)
        finally:
            fold(block, heads, D, sums)

    # the root, no center and dmin inf (min(inf, row) is the row), is a chain
    chains([[]], np.full((1, T.n), math.inf), np.arange(T.n), 0)
    chains = None  # no cycle through the recursion, so the search's arrays go at once
    if best[0] == math.inf:
        raise q_overflow_error(q)
    return CenterSet(
        centers=[table.sequence(c, (s[c],) if generator == "cand2" else s) for c, s in best[1]],
        cost=best[0],
        nodes=nodes,
        rows_scored=len(keys),
    )
