"""The batched search of `k_clustering` against a per-node reference.

`reference_k_clustering` below is the search as it ran before its last level
was batched: one node at a time, every candidate a pool-id tuple, each row
looked up by its tuple in a dict.  The batched search must return the same
cost, centers, node count and scored-row count, bit for bit, and raise the
same first exception, with the same rows scored before it.
"""

from __future__ import annotations

import itertools
import math
from itertools import product

import numpy as np
import pytest

import dtwmean.clustering as clustering
from dtwmean import CapacityError, ClusteringParams, Dataset, DomainError, PointSequence
from dtwmean.clustering import CenterSet, _cand2, _PointTable, k_clustering
from dtwmean.core import dedup_rows


def reference_k_clustering(
    T: Dataset, params: ClusteringParams, generator: str = "cand1", seed: int = 0
) -> CenterSet:
    """`k_clustering` one node at a time, with a row cache keyed by tuple."""
    k, beta, p, q, ell = params.k, params.beta, params.p, params.q, params.ell
    rng = np.random.default_rng(seed)
    delta_node = params.delta / (k + 1)
    table = _PointTable(T, p, ell)
    seq_ids = table.seq_ids
    row_at: dict[tuple[int, ...], int] = {}
    rows = np.empty((0, T.n))

    def rows_of(cands):
        nonlocal rows
        new = [c for c in cands if c not in row_at]
        need = len(row_at) + len(new)
        if need > len(rows):
            rows = np.concatenate([rows, np.empty((need, T.n))])
        for L in sorted({len(c) for c in new}):
            group = [c for c in new if len(c) == L]
            start = len(row_at)
            rows[start : start + len(group)] = clustering.cost_rows(
                T, table.points[np.array(group)], p, q
            )
            row_at.update((c, start + j) for j, c in enumerate(group))
        return rows[[row_at[c] for c in cands]]

    pools: dict = {}

    def generate(active):
        if generator == "cand2":
            found = _cand2(active, table.simplified, beta, delta_node, rng)
            return list(found), [(i,) for i in found.values()]
        if active not in pools:
            ids = np.concatenate([seq_ids[i] for i in active])
            pools[active] = (dedup_rows(ids), max(len(seq_ids[i]) for i in active))
        pool_ids, m = pools[active]
        sample = clustering._cand1(pool_ids, m, beta, delta_node, params.eps, p, ell, rng)
        cands = [c for L in range(1, ell + 1) for c in product(sample, repeat=L)]
        return cands, [active] * len(cands)

    best_cost, best_centers, nodes = math.inf, None, 0

    def count_nodes(count):
        nonlocal nodes
        nodes += count
        if nodes > clustering.NODE_GUARD:
            raise CapacityError(f"search exceeded {clustering.NODE_GUARD} nodes")

    def record(centers, total):
        nonlocal best_cost, best_centers
        if total < best_cost:
            best_cost, best_centers = total, list(centers)

    def recurse(centers, dmin, active):
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
    return CenterSet(
        centers=[table.sequence(c, src) for c, src in best_centers],
        cost=best_cost,
        nodes=nodes,
        rows_scored=len(row_at),
    )


def outcome(search, T, params, generator, seed, monkeypatch):
    """What one search shows from outside: its result as hex, or its
    exception's type and message, plus every `cost_rows` call it made."""
    calls = []
    real = clustering.cost_rows

    def spy(T, cands, p, q):
        calls.append(cands.tobytes().hex() + str(cands.shape))
        return real(T, cands, p, q)

    monkeypatch.setattr(clustering, "cost_rows", spy)
    try:
        res = search(T, params, generator, seed)
    except (CapacityError, DomainError) as e:
        return type(e).__name__, str(e), calls
    finally:
        monkeypatch.setattr(clustering, "cost_rows", real)
    centers = [(c.vertices.shape, [x.hex() for x in c.vertices.flat]) for c in res.centers]
    return res.cost.hex(), centers, res.nodes, res.rows_scored, calls


def tricky_dataset(d: int, depth: int, seed: int) -> Dataset:
    """Four or five short sequences over at most three coordinate values,
    -0.0 among them: duplicate vertices, single-vertex sequences and exact
    cost ties.  The deeper searches (k + ell) get fewer values, sequences and
    pool points, which keeps the exhaustive search of the reference quick."""
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, 1.0] + ([4.0] if depth < 5 else [])
    seqs = [rng.choice(values, size=(m, d)) for m in (1, 2, 1, 3, 2)[: 4 if depth > 5 else 5]]
    for v in seqs if depth > 5 else []:
        v[:, 1:] *= 0.0  # zeros of both signs only, so at most two pool points
    return Dataset([PointSequence(v) for v in seqs])


PQ = ((1.0, 1.0), (2.0, 2.0), (1.5, 3.0))
GRID = list(itertools.product(("cand1", "cand2"), (1, 2, 3), (1, 2, 3), PQ, (1, 2)))


@pytest.mark.parametrize(
    "gen,k,ell,pq,d", GRID, ids=lambda v: str(v) if not isinstance(v, tuple) else "p%gq%g" % v
)
def test_batched_search_matches_the_per_node_reference(monkeypatch, gen, k, ell, pq, d):
    p, q = pq
    T = tricky_dataset(d, k + ell, seed=GRID.index((gen, k, ell, pq, d)))
    params = ClusteringParams(k=k, beta=2 * k + 1.5, delta=0.3, p=p, q=q, ell=ell, eps=4.0)
    if d == 2:  # blocks of a few nodes, so that folds also happen mid-walk
        monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", 256)
    want = outcome(reference_k_clustering, T, params, gen, 3, monkeypatch)
    assert outcome(k_clustering, T, params, gen, 3, monkeypatch) == want


@pytest.mark.parametrize("fold_elements", [24, clustering._FOLD_ELEMENTS])
@pytest.mark.parametrize("gen,seed,N", [("cand1", 2, 155), ("cand2", 5, 81)])
def test_every_node_guard_raises_the_reference_error_at_the_same_point(
    monkeypatch, fold_elements, gen, seed, N
):
    T = tricky_dataset(1, 4, seed)
    params = ClusteringParams(k=2, beta=5.5, delta=0.3, ell=2, eps=4.0)
    monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", fold_elements)
    for guard in range(1, N + 1):
        monkeypatch.setattr(clustering, "NODE_GUARD", guard)
        want = outcome(reference_k_clustering, T, params, gen, seed, monkeypatch)
        if guard < N:
            assert want[:2] == ("CapacityError", f"search exceeded {guard} nodes")
        else:
            assert want[2] == N
        assert outcome(k_clustering, T, params, gen, seed, monkeypatch) == want


@pytest.mark.parametrize("fold_elements", [24, clustering._FOLD_ELEMENTS])
def test_an_overflowing_row_is_raised_before_a_later_node_guard(monkeypatch, fold_elements):
    # at p = 2, -1e154 against 1e154 overflows; the root's sample (seed 11)
    # has neither, the first last-level node's has one of them
    B = 1e154
    T = Dataset([PointSequence([[v]]) for v in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, B, -B)])
    params = ClusteringParams(k=2, beta=4.5, delta=0.9, p=2.0, q=1.0, ell=1, eps=1e9)
    monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", fold_elements)
    for guard in range(1, 60):
        monkeypatch.setattr(clustering, "NODE_GUARD", guard)
        want = outcome(reference_k_clustering, T, params, "cand1", 11, monkeypatch)
        assert want[0] == ("CapacityError" if guard == 1 else "DomainError")
        assert outcome(k_clustering, T, params, "cand1", 11, monkeypatch) == want
