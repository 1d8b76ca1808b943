"""The batched search of `k_clustering` against a per-node reference.

`reference_k_clustering` below is the search as it ran before its last level
was batched: one node at a time, each cand1 or cand2 sample drawn by its
own `rng.integers` call, every candidate a pool-id tuple, each row looked up by
its tuple in a dict, each total added in sequence order as `clustering_cost`
adds it.  The batched search must return the same
cost, centers, node count and scored-row count, bit for bit, and raise the
same first exception, with the same rows scored before it.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import dtwmean.clustering as clustering
import dtwmean.meanapprox as meanapprox
from dtwmean import CapacityError, ClusteringParams, Dataset, DomainError, PointSequence
from dtwmean.clustering import CenterSet, _PointTable, k_clustering
from dtwmean.core import dedup_rows
from dtwmean.meanapprox import guard_draws, guard_tuples, tuple_count


def in_order(terms: np.ndarray) -> float:
    """The sum of `terms`, added left to right from 0.0 as `clustering_cost` adds them."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


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
            rows[start : start + len(group)] = clustering.score_candidates(
                T, table.points[np.array(group)], p, q
            )
            row_at.update((c, start + j) for j, c in enumerate(group))
        return rows[[row_at[c] for c in cands]]

    pools: dict = {}

    def generate(active):
        if generator == "cand2":
            size = guard_draws(clustering.cand2_sample_size(beta, delta_node))
            found: dict[tuple[int, ...], int] = {}
            for i in rng.integers(0, len(active), size=size).tolist():
                found.setdefault(table.simplified(active[i]), active[i])
            return list(found), [(i,) for i in found.values()]
        if active not in pools:
            ids = np.concatenate([seq_ids[i] for i in active])
            pools[active] = (dedup_rows(ids), max(len(seq_ids[i]) for i in active))
        pool_ids, m = pools[active]
        size = guard_draws(clustering.cand1_sample_size(beta, delta_node, params.eps, p, m, ell))
        draws = rng.integers(0, len(pool_ids), size=size)
        sample = list(dict.fromkeys(pool_ids[draws].tolist()))
        guard_tuples(len(sample), ell, clustering.CANDIDATE_GUARD)
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
                record(centers, in_order(dmin))
            return
        cands, srcs = generate(active)
        R = rows_of(cands)
        if len(centers) == k - 1:
            count_nodes(len(cands))
            totals = np.array([in_order(r) for r in (R if dmin is None else np.minimum(dmin, R))])
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
    exception's type and message, plus every `score_candidates` call it made."""
    calls = []
    real = clustering.score_candidates

    def spy(T, cands, p, q):
        calls.append(cands.tobytes().hex() + str(cands.shape))
        return real(T, cands, p, q)

    monkeypatch.setattr(clustering, "score_candidates", spy)
    try:
        res = search(T, params, generator, seed)
    except (CapacityError, DomainError) as e:
        return type(e).__name__, str(e), calls
    finally:
        monkeypatch.setattr(clustering, "score_candidates", real)
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


def wide_dataset(n: int, d: int, seed: int) -> Dataset:
    """n >= 8 sequences of one or two normal vertices rounded to one decimal:
    enough terms that numpy's pairwise `sum` adds them in another order than
    a left-to-right fold, and repeated vertices."""
    rng = np.random.default_rng(seed)
    return Dataset([PointSequence(np.round(rng.normal(size=(int(rng.integers(1, 3)), d)), 1))
                    for _ in range(n)])


PQ = ((1.0, 1.0), (2.0, 2.0), (1.5, 3.0))
GRID = list(itertools.product(("cand1", "cand2"), (1, 2, 3), (1, 2, 3), PQ, (1, 2)))
WIDE_GRID = list(itertools.product(("cand1", "cand2"), (1, 2), PQ, (8, 9, 13)))


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


@pytest.mark.parametrize(
    "gen,k,pq,n", WIDE_GRID, ids=lambda v: "p%gq%g" % v if isinstance(v, tuple) else str(v)
)
def test_batched_search_matches_the_reference_from_eight_sequences(monkeypatch, gen, k, pq, n):
    p, q = pq
    T = wide_dataset(n, 1, seed=WIDE_GRID.index((gen, k, pq, n)))
    params = ClusteringParams(k=k, beta=2 * k + 1.5, delta=0.5, p=p, q=q, ell=1, eps=8.0)
    if n == 9:  # blocks of a few nodes, so that folds also happen mid-walk
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


def uneven_sizes(monkeypatch, overflow_m=None):
    """Make a node of largest complexity m draw 2 * 5 ** (3 - m) vertices: the
    root (m = 3) draws 2, later nodes 10 or 50, so guards trip mid-walk.  A
    node of m = `overflow_m` raises the sample size's overflow instead."""

    def size(beta, delta, eps, p, m, ell):
        if m == overflow_m:
            raise DomainError(f"the cand1 sample size overflows a float at m = {m}")
        return 2 * 5 ** (3 - m)

    monkeypatch.setattr(clustering, "cand1_sample_size", size)


GUARD_CASES = [
    (guard, "cand1", sizes, seed)
    for guard in ("SAMPLE_GUARD", "CANDIDATE_GUARD")
    for sizes, seed in (("formula", 2), ("uneven", 0), ("uneven", 5))
] + [("SAMPLE_GUARD", "cand2", "formula", seed) for seed in (2, 5)]


@pytest.mark.parametrize("fold_elements", [24, clustering._FOLD_ELEMENTS])
@pytest.mark.parametrize("guard,gen,sizes,seed", GUARD_CASES)
def test_every_sample_and_candidate_guard_raises_the_reference_error_at_the_same_point(
    monkeypatch, fold_elements, guard, gen, sizes, seed
):
    T = tricky_dataset(1, 4, seed)
    params = ClusteringParams(k=2, beta=5.5, delta=0.3, ell=2, eps=4.0)
    monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", fold_elements)
    if sizes == "uneven":
        uneven_sizes(monkeypatch)
    if gen == "cand2":  # one size for every node, so the root trips the guard or none does
        size = clustering.cand2_sample_size(5.5, 0.1)
        values = range(size - 1, size + 1)
    elif guard == "SAMPLE_GUARD":
        drawn = [clustering.cand1_sample_size(5.5, 0.1, 4.0, 1.0, m, 2) for m in (1, 2, 3)]
        values = range(min(drawn) - 1, max(drawn) + 1)
    else:
        values = range(tuple_count(len(_PointTable(T, 1.0, 2).points), 2, math.inf) + 1)
    raised_after = set()  # the number of score_candidates calls before each error
    for value in values:
        monkeypatch.setattr(meanapprox if guard == "SAMPLE_GUARD" else clustering, guard, value)
        want = outcome(reference_k_clustering, T, params, gen, seed, monkeypatch)
        if want[0] == "CapacityError":
            raised_after.add(len(want[2]))
        assert outcome(k_clustering, T, params, gen, seed, monkeypatch) == want
    assert 0 in raised_after  # the root trips the smallest guards
    if sizes == "uneven":  # and some last-level node, after rows were scored, a larger one
        assert max(raised_after) > 0


@pytest.mark.parametrize("seed", [0, 5])
def test_an_overflowing_sample_size_is_raised_at_its_node(monkeypatch, seed):
    T = tricky_dataset(1, 4, seed)
    params = ClusteringParams(k=2, beta=5.5, delta=0.3, ell=2, eps=4.0)
    uneven_sizes(monkeypatch, overflow_m=1)
    for fold_elements in (24, clustering._FOLD_ELEMENTS):
        monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", fold_elements)
        want = outcome(reference_k_clustering, T, params, "cand1", seed, monkeypatch)
        assert want[:2] == ("DomainError", "the cand1 sample size overflows a float at m = 1")
        assert want[2]  # rows were scored before the node that overflows
        assert outcome(k_clustering, T, params, "cand1", seed, monkeypatch) == want


def planted(per_group: int) -> Dataset:
    """Two groups, at 0 and 30, of `per_group` two-vertex sequences each; the
    benchmark's cluster-planted ops have three per group."""
    rng = np.random.default_rng(4)
    return Dataset([
        PointSequence(np.array([[base], [base + 1.0]]) + rng.uniform(-0.3, 0.3, size=(2, 1)))
        for base in (0.0, 30.0)
        for _ in range(per_group)
    ])


PLANTED = ClusteringParams(k=2, beta=8.0, delta=0.2, p=1.0, ell=2, eps=1.0)


@pytest.mark.parametrize("gen,k", [("cand1", 2), ("cand2", 2), ("cand2", 3)])
def test_the_cluster_planted_shape_matches_the_reference(monkeypatch, gen, k):
    T = planted(3)
    params = ClusteringParams(k=k, beta=4.0 * k, delta=0.2, ell=2, eps=1.0)
    chunks = []
    real = clustering._cand1

    def spy(nodes, rng):
        chunks.append(len(nodes))
        return real(nodes, rng)

    want = outcome(reference_k_clustering, T, params, gen, 17, monkeypatch)
    monkeypatch.setattr(clustering, "_cand1", spy)
    assert outcome(k_clustering, T, params, gen, 17, monkeypatch) == want
    # the root and upper levels draw alone; the last level in chunks of several nodes
    assert chunks[0] == 1 and max(chunks) > 1
    if gen == "cand1":  # the one chains call below the root, in several chunks of many nodes
        assert len(chunks) > 2 and sum(chunks) > 10 * len(chunks)


def test_the_last_level_folds_in_a_third_of_the_chunks_of_the_old_budget(monkeypatch):
    # the chunk bound in counts, not clocks: 12288 was the budget before the sweep
    calls = []
    real = clustering._cand1
    monkeypatch.setattr(clustering, "_cand1", lambda *a: calls.append(1) or real(*a))
    counts = []
    for budget in (clustering._FOLD_ELEMENTS, 12288):
        monkeypatch.setattr(clustering, "_FOLD_ELEMENTS", budget)
        calls.clear()
        k_clustering(planted(3), PLANTED, "cand1", seed=17)
        counts.append(len(calls))
    assert 3 * counts[0] <= counts[1]


def test_the_chunks_of_a_fourteen_sequence_search_stay_small():
    # 1.276 MB measured at 1 << 16 (0.90 MB at 12288, 1.78 MB at 1 << 17), plus 25 %
    tracemalloc.start()
    try:
        k_clustering(planted(7), PLANTED, "cand1", seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 1.276 * 2**20
