"""Seeded k_clustering outputs must match a committed golden file bit for bit.

`tests/data/golden_clustering.json` holds, for every case of the grid below,
the input dataset, the parameters, and the centers and cost returned by
`k_clustering`, all floats written with `float.hex`.  The file was recorded
from the scalar-row implementation that preceded the point-table search;
any refactor of the clustering layer must reproduce it exactly.  Its
n = 9 cases were re-recorded when the search's totals began to add their
terms in sequence order, as `clustering_cost` does.  Its `exact` list holds
`exact_clustering`'s centers and cost at n = 8, in each oracle mode.

Re-record (on purpose only) with:

    PYTHONPATH=src python tests/test_golden_clustering.py --record

which prints the key fields of every case whose entry differs from the
committed file, and how many cases changed.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import dtwmean.clustering as clustering
from dtwmean import (
    CapacityError,
    ClusteringParams,
    Dataset,
    PointSequence,
    exact_clustering,
    k_clustering,
    simplify,
)
from dtwmean.clustering import _cand1, _PointTable, cand2_sample_size

from conftest import report_changes

#: the fields that tell one case from another
KEY_FIELDS = ("generator", "k", "p", "q", "d", "seed")
GOLDEN = Path(__file__).parent / "data" / "golden_clustering.json"

GENERATORS = ("cand1", "cand2")
KS = (1, 2, 3)
PQ = ((1.0, 1.0), (2.0, 2.0), (1.5, 3.0))
DIMS = (1, 2)
SEEDS = (0, 1, 2)
GRID = list(itertools.product(GENERATORS, KS, PQ, DIMS, SEEDS))

#: mode -> (d, ell, p, q) of the exact_clustering cases, each at k = 2 and 3
EXACT_MODES = {
    "line-1-1": (1, 2, None, None),
    "euclidean-2-2": (2, 1, None, None),
    "discrete": (2, 2, 1.5, 3.0),
}
EXACT_GRID = list(itertools.product(EXACT_MODES, (2, 3)))


def golden_dataset(d: int, seed: int) -> Dataset:
    """Two offset groups of short sequences on a coarse grid (many duplicate
    vertices and exact cost ties), every fourth one jittered off the grid."""
    rng = np.random.default_rng(7919 * d + seed)
    seqs = []
    for i in range((5, 9, 6)[seed]):
        m = int(rng.integers(1, 4))
        verts = 6.0 * (i % 2) + rng.integers(0, 2, size=(m, d)).astype(float)
        if i % 4 == 3:
            verts = verts + np.round(rng.uniform(-0.5, 0.5, size=(m, d)), 3)
        seqs.append(PointSequence(verts))
    return Dataset(seqs)


def golden_params(k: int, p: float, q: float) -> ClusteringParams:
    # ell = 1 at k = 3 keeps the exhaustive search of the old code desk-scale
    return ClusteringParams(
        k=k, beta=2 * k + 2.0, delta=0.3, p=p, q=q, ell=1 if k == 3 else 2, eps=2.0
    )


def _hex(a) -> list:
    return [[float(x).hex() for x in row] for row in np.asarray(a).tolist()]


def _unhex(rows) -> list:
    return [[float.fromhex(x) for x in row] for row in rows]


def record() -> list[dict]:
    cases = []
    for gen, k, (p, q), d, seed in GRID:
        T = golden_dataset(d, seed)
        res = k_clustering(T, golden_params(k, p, q), gen, seed=seed)
        cases.append(
            {
                "generator": gen, "k": k, "p": p, "q": q, "d": d, "seed": seed,
                "sequences": [_hex(s.vertices) for s in T.sequences],
                "centers": [_hex(c.vertices) for c in res.centers],
                "cost": float(res.cost).hex(),
            }
        )
    return cases


def exact_dataset(d: int) -> Dataset:
    """The first eight sequences of golden_dataset(d, 1), as many as
    `exact_clustering` takes."""
    return Dataset(golden_dataset(d, 1).sequences[:8])


def record_exact() -> list[dict]:
    cases = []
    for mode, k in EXACT_GRID:
        d, ell, p, q = EXACT_MODES[mode]
        centers, total = exact_clustering(exact_dataset(d), k, ell, mode, p, q)
        cases.append(
            {
                "mode": mode, "k": k, "d": d, "ell": ell, "p": p, "q": q,
                "centers": [_hex(c.vertices) for c in centers],
                "cost": float(total).hex(),
            }
        )
    return cases


def _key(c: dict) -> tuple:
    return (c["generator"], c["k"], (c["p"], c["q"]), c["d"], c["seed"])


@pytest.fixture(scope="module")
def golden() -> dict:
    return {_key(c): c for c in json.loads(GOLDEN.read_text())["cases"]}


def test_golden_grid_is_complete(golden):
    assert sorted(golden) == sorted(GRID)


def _id(key: tuple) -> str:
    gen, k, (p, q), d, seed = key
    return f"{gen}-k{k}-p{p:g}q{q:g}-d{d}-s{seed}"


@pytest.mark.parametrize("key", GRID, ids=_id)
def test_k_clustering_matches_golden(golden, key):
    case = golden[key]
    gen, k, (p, q), _, seed = key
    T = Dataset([PointSequence(_unhex(s)) for s in case["sequences"]])
    res = k_clustering(T, golden_params(k, p, q), gen, seed=seed)
    assert float(res.cost).hex() == case["cost"]
    assert [_hex(c.vertices) for c in res.centers] == case["centers"]


@pytest.fixture(scope="module")
def golden_exact() -> dict:
    return {(c["mode"], c["k"]): c for c in json.loads(GOLDEN.read_text())["exact"]}


def test_golden_exact_grid_is_complete(golden_exact):
    assert sorted(golden_exact) == sorted(EXACT_GRID)


@pytest.mark.parametrize("mode,k", EXACT_GRID)
def test_exact_clustering_matches_golden(golden_exact, mode, k):
    case = golden_exact[(mode, k)]
    d, ell, p, q = EXACT_MODES[mode]
    assert (case["d"], case["ell"], case["p"], case["q"]) == (d, ell, p, q)
    centers, total = exact_clustering(exact_dataset(d), k, ell, mode, p, q)
    assert float(total).hex() == case["cost"]
    assert [_hex(c.vertices) for c in centers] == case["centers"]


#: (generator, d, seed, k, N): N is the search-node count of the scalar-row
#: implementation on golden_dataset(d, seed) at p = q = 1, found by bisecting
#: NODE_GUARD.  The vectorized last level must count every leaf it takes.
SEED_NODE_COUNTS = [
    ("cand1", 1, 0, 2, 1859),
    ("cand2", 2, 1, 2, 193),
    ("cand1", 2, 0, 3, 3503),
    ("cand1", 1, 2, 1, 43),
]


@pytest.mark.parametrize("gen,d,seed,k,N", SEED_NODE_COUNTS)
def test_node_guard_admits_exactly_the_seed_node_count(monkeypatch, gen, d, seed, k, N):
    T, params = golden_dataset(d, seed), golden_params(k, 1.0, 1.0)
    monkeypatch.setattr(clustering, "NODE_GUARD", N)
    res = k_clustering(T, params, gen, seed=seed)
    assert res.nodes == N
    assert 1 <= res.rows_scored < N
    monkeypatch.setattr(clustering, "NODE_GUARD", N - 1)
    with pytest.raises(CapacityError):
        k_clustering(T, params, gen, seed=seed)


def test_cand2_keeps_the_sign_of_zero_of_each_simplification():
    # 0.0 and -0.0 are one pool point (stored as 0.0, which occurs first),
    # but the second sequence's simplification is itself and keeps its -0.0
    T = Dataset([PointSequence([[0.0], [1.0], [2.0]]), PointSequence([[-0.0], [7.0], [8.0]])])
    want = [simplify(s, 3, 1.0).sequence.vertices for s in T.sequences]
    table = _PointTable(T, 1.0, 3)
    [row] = _cand1([(np.arange(T.n), cand2_sample_size(4.0, 0.5))], np.random.default_rng(0))
    got = [table.sequence(table.simplified(i), (i,)) for i in row[row >= 0].tolist()]
    assert len(got) == 2
    for c in got:
        assert any(
            c.vertices.shape == w.shape and _hex(c.vertices) == _hex(w) for w in want
        )
    res = k_clustering(T, ClusteringParams(k=2, beta=6.0, delta=0.3, ell=3), "cand2", seed=0)
    assert res.cost == 0.0
    assert sorted(np.signbit(c.vertices[0, 0]) for c in res.centers) == [False, True]


def test_k_one_scores_one_row_per_leaf():
    # at k = 1 the root's children are all leaves and all distinct candidates
    res = k_clustering(golden_dataset(1, 2), golden_params(1, 1.0, 1.0), "cand1", seed=2)
    assert res.nodes == 1 + res.rows_scored


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    rec, exact = record(), record_exact()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    report_changes(old.get("cases", []), rec, KEY_FIELDS)
    report_changes(old.get("exact", []), exact, ("mode", "k"))
    lines, exact_lines = (",\n".join(json.dumps(c) for c in cs) for cs in (rec, exact))
    GOLDEN.write_text('{"cases": [\n' + lines + '\n], "exact": [\n' + exact_lines + "\n]}\n")
