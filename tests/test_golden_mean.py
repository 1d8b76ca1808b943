"""Seeded mean-search outputs must match a committed golden file bit for bit.

`tests/data/golden_mean.json` holds, for every case of the grid below, the
input dataset, and the sequence, cost and `candidates_scored` returned by
`mean_c`, `mean_c_d`, `med_appr` and the discrete `exact_mean`, all floats
written with `float.hex` (the oracle reports no count).  A case whose search
raises `CapacityError` records that instead.  The file was recorded from the
implementation that scored fully materialized candidate arrays, before the
prefix-shared tuple kernel; any refactor of the mean layer must reproduce it
exactly.

Re-record (on purpose only) with:

    PYTHONPATH=src python tests/test_golden_mean.py --record

which prints the key fields of every case whose entry differs from the
committed file, and how many cases changed.
"""

from __future__ import annotations

import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtwmean import CapacityError, Dataset, PointSequence, exact_mean, mean_c, mean_c_d, med_appr

from conftest import report_changes

#: the fields that tell one case from another
KEY_FIELDS = ("algo", "p", "q", "d", "ell", "seed")
GOLDEN = Path(__file__).parent / "data" / "golden_mean.json"

ALGOS = ("sample", "net", "refine", "oracle")
PQ = ((1.0, 1.0), (2.0, 2.0), (1.5, 3.0))
DIMS = (1, 2)
ELLS = (1, 2, 3)
SEEDS = (0, 1)
GRID = list(itertools.product(ALGOS, PQ, DIMS, ELLS, SEEDS))


def golden_dataset(d: int, seed: int) -> Dataset:
    """Four sequences of at most two vertices on a coarse grid (duplicate
    vertices, cost ties), the third one jittered off the grid; seed 0 holds
    a -0.0 coordinate.  Two vertices keep `med_appr`'s grid covers small."""
    rng = np.random.default_rng([d, seed, 4099])
    seqs = []
    for i, m in enumerate((2, 2, 1, 2)):
        verts = rng.integers(0, 3, size=(m, d)).astype(float)
        if i == 2:
            verts = verts + np.round(rng.uniform(-0.4, 0.4, size=(m, d)), 2)
        seqs.append(verts)
    if seed == 0:
        seqs[1][0, 0] = -0.0
    return Dataset([PointSequence(s) for s in seqs])


def run(algo: str, T: Dataset, p: float, q: float, ell: int, seed: int):
    """(sequence, cost, candidates_scored) of one case; the oracle counts None."""
    if algo == "sample":
        res = mean_c(T, 0.3, 2.0, p, ell, seed)
    elif algo == "net":
        res = mean_c_d(T, 2.0, p, ell)
    elif algo == "refine":
        with warnings.catch_warnings():
            # eps = 3 is above the proven range m^(1/p) <= 2; it keeps the
            # grids coarse, and the search is deterministic all the same
            warnings.simplefilter("ignore", UserWarning)
            res = med_appr(T, 3.0, p, 0.3, ell, seed)
    else:
        res = exact_mean(T, ell, "discrete", p, q)
        return res.mean, res.cost, None
    return res.sequence, res.cost, res.candidates_scored


def _hex(a) -> list:
    return [[float(x).hex() for x in row] for row in np.asarray(a).tolist()]


def _unhex(rows) -> list:
    return [[float.fromhex(x) for x in row] for row in rows]


def outcome(algo: str, T: Dataset, p: float, q: float, ell: int, seed: int) -> dict:
    try:
        seq, c, scored = run(algo, T, p, q, ell, seed)
    except CapacityError:
        return {"error": "CapacityError"}
    return {"sequence": _hex(seq.vertices), "cost": float(c).hex(), "candidates_scored": scored}


def record() -> list[dict]:
    cases = []
    for algo, (p, q), d, ell, seed in GRID:
        T = golden_dataset(d, seed)
        cases.append(
            {
                "algo": algo, "p": p, "q": q, "d": d, "ell": ell, "seed": seed,
                "sequences": [_hex(s.vertices) for s in T.sequences],
                **outcome(algo, T, p, q, ell, seed),
            }
        )
    return cases


def _key(c: dict) -> tuple:
    return (c["algo"], (c["p"], c["q"]), c["d"], c["ell"], c["seed"])


@pytest.fixture(scope="module")
def golden() -> dict:
    return {_key(c): c for c in json.loads(GOLDEN.read_text())["cases"]}


def test_golden_grid_is_complete(golden):
    assert sorted(golden) == sorted(GRID)


def _id(key: tuple) -> str:
    algo, (p, q), d, ell, seed = key
    return f"{algo}-p{p:g}q{q:g}-d{d}-ell{ell}-s{seed}"


@pytest.mark.parametrize("key", GRID, ids=_id)
def test_mean_search_matches_golden(golden, key):
    case = golden[key]
    algo, (p, q), _, ell, seed = key
    T = Dataset([PointSequence(_unhex(s)) for s in case["sequences"]])
    want = {k: case[k] for k in ("sequence", "cost", "candidates_scored", "error") if k in case}
    assert outcome(algo, T, p, q, ell, seed) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    rec = record()
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []
    report_changes(old, rec, KEY_FIELDS)
    lines = ",\n".join(json.dumps(c) for c in rec)
    GOLDEN.write_text('{"cases": [\n' + lines + "\n]}\n")
