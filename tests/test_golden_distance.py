"""The distance layer must reproduce a committed golden file bit for bit.

`tests/data/golden_distance.json` holds, for every case of the grid below,
the input dataset and what the distance layer returned on it, all floats
written with `float.hex`: `dtw` distances and warpings for every ordered
pair, `cost` and `clustering_cost` for each q, the `optimal_sections`
warpings, `simplify` results, the discrete `exact_mean` warpings and a
`dba` run.  The file was recorded from the row-by-row dynamic program that
preceded the anti-diagonal one; `reference_dtw` below is that recursion,
kept as the reference for a randomized differential test.

Re-record (on purpose only) with:

    PYTHONPATH=src python tests/test_golden_distance.py --record

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
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtwmean import (
    Dataset,
    PointSequence,
    clustering_cost,
    cost,
    dba,
    default_dba_init,
    dtw,
    exact_mean,
    optimal_sections,
    simplify,
)
from dtwmean.core import pow_dist_matrix

from conftest import report_changes

#: the fields that tell one case from another
KEY_FIELDS = ("kind", "d", "p")
GOLDEN = Path(__file__).parent / "data" / "golden_distance.json"

KINDS = ("ties", "long", "random")
DIMS = (1, 2)
PS = (1.0, 2.0, 1.5, 3.0)
QS = (1.0, 2.0, 1.5)
GRID = list(itertools.product(KINDS, DIMS, PS))


def golden_dataset(kind: str, d: int) -> Dataset:
    """`ties`: integer coordinates (many equal costs), a single-vertex
    sequence and a -0.0 vertex; `long`: length-1 sequences against a long
    one; `random`: off-grid coordinates of lengths 2-9."""
    rng = np.random.default_rng([KINDS.index(kind), d])
    if kind == "ties":
        seqs = [rng.integers(0, 3, size=(m, d)).astype(float) for m in (1, 3, 4, 6, 5)]
        seqs[2][1, 0] = -0.0
    elif kind == "long":
        seqs = [np.round(rng.uniform(-3, 3, size=(m, d)), 2) for m in (1, 30, 1, 12)]
    else:
        seqs = [rng.uniform(-5, 5, size=(m, d)) for m in (2, 7, 9, 5, 8)]
    return Dataset([PointSequence(s) for s in seqs])


def _hex(a) -> list:
    return [[float(x).hex() for x in row] for row in np.asarray(a).tolist()]


def _unhex(rows) -> list:
    return [[float.fromhex(x) for x in row] for row in rows]


def _pairs(w) -> list:
    return [list(pair) for pair in w.pairs]


def outputs(T: Dataset, p: float) -> dict:
    """Everything the golden file records for one dataset and p."""
    S = T.sequences
    out = {
        "dtw": [
            [r.distance.hex(), _pairs(r.warping)]
            for r in (dtw(a, b, p) for a, b in itertools.product(S, S))
        ],
        "cost": [[cost(T, c, p, q).hex() for c in S] for q in QS],
        "clustering_cost": [
            [clustering_cost(T, S[:2], p, q).hex(), clustering_cost(T, S[2:], p, q).hex()]
            for q in QS
        ],
        "sections": [[_pairs(w) for w in optimal_sections(c, T, p)[1]] for c in S],
        "simplify": [
            [_hex(r.sequence.vertices), r.discrete_cost.hex()]
            for r in (simplify(s, ell, p) for ell in (1, 2, 3) for s in S)
        ],
        "exact_mean": [_pairs(w) for w in exact_mean(T, 2, "discrete", p, p).warping_tuple],
    }
    res = dba(T, default_dba_init(T, 2, p), p, max_iters=4)
    out["dba"] = [_hex(res.sequence.vertices), res.cost.hex(), [c.hex() for c in res.trace]]
    return out


def record() -> list[dict]:
    cases = []
    for kind, d, p in GRID:
        T = golden_dataset(kind, d)
        case = {"kind": kind, "d": d, "p": p, "sequences": [_hex(s.vertices) for s in T.sequences]}
        case.update(outputs(T, p))
        cases.append(case)
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    return {(c["kind"], c["d"], c["p"]): c for c in json.loads(GOLDEN.read_text())["cases"]}


def test_golden_grid_is_complete(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("key", GRID, ids=lambda k: f"{k[0]}-d{k[1]}-p{k[2]:g}")
def test_distance_layer_matches_golden(golden, key):
    case = golden[key]
    T = Dataset([PointSequence(_unhex(s)) for s in case["sequences"]])
    assert [_hex(s.vertices) for s in T.sequences] == case["sequences"]
    got = outputs(T, key[2])
    for name, value in got.items():
        assert value == case[name], name


def reference_grid(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The accumulated p-th-power DTW grid, filled row by row."""
    powd = pow_dist_matrix(a, b, p)
    m1, m2 = powd.shape
    acc = np.empty_like(powd)
    acc[0, 0] = powd[0, 0]
    for j in range(1, m2):
        acc[0, j] = acc[0, j - 1] + powd[0, j]
    for i in range(1, m1):
        acc[i, 0] = acc[i - 1, 0] + powd[i, 0]
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, m2):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = powd[i, j] + best
    return acc


def reference_dtw(a: np.ndarray, b: np.ndarray, p: float) -> tuple[float, list]:
    """Row-by-row p-DTW with the (1,1) > (1,0) > (0,1) backtrack tie order."""
    acc = reference_grid(a, b, p)
    m1, m2 = acc.shape
    i, j = m1 - 1, m2 - 1
    rev = [(m1, m2)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        rev.append((i + 1, j + 1))
    rev.reverse()
    return float(acc[m1 - 1, m2 - 1]) ** (1.0 / p), rev


# small integers make many equal partial sums, so the tie order is exercised
coords = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def pairs(draw):
    d = draw(st.sampled_from((1, 2)))
    a, b = (
        draw(arrays(float, (draw(st.integers(1, 12)), d), elements=coords)) for _ in range(2)
    )
    return a, b, draw(st.sampled_from((1.0, 2.0, 1.5, 3.0)))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_dtw_matches_row_by_row_reference(case):
    a, b, p = case
    want_distance, want_pairs = reference_dtw(a, b, p)
    got = dtw(a, b, p)
    assert got.distance.hex() == want_distance.hex()
    assert list(got.warping.pairs) == want_pairs


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    rec = record()
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []
    report_changes(old, rec, KEY_FIELDS)
    lines = ",\n".join(json.dumps(c) for c in rec)
    GOLDEN.write_text('{"cases": [\n' + lines + "\n]}\n")
