"""The ball range space must reproduce a committed golden file bit for bit.

`tests/data/golden_ranges.json` holds, for every point set below, the
`ball_ranges` list (each range as the integer bitmask of its point indices,
in the returned order) and the `epsilon_net` rows for eps 0.2, 0.3 and 0.5,
all coordinates written with `float.hex`.  The file was recorded from the
per-subset enumeration that preceded the batched bitmask one;
`reference_ball_ranges` below is that enumeration, kept as the reference for
a randomized differential test.

Re-record (on purpose only) with:

    PYTHONPATH=src python tests/test_golden_ranges.py --record
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtwmean import ball_ranges, epsilon_net

GOLDEN = Path(__file__).parent / "data" / "golden_ranges.json"

EPSILONS = (0.2, 0.3, 0.5)

#: (kind, n, d) of every case; `drawn` sets are uniform on [0, 10)^d as in
#: acceptance criterion c06, the others sit on an integer lattice.
CASES = [("drawn", n, d) for n, d in [
    (1, 1), (2, 1), (5, 1), (9, 1), (14, 1), (25, 1), (40, 1),
    (2, 2), (4, 2), (8, 2), (12, 2), (17, 2), (21, 2), (25, 2),
    (3, 3), (5, 3), (7, 3), (9, 3), (11, 3), (12, 3),
]] + [(kind, n, d) for kind, n, d in [
    ("lattice", 1, 2), ("lattice", 3, 1), ("lattice", 10, 1), ("lattice", 40, 1),
    ("lattice", 6, 2), ("lattice", 9, 2), ("lattice", 16, 2), ("lattice", 25, 2),
    ("lattice", 6, 3), ("lattice", 8, 3), ("lattice", 12, 3),
    ("collinear", 5, 2), ("collinear", 9, 2), ("collinear", 12, 2), ("collinear", 7, 3),
    ("coplanar", 6, 3), ("coplanar", 9, 3), ("coplanar", 12, 3),
    ("halves", 12, 2), ("halves", 10, 3),
]]


def golden_points(kind: str, n: int, d: int) -> np.ndarray:
    """Pairwise distinct points of one case.

    `lattice`: distinct integer points of a small box, so many points lie
    exactly on the spheres of others; `collinear`: points of one integer
    line plus one off it (affinely dependent subsets); `coplanar`: integer
    points of the plane z = 0 plus one above it; `halves`: half-integer
    points, whose equidistant centers are often inexact.
    """
    rng = np.random.default_rng([len(kind), n, d])
    if kind == "drawn":
        return rng.uniform(0, 10, size=(n, d))
    if kind == "collinear":
        t = rng.permutation(3 * n)[: n - 1].astype(float)
        direction = np.arange(1, d + 1, dtype=float)
        line = t[:, None] * direction[None, :]
        return np.vstack([line, np.ones((1, d)) + np.eye(1, d)])
    if kind == "coplanar":
        flat = [(x, y, 0.0) for x in range(4) for y in range(4)]
        picked = rng.permutation(len(flat))[: n - 1]
        return np.vstack([np.array(flat)[picked], [[1.0, 1.0, 2.0]]])
    side = {1: 60, 2: 6, 3: 3}[d]
    box = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)
    pts = box[rng.permutation(len(box))[:n]].astype(float)
    return pts / 2.0 if kind == "halves" else pts


def masks(ranges) -> list[int]:
    return [sum(1 << i for i in r) for r in ranges]


def _hex(a) -> list:
    return [[float(x).hex() for x in row] for row in np.asarray(a).tolist()]


def outputs(P: np.ndarray) -> dict:
    return {
        "ranges": masks(ball_ranges(P)),
        "nets": [_hex(epsilon_net(P, eps)) for eps in EPSILONS],
    }


def record() -> list[dict]:
    cases = []
    for kind, n, d in CASES:
        P = golden_points(kind, n, d)
        case = {"kind": kind, "n": n, "d": d, "points": _hex(P)}
        case.update(outputs(P))
        cases.append(case)
    return cases


@pytest.fixture(scope="module")
def golden() -> dict:
    return {(c["kind"], c["n"], c["d"]): c for c in json.loads(GOLDEN.read_text())["cases"]}


def test_golden_cases_are_complete(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES, ids=lambda k: f"{k[0]}-n{k[1]}-d{k[2]}")
def test_ranges_match_golden(golden, key):
    case = golden[key]
    P = golden_points(*key)
    assert _hex(P) == case["points"]
    got = outputs(P)
    assert got["ranges"] == case["ranges"]
    assert got["nets"] == case["nets"]


def _equidistant_sphere(pts: np.ndarray):
    k = pts.shape[0]
    base = pts[0]
    if k == 1:
        return base.copy(), 0.0
    V = pts[1:] - base
    scale = float(np.abs(V).max())
    if np.linalg.matrix_rank(V, tol=1e-9 * scale) < k - 1:
        return None
    gram = 2.0 * (V @ V.T)
    rhs = (V * V).sum(axis=1)
    try:
        t = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    center = base + V.T @ t
    radii = np.linalg.norm(pts - center, axis=1)
    r = float(radii[0])
    if not np.all(np.abs(radii - r) <= 1e-6 * r):
        return None
    return center, r


def reference_ball_ranges(Y: np.ndarray) -> list[frozenset[int]]:
    """One equidistant sphere per affinely independent subset of size at
    most d + 1, each joined with every subset of its own points."""
    n, d = Y.shape
    found: set[frozenset[int]] = {frozenset()}
    for k in range(1, min(d + 1, n) + 1):
        for combo in combinations(range(n), k):
            sphere = _equidistant_sphere(Y[list(combo)])
            if sphere is None:
                continue
            center, r = sphere
            dists = np.linalg.norm(Y - center, axis=1)
            inside = frozenset(np.flatnonzero(dists <= r).tolist()) - frozenset(combo)
            for mask in range(1 << k):
                found.add(inside | frozenset(combo[b] for b in range(k) if mask >> b & 1))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# small integers and halves put many points exactly on the spheres of others
coords = st.one_of(
    st.integers(-2, 2).map(float),
    st.integers(-4, 4).map(lambda v: v / 2.0),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_sets(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    raw = draw(arrays(float, (draw(st.integers(1, {1: 14, 2: 10, 3: 8}[d])), d), elements=coords))
    keep = list(dict.fromkeys(tuple(v) for v in raw.tolist()))
    return np.array(keep, dtype=float).reshape(-1, d)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_ball_ranges_match_reference(Y):
    assert ball_ranges(Y) == reference_ball_ranges(Y)


def test_singular_system_drops_only_its_own_subset(monkeypatch):
    # declare one 3-point system singular: the stacked solve holding it
    # fails as a whole, as numpy's does, and the subset must drop out alone
    Y = golden_points("drawn", 8, 2)
    V = Y[[2, 7]] - Y[0]  # only this sphere yields one of the ranges
    singular = 2.0 * (V @ V.T)
    real = np.linalg.solve
    raised = []

    def solve(a, b):
        if a.shape[-2:] == (2, 2) and any(np.array_equal(g, singular) for g in a.reshape(-1, 2, 2)):
            raised.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    want = reference_ball_ranges(Y)
    monkeypatch.setattr(np.linalg, "solve", solve)
    dropped = reference_ball_ranges(Y)
    assert len(dropped) == len(want) - 1
    raised.clear()
    assert ball_ranges(Y) == dropped
    assert raised == [3, 2]  # the stacked solve, then the system on its own


if __name__ == "__main__" and "--record" in sys.argv:
    GOLDEN.write_text(json.dumps({"cases": record()}, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
