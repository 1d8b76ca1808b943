"""Metamorphic tests: transformations of the input whose effect on the output
is known exactly, checked bit for bit.

Multiplying every coordinate by a power of two 2^e is exact in floating
point while nothing overflows or underflows, and so is every difference,
|x|^p, sum and root the distances take at p in {1, 2}: each dtw distance
scales by exactly 2^e and each cost term by 2^(e*q).  The samples depend only
on the seed and the dataset's shape, so a search over the scaled dataset must
visit the same nodes, score the same rows and return the scaled centers and
cost.  Coordinates on a quarter grid give duplicate vertices and exact ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from dtwmean import ClusteringParams, Dataset, PointSequence, k_clustering


def quarter_grid(rng, n: int, d: int) -> Dataset:
    """n sequences of 1-3 vertices with coordinates in {-2, -1.75, ..., 2}."""
    return Dataset([
        PointSequence(rng.integers(-8, 9, size=(int(rng.integers(1, 4)), d)) / 4.0)
        for _ in range(n)
    ])


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("gen", ["cand1", "cand2"])
@pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
def test_scaling_by_a_power_of_two_scales_centers_and_cost(gen, p, q):
    rng = np.random.default_rng([int(p), int(q), gen == "cand2"])
    params = ClusteringParams(k=2, beta=5.0, delta=0.3, p=p, q=q, ell=2, eps=4.0)
    for trial in range(8):
        T = quarter_grid(rng, n=int(rng.integers(3, 6)), d=int(rng.integers(1, 3)))
        base = k_clustering(T, params, gen, seed=trial)
        for e in [-40, 40, *rng.integers(-40, 41, size=3).tolist()]:
            s = 2.0**e
            scaled = Dataset([PointSequence(v.vertices * s) for v in T.sequences])
            got = k_clustering(scaled, params, gen, seed=trial)
            assert (got.nodes, got.rows_scored) == (base.nodes, base.rows_scored)
            assert bits(got.cost) == bits(base.cost * 2.0 ** (e * q))
            assert [bits(c.vertices) for c in got.centers] == [
                bits(c.vertices * s) for c in base.centers
            ]
