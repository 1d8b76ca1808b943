"""Metamorphic tests: transformations of the input whose effect on the output
is known exactly, checked bit for bit.

Multiplying every coordinate by a power of two 2^e is exact in floating
point while nothing overflows or underflows, and so is every difference,
|x|^p and sum the distances take at p in {1, 2}: each p-th-power end cell
scales by exactly 2^(e*p).  At p = 1 so does each dtw distance and cost
term, by 2^e and 2^(e*q); at p = 2 the root is libm's `pow`, which can miss
by an ulp, so the sweep checks compare with the root of the scaled cell.
The samples depend only on the seed and the dataset's shape, so a search
over the scaled dataset must visit the same nodes, score the same rows and
return the scaled centers and cost.  `dtw` keeps its warping and `dba` its
rounds, with every section mean scaled by exactly 2^e.  Coordinates on a
quarter grid give duplicate vertices and exact ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from dtwmean import (
    ClusteringParams,
    Dataset,
    PointSequence,
    cost,
    dba,
    default_dba_init,
    dtw,
    k_clustering,
)
from dtwmean.core import _distances, _fold, _pow_ends, dtw_distances


def quarter_grid(rng, n: int, d: int, longest: int = 3) -> Dataset:
    """n sequences of 1-`longest` vertices with coordinates in {-2, -1.75, ..., 2}."""
    return Dataset([
        PointSequence(rng.integers(-8, 9, size=(int(rng.integers(1, longest + 1)), d)) / 4.0)
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


def hexes(seq: PointSequence) -> list[str]:
    return [x.hex() for x in seq.vertices.flat]


def scaled_roots(c: PointSequence, T: Dataset, p: float, factor: float) -> list[float]:
    """The program's roots of c's p-th-power end cells against T, each times
    `factor`.  The cells scale exactly, but Python's `**` calls libm's `pow`,
    which is not correctly rounded, so at p = 2 (a * 4^e) ** 0.5 can miss
    2^e * a ** 0.5 by an ulp; at p = 1 the root is the cell itself."""
    return _distances(_pow_ends([c], T.sequences, p)[0] * factor, p)


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
def test_scaling_by_a_power_of_two_scales_every_sweep_result(p, q):
    rng = np.random.default_rng([int(p), int(q), 2])
    for _ in range(6):
        T = quarter_grid(rng, n=int(rng.integers(3, 7)), d=int(rng.integers(1, 3)), longest=6)
        c, tau = T.sequences[:2]
        pair = dtw(c, tau, p)
        init = default_dba_init(T, 2, p)
        mean = dba(T, init, p)
        for e in [-40, 40, *rng.integers(-40, 41, size=3).tolist()]:
            s = 2.0**e
            scaled = Dataset([PointSequence(v.vertices * s) for v in T.sequences])
            sc, stau = scaled.sequences[:2]
            roots = scaled_roots(c, T, p, s**p)
            got = dtw(sc, stau, p)
            assert got.distance == roots[1] and got.warping == pair.warping
            assert dtw_distances(sc, scaled, p) == roots
            assert cost(scaled, sc, p, q) == _fold(roots, q)
            got_init = default_dba_init(scaled, 2, p)
            assert hexes(got_init) == hexes(PointSequence(init.vertices * s))
            got_mean = dba(scaled, got_init, p)
            assert hexes(got_mean.sequence) == hexes(PointSequence(mean.sequence.vertices * s))
            assert len(got_mean.trace) == len(mean.trace)
            assert got_mean.cost == _fold(scaled_roots(mean.sequence, T, p, s**p), p)
            if p == 1:
                assert (got.distance, got_mean.cost) == (pair.distance * s, mean.cost * s)
                assert got_mean.trace == [x * s for x in mean.trace]
