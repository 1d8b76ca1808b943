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

The `bench` battery's rows keep their ratio, flags and candidate counts.

A second relation: the dataset followed by a copy of itself has the same
vertex pool and longest sequence, so `mean_c` and `mean_c_d` score the same
candidates and keep their winner.
"""

from __future__ import annotations

import json

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
    exact_mean,
    k_clustering,
    mean_c,
    mean_c_d,
    med_appr,
    save_dataset,
    simplify,
)
from dtwmean.bench import _oracle_optimum
from dtwmean.cli import main
from dtwmean.core import _distances, _fold, _pow_ends, dtw_distances


def quarter_grid(rng, n: int, d: int, longest: int = 3) -> Dataset:
    """n sequences of 1-`longest` vertices with coordinates in {-2, -1.75, ..., 2}."""
    return Dataset([
        PointSequence(rng.integers(-8, 9, size=(int(rng.integers(1, longest + 1)), d)) / 4.0)
        for _ in range(n)
    ])


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def scaled(T: Dataset, s: float) -> Dataset:
    return Dataset([PointSequence(v.vertices * s) for v in T.sequences])


def exponents(rng) -> list[int]:
    return [-40, 40, *rng.integers(-40, 41, size=3).tolist()]


@pytest.mark.parametrize("gen", ["cand1", "cand2"])
@pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
def test_scaling_by_a_power_of_two_scales_centers_and_cost(gen, p, q):
    rng = np.random.default_rng([int(p), int(q), gen == "cand2"])
    params = ClusteringParams(k=2, beta=5.0, delta=0.3, p=p, q=q, ell=2, eps=4.0)
    for trial in range(8):
        T = quarter_grid(rng, n=int(rng.integers(3, 6)), d=int(rng.integers(1, 3)))
        base = k_clustering(T, params, gen, seed=trial)
        for e in exponents(rng):
            s = 2.0**e
            got = k_clustering(scaled(T, s), params, gen, seed=trial)
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
        for e in exponents(rng):
            s = 2.0**e
            S = scaled(T, s)
            sc, stau = S.sequences[:2]
            roots = scaled_roots(c, T, p, s**p)
            got = dtw(sc, stau, p)
            assert got.distance == roots[1] and got.warping == pair.warping
            assert dtw_distances(sc, S, p) == roots
            assert cost(S, sc, p, q) == _fold(roots, q)
            got_init = default_dba_init(S, 2, p)
            assert hexes(got_init) == hexes(PointSequence(init.vertices * s))
            got_mean = dba(S, got_init, p)
            assert hexes(got_mean.sequence) == hexes(PointSequence(mean.sequence.vertices * s))
            assert len(got_mean.trace) == len(mean.trace)
            assert got_mean.cost == _fold(scaled_roots(mean.sequence, T, p, s**p), p)
            if p == 1:
                assert (got.distance, got_mean.cost) == (pair.distance * s, mean.cost * s)
                assert got_mean.trace == [x * s for x in mean.trace]


def assert_scaled(got, base, T: Dataset, p: float, q: float, e: int) -> None:
    """`got`, a result on T scaled by 2^e, holds `base`'s winner times 2^e and
    the program's cost of it on the scaled data."""
    s = 2.0**e
    assert hexes(got.sequence) == hexes(PointSequence(base.sequence.vertices * s))
    assert got.cost == _fold(scaled_roots(base.sequence, T, p, s**p), q)
    if p == 1:
        assert got.cost == base.cost * s**q


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.filterwarnings("ignore:eps=4.0 exceeds")
def test_scaling_by_a_power_of_two_scales_every_mean_and_simplification(p):
    # med_appr's cell width is eps * r over a constant, and r halves down from
    # the cheapest sampled simplification's cost, so its grid scales with the
    # data; at d = 2 it keeps to ell = 1, whose covers stay small
    rng = np.random.default_rng([int(p), 3])
    for trial in range(4):
        d = int(rng.integers(1, 3))
        T = quarter_grid(rng, n=int(rng.integers(3, 6)), d=d)
        means = [
            lambda X: mean_c(X, 0.3, 4.0, p, 2, trial),
            lambda X: mean_c_d(X, 4.0, p, 2),
        ]
        base = [run(T) for run in means]
        base_med = med_appr(T, 4.0, p, 0.5, 3 - d, trial)
        simps = [simplify(tau, 2, p) for tau in T.sequences]
        for e in exponents(rng):
            s = 2.0**e
            S = scaled(T, s)
            for run, want in zip(means, base):
                got = run(S)
                assert_scaled(got, want, T, p, p, e)
                assert got.candidates_scored == want.candidates_scored
            got = med_appr(S, 4.0, p, 0.5, 3 - d, trial)
            assert_scaled(got, base_med, T, p, 1.0, e)
            assert (got.candidates_scored, got.flags) == (base_med.candidates_scored, base_med.flags)
            for tau, stau, want in zip(T.sequences, S.sequences, simps):
                got = simplify(stau, 2, p)
                assert hexes(got.sequence) == hexes(PointSequence(want.sequence.vertices * s))
                one = Dataset([tau])
                assert got.discrete_cost == scaled_roots(want.sequence, one, p, s**p)[0]


@pytest.mark.parametrize(
    "mode,p,q",
    [("euclidean-2-2", 2.0, 2.0), ("line-1-1", 1.0, 1.0)]
    + [("discrete", p, q) for p in (1.0, 2.0) for q in (1.0, 2.0)],
)
def test_scaling_by_a_power_of_two_scales_every_exact_mean(mode, p, q):
    # a section's centroid or median, and its cost, scale exactly; so does
    # the discrete oracle's search, as `mean_c`'s does
    rng = np.random.default_rng([int(p), int(q), len(mode)])
    pq = (p, q) if mode == "discrete" else ()
    for _ in range(4):
        T = quarter_grid(rng, n=3, d=1 if mode == "line-1-1" else int(rng.integers(1, 3)))
        base = exact_mean(T, 2, mode, *pq)
        for e in exponents(rng):
            s = 2.0**e
            got = exact_mean(scaled(T, s), 2, mode, *pq)
            assert hexes(got.mean) == hexes(PointSequence(base.mean.vertices * s))
            assert got.warping_tuple == base.warping_tuple
            if mode == "discrete":
                assert got.cost == _fold(scaled_roots(base.mean, T, p, s**p), q)
            else:
                assert got.cost == base.cost * s**q


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_duplicating_the_dataset_keeps_the_winner_and_the_count(p):
    # T followed by T has T's vertex pool and longest sequence, so both
    # searches score the same candidates; only their costs are summed twice
    rng = np.random.default_rng([int(p), 4])
    for trial in range(8):
        T = quarter_grid(rng, n=int(rng.integers(2, 6)), d=int(rng.integers(1, 3)))
        twice = Dataset(T.sequences + T.sequences)
        for run in (lambda X: mean_c(X, 0.3, 4.0, p, 2, trial), lambda X: mean_c_d(X, 4.0, p, 2)):
            base, got = run(T), run(twice)
            assert hexes(got.sequence) == hexes(base.sequence)
            assert got.candidates_scored == base.candidates_scored
            assert got.cost == cost(twice, got.sequence, p, p)


def run_bench(tmp_path, T: Dataset, flags: list[str]) -> list[dict]:
    """The rows of `dtwmean bench` on T, read back from its JSON report."""
    save_dataset(T, tmp_path / "data.json")
    out = tmp_path / "report.json"
    assert main(["bench", "--input", str(tmp_path / "data.json"), *flags, "--output", str(out)]) == 0
    return json.loads(out.read_text())["runs"]


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
@pytest.mark.filterwarnings("ignore:eps=4.0 exceeds")
def test_scaling_by_a_power_of_two_scales_every_bench_row(tmp_path, p, q):
    # the `bench` battery: every row keeps its ratio, flags and candidates,
    # and scales its sequence by 2^e and its cost by 2^(e * objective q); dba
    # at p = 2 reports the program's roots of its scaled end cells, and its
    # ratio is that cost over the scaled optimum
    rng = np.random.default_rng([int(p), int(q), 5])
    for trial in range(4):
        d = int(rng.integers(1, 3))
        T = quarter_grid(rng, n=int(rng.integers(3, 6)), d=d)
        flags = ["--p", str(p), "--q", str(q), "--ell", str(3 - d), "--eps", "4.0",
                 "--delta", "0.5", "--seed", str(trial)]
        base = run_bench(tmp_path, T, flags)
        opt = _oracle_optimum(T, p, p, 3 - d)["cost"]  # of dba's objective
        for e in exponents(rng):
            s = 2.0**e
            for want, got in zip(base, run_bench(tmp_path, scaled(T, s), flags), strict=True):
                mean = PointSequence(want["result"]["sequence"])
                got_mean = PointSequence(got["result"]["sequence"])
                assert hexes(got_mean) == hexes(PointSequence(mean.vertices * s))
                assert (got["flags"], got["candidates"]) == (want["flags"], want["candidates"])
                if want["algo"] == "dba" and p == 2:
                    cost = _fold(scaled_roots(mean, T, p, s**p), p)
                    assert (got["result"]["cost"], got["ratio"]) == (cost, cost / (opt * s**p))
                else:
                    scale = s ** want["objective"]["q"]
                    assert got["result"]["cost"] == want["result"]["cost"] * scale
                    assert got["ratio"] == want["ratio"]
