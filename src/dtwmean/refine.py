"""(1 + eps)-approximation of the restricted (p, 1)-mean in Euclidean space.

The search works at a ladder of cost scales.  A few sampled input sequences
are simplified; their least cost, folded as `cost` folds it, is a rough
estimate R, so a result won by a simplification reports its `cost` bit for
bit.  Halving R down for a bounded number of rungs guarantees one rung r
with n*r within a factor two of the optimal cost.  At that rung, a grid of
cell width proportional to eps*r laid over balls around a sampled sequence
close to the optimum contains, vertex by vertex, a snapped copy of the
optimal mean, so enumerating all short sequences of grid points and keeping
the cheapest yields the guarantee.

Sequences are sampled with replacement, so the same draw recurs.  The
estimate and each rung simplify or cover each distinct draw once, scoring it
as built; a repeated draw is counted in `candidates_scored` and against
`CANDIDATE_GUARD` but not scored again.  An equal cover of another draw or
rung is scored again; it can only tie, and ties keep the first candidate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._batch import argmin_tuples
from .core import Dataset, PointSequence, _distances, _fold, _pow_ends, seeded_rng
from .errors import CapacityError, require
from .meanapprox import MeanResult, tuple_count
from .simplify import simplify

#: Cap on total enumerated candidates and on grid cells visited per cover.
CANDIDATE_GUARD = 10_000_000
CELL_GUARD = 10_000_000


@dataclass(frozen=True)
class BallUnion:
    """Union of equal-radius balls centered at a sequence's vertices."""

    centers: np.ndarray  # (k, d)
    radius: float
    # cell width -> `_bounds` already run by `med_appr`, which `grid_cover` takes
    _bounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require(self.centers.ndim == 2 and self.centers.shape[0] >= 1, "need centers")
        require(self.radius > 0, "radius must be positive")


def grid_cover(ball_union: BallUnion, gamma: float) -> np.ndarray:
    """Grid points of all cells of width gamma meeting the ball union.

    Cells are the half-open boxes [g, g + gamma)^d; a cell is kept when it
    contains a point of some ball.  Points are returned sorted by lattice
    index, deduplicated, each distinct ball tested once.  Raises CapacityError
    when the balls' bounding boxes, all counted, hold more than CELL_GUARD
    cells, and DomainError when a lattice index does not fit int64.
    """
    boxes, _ = ball_union._bounded.pop(gamma, None) or _bounds(ball_union, gamma)
    r, hits, tested = ball_union.radius, [], set()
    for center, (lo, hi) in zip(ball_union.centers, boxes):
        if (key := tuple(center.tolist())) in tested:
            continue  # an equal ball, whose cells are already hits
        tested.add(key)
        # a cell's squared offset is the sum of its per-axis squared offsets,
        # added by outer sums left to right (numpy's row-sum order below 8
        # terms, which the recorded covers were built with); one that
        # overflows exceeds r * r, so its inf is correctly not a hit
        dsq, on_lower_faces = 0.0, True
        with np.errstate(over="ignore"):
            for c, l, h in zip(key, lo, hi):
                g = np.arange(l, h + 1) * gamma
                dsq = np.add.outer(dsq, (c - np.clip(c, g, g + gamma)) ** 2)
                on_lower_faces = np.logical_and.outer(on_lower_faces, c < g + gamma)
        hits.append(np.argwhere((dsq < r * r) | ((dsq == r * r) & on_lower_faces)) + lo)
    # the union's distinct rows in lexicographic order, as np.unique(axis=0)
    # gives them; each step drops the rows it replaces, so at most two copies
    # of the hits are held at once
    rows = np.concatenate(hits)
    hits = dsq = on_lower_faces = None
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return rows * gamma


def _bounds(ball_union: BallUnion, gamma: float) -> tuple[list, int]:
    """`grid_cover`'s bounds pass, checks in order: each center's box (lo, hi), and total cells."""
    require(gamma > 0, "grid cell width must be positive")
    r = ball_union.radius
    # past about 1.34e154 every squared offset would test below r * r = inf
    require(
        math.isfinite(float(r) * float(r)),
        f"the grid cover radius {r!r} squared overflows float64; rescale the coordinates",
    )
    boxes, budget = [], CELL_GUARD
    for center in ball_union.centers:
        lo, hi = np.floor(np.stack([center - r, center + r]) / gamma)
        # every index up to hi + 1 must fit int64 (an inf one never does)
        require(
            bool((lo >= -(2.0**63)).all() and (hi < 2.0**63).all()),
            "grid cover lattice indices do not fit int64; translate or rescale the coordinates",
        )
        boxes.append((lo.astype(np.int64).tolist(), hi.astype(np.int64).tolist()))
        budget -= math.prod(h - l + 1 for l, h in zip(*boxes[-1]))
        if budget < 0:
            raise CapacityError(f"grid cover would visit more than {CELL_GUARD} cells")
    return boxes, CELL_GUARD - budget


def _inscribed_cell_lower_bound(ball_union: BallUnion, gamma: float) -> int:
    # cells inside the cube inscribed in one ball; cheap lower bound on the
    # cover size, used to skip rungs whose cover cannot pass the size test
    d = ball_union.centers.shape[1]
    side = 2.0 * ball_union.radius / math.sqrt(d)
    per_dim = max(0, int(side / gamma) - 1)
    return per_dim**d


def scale_ladder(
    R: float, n: int, m: int, ell: int, p: float, eps: float, d: int
) -> tuple[tuple[float, ...], float]:
    """Halving cost-scale rungs below the rough estimate R, and the grid-size budget beta."""
    require(R > 0, "R must be positive")
    cap = math.ceil(3 + math.log2(m * ell) / p)
    rungs = tuple(R * 2.0**-i / n for i in range(cap + 1))
    beta = 2.0 * (68.0 * m ** (1.0 / p) / eps + 5.0) ** d
    return rungs, beta


def rung_cell_width(r: float, m: int, p: float, eps: float, d: int) -> float:
    return eps * r / ((2.0 * m) ** (1.0 / p) * math.sqrt(d))


def estimate_sample_count(delta: float) -> int:
    """Sequences sampled for the rough cost estimate."""
    return math.ceil(math.log2(2.0 / delta))


def med_appr(
    T: Dataset, eps: float, p: float, delta: float, ell: int, seed: int
) -> MeanResult:
    """(1 + eps)-approximate restricted (p, 1)-mean, success probability 1 - delta.

    Ties in the final argmin resolve to the first candidate in enumeration
    order (sampled simplifications first, shortest first, then in draw order;
    then grid tuples rung by rung).
    `candidates_scored` counts every enumerated tuple, those of a repeated
    draw included.  Covers are scored as they are built, so a score that
    overflows raises DomainError before a later rung can exceed the guard.
    """
    require(eps > 0, "eps must be positive")
    require(p >= 1, "p must be >= 1")
    require(0 < delta < 1, "delta must lie in (0, 1)")
    require(ell >= 1, "ell must be >= 1")
    n, m, d = T.n, T.m, T.dimension
    if eps > m ** (1.0 / p):
        warnings.warn(
            f"eps={eps} exceeds m^(1/p)={m ** (1.0 / p):.6g}; the approximation "
            "guarantee is only proven up to that value",
            stacklevel=2,
        )

    rng = seeded_rng(seed)
    draws = rng.integers(0, n, size=estimate_sample_count(delta)).tolist()
    distinct = dict.fromkeys(draws)  # each drawn sequence once, in draw order
    simps = sorted((simplify(T.sequences[i], ell, p).sequence for i in distinct), key=len)
    costs = [_fold(_distances(ends, p), 1.0) for ends in _pow_ends(simps, T.sequences, p)]
    R = min(costs)
    winner, total = simps[costs.index(R)].vertices, len(draws)
    if R == 0.0:
        # a sampled simplification already has zero cost, hence is optimal
        return MeanResult(
            PointSequence(winner), 0.0, candidates_scored=total, flags=["zero-cost-estimate"]
        )

    rungs, beta = scale_ladder(R, n, m, ell, p, eps, d)
    size_cap = ell * beta

    # grid covers in enumeration order, after the simplifications; a repeated
    # draw is counted but scored once (see the module docstring)
    best, fallback = (R, winner), True
    for r in rungs:
        gamma = rung_cell_width(r, m, p, eps, d)
        require(gamma > 0, "grid cell width must be positive")
        sizes: dict[int, int] = {}  # cover size per distinct draw, 0 if skipped
        for i in draws:
            cover = None
            if i not in sizes:
                union = BallUnion(centers=T.sequences[i].vertices, radius=4.0 * r)
                least, cover = _inscribed_cell_lower_bound(union, gamma), ()
                if least <= size_cap:
                    # a cover sure to be scored and already over budget is refused unbuilt, below
                    _, cells = union._bounded[gamma] = _bounds(union, gamma)
                    left = CANDIDATE_GUARD - total
                    over = cells <= size_cap and tuple_count(least, ell, left) > left
                    cover = None if over else grid_cover(union, gamma)
                sizes[i] = least if cover is None else len(cover)
            if not 0 < sizes[i] <= size_cap:
                continue
            added = tuple_count(sizes[i], ell, CANDIDATE_GUARD - total)
            if total + added > CANDIDATE_GUARD:
                raise CapacityError(
                    f"candidate budget {CANDIDATE_GUARD} exceeded at rung r={r!r}"
                )
            total += added
            fallback = False
            if cover is not None:
                best = argmin_tuples(T, cover, ell, p, 1.0, best)

    best_cost, winner = best
    flags = ["fallback"] if fallback else []
    return MeanResult(PointSequence(winner), best_cost, candidates_scored=total, flags=flags)
