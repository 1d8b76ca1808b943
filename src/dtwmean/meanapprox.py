"""Constant-factor approximation of the restricted p-mean.

Two variants around the same core idea: points close to the vertices of an
optimal mean are plentiful in the vertex pool, so a modest uniform sample (or
a deterministic net of the pool's ball range space) contains, with the stated
probability, one vertex per section of some (2^p + eps)-approximate mean.
Enumerating all short sequences over the sample and keeping the cheapest one
realizes that approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ._batch import argmin_fold, tuple_groups
from .core import Dataset, PointSequence
from .errors import CapacityError, DomainError, require
from .ranges import epsilon_net

#: Cap on the number of enumerated candidate sequences.
CANDIDATE_GUARD = 100_000

#: Cap on the draws of one sampling step (vertices or whole sequences).
SAMPLE_GUARD = 10_000_000


@dataclass
class CandidateSet:
    """Finite set of candidate mean sequences with how they were produced.

    A set of tuples keeps only its point table and `ell`; `candidates`, every
    sequence of length 1..ell over `points` in `enumerate_tuples` order, is
    built when read.  Any other set lists its candidates in `listed`.
    """

    provenance: str  # sampled | net | grid | simplified
    points: np.ndarray | None = None
    ell: int = 0
    listed: list[PointSequence] | None = None

    @property
    def candidates(self) -> list[PointSequence]:
        if self.listed is not None:
            return self.listed
        return [PointSequence(c) for b in enumerate_tuples(self.points, self.ell) for c in b]


@dataclass
class MeanResult:
    """Outcome of a mean search: the winner, its cost and bookkeeping."""

    sequence: PointSequence
    cost: float
    candidate_set: CandidateSet | None = None
    candidates_scored: int = 0
    flags: list[str] = field(default_factory=list)


def eps_prime(eps: float, p: float) -> float:
    try:
        return eps / (2.0 ** (p - 1.0) + eps)
    except OverflowError:
        raise DomainError(f"2^(p - 1) overflows a float at p = {p}") from None


def mean_c_sample_size(m: int, ell: int, delta: float, eps: float, p: float) -> int:
    """Number of pool vertices the randomized mean algorithm draws."""
    try:
        return math.ceil(m * (math.log(ell) + math.log(1.0 / delta)) / eps_prime(eps, p))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"the sample size overflows a float at p = {p}, eps = {eps}") from None


def guard_draws(size: int) -> int:
    """`size`, or a `CapacityError` before anything is drawn if it exceeds
    `SAMPLE_GUARD`."""
    if size > SAMPLE_GUARD:
        raise CapacityError(f"{size} draws exceed the sample guard of {SAMPLE_GUARD}")
    return size


def dedup_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in first-occurrence order."""
    seen: dict[tuple, None] = {}
    for r in rows:
        seen.setdefault(tuple(r), None)
    return np.array(list(seen), dtype=float)


def enumerate_tuples(points: np.ndarray, ell: int) -> list[np.ndarray]:
    """All sequences of length 1..ell over `points`, one (K, L, d) array per L.

    Enumeration is by length, then lexicographic in point indices, which fixes
    the tie order of the downstream argmin.
    """
    u, d = points.shape
    out = []
    for L in range(1, ell + 1):
        idx = np.array(list(product(range(u), repeat=L)), dtype=int)
        out.append(points[idx.reshape(-1)].reshape(len(idx), L, d))
    return out


def tuple_count(u: int, ell: int, guard: float) -> int:
    """Number of sequences of length 1..ell over u points, summed by length
    only until the total passes `guard`; a count above `guard` is a lower
    bound, so a huge ell costs a few big-integer powers, not ell of them."""
    if u <= 1:
        return u * ell
    total = 0
    for L in range(1, ell + 1):
        total += u**L
        if total > guard:
            break
    return total


def _cheapest_tuple(
    T: Dataset, points: np.ndarray, ell: int, p: float, provenance: str, hint: str = ""
) -> MeanResult:
    """Cheapest sequence of length <= ell over `points` under cost_p^p."""
    total = tuple_count(len(points), ell, CANDIDATE_GUARD)
    if total > CANDIDATE_GUARD:
        raise CapacityError(
            f"at least {total} candidates exceed the guard of {CANDIDATE_GUARD}{hint}"
        )
    best, rows = argmin_fold(tuple_groups(T, points, ell, p, p))
    return MeanResult(
        sequence=PointSequence(rows),
        cost=best,
        candidate_set=CandidateSet(provenance, points, ell),
        candidates_scored=total,
    )


def mean_c(
    T: Dataset, delta: float, eps: float, p: float, ell: int, seed: int
) -> MeanResult:
    """Randomized (2^p + eps)-approximate restricted p-mean.

    Draws vertices uniformly with replacement from the vertex pool, forms all
    sequences of length at most ell over the sample and returns the cheapest
    one under cost_p^p.  Succeeds with probability at least 1 - delta.
    """
    require(0 < delta < 1, "delta must lie in (0, 1)")
    require(eps > 0, "eps must be positive")
    require(p >= 1, "p must be >= 1")
    require(ell >= 1, "ell must be >= 1")
    pool = T.vertex_pool()
    size = guard_draws(mean_c_sample_size(T.m, ell, delta, eps, p))
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, len(pool), size=size)
    sample = dedup_rows(pool[draws])
    return _cheapest_tuple(
        T, sample, ell, p, "sampled", "; increase eps or delta, or lower ell"
    )


def mean_c_d(T: Dataset, eps: float, p: float, ell: int) -> MeanResult:
    """Deterministic (2^p + eps)-approximate restricted p-mean.

    Replaces the sampling step with a deterministic net of the vertex pool's
    ball range space; the guarantee then holds unconditionally.  Desk-scale
    only: the subsystem enumeration guards cap the pool size.
    """
    require(eps > 0, "eps must be positive")
    require(p >= 1, "p must be >= 1")
    require(ell >= 1, "ell must be >= 1")
    pool = T.vertex_pool()
    net = epsilon_net(pool, eps_prime(eps, p) / T.m)
    return _cheapest_tuple(T, net, ell, p, "net")
