"""Euclidean ball range spaces: subsystem enumeration and deterministic nets.

`ball_ranges` lists every distinct intersection of a Euclidean ball with a
small finite point set.  Every realizable intersection can be realized by a
ball whose bounding sphere passes through at most d+1 affinely independent
points of the set (points exactly on the sphere may be kept or dropped by an
infinitesimal perturbation of center and radius).  We therefore enumerate the
canonical equidistant sphere of every affinely independent subset of size at
most d+1 and emit the strictly-inside set joined with every subset of the
boundary points.  Affinely dependent tuples are skipped.

`epsilon_net` builds a deterministic net by greedy hitting-set over the
explicitly enumerated heavy ranges, which is exactly the property the
derandomized mean algorithm needs at desk scale.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError, require

#: Guards keeping the subset enumeration desk-scale.
MAX_GROUND_POINTS = 40
MAX_DIMENSION = 3

#: Slack applied to the heaviness threshold so float rounding of eps*|P| can
#: only enlarge the set of ranges the net must hit, never drop one.
_HEAVY_SLACK = 1e-9

_RANK_TOL = 1e-9


def _equidistant_sphere(pts: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Center (within the affine hull) and radius of the sphere through pts.

    Returns None for affinely dependent tuples.
    """
    k = pts.shape[0]
    base = pts[0]
    if k == 1:
        return base.copy(), 0.0
    V = pts[1:] - base  # (k-1, d)
    scale = max(1.0, float(np.abs(V).max()))
    if np.linalg.matrix_rank(V, tol=_RANK_TOL * scale) < k - 1:
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
    if not np.all(np.abs(radii - r) <= 1e-6 * max(1.0, r)):
        return None
    return center, r


def ball_ranges(points) -> list[frozenset[int]]:
    """All distinct intersections of Euclidean balls with a finite point set.

    Input points must be pairwise distinct.  Ranges are returned as frozensets
    of point indices, sorted by (size, elements) for determinism.
    """
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    if Y.ndim != 2:
        raise DomainError("points must form an (n, d) array")
    n, d = Y.shape
    require(n >= 1, "ground set must be nonempty")
    if d > MAX_DIMENSION:
        raise CapacityError(f"dimension {d} exceeds the subsystem guard {MAX_DIMENSION}")
    if n > MAX_GROUND_POINTS:
        raise CapacityError(
            f"{n} points exceed the subsystem guard {MAX_GROUND_POINTS}"
        )
    keys = {tuple(v) for v in Y}
    require(len(keys) == n, "ground set points must be pairwise distinct")

    found: set[frozenset[int]] = {frozenset()}
    idx = np.arange(n)
    for k in range(1, min(d + 1, n) + 1):
        for combo in combinations(range(n), k):
            sphere = _equidistant_sphere(Y[list(combo)])
            if sphere is None:
                continue
            center, r = sphere
            dists = np.linalg.norm(Y - center, axis=1)
            inside = frozenset(int(i) for i in idx[dists <= r]) - frozenset(combo)
            for mask in range(1 << k):
                chosen = frozenset(
                    combo[b] for b in range(k) if mask >> b & 1
                )
                found.add(inside | chosen)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def heavy_threshold(eps: float, n: int) -> float:
    return eps * n - _HEAVY_SLACK


def epsilon_net(points, eps: float) -> np.ndarray:
    """Deterministic eps-net for the ball range space over `points`.

    Every ball range containing at least an eps fraction of the (distinct)
    points intersects the returned set.  Built by greedy hitting-set over the
    heavy ranges enumerated by :func:`ball_ranges`; ties resolve to the
    smallest point index.
    """
    require(0 < eps <= 1, "eps must lie in (0, 1]")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    seen: dict[tuple, None] = {}
    for v in P:
        seen.setdefault(tuple(v), None)
    Q = np.array(list(seen), dtype=float)
    nq = Q.shape[0]

    threshold = heavy_threshold(eps, nq)
    heavy = [R for R in ball_ranges(Q) if len(R) > 0 and len(R) >= threshold]

    chosen: list[int] = []
    unhit = heavy
    while unhit:
        counts = np.zeros(nq, dtype=int)
        for R in unhit:
            for i in R:
                counts[i] += 1
        pick = int(np.argmax(counts))
        chosen.append(pick)
        unhit = [R for R in unhit if pick not in R]
    return Q[chosen]
