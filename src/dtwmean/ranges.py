"""Euclidean ball range spaces: subsystem enumeration and deterministic nets.

`ball_ranges` lists every distinct intersection of a Euclidean ball with a
small finite point set.  Every realizable intersection can be realized by a
ball whose bounding sphere passes through at most d+1 affinely independent
points of the set (points exactly on the sphere may be kept or dropped by an
infinitesimal perturbation of center and radius).  We therefore enumerate the
canonical equidistant sphere of every affinely independent subset of size at
most d+1 and emit the strictly-inside set joined with every subset of the
boundary points.  Affinely dependent tuples are skipped.

The enumeration is batched by subset size k: one stacked rank test, one
stacked solve for the sphere centers and one (subsets x points) membership
test per chunk of subsets.  A range is an int64 bitmask over the point
indices (at most `MAX_GROUND_POINTS` < 63 bits), so the 2^k boundary choices
of every sphere are one broadcast OR and the distinct ranges one
`np.unique`.  Only `ball_ranges` turns masks into frozensets.

`epsilon_net` builds a deterministic net by greedy hitting-set over the
explicitly enumerated heavy ranges, held as a (ranges x points) incidence
matrix, which is exactly the property the derandomized mean algorithm needs
at desk scale.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from .core import dedup_rows
from .errors import CapacityError, DomainError, require

#: Guards keeping the subset enumeration desk-scale.
MAX_GROUND_POINTS = 40
MAX_DIMENSION = 3

#: Slack applied to the heaviness threshold so float rounding of eps*|P| can
#: only enlarge the set of ranges the net must hit, never drop one.
_HEAVY_SLACK = 1e-9

_RANK_TOL = 1e-9

# cap on elements of the (subsets, n, d) offset block per chunk
_CHUNK_ELEMENTS = 1 << 20


def _sphere_ranges(Y: np.ndarray, combos: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """Range bitmasks of the equidistant spheres of a (S, k) stack of subsets.

    Each sphere's center lies in its subset's affine hull; affinely
    dependent subsets, and those whose system is singular or whose points
    are not equidistant from the solved center, contribute nothing.
    """
    pts = Y[combos]  # (S, k, d)
    k = combos.shape[1]
    if k == 1:
        center, r = pts[:, 0], np.zeros(len(pts))
    else:
        base = pts[:, 0]
        V = pts[:, 1:] - base[:, None]  # (S, k-1, d)
        # both tolerances are relative, so the ranges do not depend on scale
        scale = np.abs(V).max(axis=(1, 2))
        keep = np.linalg.matrix_rank(V, tol=_RANK_TOL * scale) == k - 1
        pts, base, V, combos = pts[keep], base[keep], V[keep], combos[keep]
        gram = 2.0 * (V @ V.transpose(0, 2, 1))
        rhs = (V * V).sum(axis=2)[..., None]
        try:
            t = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            # a stacked solve fails as a whole; drop only the singular systems
            solved = [_solve_or_none(g, b) for g, b in zip(gram, rhs)]
            keep = np.array([s is not None for s in solved], dtype=bool)
            pts, base, V, combos = pts[keep], base[keep], V[keep], combos[keep]
            t = np.array([s for s in solved if s is not None]).reshape(len(V), k - 1, 1)
        center = base + (V.transpose(0, 2, 1) @ t)[..., 0]
        radii = np.linalg.norm(pts - center[:, None], axis=2)
        r = radii[:, 0]
        keep = (np.abs(radii - r[:, None]) <= 1e-6 * r[:, None]).all(axis=1)
        center, r, combos = center[keep], r[keep], combos[keep]
    dists = np.linalg.norm(Y[None] - center[:, None], axis=2)  # (S, n)
    members = bit[combos]  # (S, k)
    inside = np.where(dists <= r[:, None], bit, 0).sum(axis=1) & ~members.sum(axis=1)
    choice = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1  # (2^k, k)
    return (inside[:, None] | (members[:, None, :] * choice).sum(axis=2)).ravel()


def _solve_or_none(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None


def _range_masks(points) -> tuple[np.ndarray, int]:
    """Distinct ball ranges of a point set as sorted int64 bitmasks (bit i is
    point i, the empty range included), and the number of points."""
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
    require(len(dedup_rows(Y)) == n, "ground set points must be pairwise distinct")

    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    found = [np.zeros(1, dtype=np.int64)]
    chunk = max(1, _CHUNK_ELEMENTS // (n * d))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing far sphere drops out
        # twice the squared bounding-box diagonal bounds every distance and sphere-system entry
        if not np.isfinite(2.0 * np.square(np.ptp(Y, axis=0)).sum()):
            raise DomainError("the ball range space overflows float64; rescale the coordinates")
        for k in range(1, min(d + 1, n) + 1):
            flat = chain.from_iterable(combinations(range(n), k))
            combos = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
            for s in range(0, len(combos), chunk):
                found.append(_sphere_ranges(Y, combos[s : s + chunk], bit))
    return np.unique(np.concatenate(found)), n


def _incidence(masks: np.ndarray, n: int) -> np.ndarray:
    """(ranges, n) bool matrix: entry (j, i) says range j holds point i."""
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def ball_ranges(points) -> list[frozenset[int]]:
    """All distinct intersections of Euclidean balls with a finite point set.

    Input points must be pairwise distinct.  Ranges are returned as frozensets
    of point indices, sorted by (size, elements) for determinism.
    """
    masks, n = _range_masks(points)
    rows = [np.flatnonzero(row).tolist() for row in _incidence(masks, n)]
    rows.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in rows]


def heavy_threshold(eps: float, n: int) -> float:
    return eps * n - _HEAVY_SLACK


def epsilon_net(points, eps: float) -> np.ndarray:
    """Deterministic eps-net for the ball range space over `points`.

    Every ball range containing at least an eps fraction of the (distinct)
    points intersects the returned set.  Built by greedy hitting-set over the
    heavy ranges enumerated as in :func:`ball_ranges`; ties resolve to the
    smallest point index.
    """
    require(0 < eps <= 1, "eps must lie in (0, 1]")
    Q = dedup_rows(np.atleast_2d(np.asarray(points, dtype=float)))
    nq = Q.shape[0]

    incidence = _incidence(*_range_masks(Q))
    sizes = incidence.sum(axis=1)
    unhit = incidence[(sizes > 0) & (sizes >= heavy_threshold(eps, nq))]

    chosen: list[int] = []
    while len(unhit):
        pick = int(np.argmax(unhit.sum(axis=0)))
        chosen.append(pick)
        unhit = unhit[~unhit[:, pick]]
    return Q[chosen]
