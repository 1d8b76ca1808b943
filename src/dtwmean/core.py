"""Point sequences, warpings and the p-DTW distance.

Conventions used throughout the package:

* vertices are Euclidean points, rows of ``(m, d)`` float64 arrays,
* warping index pairs are 1-based, matching the usual DTW grid picture,
* every cost comparison is an exact float comparison (no tolerance), so
  argmins are deterministic and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, require

#: Hard cap on exhaustive warping enumeration.
WARPING_ENUMERATION_GUARD = 1_000_000

#: Cap on m1 * m2 * d for one distance matrix (128 MB of float64), checked
#: before allocating; the anti-diagonal sweep also stacks its grids in
#: chunks of at most this many elements.
DISTANCE_GUARD = 16_000_000

_STEPS = ((1, 1), (1, 0), (0, 1))


class PointSequence:
    """An ordered tuple of points in R^d, stored as a read-only (m, d) array."""

    __slots__ = ("vertices",)

    def __init__(self, vertices) -> None:
        try:
            arr = np.array(vertices, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed vertex data: {exc}") from None
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise DomainError(f"vertices must form an (m, d) array, got shape {arr.shape}")
        m, d = arr.shape
        require(m >= 1, "a point sequence needs at least one vertex")
        require(d >= 1, "points need at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise DomainError("vertex coordinates must be finite")
        arr.setflags(write=False)
        self.vertices = arr

    @property
    def complexity(self) -> int:
        return self.vertices.shape[0]

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def key(self) -> tuple:
        """Hashable exact-coordinate key, usable for deduplication."""
        return tuple(map(tuple, self.vertices))

    def as_list(self) -> list[list[float]]:
        return self.vertices.tolist()

    def __len__(self) -> int:
        return self.complexity

    def __getitem__(self, i: int) -> np.ndarray:
        return self.vertices[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSequence):
            return NotImplemented
        return self.vertices.shape == other.vertices.shape and bool(
            np.all(self.vertices == other.vertices)
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"PointSequence({self.vertices.tolist()!r})"


def as_sequence(obj) -> PointSequence:
    return obj if isinstance(obj, PointSequence) else PointSequence(obj)


@dataclass
class Dataset:
    """A finite input set of point sequences over one Euclidean space."""

    sequences: list[PointSequence]

    def __post_init__(self) -> None:
        self.sequences = [as_sequence(s) for s in self.sequences]
        require(len(self.sequences) >= 1, "a dataset needs at least one sequence")
        d = self.sequences[0].dimension
        for i, s in enumerate(self.sequences):
            if s.dimension != d:
                raise DomainError(
                    f"sequence {i} has dimension {s.dimension}, expected {d}"
                )

    @property
    def n(self) -> int:
        return len(self.sequences)

    @property
    def m(self) -> int:
        """Maximum complexity over the dataset."""
        return max(s.complexity for s in self.sequences)

    @property
    def dimension(self) -> int:
        return self.sequences[0].dimension

    def vertex_pool(self) -> np.ndarray:
        """Distinct vertices of all sequences, in first-occurrence order."""
        return self.point_table()[0]

    def point_table(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The vertex pool, plus each sequence as an int array of pool row ids.

        Vertices are told apart by tuple equality, so -0.0 and 0.0 are one
        pool point, stored as whichever occurs first.
        """
        index: dict[tuple, int] = {}
        ids = [
            np.array(
                [index.setdefault(v, len(index)) for v in map(tuple, s.vertices.tolist())],
                dtype=np.intp,
            )
            for s in self.sequences
        ]
        return np.array(list(index), dtype=float), ids


@dataclass(frozen=True)
class Warping:
    """A monotone coupling path through the index grid of two sequences.

    Pairs are 1-based, start at (1, 1), end at (m1, m2) and advance by steps
    from {(0,1), (1,0), (1,1)}.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def validate(self, m1: int, m2: int) -> None:
        require(len(self.pairs) >= 1, "warping has no pairs")
        require(self.pairs[0] == (1, 1), "warping must start at (1, 1)")
        require(
            self.pairs[-1] == (m1, m2),
            f"warping must end at ({m1}, {m2}), got {self.pairs[-1]}",
        )
        for (i0, j0), (i1, j1) in zip(self.pairs, self.pairs[1:]):
            if (i1 - i0, j1 - j0) not in _STEPS:
                raise DomainError(
                    f"illegal warping step from ({i0}, {j0}) to ({i1}, {j1})"
                )
        require(len(self.pairs) <= m1 + m2 - 1, "warping longer than m1 + m2 - 1")


@dataclass(frozen=True)
class DtwResult:
    """A p-DTW distance together with one warping attaining it."""

    distance: float
    warping: Warping


def pow_dist_matrix(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Matrix of pairwise Euclidean distances raised to the p-th power.

    Raises CapacityError, before allocating anything, when
    len(a) * len(b) * d exceeds DISTANCE_GUARD, and DomainError when an
    entry overflows float64 to inf.
    """
    m1, m2, d = len(a), len(b), a.shape[1]
    if m1 * m2 * d > DISTANCE_GUARD:
        raise CapacityError(
            f"a {m1} x {m2} x {d} distance matrix exceeds the guard of "
            f"{DISTANCE_GUARD} elements"
        )
    with np.errstate(over="ignore"):
        diff = a[:, None, :] - b[None, :, :]
        powd = np.sqrt((diff * diff).sum(axis=-1)) ** p
    if math.isinf(powd.max()):
        raise DomainError(
            f"a distance raised to p = {p} overflows float64; rescale the coordinates"
        )
    return powd


def _sweep(c: PointSequence, taus: Sequence[PointSequence], p: float):
    """Accumulated p-th-power DTW grids of c against every tau, in chunks.

    Yields ``(S, transposed, lengths)`` per chunk of consecutive taus, with
    at most DISTANCE_GUARD distance elements per chunk.  The chunk's B grids
    are stacked, each tau padded to the chunk's longest, M, by repeating its
    last vertex; a padded cell never feeds the cell (m1, m2) of its grid,
    nor any cell a backtrack from there reads.  The stack is filled one
    anti-diagonal at a time: every cell takes its p-th-power distance plus
    the min of its (diag, up, left) neighbours, the same add and min as the
    row-by-row recursion, so every value is the same.  Diagonals are
    indexed along the shorter side n of the grids (over c, or over tau
    when ``transposed``), so S has shape (m1 + M, n + 1, B): cell (i, j),
    with i over c and j over tau, of grid b is
    ``S[i + j + 1, (j if transposed else i) + 1, b]``, and every entry off
    a grid is inf.
    """
    require(p >= 1, "p must be >= 1")
    if c.dimension != taus[0].dimension:
        raise DomainError(
            f"dimension mismatch: {c.dimension} vs {taus[0].dimension}"
        )
    m1, d = c.vertices.shape
    step = max(1, DISTANCE_GUARD // (m1 * max(t.complexity for t in taus) * d))
    for s in range(0, len(taus), step):
        chunk = taus[s : s + step]
        lengths = [t.complexity for t in chunk]
        B, M = len(chunk), max(lengths)
        starts = np.cumsum([0] + lengths[:-1])[:, None]
        rows = starts + np.minimum(np.arange(M), np.array(lengths)[:, None] - 1)
        padded = np.concatenate([t.vertices for t in chunk])[rows.reshape(-1)]
        powd = pow_dist_matrix(c.vertices, padded, p).reshape(m1, B, M)
        transposed = M < m1
        grids = powd.transpose((2, 0, 1) if transposed else (0, 2, 1))
        n, width, _ = grids.shape
        # cell (i, k - i) of the row-major (n, width) grid is row k + i * w
        w = width - 1
        flat = np.ascontiguousarray(grids).reshape(n * width, B)
        diagonals = n + width - 1
        S = np.full((diagonals + 1, n + 1, B), np.inf)
        S[1, 1] = flat[0]
        for k in range(1, diagonals):
            lo, hi = max(0, k - w), min(k, n - 1)
            cur = S[k + 1, lo + 1 : hi + 2]
            np.minimum(S[k - 1, lo : hi + 1], S[k, lo : hi + 1], out=cur)
            np.minimum(cur, S[k, lo + 1 : hi + 2], out=cur)
            np.add(cur, flat[k + lo * w : k + hi * w + 1 : w], out=cur)
        yield S, transposed, lengths


def _backtrack(G: np.ndarray, m1: int, m2: int, transposed: bool) -> Warping:
    """The warping ending at (m1, m2) of one grid ``G = S[:, :, b]`` of a sweep.

    Ties prefer the diagonal step, then advancing in sigma, then in tau.
    """
    # column offsets of the up (i - 1, j) and left (i, j - 1) neighbours
    du, dl = (0, 1) if transposed else (1, 0)
    i, j = m1 - 1, m2 - 1
    rev = [(m1, m2)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            k = i + j
            col = (j if transposed else i) + 1
            diag, up, left = G[k - 1, col - 1], G[k, col - du], G[k, col - dl]
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
    return Warping(tuple(rev))


def dtw(sigma, tau, p: float) -> DtwResult:
    """p-DTW distance between two sequences, with one optimal warping.

    O(m1*m2) dynamic program over the matrix of p-th-power ground
    distances, filled one anti-diagonal at a time with numpy: each cell
    adds its distance to the min of its (diag, up, left) neighbours, the
    same operations as the row-by-row recursion, so the distance is the
    same to the last bit.  Memory is O(m1*m2) however unequal the lengths.
    Backtracking ties are broken by the fixed step preference
    (1,1) > (1,0) > (0,1) so the returned warping is deterministic.
    """
    a = as_sequence(sigma)
    b = as_sequence(tau)
    S, transposed, _ = next(_sweep(a, [b], p))
    m1, m2 = a.complexity, b.complexity
    G = S[:, :, 0]
    distance = float(G[m1 + m2 - 1, m2 if transposed else m1]) ** (1.0 / p)
    return DtwResult(distance=distance, warping=_backtrack(G, m1, m2, transposed))


def dtw_distances(c, T: Dataset, p: float) -> list[float]:
    """dtw_p(c, tau) for every tau of T, in order, from one sweep and no backtrack."""
    cseq = as_sequence(c)
    m1 = cseq.complexity
    out: list[float] = []
    for S, transposed, lengths in _sweep(cseq, T.sequences, p):
        n = np.array(lengths)
        ends = S[m1 + n - 1, n if transposed else m1, np.arange(len(n))]
        out.extend(a ** (1.0 / p) for a in ends.tolist())
    return out


def warping_count(m1: int, m2: int) -> int:
    """Number of (m1, m2)-warpings (a Delannoy number)."""
    require(m1 >= 1 and m2 >= 1, "sequence lengths must be >= 1")
    row = [1] * m2
    for _ in range(1, m1):
        new = [1] * m2
        for j in range(1, m2):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[m2 - 1]


def enumerate_warpings(m1: int, m2: int) -> list[Warping]:
    """All (m1, m2)-warpings, depth-first with step order (1,1), (1,0), (0,1)."""
    count = warping_count(m1, m2)
    if count > WARPING_ENUMERATION_GUARD:
        raise CapacityError(
            f"{count} warpings exceed the enumeration guard of {WARPING_ENUMERATION_GUARD}"
        )
    out: list[Warping] = []
    path: list[tuple[int, int]] = [(1, 1)]

    def extend(i: int, j: int) -> None:
        if i == m1 and j == m2:
            out.append(Warping(tuple(path)))
            return
        for di, dj in _STEPS:
            ni, nj = i + di, j + dj
            if ni <= m1 and nj <= m2:
                path.append((ni, nj))
                extend(ni, nj)
                path.pop()

    extend(1, 1)
    return out


def warping_pow_cost(
    powd: np.ndarray, pairs: Iterable[tuple[int, int]]
) -> float:
    """Sum of p-th-power distances along a warping, folded in pair order."""
    total = 0.0
    for i, j in pairs:
        total = total + powd[i - 1, j - 1]
    return total


def cost(T: Dataset, c, p: float, q: float) -> float:
    """Sum over the dataset of dtw_p(c, tau)^q, folded in sequence order."""
    cseq = as_sequence(c)
    require(q >= 1, "q must be >= 1")
    total = 0.0
    for distance in dtw_distances(cseq, T, p):
        total = total + distance**q
    return total


@dataclass
class Section:
    """Multiset of input vertices warped to one vertex of a reference sequence.

    ``members`` keeps (sequence index, vertex index, vertex) provenance,
    1-based indices.
    """

    index: int
    members: list[tuple[int, int, np.ndarray]] = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([v for (_, _, v) in self.members], dtype=float)

    def __len__(self) -> int:
        return len(self.members)


def sections(c, T: Dataset, warpings: Sequence[Warping]) -> list[Section]:
    """Partition of all warped pairs by the reference-sequence vertex index."""
    cseq = as_sequence(c)
    require(
        len(warpings) == T.n, f"expected {T.n} warpings, got {len(warpings)}"
    )
    for i, (w, tau) in enumerate(zip(warpings, T.sequences)):
        try:
            w.validate(cseq.complexity, tau.complexity)
        except DomainError as exc:
            raise DomainError(f"warping {i} is invalid: {exc}") from exc
    out = [Section(index=j + 1) for j in range(cseq.complexity)]
    for i, (w, tau) in enumerate(zip(warpings, T.sequences), start=1):
        for j, k in w.pairs:
            out[j - 1].members.append((i, k, tau.vertices[k - 1]))
    return out


def optimal_sections(c, T: Dataset, p: float) -> tuple[list[Section], list[Warping]]:
    """Sections of c under the optimal p-warpings :func:`dtw` returns, from one sweep."""
    cseq = as_sequence(c)
    warpings: list[Warping] = []
    for S, transposed, lengths in _sweep(cseq, T.sequences, p):
        warpings.extend(
            _backtrack(S[:, :, b], cseq.complexity, m2, transposed)
            for b, m2 in enumerate(lengths)
        )
    return sections(cseq, T, warpings), warpings


def weak_triangle_check(x, y, z, p: float) -> bool:
    """Check dtw_p(x,z) <= max(|x|,|z|)^(1/p) * (dtw_p(x,y) + dtw_p(y,z)).

    The relaxed triangle inequality guarantees this holds for every triple,
    so the check is a test utility rather than a runtime guard.
    """
    xs, ys, zs = as_sequence(x), as_sequence(y), as_sequence(z)
    m1 = max(xs.complexity, zs.complexity)
    lhs = dtw(xs, zs, p).distance
    rhs = m1 ** (1.0 / p) * (dtw(xs, ys, p).distance + dtw(ys, zs, p).distance)
    return lhs <= rhs
