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
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, require

#: Hard cap on exhaustive warping enumeration.
WARPING_ENUMERATION_GUARD = 1_000_000

#: Cap on m1 * m2 * d for one distance matrix (128 MB of float64), checked
#: before allocating.  The table is built in one m1 x m2 array plus one
#: block of rows; the cap counts m1 * m2 * d all the same.
DISTANCE_GUARD = 16_000_000

# cap on the elements of pow_dist_matrix's reused block buffer
_TABLE_BLOCK = 1 << 16

# cap on the stacked distance-table elements (times d) of one sweep chunk:
# many small grids share a chunk up to it, and a pair above it sweeps alone
_SWEEP_ELEMENTS = 1 << 18

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


def seeded_rng(seed: int) -> np.random.Generator:
    """`np.random.default_rng(seed)`, a negative seed refused as a DomainError."""
    require(seed >= 0, f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def dedup_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct entries of a 1-D array, or rows of a 2-D one, in
    first-occurrence order; equal rows (-0.0 equals 0.0) keep their first copy."""
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


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


def _check_guard(m1: int, m2: int, d: int) -> None:
    if m1 * m2 * d > DISTANCE_GUARD:
        raise CapacityError(
            f"a {m1} x {m2} x {d} distance matrix exceeds the guard of "
            f"{DISTANCE_GUARD} elements"
        )


def pow_dist_matrix(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Matrix of pairwise Euclidean distances raised to the p-th power.

    The table is built in blocks of rows through one reused buffer of at
    most _TABLE_BLOCK elements (one row, when a row is wider), so it peaks
    at one m1 x m2 array plus one block.  For d <= 7 the squared coordinate
    differences are added one coordinate at a time, left to right.  That is
    the order in which numpy sums an axis of fewer than 8 elements, so every
    entry has the bits of ``np.sqrt((diff * diff).sum(axis=-1)) ** p`` over
    the (m1, m2, d) array ``diff = a[:, None] - b[None]``.  From d = 8 on
    numpy sums pairwise, so each block is built by that expression itself.

    Raises CapacityError, before allocating anything, when
    len(a) * len(b) * d exceeds DISTANCE_GUARD, and DomainError when an
    entry, or a squared difference that it is built from, overflows float64.
    """
    m1, m2, d = len(a), len(b), a.shape[1]
    _check_guard(m1, m2, d)
    step = max(1, _TABLE_BLOCK // (m2 * d))
    powd = np.empty((m1, m2))
    block = min(step, m1) if d > 1 else 0  # d = 1 needs no buffer
    buf = np.empty((block, m2, d) if d >= 8 else (block, m2))
    with np.errstate(over="ignore"):
        for lo in range(0, m1, step):
            hi = lo + step
            rows = powd[lo:hi]
            diff = buf[: len(rows)]
            if d >= 8:
                # numpy sums 8 or more terms pairwise, not left to right
                np.subtract(a[lo:hi, None, :], b[None, :, :], out=diff)
                diff *= diff
                diff.sum(axis=-1, out=rows)
            else:
                np.subtract.outer(a[lo:hi, 0], b[:, 0], out=rows)
                rows *= rows
                for k in range(1, d):
                    np.subtract.outer(a[lo:hi, k], b[:, k], out=diff)
                    diff *= diff
                    rows += diff
            np.sqrt(rows, out=rows)
            rows **= p
    if math.isinf(powd.max()):
        raise DomainError(
            f"a squared coordinate difference or a distance raised to p = {p} "
            "overflows float64; rescale the coordinates"
        )
    return powd


def _padded(seqs: Sequence[PointSequence], length: int) -> np.ndarray:
    """The (len(seqs) * length, d) vertices of seqs, each padded to `length`
    by repeating its last vertex."""
    lengths = np.array([s.complexity for s in seqs])
    starts = np.cumsum(lengths) - lengths
    rows = starts[:, None] + np.minimum(np.arange(length), lengths[:, None] - 1)
    return np.concatenate([s.vertices for s in seqs])[rows.reshape(-1)]


def path_overflow_error(p: float) -> DomainError:
    """The error for a DTW path sum of p-th powers that overflows float64."""
    return DomainError(
        f"a sum of distances raised to p = {p} overflows float64; rescale the coordinates"
    )


def _sweep(cs: Sequence[PointSequence], taus: Sequence[PointSequence], p: float, full: bool):
    """Accumulated p-th-power DTW grids of every center in cs against every
    tau, stacked and filled in chunks.

    Yields ``(rows, cols, ends, G)`` per chunk: the chunk covers the centers
    ``cs[rows]`` against the taus ``taus[cols]``, and ``ends`` is their
    (centers, taus) array of grid end cells, the p-th-power DTW distances.
    A chunk stacks its B grids center-major, each center and each tau padded
    to the chunk's longest, C and M, by repeating its last vertex; a padded
    cell never feeds the cell (m1, m2) of its grid, nor any cell a backtrack
    from there reads.  The stack is filled one anti-diagonal at a time, in
    three rolling diagonals indexed along the centers: every cell takes its
    p-th-power distance plus the min of its (diag, up, left) neighbours, the
    same add and min as the row-by-row recursion, so every value is the
    same.  Each grid's end cell is read as its diagonal passes.  With
    `full`, each finished diagonal is also written back over its distances
    in the chunk's (C, M, B) distance table, and G is that table: cell
    (i, j), with i over the center and j over the tau, of grid b is
    ``G[i, j, b]``.  Otherwise G is None.

    A chunk holds whole center rows (every tau) while its distance table
    stays within `_SWEEP_ELEMENTS` (and DISTANCE_GUARD) elements, else one
    center against as many taus as fit.  Raises CapacityError, before
    allocating any table, at the first pair, center-major, whose
    m1 * m2 * d exceeds DISTANCE_GUARD, and DomainError when an end cell
    overflows float64.
    """
    require(p >= 1, "p must be >= 1")
    d = taus[0].dimension
    for c in cs:
        if c.dimension != d:
            raise DomainError(f"dimension mismatch: {c.dimension} vs {d}")
    clen = [c.complexity for c in cs]
    tlen = [t.complexity for t in taus]
    tmax = max(tlen)
    for m1 in clen:
        if m1 * tmax * d > DISTANCE_GUARD:
            _check_guard(m1, next(m2 for m2 in tlen if m1 * m2 * d > DISTANCE_GUARD), d)
    pair = max(clen) * tmax * d
    cap = min(_SWEEP_ELEMENTS, DISTANCE_GUARD)
    cstep = max(1, cap // (pair * len(taus)))
    tstep = max(1, cap // pair)
    for c0 in range(0, len(cs), cstep):
        rows = slice(c0, c0 + cstep)
        C = max(clen[rows])
        a = _padded(cs[rows], C)
        for t0 in range(0, len(taus), tstep):
            cols = slice(t0, t0 + tstep)
            M = max(tlen[cols])
            b = _padded(taus[cols], M)
            nc, nt = len(a) // C, len(b) // M
            B = nc * nt
            # cell (i, k - i) of the row-major (C, M) grid is row k + i * w;
            # a one-column grid has one cell per diagonal, so any step will do
            w = M - 1
            step = max(w, 1)
            flat = np.ascontiguousarray(
                pow_dist_matrix(a, b, p).reshape(nc, C, nt, M).transpose(1, 3, 0, 2)
            ).reshape(C * M, B)
            # the grids whose end cell lies on each diagonal, and its row in S
            reads: dict[int, tuple[list[int], list[int]]] = {}
            for g, (m1, m2) in enumerate(product(clen[rows], tlen[cols])):
                grids, at = reads.setdefault(m1 + m2 - 2, ([], []))
                grids.append(g)
                at.append(m1)
            # for diagonal k, S0 and S1 hold diagonals k - 2 and k - 1 and S2
            # takes k, cell (i, k - i) at row i + 1; S0 starts as the inf
            # diagonal -1.  Three rows, rotated by reference, suffice: the row
            # reused for diagonal k keeps stale cells of diagonal k - 3 only
            # below k's range, which no later diagonal reads, and never-written
            # inf cells above it
            S0, S1, S2 = np.full((3, C + 1, B), np.inf)
            S1[1] = flat[0]
            ends = np.empty(B)
            if 0 in reads:
                grids, at = reads[0]
                ends[grids] = S1[at, grids]
            with np.errstate(over="ignore"):
                for k in range(1, C + w):
                    lo = k - w if k > w else 0
                    hi = k if k < C - 1 else C - 1
                    cur = S2[lo + 1 : hi + 2]
                    dist = flat[k + lo * w : k + hi * w + 1 : step]
                    np.minimum(S0[lo : hi + 1], S1[lo : hi + 1], out=cur)
                    np.minimum(cur, S1[lo + 1 : hi + 2], out=cur)
                    np.add(cur, dist, out=cur)
                    if full:
                        dist[...] = cur
                    if k in reads:
                        grids, at = reads[k]
                        ends[grids] = S2[at, grids]
                    S0, S1, S2 = S1, S2, S0
            if math.isinf(ends.max()):
                raise path_overflow_error(p)
            yield rows, cols, ends.reshape(nc, nt), flat.reshape(C, M, B) if full else None
            # free this chunk's tables (cur and dist are views) before the
            # next chunk allocates its own
            flat = S0 = S1 = S2 = cur = dist = None


def _pow_ends(cs: Sequence[PointSequence], taus: Sequence[PointSequence], p: float) -> np.ndarray:
    """(len(cs), len(taus)) p-th-power DTW distances, from ends-only sweeps."""
    out = np.empty((len(cs), len(taus)))
    for rows, cols, ends, _ in _sweep(cs, taus, p, False):
        out[rows, cols] = ends
    return out


def _kept_sweep(c: PointSequence, taus: Sequence[PointSequence], p: float):
    """p-th-power DTW distances of c to every tau, as an array, and every
    pair's optimal warping, from one kept sweep.  Each chunk is backtracked
    and dropped as it is yielded, so one chunk's distance table, which the
    sweep overwrites with the accumulated grids, is held at a time, however
    many taus there are."""
    ends, warpings = [], []
    for _, cols, chunk_ends, G in _sweep([c], taus, p, True):
        ends.append(chunk_ends[0])
        warpings += [
            _backtrack(G[:, :, b], c.complexity, tau.complexity)
            for b, tau in enumerate(taus[cols])
        ]
        del G
    return np.concatenate(ends), warpings


def _backtrack(G: np.ndarray, m1: int, m2: int) -> Warping:
    """The warping ending at (m1, m2) of one accumulated grid ``G[i, j]`` of
    a kept sweep.

    Ties prefer the diagonal step, then advancing in sigma, then in tau.
    """
    i, j = m1 - 1, m2 - 1
    rev = [(m1, m2)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            # Python floats: three `item` reads beat numpy scalar compares
            diag, up, left = G.item(i - 1, j - 1), G.item(i - 1, j), G.item(i, j - 1)
            if diag <= up and diag <= left:
                i -= 1
                j -= 1
            elif up <= left:
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
    same to the last bit.  The accumulated grid overwrites the distance
    matrix, so the sweep holds one m1 x m2 table and three diagonals.
    Backtracking ties are broken by the fixed step preference
    (1,1) > (1,0) > (0,1) so the returned warping is deterministic.
    """
    ends, warpings = _kept_sweep(as_sequence(sigma), [as_sequence(tau)], p)
    return DtwResult(distance=_distances(ends, p)[0], warping=warpings[0])


def _distances(ends: np.ndarray, p: float) -> list[float]:
    """dtw_p distances from p-th-power end cells, each root a Python float power."""
    return [a ** (1.0 / p) for a in ends.tolist()]


def _q_powers(ends: np.ndarray, p: float, q: float) -> list[float]:
    """dtw_p^q from p-th-power end cells, each bit for bit scalar
    ``dtw(c, tau, p).distance ** q``; DomainError if one overflows."""
    try:
        return [(a ** (1.0 / p)) ** q for a in ends.tolist()]
    except OverflowError:
        raise q_overflow_error(q) from None


def dtw_distances(c, T: Dataset, p: float) -> list[float]:
    """dtw_p(c, tau) for every tau of T, in order, from one ends-only sweep:
    three rolling diagonals, no backtrack."""
    return _distances(_pow_ends([as_sequence(c)], T.sequences, p)[0], p)


def warping_count(m1: int, m2: int) -> int:
    """Number of (m1, m2)-warpings (a Delannoy number)."""
    require(m1 >= 1 and m2 >= 1, "sequence lengths must be >= 1")
    if min(m1, m2) == 1:
        return 1
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


def q_overflow_error(q: float) -> DomainError:
    """The error for a cost whose q-th powers overflow float64."""
    return DomainError(
        f"a distance raised to q = {q}, or a sum of such powers, overflows "
        "float64; rescale the coordinates"
    )


def _fold(distances: Iterable[float], q: float) -> float:
    """Sum of the q-th powers of distances, folded in order with Python floats."""
    total = 0.0
    try:
        for distance in distances:
            total = total + distance**q
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise q_overflow_error(q)
    return total


def _fold_rows(terms: np.ndarray) -> np.ndarray:
    """Each row of a (rows, sequences) array of q-th powers added left to right
    from 0.0, bit for bit as `_fold` adds it (numpy's pairwise `sum` is not), one
    column at a time (faster than cumsum on tall blocks); overflow reads inf."""
    total = np.zeros(len(terms))
    with np.errstate(over="ignore"):
        for column in terms.T:
            total += column
    return total


def cost(T: Dataset, c, p: float, q: float) -> float:
    """Sum over the dataset of dtw_p(c, tau)^q, folded in sequence order."""
    cseq = as_sequence(c)
    require(q >= 1, "q must be >= 1")
    return _fold(dtw_distances(cseq, T, p), q)


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
    """Sections of c under the optimal p-warpings :func:`dtw` returns, from one kept sweep."""
    cseq = as_sequence(c)
    warpings = _kept_sweep(cseq, T.sequences, p)[1]
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
