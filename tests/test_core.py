import importlib
import math
from itertools import product
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtwmean.core as core
from dtwmean import (
    Dataset,
    DomainError,
    PointSequence,
    Warping,
    cost,
    dba,
    default_dba_init,
    dtw,
    enumerate_warpings,
    generate_synthetic,
    mean_c,
    med_appr,
    optimal_sections,
    sections,
    simplify,
    warping_count,
    weak_triangle_check,
)
from dtwmean._batch import score_candidates, score_tuples
from dtwmean.clustering import ClusteringParams, clustering_cost, k_clustering
from dtwmean.core import dedup_rows, dtw_distances, pow_dist_matrix, warping_pow_cost
from dtwmean.errors import CapacityError

from conftest import random_dataset, random_sequence, seq
from test_golden_distance import reference_dtw, reference_grid


def brute_dtw(a: PointSequence, b: PointSequence, p: float) -> float:
    """Independent reference: minimum over all explicitly enumerated warpings."""
    powd = pow_dist_matrix(a.vertices, b.vertices, p)
    best = math.inf
    for w in enumerate_warpings(a.complexity, b.complexity):
        total = warping_pow_cost(powd, w.pairs)
        if total < best:
            best = total
    return best ** (1.0 / p)


class TestPointSequence:
    def test_scalar_input_becomes_one_dimensional(self):
        s = PointSequence([0, 1, 2])
        assert s.complexity == 3 and s.dimension == 1

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PointSequence([])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            PointSequence([[0.0], [float("nan")]])

    def test_vertices_read_only(self):
        s = seq(0, 1)
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0

    def test_dataset_dimension_mismatch(self):
        with pytest.raises(DomainError):
            Dataset([seq(0, 1), PointSequence([[0.0, 1.0]])])

    def test_vertex_pool_dedups_in_order(self):
        T = Dataset([seq(1, 0), seq(0, 2)])
        assert T.vertex_pool().ravel().tolist() == [1.0, 0.0, 2.0]

    def test_rejects_a_three_axis_array(self):
        with pytest.raises(DomainError, match=r"\(m, d\) array, got shape \(1, 2, 1\)"):
            PointSequence(np.zeros((1, 2, 1)))

    def test_item_is_a_vertex_row(self):
        s = PointSequence([[0.0, 1.0], [2.0, 3.0]])
        assert s[1].tolist() == [2.0, 3.0]

    def test_equality_and_hash(self):
        assert (seq(0, 1) == 1) is False
        assert seq(0, 1) == seq(0, 1) and hash(seq(0, 1)) == hash(seq(0, 1))
        assert seq(0, 1) != seq(0, 2)

    def test_repr(self):
        assert repr(seq(0, 1.5)) == "PointSequence([[0.0], [1.5]])"


class TestDtw:
    def test_identity_is_zero(self):
        assert dtw(seq(0, 1), seq(0, 1), 1).distance == 0.0

    def test_shift_example(self):
        # brute force over all five (2, 3)-warpings gives 1
        assert dtw(seq(0, 2), seq(0, 1, 2), 1).distance == 1.0

    def test_identical_pair_warping(self):
        res = dtw(seq(0, 3), seq(0, 3), 2)
        assert res.distance == 0.0
        assert res.warping.pairs == ((1, 1), (2, 2))

    def test_result_consistent_with_stored_warping(self):
        a, b = seq(0, 5, 1), seq(2, 2)
        res = dtw(a, b, 2)
        powd = pow_dist_matrix(a.vertices, b.vertices, 2)
        recomputed = warping_pow_cost(powd, res.warping.pairs) ** 0.5
        assert res.distance == pytest.approx(recomputed, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            dtw(seq(0), PointSequence([[0.0, 1.0]]), 1)

    def test_p_below_one(self):
        with pytest.raises(DomainError):
            dtw(seq(0), seq(1), 0.5)

    def test_matches_enumeration_exactly(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 3))
            a = random_sequence(rng, max_len=6, dim=d)
            b = random_sequence(rng, max_len=6, dim=d)
            p = float(rng.choice([1.0, 2.0]))
            assert dtw(a, b, p).distance == brute_dtw(a, b, p)

    def test_fractional_p(self, rng):
        a = random_sequence(rng, max_len=4)
        b = random_sequence(rng, max_len=4)
        assert dtw(a, b, 1.5).distance == brute_dtw(a, b, 1.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_self_distance(self, s):
        rng = np.random.default_rng(s)
        a = random_sequence(rng, max_len=5)
        b = random_sequence(rng, max_len=5)
        p = float(rng.choice([1.0, 2.0]))
        assert dtw(a, b, p).distance == dtw(b, a, p).distance
        assert dtw(a, a, p).distance == 0.0


class TestEnumerateWarpings:
    def test_single_cell(self):
        ws = enumerate_warpings(1, 1)
        assert [w.pairs for w in ws] == [((1, 1),)]

    def test_counts(self):
        assert len(enumerate_warpings(2, 2)) == 3
        assert len(enumerate_warpings(2, 3)) == 5
        assert warping_count(6, 6) == len(enumerate_warpings(6, 6))

    def test_count_with_a_single_vertex_is_one(self):
        # D(m, 1) = D(1, m) = 1, answered without building an m-long row
        assert warping_count(10**7, 1) == warping_count(1, 10**7) == 1
        assert all(warping_count(m, 1) == len(enumerate_warpings(m, 1)) for m in (1, 2, 5))

    def test_no_duplicates_and_valid(self):
        ws = enumerate_warpings(3, 4)
        assert len({w.pairs for w in ws}) == len(ws)
        for w in ws:
            w.validate(3, 4)
            assert len(w) <= 3 + 4 - 1

    def test_guard(self):
        with pytest.raises(CapacityError):
            enumerate_warpings(30, 30)


class TestWarpingValidation:
    def test_bad_start(self):
        with pytest.raises(DomainError):
            Warping(((1, 2), (2, 2))).validate(2, 2)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            Warping(((1, 1), (3, 3))).validate(3, 3)


class TestCost:
    def test_identity(self):
        s = seq(0, 2)
        assert cost(Dataset([s]), s, 1, 1) == 0.0

    def test_hand_instance(self):
        T = Dataset([seq(0, 2), seq(0, 1, 2)])
        assert cost(T, seq(0, 2), 1, 1) == 1.0
        assert cost(T, seq(0, 2), 1, 2) == 1.0


class TestSections:
    def test_identity_warping(self):
        s = seq(0, 5, 1)
        T = Dataset([s])
        secs, _ = optimal_sections(s, T, 1)
        for j, sec in enumerate(secs):
            assert sec.values().ravel().tolist() == [s.vertices[j, 0]]

    def test_hand_example(self):
        c = seq(0, 2)
        T = Dataset([seq(0, 1, 2)])
        w = Warping(((1, 1), (1, 2), (2, 3)))
        secs = sections(c, T, [w])
        assert sorted(secs[0].values().ravel().tolist()) == [0.0, 1.0]
        assert secs[1].values().ravel().tolist() == [2.0]

    def test_diagonal_two_inputs(self):
        c = seq(0, 1)
        T = Dataset([seq(0, 1), seq(2, 3)])
        secs, _ = optimal_sections(c, T, 1)
        assert all(len(sec) == 2 for sec in secs)

    def test_invalid_warping_rejected(self):
        c = seq(0, 1)
        T = Dataset([seq(0, 1)])
        with pytest.raises(DomainError):
            sections(c, T, [Warping(((1, 1),))])

    def test_cost_identity_with_optimal_warpings(self, rng):
        # sum of within-section powered distances reproduces cost_p^p
        for _ in range(25):
            T = random_dataset(rng, n=int(rng.integers(1, 4)), max_len=4)
            c = random_sequence(rng, max_len=3)
            p = float(rng.choice([1.0, 2.0]))
            secs, _ = optimal_sections(c, T, p)
            via_sections = sum(
                (np.linalg.norm(c.vertices[s.index - 1] - v) ** p)
                for s in secs
                for (_, _, v) in s.members
            )
            direct = cost(T, c, p, p)
            assert direct == pytest.approx(via_sections, rel=1e-9)


class TestDistanceGuard:
    def test_guard_admits_exactly_m1_m2_d(self, monkeypatch, rng):
        a, b = rng.uniform(0, 5, size=(4, 2)), rng.uniform(0, 5, size=(7, 2))
        calls = [
            (4 * 7 * 2, lambda: dtw(a, b, 2.0)),
            (7 * 7 * 2, lambda: simplify(b, 3, 2.0)),
        ]
        for cap, call in calls:
            monkeypatch.setattr(core, "DISTANCE_GUARD", cap)
            call()
            monkeypatch.setattr(core, "DISTANCE_GUARD", cap - 1)
            with pytest.raises(CapacityError):
                call()

    def test_one_grid_per_chunk_matches_one_sweep(self, monkeypatch, rng):
        T = random_dataset(rng, n=6, max_len=9, dim=2)
        c = random_sequence(rng, max_len=5, dim=2)
        want = (cost(T, c, 1.5, 2.0), dtw_distances(c, T, 3.0), optimal_sections(c, T, 2.0)[1])
        # the longest sequence fills a chunk on its own
        monkeypatch.setattr(core, "DISTANCE_GUARD", c.complexity * T.m * 2)
        got = (cost(T, c, 1.5, 2.0), dtw_distances(c, T, 3.0), optimal_sections(c, T, 2.0)[1])
        assert got == want
        monkeypatch.setattr(core, "DISTANCE_GUARD", c.complexity * T.m * 2 - 1)
        with pytest.raises(CapacityError):
            cost(T, c, 1.5, 2.0)

    def test_first_pair_over_the_guard_raises_before_any_table(self):
        cs = [seq(*range(10)), PointSequence(np.zeros((5000, 1)))]
        T = Dataset([np.zeros((100, 1)), np.ones((4000, 1)), np.ones((5000, 1))])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="a 5000 x 4000 x 1 distance matrix"):
                clustering_cost(T, cs, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 5000 x 4000 table alone is 160 MB

    @pytest.mark.parametrize("shape", [(20000, 1), (1, 20000)])
    def test_unequal_lengths_stay_linear_in_memory(self, shape):
        a, b = (np.arange(m, dtype=float).reshape(-1, 1) for m in shape)
        tracemalloc.start()
        try:
            res = dtw(a, b, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.warping) == 20000
        assert peak < 64 * 2**20  # a 20000 x 20000 grid would be 3.2 GB

    def test_dtw_holds_one_distance_table(self):
        # the accumulated grid overwrites the 500 x 450 distance table
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0, 5, size=(500, 1)), rng.uniform(0, 5, size=(450, 1))
        tracemalloc.start()
        try:
            dtw(a, b, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 500 * 450 * 8

    @pytest.mark.parametrize("call", ["optimal_sections", "dba"])
    def test_kept_sweeps_hold_one_chunk_at_a_time(self, call):
        # 60 grids of 200 x 200 in chunks of 6: one chunk's kept table is
        # 200 x 200 x 6 floats, about 1.9 MB, and all ten together 19 MB
        rng = np.random.default_rng(7)
        T = Dataset([rng.uniform(0, 5, size=(200, 1)) for _ in range(60)])
        c = T.sequences[0]
        run = {"optimal_sections": lambda: optimal_sections(c, T, 2.0),
               "dba": lambda: dba(T, c, 2.0, max_iters=1)}[call]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def sweep_cases(rng, d: int):
    """(centers, taus) lists: centers shorter and longer than the taus
    (both grid orientations), single-vertex sequences on both sides, and
    integer-rounded copies with many equal partial sums."""
    shapes = [([1, 3, 9, 2], [1, 5, 2, 12, 7]), ([14, 6], [3, 1, 4]), ([1], [1, 1])]
    for rounded in (False, True):
        for clens, tlens in shapes:
            yield tuple(
                [PointSequence(np.round(v) if rounded else v)
                 for v in (rng.uniform(-5, 5, size=(m, d)) for m in lens)]
                for lens in (clens, tlens)
            )


class TestStackedSweep:
    """`_sweep` against the row-by-row recursion, pair by pair, bit for bit:
    end cells, warpings and every cell of every kept grid inside its corner."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_both_modes_match_scalar_dtw_in_every_chunking(self, monkeypatch, d, p):
        rng = np.random.default_rng([d, int(2 * p)])
        whole = core._SWEEP_ELEMENTS
        for cs, taus in sweep_cases(rng, d):
            want = [[reference_dtw(c.vertices, t.vertices, p) for t in taus] for c in cs]
            grids = [[reference_grid(c.vertices, t.vertices, p) for t in taus] for c in cs]
            assert [[dtw(c, t, p).distance for t in taus] for c in cs] == [
                [w[0] for w in row] for row in want
            ]
            pair = max(c.complexity for c in cs) * max(t.complexity for t in taus) * d
            # the whole stack in one chunk, one chunk per center, one per pair
            for cap, chunks in ((whole, 1), (pair * len(taus), len(cs)), (1, len(cs) * len(taus))):
                monkeypatch.setattr(core, "_SWEEP_ELEMENTS", cap)
                for full in (False, True):
                    got = {}
                    sweeps = list(core._sweep(cs, taus, p, full))
                    assert len(sweeps) == chunks
                    for rows, cols, ends, G in sweeps:
                        assert (G is not None) == full
                        B = ends.shape[1]
                        for (i, c), (j, t) in product(
                            enumerate(cs[rows], rows.start), enumerate(taus[cols], cols.start)
                        ):
                            got[i, j] = float(ends[i - rows.start, j - cols.start]) ** (1.0 / p)
                            assert got[i, j].hex() == want[i][j][0].hex()
                            if full:
                                b = (i - rows.start) * B + j - cols.start
                                w = core._backtrack(G[:, :, b], len(c), len(t))
                                assert list(w.pairs) == want[i][j][1]
                                kept = G[: len(c), : len(t), b]
                                assert kept.tobytes() == grids[i][j].tobytes()
                    assert len(got) == len(cs) * len(taus)

    def test_callers_are_unchanged_by_the_chunking(self, monkeypatch, rng):
        T = random_dataset(rng, n=7, max_len=9, dim=2)
        cs = [random_sequence(rng, max_len=6, dim=2) for _ in range(4)]
        init = default_dba_init(T, 3, 2.0)

        def run():
            return (
                [dtw_distances(c, T, 1.5) for c in cs],
                [cost(T, c, 2.0, 1.5) for c in cs],
                clustering_cost(T, cs, 3.0, 2.0),
                optimal_sections(cs[0], T, 2.0)[1],
                default_dba_init(T, 3, 2.0),
                dba(T, init, 2.0),
            )

        want = run()
        for cap in (T.m * 6 * 2 * T.n, 1):
            monkeypatch.setattr(core, "_SWEEP_ELEMENTS", cap)
            assert run() == want


class TestOverflow:
    @pytest.mark.parametrize(
        "a, b, p",
        [
            ([[1e200]], [[-1e200]], 1.0),  # the square of the difference
            ([[0.0, 0.0]], [[1.3e154, 1.3e154]], 1.0),  # the sum of squares
            ([[0.0]], [[1e-200], [2.0]], 1025.0),  # the p-th power
        ],
    )
    def test_overflow_is_a_domain_error_without_warnings(self, a, b, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows float64"):
                pow_dist_matrix(np.array(a), np.array(b), p)

    def test_largest_finite_entries_pass(self):
        got = pow_dist_matrix(np.array([[0.0, 0.0]]), np.array([[1.3e154, 0.0]]), 2.0)
        assert got[0, 0] == np.sqrt(1.3e154 * 1.3e154) ** 2.0

    def test_every_distance_caller_raises(self):
        a, b = seq(1e200, -1e200), seq(3e200)
        T = Dataset([a, b])
        # at p = 1 these distances fit float64; their cubes do not
        c = seq(1e103, -1e103)
        U = Dataset([c, seq(3e103)])
        far = np.array([[[3e103]]])
        # each square fits float64; the sum of the two does not
        V = Dataset([seq(1e154), seq(-1e154)])
        origin = np.zeros((1, 1, 1))
        # each square fits float64; with one center, every leaf's sum of
        # three does not (with two, one leaf's sum fits)
        W = Dataset([[[0.0, 0.0]], [[1e154, 0.0]], [[0.5e154, 0.866e154]]])
        one = ClusteringParams(k=1, beta=3, delta=0.5, p=1.0, q=2.0, ell=1)
        for call in (
            lambda: dtw(a, b, 1.0),
            lambda: cost(T, a, 1.0, 1.0),
            lambda: simplify(a, 1, 1.0),
            lambda: cost(U, c, 1.0, 3.0),
            lambda: score_candidates(U, far, 1.0, 3.0),
            lambda: score_tuples(U, U.vertex_pool(), 2, 1.0, 3.0),
            lambda: clustering_cost(U, [c], 1.0, 3.0),
            lambda: cost(V, seq(0.0), 1.0, 2.0),
            lambda: k_clustering(W, one, "cand1"),
            lambda: k_clustering(W, one, "cand2"),
            lambda: score_tuples(V, origin[0], 1, 1.0, 2.0),
            lambda: clustering_cost(V, [seq(0.0)], 1.0, 2.0),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="overflows float64"):
                    call()


    def test_path_sum_overflow_is_a_domain_error_without_warnings(self):
        # each p = 2 entry, 1e308, fits float64; every path sums two of them
        a, b = seq(0.0, 0.0), seq(1e154, 1e154)
        T = Dataset([a, b])
        origin = np.zeros((1, 2, 1))
        for call in (
            lambda: dtw(a, b, 2.0),
            lambda: dtw_distances(a, T, 2.0),
            lambda: cost(T, a, 2.0, 1.0),
            lambda: optimal_sections(a, T, 2.0),
            lambda: clustering_cost(T, [b, a], 2.0, 1.0),
            lambda: score_candidates(T, origin, 2.0, 1.0),
            lambda: score_tuples(T, origin[0], 2, 2.0, 1.0),
            lambda: default_dba_init(T, 2, 2.0),
            lambda: dba(T, a, 2.0),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="distances raised to p = 2.0 overflows"):
                    call()


def reference_pow_dist_matrix(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The table through one (m1, m2, d) difference array and numpy's sum
    over its last axis."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1)) ** p


def table_inputs(rng, d: int):
    """(a, b) pairs of (m, d) arrays: shapes from 1 x 1 to 300 x 300 at
    scales 1e-5..1e5, then integer-rounded rows with duplicates and -0.0."""
    shapes = [(1, 1), (1, 300), (300, 1), (17, 40), (300, 300)]
    for (m1, m2), scale in zip(shapes, (1e5, 1e-5, 1.0, 1e-3, 1e3)):
        yield rng.normal(scale=scale, size=(m1, d)), rng.normal(scale=scale, size=(m2, d))
    a = np.round(rng.normal(scale=2.0, size=(30, d)))
    b = np.concatenate([a[:10], -a[10:20], np.round(rng.normal(size=(5, d)))])
    b[0] = -0.0
    yield a, b


class TestPowDistMatrix:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_equals_the_broadcast_reference_bit_for_bit(self, d, p):
        rng = np.random.default_rng([d, int(2 * p)])
        for a, b in table_inputs(rng, d):
            got, want = pow_dist_matrix(a, b, p), reference_pow_dist_matrix(a, b, p)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", [3, 8])
    def test_callers_match_the_reference_table_bit_for_bit(self, monkeypatch, d):
        """dtw, cost, optimal_sections, simplify and the batch kernel give the
        same results over the reference table, patched in at every import site."""
        rng = np.random.default_rng(d)
        T = random_dataset(rng, n=4, max_len=30, dim=d, lo=-5.0, hi=5.0, min_len=5)
        c = random_sequence(rng, max_len=12, dim=d, lo=-5.0, hi=5.0, min_len=3)
        points = T.vertex_pool()[:6]
        cands = rng.uniform(-5.0, 5.0, size=(7, 3, d))

        def run():
            out = []
            for p, q in [(1.0, 1.0), (1.5, 2.0), (2.0, 2.0), (3.0, 1.0)]:
                res = dtw(c, T.sequences[0], p)
                out += [
                    (res.distance, res.warping),
                    cost(T, c, p, q),
                    optimal_sections(c, T, p)[1],
                    simplify(T.sequences[1], 6, p),
                    [t.view(np.int64).tolist() for t in score_tuples(T, points, 3, p, q)],
                    score_candidates(T, cands, p, q).view(np.int64).tolist(),
                ]
            return out

        shipped = run()
        calls = []

        def reference(a, b, p):
            calls.append(1)
            return reference_pow_dist_matrix(a, b, p)

        for module in ("dtwmean.core", "dtwmean.simplify", "dtwmean._batch"):
            monkeypatch.setattr(importlib.import_module(module), "pow_dist_matrix", reference)
        assert run() == shipped
        assert calls


def unblocked_pow_dist_matrix(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The table built whole, as before row blocks: one (m1, m2, d)
    difference from d = 8 on, else coordinates added through one m1 x m2
    buffer.  Overflowed entries are left as inf."""
    d = a.shape[1]
    with np.errstate(over="ignore"):
        if d >= 8:
            diff = a[:, None, :] - b[None, :, :]
            powd = (diff * diff).sum(axis=-1)
        else:
            powd = np.subtract.outer(a[:, 0], b[:, 0])
            powd *= powd
            diff = None
            for k in range(1, d):
                diff = np.subtract.outer(a[:, k], b[:, k], out=diff)
                diff *= diff
                powd += diff
        np.sqrt(powd, out=powd)
        powd **= p
    return powd


class TestBlockedTable:
    @staticmethod
    def assert_matches_unblocked(a, b, p):
        want = unblocked_pow_dist_matrix(a, b, p)
        if np.isinf(want).any():
            with pytest.raises(DomainError, match="overflows float64"):
                pow_dist_matrix(a, b, p)
        else:
            got = pow_dist_matrix(a, b, p)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_equals_the_unblocked_table_bit_for_bit(self, d):
        rng = np.random.default_rng([18, d])
        # 470 rows are no multiple of the block rows at m2 = 480 for any d
        shapes = [(470, 480), (1, 1), (3, 70_000), (70_000 // d, 1), (129, 511)]
        for (m1, m2), scale in product(shapes, (1e-150, 1.0, 1e150)):
            a, b = rng.normal(scale=scale, size=(m1, d)), rng.normal(scale=scale, size=(m2, d))
            a[rng.random(a.shape) < 0.1] = -0.0
            b[: len(b) // 2] = np.round(b[: len(b) // 2] / scale) * scale
            for p in (1.0, 2.0, 3.0) if scale == 1.0 else (2.0,):
                self.assert_matches_unblocked(a, b, p)

    @pytest.mark.parametrize("block", [1, 7, 50, 1000])
    def test_small_blocks_equal_the_unblocked_table(self, monkeypatch, block):
        monkeypatch.setattr(core, "_TABLE_BLOCK", block)
        rng = np.random.default_rng(block)
        for d in range(1, 10):
            a, b = rng.normal(size=(37, d)), rng.normal(size=(23, d))
            self.assert_matches_unblocked(a, b, 1.5)

    def test_a_table_holds_one_allocation_and_a_block(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(470, 2)), rng.normal(size=(480, 2))
        tracemalloc.start()
        try:
            pow_dist_matrix(a, b, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 470 * 480 * 8  # two whole tables before row blocks


class TestWeakTriangle:
    def test_equal_endpoints(self):
        x, y = seq(0, 1), seq(5, 9, 2)
        assert weak_triangle_check(x, y, x, 1)

    def test_hand_example(self):
        x, y, z = seq(0, 0), seq(0, 5), seq(5, 5)
        assert dtw(x, z, 1).distance == 10.0
        assert weak_triangle_check(x, y, z, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_triples(self, s):
        rng = np.random.default_rng(s)
        d = int(rng.integers(1, 3))
        x = random_sequence(rng, max_len=5, dim=d)
        y = random_sequence(rng, max_len=5, dim=d)
        z = random_sequence(rng, max_len=5, dim=d)
        p = float(rng.choice([1.0, 2.0]))
        assert weak_triangle_check(x, y, z, p)


@pytest.mark.parametrize(
    "run",
    [
        lambda T: mean_c(T, 0.3, 1.0, 1.0, 2, seed=-1),
        lambda T: med_appr(T, 1.0, 1.0, 0.3, 2, seed=-1),
        lambda T: k_clustering(T, ClusteringParams(k=1, beta=3.0, delta=0.3), seed=-1),
        lambda T: generate_synthetic(T.sequences[0], 2, 0.1, (2, 2), seed=-1),
    ],
    ids=["mean_c", "med_appr", "k_clustering", "generate_synthetic"],
)
def test_negative_seed_is_a_domain_error(run):
    # numpy's default_rng refuses it with a bare ValueError; seeded_rng names it
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        run(Dataset([seq(0, 1), seq(1, 2)]))


def reference_dedup(rows: np.ndarray) -> np.ndarray:
    """First occurrence of each tuple-equal row of a 2-D array, by dict."""
    seen: dict = {}
    for r in rows:
        seen.setdefault(tuple(r), r)
    return np.array(list(seen.values())).reshape(-1, rows.shape[1])


class TestDedupRows:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5)), min_size=d, max_size=d),
                min_size=1,
                max_size=20,
            )
        )
    )
    def test_rows_keep_their_first_copy_bit_for_bit(self, rows):
        rows = np.array(rows)
        got, expected = dedup_rows(rows), reference_dedup(rows)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_ids_in_first_occurrence_order(self, ids):
        ids = np.array(ids, dtype=np.intp)
        got = dedup_rows(ids)
        assert got.dtype == np.intp
        assert got.tolist() == list(dict.fromkeys(ids.tolist()))


@pytest.mark.parametrize("n", [2, 7, 8, 9, 33])
def test_fold_rows_adds_each_row_as_fold_does(n):
    # from 8 terms on numpy's pairwise `sum` adds in another order
    rng = np.random.default_rng(n)
    terms = rng.lognormal(sigma=3.0, size=(200, n))
    terms[0, -2:] = 1e308  # the last sum overflows
    got = core._fold_rows(terms)
    assert got[0] == math.inf
    with pytest.raises(DomainError):
        core._fold(terms[0].tolist(), 1.0)
    assert [x.hex() for x in got[1:]] == [core._fold(r, 1.0).hex() for r in terms[1:].tolist()]
