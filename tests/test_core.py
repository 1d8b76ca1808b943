import math
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
    dtw,
    enumerate_warpings,
    optimal_sections,
    sections,
    simplify,
    warping_count,
    weak_triangle_check,
)
from dtwmean.core import dtw_distances, pow_dist_matrix, warping_pow_cost
from dtwmean.errors import CapacityError

from conftest import random_dataset, random_sequence, seq


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
        for call in (
            lambda: dtw(a, b, 1.0),
            lambda: cost(T, a, 1.0, 1.0),
            lambda: simplify(a, 1, 1.0),
        ):
            with pytest.raises(DomainError, match="overflows float64"):
                call()


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
