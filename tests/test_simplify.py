import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmean import DomainError, PointSequence, dtw, simplify
from dtwmean.core import pow_dist_matrix
from dtwmean.simplify import _anchors, _segments

from conftest import random_sequence, seq


def brute_force_best(pi: PointSequence, ell: int, p: float) -> float:
    """Reference minimum of dtw_p over all sequences of <= ell input vertices."""
    best = math.inf
    verts = pi.vertices
    for L in range(1, ell + 1):
        for combo in product(range(pi.complexity), repeat=L):
            cand = PointSequence(verts[list(combo)])
            d = dtw(pi, cand, p).distance
            if d < best:
                best = d
    return best


class TestSimplify:
    def test_constant_sequence(self):
        r = simplify(seq(5, 5, 5), 1, 1)
        assert r.sequence.as_list() == [[5.0]]
        assert r.discrete_cost == 0.0
        assert r.alpha == 2.0

    def test_two_plateaus(self):
        r = simplify(seq(0, 0, 10, 10), 2, 1)
        assert r.sequence.as_list() == [[0.0], [10.0]]
        assert r.discrete_cost == 0.0

    def test_single_anchor_ramp(self):
        # exhaustive check over x in {0, 4, 8}: costs 12, 8, 12
        r = simplify(seq(0, 4, 8), 1, 1)
        assert r.sequence.as_list() == [[4.0]]
        assert r.discrete_cost == 8.0

    def test_anchor_ties_go_to_smallest_index(self):
        # anchors 0 and 2 both cost 2^p to the block [0, 2]
        for p in (1, 2):
            r = simplify(seq(0, 2), 1, p)
            assert r.sequence.as_list() == [[0.0]]
            assert r.discrete_cost == 2.0

    def test_squared_cost_prefers_middle(self):
        # one anchor for 0, 0, 1, 3: anchors 0 and 1 both cost 4 at p = 1,
        # while at p = 2 anchor 1 costs 6 against anchor 0's 10
        assert simplify(seq(0, 0, 1, 3), 1, 1).sequence.as_list() == [[0.0]]
        r = simplify(seq(0, 0, 1, 3), 1, 2)
        assert r.sequence.as_list() == [[1.0]]
        assert r.discrete_cost == 6.0**0.5

    def test_ell_larger_than_input(self):
        r = simplify(seq(3), 4, 2)
        assert r.sequence.as_list() == [[3.0]]

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            pi = random_sequence(rng, max_len=7, min_len=1)
            ell = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0]))
            r = simplify(pi, ell, p)
            assert r.discrete_cost == pytest.approx(
                brute_force_best(pi, ell, p), rel=1e-9
            )

    def test_output_vertices_come_from_input(self, rng):
        for _ in range(20):
            pi = random_sequence(rng, max_len=6, dim=2)
            r = simplify(pi, 3, 2)
            assert r.sequence.complexity <= 3
            input_keys = {tuple(v) for v in pi.vertices}
            assert all(tuple(v) in input_keys for v in r.sequence.vertices)

    def test_cost_agrees_with_dtw(self, rng):
        for _ in range(20):
            pi = random_sequence(rng, max_len=6)
            r = simplify(pi, 2, 1)
            assert r.discrete_cost == pytest.approx(
                dtw(pi, r.sequence, 1).distance, rel=1e-9
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cost_non_increasing_in_ell(self, s):
        rng = np.random.default_rng(s)
        pi = random_sequence(rng, max_len=6)
        p = float(rng.choice([1.0, 2.0]))
        costs = [simplify(pi, ell, p).discrete_cost for ell in range(1, 5)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def reference_segments(powd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment tables filled block start by block start, each start's
    rows as one subtraction of a broadcast prefix row."""
    m = len(powd)
    prefix = np.vstack([np.zeros(m), np.cumsum(powd, axis=0)])
    seg_val = np.full((m, m), np.inf)
    seg_arg = np.zeros((m, m), dtype=int)
    for a in range(m):
        sums = prefix[a + 1 :] - prefix[a]  # rows b = a..m-1
        args = np.argmin(sums, axis=1)
        seg_arg[a, a:] = args
        seg_val[a, a:] = sums[np.arange(m - a), args]
    return seg_val, seg_arg


def reference_anchors(pool: np.ndarray, ell: int, p: float) -> tuple[list[int], float]:
    """`_anchors` over the block-start segment tables."""
    m = len(pool)
    L = min(ell, m)
    seg_val, seg_arg = reference_segments(pow_dist_matrix(pool, pool, p))
    D = np.full((m + 1, L + 1), np.inf)
    split = np.zeros((m + 1, L + 1), dtype=int)
    D[1:, 1] = seg_val[0, :]
    for j in range(2, L + 1):
        cand = D[j - 1 : m, j - 1, None] + seg_val[j - 1 :, j - 1 :]
        a0 = np.argmin(cand, axis=0)
        D[j:, j] = cand[a0, np.arange(m - j + 1)]
        split[j:, j] = j - 1 + a0
    j_star = 1 + int(np.argmin(D[m, 1:]))
    anchors: list[int] = []
    i, j = m, j_star
    while j >= 1:
        a = 0 if j == 1 else split[i, j]
        anchors.append(int(seg_arg[a, i - 1]))
        i, j = a, j - 1
    anchors.reverse()
    return anchors, float(D[m, j_star])


def anchor_inputs(rng, d: int):
    """(m, d) sequences: lengths 1..60 at scales 1e-5..1e5, then
    integer-rounded ones with repeated vertices and -0.0, so ties occur."""
    for m, scale in zip((1, 2, 17, 60, 33), (1e5, 1e-5, 1.0, 1e-3, 1e3)):
        yield np.cumsum(rng.normal(scale=scale, size=(m, d)), axis=0)
    for m in (5, 24, 40):
        pool = np.round(rng.normal(scale=1.5, size=(m, d)))
        pool[m // 2 :] = pool[: m - m // 2]
        pool[0] = -0.0
        yield pool


class TestSegmentTable:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_the_block_start_reference_bit_for_bit(self, d, p):
        rng = np.random.default_rng([d, int(2 * p)])
        for pool in anchor_inputs(rng, d):
            powd = pow_dist_matrix(pool, pool, p)
            (val, arg), (want_val, want_arg) = _segments(powd, p), reference_segments(powd)
            assert np.array_equal(val.view(np.int64), want_val.view(np.int64))
            assert np.array_equal(arg, want_arg)
            for ell in (1, 3, 8):
                (got, total), (want, want_total) = (
                    _anchors(pool, ell, p),
                    reference_anchors(pool, ell, p),
                )
                assert got == want and total.hex() == want_total.hex()

    def test_overflowing_prefix_sum_raises(self):
        # each p = 2 entry, at most 1e308, fits float64; the prefix sum of two does not
        with pytest.raises(DomainError, match="sum of distances raised to p = 2"):
            simplify(seq(0.0, 1e154, 1e154), 1, 2)
