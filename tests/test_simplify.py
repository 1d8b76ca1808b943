import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmean import DomainError, PointSequence, dtw, simplify
from dtwmean.core import pow_dist_matrix
from dtwmean.simplify import _anchors

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
    """(m, m) tables of the best anchor cost and pool index of every input
    block a..b, as differences of column prefix sums, filled block start by
    block start."""
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
    """The O(m^3) segment-table DP: the best split per (prefix, block count)
    over the block costs of `reference_segments`, ties to the smallest
    anchor, split and length."""
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
    """(m, d) sequences of three kinds: random walks of lengths 1..60 at
    scales 1e-5..1e5, then small-integer points (one of them -0.0) and walks
    rounded to one decimal, whose repeated vertices and distances make exact
    ties."""
    for m, scale in zip((1, 2, 17, 60, 33), (1e5, 1e-5, 1.0, 1e-3, 1e3)):
        yield np.cumsum(rng.normal(scale=scale, size=(m, d)), axis=0)
    for m in (3, 5, 24, 40):
        pool = rng.integers(-3, 4, size=(m, d)).astype(float)
        pool[0] = -0.0
        yield pool
    for m in (4, 9, 31):
        yield np.round(np.cumsum(rng.normal(size=(m, d)), axis=0), 1)


def dtw_p(pool: np.ndarray, anchors: list[int], p: float) -> float:
    """dtw_p of the simplification `anchors` to `pool`, recomputed by `dtw`."""
    return dtw(PointSequence(pool[anchors]), PointSequence(pool), p).distance


#: dimension-1 pools whose single tie (anchor 1 or 2 for the block 1..2 at
#: ell = 2) the prefix-sum differences break toward anchor 2
TIED_RAMPS = [
    ([0.05314877059690459, 0.6126643152881783, 1.0740842173093352], 1.0),
    ([0.03220388173220595, 0.5906767227085096, 1.0206191634687976], 1.0),
    ([0.03220388173220595, 0.5906767227085096, 1.0206191634687976], 2.0),
]


class TestAnchorDP:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cost_recomputes_and_is_no_worse_than_the_segment_table(self, d, p):
        rng = np.random.default_rng([d, int(2 * p)])
        for pool in anchor_inputs(rng, d):
            for ell in (1, 2, 3, 8):
                anchors, total = _anchors(pool, ell, p)
                assert len(anchors) <= ell
                got = dtw_p(pool, anchors, p)
                # the reported cost is the emitted sequence's dtw_p, bit for bit
                assert (total ** (1.0 / p)).hex() == got.hex()
                want = dtw_p(pool, reference_anchors(pool, ell, p)[0], p)
                assert got <= want * (1 + 1e-12)

    def test_large_offset_does_not_swamp_later_blocks(self):
        # as differences of prefix sums, every later block cost is lost in the
        # 1e16 term of the first block, and ell = 4 would report 0.0
        pi = seq(1e8, 0, 1, 0, 1, 0, 3, 0, 1)
        r = simplify(pi, 3, 2)
        assert r.sequence.as_list() == [[1e8], [0.0], [1.0]]
        assert r.discrete_cost == 2.6457513110645907
        r = simplify(pi, 4, 2)
        assert r.discrete_cost == 1.7320508075688772
        assert r.discrete_cost == dtw(pi, r.sequence, 2).distance

    @pytest.mark.parametrize("coords, p", TIED_RAMPS)
    def test_exact_anchor_ties_keep_the_segment_table_choice(self, coords, p):
        pool = np.array(coords).reshape(-1, 1)
        assert _anchors(pool, 2, p)[0] == [0, 2]
        assert reference_anchors(pool, 2, p)[0] == [0, 2]
        # the tie is exact, so smallest index alone would pick anchor 1
        assert dtw_p(pool, [0, 1], p) == dtw_p(pool, [0, 2], p)

    def test_overflowing_column_sum_with_a_finite_optimum(self):
        # each p = 2 entry, at most 1e308, fits float64; column 0 sums to inf,
        # but the best cover, anchor 1e154, costs 1e308
        pi = seq(0.0, 1e154, 1e154)
        r = simplify(pi, 1, 2)
        assert r.sequence.as_list() == [[1e154]]
        assert r.discrete_cost == dtw(pi, r.sequence, 2).distance == 1e154

    def test_overflowing_optimum_raises(self):
        # every one-block cover sums two 1e308 terms
        with pytest.raises(DomainError, match="sum of distances raised to p = 2"):
            simplify(seq(0.0, 1e154, 1e154, 0.0), 1, 2)

    def test_tie_between_overflowed_columns_goes_to_the_smallest_index(self):
        # the last block, position 3 alone, ties anchors 0 and 3, and both
        # columns' prefix sums overflow, so their difference reads nan
        pool = seq(0.0, 1e154, 1e154, 0.0).vertices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            anchors, total = _anchors(pool, 2, 2)
        assert anchors == [1, 0]
        assert total == 1e308
