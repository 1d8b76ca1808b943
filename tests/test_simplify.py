import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmean import PointSequence, dtw, simplify

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
