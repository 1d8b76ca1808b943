import warnings

import numpy as np
import pytest

from dtwmean import CapacityError, DomainError, ball_ranges, epsilon_net
from dtwmean.ranges import heavy_threshold


def interval_family(xs: np.ndarray) -> set[frozenset[int]]:
    """Independent 1-D reference: balls on the line are exactly intervals."""
    order = np.argsort(xs.ravel(), kind="stable")
    out = {frozenset()}
    for a in range(len(order)):
        for b in range(a, len(order)):
            out.add(frozenset(int(i) for i in order[a : b + 1]))
    return out


def probe_ranges(Y: np.ndarray, rng, trials=300) -> set[frozenset[int]]:
    """Random center/radius probing; every probed range must be enumerated."""
    lo, hi = Y.min(axis=0) - 1.0, Y.max(axis=0) + 1.0
    out = set()
    for _ in range(trials):
        c = rng.uniform(lo - 2.0, hi + 2.0)
        r = float(rng.uniform(0, 1.5 * np.linalg.norm(hi - lo + 1e-9)))
        dists = np.linalg.norm(Y - c, axis=1)
        out.add(frozenset(int(i) for i in np.flatnonzero(dists <= r)))
    return out


class TestBallRanges:
    def test_two_points_line(self):
        got = set(ball_ranges([[0.0], [1.0]]))
        assert got == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }

    def test_three_points_line_no_gap_set(self):
        got = set(ball_ranges([[0.0], [1.0], [2.0]]))
        assert frozenset({0, 2}) not in got
        assert got == interval_family(np.array([[0.0], [1.0], [2.0]]))

    def test_singleton(self):
        assert set(ball_ranges([[4.0]])) == {frozenset(), frozenset({0})}

    def test_matches_interval_family_random(self, rng):
        for _ in range(10):
            xs = rng.uniform(0, 10, size=(int(rng.integers(2, 9)), 1))
            assert set(ball_ranges(xs)) == interval_family(xs)

    def test_probing_subset_2d(self, rng):
        for _ in range(5):
            Y = rng.uniform(0, 10, size=(int(rng.integers(3, 9)), 2))
            enumerated = set(ball_ranges(Y))
            assert probe_ranges(Y, rng) <= enumerated

    def test_probing_subset_3d(self, rng):
        Y = rng.uniform(0, 5, size=(6, 3))
        assert probe_ranges(Y, rng, trials=200) <= set(ball_ranges(Y))

    def test_guards(self):
        with pytest.raises(CapacityError):
            ball_ranges(np.arange(41.0).reshape(-1, 1))
        with pytest.raises(CapacityError):
            ball_ranges(np.zeros((2, 4)))

    @pytest.mark.parametrize("gap", [4.5e-54, 1e-10])
    def test_pairs_below_unit_spacing_share_a_range(self, gap):
        assert frozenset({0, 1}) in ball_ranges([[0.0], [gap]])

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            ball_ranges([[1.0], [1.0]])

    def test_three_axis_array_rejected(self):
        with pytest.raises(DomainError, match=r"points must form an \(n, d\) array"):
            ball_ranges(np.zeros((2, 2, 1)))


class TestEpsilonNet:
    def test_hits_all_heavy_ranges(self, rng):
        for _ in range(6):
            P = rng.uniform(0, 10, size=(int(rng.integers(4, 13)), int(rng.integers(1, 3))))
            for eps in (0.2, 0.3, 0.5):
                net = epsilon_net(P, eps)
                net_keys = {tuple(v) for v in net}
                threshold = heavy_threshold(eps, len(P))
                for R in ball_ranges(P):
                    if len(R) > 0 and len(R) >= threshold:
                        assert any(tuple(P[i]) in net_keys for i in R)

    def test_eps_one_single_point(self):
        net = epsilon_net(np.arange(6.0).reshape(-1, 1), 1.0)
        assert len(net) == 1

    def test_identical_points_collapse(self):
        net = epsilon_net(np.zeros((7, 2)), 0.5)
        assert net.tolist() == [[0.0, 0.0]]

    def test_deterministic(self, rng):
        P = rng.uniform(0, 10, size=(10, 2))
        a = epsilon_net(P, 0.3)
        b = epsilon_net(P, 0.3)
        assert a.tolist() == b.tolist()

    def test_interval_cover_example(self):
        P = np.arange(10.0).reshape(-1, 1)
        net = epsilon_net(P, 0.3)
        chosen = sorted(net.ravel().tolist())
        # every window of three consecutive integers must contain a net point
        for start in range(8):
            assert any(start <= c <= start + 2 for c in chosen)

    @pytest.mark.parametrize("k", [-100, -40, 0, 40, 100])
    def test_net_does_not_depend_on_scale(self, k, rng):
        sets = [np.array([[0, 0], [1, 0.5], [2, 1], [0.3, 2], [1.5, 1.5]])]
        sets += [rng.uniform(-3, 3, size=(9, d)) for d in (1, 2)]
        for P in sets:
            net = epsilon_net(P, 0.3)
            assert len(net) > 0
            # a power of two scales every coordinate exactly
            assert np.array_equal(epsilon_net(P * 2.0**k, 0.3), net * 2.0**k)
        assert len(epsilon_net(sets[0], 0.3)) == 3

    def test_eps_out_of_range(self):
        with pytest.raises(DomainError):
            epsilon_net(np.zeros((2, 1)), 0.0)

    @pytest.mark.parametrize(
        "P",
        [
            [[1e200], [-1e200], [3e200]],  # a distance between two points
            [[0.0], [1e154]],  # finite distances, but 2 |v|^2 in the sphere system
        ],
    )
    def test_overflow_is_a_domain_error_without_warnings(self, P):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows float64"):
                epsilon_net(np.array(P), 0.5)
