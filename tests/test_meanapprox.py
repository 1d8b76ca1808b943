import math

import numpy as np
import pytest

import dtwmean.meanapprox as meanapprox
from dtwmean import (
    CapacityError,
    Dataset,
    DomainError,
    cost,
    exact_mean,
    mean_c,
    mean_c_d,
)
from dtwmean.clustering import ClusteringParams, cand1_sample_size, cand2_sample_size, k_clustering
from dtwmean.meanapprox import dedup_rows, enumerate_tuples, eps_prime, mean_c_sample_size
from dtwmean.ranges import epsilon_net

from conftest import random_dataset, seq
from test_core import reference_dedup


def assert_argmin(T, res, points):
    """`res` is the cheapest of every sequence of length 1..2 over `points`."""
    costs = [cost(T, c, 1, 1) for block in enumerate_tuples(points, 2) for c in block]
    assert res.candidates_scored == len(costs)
    assert all(res.cost <= c + 1e-12 for c in costs)
    assert res.cost == pytest.approx(min(costs), rel=1e-12)


class TestSampleSize:
    def test_worked_example(self):
        # m=5, ell=2, delta=0.5, eps=1, p=1: ceil(5 * 2 ln 2 / 0.5) = 14
        assert mean_c_sample_size(5, 2, 0.5, 1.0, 1.0) == 14

    def test_eps_prime(self):
        assert eps_prime(1.0, 1.0) == 0.5

    def test_monotone_in_delta(self):
        assert mean_c_sample_size(4, 2, 0.01, 1.0, 1.0) >= mean_c_sample_size(
            4, 2, 0.5, 1.0, 1.0
        )

    def test_large_p_keeps_the_formulas(self):
        # 2^(p - 1) is the largest finite power of two at p = 1024
        assert eps_prime(1.0, 1024.0) == 1.0 / (2.0**1023.0 + 1.0)
        assert mean_c_sample_size(3, 2, 0.5, 1.0, 1000.0) == math.ceil(
            3 * (math.log(2) + math.log(2.0)) / (1.0 / (2.0**999.0 + 1.0))
        )
        assert cand1_sample_size(5.0, 0.3, 1.0, 1000.0, 3, 2) == math.ceil(
            (2.0**1000.0 + 1.0) * 5.0 * 3 * math.log(2 / 0.3)
        )

    @pytest.mark.parametrize(
        "size",
        [
            lambda: eps_prime(1.0, 1025.0),
            lambda: mean_c_sample_size(3, 2, 0.5, 1.0, 1025.0),
            lambda: mean_c_sample_size(3, 2, 0.5, 1e-300, 1000.0),
            lambda: cand1_sample_size(5.0, 0.3, 1.0, 1024.0, 3, 2),
            lambda: cand1_sample_size(5.0, 0.3, 1e-300, 1000.0, 3, 2),
        ],
    )
    def test_overflowing_size_is_a_domain_error(self, size):
        with pytest.raises(DomainError, match="overflows a float"):
            size()


class TestSampleGuard:
    """Every sampling step checks its draw count against `SAMPLE_GUARD` before
    it draws.  Only the guard is lowered: the instances stay tiny."""

    T = Dataset([seq(0.0, 1.0), seq(0.5, 2.0, 1.0), seq(1.0, 1.5)])
    RUNS = {
        "mean_c": (
            mean_c_sample_size(3, 2, 0.3, 1.0, 1.0),
            lambda T: mean_c(T, 0.3, 1.0, 1.0, 2, seed=0),
        ),
        # at k = 1 only the root draws, at delta / (k + 1) = 0.3
        "cand1": (
            cand1_sample_size(5.0, 0.3, 1.0, 1.0, 3, 2),
            lambda T: k_clustering(T, ClusteringParams(k=1, beta=5.0, delta=0.6), "cand1"),
        ),
        "cand2": (
            cand2_sample_size(5.0, 0.3),
            lambda T: k_clustering(T, ClusteringParams(k=1, beta=5.0, delta=0.6), "cand2"),
        ),
    }

    @pytest.mark.parametrize("algo", sorted(RUNS))
    def test_guard_checked_before_drawing(self, monkeypatch, algo):
        size, run = self.RUNS[algo]
        drawn = []
        real_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def integers(self, *args, **kwargs):
                values = self.rng.integers(*args, **kwargs)
                drawn.append(len(values))
                return values

        monkeypatch.setattr(np.random, "default_rng", Recording)
        monkeypatch.setattr(meanapprox, "SAMPLE_GUARD", size - 1)
        with pytest.raises(CapacityError, match=f"^{size} draws exceed the sample guard of {size - 1}$"):
            run(self.T)
        assert drawn == []
        monkeypatch.setattr(meanapprox, "SAMPLE_GUARD", size)
        run(self.T)
        assert drawn == [size]


class TestMeanC:
    def test_degenerate_dataset_recovers_input(self):
        s = seq(0, 3)
        T = Dataset([s] * 4)
        res = mean_c(T, 0.3, 1.0, 1.0, 2, seed=11)
        assert res.cost == 0.0

    def test_argmin_contract(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        res = mean_c(T, 0.3, 1.0, 1.0, 2, seed=5)
        # the candidates mean_c scores: every tuple over its seeded sample
        pool = T.vertex_pool()
        size = mean_c_sample_size(T.m, 2, 0.3, 1.0, 1.0)
        draws = np.random.default_rng(5).integers(0, len(pool), size=size)
        assert_argmin(T, res, dedup_rows(pool[draws]))

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_scores_exactly_the_distinct_drawn_rows(self, monkeypatch, seed):
        # duplicated vertices and both signs of zero, so the draws repeat rows
        T = Dataset([[[0.0, 1.0], [-0.0, 1.0], [2.0, 0.0]], [[2.0, -0.0], [0.0, 1.0], [1.0, 1.0]]])
        scored = []
        real = meanapprox.argmin_tuples

        def recording(T, points, ell, p, q):
            scored.append(points.copy())
            return real(T, points, ell, p, q)

        monkeypatch.setattr(meanapprox, "argmin_tuples", recording)
        res = mean_c(T, 0.3, 1.0, 1.0, 2, seed=seed)
        pool = T.vertex_pool()
        size = mean_c_sample_size(T.m, 2, 0.3, 1.0, 1.0)
        draws = np.random.default_rng(seed).integers(0, len(pool), size=size)
        [points] = scored
        for expected in (dedup_rows(pool[draws]), reference_dedup(pool[draws])):
            assert points.shape == expected.shape and points.tobytes() == expected.tobytes()
        assert res.candidates_scored == len(points) + len(points) ** 2

    def test_reported_cost_recomputable(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        res = mean_c(T, 0.3, 1.0, 2.0, 2, seed=5)
        assert res.cost == pytest.approx(cost(T, res.sequence, 2, 2), rel=1e-9)

    def test_seed_reproducibility(self, rng):
        T = random_dataset(rng, n=5, max_len=3)
        a = mean_c(T, 0.3, 1.0, 1.0, 2, seed=42)
        b = mean_c(T, 0.3, 1.0, 1.0, 2, seed=42)
        assert a.sequence == b.sequence and a.cost == b.cost

    def test_candidate_guard(self):
        T = Dataset([seq(*np.arange(8.0) + 10 * i) for i in range(6)])
        with pytest.raises(CapacityError):
            mean_c(T, 0.01, 0.05, 1.0, 5, seed=0)

    def test_success_rate_on_tiny_instances(self, rng):
        # loose smoke version of the Monte-Carlo acceptance criterion
        hits = 0
        trials = 40
        for t in range(trials):
            T = random_dataset(rng, n=4, max_len=3, min_len=2)
            opt = exact_mean(T, 2, "line-1-1").cost
            res = mean_c(T, 0.2, 1.0, 1.0, 2, seed=1000 + t)
            if res.cost <= 3.0 * opt + 1e-9:
                hits += 1
        assert hits / trials >= 0.75


class TestMeanCD:
    def test_degenerate_dataset(self):
        s = seq(1, 2)
        T = Dataset([s] * 3)
        res = mean_c_d(T, 1.0, 1.0, 2)
        assert res.cost == 0.0

    def test_deterministic_bit_for_bit(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        a = mean_c_d(T, 1.0, 1.0, 2)
        b = mean_c_d(T, 1.0, 1.0, 2)
        assert a.sequence.as_list() == b.sequence.as_list()
        assert a.cost == b.cost

    def test_always_within_factor(self, rng):
        # p=1, eps=1: guaranteed within factor 3 of the optimum, every time
        for _ in range(8):
            T = random_dataset(rng, n=4, max_len=3, min_len=2)
            opt = exact_mean(T, 2, "line-1-1").cost
            res = mean_c_d(T, 1.0, 1.0, 2)
            assert res.cost <= 3.0 * opt + 1e-9

    def test_empty_net_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(meanapprox, "epsilon_net", lambda points, eps: np.empty((0, 1)))
        with pytest.raises(DomainError, match="eps-net of the vertex pool is empty"):
            mean_c_d(Dataset([seq(1, 2)] * 3), 1.0, 1.0, 2)

    def test_tiny_coordinates_score_the_unit_scale_net(self):
        T = Dataset(
            [[[0, 0], [1, 0.5], [2, 1]], [[0.3, 2], [1.5, 1.5]], [[0.5, 0.2], [1.2, 1.1], [2.2, 0.7]]]
        )
        for p in (1.0, 2.0):
            unit = mean_c_d(T, 1.0, p, 2)
            for scale in (1e-9, 1e-10, 2.0**-100):
                tiny = mean_c_d(Dataset([s.vertices * scale for s in T.sequences]), 1.0, p, 2)
                assert tiny.candidates_scored == unit.candidates_scored

    def test_argmin_contract(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        res = mean_c_d(T, 1.0, 1.0, 2)
        assert_argmin(T, res, epsilon_net(T.vertex_pool(), eps_prime(1.0, 1.0) / T.m))
