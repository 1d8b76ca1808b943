import numpy as np
import pytest

import dtwmean.meanapprox as meanapprox
from dtwmean import (
    CapacityError,
    Dataset,
    cand1,
    cand2,
    cost,
    exact_mean,
    mean_c,
    mean_c_d,
)
from dtwmean.clustering import cand1_sample_size, cand2_sample_size
from dtwmean.meanapprox import eps_prime, mean_c_sample_size

from conftest import random_dataset, seq


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


class TestSampleGuard:
    """Every sampling step checks its draw count against `SAMPLE_GUARD` before
    it draws.  Only the guard is lowered: the instances stay tiny."""

    T = Dataset([seq(0.0, 1.0), seq(0.5, 2.0, 1.0), seq(1.0, 1.5)])
    RUNS = {
        "mean_c": (
            mean_c_sample_size(3, 2, 0.3, 1.0, 1.0),
            lambda T: mean_c(T, 0.3, 1.0, 1.0, 2, seed=0),
        ),
        "cand1": (
            cand1_sample_size(5.0, 0.3, 1.0, 1.0, 3, 2),
            lambda T: cand1(T, 5.0, 0.3, 1.0, 1.0, 2, seed=0),
        ),
        "cand2": (cand2_sample_size(5.0, 0.3), lambda T: cand2(T, 5.0, 1.0, 0.3, 2, seed=0)),
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
                drawn.append(kwargs["size"])
                return self.rng.integers(*args, **kwargs)

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
        assert res.candidate_set.provenance == "sampled"

    def test_argmin_contract(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        res = mean_c(T, 0.3, 1.0, 1.0, 2, seed=5)
        for cand in res.candidate_set.candidates:
            assert res.cost <= cost(T, cand, 1, 1) + 1e-12

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
        assert res.candidate_set.provenance == "net"

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

    def test_argmin_contract(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        res = mean_c_d(T, 1.0, 1.0, 2)
        for cand in res.candidate_set.candidates:
            assert res.cost <= cost(T, cand, 1, 1) + 1e-12
