import numpy as np
import pytest

import dtwmean.oracle as oracle
from dtwmean import (
    CapacityError,
    Dataset,
    DomainError,
    PointSequence,
    cost,
    dtw,
    exact_clustering,
    exact_mean,
)

from conftest import random_dataset, random_sequence, seq


class TestExactMean:
    @pytest.mark.parametrize("p,q", [(1, 0.5), (0.5, 1), (0.5, 0.5)])
    def test_discrete_exponents_below_1_refused_before_any_search(self, monkeypatch, p, q):
        monkeypatch.setattr(oracle, "_exact_mean_discrete", lambda *a: pytest.fail("searched"))
        T = Dataset([seq(0, 1), seq(2)])
        with pytest.raises(DomainError, match="p and q must be >= 1"):
            exact_mean(T, 2, "discrete", p, q)
        with pytest.raises(DomainError, match="p and q must be >= 1"):
            exact_clustering(T, 1, 2, "discrete", p, q)

    def test_identity(self):
        s = seq(1, 4, 2)
        r = exact_mean(Dataset([s]), 3, "line-1-1")
        assert r.cost == 0.0
        assert dtw(r.mean, s, 1).distance == 0.0

    def test_two_constant_pairs_mean(self):
        T = Dataset([seq(0, 0), seq(2, 2)])
        r = exact_mean(T, 1, "euclidean-2-2")
        assert r.mean.as_list() == [[1.0]]
        assert r.cost == 4.0

    def test_two_constant_pairs_median_lower_tie(self):
        T = Dataset([seq(0, 0), seq(2, 2)])
        r = exact_mean(T, 1, "line-1-1")
        # any point of [0, 2] is optimal; the lower median picks 0
        assert r.mean.as_list() == [[0.0]]
        assert r.cost == 4.0

    def test_cost_recomputable_from_mean(self, rng):
        for mode, p, q in [("line-1-1", 1, 1), ("euclidean-2-2", 2, 2)]:
            T = random_dataset(rng, n=3, max_len=3)
            r = exact_mean(T, 2, mode)
            assert r.cost == pytest.approx(cost(T, r.mean, p, q), rel=1e-9)

    def test_warping_tuple_reproduces_cost(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        r = exact_mean(T, 2, "line-1-1")
        total = 0.0
        for w, tau in zip(r.warping_tuple, T.sequences):
            w.validate(r.mean.complexity, tau.complexity)
            total += sum(
                abs(float(r.mean.vertices[j - 1, 0] - tau.vertices[k - 1, 0]))
                for j, k in w.pairs
            )
        assert total == pytest.approx(r.cost, rel=1e-9)

    def test_global_optimality_spot_check(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        for mode, p, q in [("line-1-1", 1, 1), ("euclidean-2-2", 2, 2)]:
            r = exact_mean(T, 2, mode)
            for _ in range(500):
                c = random_sequence(rng, max_len=2)
                assert r.cost <= cost(T, c, p, q) * (1 + 1e-12)

    def test_discrete_not_below_continuous(self, rng):
        for _ in range(10):
            T = random_dataset(rng, n=3, max_len=3)
            cont = exact_mean(T, 2, "line-1-1").cost
            disc = exact_mean(T, 2, "discrete", p=1, q=1).cost
            assert disc >= cont - 1e-12

    def test_agrees_with_fine_coordinate_grid(self, rng):
        # 1-D, ell = 1: scan a fine grid of single-vertex means
        T = random_dataset(rng, n=3, max_len=3, lo=0.0, hi=4.0)
        r = exact_mean(T, 1, "line-1-1")
        grid = np.linspace(-1.0, 5.0, 1201)
        best = min(cost(T, PointSequence([[g]]), 1, 1) for g in grid)
        assert r.cost <= best + 1e-9
        assert best - r.cost <= 0.05  # grid resolution slack

    def test_mode_validation(self):
        T = Dataset([seq(0, 1)])
        with pytest.raises(DomainError):
            exact_mean(T, 1, "line-1-1", p=2)
        with pytest.raises(DomainError):
            exact_mean(T, 1, "discrete")
        with pytest.raises(DomainError):
            exact_mean(Dataset([PointSequence([[0.0, 0.0]])]), 1, "line-1-1")

    def test_guard(self):
        T = Dataset([seq(*range(12)) for _ in range(8)])
        with pytest.raises(CapacityError):
            exact_mean(T, 4, "line-1-1")


    def test_discrete_guard_is_exact(self, monkeypatch):
        T = Dataset([seq(0, 1), seq(2, 1)])  # 3 pool points: 3 + 9 tuples up to length 2
        monkeypatch.setattr(oracle, "TUPLE_GUARD", 12)
        assert exact_mean(T, 2, "discrete", 1, 1).cost == 2.0
        monkeypatch.setattr(oracle, "TUPLE_GUARD", 11)
        with pytest.raises(CapacityError, match="^at least 12 candidates exceed the guard of 11$"):
            exact_mean(T, 2, "discrete", 1, 1)

    @pytest.mark.parametrize(
        "values, mode",
        [
            ([[6e299], [-2e300], [-2e300]], "euclidean-2-2"),  # squares overflow
            ([[1.5e308], [-1.5e308]], "line-1-1"),  # a difference overflows
        ],
    )
    def test_overflowing_section_cost_is_a_domain_error(self, values, mode):
        T = Dataset([PointSequence(values), PointSequence([[-2.7e300]])])
        with pytest.raises(DomainError, match="overflows float64"):
            exact_mean(T, 1, mode)

class TestExactClustering:
    def test_k_equals_n_zero_cost(self):
        T = Dataset([seq(0, 1), seq(5, 6), seq(9, 9)])
        centers, total = exact_clustering(T, 3, 2, "line-1-1")
        assert total == 0.0

    def test_k_one_matches_exact_mean(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        centers, total = exact_clustering(T, 1, 2, "line-1-1")
        assert total == pytest.approx(exact_mean(T, 2, "line-1-1").cost, rel=1e-12)
        assert len(centers) == 1

    def test_separated_groups(self):
        T = Dataset([seq(0, 0), seq(0.2, 0.2), seq(50, 50), seq(50.2, 50.2)])
        centers, total = exact_clustering(T, 2, 1, "line-1-1")
        group_costs = (
            exact_mean(Dataset(T.sequences[:2]), 1, "line-1-1").cost
            + exact_mean(Dataset(T.sequences[2:]), 1, "line-1-1").cost
        )
        assert total == pytest.approx(group_costs, rel=1e-9)

    def test_guards(self):
        T = Dataset([seq(0, 1) for _ in range(9)])
        with pytest.raises(CapacityError):
            exact_clustering(T, 2, 2, "line-1-1")
        with pytest.raises(CapacityError):
            exact_clustering(Dataset([seq(0)]), 4, 1, "line-1-1")

    def test_every_partition_total_overflowing_raises_the_q_overflow_error(self, monkeypatch):
        # every term fits float64, no sum of two does, so no partition's total is finite
        monkeypatch.setattr(oracle, "_q_powers", lambda ends, p, q: [1e308] * len(ends))
        with pytest.raises(DomainError, match="q = 1.0, or a sum of such powers"):
            exact_clustering(Dataset([seq(0), seq(1), seq(2)]), 2, 1, "line-1-1")
