import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmean import (
    ClusteringParams,
    Dataset,
    DomainError,
    PointSequence,
    clustering_cost,
    cost,
    dtw,
    exact_clustering,
    k_clustering,
    simplify,
)
from dtwmean.clustering import _cand1, _cand2, _PointTable

from conftest import random_dataset, seq


def planted_two_groups(rng, gap=30.0, noise=0.3, per_group=3):
    seqs = []
    for base in ((0.0, 1.0), (gap, gap + 1.0)):
        for _ in range(per_group):
            seqs.append(
                PointSequence(
                    np.array(base).reshape(-1, 1)
                    + rng.uniform(-noise, noise, size=(2, 1))
                )
            )
    return Dataset(seqs)


class TestSampleSizes:
    def test_cand1_worked_example(self):
        from dtwmean.clustering import cand1_sample_size

        assert cand1_sample_size(4.0, 2 / math.e, 2.0, 1.0, 3, 2) == 24

    def test_cand2_worked_example(self):
        from dtwmean.clustering import cand2_sample_size

        assert cand2_sample_size(4.0, 0.5) == 16

    def test_formulas_across_parameter_grid(self):
        from dtwmean.clustering import cand1_sample_size, cand2_sample_size

        combos = 0
        for beta in (3.0, 5.0):
            for delta in (0.1, 0.3):
                for eps in (0.5, 1.0, 2.0):
                    for p in (1.0, 2.0):
                        for m, ell in ((2, 2), (4, 3)):
                            expected = math.ceil(
                                (2.0**p / eps + 1.0) * beta * m * math.log(ell / delta)
                            )
                            assert cand1_sample_size(beta, delta, eps, p, m, ell) == expected
                            combos += 1
                expected2 = math.ceil(2.0 * beta * math.log2(2.0 / delta))
                assert cand2_sample_size(beta, delta) == expected2
        assert combos >= 20


def cand1_ids(T, beta, delta, eps, p, ell, seed):
    """The pool-id tuples `k_clustering`'s cand1 generator draws at its root:
    all tuples of length 1..ell over the sample, by length, then lexicographic."""
    pool_ids = np.arange(len(T.vertex_pool()))
    sample = _cand1(pool_ids, T.m, beta, delta, eps, p, ell, np.random.default_rng(seed))
    return [c for L in range(1, ell + 1) for c in product(sample, repeat=L)]


class TestCandidateGenerators:
    def test_cand1_ell_one_gives_single_vertices(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        ids = cand1_ids(T, beta=4.0, delta=0.3, eps=1.0, p=1.0, ell=1, seed=2)
        assert ids and all(len(c) == 1 for c in ids)
        assert len(set(ids)) == len(ids)
        assert all(0 <= c[0] < len(T.vertex_pool()) for c in ids)

    def test_cand2_copies_collapse_to_one_simplification(self):
        s = seq(0, 4, 4, 0)
        T = Dataset([s] * 5)
        table = _PointTable(T, 1.0, 2)
        found = _cand2(tuple(range(T.n)), table.simplified, 4.0, 0.5, np.random.default_rng(3))
        assert len(found) == 1
        [(c, i)] = found.items()
        cand = table.sequence(c, (i,))
        expected = simplify(s, 2, 1.0).sequence
        assert cand == expected
        n_times = cost(T, cand, 1, 1)
        assert n_times == pytest.approx(5 * dtw(s, expected, 1).distance, rel=1e-9)

    def test_cand1_seed_reproducible(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        a = cand1_ids(T, 4.0, 0.3, 1.0, 1.0, 2, seed=9)
        b = cand1_ids(T, 4.0, 0.3, 1.0, 1.0, 2, seed=9)
        assert a == b

    def test_cand1_contains_good_subset_candidate(self, rng):
        # Monte-Carlo sanity: for a fixed half of the input, the candidate set
        # should usually contain a 3-approximate median of that half
        hits = 0
        trials = 20
        for t in range(trials):
            T = planted_two_groups(rng, per_group=2)
            half = Dataset(T.sequences[:2])
            opt = exact_clustering(half, 1, 2, "line-1-1")[1]
            pool = T.vertex_pool()
            ids = cand1_ids(T, beta=2.0, delta=0.2, eps=1.0, p=1.0, ell=2, seed=300 + t)
            best = min(clustering_cost(half, [pool[list(c)]], 1, 1) for c in ids)
            if best <= 3.0 * opt + 1e-9:
                hits += 1
        assert hits / trials >= 0.75


def reference_simplified(table, i):
    """The pool ids of sequence i's simplification, matched back from
    `simplify`'s output vertices by coordinate equality to the first equal
    input vertex: the match `_PointTable.simplified` made before it took
    the anchor indices from the simplification DP itself."""
    verts = simplify(table.T.sequences[i], table.ell, table.p).sequence.vertices
    own = table.T.sequences[i].vertices
    pos = (own[None, :, :] == verts[:, None, :]).all(axis=2).argmax(axis=1)
    return tuple(table.seq_ids[i][pos].tolist())


# few distinct coordinates, signed zeros among them, so vertices repeat
repeating = st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5))


@st.composite
def repetitive_datasets(draw):
    d = draw(st.integers(1, 2))
    vertex = st.lists(repeating, min_size=d, max_size=d)
    return Dataset(draw(st.lists(st.lists(vertex, min_size=1, max_size=6), min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(repetitive_datasets(), st.integers(1, 4), st.sampled_from((1.0, 2.0)))
def test_simplified_ids_match_the_coordinate_equality_reference(T, ell, p):
    table = _PointTable(T, p, ell)
    for i in range(T.n):
        ids = table.simplified(i)
        assert ids == reference_simplified(table, i)
        # copied from sequence i, the ids rebuild simplify's output bit for bit
        built = table.sequence(ids, (i,)).vertices
        assert built.tobytes() == simplify(T.sequences[i], ell, p).sequence.vertices.tobytes()


class TestClusteringCost:
    def test_centers_equal_dataset(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        assert clustering_cost(T, list(T.sequences), 1, 1) == 0.0

    def test_single_center_matches_cost(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        c = T.sequences[0]
        assert clustering_cost(T, [c], 1, 2) == pytest.approx(
            cost(T, c, 1, 2), rel=1e-12
        )

    def test_hand_instance(self):
        T = Dataset([seq(0, 2), seq(0, 1, 2)])
        centers = [seq(0, 2), seq(50, 60)]
        assert clustering_cost(T, centers, 1, 1) == 1.0

    def test_monotone_under_added_center(self, rng):
        for _ in range(10):
            T = random_dataset(rng, n=4, max_len=3)
            c1 = [T.sequences[0]]
            c2 = c1 + [T.sequences[1]]
            assert clustering_cost(T, c2, 1, 1) <= clustering_cost(T, c1, 1, 1)


class TestKClustering:
    def params(self, k=2, beta=8.0, **kw):
        base = dict(k=k, beta=beta, delta=0.2, p=1.0, q=1.0, ell=2, eps=1.0)
        base.update(kw)
        return ClusteringParams(**base)

    def test_beta_must_exceed_two_k(self):
        with pytest.raises(DomainError):
            ClusteringParams(k=2, beta=4.0, delta=0.2)

    def test_k_one_matches_generator_argmin(self, rng):
        T = random_dataset(rng, n=4, max_len=3)
        res = k_clustering(T, self.params(k=1, beta=3.0), "cand1", seed=5)
        assert len(res.centers) == 1
        assert res.cost == pytest.approx(
            clustering_cost(T, res.centers, 1, 1), rel=1e-9
        )

    @pytest.mark.parametrize("generator", ["cand1", "cand2"])
    def test_every_leaf_total_overflowing_raises_as_clustering_cost(self, generator):
        # each square fits float64; with one center, every leaf's sum of
        # three does not, and with two, the best leaf's sum fits
        T = Dataset([[[0.0, 0.0]], [[1e154, 0.0]], [[0.5e154, 0.866e154]]])
        with pytest.raises(DomainError, match="q = 2.0, or a sum of such powers"):
            clustering_cost(T, [T.sequences[0]], 1.0, 2.0)
        with pytest.raises(DomainError, match="q = 2.0, or a sum of such powers"):
            k_clustering(T, self.params(k=1, beta=3.0, q=2.0, ell=1), generator, seed=0)
        res = k_clustering(T, self.params(k=2, beta=5.0, q=2.0, ell=1), generator, seed=0)
        assert res.cost.hex() == "0x1.1ccc03191bc70p+1023"  # 9.99956e307
        assert res.cost == clustering_cost(T, res.centers, 1.0, 2.0)

    def test_k_at_least_n_reaches_zero(self):
        T = Dataset([seq(0, 1), seq(40, 41)])
        res = k_clustering(T, self.params(k=2, beta=8.0), "cand1", seed=1)
        assert res.cost == 0.0

    def test_cost_recomputable(self, rng):
        T = planted_two_groups(rng)
        res = k_clustering(T, self.params(), "cand1", seed=4)
        assert res.cost == pytest.approx(
            clustering_cost(T, res.centers, 1, 1), rel=1e-9
        )

    def test_seed_reproducible(self, rng):
        T = planted_two_groups(rng)
        a = k_clustering(T, self.params(), "cand1", seed=6)
        b = k_clustering(T, self.params(), "cand1", seed=6)
        assert a.cost == b.cost
        assert [c.key() for c in a.centers] == [c.key() for c in b.centers]

    def test_cand2_driver(self, rng):
        T = planted_two_groups(rng)
        res = k_clustering(T, self.params(), "cand2", seed=2)
        assert len(res.centers) <= 2
        assert res.cost == pytest.approx(
            clustering_cost(T, res.centers, 1, 1), rel=1e-9
        )

    def test_two_planted_groups_monte_carlo(self, rng):
        hits = 0
        trials = 15
        factor = (1 + 4 * 2 / (8 - 4)) * (2 + 1)  # reduction times generator factor
        for t in range(trials):
            T = planted_two_groups(rng)
            opt = exact_clustering(T, 2, 2, "line-1-1")[1]
            res = k_clustering(T, self.params(), "cand1", seed=700 + t)
            if res.cost <= factor * opt + 1e-9:
                hits += 1
        assert hits / trials >= 0.75
