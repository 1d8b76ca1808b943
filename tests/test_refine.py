import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmean import (
    BallUnion,
    Dataset,
    DomainError,
    cost,
    exact_mean,
    grid_cover,
    med_appr,
)
import dtwmean.refine as refine
from dtwmean import CapacityError
from dtwmean.refine import rung_cell_width, scale_ladder

from conftest import random_dataset, seq


def mesh_grid_cover(ball_union: BallUnion, gamma: float) -> np.ndarray:
    """Reference cover: every cell of each ball's bounding box as one row of a
    cells x d mesh, tested by its nearest point to the center, and the union
    taken by `np.unique(axis=0)`.  Its row sums add left to right for d < 8,
    as `grid_cover`'s outer sums do; from d = 8 numpy sums pairwise, so a
    squared offset may differ in its last bit."""
    r = ball_union.radius
    d = ball_union.centers.shape[1]
    hits = []
    for center in ball_union.centers:
        lo, hi = np.floor(np.stack([center - r, center + r]) / gamma).astype(np.int64)
        axes = [np.arange(lo[j], hi[j] + 1) for j in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        corners = mesh * gamma
        nearest = np.clip(center, corners, corners + gamma)
        with np.errstate(over="ignore"):
            dsq = ((center - nearest) ** 2).sum(axis=1)
        on_lower_faces = (center < corners + gamma).all(axis=1)
        hits.append(mesh[(dsq < r * r) | ((dsq == r * r) & on_lower_faces)])
    return np.unique(np.concatenate(hits), axis=0) * gamma


class TestGridCover:
    A, B = [0.3, -0.2, 0.1], [0.8, 0.2, -0.3]  # unit balls that overlap

    def test_interval_example(self):
        # ball [-2, 2] with unit cells: every cell [g, g+1) meeting the ball,
        # including [2, 3) which touches it at the single point 2
        cover = grid_cover(BallUnion(centers=np.array([[0.0]]), radius=2.0), 1.0)
        assert cover.ravel().tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_small_ball_inside_cell(self):
        cover = grid_cover(BallUnion(centers=np.array([[0.5, 0.5]]), radius=0.2), 1.0)
        assert cover.tolist() == [[0.0, 0.0]]

    def test_union_deduplicates(self):
        union = BallUnion(centers=np.array([[0.0], [0.5]]), radius=1.0)
        cover = grid_cover(union, 1.0)
        assert cover.ravel().tolist() == sorted(set(cover.ravel().tolist()))

    def test_matches_sorted_set_of_hit_cells(self, rng):
        # reference: every lattice cell of every ball's bounding box that the
        # ball meets, collected in a set and sorted; centers straddle zero so
        # lattice indices are negative too
        for _ in range(20):
            centers = rng.uniform(-3, 3, size=(int(rng.integers(1, 4)), 2))
            r, gamma = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 0.9))
            kept = set()
            for c in centers:
                lo = np.floor((c - r) / gamma).astype(int)
                hi = np.floor((c + r) / gamma).astype(int)
                for i in range(lo[0], hi[0] + 1):
                    for j in range(lo[1], hi[1] + 1):
                        corner = np.array([i, j]) * gamma
                        dsq = float(((c - np.clip(c, corner, corner + gamma)) ** 2).sum())
                        lower = bool((c < corner + gamma).all())
                        if dsq < r * r or (dsq == r * r and lower):
                            kept.add((i, j))
            want = np.array(sorted(kept), dtype=float) * gamma
            assert min(min(cell) for cell in kept) < 0
            cover = grid_cover(BallUnion(centers=centers, radius=r), gamma)
            assert cover.tobytes() == want.tobytes()

    def test_matches_the_mesh_reference_bit_for_bit(self, rng):
        # random balls at d = 1-7; then quarter-grid balls, whose centers lie
        # on cell faces and whose radii are whole cell widths, so that cells
        # at exactly distance r are decided by the lower-face rule
        for d in range(1, 8):
            for _ in range(10):
                centers = rng.uniform(-3, 3, size=(int(rng.integers(1, 4)), d))
                r = float(rng.uniform(0.2, 1.5))
                gamma = r * float(rng.uniform(0.15 if d <= 3 else 0.6, 1.0))
                union = BallUnion(centers=centers, radius=r)
                got, want = grid_cover(union, gamma), mesh_grid_cover(union, gamma)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for _ in range(10):
                centers = rng.integers(-8, 9, size=(int(rng.integers(1, 4)), d)) / 4.0
                gamma = float(rng.choice([0.25, 0.5]))
                r = gamma * int(rng.integers(1, 5 if d <= 3 else 3))
                union = BallUnion(centers=centers, radius=r)
                got, want = grid_cover(union, gamma), mesh_grid_cover(union, gamma)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def traced_cover(centers: list) -> tuple[np.ndarray, int]:
        """The cover of unit balls at `centers` by 0.044-wide cells, and its
        tracemalloc peak."""
        union = BallUnion(centers=np.array(centers), radius=1.0)
        tracemalloc.start()
        try:
            cover = grid_cover(union, 0.044)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cover, peak

    def test_a_ball_holds_cells_sized_arrays_not_cells_x_d(self):
        # 54164 points in a 46 x 47 x 47-cell box; measured peaks: 3.62 MB,
        # 5.41 MB while the union was sorted beside the per-ball hits, and
        # 12.7 MB for the mesh reference
        cover, peak = self.traced_cover([[0.3, -0.2, 0.1]])
        assert len(cover) == 54164
        assert peak < 1.25 * 3_619_976

    def test_a_repeated_ball_is_tested_once_and_the_union_held_twice(self):
        # [A, B, A]: two overlapping balls of 54164 points each, 82592 in
        # all; measured peaks: 6.10 MB, as for [A, B], against 14.0 MB when
        # every center was tested and the union held three copies of the hits
        cover, peak = self.traced_cover([self.A, self.B, self.A])
        assert len(cover) == 82592
        assert peak < 1.25 * 6_098_460

    def test_repeated_centers_give_the_cover_of_the_distinct_ones(self, rng):
        # overlapping balls share cells, which the union keeps once each, in
        # np.unique's lexicographic order
        cases = [(np.array([self.A, self.B]), 1.0, 0.2)]
        cases += [(rng.integers(-8, 9, size=(2, 2)) / 4.0, 0.75, 0.25) for _ in range(5)]
        for (A, B), r, gamma in cases:
            want = grid_cover(BallUnion(centers=np.array([A, B]), radius=r), gamma)
            ref = mesh_grid_cover(BallUnion(centers=np.array([A, B]), radius=r), gamma)
            assert want.dtype == ref.dtype and want.shape == ref.shape
            assert want.tobytes() == ref.tobytes()
            for repeated in ([A, B, A], [B, A, A, B]):
                got = grid_cover(BallUnion(centers=np.array(repeated), radius=r), gamma)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_the_cell_guard_counts_every_center(self, monkeypatch):
        # one ball's box holds 46 x 47 x 47 = 101614 cells; a repeated center
        # is not tested again, but its box still counts against the guard
        monkeypatch.setattr(refine, "CELL_GUARD", 101614)
        assert len(grid_cover(BallUnion(centers=np.array([self.A]), radius=1.0), 0.044)) == 54164
        with pytest.raises(CapacityError, match="more than 101614 cells"):
            grid_cover(BallUnion(centers=np.array([self.A, self.A]), radius=1.0), 0.044)
        monkeypatch.setattr(refine, "CELL_GUARD", 2 * 101614)
        cover = grid_cover(BallUnion(centers=np.array([self.A, self.A]), radius=1.0), 0.044)
        assert len(cover) == 54164

    def test_overflowing_offset_is_no_hit(self):
        # r * r fits float64, but the squared offset of cell [r, 2r)^2,
        # 2 r^2, does not; the cells at 1, -1 and -1, 1 only touch the ball
        # outside their half-open boxes
        r = 1.3e154
        cover = grid_cover(BallUnion(centers=np.zeros((1, 2)), radius=r), r)
        hit = [(-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        assert cover.tolist() == [[i * r, j * r] for i, j in hit]

    def test_overflowing_squared_radius_is_rejected(self):
        # with r * r = inf every cell of the bounding box would count as a hit
        with pytest.raises(DomainError, match="rescale the coordinates"):
            grid_cover(BallUnion(centers=np.zeros((1, 2)), radius=1.35e154), 1e154)

    def test_lattice_index_past_int64_is_rejected(self):
        # at 1e15 with a 1e-4 radius the rung's cells are so fine that the
        # lattice indices (about 1e19) do not fit int64
        T = Dataset([[[1e15], [1000000000000001.0]], [[1000000000000000.5], [1000000000000001.0]],
                     [[1e15], [1000000000000000.25]]])
        with pytest.raises(DomainError, match="translate or rescale the coordinates"):
            med_appr(T, 0.001, 1.0, 0.2, 1, 1)

    def test_cell_count_past_int64_hits_the_guard(self):
        # 2^22 cells per axis: the 2^66 cells of the box must not wrap to 0
        with pytest.raises(CapacityError, match="more than"):
            grid_cover(BallUnion(centers=np.zeros((1, 3)), radius=1.0), 1 / 2097151.5)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            grid_cover(BallUnion(centers=np.array([[1.0]]), radius=1.0), 0.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=3),
        st.floats(0.1, 3.0),
        st.floats(0.2, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_snap_distance_bound(self, coords, r, width, s):
        # every point of the ball lies within gamma * sqrt(d) of a cover point
        center = np.array(coords)
        gamma = width * r
        u = np.random.default_rng(s).uniform(-1, 1, size=len(coords))
        x = center + r * u / max(1.0, float(np.linalg.norm(u)))
        cover = grid_cover(BallUnion(centers=center[None], radius=r), gamma)
        nearest = np.linalg.norm(cover - x, axis=1).min()
        assert nearest <= gamma * math.sqrt(len(coords)) + 1e-12

    def test_volumetric_bound(self, rng):
        # cover of B(x, 8r) stays within the closed-form cell bound
        for _ in range(50):
            d = int(rng.integers(1, 3))
            x = rng.uniform(-5, 5, size=(1, d))
            r = float(rng.uniform(0.1, 2.0))
            gamma = float(rng.uniform(0.2, 1.5)) * r
            cover = grid_cover(BallUnion(centers=x, radius=8 * r), gamma)
            bound = 2.0 * (34.0 * r / (gamma * math.sqrt(d)) + 5.0) ** d
            assert len(cover) <= bound


class TestScaleLadder:
    def test_budget_example(self):
        _, beta = scale_ladder(R=1.0, n=1, m=2, ell=1, p=1.0, eps=4.0, d=1)
        assert beta == 78.0

    def test_rung_example(self):
        rungs, _ = scale_ladder(R=16.0, n=4, m=2, ell=2, p=1.0, eps=1.0, d=1)
        assert list(rungs) == [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]

    def test_cell_width_relation(self):
        rungs, _ = scale_ladder(R=8.0, n=2, m=3, ell=2, p=2.0, eps=0.5, d=2)
        for r in rungs:
            gamma = rung_cell_width(r, 3, 2.0, 0.5, 2)
            assert gamma == 0.5 * r / ((2 * 3) ** 0.5 * math.sqrt(2))

    def test_estimate_sample_count(self):
        from dtwmean.refine import estimate_sample_count

        assert estimate_sample_count(0.2) == 4  # ceil(log2 10)
        assert estimate_sample_count(0.5) == 2
        assert estimate_sample_count(0.999) == 2  # 2/delta stays above 2


class TestMedAppr:
    def test_zero_cost_dataset_short_circuits(self):
        s = seq(0, 1)
        T = Dataset([s] * 4)
        res = med_appr(T, 0.5, 1.0, 0.2, 2, seed=3)
        assert res.cost == 0.0
        assert "zero-cost-estimate" in res.flags

    def test_seed_reproducibility(self, rng):
        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        a = med_appr(T, 0.5, 1.0, 0.2, 2, seed=7)
        b = med_appr(T, 0.5, 1.0, 0.2, 2, seed=7)
        assert a.sequence.as_list() == b.sequence.as_list()
        assert a.cost == b.cost

    def test_reported_cost_recomputable(self, rng):
        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        res = med_appr(T, 0.5, 1.0, 0.2, 2, seed=7)
        assert res.cost == pytest.approx(cost(T, res.sequence, 1, 1), rel=1e-9)

    def test_beats_simplification_estimate(self, rng):
        # argmin includes the simplification candidates, so the result can
        # never exceed the rough estimate they define
        from dtwmean.simplify import simplify

        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        res = med_appr(T, 0.5, 1.0, 0.2, 2, seed=9)
        best_simp = min(
            cost(T, simplify(tau, 2, 1.0).sequence, 1, 1) for tau in T.sequences
        )
        assert res.cost <= best_simp + 1e-12

    def test_within_guarantee_on_small_instances(self, rng):
        hits = 0
        for t in range(10):
            T = random_dataset(rng, n=4, max_len=3, min_len=2, lo=0.0, hi=2.0)
            opt = exact_mean(T, 2, "line-1-1").cost
            res = med_appr(T, 0.5, 1.0, 0.2, 2, seed=t)
            if res.cost <= 1.5 * opt + 1e-9:
                hits += 1
        assert hits >= 8

    def test_eps_above_proven_range_warns(self, rng):
        T = random_dataset(rng, n=3, max_len=3, min_len=2)
        with pytest.warns(UserWarning):
            med_appr(T, 10.0, 1.0, 0.2, 1, seed=0)

    def test_fallback_flag_when_no_rung_qualifies(self, rng, monkeypatch):
        import dtwmean.refine as refine

        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        monkeypatch.setattr(
            refine, "_inscribed_cell_lower_bound", lambda union, gamma: 10**9
        )
        res = refine.med_appr(T, 0.5, 1.0, 0.2, 2, seed=7)
        assert "fallback" in res.flags
        # fallback returns the cheapest sampled simplification
        from dtwmean.simplify import simplify

        assert res.cost == pytest.approx(cost(T, res.sequence, 1, 1), rel=1e-9)

    @pytest.mark.parametrize("seed", [244, 294, 407])
    @pytest.mark.filterwarnings("ignore:eps=2.0 exceeds")
    def test_a_won_simplification_reports_its_cost_bit_for_bit(self, seed):
        # at p = 1.5 numpy's array ** and Python's differ in the last bit for
        # some elements; these instances' estimates differed from `cost`
        # when they were taken with numpy's
        from dtwmean.simplify import simplify

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        T = Dataset([rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), 1)) for _ in range(n)])
        res = med_appr(T, 2.0, 1.5, 0.5, 2, seed)
        simps = [simplify(tau, 2, 1.5).sequence for tau in T.sequences]
        assert any(s.as_list() == res.sequence.as_list() for s in simps)
        assert res.cost.hex() == cost(T, res.sequence, 1.5, 1.0).hex()


class TestRepeatedCovers:
    """Seed 3 draws the sequences [3, 0, 0, 0], so sequence 0's cover repeats
    twice at each of the 7 rungs.  The expected counts, cost and guard
    message were recorded from the implementation that built and scored
    every drawn cover (28 `grid_cover` calls)."""

    T = Dataset([seq(0.0, 1.0), seq(0.2, 0.9, 1.1), seq(0.1, 1.0), seq(0.0, 0.5, 1.2)])
    ARGS = (1.0, 1.0, 0.2, 2, 3)  # eps, p, delta, ell, seed

    def test_draws_repeat(self):
        draws = np.random.default_rng(3).integers(0, 4, size=4).tolist()
        assert draws == [3, 0, 0, 0]

    def test_one_cover_per_distinct_draw_and_rung(self, monkeypatch):
        calls, scored = [], []
        real_cover, real_argmin = refine.grid_cover, refine.argmin_tuples

        def counting_cover(union, gamma):
            calls.append((gamma, union.centers.tobytes()))
            return real_cover(union, gamma)

        def counting_argmin(T, points, *args):
            scored.append(points.tobytes())
            return real_argmin(T, points, *args)

        monkeypatch.setattr(refine, "grid_cover", counting_cover)
        monkeypatch.setattr(refine, "argmin_tuples", counting_argmin)
        res = refine.med_appr(self.T, *self.ARGS)
        gammas = list(dict.fromkeys(g for g, _ in calls))
        assert len(gammas) == 7
        own = [self.T.sequences[i].vertices.tobytes() for i in (3, 0)]
        assert calls == [(g, c) for g in gammas for c in own]
        assert len(scored) == len(set(scored)) == 14
        assert res.candidates_scored == 303604
        assert res.cost.hex() == "0x1.199999999999bp+0"
        assert res.flags == []

    def test_one_estimate_simplification_per_distinct_draw(self, monkeypatch):
        simplified = []
        real_simplify = refine.simplify

        def counting_simplify(pi, ell, p):
            simplified.append(pi.vertices.tobytes())
            return real_simplify(pi, ell, p)

        monkeypatch.setattr(refine, "simplify", counting_simplify)
        res = refine.med_appr(self.T, *self.ARGS)
        assert simplified == [self.T.sequences[i].vertices.tobytes() for i in (3, 0)]
        # the 4 draws still count, and the result is the recorded one
        assert res.candidates_scored == 303604
        assert res.cost.hex() == "0x1.199999999999bp+0"

    def test_each_cover_takes_one_bounds_pass(self, monkeypatch):
        # `med_appr` runs the bounds pass for its budget check and `grid_cover`
        # takes that pass instead of running it again
        passes, covers = [], []
        real_bounds, real_cover = refine._bounds, refine.grid_cover
        monkeypatch.setattr(refine, "_bounds", lambda *a: passes.append(1) or real_bounds(*a))
        monkeypatch.setattr(refine, "grid_cover", lambda *a: covers.append(1) or real_cover(*a))
        assert refine.med_appr(self.T, *self.ARGS).candidates_scored == 303604
        assert len(passes) == len(covers) == 14

    def test_repeated_covers_count_against_the_guard(self, monkeypatch):
        # 181536 is the 4 simplifications plus every distinct cover's tuples
        # counted once, so only the repeats push the count over it
        monkeypatch.setattr(refine, "CANDIDATE_GUARD", 181536)
        with pytest.raises(CapacityError) as err:
            refine.med_appr(self.T, *self.ARGS)
        assert str(err.value) == "candidate budget 181536 exceeded at rung r=0.018750000000000003"
        monkeypatch.setattr(refine, "CANDIDATE_GUARD", 303604)
        assert refine.med_appr(self.T, *self.ARGS).candidates_scored == 303604


class TestEqualCoversOfOtherDraws:
    """Sequences 0 and 1 are equal, and seed 2 draws [3, 1, 0, 1], so at
    each of the 7 rungs the covers of draws 1 and 0 are equal.  The winner,
    cost and count were recorded from the implementation that queued each
    distinct cover once, by its bytes, and scored 14 covers."""

    T = Dataset([seq(0, 1, 2.1), seq(0, 1, 2.1), seq(0.3, 1.4), seq(0.1, 0.9, 2.0)])
    ARGS = (1.0, 1.0, 0.2, 2, 2)  # eps, p, delta, ell, seed

    def test_draws_repeat_and_hold_equal_sequences(self):
        assert np.random.default_rng(2).integers(0, 4, size=4).tolist() == [3, 1, 0, 1]

    def test_rescoring_an_equal_cover_only_ties(self, monkeypatch):
        scored = []
        real_argmin = refine.argmin_tuples

        def counting_argmin(T, points, *args):
            scored.append(points.tobytes())
            return real_argmin(T, points, *args)

        monkeypatch.setattr(refine, "argmin_tuples", counting_argmin)
        res = refine.med_appr(self.T, *self.ARGS)
        # one cover per distinct draw and rung; draws 1 and 0 build equal ones
        assert (len(scored), len(set(scored))) == (21, 14)
        assert res.sequence.as_list() == [[0.296875], [2.01875]]
        assert res.cost.hex() == "0x1.cd33333333334p+1"
        assert res.candidates_scored == 424552
        assert res.flags == []
