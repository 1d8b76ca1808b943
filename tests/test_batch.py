"""Differential tests of the batch kernel against the scalar distance layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtwmean import Dataset, PointSequence, cost, dtw
from dtwmean._batch import argmin_first, cost_rows, score_candidates, score_tuples
from dtwmean.meanapprox import enumerate_tuples

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
powers = st.sampled_from((1.0, 2.0, 1.5))


@st.composite
def instances(draw):
    """A dataset of 1-4 sequences, a (K, L, d) candidate block with L in 1..4,
    and (p, q) from {1, 2, 1.5}."""
    d = draw(st.sampled_from((1, 2)))
    seqs = [
        PointSequence(draw(arrays(float, (draw(st.integers(1, 4)), d), elements=coords)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    K, L = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cands = draw(arrays(float, (K, L, d), elements=coords))
    return Dataset(seqs), cands, draw(powers), draw(powers)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_cost_rows_equal_scalar_dtw_bit_for_bit(inst):
    T, cands, p, q = inst
    R = cost_rows(T, cands, p, q)
    assert R.shape == (len(cands), T.n)
    for i, c in enumerate(cands):
        for j, tau in enumerate(T.sequences):
            assert R[i, j].hex() == (dtw(c, tau, p).distance ** q).hex()


@settings(max_examples=150, deadline=None)
@given(instances())
def test_score_candidates_matches_summed_scalar_cost(inst):
    T, cands, p, q = inst
    batch = score_candidates(T, cands, p, q)
    scalar = np.array([cost(T, c, p, q) for c in cands])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)
    assert argmin_first(batch) == argmin_first(scalar)


def test_cost_rows_chunks_like_one_block(monkeypatch):
    import dtwmean._batch as batch

    rng = np.random.default_rng(3)
    T = Dataset([PointSequence(rng.uniform(0, 5, size=(m, 2))) for m in (2, 4, 3)])
    cands = rng.uniform(0, 5, size=(7, 2, 2))
    whole = cost_rows(T, cands, 1.5, 3.0)
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 8)  # one candidate per chunk
    assert np.array_equal(cost_rows(T, cands, 1.5, 3.0), whole)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def tuple_instances(draw):
    """A dataset of 1-4 sequences of lengths 1-5, a table of 1-6 points with
    frequent duplicates and signed zeros, ell in 1..3 and (p, q)."""
    d = draw(st.sampled_from((1, 2)))
    seqs = [
        PointSequence(draw(arrays(float, (draw(st.integers(1, 5)), d), elements=coords)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    grid = st.sampled_from((0.0, -0.0, 1.0, -2.5))
    points = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=grid | coords))
    if draw(st.booleans()):
        points[-1] = points[0]
        points[0, 0] = -0.0
    ell = draw(st.integers(1, 3))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
    return Dataset(seqs), points, ell, p, draw(st.sampled_from((1.0, 1.5, 2.0)))


@settings(max_examples=200, deadline=None)
@given(tuple_instances())
def test_score_tuples_equal_score_candidates_bit_for_bit(inst):
    T, points, ell, p, q = inst
    got = score_tuples(T, points, ell, p, q)
    assert len(got) == ell
    for L, block in enumerate(enumerate_tuples(points, ell), 1):
        assert np.array_equal(_bits(got[L - 1]), _bits(score_candidates(T, block, p, q)))


def test_score_tuples_chunks_like_one_block(monkeypatch):
    import dtwmean._batch as batch

    rng = np.random.default_rng(5)
    T = Dataset([PointSequence(rng.uniform(0, 5, size=(m, 2))) for m in (2, 4, 3)])
    points = rng.uniform(0, 5, size=(5, 2))
    whole = [score_tuples(T, points, ell, 1.5, 2.0) for ell in (1, 3)]
    # ell = 1: 2 leading vertices per chunk; ell = 3: 1 prefix per full
    # extension of 4-row grids, 3 prefixes per rolling last level
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 16)
    for ell, want in zip((1, 3), whole):
        got = score_tuples(T, points, ell, 1.5, 2.0)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, want))
