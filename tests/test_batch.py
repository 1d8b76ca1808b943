"""Differential tests of the batch kernel against the scalar distance layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtwmean import Dataset, PointSequence, cost, dtw
from dtwmean._batch import argmin_first, cost_rows, score_candidates

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
