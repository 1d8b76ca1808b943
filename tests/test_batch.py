"""Differential tests of the batch kernel against the scalar distance layer."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtwmean import Dataset, DomainError, PointSequence, cost, dtw
from dtwmean._batch import score_candidates, score_tuples
from dtwmean.meanapprox import enumerate_tuples

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
powers = st.sampled_from((1.0, 2.0, 1.5))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


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


def reference_dtw_pow_block(tau: np.ndarray, cands: np.ndarray, p: float) -> np.ndarray:
    """The former kernel's own recurrence, row by row over (K, L, m) grids:
    min over warpings of the summed p-th-power distances, per candidate."""
    diff = cands[:, :, None, :] - tau[None, None, :, :]
    powd = np.sqrt((diff * diff).sum(axis=-1)) ** p  # (K, L, m)
    K, L, m = powd.shape
    acc = np.empty_like(powd)
    acc[:, 0, 0] = powd[:, 0, 0]
    for k in range(1, m):
        acc[:, 0, k] = acc[:, 0, k - 1] + powd[:, 0, k]
    for j in range(1, L):
        acc[:, j, 0] = acc[:, j - 1, 0] + powd[:, j, 0]
        for k in range(1, m):
            best = np.minimum(acc[:, j - 1, k - 1], acc[:, j - 1, k])
            np.minimum(best, acc[:, j, k - 1], out=best)
            acc[:, j, k] = powd[:, j, k] + best
    return acc[:, -1, -1]


def reference_score_block(T: Dataset, cands: np.ndarray, p: float, q: float) -> np.ndarray:
    total = np.zeros(cands.shape[0])
    for tau in T.sequences:
        pow_acc = reference_dtw_pow_block(tau.vertices, cands, p)
        total += (pow_acc ** (1.0 / p)) ** q
    return total


@settings(max_examples=150, deadline=None)
@given(instances())
def test_listed_scores_equal_reference_recurrence_bit_for_bit(inst):
    T, cands, p, q = inst
    want = np.array(
        [
            [(a ** (1.0 / p)) ** q for a in reference_dtw_pow_block(tau.vertices, cands, p).tolist()]
            for tau in T.sequences
        ]
    ).T
    assert np.array_equal(_bits(score_candidates(T, cands, p, q)), _bits(want))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_score_candidates_equal_scalar_dtw_bit_for_bit(inst):
    T, cands, p, q = inst
    R = score_candidates(T, cands, p, q)
    assert R.shape == (len(cands), T.n)
    for i, c in enumerate(cands):
        for j, tau in enumerate(T.sequences):
            assert R[i, j].hex() == (dtw(c, tau, p).distance ** q).hex()
        # a row added up in sequence order is the candidate's cost
        assert sum(R[i].tolist()).hex() == cost(T, c, p, q).hex()


def test_score_candidates_chunks_like_one_block(monkeypatch):
    import dtwmean._batch as batch

    rng = np.random.default_rng(3)
    T = Dataset([PointSequence(rng.uniform(0, 5, size=(m, 2))) for m in (2, 4, 3)])
    cands = rng.uniform(0, 5, size=(7, 2, 2))
    whole = score_candidates(T, cands, 1.5, 3.0)
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 8)  # one candidate per chunk
    assert np.array_equal(_bits(score_candidates(T, cands, 1.5, 3.0)), _bits(whole))


def test_listed_chunks_count_the_dimension(monkeypatch):
    import dtwmean._batch as batch
    import dtwmean.core as core

    rng = np.random.default_rng(4)
    T = Dataset([PointSequence(rng.uniform(0, 5, size=(m, 3))) for m in (2, 4)])
    cands = rng.uniform(0, 5, size=(5, 2, 3))
    whole = score_candidates(T, cands, 2.0, 1.0)
    # two candidates' L * m * d = 24 table entries fit per chunk, and the
    # distance guard admits exactly those
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 48)
    monkeypatch.setattr(core, "DISTANCE_GUARD", 48)
    assert np.array_equal(score_candidates(T, cands, 2.0, 1.0), whole)


grid = st.sampled_from((0.0, -0.0, 1.0, -2.5))


@st.composite
def tuple_instances(draw):
    """A dataset of 1-4 sequences of lengths 1-5 and a table of 1-6 points,
    both with frequent duplicates and signed zeros so that zero distances and
    exact ties occur, ell in 1..3 and (p, q)."""
    d = draw(st.sampled_from((1, 2)))
    seqs = [
        PointSequence(draw(arrays(float, (draw(st.integers(1, 5)), d), elements=grid | coords)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    points = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=grid | coords))
    if draw(st.booleans()):
        points[-1] = points[0]
        points[0, 0] = -0.0
    ell = draw(st.integers(1, 3))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0)))
    return Dataset(seqs), points, ell, p, draw(st.sampled_from((1.0, 1.5, 2.0)))


def tied_grid(m, p, q):
    """Three length-m sequences over a grid the points share, so that zero
    distances and exact ties reach the one-row grid (m = 1), row 1 alone
    (m = 2) and the k >= 2 loop (m = 3), at ell 3."""
    rng = np.random.default_rng(m)
    values = np.array([0.0, -0.0, 1.0, -2.5])
    T = Dataset([PointSequence(rng.choice(values, size=(m, 1))) for _ in range(3)])
    points = np.concatenate([values[:, None], rng.uniform(-3, 2, size=(2, 1))])
    return T, points, 3, p, q


@settings(max_examples=200, deadline=None)
@given(tuple_instances())
@example(tied_grid(1, 1.0, 1.0))
@example(tied_grid(2, 1.0, 1.0))
@example(tied_grid(3, 1.0, 1.0))
@example(tied_grid(1, 2.0, 1.0))
@example(tied_grid(2, 2.0, 1.0))
@example(tied_grid(3, 2.0, 1.0))
@example(tied_grid(1, 1.5, 2.0))
@example(tied_grid(2, 1.5, 2.0))
@example(tied_grid(3, 1.5, 2.0))
def test_score_tuples_equal_reference_recurrence_bit_for_bit(inst):
    T, points, ell, p, q = inst
    got = score_tuples(T, points, ell, p, q)
    assert len(got) == ell
    for L, block in enumerate(enumerate_tuples(points, ell), 1):
        # an independent recurrence, not the `_extend` both kernels share
        assert np.array_equal(_bits(got[L - 1]), _bits(reference_score_block(T, block, p, q)))


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


@pytest.mark.parametrize("scale", [1.0, 1e154])
def test_score_tuples_leaves_no_garbage(scale):
    # its recursive walk must not stay a reference cycle, which would keep
    # the score arrays alive until a full collection; at 1e154 every p = 2
    # path sum overflows, so the walk exits by raising
    T = Dataset([PointSequence([[0.0], [scale]]), PointSequence([[scale], [0.0], [scale]])])
    points = np.array([[0.0], [scale], [2.0]])
    gc.collect()
    gc.disable()
    try:
        raised = False
        try:
            score_tuples(T, points, 3, 2.0, 1.0)
        except DomainError:
            raised = True
        assert raised == (scale > 1.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
