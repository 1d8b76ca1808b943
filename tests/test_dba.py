import numpy as np
import pytest

from dtwmean import (
    Dataset,
    PointSequence,
    cost,
    dba,
    default_dba_init,
    exact_mean,
    optimal_sections,
    simplify,
)
from dtwmean.dba import REL_TOL

from conftest import random_dataset, seq

# Averaging converges here to a locally optimal alignment that is strictly
# worse than the true optimum; found by scanning small instances and frozen.
STUCK = Dataset(
    [seq(5.4, 4.4), seq(0.4, 7.3), seq(6.1, 0.3, 7.2), seq(7.6, 5.1)]
)


class TestDba:
    def test_fixed_point_on_singleton(self):
        s = seq(0, 4)
        T = Dataset([s])
        res = dba(T, s, 2)
        assert res.cost == 0.0
        assert res.sequence == s
        assert res.trace == [0.0]

    def test_trace_non_increasing(self, rng):
        for _ in range(25):
            T = random_dataset(rng, n=int(rng.integers(2, 5)), max_len=4, min_len=2)
            init = default_dba_init(T, 2, 2)
            res = dba(T, init, 2)
            assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))

    def test_first_step_descends_for_squared_cost(self, rng):
        T = random_dataset(rng, n=3, max_len=3, min_len=2)
        init = default_dba_init(T, 2, 2)
        res = dba(T, init, 2)
        assert res.trace[0] == pytest.approx(cost(T, init, 2, 2), rel=1e-12)
        assert res.cost <= res.trace[0]

    def test_cost_recomputable(self, rng):
        T = random_dataset(rng, n=3, max_len=3, min_len=2)
        res = dba(T, default_dba_init(T, 2, 2), 2)
        assert res.cost == pytest.approx(cost(T, res.sequence, 2, 2), rel=1e-9)

    def test_converges_above_oracle_on_stuck_instance(self):
        opt = exact_mean(STUCK, 2, "euclidean-2-2").cost
        res = dba(STUCK, default_dba_init(STUCK, 2, 2), 2, max_iters=100)
        assert res.cost > opt * 1.0001

    def test_default_init_is_cheapest_simplification(self, rng):
        from dtwmean.simplify import simplify

        T = random_dataset(rng, n=4, max_len=4, min_len=2)
        init = default_dba_init(T, 2, 2)
        costs = {
            cost(T, simplify(tau, 2, 2).sequence, 2, 2) for tau in T.sequences
        }
        assert cost(T, init, 2, 2) == min(costs)


def reference_init(T: Dataset, ell: int, p: float) -> PointSequence:
    """The cheapest simplification, one `cost` call per input sequence."""
    best, best_cost = None, None
    for tau in T.sequences:
        s = simplify(tau, ell, p).sequence
        c = cost(T, s, p, p)
        if best_cost is None or c < best_cost:
            best, best_cost = s, c
    return best


def reference_dba(T: Dataset, init: PointSequence, p: float, max_iters: int):
    """DBA through `optimal_sections`, `Section.values()` means and a `cost`
    call per candidate: (sequence, cost, trace)."""
    current = init
    current_cost = cost(T, current, p, p)
    trace = [current_cost]
    for _ in range(max_iters):
        secs, _ = optimal_sections(current, T, p)
        updated = PointSequence(np.array([sec.values().mean(axis=0) for sec in secs]))
        new_cost = cost(T, updated, p, p)
        if current_cost == 0.0 or current_cost - new_cost < REL_TOL * current_cost:
            break
        current, current_cost = updated, new_cost
        trace.append(current_cost)
    return current, current_cost, trace


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dba_matches_the_section_reference_bit_for_bit(d, p):
    rng = np.random.default_rng([d, int(2 * p)])
    for case in range(8):
        n = int(rng.integers(1, 7))
        T = Dataset(
            [rng.uniform(-4, 4, size=(int(rng.integers(1, 13)), d)) for _ in range(n)]
        )
        if case % 2:
            # integer coordinates tie warpings, anchors and initial costs
            T = Dataset([np.round(tau.vertices) for tau in T.sequences])
        ell = int(rng.integers(1, 6))
        init = default_dba_init(T, ell, p)
        assert init.vertices.tobytes() == reference_init(T, ell, p).vertices.tobytes()
        for max_iters in (1, 50):
            got = dba(T, init, p, max_iters)
            seq_, cost_, trace = reference_dba(T, init, p, max_iters)
            assert got.sequence.vertices.tobytes() == seq_.vertices.tobytes()
            assert got.cost.hex() == cost_.hex()
            assert [c.hex() for c in got.trace] == [c.hex() for c in trace]
