"""Barycentric averaging baseline: alternate warpings and section means.

This is the classical Lloyd-style heuristic.  Each round recomputes optimal
p-warpings from the current candidate to all inputs and replaces every vertex
by the coordinate-wise mean of its section.  For p = 2 both half-steps are
exact coordinate descents, so the cost trace cannot increase; for other p the
mean update is heuristic.  A round that fails to improve the cost is not
accepted, so the reported trace is non-increasing for every p.  No
approximation guarantee holds either way; the oracle tests exhibit instances
where the converged cost is strictly worse than optimal.

Each candidate costs one kept sweep (`core._kept_sweep`): its end cells
give the cost, folded as `cost` folds it, and its grids, backtracked chunk
by chunk during the sweep, the warpings of the next round.  A run of r
rounds makes 1 + r sweeps.  The initial candidates of `default_dba_init`
are scored in one ends-only sweep over all n simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    PointSequence,
    _distances,
    _fold,
    _kept_sweep,
    _pow_ends,
    as_sequence,
    sections,
)
from .errors import require
from .simplify import simplify

REL_TOL = 1e-9


@dataclass
class DbaResult:
    sequence: PointSequence
    cost: float
    trace: list[float]  # accepted costs, starting with the initial candidate


def default_dba_init(T: Dataset, ell: int, p: float) -> PointSequence:
    """Input sequence's simplification with the lowest cost, used as the
    default start; ties go to the first."""
    starts = [simplify(tau, ell, p).sequence for tau in T.sequences]
    costs = [_fold(_distances(ends, p), p) for ends in _pow_ends(starts, T.sequences, p)]
    return starts[costs.index(min(costs))]


def dba(T: Dataset, init, p: float, max_iters: int = 50) -> DbaResult:
    """Iterated section-mean averaging from `init`, stopping on stagnation."""
    require(max_iters >= 1, "max_iters must be >= 1")
    current = as_sequence(init)
    ends, warpings = _kept_sweep(current, T.sequences, p)
    current_cost = _fold(_distances(ends, p), p)
    trace = [current_cost]
    for _ in range(max_iters):
        updated = PointSequence(
            np.array([sec.values().mean(axis=0) for sec in sections(current, T, warpings)])
        )
        ends, next_warpings = _kept_sweep(updated, T.sequences, p)
        new_cost = _fold(_distances(ends, p), p)
        if current_cost == 0.0 or current_cost - new_cost < REL_TOL * current_cost:
            break
        current, current_cost, warpings = updated, new_cost, next_warpings
        trace.append(current_cost)
    return DbaResult(sequence=current, cost=current_cost, trace=trace)
