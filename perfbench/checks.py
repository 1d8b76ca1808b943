"""Output checks: every op's report against the seed reference and a scalar recomputation.

The emitted sequence, centers or warping must be bit-identical to the
reference recorded in ``reference.json`` (compared by SHA-256 of its JSON
text).  Every emitted cost must match the recorded cost and a scalar
recomputation from the emitted result (``dtwmean.cost`` /
``clustering_cost``, or the warping's own path sum for ``dtw``) within
``REL_TOL``.  A speed-up that changes results therefore shows as a failed op.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from dtwmean.clustering import clustering_cost
from dtwmean.core import cost

REL_TOL = 1e-9


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def extract(report: dict) -> tuple[object, list[float]]:
    """The result payload that must be bit-identical, and the emitted costs."""
    command = report["command"]
    if command == "bench":
        rows = report["runs"]
        for row in rows:
            if "error" in row:
                raise ValueError(f"bench row {row['algo']} failed: {row['error']}")
        return (
            [[row["algo"], row["result"]["sequence"]] for row in rows],
            [row["result"]["cost"] for row in rows],
        )
    result = report["result"]
    if command == "dtw":
        return result["warping"], [result["distance"]]
    if command == "cluster":
        return result["centers"], [result["cost"]]
    return result["sequence"], [result["cost"]]


def recompute(report: dict, T) -> list[float]:
    """Scalar costs of the emitted results, in the order of `extract`."""
    command = report["command"]
    if command == "bench":
        return [
            cost(T, row["result"]["sequence"], row["objective"]["p"], row["objective"]["q"])
            for row in report["runs"]
        ]
    result = report["result"]
    p = report["config"]["p"]
    if command == "dtw":
        a, b = T.sequences[0].vertices, T.sequences[1].vertices
        pairs = np.array(result["warping"]) - 1
        diff = a[pairs[:, 0]] - b[pairs[:, 1]]
        return [float((np.sqrt((diff * diff).sum(axis=1)) ** p).sum() ** (1.0 / p))]
    if command == "cluster":
        q = report["config"].get("q", p)
        return [clustering_cost(T, result["centers"], p, q)]
    obj = report["objective"]
    return [cost(T, result["sequence"], obj["p"], obj["q"])]


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(report: dict, ref: dict, T) -> list[str]:
    """Problems of one op's report against its reference entry; empty when correct."""
    try:
        payload, costs = extract(report)
        scalar = recompute(report, T)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
    errors = []
    if digest(payload) != ref["digest"]:
        errors.append("result differs from the seed reference")
    if len(costs) != len(ref["costs"]):
        errors.append("cost count differs from the seed reference")
    errors += [
        f"cost {c!r} != reference {r!r}" for c, r in zip(costs, ref["costs"]) if not close(c, r)
    ]
    errors += [
        f"cost {c!r} != scalar recomputation {s!r}" for c, s in zip(costs, scalar) if not close(c, s)
    ]
    return errors


def quality_ratios(report: dict, ref: dict) -> list[float]:
    """Result cost over its reference cost, for `cost_ratio_mean`.

    bench: the battery's own ratios to the exact oracle optimum (rows whose
    oracle is only the vertex-restricted reference are left out).  cluster:
    over the exact_clustering optimum.  mean: over the planted generating
    shape simplified to ell vertices.  dtw has no quality to rate.
    """
    command = report["command"]
    if command == "bench":
        return [
            row["ratio"]
            for row in report["runs"]
            if row["algo"] != "oracle"
            and row["ratio"] is not None
            and "discrete-oracle-reference" not in row["flags"]
        ]
    if ref.get("ref_cost") is None:
        return []
    return [extract(report)[1][0] / ref["ref_cost"]]
