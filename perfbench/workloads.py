"""Seeded benchmark inputs and the fixed CLI op list of each workload.

A workload seed selects one of ``VARIANTS`` input variants (``seed %
VARIANTS``); the variant alone determines every generated file, so the same
seed always gives the same inputs and every variant has a recorded reference
output in ``reference.json``.  The program under test only sees the files
written here and the argv lists of the ops.

Input shapes are pinned where the amount of work would otherwise depend on
the draw (fixed sequence lengths per slot, fixed CLI seeds), so different
workload seeds change coordinates but not the work done.  That keeps the
run-to-run spread of the timings close to the machine's own noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dtwmean.core import Dataset, PointSequence
from dtwmean.dataio import save_dataset
from dtwmean.synth import generate_synthetic

VARIANTS = 32
SIZES = ("full", "tiny")

#: Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "mean-sample": "mean_c at n=42, m=15-20: the batched kernel is ~80% of an op, with "
    "many sequences per candidate, so kernel changes show here",
    "battery-small": "bench battery at n=5, m=2-3: ~1M refine candidates per p=1 op, "
    "the kernel with huge K and tiny n, m, plus grid_cover and the oracles",
    "cluster-planted": "cand1 k-clustering of 6 two-vertex sequences: no kernel calls, "
    "candidate objects and thousands of 2x2 scalar dtw calls",
    "distance-long": "dtw at m=450-500 and dba at m=150-250, d=2: the only long-m "
    "distance layer work and the largest input and report files",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    """One CLI command; `planted` is the generating shape used as a quality reference."""

    argv: list[str]
    input: str  # file name inside the workload directory
    planted: np.ndarray | None = None
    oracle_k: int | None = None  # exact_clustering reference for cluster ops


@dataclass
class Workload:
    ops: list[Op]

    @property
    def inputs(self) -> list[str]:
        return sorted({op.input for op in self.ops})


def _walk(rng, m: int, d: int) -> np.ndarray:
    return np.cumsum(rng.normal(size=(m, d)), axis=0)


def _synthetic(rng, base: np.ndarray, lengths, noise: float) -> Dataset:
    """generate_synthetic resamplings of `base`, one block per fixed length."""
    seqs = []
    for length, count in lengths:
        block = generate_synthetic(
            base, count, noise, (length, length), int(rng.integers(2**31))
        )
        seqs.extend(block.sequences)
    return Dataset(seqs)


def _save(T: Dataset, out: Path, name: str) -> str:
    save_dataset(T, out / name)
    return name


def _mean_sample(rng, out: Path, tiny: bool) -> list[Op]:
    # lengths 15..20, seven sequences each: the vertex pool has a fixed size, so
    # the fixed CLI seed draws the same sample indices for every variant
    lengths = [(4, 2), (5, 2)] if tiny else [(m, 7) for m in range(15, 21)]
    base_m = 5 if tiny else 20
    ops = []
    files = []
    for i in range(2):
        base = _walk(rng, base_m, 1)
        files.append((_save(_synthetic(rng, base, lengths, 0.3), out, f"ms{i}.json"), base))
    for (path, base), p in ((files[0], "1"), (files[1], "1"), (files[0], "2")):
        argv = ["mean", "--input", path, "--algo", "sample", "--ell", "2",
                "--eps", "1", "--delta", "0.1", "--p", p, "--seed", "11"]
        ops.append(Op(argv, path, planted=base))
    return ops


def _battery_small(rng, out: Path, tiny: bool) -> list[Op]:
    # c08-style ramps; evenly spaced vertices keep the refine grid covers, and
    # so the candidate count, nearly independent of the draw
    lengths = (2, 2, 2) if tiny else (2, 3, 2, 3, 2)
    eps = "1" if tiny else "0.5"
    paths = []
    for i in range(3):
        seqs = [
            PointSequence((np.linspace(0.0, 1.0, m) + rng.uniform(-0.15, 0.15, m)).reshape(-1, 1))
            for m in lengths
        ]
        paths.append(_save(Dataset(seqs), out, f"b{i}.json"))
    plan = [(paths[0], "1"), (paths[1], "1"), (paths[2], "1"), (paths[0], "2"), (paths[1], "2")]
    return [
        Op(["bench", "--input", path, "--eps", eps, "--delta", "0.2",
            "--ell", "2", "--p", p, "--seed", "13"], path)
        for path, p in plan
    ]


def _cluster_planted(rng, out: Path, tiny: bool) -> list[Op]:
    # c09-style: two planted groups at 0 and 30 of two-vertex sequences
    per_group = 2 if tiny else 3
    beta, eps = ("5", "4") if tiny else ("8", "1")
    ops = []
    for i in range(4):
        seqs = [
            PointSequence(np.array([[base], [base + 1.0]]) + rng.uniform(-0.3, 0.3, size=(2, 1)))
            for base in (0.0, 30.0)
            for _ in range(per_group)
        ]
        path = _save(Dataset(seqs), out, f"c{i}.json")
        argv = ["cluster", "--input", path, "--algo", "cand1", "--k", "2",
                "--beta", beta, "--delta", "0.2", "--eps", eps, "--ell", "2",
                "--p", "1", "--seed", str(17 + i)]
        ops.append(Op(argv, path, oracle_k=2))
    return ops


def _distance_long(rng, out: Path, tiny: bool) -> list[Op]:
    pair_lengths = (
        [(20, 24), (24, 20)]
        if tiny
        else [(450, 500), (470, 480), (490, 460), (500, 450), (480, 470)]
    )
    ops = []
    for i, (m1, m2) in enumerate(pair_lengths):
        T = Dataset([PointSequence(_walk(rng, m1, 2)), PointSequence(_walk(rng, m2, 2))])
        path = _save(T, out, f"d{i}.json")
        ops.append(Op(["dtw", "--input", path, "--p", "2"], path))
    if tiny:
        base_m, lengths = 12, [(10, 1), (12, 1), (14, 1)]
    else:
        base_m = 200
        lengths = [(int(m), 1) for m in np.linspace(150, 250, 16).round()]
    for i in range(2):
        base = _walk(rng, base_m, 2)
        path = _save(_synthetic(rng, base, lengths, 0.3), out, f"s{i}.json")
        # a fixed round count keeps the work independent of when DBA stalls
        argv = ["mean", "--input", path, "--algo", "dba", "--p", "2",
                "--ell", "8", "--max-iters", "3"]
        ops.append(Op(argv, path, planted=base))
    return ops


_BUILDERS = {
    "mean-sample": _mean_sample,
    "battery-small": _battery_small,
    "cluster-planted": _cluster_planted,
    "distance-long": _distance_long,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build(name: str, variant: int, out: Path, size: str = "full") -> Workload:
    """Write the inputs of one workload variant under `out` and return its ops.

    Paths in the ops are relative to `out`, so reports have the same bytes
    wherever the workload directory lives; run the ops with `out` as cwd.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng([WORKLOADS.index(name), variant, SIZES.index(size)])
    out.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[name](rng, out, size == "tiny")
    for i, op in enumerate(ops):
        op.argv += ["--output", f"out{i}.json"]
    return Workload(ops)
