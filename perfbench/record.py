#!/usr/bin/env python3
"""Record the seed reference outputs of every workload variant into reference.json.

    python3 perfbench/record.py

Runs each variant's op list once through the CLI and stores, per op, the
SHA-256 of the emitted result, the emitted costs and the reference cost that
`cost_ratio_mean` divides by (exact_clustering optimum for cluster ops, the
planted shape simplified to ell vertices for mean ops).  Re-record only on
purpose: a later run compares against these files, so recording over them
hides any change of results.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

WORKERS = 2


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def reference_cost(op, T) -> float | None:
    from dtwmean.core import cost
    from dtwmean.oracle import exact_clustering
    from dtwmean.simplify import simplify

    if op.oracle_k is not None:
        ell = int(_flag(op.argv, "--ell"))
        return exact_clustering(T, op.oracle_k, ell, "line-1-1")[1]
    if op.planted is not None:
        p = float(_flag(op.argv, "--p"))
        ell = int(_flag(op.argv, "--ell"))
        return cost(T, simplify(op.planted, ell, p).sequence, p, p)
    return None


def record_variant(size: str, name: str, variant: int) -> tuple[str, list[dict]]:
    from dtwmean import cli
    from dtwmean.dataio import load_dataset

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(name, variant, Path(tmp), size)
        os.chdir(tmp)
        try:
            entries = []
            for op in wl.ops:
                if cli.main(list(op.argv)) != 0:
                    raise RuntimeError(f"{size}/{name}/{variant}: {op.argv} failed")
                report = json.loads(Path(_flag(op.argv, "--output")).read_text())
                payload, costs = checks.extract(report)
                T = load_dataset(op.input)
                entries.append({
                    "digest": checks.digest(payload),
                    "costs": costs,
                    "ref_cost": reference_cost(op, T),
                })
        finally:
            os.chdir(cwd)
    return f"{size}/{name}/{variant}", entries


def main() -> int:
    jobs = [
        (size, name, v)
        for size in workloads.SIZES
        for name in workloads.WORKLOADS
        for v in range(workloads.VARIANTS)
    ]
    with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
        refs = dict(pool.map(record_variant, *zip(*jobs)))
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], separators=(',', ':'))}" for k in sorted(refs)]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(refs)} variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
