#!/usr/bin/env python3
"""Replay benchmark workload variants and compare them with perfbench/reference.json.

Builds each selected (size, workload, variant) with `perfbench.workloads.build`,
runs its ops once through `dtwmean.cli.main` in a temporary directory, and
checks every report with `perfbench.checks.check`, the same check a benchmark
pass makes.  Prints each op that differs and a count.  Reads perfbench/ and
writes nothing there.  By default it replays all 4 workloads x 32 variants x
2 sizes (1120 ops), which is too slow for the test suite; a benchmark run or
`perfbench/selftest.py` sees only one variant, so run this after any change
that may move an output.

Usage: python scripts/check_reference.py [--size full tiny] [--workload NAME ...]
                                         [--variant N ...]
Exits 1 when an op differs, 0 otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402

from dtwmean import cli  # noqa: E402
from dtwmean.dataio import load_dataset  # noqa: E402


def replay(size: str, workload: str, variant: int, ref: list[dict]) -> dict[str, list[str]]:
    """The problems of each op of one variant that differs, keyed by its argv."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(workload, variant, Path(tmp), size)
        os.chdir(tmp)
        try:
            problems = {}
            for op, op_ref in zip(wl.ops, ref):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(op.argv))
                if code != 0:
                    found = [f"exit code {code}"]
                else:
                    report = json.loads(Path(op.argv[op.argv.index("--output") + 1]).read_text())
                    found = checks.check(report, op_ref, load_dataset(op.input))
                if found:
                    problems[" ".join(op.argv)] = found
            return problems
        finally:
            os.chdir(cwd)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", nargs="+", choices=workloads.SIZES, default=list(workloads.SIZES))
    ap.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    ap.add_argument("--variant", nargs="+", type=int, default=list(range(workloads.VARIANTS)))
    args = ap.parse_args()

    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    runs = ops = bad_ops = 0
    for size in args.size:
        for workload in args.workload:
            for variant in args.variant:
                ref = refs[f"{size}/{workload}/{variant}"]
                problems = replay(size, workload, variant, ref)
                runs += 1
                ops += len(ref)
                bad_ops += len(problems)
                for argv, found in problems.items():
                    print(f"{size}/{workload}/{variant} ({argv}): {'; '.join(found)}")
    print(f"{bad_ops} of {ops} ops differ ({runs} variants)")
    return 1 if bad_ops else 0


if __name__ == "__main__":
    sys.exit(main())
