#!/usr/bin/env python3
"""Run one `dtwmean` command in a child process under an address-space limit.

The child sets `RLIMIT_AS` on itself alone before it imports the package, so
a command that allocates past the limit fails in the child (a MemoryError,
exit 1) and never takes memory from the machine.  The child runs in a
temporary directory that holds `probe.json`, the d = 3 dataset below, so an
argv can read it as `--input probe.json`.  Prints the child's exit code, its
peak RSS (`RUSAGE_CHILDREN`), the wall time and its last stderr line.

With no argv it runs the d = 3 refine probe,

    mean --algo refine --p 1 --ell 1 --eps 1 --delta 0.9 --seed 2 --input probe.json

which builds grid covers of 0.7-2.2 M points per draw and rung before it
exits 3 on the candidate budget.

Usage: python scripts/memory_probe.py [--limit-mb MB] [-- dtwmean argv ...]
Exits 0 once the child has run, whatever its exit code.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DATASET = {
    "dimension": 3,
    "sequences": [
        [[2.1, 1.2, -1.5]],
        [[2.1, 1.2, -1.5], [2.1, 1.2, -1.5]],
        [[1.8, -2.1, -1.7], [-3.0, 2.6, -2.0], [2.0, 0.1, -2.7], [2.0, 0.1, -2.7]],
    ],
}
PROBE = ["mean", "--algo", "refine", "--p", "1", "--ell", "1", "--eps", "1",
         "--delta", "0.9", "--seed", "2", "--input", "probe.json"]

CHILD = """\
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.path.insert(0, sys.argv[2])
from dtwmean.cli import main
sys.exit(main(sys.argv[3:]))
"""


def run(argv: list[str], limit_mb: float) -> dict:
    """Run `dtwmean argv` in a limited child; its exit code, peak RSS, wall
    time and last stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "probe.json").write_text(json.dumps(DATASET))
        cmd = [sys.executable, "-c", CHILD, str(int(limit_mb * 2**20)), str(ROOT / "src"), *argv]
        # one BLAS thread, so that the library's per-thread buffers stay inside the limit
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
    lines = proc.stderr.strip().splitlines()
    return {
        "exit": proc.returncode,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "wall_s": wall,
        "stderr": lines[-1] if lines else "",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit-mb", type=float, default=1536.0,
                        help="the child's address-space limit in MB (default 1536)")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the dtwmean argv, after --; the d = 3 refine probe when omitted")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    res = run(argv or PROBE, args.limit_mb)
    print(f"argv: {' '.join(argv or PROBE)}")
    print(f"exit: {res['exit']}")
    print(f"peak_rss_mb: {res['peak_rss_mb']:.1f}")
    print(f"wall_s: {res['wall_s']:.2f}")
    print(f"stderr: {res['stderr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
