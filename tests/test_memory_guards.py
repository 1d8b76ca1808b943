"""Every command stops at a guard before it allocates, checked in a child
process whose address space is limited.

Each case's input is sized just past one guard that is checked before the
allocation it bounds, so the command must exit 3 with that guard's line.
The child sets `RLIMIT_AS` on itself alone: a command whose guard is gone
runs to its end or fails inside the child with a MemoryError, and takes no
more memory than the limit either way.  Children run one at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The child's address-space limit; the interpreter and numpy take about
#: 100 MB of it.
LIMIT = 512 * 2**20

CHILD = """\
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.path.insert(0, sys.argv[2])
from dtwmean.cli import main
sys.exit(main(sys.argv[3:]))
"""

DATASETS = {
    "small.json": [[[0.0], [1.0]], [[0.5], [2.0]], [[1.5], [0.25]]],
    "points.json": [[[0.0]], [[1.0]], [[0.5]]],
    "long.json": [[[i % 7 * 0.5] for i in range(4001)], [[i % 5 * 0.5] for i in range(4000)]],
    "pool41.json": [[[i * 0.25]] for i in range(41)],
    "ten.json": [[[i * 0.5] for i in range(10)]],
}

#: command -> (argv, the guard's message); each count is just past its guard
CASES = {
    "dtw": (["dtw", "--input", "long.json"],
            "a 4001 x 4000 x 1 distance matrix exceeds the guard of 16000000 elements"),
    "simplify": (["simplify", "--input", "long.json"],
                 "a 4001 x 4001 x 1 distance matrix exceeds the guard of 16000000 elements"),
    "mean-sample": (["mean", "--algo", "sample", "--input", "small.json", "--eps", "5.991e-7"],
                    "10000782 draws exceed the sample guard of 10000000"),
    "mean-net": (["mean", "--algo", "net", "--input", "pool41.json"],
                 "41 points exceed the subsystem guard 40"),
    # one ball of 10000002 cells, refused before its cells are tested
    "mean-refine": (["mean", "--algo", "refine", "--input", "points.json", "--eps", "1.6e-6"],
                    "grid cover would visit more than 10000000 cells"),
    # a ball of 9.9 M cells, under the cell guard, refused on its least
    # cover's tuples before the cover is built (367.6 MB peak RSS once built)
    "mean-refine-budget": (
        ["mean", "--algo", "refine", "--input", "points.json", "--eps", "1.61e-6"],
        "candidate budget 10000000 exceeded at rung r=0.3333333333333333"),
    "mean-dba": (["mean", "--algo", "dba", "--input", "long.json"],
                 "a 4001 x 4001 x 1 distance matrix exceeds the guard of 16000000 elements"),
    "cluster": (["cluster", "--input", "small.json", "--k", "1", "--beta", "451809"],
                "10000014 draws exceed the sample guard of 10000000"),
    "oracle": (["oracle", "--input", "ten.json", "--ell", "10"],
               "1462563+ warping tuples at mean length 10 exceed the guard of 1000000"),
    "gen": (["gen", "--input", "small.json", "--output", "gen.json", "--n", "16001",
             "--resample", "1000,1000"],
            "16001 x 1000 x 1 generated coordinates exceed the guard of 16000000 elements"),
}


#: cases whose unguarded run fits in `LIMIT`, run under a limit it does not fit
LIMITS = {"mean-refine-budget": 256 * 2**20}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("guards")
    for name, sequences in DATASETS.items():
        (path / name).write_text(json.dumps({"sequences": sequences}))
    return path


def run_limited(workdir: Path, argv: list[str], limit: int = LIMIT) -> subprocess.CompletedProcess:
    # one BLAS thread, so that the library's per-thread buffers stay inside the limit
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(limit), str(SRC), *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_command_past_its_guard_exits_3_before_allocating(workdir, case):
    argv, message = CASES[case]
    proc = run_limited(workdir, argv, LIMITS.get(case, LIMIT))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"capacity guard: {message}\n")
    assert not (workdir / "gen.json").exists()


def test_bench_records_a_guard_in_its_row(workdir):
    argv, message = CASES["mean-sample"]
    runs = [{"algo": "sample", "input": "small.json", "eps": float(argv[-1])}]
    (workdir / "runs.json").write_text(json.dumps({"runs": runs}))
    proc = run_limited(workdir, ["bench", "--input", "runs.json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    (row,) = json.loads(proc.stdout)["runs"]
    assert (row["flags"], row["error"]) == (["capacity"], message)
