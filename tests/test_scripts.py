"""Every script in scripts/ runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARGS = {
    # every workload's argv shapes, at tiny size: 16 ops
    "check_reference.py": ["--size", "tiny", "--variant", "0"],
    "compare_algorithms.py": ["--n", "4"],
    "planted_clustering.py": ["--trials", "2"],
    "success_rates.py": ["--trials", "2"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(ARGS)


def assert_script_exits_0(script: str, env: dict[str, str], args=None) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(ARGS[script] if args is None else args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


@pytest.mark.parametrize("script", sorted(ARGS))
def test_script_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    assert_script_exits_0(script, {**os.environ, "PYTHONPATH": path})


def test_full_size_clustering_matches_the_reference():
    # the clustering search at benchmark scale: cluster-planted variants 0-3, 16 ops
    args = ["--size", "full", "--workload", "cluster-planted", "--variant", "0", "1", "2", "3"]
    out = assert_script_exits_0("check_reference.py", dict(os.environ), args)
    assert out.strip().endswith("0 of 16 ops differ (4 variants)")


def test_check_reference_runs_without_pythonpath():
    # a source checkout with nothing installed: the script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    assert_script_exits_0("check_reference.py", env)
