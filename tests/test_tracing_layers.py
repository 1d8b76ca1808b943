"""The benchmark's tracer must find every function it wraps and count its work.

`perfbench/tracing.py` names the traced functions as (module, function)
pairs in `LAYERS`, and its counters read their arguments and results.  A
function renamed or deleted here, or one whose signature or result changes
shape, would otherwise break only a traced benchmark run, never the test
suite.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: counters that each workload's tiny variant fills, one per traced layer it runs
COUNTERS = {
    "mean-sample": ["dataio.load_dataset.bytes_read", "cli.report_bytes"],
    "battery-small": ["refine.grid_cover.points", "simplify.simplify.cells"],
    "cluster-planted": [
        "batch.score_candidates.candidates",
        "clustering._cand1.candidates",
        "clustering.k_clustering.candidates_generated",
    ],
    "distance-long": ["core.dtw.cells", "simplify.simplify.cells"],
}


def load(name: str, monkeypatch):
    """perfbench/<name>.py as a module, registered in `sys.modules` for the
    test alone (dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    tracing = load("tracing", monkeypatch)
    pairs = [pair for specs in tracing.LAYERS.values() for pair in specs]
    missing = [
        f"{module}.{func}"
        for module, func in pairs
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert pairs and missing == []


@pytest.mark.parametrize("workload", list(COUNTERS))
def test_a_traced_pass_fills_the_workloads_counters(monkeypatch, tmp_path, workload):
    tracing, workloads = load("tracing", monkeypatch), load("workloads", monkeypatch)
    from dtwmean import cli

    ops = workloads.build(workload, 0, tmp_path, "tiny").ops
    monkeypatch.chdir(tmp_path)  # the ops' paths are relative to the workload directory
    tracer = tracing.Tracer()
    start = time.perf_counter()
    try:
        tracer.install()
        tracer.recording = True
        codes = [cli.main(list(op.argv)) for op in ops]
    finally:
        tracer.recording = False
        tracer.uninstall()
    wall = time.perf_counter() - start
    assert codes == [0] * len(ops)
    assert tracing.leaked_wrappers() == []
    assert [name for name in COUNTERS[workload] if not tracer.counts[name] > 0] == []
    values, _ = tracing.layer_metrics([tracer.reduce(wall)], wall)
    assert list(values) == [name for name, _, _ in tracing.PER_LAYER]
