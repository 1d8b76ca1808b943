#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that the benchmark command prints, as its last line, every metric
named in BENCHMARK.json with its unit (end-to-end with --trace 0, per-layer
with --trace 1) and passes its output checks on every workload; that tracing
wraps each layer function at every import site and restores every module
attribute afterwards; and that the command fails without printing a result
where there is no program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins the thread pools before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "0.3",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_printed(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench_command(ROOT, name, trace)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: output check failed: {proc.stdout.splitlines()[-2][:500]}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected[trace].items()))
                errors.append(f"{where}: metrics missing {missing}, unexpected {extra}")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                errors.append(f"{where}: non-numeric values {bad}")


def _attributes() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name == "dtwmean" or name.startswith("dtwmean.")
        for attr, value in vars(mod).items()
    }


def check_wrapping_restored(errors: list[str]) -> None:
    import dtwmean.cli  # noqa: F401  (load every module before the snapshot)

    before = _attributes()
    originals = {
        (module, func): getattr(sys.modules[module], func)
        for specs in tracing.LAYERS.values()
        for module, func in specs
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, func), fn in originals.items():
            left = [k for k, v in _attributes().items() if v == id(fn)]
            if left:
                errors.append(f"{module}.{func} not wrapped at {left}")
        if not tracing.leaked_wrappers():
            errors.append("install wrapped nothing")
    finally:
        tracer.uninstall()
    # a traced run end to end, in this process
    args = run.parse_args(["--workload", "cluster-planted", "--seed", "0",
                           "--seconds", "0.3", "--trace", "1", "--size", "tiny"])
    result, _ = run.run(args)
    if not result["correct"]:
        errors.append("in-process traced run failed its output check")
    after = _attributes()
    changed = sorted(k for k in before if after.get(k) != before[k])
    if changed:
        errors.append(f"module attributes not restored after tracing: {changed}")
    if tracing.leaked_wrappers():
        errors.append(f"wrappers left installed: {tracing.leaked_wrappers()}")


def check_fails_without_source(errors: list[str]) -> None:
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_command(tmp, workloads.WORKLOADS[0], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            errors.append("benchmark without program source did not fail cleanly")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    errors: list[str] = []
    check_metrics_printed(errors)
    check_wrapping_restored(errors)
    check_fails_without_source(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
