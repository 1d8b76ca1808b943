#!/usr/bin/env python3
"""dtwmean benchmark: fixed seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each op is one ``dtwmean.cli.main(argv)`` call writing its report
to a file; ops run back to back in this one process and thread (closed loop,
one client, no ``--parallel``, ``DTWMEAN_THREADS`` unset).  A run repeats the
workload's op list in passes until ``--seconds`` have passed, after one
untimed warm-up op, and checks every op's output after each pass (untimed).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends a third of
the time on untraced passes and the rest on traced passes, and prints the
per-layer metrics.  The last stdout line is the result JSON; the lines
before it record the environment and details.  Warm-up is the only cache
control: the file cache and machine settings are left alone.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool to one thread before numpy is imported, so the
# load never exceeds one core; the program's own pool size is left unset
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DTWMEAN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: fresh interpreters started to time set-up; their median is reported
SETUP_REPEATS = 7
#: share of a traced run spent on the untraced passes it is compared with
UNTRACED_SHARE = 1 / 3

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("cost_ratio_mean", "ratio", "lower"),
    ("setup_s", "s", "lower"),
]

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dtwmean.cli
from dtwmean.dataio import load_dataset
for path in sys.argv[2:]:
    load_dataset(path)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test only")
    return ap.parse_args(argv)


def environment(seed: int, variant: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "seed": seed,
        "variant": variant,
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "cache_control": "one untimed warm-up op; file cache and machine settings untouched",
    }


def setup_seconds(workdir: Path, inputs: list[str]) -> float:
    """Median time, in fresh interpreters, to import dtwmean.cli and load the inputs once."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *inputs],
            cwd=workdir, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs a workload's ops through the CLI and checks each report."""

    def __init__(self, workload, refs: list[dict] | None):
        from dtwmean import cli
        from dtwmean.dataio import load_dataset

        self.cli = cli
        self.workload = workload
        self.refs = refs
        # datasets for the scalar recomputation, loaded once outside any pass
        self.datasets = {name: load_dataset(name) for name in workload.inputs}
        self.failures: list[str] = []
        self.ratios: list[float] | None = None

    def run_op(self, op) -> tuple[int, float]:
        start = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv))
        except Exception:  # a crashing op counts as failed; the run goes on
            self.failures.append(f"{' '.join(op.argv)} raised: {traceback.format_exc()}")
            code = -1
        return code, time.perf_counter() - start

    def run_pass(self) -> tuple[float, list[float], list[int]]:
        latencies, codes = [], []
        start = time.perf_counter()
        for op in self.workload.ops:
            code, seconds = self.run_op(op)
            codes.append(code)
            latencies.append(seconds)
        return time.perf_counter() - start, latencies, codes

    def check_pass(self, codes: list[int]) -> int:
        """Check the reports of the pass just run; returns the number of failed ops."""
        import checks

        failed = 0
        ratios = []
        for i, (op, code) in enumerate(zip(self.workload.ops, codes)):
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            elif self.refs is None:
                problems.append("no seed reference for this variant")
            else:
                try:
                    report = json.loads(Path(op.argv[op.argv.index("--output") + 1]).read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    problems.append(f"unreadable report: {exc}")
                else:
                    problems += checks.check(report, self.refs[i], self.datasets[op.input])
                    if not problems:
                        ratios += checks.quality_ratios(report, self.refs[i])
            if problems:
                failed += 1
                self.failures.append(f"op {i} ({' '.join(op.argv)}): {'; '.join(problems)}")
        if self.ratios is None:
            self.ratios = ratios
        return failed


def measure(runner: Runner, seconds: float, tracer=None) -> dict:
    """Repeat the op list until `seconds` have passed; at least one pass.

    With a tracer, it records only while a pass runs, never during the checks,
    and each pass is reduced to its per-layer figures.
    """
    walls, latencies, traces = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.recording = True
        wall, lat, codes = runner.run_pass()
        if tracer is not None:
            tracer.recording = False
            traces.append(tracer.reduce(wall))
            tracer.reset()
        walls.append(wall)
        latencies += lat
        attempted += len(codes)
        failed += runner.check_pass(codes)
    return {"walls": walls, "latencies": latencies, "attempted": attempted,
            "failed": failed, "traces": traces}


def load_refs(size: str, workload: str, variant: int) -> list[dict] | None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return refs.get(f"{size}/{workload}/{variant}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    import workloads

    variant = workloads.variant_of(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    cwd = os.getcwd()
    try:
        wl = workloads.build(args.workload, variant, workdir, args.size)
        setup = None if args.trace else setup_seconds(workdir, wl.inputs)
        os.chdir(workdir)
        runner = Runner(wl, load_refs(args.size, args.workload, variant))
        runner.run_op(wl.ops[0])  # warm-up, untimed and unchecked
        detail = {"workload": args.workload, "ops_per_pass": len(wl.ops)}
        if args.trace:
            metrics, res = traced(runner, args.seconds, detail)
        else:
            res = measure(runner, args.seconds)
            lat = res["latencies"]
            k = len(wl.ops)
            # this machine's speed for interpreter-bound code drifts by tens of
            # percent over seconds, so timings are means over the whole run:
            # a median of bursty samples jumps between the fast and slow modes
            slot_means = [statistics.fmean(lat[i::k]) for i in range(k)]
            ratios = runner.ratios or []
            metrics = {
                "wall_s": metric(statistics.fmean(res["walls"]), "s"),
                "op_p50_ms": metric(statistics.median(slot_means) * 1000.0, "ms"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "ok_frac": metric((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
                # 0 only when no op passed its check, and then `correct` is false
                "cost_ratio_mean": metric(statistics.fmean(ratios) if ratios else 0.0, "ratio"),
                "setup_s": metric(setup, "s"),
            }
            detail.update(
                passes=len(res["walls"]),
                ops_timed=len(lat),
                pass_walls_s=res["walls"],
                op_mean_ms=[t * 1000.0 for t in slot_means],
                quality_ratios=len(ratios),
            )
            if len(lat) >= 100:
                detail["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1000.0
        detail["failures"] = runner.failures[:10]
        result = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
        return result, detail
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def traced(runner: Runner, seconds: float, detail: dict) -> tuple[dict, dict]:
    import tracing

    plain = measure(runner, seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = measure(runner, seconds * (1 - UNTRACED_SHARE), tracer)
    finally:
        tracer.uninstall()
    leaks = tracing.leaked_wrappers()
    if leaks:
        raise RuntimeError(f"wrappers left installed: {leaks}")
    values, trace_detail = tracing.layer_metrics(res["traces"], statistics.fmean(plain["walls"]))
    detail.update(trace_detail, counts=res["traces"][0]["counts"])
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    return values, res


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dtwmean" / "cli.py").is_file():
        print(f"error: no dtwmean source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed, workloads.variant_of(args.seed))))
    result, detail = run(args)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
