"""Run configurations, the algorithm dispatcher and the comparison harness."""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import Dataset, cost
from .dataio import load_dataset
from .dba import dba, default_dba_init
from .errors import CapacityError, DomainError, DtwMeanError
from .meanapprox import mean_c, mean_c_d
from .oracle import exact_mean
from .refine import med_appr

THREADS_ENV = "DTWMEAN_THREADS"

MEAN_ALGOS = ("sample", "net", "refine", "dba")
BATTERY = ("sample", "net", "refine", "dba", "oracle")


@dataclass
class RunConfig:
    """One benchmark entry: an algorithm plus its resolved parameters."""

    algo: str
    p: float = 1.0
    q: float | None = None
    ell: int = 2
    eps: float = 1.0
    delta: float = 0.1
    seed: int = 0
    input: str | None = None
    k: int | None = None
    beta: float | None = None
    mode: str | None = None
    max_iters: int = 50

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise DomainError(f"run config must be a JSON object, got {obj!r}")
        if "algo" not in obj:
            raise DomainError("run config needs an 'algo' field")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise DomainError(f"unknown run config fields: {sorted(unknown)}")
        return cls(**obj)


def oracle_mode_for(p: float, q: float, dimension: int) -> str:
    if p == 2 and q == 2:
        return "euclidean-2-2"
    if p == 1 and q == 1 and dimension == 1:
        return "line-1-1"
    return "discrete"


def objective_for(algo: str, p: float, q: float) -> tuple[float, float]:
    """Exponents (p, q) of the cost each algorithm actually minimizes."""
    if algo in ("sample", "net", "dba"):
        return p, p
    if algo == "refine":
        return p, 1.0
    return p, q


def execute_run(T: Dataset, cfg: RunConfig) -> dict:
    """Run one algorithm and report its sequence, cost and bookkeeping."""
    q = cfg.q if cfg.q is not None else cfg.p
    obj_p, obj_q = objective_for(cfg.algo, cfg.p, q)
    row: dict = {
        "algo": cfg.algo,
        "objective": {"p": obj_p, "q": obj_q},
        "seed": cfg.seed,
        "flags": [],
        "candidates": None,
        "ratio": None,
    }
    start = time.perf_counter()
    try:
        if cfg.algo == "sample":
            res = mean_c(T, cfg.delta, cfg.eps, cfg.p, cfg.ell, cfg.seed)
            row["result"] = {"sequence": res.sequence.as_list(), "cost": res.cost}
            row["candidates"] = res.candidates_scored
            row["flags"].extend(res.flags)
        elif cfg.algo == "net":
            res = mean_c_d(T, cfg.eps, cfg.p, cfg.ell)
            row["result"] = {"sequence": res.sequence.as_list(), "cost": res.cost}
            row["candidates"] = res.candidates_scored
            row["flags"].extend(res.flags)
        elif cfg.algo == "refine":
            res = med_appr(T, cfg.eps, cfg.p, cfg.delta, cfg.ell, cfg.seed)
            row["result"] = {"sequence": res.sequence.as_list(), "cost": res.cost}
            row["candidates"] = res.candidates_scored
            row["flags"].extend(res.flags)
        elif cfg.algo == "dba":
            init = default_dba_init(T, cfg.ell, cfg.p)
            res = dba(T, init, cfg.p, cfg.max_iters)
            row["result"] = {
                "sequence": res.sequence.as_list(),
                "cost": res.cost,
                "trace": res.trace,
            }
        elif cfg.algo == "oracle":
            mode = cfg.mode or oracle_mode_for(cfg.p, q, T.dimension)
            res = exact_mean(T, cfg.ell, mode, cfg.p, q)
            row["objective"] = {"p": cfg.p, "q": q}
            row["result"] = {
                "sequence": res.mean.as_list(),
                "cost": res.cost,
                "mode": res.mode,
            }
        else:
            raise DomainError(f"unknown benchmark algorithm {cfg.algo!r}")
    except DtwMeanError as exc:
        row["error"] = str(exc)
        row["flags"].append("capacity" if isinstance(exc, CapacityError) else "invalid")
    row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    return row


def _oracle_optimum(T: Dataset, p: float, q: float, ell: int) -> dict:
    mode = oracle_mode_for(p, q, T.dimension)
    try:
        res = exact_mean(T, ell, mode, p, q)
        return {"cost": res.cost, "mode": mode, "feasible": True}
    except CapacityError as exc:
        return {"cost": None, "mode": mode, "feasible": False, "error": str(exc)}


def max_workers() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"{THREADS_ENV} must be an integer, got {env!r}")
    return min(8, os.cpu_count() or 1)


def bench(
    configs: list[RunConfig],
    default_dataset: Dataset | None = None,
    parallel: bool = False,
) -> dict:
    """Run every config, attach oracle ratios where feasible, return the report.

    Per-run failures are captured into the corresponding row instead of
    aborting the batch.  The oracle optimum is computed once per (dataset,
    objective, ell) and reused for ratios; with only the vertex-restricted
    oracle mode available the ratio is flagged as a reference value, since a
    continuous-valued algorithm may legitimately beat it.
    """
    datasets: dict[str | None, Dataset] = {}

    def dataset_for(cfg: RunConfig) -> Dataset:
        key = cfg.input
        if key not in datasets:
            if key is None:
                if default_dataset is None:
                    raise DomainError("run config has no input and no default dataset given")
                datasets[key] = default_dataset
            else:
                datasets[key] = load_dataset(Path(key))
        return datasets[key]

    def one(cfg: RunConfig) -> dict:
        return execute_run(dataset_for(cfg), cfg)

    if parallel and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=max_workers()) as pool:
            rows = list(pool.map(one, configs))
    else:
        rows = [one(cfg) for cfg in configs]

    optima: dict[tuple, dict] = {}
    for cfg, row in zip(configs, rows):
        if "result" not in row or cfg.algo == "oracle":
            if cfg.algo == "oracle" and "result" in row:
                row["ratio"] = 1.0
            continue
        obj = row["objective"]
        key = (cfg.input, obj["p"], obj["q"], cfg.ell)
        if key not in optima:
            optima[key] = _oracle_optimum(
                dataset_for(cfg), obj["p"], obj["q"], cfg.ell
            )
        opt = optima[key]
        if not opt["feasible"]:
            row["flags"].append("no-oracle")
        elif opt["cost"] == 0.0:
            row["ratio"] = 1.0 if row["result"]["cost"] == 0.0 else None
            row["flags"].append("zero-optimum")
        else:
            row["ratio"] = row["result"]["cost"] / opt["cost"]
            if opt["mode"] == "discrete":
                row["flags"].append("discrete-oracle-reference")
    return {"runs": rows}


def default_battery(cfg: RunConfig) -> list[RunConfig]:
    """The standard comparison battery derived from one base config."""
    base = asdict(cfg)
    out = []
    for algo in BATTERY:
        entry = dict(base)
        entry["algo"] = algo
        out.append(RunConfig.from_dict(entry))
    return out
