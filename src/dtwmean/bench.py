"""Run configurations, the algorithm dispatcher and the comparison harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .core import Dataset
from .dataio import load_dataset
from .dba import dba, default_dba_init
from .errors import CapacityError, DomainError, DtwMeanError
from .meanapprox import mean_c, mean_c_d
from .oracle import exact_mean
from .refine import med_appr

#: Each algorithm in battery order: the `RunConfig` fields it reads besides algo and input
READS = {
    "sample": ("p", "ell", "eps", "delta", "seed"),
    "net": ("p", "ell", "eps"),
    "refine": ("p", "ell", "eps", "delta", "seed"),
    "dba": ("p", "ell", "max_iters"),
    "oracle": ("p", "q", "ell", "mode"),
}
ALGOS = tuple(READS)


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
    mode: str | None = None
    max_iters: int = 50

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise DomainError(f"run config must be a JSON object, got {obj!r}")
        if "algo" not in obj:
            raise DomainError("run config needs an 'algo' field")
        fields = cls.__dataclass_fields__
        unknown = set(obj) - set(fields)
        if unknown:
            raise DomainError(f"unknown run config fields: {sorted(unknown)}")
        for name, value in obj.items():
            kind = fields[name].type  # "str", "int", "float", each maybe "| None"
            if value is None and kind.endswith("| None"):
                continue
            if kind.startswith("str"):
                ok = isinstance(value, str)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                ok = False
            else:
                ok = isinstance(value, int) if kind.startswith("int") else -math.inf < value < math.inf
            if not ok:
                raise DomainError(f"run config field {name!r} must be {kind}, got {value!r}")
        reads = {"algo", "input", *READS.get(obj["algo"], fields)}  # unknown algos fail in solve
        unread = sorted(k for k, v in obj.items() if v is not None and k not in reads)
        if unread:
            raise DomainError(f"run config fields {unread} are not read by algo {obj['algo']!r}")
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


def solve(T: Dataset, cfg: RunConfig) -> dict:
    """Run one algorithm: its `result`, `objective`, `candidates` and `flags`.

    Raises DtwMeanError when the algorithm rejects its input or hits a guard.
    """
    candidates, flags = None, []
    if cfg.algo in ("sample", "net", "refine"):
        mean = {"sample": mean_c, "net": mean_c_d, "refine": med_appr}[cfg.algo]
        res = mean(T, **{name: getattr(cfg, name) for name in READS[cfg.algo]})
        result = {"sequence": res.sequence.as_list(), "cost": res.cost}
        candidates, flags = res.candidates_scored, res.flags
    elif cfg.algo == "dba":
        res = dba(T, default_dba_init(T, cfg.ell, cfg.p), cfg.p, cfg.max_iters)
        result = {"sequence": res.sequence.as_list(), "cost": res.cost, "trace": res.trace}
    elif cfg.algo == "oracle":
        q = cfg.q if cfg.q is not None else cfg.p
        mode = cfg.mode or oracle_mode_for(cfg.p, q, T.dimension)
        res = exact_mean(T, cfg.ell, mode, cfg.p, q)
        result = {"sequence": res.mean.as_list(), "cost": res.cost, "mode": res.mode}
    else:
        raise DomainError(f"unknown benchmark algorithm {cfg.algo!r}")
    return {
        "result": result,
        "objective": _objective(cfg),
        "candidates": candidates,
        "flags": list(flags),
    }


def _objective(cfg: RunConfig) -> dict:
    p, q = objective_for(cfg.algo, cfg.p, cfg.q if cfg.q is not None else cfg.p)
    return {"p": p, "q": q}


def execute_run(T: Dataset, cfg: RunConfig) -> dict:
    """`solve` as a benchmark row; a failure is recorded in the row, not raised."""
    row: dict = {"algo": cfg.algo, "objective": _objective(cfg)}
    if "seed" in READS.get(cfg.algo, ()):  # a row names the seed only where it was read
        row["seed"] = cfg.seed
    row.update(flags=[], candidates=None, ratio=None)
    start = time.perf_counter()
    try:
        row.update(solve(T, cfg))
    except DtwMeanError as exc:
        row["error"] = str(exc)
        row["flags"].append("capacity" if isinstance(exc, CapacityError) else "invalid")
    row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    return row


def _oracle_optimum(T: Dataset, p: float, q: float, ell: int) -> dict | None:
    """The exact mean's `result` under the inferred mode; None past its guard."""
    try:
        return solve(T, RunConfig("oracle", p=p, q=q, ell=ell))["result"]
    except CapacityError:
        return None


def bench(configs: list[RunConfig], default_dataset: Dataset | None = None) -> dict:
    """Run every config, attach oracle ratios where feasible, return the report.

    A run's failure is captured into its row instead of aborting the batch.
    Its dataset is loaded outside the row, though: a config with no `input`
    and no `default_dataset`, or whose `input` is no valid dataset, raises
    DomainError (CLI exit 2), and an `input` that cannot be read raises
    OSError (exit 4); either aborts the whole batch with no report.
    The oracle optimum is computed once per (dataset, objective, ell) and
    reused for ratios; with only the vertex-restricted oracle mode available
    the ratio is flagged as a reference value, since a continuous-valued
    algorithm may legitimately beat it.
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

    rows = [execute_run(dataset_for(cfg), cfg) for cfg in configs]

    # an oracle row of inferred mode has already solved the optimum of its
    # objective (None past its guard); an invalid one is solved again to raise
    optima: dict[tuple, dict | None] = {}
    for cfg, row in zip(configs, rows):
        if cfg.algo == "oracle" and cfg.mode is None and "invalid" not in row["flags"]:
            obj = row["objective"]
            optima[(cfg.input, obj["p"], obj["q"], cfg.ell)] = row.get("result")
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
        if opt is None:
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
    return [replace(cfg, algo=algo) for algo in ALGOS]
