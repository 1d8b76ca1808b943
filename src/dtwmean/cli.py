"""Command-line interface.

    dtwmean <dtw|simplify|mean|cluster|oracle|bench|gen> [options]

Every command reads a dataset (``--input``), writes a JSON report
(``--output`` or stdout) and is fully determined by its flags and ``--seed``.
Exit codes: 0 success, 2 validation error, 3 capacity guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .bench import (
    RunConfig,
    bench,
    default_battery,
    execute_run,
    oracle_mode_for,
)
from .clustering import ClusteringParams, k_clustering
from .core import dtw
from .dataio import FORMATS, load_dataset, save_dataset
from .errors import CapacityError, DomainError
from .oracle import MODES, exact_clustering, exact_mean
from .simplify import simplify
from .synth import generate_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_IO = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="dataset file (json or csv)")
    sub.add_argument("--output", help="report path; stdout when omitted")
    sub.add_argument("--format", choices=FORMATS, help="override format inference")
    sub.add_argument("--p", type=float, default=1.0, help="distance exponent (default 1)")
    sub.add_argument("--q", type=float, default=None, help="cost exponent (default: p)")
    sub.add_argument("--ell", type=int, default=2, help="mean complexity budget")
    sub.add_argument("--eps", type=float, default=1.0, help="approximation slack")
    sub.add_argument("--delta", type=float, default=0.1, help="failure probability")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtwmean",
        description="Restricted-complexity means and clusterings under p-DTW",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dtw = sub.add_parser("dtw", help="distance between the first two sequences")
    _add_common(p_dtw)

    p_simp = sub.add_parser("simplify", help="simplify every sequence to <= ell vertices")
    _add_common(p_simp)

    p_mean = sub.add_parser("mean", help="approximate restricted mean")
    _add_common(p_mean)
    p_mean.add_argument(
        "--algo",
        choices=("sample", "net", "refine", "dba"),
        default="sample",
        help="sample: randomized constant factor; net: deterministic constant "
        "factor; refine: (1+eps) median scheme; dba: averaging baseline",
    )
    p_mean.add_argument("--max-iters", type=int, default=50, help="dba iteration cap")

    p_cluster = sub.add_parser("cluster", help="(k, ell, p, q)-clustering")
    _add_common(p_cluster)
    p_cluster.add_argument("--algo", choices=("cand1", "cand2"), default="cand1")
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument("--beta", type=float, required=True)

    p_oracle = sub.add_parser("oracle", help="exact desk-scale reference solution")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--algo",
        choices=MODES,
        default=None,
        help="oracle mode; inferred from p, q and the dimension when omitted",
    )
    p_oracle.add_argument("--k", type=int, default=None, help="cluster instead of mean")

    p_bench = sub.add_parser("bench", help="comparison battery or explicit run list")
    _add_common(p_bench)
    p_bench.add_argument("--parallel", action="store_true", help="run entries concurrently")

    p_gen = sub.add_parser("gen", help="synthesize a dataset from a base sequence")
    _add_common(p_gen)
    p_gen.add_argument("--n", type=int, default=8, help="number of sequences")
    p_gen.add_argument("--noise", type=float, default=0.1, help="uniform noise half-width")
    p_gen.add_argument(
        "--resample",
        default=None,
        help="MIN,MAX resampled sequence length (default: base length twice)",
    )
    return parser


def _report_out(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _effective_q(args) -> float:
    return args.q if args.q is not None else args.p


def _run_command(args) -> dict:
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "gen":
        return _cmd_gen(args)
    T = load_dataset(args.input, args.format)
    q = _effective_q(args)
    start = time.perf_counter()
    if args.command == "dtw":
        if T.n < 2:
            raise DomainError("dtw needs at least two sequences in the dataset")
        res = dtw(T.sequences[0], T.sequences[1], args.p)
        body = {
            "result": {
                "distance": res.distance,
                "warping": [list(pair) for pair in res.warping.pairs],
            }
        }
    elif args.command == "simplify":
        results = [simplify(s, args.ell, args.p) for s in T.sequences]
        body = {
            "result": {
                "sequences": [r.sequence.as_list() for r in results],
                "costs": [r.discrete_cost for r in results],
            }
        }
    elif args.command == "cluster":
        params = ClusteringParams(
            k=args.k, beta=args.beta, delta=args.delta,
            p=args.p, q=q, ell=args.ell, eps=args.eps,
        )
        res = k_clustering(T, params, generator=args.algo, seed=args.seed)
        body = {
            "result": {
                "centers": [c.as_list() for c in res.centers],
                "cost": res.cost,
            }
        }
    elif args.command == "oracle":
        mode = args.algo or oracle_mode_for(args.p, q, T.dimension)
        if args.k is not None:
            centers, total = exact_clustering(T, args.k, args.ell, mode, args.p, q)
            body = {
                "result": {
                    "centers": [c.as_list() for c in centers],
                    "cost": total,
                    "mode": mode,
                }
            }
        else:
            res = exact_mean(T, args.ell, mode, args.p, q)
            body = {
                "result": {
                    "sequence": res.mean.as_list(),
                    "cost": res.cost,
                    "mode": mode,
                }
            }
    else:  # mean
        cfg = RunConfig(
            algo=args.algo, p=args.p, q=args.q, ell=args.ell, eps=args.eps,
            delta=args.delta, seed=args.seed, max_iters=args.max_iters,
        )
        row = execute_run(T, cfg)
        if "error" in row:
            if "capacity" in row["flags"]:
                raise CapacityError(row["error"])
            raise DomainError(row["error"])
        body = {k: row[k] for k in ("result", "objective", "candidates", "flags")}
    body["command"] = args.command
    body["config"] = _config_echo(args)
    body["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    return body


def _config_echo(args) -> dict:
    skip = {"output", "command", "format"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _cmd_bench(args) -> dict:
    path = Path(args.input)
    text = path.read_text()
    if not text.strip():
        raise DomainError(f"{path}: empty file")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from None
    base = RunConfig(
        algo="sample", p=args.p, q=args.q, ell=args.ell, eps=args.eps,
        delta=args.delta, seed=args.seed,
    )
    if isinstance(obj, dict) and "runs" in obj:
        if not isinstance(obj["runs"], list):
            raise DomainError(f"{path}: 'runs' must be a list of run configs")
        configs = [RunConfig.from_dict(entry) for entry in obj["runs"]]
        report = bench(configs, default_dataset=None, parallel=args.parallel)
    else:
        T = load_dataset(args.input, args.format)
        report = bench(default_battery(base), default_dataset=T, parallel=args.parallel)
    report["command"] = "bench"
    report["config"] = _config_echo(args)
    return report


def _cmd_gen(args) -> dict:
    # --format applies to the generated output; the input format is inferred
    base = load_dataset(args.input).sequences[0]
    if args.resample:
        try:
            lo, hi = (int(v) for v in args.resample.split(","))
        except ValueError:
            raise DomainError("--resample expects MIN,MAX integers") from None
    else:
        lo = hi = base.complexity
    T = generate_synthetic(base, args.n, args.noise, (lo, hi), args.seed)
    if not args.output:
        raise DomainError("gen requires --output for the dataset file")
    save_dataset(T, args.output, args.format)
    return {
        "command": "gen",
        "config": _config_echo(args),
        "result": {"sequences": T.n, "dimension": T.dimension, "path": args.output},
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run_command(args)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        # gen's --output names the dataset file, so its report goes to stdout
        _report_out(report, None if args.command == "gen" else args.output)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
