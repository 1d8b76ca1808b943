"""Command-line interface.

    dtwmean <dtw|simplify|mean|cluster|oracle|bench|gen> [options]

Every command reads a dataset (``--input``), writes a strict JSON report
(``--output`` or stdout; a non-finite number in it is a validation error)
and is fully determined by its flags and ``--seed``.  A report is one line
of compact JSON (``python -m json.tool`` pretty-prints it); dataset files
written by ``gen`` keep their indented layout.
Exit codes: 0 success, 2 validation error, 3 capacity guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .bench import ALGOS, READS, RunConfig, bench, default_battery, oracle_mode_for, solve
from .clustering import ClusteringParams, k_clustering
from .core import Dataset, dtw
from .dataio import FORMATS, load_dataset, load_input, save_dataset
from .errors import CapacityError, DomainError
from .oracle import MODES, exact_clustering
from .simplify import simplify
from .synth import generate_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_IO = 4

#: Type and help of the options that only some commands read; each parses
#: to None, and `_resolve` fills those a run reads from `RunConfig`.
OPTIONS = {
    "p": (float, "distance exponent (default 1)"),
    "q": (float, "cost exponent (default: p)"),
    "ell": (int, "mean complexity budget"),
    "eps": (float, "approximation slack"),
    "delta": (float, "failure probability"),
    "seed": (int, "RNG seed"),
}

#: Every subcommand in help order: its summary, the `OPTIONS` it reads and
#: its own arguments as `add_argument` keywords.
COMMANDS = {
    "dtw": ("distance between the first two sequences", ("p",), {}),
    "simplify": ("simplify every sequence to <= ell vertices", ("p", "ell"), {}),
    "mean": ("approximate restricted mean", ("p", "ell", "eps", "delta", "seed"), {
        "--algo": dict(
            choices=ALGOS[:-1],  # the oracle has a command of its own
            default="sample",
            help="sample: randomized constant factor; net: deterministic constant "
            "factor; refine: (1+eps) median scheme; dba: averaging baseline",
        ),
        "--max-iters": dict(type=int, help="dba iteration cap (default 50; dba only)"),
    }),
    "cluster": ("(k, ell, p, q)-clustering", tuple(OPTIONS), {
        "--algo": dict(choices=("cand1", "cand2"), default="cand1"),
        "--k": dict(type=int, required=True),
        "--beta": dict(type=float, required=True),
    }),
    "oracle": ("exact desk-scale reference solution", ("p", "q", "ell"), {
        "--algo": dict(
            choices=MODES, help="oracle mode; inferred from p, q and the dimension when omitted"
        ),
        "--k": dict(type=int, help="cluster instead of mean"),
    }),
    "bench": ("comparison battery or explicit run list", tuple(OPTIONS), {}),
    "gen": ("synthesize a dataset from a base sequence", ("seed",), {
        "--n": dict(type=int, default=8, help="number of sequences"),
        "--noise": dict(type=float, default=0.1, help="uniform noise half-width"),
        "--resample": dict(help="MIN,MAX resampled sequence length (default: base length twice)"),
    }),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one that holds only the subcommand `command`.

    Both give that subcommand the same help, usage and error text: the
    one-command parser still names every command in its usage line.
    """
    parser = argparse.ArgumentParser(
        prog="dtwmean",
        description="Restricted-complexity means and clusterings under p-DTW",
    )
    metavar = "{%s}" % ",".join(COMMANDS) if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        summary, options, arguments = COMMANDS[name]
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--input", required=True, help="dataset file (json or csv)")
        cmd.add_argument("--output", help="report path; stdout when omitted")
        cmd.add_argument("--format", choices=FORMATS, help="override format inference")
        for opt in options:
            kind, text = OPTIONS[opt]
            cmd.add_argument(f"--{opt}", type=kind, help=text)
        for flag, spec in arguments.items():
            cmd.add_argument(flag, **spec)
    return parser


def _report_out(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"the report holds a non-finite number: {exc}") from None
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _effective_q(args) -> float:
    return args.q if args.q is not None else args.p


def _run_command(args) -> dict:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.command == "bench":
        return _cmd_bench(args)
    algo = getattr(args, "algo", None)  # cand2 draws no eps-sized sample, so it reads no --eps
    reads = READS[algo] if args.command == "mean" else COMMANDS[args.command][1]
    _resolve(args, [k for k in reads if (algo, k) != ("cand2", "eps")], f"--algo {algo}")
    if args.command == "gen":
        return _cmd_gen(args)
    T = load_dataset(args.input, args.format)
    start = time.perf_counter()
    extra = {}
    if args.command == "dtw":
        if T.n < 2:
            raise DomainError("dtw needs at least two sequences in the dataset")
        res = dtw(T.sequences[0], T.sequences[1], args.p)
        result = {"distance": res.distance, "warping": [list(pair) for pair in res.warping.pairs]}
    elif args.command == "simplify":
        results = [simplify(s, args.ell, args.p) for s in T.sequences]
        result = {
            "sequences": [r.sequence.as_list() for r in results],
            "costs": [r.discrete_cost for r in results],
        }
    elif args.command == "cluster":
        params = ClusteringParams(
            k=args.k, beta=args.beta, delta=args.delta, p=args.p, q=_effective_q(args),
            ell=args.ell, eps=ClusteringParams.eps if args.eps is None else args.eps,
        )
        res = k_clustering(T, params, generator=args.algo, seed=args.seed)
        result = {"centers": [c.as_list() for c in res.centers], "cost": res.cost}
    elif args.command == "oracle" and args.k is not None:
        q = _effective_q(args)
        mode = args.algo or oracle_mode_for(args.p, q, T.dimension)
        centers, total = exact_clustering(T, args.k, args.ell, mode, args.p, q)
        result = {"centers": [c.as_list() for c in centers], "cost": total, "mode": mode}
    elif args.command == "oracle":
        result = solve(T, _run_config(args, "oracle", mode=args.algo))["result"]
    else:  # mean: solve's objective, candidates and flags follow the result
        extra = solve(T, _run_config(args, args.algo))
        result = extra.pop("result")
    return {
        "result": result,
        **extra,
        "command": args.command,
        "config": _config_echo(args),
        "runtime_ms": (time.perf_counter() - start) * 1000.0,
    }


def _config_echo(args) -> dict:
    skip = {"output", "command", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _resolve(args, reads, given_with: str) -> None:
    """Refuse each option given that the run does not read, and fill each it
    reads from `RunConfig`, so that the config echo names exactly what ran."""
    given = [k for k in (*OPTIONS, "max_iters") if getattr(args, k, None) is not None]
    unread = [f"--{k.replace('_', '-')}" for k in given if k not in reads]
    if unread:
        raise DomainError(f"{', '.join(unread)} cannot be given with {given_with}")
    for k in set(reads) - set(given):
        setattr(args, k, getattr(RunConfig, k))


def _run_config(args, algo: str, **fields) -> RunConfig:
    # RunConfig's defaults fill the options this run does not read
    given = {k: v for k in (*OPTIONS, "max_iters") if (v := getattr(args, k, None)) is not None}
    return RunConfig(algo=algo, **given, **fields)


def _cmd_bench(args) -> dict:
    source = load_input(args.input, args.format)
    runs = not isinstance(source, Dataset)
    _resolve(args, () if runs else OPTIONS, "a run list; each run names its own fields")
    if runs:
        configs, dataset = [RunConfig.from_dict(entry) for entry in source], None
    else:
        configs, dataset = default_battery(_run_config(args, "sample")), source
    report = bench(configs, default_dataset=dataset)
    report["command"] = "bench"
    report["config"] = _config_echo(args)
    return report


def _cmd_gen(args) -> dict:
    if not args.output:
        raise DomainError("gen requires --output for the dataset file")
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
    save_dataset(T, args.output, args.format)
    return {
        "command": "gen",
        "config": _config_echo(args),
        "result": {"sequences": T.n, "dimension": T.dimension, "path": args.output},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help, a missing or unknown command and a leading option need the full parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        report = _run_command(args)
        # gen's --output names the dataset file, so its report goes to stdout
        _report_out(report, None if args.command == "gen" else args.output)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
