"""Per-layer spans and counts, recorded by wrapping dtwmean's functions from outside.

`Tracer.install` replaces each function in `LAYERS` by a wrapper at every
import site: every attribute of every loaded ``dtwmean`` module that is the
original function object.  Calls inside the package go through module
globals, so nested calls are seen too.  `Tracer.uninstall` puts every
original back.

A span is ``[name, start, end, parent, bookkeeping_s]``; spans stay in memory
and are reduced once per pass.  Counting work (array shapes, file sizes,
distinct rows) runs after a span has ended and is charged to no layer: its
time is kept apart as bookkeeping, so that for every pass

    wall = sum of self times + bookkeeping + uncovered

where uncovered is the part of the pass outside every top-level span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

#: layer -> (module, function) pairs wrapped; a span is named after its
#: module without the package prefix or a leading underscore.
LAYERS = {
    "kernel": [("dtwmean._batch", "score_candidates")],
    "distance": [
        ("dtwmean.core", "dtw"),
        ("dtwmean.core", "cost"),
        ("dtwmean.core", "optimal_sections"),
        ("dtwmean.simplify", "simplify"),
    ],
    "candgen": [
        ("dtwmean.meanapprox", "enumerate_tuples"),
        ("dtwmean.meanapprox", "dedup_rows"),
        ("dtwmean.ranges", "epsilon_net"),
        ("dtwmean.ranges", "ball_ranges"),
        ("dtwmean.refine", "grid_cover"),
        ("dtwmean.clustering", "_cand1"),
    ],
    "driver": [
        ("dtwmean.meanapprox", "mean_c"),
        ("dtwmean.meanapprox", "mean_c_d"),
        ("dtwmean.refine", "med_appr"),
        ("dtwmean.clustering", "k_clustering"),
        ("dtwmean.oracle", "exact_mean"),
        ("dtwmean.oracle", "exact_clustering"),
        ("dtwmean.dba", "dba"),
        ("dtwmean.bench", "bench"),
    ],
    "io_cli": [("dtwmean.dataio", "load_dataset"), ("dtwmean.cli", "main")],
}

_WRAPPED_MARK = "__perfbench_original__"


def span_name(module: str, func: str) -> str:
    return module.removeprefix("dtwmean.").lstrip("_") + "." + func


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _children(tr: "Tracer", idx: int, name: str) -> list[int]:
    return [j for j in range(idx + 1, len(tr.spans)) if tr.spans[j][3] == idx and tr.spans[j][0] == name]


def _count_score(tr, idx, args, kwargs, result):
    T, cands = _arg(args, kwargs, 0, "T"), _arg(args, kwargs, 1, "cands")
    K, L, d = cands.shape
    msum = sum(s.complexity for s in T.sequences)
    c = tr.counts
    c["batch.score_candidates.candidates"] += K
    c["batch.score_candidates.cand_pairs"] += K * T.n
    c["batch.score_candidates.cells"] += K * L * msum
    # computed, not measured: per DP cell the kernel holds d coordinate
    # differences, one powered distance and one accumulator, all float64
    c["batch.score_candidates.bytes_computed"] += 8 * (d + 2) * K * L * msum
    if K:
        # distinct rows, counted on a 64-bit hash of their bit patterns: one
        # integer sort instead of a sort of K rows
        bits = np.ascontiguousarray(cands, dtype=np.float64).reshape(K, L * d).view(np.uint64)
        h = np.zeros(K, dtype=np.uint64)
        for j in range(L * d):
            h = _mix64(h ^ bits[:, j])
        h.sort()
        c["batch.score_candidates.distinct"] += 1 + int(np.count_nonzero(h[1:] != h[:-1]))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _count_dtw(tr, idx, args, kwargs, result):
    tr.counts["core.dtw.cells"] += len(_arg(args, kwargs, 0, "sigma")) * len(_arg(args, kwargs, 1, "tau"))


def _count_simplify(tr, idx, args, kwargs, result):
    # the pairwise distance matrix and the segment table are both m x m
    tr.counts["simplify.simplify.cells"] += len(_arg(args, kwargs, 0, "pi")) ** 2


def _count_tuples(tr, idx, args, kwargs, result):
    tr.counts["meanapprox.enumerate_tuples.candidates"] += sum(len(block) for block in result)


def _count_ranges(tr, idx, args, kwargs, result):
    tr.counts["ranges.ball_ranges.ranges"] += len(result)


def _count_cover(tr, idx, args, kwargs, result):
    tr.counts["refine.grid_cover.points"] += len(result)


def _count_cand1(tr, idx, args, kwargs, result):
    # kept on the span for the enclosing k_clustering's row-cache ratio
    tr.spans[idx].append(len(result))
    tr.counts["clustering._cand1.candidates"] += len(result)


def _count_clustering(tr, idx, args, kwargs, result):
    # each cache miss of k_clustering's row cache makes one dtw call per sequence
    n = _arg(args, kwargs, 0, "T").n
    tr.counts["clustering.k_clustering.rows_computed"] += len(_children(tr, idx, "core.dtw")) // n
    tr.counts["clustering.k_clustering.candidates_generated"] += sum(
        tr.spans[j][5] for j in _children(tr, idx, "clustering._cand1")
    )


def _count_dba(tr, idx, args, kwargs, result):
    tr.counts["dba.dba.iterations"] += len(_children(tr, idx, "core.optimal_sections"))


def _count_load(tr, idx, args, kwargs, result):
    tr.counts["dataio.load_dataset.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_main(tr, idx, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    if "--output" in argv:
        tr.counts["cli.report_bytes"] += os.path.getsize(argv[argv.index("--output") + 1])


COUNTERS = {
    "batch.score_candidates": _count_score,
    "core.dtw": _count_dtw,
    "simplify.simplify": _count_simplify,
    "meanapprox.enumerate_tuples": _count_tuples,
    "ranges.ball_ranges": _count_ranges,
    "refine.grid_cover": _count_cover,
    "clustering._cand1": _count_cand1,
    "clustering.k_clustering": _count_clustering,
    "dba.dba": _count_dba,
    "dataio.load_dataset": _count_load,
    "cli.main": _count_main,
}


class Tracer:
    """Spans and counts of one pass; `recording` off makes the wrappers transparent."""

    def __init__(self) -> None:
        self.recording = False
        self.patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.top_bookkeeping = 0.0

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            parent = tr.stack[-1] if tr.stack else -1
            idx = len(tr.spans)
            span = [name, 0.0, 0.0, parent, 0.0]
            tr.spans.append(span)
            tr.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tr.stack.pop()
            if counter is not None:
                counter(tr, idx, args, kwargs, result)
                spent = time.perf_counter() - span[2]
                if parent >= 0:
                    tr.spans[parent][4] += spent
                else:
                    tr.top_bookkeeping += spent
            return result

        setattr(wrapper, _WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function at every dtwmean import site."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "dtwmean" or k.startswith("dtwmean.")]
        for specs in LAYERS.values():
            for module, func in specs:
                original = getattr(sys.modules[module], func)
                wrapper = self._wrap(span_name(module, func), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched = []

    def reduce(self, wall: float) -> dict:
        """Calls, self times and counts of the pass just traced, which took `wall` seconds."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        top = 0.0
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
            else:
                top += d
        calls: Counter = Counter()
        self_s: Counter = Counter()
        bookkeeping = self.top_bookkeeping
        for s, d, c in zip(self.spans, dur, child):
            calls[s[0]] += 1
            self_s[s[0]] += d - c - s[4]
            bookkeeping += s[4]
        return {
            "wall": wall,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "bookkeeping_s": bookkeeping,
            "uncovered_s": wall - top - self.top_bookkeeping,
        }


def leaked_wrappers() -> list[str]:
    """Module attributes of dtwmean that are still wrappers; empty after uninstall."""
    return [
        f"{name}.{attr}"
        for name, mod in list(sys.modules.items())
        if name == "dtwmean" or name.startswith("dtwmean.")
        for attr, value in vars(mod).items()
        if hasattr(value, _WRAPPED_MARK)
    ]


#: (name, unit, better) of every per-layer metric a traced run prints.  A
#: function's self time is printed as its share of the traced time less
#: bookkeeping: a function a workload never calls would otherwise print a time
#: of exactly 0 on every run.  The seconds are in the detail line (`self_s`).
PER_LAYER = [
    ("batch.score_candidates.calls", "count", "lower"),
    ("batch.score_candidates.self_share", "ratio", "lower"),
    ("batch.score_candidates.candidates", "count", "lower"),
    ("batch.score_candidates.cand_pairs", "count", "lower"),
    ("batch.score_candidates.cells", "count", "lower"),
    ("batch.score_candidates.bytes_computed", "B", "lower"),
    ("batch.score_candidates.cells_per_s", "1/s", "higher"),
    ("batch.score_candidates.distinct_ratio", "ratio", "higher"),
    ("core.dtw.calls", "count", "lower"),
    ("core.dtw.self_share", "ratio", "lower"),
    ("core.dtw.cells", "count", "lower"),
    ("core.dtw.cells_per_s", "1/s", "higher"),
    ("core.cost.calls", "count", "lower"),
    ("core.cost.self_share", "ratio", "lower"),
    ("core.optimal_sections.self_share", "ratio", "lower"),
    ("simplify.simplify.calls", "count", "lower"),
    ("simplify.simplify.self_share", "ratio", "lower"),
    ("simplify.simplify.cells", "count", "lower"),
    ("meanapprox.enumerate_tuples.self_share", "ratio", "lower"),
    ("meanapprox.enumerate_tuples.candidates", "count", "lower"),
    ("meanapprox.dedup_rows.self_share", "ratio", "lower"),
    ("ranges.epsilon_net.self_share", "ratio", "lower"),
    ("ranges.ball_ranges.self_share", "ratio", "lower"),
    ("ranges.ball_ranges.ranges", "count", "lower"),
    ("refine.grid_cover.calls", "count", "lower"),
    ("refine.grid_cover.self_share", "ratio", "lower"),
    ("refine.grid_cover.points", "count", "lower"),
    ("clustering._cand1.calls", "count", "lower"),
    ("clustering._cand1.self_share", "ratio", "lower"),
    ("clustering._cand1.candidates", "count", "lower"),
    ("meanapprox.mean_c.self_share", "ratio", "lower"),
    ("meanapprox.mean_c_d.self_share", "ratio", "lower"),
    ("refine.med_appr.self_share", "ratio", "lower"),
    ("clustering.k_clustering.self_share", "ratio", "lower"),
    ("clustering.row_cache_hit_ratio", "ratio", "higher"),
    ("oracle.exact_mean.self_share", "ratio", "lower"),
    ("oracle.exact_clustering.self_share", "ratio", "lower"),
    ("dba.dba.self_share", "ratio", "lower"),
    ("dba.dba.iterations", "count", "lower"),
    ("bench.bench.self_share", "ratio", "lower"),
    ("dataio.load_dataset.calls", "count", "lower"),
    ("dataio.load_dataset.self_share", "ratio", "lower"),
    ("dataio.load_dataset.bytes_read", "B", "lower"),
    ("cli.main.self_share", "ratio", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("layer.kernel.share", "ratio", "lower"),
    ("layer.distance.share", "ratio", "lower"),
    ("layer.candgen.share", "ratio", "lower"),
    ("layer.driver.share", "ratio", "lower"),
    ("layer.io_cli.share", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[dict], untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metric values (times averaged per pass, counts of one pass) and
    a detail record with the seconds and the accounting check."""
    n = len(passes)
    wall = sum(p["wall"] for p in passes) / n
    self_s: Counter = Counter()
    for p in passes:
        self_s.update(p["self_s"])
    self_s = {k: v / n for k, v in self_s.items()}
    first = passes[0]
    counts = Counter(first["counts"])
    counts.update({f"{k}.calls": v for k, v in first["calls"].items()})
    # reports carry runtime_ms, whose digit count varies, so report bytes may not repeat
    def exact(p):
        return {k: v for k, v in p["counts"].items() if k != "cli.report_bytes"}, p["calls"]

    stable = all(exact(p) == exact(first) for p in passes)
    bookkeeping = sum(p["bookkeeping_s"] for p in passes) / n
    uncovered = sum(p["uncovered_s"] for p in passes) / n
    # shares are of the time the program ran under tracing, without the counting
    busy = wall - bookkeeping
    shares = {
        layer: sum(self_s.get(span_name(m, f), 0.0) for m, f in specs) / busy
        for layer, specs in LAYERS.items()
    }
    derived = {
        "batch.score_candidates.cells_per_s": _ratio(
            counts["batch.score_candidates.cells"], self_s.get("batch.score_candidates", 0.0)
        ),
        "batch.score_candidates.distinct_ratio": _ratio(
            counts["batch.score_candidates.distinct"], counts["batch.score_candidates.candidates"]
        ),
        "core.dtw.cells_per_s": _ratio(counts["core.dtw.cells"], self_s.get("core.dtw", 0.0)),
        "clustering.row_cache_hit_ratio": (
            1.0 - _ratio(
                counts["clustering.k_clustering.rows_computed"],
                counts["clustering.k_clustering.candidates_generated"],
            )
            if counts["clustering.k_clustering.candidates_generated"]
            else 0.0
        ),
        "trace.uncovered_share": uncovered / busy,
        "trace.bookkeeping_s": bookkeeping,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": wall / untraced_wall,
    }
    derived.update({f"layer.{k}.share": v for k, v in shares.items()})
    values = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_share"):
            value = self_s.get(name.removesuffix(".self_share"), 0.0) / busy
        else:
            value = counts[name]
        values[name] = {"value": value, "unit": unit}
    detail = {
        "traced_passes": n,
        "self_s": self_s,
        "counts_repeat_across_passes": stable,
        "self_s_sum": sum(self_s.values()),
        "bookkeeping_s": bookkeeping,
        "uncovered_s": uncovered,
        "wall_s": wall,
        "accounting_residual_s": wall - sum(self_s.values()) - bookkeeping - uncovered,
        "computed_not_measured": [
            "batch.score_candidates.cells", "batch.score_candidates.bytes_computed",
            "core.dtw.cells", "simplify.simplify.cells",
        ],
    }
    return values, detail
