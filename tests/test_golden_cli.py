"""Seeded CLI reports must match a committed golden file byte for byte.

`tests/data/golden_cli.json` holds two small seeded datasets (d = 1 with a
-0.0 coordinate, and d = 2) and, for every case of the grid below, the exit
code and the `json.dumps` text of the report with every `runtime_ms` removed.
Text is compared, not parsed dicts, so key order is checked too.  Commands
run in the dataset directory on relative paths, so no absolute path reaches a
report.  A failing command records its exit code and the category of its
stderr line (`validation error`, `capacity guard`, `i/o error`), not the
message.  The file was recorded before `mean`, `oracle` and `bench` shared one
dispatcher; any refactor of the CLI must reproduce it exactly.

Re-record (on purpose only) with:

    PYTHONPATH=src python tests/test_golden_cli.py --record

which prints the id of every case whose entry differs from the committed
file, and how many cases changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtwmean import Dataset, PointSequence, save_dataset
from dtwmean.cli import main

from conftest import changed_cases, report_changes

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

DATASETS = ("d1.json", "d2.json")
PS = ("1", "2", "1.5")
COMMON = {"--ell": "2", "--eps": "1", "--delta": "0.3", "--seed": "3"}
# the flags of --p and COMMON that a case's command and algorithm read, where
# they read only some, by case name or else by command
TAKES = {"dtw": {"--p"}, "simplify": {"--p", "--ell"}, "oracle": {"--p", "--ell"},
         "gen": {"--seed"}, "mean-net": {"--p", "--ell", "--eps"}, "mean-dba": {"--p", "--ell"},
         "cluster-cand2": {"--p", "--ell", "--delta", "--seed"}}


def golden_datasets() -> dict[str, str]:
    """File name -> JSON text of the two seeded datasets."""
    out = {}
    for d, name in zip((1, 2), DATASETS):
        rng = np.random.default_rng([d, 8191])
        seqs = []
        for m in (2, 3, 2, 1):
            seqs.append(np.round(rng.uniform(0.0, 3.0, size=(m, d)), 2))
        if d == 1:
            seqs[1][0, 0] = -0.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            save_dataset(Dataset([PointSequence(s) for s in seqs]), path)
            out[name] = path.read_text()
    return out


def run_list(data: str, p: str) -> dict:
    """A bench run list whose entries pass, fail validation and hit a guard."""
    return {"runs": [
        {"algo": "net", "input": data, "p": float(p)},
        {"algo": "bogus", "input": data, "p": float(p)},
        {"algo": "refine", "input": data, "p": float(p), "ell": 8, "eps": 0.5, "seed": 1},
        {"algo": "oracle", "input": data, "p": float(p), "mode": "line-1-1"},
        {"algo": "dba", "input": data, "p": float(p), "max_iters": 3},
    ]}


def cases() -> list[tuple[str, list[str]]]:
    """(id, argv) of every recorded command; run-list files are named in argv."""
    out = []
    for data in DATASETS:
        tag = data.removesuffix(".json")
        for p in PS:
            flags = {"--p": p, **COMMON}
            grid = [
                ("dtw", ["dtw"]),
                ("simplify", ["simplify"]),
                *((f"mean-{a}", ["mean", "--algo", a]) for a in ("sample", "net", "refine", "dba")),
                ("oracle", ["oracle"]),
                ("oracle-discrete", ["oracle", "--algo", "discrete"]),
                ("oracle-k2", ["oracle", "--k", "2"]),
                *((f"cluster-{g}", ["cluster", "--algo", g, "--k", "2", "--beta", "5"])
                  for g in ("cand1", "cand2")),
                ("bench", ["bench"]),
                ("gen", ["gen", "--output", f"gen-{tag}-p{p}.json", "--n", "3", "--noise", "0.2"]),
            ]
            for name, head in grid:
                keep = TAKES.get(name, TAKES.get(head[0], flags))
                taken = [s for flag in flags if flag in keep for s in (flag, flags[flag])]
                out.append((f"{tag}-p{p}-{name}", [*head, "--input", data, *taken]))
            runs = f"runs-{tag}-p{p}.json"
            out.append((f"{tag}-p{p}-bench-runs", ["bench", "--input", runs]))
        out += [
            (f"{tag}-mean-capacity", ["mean", "--input", data, "--ell", "7", "--eps", "0.05",
                                      "--delta", "0.01"]),
            (f"{tag}-oracle-mode-mismatch", ["oracle", "--input", data, "--algo", "line-1-1",
                                             "--p", "2"]),
            (f"{tag}-cluster-small-beta", ["cluster", "--input", data, "--k", "2", "--beta", "3"]),
            (f"{tag}-dtw-missing", ["dtw", "--input", f"missing-{data}"]),
        ]
    return out


def prepare(workdir: Path, datasets: dict[str, str]) -> None:
    for name, text in datasets.items():
        (workdir / name).write_text(text)
    for data in DATASETS:
        for p in PS:
            runs = workdir / f"runs-{data.removesuffix('.json')}-p{p}.json"
            runs.write_text(json.dumps(run_list(data, p)))


def _strip_runtime(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtime(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [_strip_runtime(v) for v in obj]
    return obj


def outcome(argv: list[str]) -> dict:
    """Exit code plus report text (success) or stderr category (failure)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # med_appr warns when eps is above its proven range; the search runs all the same
        warnings.simplefilter("ignore", UserWarning)
        code = main(argv)
    if code != 0:
        return {"exit": code, "stderr": err.getvalue().split(":", 1)[0]}
    return {"exit": 0, "report": json.dumps(_strip_runtime(json.loads(out.getvalue())))}


def record() -> dict:
    datasets = golden_datasets()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp), datasets)
        os.chdir(tmp)
        try:
            recorded = [{"id": cid, "argv": argv, **outcome(argv)} for cid, argv in cases()]
        finally:
            os.chdir(cwd)
    return {"datasets": datasets, "cases": recorded}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def workdir(golden, tmp_path, monkeypatch):
    prepare(tmp_path, golden["datasets"])
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_changed_ids_name_changed_added_and_dropped_cases():
    old = [{"id": "a", "exit": 0}, {"id": "b", "exit": 0}, {"id": "c", "exit": 2}]
    new = [{"id": "a", "exit": 0}, {"id": "b", "exit": 3}, {"id": "d", "exit": 0}]
    assert changed_cases(old, new, ("id",)) == [("b",), ("d",), ("c",)]
    assert changed_cases(new, new, ("id",)) == []


def test_golden_case_list_is_complete(golden):
    assert [(c["id"], c["argv"]) for c in golden["cases"]] == [
        (cid, argv) for cid, argv in cases()
    ]


@pytest.mark.parametrize("cid,argv", cases(), ids=[cid for cid, _ in cases()])
def test_cli_report_matches_golden(golden, workdir, cid, argv):
    case = next(c for c in golden["cases"] if c["id"] == cid)
    want = {k: case[k] for k in ("exit", "report", "stderr") if k in case}
    assert outcome(argv) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    rec = record()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"datasets": {}, "cases": []}
    if old["datasets"] != rec["datasets"]:
        print("datasets changed")
    report_changes(old["cases"], rec["cases"], ("id",))
    lines = ",\n".join(json.dumps(c) for c in rec["cases"])
    GOLDEN.write_text(
        '{"datasets": ' + json.dumps(rec["datasets"]) + ',\n"cases": [\n' + lines + "\n]}\n"
    )
