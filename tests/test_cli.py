import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import dtwmean.cli as cli
import dtwmean.core as core
import dtwmean.meanapprox as meanapprox
import dtwmean.oracle as oracle
from dtwmean import Dataset, cost, load_dataset, save_dataset
from dtwmean.bench import RunConfig
from dtwmean.cli import main

from conftest import random_dataset, seq
from test_golden_cli import golden_datasets


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def strip_timing(report):
    if isinstance(report, dict):
        return {
            k: strip_timing(v) for k, v in report.items() if k != "runtime_ms"
        }
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report


@pytest.fixture
def dataset_path(tmp_path, rng):
    T = random_dataset(rng, n=5, max_len=3, min_len=2, lo=0.0, hi=3.0)
    path = tmp_path / "data.json"
    save_dataset(T, path)
    return str(path)


# the options each mean algorithm and cluster generator reads; it refuses the others
MEAN_READS = {
    "sample": {"--p", "--ell", "--eps", "--delta", "--seed"},
    "net": {"--p", "--ell", "--eps"},
    "refine": {"--p", "--ell", "--eps", "--delta", "--seed"},
    "dba": {"--p", "--ell", "--max-iters"},
}
CLUSTER_READS = {
    "cand1": {"--p", "--q", "--ell", "--eps", "--delta", "--seed"},
    "cand2": {"--p", "--q", "--ell", "--delta", "--seed"},
}


class TestCommands:
    def test_dtw(self, capsys, dataset_path):
        code, rep = run_cli(capsys, "dtw", "--input", dataset_path, "--p", "1")
        assert code == 0
        assert rep["result"]["distance"] >= 0
        assert rep["result"]["warping"][0] == [1, 1]

    def test_simplify(self, capsys, dataset_path):
        code, rep = run_cli(
            capsys, "simplify", "--input", dataset_path, "--ell", "2", "--p", "1"
        )
        assert code == 0
        assert len(rep["result"]["sequences"]) == 5

    @pytest.mark.parametrize("algo", ["sample", "net", "refine", "dba"])
    def test_mean_algos_cost_recomputable(self, capsys, dataset_path, algo):
        flags = {"--p": "1", "--ell": "2", "--eps": "1", "--delta": "0.2", "--seed": "3"}
        argv = [s for flag in flags if flag in MEAN_READS[algo] for s in (flag, flags[flag])]
        code, rep = run_cli(capsys, "mean", "--input", dataset_path, "--algo", algo, *argv)
        assert code == 0
        T = Dataset([seq(*[v[0] for v in s]) for s in json.load(open(dataset_path))["sequences"]])
        obj = rep["objective"]
        recomputed = cost(T, rep["result"]["sequence"], obj["p"], obj["q"])
        assert abs(recomputed - rep["result"]["cost"]) <= 1e-9 * max(1.0, recomputed)

    def test_oracle_and_cluster(self, capsys, dataset_path):
        code, rep = run_cli(
            capsys, "oracle", "--input", dataset_path, "--p", "1", "--q", "1", "--ell", "2"
        )
        assert code == 0 and rep["result"]["mode"] == "line-1-1"
        code, rep = run_cli(
            capsys, "cluster", "--input", dataset_path, "--k", "2", "--beta", "8.5",
            "--p", "1", "--q", "1", "--ell", "2", "--seed", "1",
        )
        assert code == 0 and len(rep["result"]["centers"]) <= 2

    def test_oracle_clustering_mode(self, capsys, dataset_path):
        code, rep = run_cli(
            capsys, "oracle", "--input", dataset_path, "--p", "1", "--q", "1",
            "--ell", "2", "--k", "2",
        )
        assert code == 0
        assert len(rep["result"]["centers"]) <= 2

    def test_gen_writes_dataset(self, capsys, tmp_path, dataset_path):
        out = tmp_path / "gen.json"
        code, rep = run_cli(
            capsys, "gen", "--input", dataset_path, "--output", str(out),
            "--n", "4", "--noise", "0.0", "--resample", "2,3", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out.read_text())["dimension"] == 1

    def test_bench_battery(self, capsys, dataset_path):
        code, rep = run_cli(
            capsys, "bench", "--input", dataset_path, "--p", "1",
            "--eps", "1", "--delta", "0.2", "--ell", "2", "--seed", "2",
        )
        assert code == 0
        algos = [r["algo"] for r in rep["runs"]]
        assert algos == ["sample", "net", "refine", "dba", "oracle"]
        for row in rep["runs"]:
            assert "result" in row
            if row["ratio"] is not None:
                assert row["ratio"] >= 1.0 - 1e-12

    def test_bench_reads_csv(self, capsys, tmp_path, dataset_path):
        csv_path = tmp_path / "data.csv"
        save_dataset(load_dataset(dataset_path), csv_path)
        argv = ["--p", "1", "--eps", "1", "--delta", "0.2", "--ell", "2", "--seed", "2"]
        code_csv, rep_csv = run_cli(capsys, "bench", "--input", str(csv_path), *argv)
        code_json, rep_json = run_cli(capsys, "bench", "--input", dataset_path, *argv)
        assert code_csv == code_json == 0
        assert strip_timing(rep_csv["runs"]) == strip_timing(rep_json["runs"])

    def test_bench_explicit_runs_and_empty(self, capsys, tmp_path, dataset_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"runs": [
            {"algo": "sample", "input": dataset_path, "p": 1.0, "seed": 4},
        ]}))
        code, rep = run_cli(capsys, "bench", "--input", str(batch))
        assert code == 0 and len(rep["runs"]) == 1
        assert rep["config"] == {"input": str(batch)}

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"runs": []}))
        code, rep = run_cli(capsys, "bench", "--input", str(empty))
        assert code == 0 and rep["runs"] == []


# flags that a command does not read, and so does not take
REMOVED_FLAGS = [
    *(("dtw", flag) for flag in ("--q", "--ell", "--eps", "--delta", "--seed")),
    *(("simplify", flag) for flag in ("--q", "--eps", "--delta", "--seed")),
    ("mean", "--q"),
    *(("oracle", flag) for flag in ("--eps", "--delta", "--seed")),
    *(("gen", flag) for flag in ("--p", "--q", "--ell", "--eps", "--delta")),
]


@pytest.mark.parametrize(
    "command,flag", REMOVED_FLAGS, ids=[" ".join(pair) for pair in REMOVED_FLAGS]
)
def test_unread_flag_is_rejected(capsys, dataset_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", dataset_path, flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# a value of each option; the options each command takes; the arguments it needs
VALUES = {"--p": "1", "--q": "1", "--ell": "2", "--eps": "1", "--delta": "0.2", "--seed": "3",
          "--max-iters": "3"}
TAKES = {"mean": set(VALUES) - {"--q"}, "cluster": set(VALUES) - {"--max-iters"}}
NEEDS = {"mean": [], "cluster": ["--k", "2", "--beta", "5"]}
READ_TABLES = {"mean": MEAN_READS, "cluster": CLUSTER_READS}
RUNS = [(command, algo) for command, table in READ_TABLES.items() for algo in table]
UNREAD = [
    (command, algo, flag)
    for command, algo in RUNS
    for flag in sorted(TAKES[command] - READ_TABLES[command][algo])
]


class TestReadOptions:
    """Each mean algorithm and cluster generator takes exactly the options it reads."""

    @pytest.mark.parametrize("command,algo,flag", UNREAD, ids=[" ".join(c) for c in UNREAD])
    def test_unread_option_exits_2_and_names_it(self, capsys, dataset_path, command, algo, flag):
        argv = [command, "--input", dataset_path, "--algo", algo, *NEEDS[command]]
        assert main([*argv, flag, VALUES[flag]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} cannot be given with --algo {algo}" in err

    @pytest.mark.parametrize("command,algo", RUNS, ids=[" ".join(c) for c in RUNS])
    def test_omitted_read_options_echo_the_defaults(self, capsys, dataset_path, command, algo):
        argv = [command, "--input", dataset_path, "--algo", algo, *NEEDS[command]]
        code, rep = run_cli(capsys, *argv)
        assert code == 0
        echoed = {
            f"--{k.replace('_', '-')}": v for k, v in rep["config"].items()
            if f"--{k.replace('_', '-')}" in TAKES[command]
        }
        defaults = {
            flag: getattr(RunConfig, flag[2:].replace("-", "_"))
            for flag in READ_TABLES[command][algo]
        }
        # q's default is None, so it is left out of the echo
        assert echoed == {flag: v for flag, v in defaults.items() if v is not None}


class TestExitCodes:
    def test_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["mean", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "batch", [{"runs": [1]}, {"runs": ["sample"]}, {"runs": {"algo": "sample"}}, {"runs": 3}]
    )
    def test_bench_malformed_runs(self, capsys, tmp_path, batch):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["bench", "--input", str(path)]) == 2
        assert "run config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [{"p": "x"}, {"max_iters": None}, {"input": 5}, {"ell": 2.0}, {"eps": "inf"}]
    )
    def test_bench_mistyped_run_field(self, capsys, tmp_path, dataset_path, entry):
        path = tmp_path / "batch.json"
        run = {"algo": "sample", "input": dataset_path, **entry}
        path.write_text(json.dumps({"runs": [run]}).replace('"inf"', "Infinity"))
        assert main(["bench", "--input", str(path)]) == 2
        assert "run config field" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--p", "--q", "--ell", "--eps", "--delta", "--seed"])
    def test_bench_run_list_takes_no_option(self, capsys, tmp_path, dataset_path, flag):
        # every run names its own fields, so an option would be ignored
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"runs": [{"algo": "sample", "input": dataset_path}]}))
        assert main(["bench", "--input", str(path), flag, "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} cannot be given with a run list" in err

    @pytest.mark.parametrize("algo", ["sample", "net", "refine"])
    def test_mean_max_iters_is_dba_only(self, capsys, dataset_path, algo):
        # only dba iterates, so the cap would be ignored
        assert main(["mean", "--input", dataset_path, "--algo", algo, "--max-iters", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--max-iters cannot be given with --algo {algo}" in err

    def test_bench_run_without_a_dataset_aborts_the_batch(self, capsys, tmp_path, dataset_path):
        # a run's dataset is loaded outside its row, so no report is written
        path = tmp_path / "batch.json"
        runs = [{"algo": "sample", "input": dataset_path}, {"algo": "net"}]
        path.write_text(json.dumps({"runs": runs}))
        assert main(["bench", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "validation error: run config has no input and no default dataset given\n"
        )

    def test_bench_run_with_a_missing_input_aborts_the_batch(self, capsys, tmp_path, dataset_path):
        path = tmp_path / "batch.json"
        missing = str(tmp_path / "missing.json")
        runs = [{"algo": "sample", "input": dataset_path}, {"algo": "net", "input": missing}]
        path.write_text(json.dumps({"runs": runs}))
        assert main(["bench", "--input", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error: ") and missing in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mean"],
            ["mean", "--algo", "refine"],
            ["cluster", "--k", "1", "--beta", "3"],
            ["cluster", "--algo", "cand2", "--k", "1", "--beta", "3"],
            ["gen", "--output", "gen.json"],
        ],
        ids=" ".join,
    )
    def test_negative_seed_exits_2(self, capsys, tmp_path, monkeypatch, dataset_path, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--input", dataset_path, "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "validation error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "gen.json").exists()

    def test_bench_records_a_negative_seed_as_invalid(self, capsys, tmp_path, dataset_path):
        path = tmp_path / "batch.json"
        runs = [{"algo": algo, "input": dataset_path, "seed": -1} for algo in ("sample", "refine")]
        path.write_text(json.dumps({"runs": runs}))
        code, rep = run_cli(capsys, "bench", "--input", str(path))
        assert code == 0
        for row in rep["runs"]:
            assert row["flags"] == ["invalid"] and row["error"] == "seed must be >= 0, got -1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--algo", "discrete", "--p", "1", "--q", "0.5"],
            ["oracle", "--k", "1", "--q", "0.5"],
            ["oracle", "--algo", "discrete", "--p", "0.5", "--q", "1"],
            ["oracle", "--k", "1", "--p", "0.5"],
        ],
        ids=" ".join,
    )
    def test_oracle_exponents_below_1_exit_2(self, capsys, dataset_path, argv):
        assert main([*argv, "--input", dataset_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "validation error: p and q must be >= 1\n"

    def test_bench_records_an_oracle_q_below_1_as_invalid(self, capsys, dataset_path):
        code, rep = run_cli(capsys, "bench", "--input", dataset_path, "--q", "0.5")
        assert code == 0
        row = next(row for row in rep["runs"] if row["algo"] == "oracle")
        assert row["flags"] == ["invalid"] and row["error"] == "p and q must be >= 1"

    def test_mean_dba_echoes_its_default_cap(self, capsys, dataset_path):
        code, rep = run_cli(capsys, "mean", "--input", dataset_path, "--algo", "dba")
        assert code == 0 and rep["config"]["max_iters"] == 50

    @pytest.mark.parametrize("entry", [{"k": 3}, {"beta": 5.0}])
    def test_bench_rejects_clustering_fields(self, capsys, tmp_path, dataset_path, entry):
        # bench runs no clustering, so a k or beta is an unknown field
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"runs": [{"algo": "sample", "input": dataset_path, **entry}]}))
        assert main(["bench", "--input", str(path)]) == 2
        assert "unknown run config fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mean", "--p", "inf"],
            ["mean", "--eps", "inf"],
            ["cluster", "--k", "2", "--beta", "5", "--p", "inf"],
            ["cluster", "--k", "2", "--beta", "inf"],
        ],
    )
    def test_non_finite_flag(self, capsys, dataset_path, argv):
        assert main([*argv, "--input", dataset_path]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mean", "--algo", "sample"],
            ["mean", "--algo", "net"],
            ["mean", "--algo", "refine"],
            ["oracle", "--algo", "discrete"],
            ["cluster", "--k", "2", "--beta", "5"],
        ],
    )
    def test_huge_ell_hits_guard_at_once(self, capsys, dataset_path, argv):
        assert main([*argv, "--input", dataset_path, "--ell", "100000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity guard") and len(err) < 200

    def test_capacity_error(self, capsys, tmp_path, rng):
        T = random_dataset(rng, n=6, max_len=8, min_len=8)
        path = tmp_path / "big.json"
        save_dataset(T, path)
        code = main(
            ["mean", "--input", str(path), "--algo", "sample", "--ell", "5",
             "--eps", "0.05", "--delta", "0.01"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv", [["mean", "--algo", "sample"], ["cluster", "--k", "2", "--beta", "5"]]
    )
    def test_sample_guard(self, capsys, monkeypatch, dataset_path, argv):
        monkeypatch.setattr(meanapprox, "SAMPLE_GUARD", 1)
        assert main([*argv, "--input", dataset_path]) == 3
        assert "draws exceed the sample guard of 1" in capsys.readouterr().err

    def test_oracle_checks_every_length_before_searching(self, capsys, monkeypatch, tmp_path):
        # the d = 1 golden dataset passes the warping-tuple guard at mean
        # lengths 1-19 and trips it at 20, before any warping is enumerated
        searched = []
        monkeypatch.setattr(oracle, "enumerate_warpings", lambda *a: searched.append(a))
        path = tmp_path / "d1.json"
        path.write_text(golden_datasets()["d1.json"])
        assert main(["oracle", "--input", str(path), "--ell", "100000000000"]) == 3
        assert capsys.readouterr().err == (
            "capacity guard: 1157481+ warping tuples at mean length 20 exceed "
            "the guard of 1000000\n"
        )
        assert searched == []

    def test_oracle_caps_lengths_of_single_vertex_data(self, capsys, tmp_path):
        # one warping tuple per mean length, so only the warped-pairs cap stops it
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"sequences": [[[0.0]], [[1.0]], [[5.0]]]}))
        start = time.perf_counter()
        assert main(["oracle", "--input", str(path), "--ell", "100000000000"]) == 3
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err == (
            "capacity guard: mean lengths up to 816 warp over 1000000 pairs\n"
        )

    @pytest.mark.parametrize("command", ["dtw", "simplify"])
    def test_distance_guard(self, capsys, monkeypatch, dataset_path, command):
        monkeypatch.setattr(core, "DISTANCE_GUARD", 1)
        assert main([command, "--input", dataset_path]) == 3
        assert "capacity guard" in capsys.readouterr().err

    def test_io_error(self, capsys, tmp_path):
        assert main(["mean", "--input", str(tmp_path / "missing.json")]) == 4

    def test_dtw_needs_two_sequences(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"sequences": [[[0.0], [1.0]]]}))
        assert main(["dtw", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "validation error: dtw needs at least two sequences in the dataset\n"
        )

    @pytest.mark.parametrize("value", ["3", "a,b"])
    def test_gen_resample_needs_two_integers(self, capsys, tmp_path, dataset_path, value):
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--input", dataset_path, "--output", out, "--resample", value]) == 2
        assert capsys.readouterr().err == "validation error: --resample expects MIN,MAX integers\n"

    def test_gen_needs_an_output(self, capsys, dataset_path):
        assert main(["gen", "--input", dataset_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "validation error: gen requires --output for the dataset file\n"

    def test_gen_refuses_a_missing_output_before_generating(self, capsys, monkeypatch, dataset_path):
        def generate(*args):
            raise AssertionError("gen generated a dataset it cannot write")

        monkeypatch.setattr(cli, "generate_synthetic", generate)
        assert main(["gen", "--input", dataset_path, "--n", "100000"]) == 2
        assert "gen requires --output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes", [["--n", "200000000"], ["--n", "1000", "--resample", "1000000,1000000"]]
    )
    def test_gen_refuses_an_oversized_dataset_at_once(self, capsys, tmp_path, dataset_path,
                                                      sizes):
        out = tmp_path / "gen.json"
        start = time.perf_counter()
        assert main(["gen", "--input", dataset_path, "--output", str(out), *sizes]) == 3
        assert time.perf_counter() - start < 2.0
        printed, err = capsys.readouterr()
        assert printed == "" and err.startswith("capacity guard: ") and err.count("\n") == 1
        assert "generated coordinates exceed the guard of 16000000 elements" in err
        assert not out.exists()

    def test_an_overflowing_cand1_sample_size_names_beta(self, capsys, dataset_path):
        argv = ["cluster", "--input", dataset_path, "--k", "1", "--beta", "1e308", "--delta", "0.2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("validation error: the cand1 sample size overflows")
        assert "beta = 1e+308" in err


@pytest.fixture
def huge_path(tmp_path):
    # every pair of distinct coordinates differs by more than sqrt(float max)
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"sequences": [[[1e200], [-1e200]], [[3e200]], [[-1e200], [1e200], [3e200]]]})
    )
    return str(path)


# the squared section costs of p = 2 overflow; the distances at p = 1 do not
HUGE_SECTIONS = {"dimension": 1, "sequences": [[[6e299], [-2e300], [-2e300]], [[-2.7e300], [-2.7e300]]]}

# at p = 1 the distances fit float64; their cubes do not
HUGE_CUBES = {"dimension": 1, "sequences": [[[1e103], [-1e103]], [[3e103]], [[-2e103]]]}

# at p = 1 the squares fit float64; one center's sum of three does not
HUGE_SQUARE_SUMS = {
    "dimension": 2,
    "sequences": [[[0.0, 0.0]], [[1e154, 0.0]], [[0.5e154, 0.866e154]]],
}

# each p = 2 table entry, 1e308, fits float64; a path sum of two does not
HUGE_PATH_SUMS = {"dimension": 1, "sequences": [[[0.0], [0.0]], [[1e154], [1e154]]]}

# at p = 2 a prefix sum of squares along one sequence, 2e308, overflows
HUGE_PREFIX = {"dimension": 1, "sequences": [[[0.0], [1e154], [1e154]], [[1e154], [0.0]]]}

TINY_SPACING = {
    "dimension": 2,
    "sequences": [
        [[0.0, 0.0], [1e-10, 5e-11], [2e-10, 1e-10]],
        [[3e-11, 2e-10], [1.5e-10, 1.5e-10]],
        [[5e-11, 2e-11], [1.2e-10, 1.1e-10], [2.2e-10, 7e-11]],
    ],
}

SINGLE_VERTEX = {"dimension": 2, "sequences": [[[1.0, 2.0]], [[-0.5, 0.0]], [[3.0, -1.0]]]}

DUPLICATED = {"dimension": 1, "sequences": [[[0.0], [0.0], [1.0], [-0.0], [1.0]]] * 3}


def _write(tmp_path, obj) -> str:
    path = tmp_path / "data.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestNonFinite:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dtw"],
            ["simplify"],
            ["mean", "--algo", "sample"],
            ["mean", "--algo", "net"],
            ["mean", "--algo", "refine"],
            ["mean", "--algo", "dba"],
            ["cluster", "--algo", "cand1", "--k", "1", "--beta", "3"],
            ["cluster", "--algo", "cand2", "--k", "1", "--beta", "3"],
            ["oracle", "--algo", "discrete"],
            ["oracle", "--k", "1"],
        ],
    )
    def test_overflowing_distances_exit_2(self, capsys, huge_path, argv):
        assert main([*argv, "--input", huge_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation error") and "overflows float64" in err

    def test_bench_flags_overflowing_runs_invalid(self, capsys, huge_path):
        code, rep = run_cli(capsys, "bench", "--input", huge_path)
        assert code == 0
        rows = {row["algo"]: row for row in rep["runs"]}
        for algo in ("sample", "net", "refine", "dba"):
            assert rows[algo]["flags"] == ["invalid"]
            assert "overflows float64" in rows[algo]["error"]
        # the d = 1, p = q = 1 oracle takes medians and computes no distance table
        assert rows["oracle"]["result"]["cost"] == 8e200

    @pytest.mark.parametrize("argv", [["oracle"], ["oracle", "--k", "2"]])
    def test_overflowing_oracle_sections_exit_2(self, capsys, tmp_path, argv):
        path = _write(tmp_path, HUGE_SECTIONS)
        assert main([*argv, "--input", path, "--p", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows float64" in err

    def test_bench_flags_overflowing_oracle_invalid(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "bench", "--input", _write(tmp_path, HUGE_SECTIONS), "--p", "2")
        assert code == 0
        for row in rep["runs"]:
            assert row["flags"] == ["invalid"] and "overflows float64" in row["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--algo", "cand1", "--k", "1", "--beta", "3"],
            ["oracle", "--k", "1"],
            ["oracle", "--algo", "discrete"],
        ],
    )
    def test_overflowing_q_powers_exit_2(self, capsys, tmp_path, argv):
        path = _write(tmp_path, HUGE_CUBES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--input", path, "--p", "1", "--q", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("validation error")
        assert "q = 3.0" in err and "overflows float64" in err

    @pytest.mark.parametrize("algo", ["cand1", "cand2"])
    def test_overflowing_cluster_sums_exit_2(self, capsys, tmp_path, algo):
        path = _write(tmp_path, HUGE_SQUARE_SUMS)
        argv = ["cluster", "--algo", algo, "--k", "1", "--beta", "3", "--ell", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--input", path, "--p", "1", "--q", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "validation error: a distance raised to q = 2.0, or a sum of such powers, "
            "overflows float64; rescale the coordinates\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["dtw"],
            ["cluster", "--algo", "cand1", "--k", "1", "--beta", "3"],
            ["cluster", "--algo", "cand2", "--k", "1", "--beta", "3"],
            ["mean", "--algo", "dba"],
            ["mean", "--algo", "sample"],
            ["oracle", "--algo", "discrete"],
        ],
    )
    def test_overflowing_path_sums_exit_2(self, capsys, tmp_path, argv):
        path = _write(tmp_path, HUGE_PATH_SUMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--input", path, "--p", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("validation error")
        assert "distances raised to p = 2.0 overflows float64" in err

    def test_simplify_with_an_overflowing_column_sum_exits_0(self, capsys, tmp_path):
        # a column of the p = 2 table sums to inf, but the best cover costs 1e308
        path = _write(tmp_path, {"dimension": 1, "sequences": [[[0.0], [1e154], [1e154]]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "simplify", "--input", path, "--p", "2", "--ell", "1")
        assert code == 0
        assert rep["result"] == {"sequences": [[[1e154]]], "costs": [1e154]}

    def test_bench_flags_overflowing_q_powers_invalid(self, capsys, tmp_path):
        path = _write(tmp_path, HUGE_CUBES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "bench", "--input", path, "--p", "1", "--q", "3")
        assert code == 0
        row = next(row for row in rep["runs"] if row["algo"] == "oracle")
        assert row["flags"] == ["invalid"] and "q = 3.0" in row["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["mean", "--algo", "sample"],
            ["mean", "--algo", "net"],
            ["cluster", "--algo", "cand1", "--k", "2", "--beta", "5"],
            ["dtw"],
        ],
    )
    def test_huge_p_exits_2(self, capsys, dataset_path, argv):
        assert main([*argv, "--input", dataset_path, "--p", "1025"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err

    def test_huge_p_bench_records_every_run(self, capsys, dataset_path):
        code, rep = run_cli(capsys, "bench", "--input", dataset_path, "--p", "1025")
        assert code == 0
        for row in rep["runs"]:
            assert "result" in row or row["flags"] == ["invalid"]
        assert rep["runs"][0]["error"] == "2^(p - 1) overflows a float at p = 1025.0"

    def test_overflowing_square_at_p_1_names_it(self, capsys, tmp_path):
        # the distance, 2e154, fits float64; its square does not
        path = _write(tmp_path, {"dimension": 1, "sequences": [[[0.0]], [[2e154]]]})
        assert main(["dtw", "--input", path, "--p", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "squared coordinate difference" in err
        assert "overflows float64" in err

    def test_non_finite_report_is_a_validation_error(self, capsys, monkeypatch, dataset_path):
        monkeypatch.setattr(cli, "_run_command", lambda args: {"result": {"cost": math.nan}})
        assert main(["mean", "--input", dataset_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite" in err


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mean", "--algo", "sample", "--p", "1", "--seed", "11"],
            ["mean", "--algo", "refine", "--p", "1", "--eps", "1", "--seed", "11"],
            ["cluster", "--k", "2", "--beta", "8.5", "--p", "1", "--q", "1", "--seed", "11"],
            ["bench", "--p", "1", "--eps", "1", "--seed", "11"],
        ],
    )
    def test_same_seed_same_report(self, capsys, dataset_path, argv):
        code_a, rep_a = run_cli(capsys, *argv[:1], "--input", dataset_path, *argv[1:])
        code_b, rep_b = run_cli(capsys, *argv[:1], "--input", dataset_path, *argv[1:])
        assert code_a == code_b == 0
        assert strip_timing(rep_a) == strip_timing(rep_b)


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in a report")


class TestExitCodeMatrix:
    """Every command on degenerate inputs ends in a defined exit code, prints
    strict JSON when it succeeds, and lets no numpy warning through."""

    @pytest.mark.parametrize("p", ["1", "2"])
    @pytest.mark.parametrize(
        "data",
        [HUGE_SECTIONS, HUGE_PREFIX, TINY_SPACING, SINGLE_VERTEX, DUPLICATED],
        ids=["huge", "huge-prefix", "tiny", "single-vertex", "duplicated"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["dtw"],
            ["simplify"],
            ["mean", "--algo", "sample"],
            ["mean", "--algo", "net"],
            ["mean", "--algo", "refine"],
            ["mean", "--algo", "dba"],
            ["oracle"],
            ["oracle", "--algo", "discrete"],
            ["oracle", "--k", "2"],
            ["cluster", "--algo", "cand1", "--k", "2", "--beta", "5"],
            ["cluster", "--algo", "cand2", "--k", "2", "--beta", "5"],
            ["bench"],
        ],
        ids=" ".join,
    )
    def test_defined_exit_and_strict_json(self, capsys, tmp_path, argv, data, p):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--input", _write(tmp_path, data), "--p", p])
        out = capsys.readouterr().out
        assert code in (0, 2, 3)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOneCommandParser:
    """`main` builds only the named subcommand's parser; help, usage and
    errors read as from the full parser."""

    @pytest.mark.parametrize("name", list(_subparsers(cli.build_parser())))
    def test_subparser_equals_the_full_parsers(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        (alone,) = _subparsers(cli.build_parser(name)).values()
        full = _subparsers(cli.build_parser())[name]
        assert alone.format_help() == full.format_help()
        assert alone.format_usage() == full.format_usage()
        assert [a.option_strings for a in alone._actions] == [
            a.option_strings for a in full._actions
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["bogus"],
            ["--input", "x", "dtw"],
            ["dtw"],
            ["mean", "--input", "x", "--algo", "nope"],
            ["dtw", "--input", "x", "extra"],
            ["cluster", "--help"],
        ],
        ids=" ".join,
    )
    def test_messages_equal_the_full_parsers(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(run):
            try:
                code = run()
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        want = outcome(lambda: cli.build_parser().parse_args(argv))
        assert want[0] != 0 or want[1]  # each case ends in the parser
        assert outcome(lambda: main(argv)) == want


def _readme_usage() -> dict[str, set[str]]:
    """The flags README's "Command line" block gives each command, IO's included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    usage, name = {}, None
    for line in block.splitlines():
        if line.startswith("dtwmean "):
            name = line.split()[1]
            usage[name] = set()
        elif line.startswith("IO ="):
            io_flags = set(re.findall(r"--[a-z-]+", line))
            name = None
        if name is not None:
            usage[name] |= set(re.findall(r"--[a-z-]+", line))
    return {name: flags | io_flags for name, flags in usage.items()}


def test_readme_usage_names_every_option():
    usage = _readme_usage()
    assert list(usage) == list(cli.COMMANDS)
    for name, flags in usage.items():
        (parser,) = _subparsers(cli.build_parser(name)).values()
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == options, name


def test_module_entry_point_prints_one_line(capsys, tmp_path, dataset_path):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["dtw", "--input", dataset_path, "--p", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "dtwmean.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1 and proc.stdout.endswith("\n")
    _, want = run_cli(capsys, *argv)
    assert strip_timing(json.loads(proc.stdout)) == strip_timing(want)
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert strip_timing(json.loads(text)) == strip_timing(want)
