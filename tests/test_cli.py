import json
import math
import time

import pytest

import dtwmean.cli as cli
import dtwmean.core as core
import dtwmean.meanapprox as meanapprox
import dtwmean.oracle as oracle
from dtwmean import Dataset, cost, load_dataset, save_dataset
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
        code, rep = run_cli(
            capsys, "mean", "--input", dataset_path, "--algo", algo,
            "--p", "1", "--eps", "1", "--delta", "0.2", "--ell", "2", "--seed", "3",
        )
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

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"runs": []}))
        code, rep = run_cli(capsys, "bench", "--input", str(empty))
        assert code == 0 and rep["runs"] == []


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


@pytest.fixture
def huge_path(tmp_path):
    # every pair of distinct coordinates differs by more than sqrt(float max)
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"sequences": [[[1e200], [-1e200]], [[3e200]], [[-1e200], [1e200], [3e200]]]})
    )
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
