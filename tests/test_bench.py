import json
from dataclasses import fields, replace

import pytest

import dtwmean.bench as bench_module
from dtwmean import Dataset, DomainError, save_dataset
from dtwmean.bench import (
    ALGOS,
    READS,
    RunConfig,
    bench,
    default_battery,
    execute_run,
    objective_for,
    oracle_mode_for,
    solve,
)

from dtwmean.cli import main

from conftest import random_dataset, seq

# a value other than RunConfig's default for each field an algorithm may read
OTHER = {"p": 2.0, "q": 2.0, "ell": 3, "eps": 0.5, "delta": 0.3, "seed": 7, "mode": "discrete",
         "max_iters": 3}
UNREAD = [(algo, name) for algo in ALGOS for name in OTHER if name not in READS[algo]]


class TestRunConfig:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DomainError, match="unknown run config fields"):
            RunConfig.from_dict({"algo": "sample", "bogus": 1})

    def test_from_dict_requires_algo(self):
        with pytest.raises(DomainError, match="algo"):
            RunConfig.from_dict({"p": 1.0})

    def test_from_dict_takes_null_for_an_optional_field(self):
        assert RunConfig.from_dict({"algo": "sample", "q": None}) == RunConfig("sample")


class TestReads:
    def test_every_field_but_algo_and_input_has_another_value(self):
        assert {f.name for f in fields(RunConfig)} == {"algo", "input", *OTHER}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_solve_ignores_the_fields_an_algorithm_does_not_read(self, rng, algo):
        T = random_dataset(rng, n=3, max_len=3, min_len=2)
        cfg = RunConfig(algo, seed=3)
        want = solve(T, cfg)
        for name in OTHER:
            if name not in READS[algo]:
                assert solve(T, replace(cfg, **{name: OTHER[name]})) == want, name

    @pytest.mark.parametrize("algo,name", UNREAD, ids=[f"{a}-{n}" for a, n in UNREAD])
    def test_run_list_entry_with_an_unread_field_exits_2(self, capsys, tmp_path, rng, algo, name):
        data = tmp_path / "data.json"
        save_dataset(random_dataset(rng, n=3, max_len=3), data)
        runs = tmp_path / "runs.json"
        entry = {"algo": algo, "input": str(data), name: OTHER[name]}
        runs.write_text(json.dumps({"runs": [entry]}))
        assert main(["bench", "--input", str(runs)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"validation error: run config fields ['{name}'] are not read by algo '{algo}'\n"
        )


class TestDispatch:
    def test_objectives(self):
        assert objective_for("sample", 2.0, 2.0) == (2.0, 2.0)
        assert objective_for("refine", 2.0, 2.0) == (2.0, 1.0)
        assert objective_for("dba", 1.0, 1.0) == (1.0, 1.0)

    def test_oracle_mode_inference(self):
        assert oracle_mode_for(2, 2, 3) == "euclidean-2-2"
        assert oracle_mode_for(1, 1, 1) == "line-1-1"
        assert oracle_mode_for(1, 1, 2) == "discrete"
        assert oracle_mode_for(2, 1, 1) == "discrete"

    def test_unknown_algo_captured_as_row_error(self, rng):
        T = random_dataset(rng, n=2, max_len=2)
        row = execute_run(T, RunConfig(algo="bogus"))
        assert "error" in row and "invalid" in row["flags"]

    def test_solve_raises_what_rows_capture(self, rng):
        T = random_dataset(rng, n=2, max_len=2)
        with pytest.raises(DomainError, match="unknown benchmark algorithm"):
            solve(T, RunConfig(algo="bogus"))


class TestBench:
    def test_empty_config_list(self):
        assert bench([]) == {"runs": []}

    def test_battery_has_ratios(self, rng):
        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        report = bench(default_battery(RunConfig(algo="sample", p=1.0, seed=3)), T)
        assert [r["algo"] for r in report["runs"]] == [
            "sample", "net", "refine", "dba", "oracle",
        ]
        for row in report["runs"]:
            if row["ratio"] is not None:
                assert row["ratio"] >= 1.0 - 1e-12

    def test_errors_do_not_abort_batch(self, rng):
        T = random_dataset(rng, n=3, max_len=3)
        configs = [
            RunConfig(algo="bogus"),
            RunConfig(algo="sample", p=1.0, seed=1),
        ]
        report = bench(configs, T)
        assert "error" in report["runs"][0]
        assert "result" in report["runs"][1]

    def test_zero_optimum(self):
        T = Dataset([seq(0, 1), seq(0, 1)])
        report = bench(default_battery(RunConfig(algo="sample", p=1.0)), T)
        assert [(row["algo"], row["ratio"], row["flags"]) for row in report["runs"]] == [
            ("sample", 1.0, ["zero-optimum"]),
            ("net", 1.0, ["zero-optimum"]),
            ("refine", 1.0, ["zero-cost-estimate", "zero-optimum"]),
            ("dba", 1.0, ["zero-optimum"]),
            ("oracle", 1.0, []),
        ]

    def test_oracle_infeasible_sets_flag_and_null_ratio(self, rng):
        # long sequences push the exact oracle over its enumeration guard
        T = random_dataset(rng, n=6, max_len=10, min_len=10)
        report = bench([RunConfig(algo="dba", p=1.0, ell=3)], T)
        row = report["runs"][0]
        assert row["ratio"] is None
        assert "no-oracle" in row["flags"]

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls, exact_mean = [], bench_module.exact_mean

        def counted(*args):
            calls.append(args)
            return exact_mean(*args)

        monkeypatch.setattr(bench_module, "exact_mean", counted)
        return calls

    def test_oracle_row_supplies_the_battery_optimum(self, rng, oracle_calls):
        # at p = 1 on d = 1 data every row's objective is the oracle row's
        T = random_dataset(rng, n=4, max_len=3, min_len=2)
        report = bench(default_battery(RunConfig(algo="sample", p=1.0, seed=3)), T)
        assert len(oracle_calls) == 1
        assert all(row["ratio"] is not None for row in report["runs"])

    def test_guarded_oracle_row_supplies_no_optimum(self, rng, oracle_calls):
        T = random_dataset(rng, n=6, max_len=10, min_len=10)
        configs = [RunConfig(algo="dba", p=1.0, ell=3), RunConfig(algo="oracle", p=1.0, ell=3)]
        report = bench(configs, T)
        assert len(oracle_calls) == 1
        assert [row["flags"] for row in report["runs"]] == [["no-oracle"], ["capacity"]]
