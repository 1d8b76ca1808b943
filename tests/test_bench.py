import pytest

import dtwmean.bench as bench_module
from dtwmean import Dataset, DomainError
from dtwmean.bench import (
    RunConfig,
    bench,
    default_battery,
    execute_run,
    objective_for,
    oracle_mode_for,
    solve,
)

from conftest import random_dataset, seq


class TestRunConfig:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DomainError, match="unknown run config fields"):
            RunConfig.from_dict({"algo": "sample", "bogus": 1})

    def test_from_dict_requires_algo(self):
        with pytest.raises(DomainError, match="algo"):
            RunConfig.from_dict({"p": 1.0})

    def test_from_dict_takes_null_for_an_optional_field(self):
        assert RunConfig.from_dict({"algo": "sample", "q": None}) == RunConfig("sample")


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
