import argparse
import dataclasses

import dtwmean
from dtwmean.bench import RunConfig
from dtwmean.cli import build_parser

# The public API.  A name added to or dropped from `dtwmean.__all__` must be
# added to or dropped from this list too, so API growth shows up in review.
PUBLIC_NAMES = [
    "BallUnion",
    "CapacityError",
    "CenterSet",
    "ClusteringParams",
    "Dataset",
    "DbaResult",
    "DomainError",
    "DtwMeanError",
    "DtwResult",
    "MeanResult",
    "OracleResult",
    "PointSequence",
    "Section",
    "SimplificationResult",
    "Warping",
    "ball_ranges",
    "clustering_cost",
    "cost",
    "dba",
    "default_dba_init",
    "dtw",
    "enumerate_warpings",
    "epsilon_net",
    "exact_clustering",
    "exact_mean",
    "generate_synthetic",
    "grid_cover",
    "k_clustering",
    "load_dataset",
    "mean_c",
    "mean_c_d",
    "med_appr",
    "optimal_sections",
    "save_dataset",
    "sections",
    "simplify",
    "warping_count",
]

# The fields of the public result and config types, pinned the same way.
PUBLIC_FIELDS = {
    dtwmean.MeanResult: ["sequence", "cost", "candidates_scored", "flags"],
    dtwmean.CenterSet: ["centers", "cost", "nodes", "rows_scored"],
    dtwmean.OracleResult: ["mean", "cost", "warping_tuple", "mode"],
    dtwmean.DbaResult: ["sequence", "cost", "trace"],
    dtwmean.SimplificationResult: ["sequence", "discrete_cost", "alpha"],
    dtwmean.ClusteringParams: ["k", "beta", "delta", "p", "q", "ell", "eps"],
    RunConfig: [
        "algo", "p", "q", "ell", "eps", "delta", "seed", "input", "mode", "max_iters",
    ],
}

# The options of every CLI subcommand, pinned the same way, so a new flag
# shows up in review too.
IO_OPTIONS = ["--input", "--output", "--format"]
ALL_OPTIONS = [*IO_OPTIONS, "--p", "--q", "--ell", "--eps", "--delta", "--seed"]
CLI_OPTIONS = {
    "dtw": [*IO_OPTIONS, "--p"],
    "simplify": [*IO_OPTIONS, "--p", "--ell"],
    "mean": [*IO_OPTIONS, "--p", "--ell", "--eps", "--delta", "--seed", "--algo", "--max-iters"],
    "cluster": [*ALL_OPTIONS, "--algo", "--k", "--beta"],
    "oracle": [*IO_OPTIONS, "--p", "--q", "--ell", "--algo", "--k"],
    "bench": ALL_OPTIONS,
    "gen": [*IO_OPTIONS, "--seed", "--n", "--noise", "--resample"],
}


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(dtwmean.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in dtwmean.__all__:
        assert getattr(dtwmean, name) is not None, name


def test_public_types_have_exactly_the_listed_fields():
    for cls, names in PUBLIC_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_cli_subcommands_have_exactly_the_listed_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in sub._actions if a.dest != "help" for s in a.option_strings]
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS
