import dtwmean

# The public API.  A name added to or dropped from `dtwmean.__all__` must be
# added to or dropped from this list too, so API growth shows up in review.
PUBLIC_NAMES = [
    "BallUnion",
    "CandidateSet",
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
    "cand1",
    "cand2",
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


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(dtwmean.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in dtwmean.__all__:
        assert getattr(dtwmean, name) is not None, name
