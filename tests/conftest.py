import numpy as np
import pytest

from dtwmean import Dataset, PointSequence


def seq(*values) -> PointSequence:
    """1-D point sequence from scalars, or d-dim from tuples."""
    return PointSequence([v if isinstance(v, (tuple, list)) else [v] for v in values])


def random_sequence(rng, max_len=5, dim=1, lo=0.0, hi=10.0, min_len=1) -> PointSequence:
    m = int(rng.integers(min_len, max_len + 1))
    return PointSequence(rng.uniform(lo, hi, size=(m, dim)))


def random_dataset(rng, n, max_len=4, dim=1, lo=0.0, hi=10.0, min_len=1) -> Dataset:
    return Dataset(
        [random_sequence(rng, max_len, dim, lo, hi, min_len) for _ in range(n)]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def changed_cases(old: list[dict], new: list[dict], fields: tuple[str, ...]) -> list[tuple]:
    """Key tuples (the values of `fields`) of the cases of `new` that differ
    from, or are missing in, `old`, then those of `old` that `new` dropped."""
    def key(case):
        return tuple(case[f] for f in fields)

    before = {key(c): c for c in old}
    keys = {key(c) for c in new}
    return [key(c) for c in new if before.get(key(c)) != c] + [k for k in before if k not in keys]


def report_changes(old: list[dict], new: list[dict], fields: tuple[str, ...]) -> None:
    """Print the key fields of every changed case (see `changed_cases`) and
    how many cases changed; a golden file's --record ends with this."""
    changed = changed_cases(old, new, fields)
    for key in changed:
        print(" ".join(f"{f}={v}" for f, v in zip(fields, key)))
    print(f"{len(changed)} of {len(new)} cases changed")
