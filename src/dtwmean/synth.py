"""Seeded synthetic datasets: noisy monotone resamplings of a base sequence."""

from __future__ import annotations

import numpy as np

from .core import DISTANCE_GUARD, Dataset, PointSequence, as_sequence, seeded_rng
from .errors import CapacityError, require


def generate_synthetic(
    base,
    n: int,
    noise_scale: float,
    resample_range: tuple[int, int],
    seed: int,
) -> Dataset:
    """n noisy resamplings of `base`, reproducible from the seed.

    Each output sequence picks a length uniformly from `resample_range` and
    walks the base monotonically at that length: the native length keeps the
    base as is, other lengths draw sorted vertex indices with replacement.
    Coordinate-wise uniform noise in [-noise_scale, noise_scale] is added on
    top, so a zero noise scale at native length yields exact copies.  Raises
    CapacityError, before drawing, when n * max(resample_range) * d exceeds
    `core.DISTANCE_GUARD` elements.
    """
    b = as_sequence(base)
    require(n >= 1, "n must be >= 1")
    require(noise_scale >= 0, "noise_scale must be non-negative")
    lo, hi = resample_range
    require(1 <= lo <= hi, "resample range must satisfy 1 <= min <= max")
    if n * hi * b.dimension > DISTANCE_GUARD:
        raise CapacityError(f"{n} x {hi} x {b.dimension} generated coordinates exceed "
                            f"the guard of {DISTANCE_GUARD} elements")
    rng = seeded_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        if length == b.complexity:
            idx = np.arange(length)
        else:
            idx = np.sort(rng.integers(0, b.complexity, size=length))
        verts = b.vertices[idx] + rng.uniform(
            -noise_scale, noise_scale, size=(length, b.dimension)
        )
        out.append(PointSequence(verts))
    return Dataset(out)
