"""The shuffled mini-batch draw every training loop shares."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["shuffled_batches"]


def shuffled_batches(size: int, batch_size: int, epochs: int,
                     rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Sample indices of ``epochs`` shuffled passes over ``size`` samples.

    Each epoch draws ``rng.permutation(np.arange(size))`` and cuts it into
    consecutive ``batch_size`` slices, the last one shorter when
    ``batch_size`` does not divide ``size``.  A cohort gives every member a
    generator of its own, so each member's shuffle stream advances exactly
    as it would if the member trained alone.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    indices = np.arange(size)
    for _ in range(epochs):
        order = rng.permutation(indices)
        for start in range(0, size, batch_size):
            yield order[start:start + batch_size]
