"""Weight initialization schemes.

The paper initializes all models with Glorot (Xavier) initialization
(footnote 1 of Algorithm 1).  All initializers draw from an explicit
``numpy.random.Generator`` so that experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "glorot_uniform",
    "zeros",
    "ones",
    "compute_fans",
]


def compute_fans(shape: Sequence[int]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Linear weights use ``(out, in)``; convolution weights use
    ``(out, in, k, k)`` where the receptive-field size multiplies both fans.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = compute_fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: Sequence[int]) -> np.ndarray:
    """All-zero initialization (biases, batch-norm shifts)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Sequence[int]) -> np.ndarray:
    """All-one initialization (batch-norm scales)."""
    return np.ones(shape, dtype=np.float64)
