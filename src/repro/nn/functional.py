"""Functional helpers shared across the library.

Small, stateless utilities on top of the autograd engine: accuracy
computation and numerical gradient checking (used by the test suite to
validate every layer's backward pass).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "accuracy",
    "predict_classes",
    "numerical_gradient",
]


def predict_classes(logits: Tensor) -> np.ndarray:
    """Return the argmax class index for each row of ``logits``."""
    return np.argmax(as_tensor(logits).data, axis=-1)


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Top-1 classification accuracy in ``[0, 1]``."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float(np.mean(predict_classes(logits) == labels))


def numerical_gradient(func: Callable[[np.ndarray], float], x: np.ndarray,
                       epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Used by the test suite to validate analytic gradients of every operation
    and layer against finite differences.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(x)
        flat[index] = original - epsilon
        minus = func(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad
