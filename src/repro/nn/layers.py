"""Neural-network layers built on the autograd Tensor.

Layers are deliberately small and composable; together with
:class:`repro.nn.module.Sequential` they are enough to express every
architecture used in the paper's evaluation (fully-connected nets, LeNet,
compact CNNs, ShuffleNetV2- and MobileNetV2-style blocks, and the
server-side generator).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import conv as conv_ops
from . import init
from .module import Module, Parameter
from .policy import policy_dtype
from .tensor import Tensor, as_tensor, batch_norm

__all__ = [
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "UpsampleNearest2d",
    "Reshape",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


class Linear(Module):
    """Affine transform ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to learn an additive bias.
    seed:
        Seed for the Glorot initialization of the weight.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = _rng(seed)
        self.weight = Parameter(init.glorot_uniform((out_features, in_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """Standard 2-D convolution (cross-correlation) with square kernels."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = _rng(seed)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.glorot_uniform(shape, rng), name="weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """Depthwise convolution: one spatial filter per channel (MobileNet building block)."""

    def __init__(self, channels: int, kernel_size: int, stride: int = 1,
                 padding: int = 0, bias: bool = True, seed: Optional[int] = None) -> None:
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = _rng(seed)
        shape = (channels, 1, kernel_size, kernel_size)
        self.weight = Parameter(init.glorot_uniform(shape, rng), name="weight")
        self.bias = Parameter(init.zeros((channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.depthwise_conv2d(x, self.weight, self.bias,
                                         stride=self.stride, padding=self.padding)


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=policy_dtype()))
        self.register_buffer("running_var", np.ones(num_features, dtype=policy_dtype()))

    def _normalize(self, x: Tensor, axes, shape) -> Tensor:
        return batch_norm(x, self.weight, self.bias, self.running_mean, self.running_var,
                          axes, shape, self.training, self.momentum, self.eps)


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N, C) activations."""

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2:
            raise ValueError("BatchNorm1d expects (N, C) inputs")
        return self._normalize(x, axes=(0,), shape=(1, self.num_features))


class BatchNorm2d(_BatchNorm):
    """Batch normalization over (N, C, H, W) activations."""

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects (N, C, H, W) inputs")
        return self._normalize(x, axes=(0, 2, 3), shape=(1, self.num_features, 1, 1))


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = _rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p).astype(x.data.dtype) / (1.0 - self.p)
        return x * Tensor(mask)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).relu()


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).leaky_relu(self.negative_slope)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).tanh()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).sigmoid()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).flatten(1)


class Reshape(Module):
    """Reshape the non-batch dimensions to a fixed target shape."""

    def __init__(self, *shape: int) -> None:
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        return x.reshape((x.shape[0],) + self.shape)


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling returning (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.global_avg_pool2d(x)


class UpsampleNearest2d(Module):
    """Nearest-neighbour upsampling by an integer scale factor."""

    def __init__(self, scale: int = 2) -> None:
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.upsample_nearest2d(x, self.scale)
