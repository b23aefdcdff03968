"""``repro.nn`` — a compact, numpy-backed deep-learning substrate.

The package mirrors the small subset of PyTorch the paper relies on:
reverse-mode autodiff (:mod:`repro.nn.tensor`), modules and layers
(:mod:`repro.nn.module`, :mod:`repro.nn.layers`), convolution primitives
(:mod:`repro.nn.conv`), optimizers and schedules (:mod:`repro.nn.optim`),
and the classification / distillation losses (:mod:`repro.nn.losses`).
"""

from . import batched, buffers, conv, functional, init, losses, optim
from .batched import (
    BatchedEvaluator,
    BatchedModule,
    BatchedSGD,
    UnfusableModelError,
    fusion_signature,
)
from .buffers import BufferPool, scratch_pool
from .policy import (
    NUMERIC_POLICIES,
    NumericPolicy,
    numeric_policy,
    policy_dtype,
    set_numeric_policy,
    using_numeric_policy,
)
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Reshape,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, MultiStepLR
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    stack,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "BufferPool",
    "scratch_pool",
    "NumericPolicy",
    "NUMERIC_POLICIES",
    "numeric_policy",
    "policy_dtype",
    "set_numeric_policy",
    "using_numeric_policy",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
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
    "Reshape",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "UpsampleNearest2d",
    "SGD",
    "Adam",
    "MultiStepLR",
    "BatchedEvaluator",
    "BatchedModule",
    "BatchedSGD",
    "UnfusableModelError",
    "fusion_signature",
    "batched",
    "buffers",
    "conv",
    "functional",
    "init",
    "losses",
    "optim",
]
