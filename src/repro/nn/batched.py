"""Batch-of-devices fused execution: stacked modules, losses, and SGD.

FedZKT trains a cohort of compact on-device models every round, and the
paper's heterogeneous suites still contain *groups* of identical
architectures (devices cycle through five specs).  Running each member of
such a group through its own Python training loop wastes the vectorized
hardware paths numpy already has: stacking B devices' parameters on a
leading axis turns B small GEMMs into one batched GEMM and B optimizer
loops into one fused element-wise update.

:class:`BatchedModule` replays a template model's ``fusion_layers()``
sequence over inputs of shape ``(B, N, ...)`` with every parameter stacked
to ``(B, *shape)``; :func:`batched_cross_entropy` /
:func:`batched_l2_proximal` / :func:`batched_mse_loss` return per-device
``(B,)`` loss vectors whose ``.sum()`` seeds the backward pass with exactly
the per-slice gradients of B independent scalar losses; :class:`BatchedSGD`
steps the stacked parameter blocks in fused in-place ufuncs.

Numeric policy — the house invariant is *bit identity* with the per-device
path, so every batched op mirrors its serial counterpart's reduction order
per slice:

* batched matmul ``(B,N,K)@(B,K,M)`` is bitwise equal to the per-slice 2-D
  matmul (forward and both backward products);
* batched convolution *is* the serial convolution: one body
  (:func:`repro.nn.conv._conv2d`) whose GEMMs take the cohort as their batch
  axis, each slice the very BLAS call the serial op makes (a unit dimension
  falls back to the einsum family ``bof,bnfl->bnol`` / ``bnol,bnfl->bof`` /
  ``bof,bnol->bnfl``, the explicit-batch-axis mirror of the serial einsums);
* col2im and pooling run on the merged ``(B*N, C, H, W)`` layout, which is
  per-sample exact, so pooling reuses the serial ops via reshape;
* reductions move every serial axis up by one (conv bias ``(0,2)``→``(1,3)``,
  batch-norm ``(0,2,3)``→``(1,3,4)``, loss means over the trailing axes).

Any layer without a registered adapter makes the model unfusable and the
cohort planner falls back to the per-device path.  Layers with per-instance
RNG state (:class:`~repro.nn.layers.Dropout`) fuse only when the module is
built with ``members=`` — the live per-device models — so each stacked slice
draws its masks from its own device's generator, advancing it exactly as the
serial path would.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from . import conv as conv_ops
from . import layers as layer_types
from .buffers import fresh_pool
from .conv import _conv2d
from .module import Module, _as_floating
from .optim import SGD, Adam
from .policy import policy_dtype
from .tensor import Tensor, batch_norm, no_grad

__all__ = [
    "BatchedAdam",
    "BatchedEvaluator",
    "BatchedModule",
    "BatchedSGD",
    "UnfusableModelError",
    "batched_conv2d",
    "batched_cross_entropy",
    "batched_cross_entropy_masked",
    "batched_kl_divergence",
    "batched_l2_proximal",
    "batched_mse_loss",
    "cohort_tiles",
    "fusion_signature",
    "register_batched_adapter",
    "slice_thread_count",
    "stack_states",
    "supports_padded_fusion",
    "tile_width",
    "unstack_states",
]


class UnfusableModelError(ValueError):
    """The model contains a layer without a batched adapter."""


# --------------------------------------------------------------------------- #
# Stack / unstack helpers
# --------------------------------------------------------------------------- #
def stack_states(states: Sequence[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Stack per-device state dicts into one dict of ``(B, *shape)`` arrays.

    All dicts must share the same keys and per-key shapes; dtypes are
    preserved via numpy's usual promotion across the stacked slices.
    """
    if not states:
        raise ValueError("need at least one state dict to stack")
    keys = list(states[0])
    for state in states[1:]:
        if list(state) != keys:
            raise ValueError("state dicts disagree on keys; cannot stack")
    return {key: np.stack([np.asarray(state[key]) for state in states], axis=0)
            for key in keys}


def unstack_states(stacked: Dict[str, np.ndarray]) -> List[Dict[str, np.ndarray]]:
    """Split a stacked state dict back into per-device dicts (copies)."""
    sizes = {value.shape[0] for value in stacked.values()}
    if len(sizes) != 1:
        raise ValueError(f"inconsistent leading batch axis: {sorted(sizes)}")
    batch = sizes.pop()
    return [{key: value[index].copy() for key, value in stacked.items()}
            for index in range(batch)]


# --------------------------------------------------------------------------- #
# Batched convolution (the one op that needs its own autograd node)
# --------------------------------------------------------------------------- #
def batched_conv2d(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                   stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over a stacked device axis.

    ``inputs`` is ``(B, N, C_in, H, W)``, ``weight`` ``(B, C_out, C_in, k, k)``,
    ``bias`` ``(B, C_out)``.  Slice ``b`` of every output and gradient is
    bitwise equal to :func:`repro.nn.conv.conv2d` on slice ``b`` alone: the
    two are one body (:func:`repro.nn.conv._conv2d`), here with the cohort
    as the batch axis of its GEMMs.
    """
    if inputs.data.shape[2] != weight.data.shape[2]:
        raise ValueError(
            f"batched_conv2d channel mismatch: input has {inputs.data.shape[2]}, "
            f"weight expects {weight.data.shape[2]}")
    return _conv2d(inputs, weight, bias, stride, padding)


# --------------------------------------------------------------------------- #
# Batched losses — per-device (B,) vectors
# --------------------------------------------------------------------------- #
def _stacked_one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2:
        raise ValueError("stacked labels must be a (B, N) integer array")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for the requested number of classes")
    batch, samples = labels.shape
    encoded = np.zeros((batch, samples, num_classes), dtype=np.float64)
    encoded[np.arange(batch)[:, None], np.arange(samples)[None, :], labels] = 1.0
    return encoded


def batched_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-device softmax cross-entropy: ``(B, N, C)`` logits → ``(B,)`` losses."""
    num_classes = logits.shape[-1]
    targets = _stacked_one_hot(np.asarray(labels), num_classes)
    log_probs = logits.log_softmax(axis=-1)
    return -(log_probs * Tensor(targets)).sum(axis=-1).mean(axis=-1)


def batched_cross_entropy_masked(logits: Tensor, labels: np.ndarray,
                                 mask: np.ndarray, counts: np.ndarray) -> Tensor:
    """Cross-entropy over a padded sample axis: mask-weighted sum / count.

    ``mask`` is a ``(B, N)`` 0/1 array marking real samples, ``counts`` the
    per-device real-sample counts (clamped to ≥1 by the caller for all-padding
    slices, whose losses come out exactly 0 with exactly-zero gradients).
    Padding rows never reach the loss, so for per-sample-independent (pad-safe)
    models the gradients of real samples are unperturbed.  Numeric policy:
    the masked ``sum / count`` reduction sums ``N`` padded terms where the
    serial loss sums ``n_b``, so pairwise-summation grouping differs — family
    cohorts match the per-device path to ~1e-9 relative, not bitwise (the
    one documented deviation; exact-size cohorts keep the bitwise path).
    """
    num_classes = logits.shape[-1]
    targets = _stacked_one_hot(np.asarray(labels), num_classes)
    log_probs = logits.log_softmax(axis=-1)
    per_sample = -(log_probs * Tensor(targets)).sum(axis=-1)
    masked = per_sample * Tensor(np.asarray(mask, dtype=np.float64))
    return masked.sum(axis=-1) / Tensor(np.asarray(counts, dtype=np.float64))


def batched_l2_proximal(parameters: Sequence[Tensor], anchors: Sequence[np.ndarray],
                        mu: float = 1.0) -> Tensor:
    """Per-device ℓ2 proximal term over stacked ``(B, *shape)`` parameters."""
    parameters = list(parameters)
    anchors = list(anchors)
    if len(parameters) != len(anchors):
        raise ValueError("parameters and anchors must have the same length")
    if not parameters:
        raise ValueError("batched_l2_proximal needs at least one parameter")
    batch = parameters[0].data.shape[0]
    total: Tensor = Tensor(np.zeros((batch,)))
    for param, anchor in zip(parameters, anchors):
        diff = param - Tensor(np.asarray(anchor))
        total = total + (diff * diff).sum(axis=tuple(range(1, diff.data.ndim)))
    return total * mu


def batched_mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Per-device mean squared error: ``(B, N, ...)`` → ``(B,)``."""
    diff = prediction - target
    return (diff * diff).mean(axis=tuple(range(1, diff.data.ndim)))


def batched_kl_divergence(student_logits: Tensor, teacher_probs: Tensor) -> Tensor:
    """Per-device KL(student || teacher): ``(B, N, C)`` → ``(B,)`` losses.

    Mirrors :func:`repro.nn.losses.kl_divergence_loss` op for op (log-softmax,
    exp, clipped teacher log, sum over classes, mean over samples) with every
    reduction shifted one axis up, so slice ``b`` is bitwise equal to the
    serial loss on slice ``b`` alone.
    """
    student_log_probs = student_logits.log_softmax(axis=-1)
    student_probs = student_log_probs.exp()
    log_teacher = teacher_probs.clip(1e-12, 1.0).log()
    return (student_probs * (student_log_probs - log_teacher)).sum(axis=-1).mean(axis=-1)


# --------------------------------------------------------------------------- #
# Adapter registry: layer class -> (signature, batched forward builder)
# --------------------------------------------------------------------------- #
# A builder receives (layer, params, buffers, module, member_layers) where
# ``params`` maps the layer's local parameter names to stacked (B, *shape)
# Tensors, ``buffers`` maps local buffer names to stacked (B, *shape) arrays
# (mutated in place for running statistics), and ``member_layers`` is the
# per-cohort-member list of live layer instances at this position (None when
# the module was built without ``members=``; only stateful-RNG layers such as
# Dropout need it).  It returns the batched forward callable.
_ADAPTERS: Dict[Type[Module], Tuple[Callable, Callable, Callable]] = {}


def register_batched_adapter(layer_cls: Type[Module], signature: Callable,
                             builder: Callable,
                             pad_safe: Optional[Callable] = None) -> None:
    """Register a batched adapter for a layer class.

    ``signature(layer)`` must return a hashable description of everything
    that has to match for two layer instances to share one fused forward;
    ``builder(layer, params, buffers, module, member_layers)`` returns the
    batched callable.  ``pad_safe(layer)`` reports whether the layer treats
    every sample independently, so masked padding rows on the sample axis
    cannot perturb the real samples (default: yes).  Cross-sample layers
    (batch norm: padded rows enter the batch statistics) and RNG-shape
    layers (dropout with ``p > 0``: the mask draw depends on the sample
    count) must say no — they exclude the model from family-level padded
    fusion while remaining fusable in exact-size cohorts.
    """
    _ADAPTERS[layer_cls] = (signature, builder,
                            pad_safe if pad_safe is not None else lambda layer: True)


def _sig_linear(layer):
    return ("Linear", layer.in_features, layer.out_features, layer.bias is not None)


def _build_linear(layer, params, buffers, module, member_layers):
    weight = params["weight"]
    bias = params.get("bias")
    batch = weight.data.shape[0]

    def run(x: Tensor) -> Tensor:
        out = x.matmul(weight.transpose((0, 2, 1)))
        if bias is not None:
            out = out + bias.reshape((batch, 1, bias.data.shape[1]))
        return out

    return run


def _sig_conv2d(layer):
    return ("Conv2d", layer.in_channels, layer.out_channels, layer.kernel_size,
            layer.stride, layer.padding, layer.bias is not None)


def _build_conv2d(layer, params, buffers, module, member_layers):
    weight = params["weight"]
    bias = params.get("bias")
    stride, padding = layer.stride, layer.padding

    def run(x: Tensor) -> Tensor:
        return batched_conv2d(x, weight, bias, stride=stride, padding=padding)

    return run


def _sig_batchnorm(layer):
    return (type(layer).__name__, layer.num_features, layer.momentum, layer.eps)


def _build_batchnorm(layer, params, buffers, module, member_layers):
    weight, bias = params["weight"], params["bias"]
    running_mean, running_var = buffers["running_mean"], buffers["running_var"]
    momentum, eps = layer.momentum, layer.eps
    features = layer.num_features
    batch = weight.data.shape[0]
    if isinstance(layer, layer_types.BatchNorm2d):
        axes, shape = (1, 3, 4), (batch, 1, features, 1, 1)
    else:
        axes, shape = (1,), (batch, 1, features)

    def run(x: Tensor) -> Tensor:
        return batch_norm(x, weight, bias, running_mean, running_var, axes, shape,
                          module.training, momentum, eps)

    return run


def _sig_activation(layer):
    if isinstance(layer, layer_types.LeakyReLU):
        return ("LeakyReLU", layer.negative_slope)
    return (type(layer).__name__,)


def _build_activation(layer, params, buffers, module, member_layers):
    if isinstance(layer, layer_types.ReLU):
        return lambda x: x.relu()
    if isinstance(layer, layer_types.LeakyReLU):
        slope = layer.negative_slope
        return lambda x: x.leaky_relu(slope)
    if isinstance(layer, layer_types.Tanh):
        return lambda x: x.tanh()
    return lambda x: x.sigmoid()


def _sig_flatten(layer):
    return ("Flatten",)


def _build_flatten(layer, params, buffers, module, member_layers):
    def run(x: Tensor) -> Tensor:
        shape = x.shape
        tail = int(np.prod(shape[2:])) if shape[2:] else 1
        return x.reshape((shape[0], shape[1], tail))

    return run


def _sig_reshape(layer):
    return ("Reshape", layer.shape)


def _build_reshape(layer, params, buffers, module, member_layers):
    target = layer.shape

    def run(x: Tensor) -> Tensor:
        return x.reshape((x.shape[0], x.shape[1]) + target)

    return run


def _sig_pool(layer):
    return (type(layer).__name__, layer.kernel_size, layer.stride)


def _build_pool(layer, params, buffers, module, member_layers):
    op = (conv_ops.max_pool2d if isinstance(layer, layer_types.MaxPool2d)
          else conv_ops.avg_pool2d)
    kernel, stride = layer.kernel_size, layer.stride

    def run(x: Tensor) -> Tensor:
        shape = x.shape
        merged = x.reshape((shape[0] * shape[1],) + shape[2:])
        pooled = op(merged, kernel, stride)
        return pooled.reshape((shape[0], shape[1]) + pooled.shape[1:])

    return run


def _sig_global_pool(layer):
    return ("GlobalAvgPool2d",)


def _build_global_pool(layer, params, buffers, module, member_layers):
    return lambda x: x.mean(axis=(3, 4))


def _sig_dropout(layer):
    return ("Dropout", layer.p)


def _build_dropout(layer, params, buffers, module, member_layers):
    p = layer.p

    def run(x: Tensor) -> Tensor:
        if not module.training or p == 0.0:
            return x
        if member_layers is None:
            raise UnfusableModelError(
                "training through a stacked Dropout requires per-member layer "
                "instances (BatchedModule(..., members=...)) so each cohort "
                "slice draws from its own device's RNG stream")
        # Slice b's input is (N, ...), exactly what the serial layer sees, so
        # drawing mask b from member b's own generator consumes that stream
        # in the same order as per-device training — masks, outputs, and the
        # post-round RNG states are all bitwise identical to the fallback.
        mask = np.stack([
            (member._rng.random(x.shape[1:]) >= p).astype(x.data.dtype) / (1.0 - p)
            for member in member_layers])
        return x * Tensor(mask)

    return run


register_batched_adapter(layer_types.Linear, _sig_linear, _build_linear)
register_batched_adapter(layer_types.Conv2d, _sig_conv2d, _build_conv2d)
register_batched_adapter(layer_types.BatchNorm1d, _sig_batchnorm, _build_batchnorm,
                         pad_safe=lambda layer: False)
register_batched_adapter(layer_types.BatchNorm2d, _sig_batchnorm, _build_batchnorm,
                         pad_safe=lambda layer: False)
register_batched_adapter(layer_types.ReLU, _sig_activation, _build_activation)
register_batched_adapter(layer_types.LeakyReLU, _sig_activation, _build_activation)
register_batched_adapter(layer_types.Tanh, _sig_activation, _build_activation)
register_batched_adapter(layer_types.Sigmoid, _sig_activation, _build_activation)
register_batched_adapter(layer_types.Flatten, _sig_flatten, _build_flatten)
register_batched_adapter(layer_types.Reshape, _sig_reshape, _build_reshape)
register_batched_adapter(layer_types.MaxPool2d, _sig_pool, _build_pool)
register_batched_adapter(layer_types.AvgPool2d, _sig_pool, _build_pool)
register_batched_adapter(layer_types.GlobalAvgPool2d, _sig_global_pool, _build_global_pool)
register_batched_adapter(layer_types.Dropout, _sig_dropout, _build_dropout,
                         pad_safe=lambda layer: layer.p == 0.0)


def fusion_signature(model: Module) -> Optional[Tuple]:
    """Structural signature deciding which models may share a fused forward.

    Two devices can train in one :class:`BatchedModule` iff their models
    produce equal signatures: same ``fusion_layers()`` sequence (layer
    classes + configuration) and same parameter shapes.  Returns ``None``
    when the model does not expose ``fusion_layers()`` or contains a layer
    without a registered adapter — the caller must fall back per device.
    """
    fusion_layers = getattr(model, "fusion_layers", None)
    if fusion_layers is None:
        return None
    try:
        sequence = fusion_layers()
    except NotImplementedError:
        return None
    parts = []
    for layer in sequence:
        entry = _ADAPTERS.get(type(layer))
        if entry is None:
            return None
        parts.append(entry[0](layer))
    shapes = tuple((name, param.data.shape) for name, param in model.named_parameters())
    return (type(model).__name__, tuple(parts), shapes)


def supports_padded_fusion(model: Module) -> bool:
    """Whether a fusable model tolerates masked padding rows on the sample
    axis — the entry condition for family-level (unequal shard size) cohort
    grouping.  True iff every fusion layer's adapter declares itself
    pad-safe; batch norm (cross-sample statistics) and active dropout
    (sample-count-dependent RNG draws) veto padding while staying fusable
    in exact-size cohorts.
    """
    fusion_layers = getattr(model, "fusion_layers", None)
    if fusion_layers is None:
        return False
    try:
        sequence = fusion_layers()
    except NotImplementedError:
        return False
    for layer in sequence:
        entry = _ADAPTERS.get(type(layer))
        if entry is None or not entry[2](layer):
            return False
    return True


# --------------------------------------------------------------------------- #
# Tile width: how many cohort members one BatchedModule stacks
# --------------------------------------------------------------------------- #
#: Mean bytes per scratch-arena array that one tile's recorded forward may
#: hold.  Stacking saves one Python dispatch per op and member; it costs
#: whatever the op's arrays lose by outgrowing the cache, so the width that
#: pays is set by the bytes one op streams, not by bytes in total: a
#: compute-bound MLP stops gaining long before a dispatch-bound small CNN of
#: the same footprint.  Fitted to the sweeps recorded in
#: ``BENCH_cohort_fusion.json`` (3 models x 2 input shapes x 2 batch sizes x
#: widths 1/2/4/8) and ``BENCH_eval_fusion.json``: the largest full stack of
#: eight that still has to stay whole averages 0.39 MiB per array, the
#: smallest that has to split 0.87 MiB (``docs/architecture.md``, "Tile
#: width").
TILE_ARRAY_BYTES = 5 * 2 ** 17

# (fusion signature, sample shape, dtype) -> (bytes per sample, arrays).
_FOOTPRINTS: Dict[tuple, Tuple[int, int]] = {}


def _sample_footprint(template: Module, sample_shape: Tuple[int, ...]) -> Tuple[int, int]:
    """What one cohort member's recorded training forward takes from the
    scratch arena: ``(bytes held at the peak per sample, arrays acquired)``.

    Measured, not modelled: the first call for a (signature, sample shape,
    dtype) runs a stack of one copy of ``template`` over two zero samples on
    an arena of its own and reads the arena's counters; neither the template
    (its Dropout stream included) nor the calling thread's arena is touched.
    Two samples, because a single one sends the convolutions down the
    unit-dimension fallback (sample-major ``im2col`` columns into einsum,
    nothing staged in the arena), and because probing at the caller's batch
    would hold what the caller is trying not to (80 MiB for a 180-sample
    evaluation batch, which itself records nothing).  Every stacked array
    the arena holds carries the cohort and the sample axis, so ``w``
    members over ``n`` samples hold at most ``w * n`` times the bytes in at
    most as many arrays.  At most: a convolution forward holds the tap-major
    columns, the output base and — when the product is small
    (``conv._BLAS_SMALL_PRODUCT``), as it mostly is at two samples — a
    row-major copy of the columns; a full batch past that size takes one
    array fewer per such convolution (``TestTileWidth`` counts them).
    """
    key = (fusion_signature(template), sample_shape, policy_dtype())
    if key not in _FOOTPRINTS:
        member = copy.deepcopy(template)
        module = BatchedModule(member, [member.state_dict()], members=[member]).train()
        with fresh_pool() as pool:
            module(Tensor(np.zeros((1, 2) + sample_shape, policy_dtype())))
        stats = pool.stats()
        _FOOTPRINTS[key] = (-(-stats["outstanding_high_water"] // 2), stats["acquires"])
    return _FOOTPRINTS[key]


def tile_width(template: Module, cohort_size: int, batch_shape: Sequence[int]) -> int:
    """How many cohort members to stack into one :class:`BatchedModule`.

    A pure function of the template's layers, the per-device batch a step
    feeds it (``batch_shape`` is ``(samples, *sample_shape)``), the numeric
    policy's dtype and the cohort size: the widest tile whose forward holds
    at most :data:`TILE_ARRAY_BYTES` per arena array it acquires, evened out
    so the cohort splits into equal tiles (8 members at a fit of 5 run as
    4 + 4).  At least 1, at most the cohort, and never wider for a larger
    batch; a forward that takes nothing from the arena runs whole.
    """
    per_sample, arrays = _sample_footprint(template, tuple(int(n) for n in batch_shape[1:]))
    held = int(batch_shape[0]) * per_sample
    if not held:
        return cohort_size
    fit = max(1, min(cohort_size, TILE_ARRAY_BYTES * arrays // held))
    tiles = -(-cohort_size // fit)
    return -(-cohort_size // tiles)


def cohort_tiles(template: Module, cohort_size: int, batch_shape: Sequence[int],
                 min_tiles: int = 1) -> List[Tuple[int, int]]:
    """``(start, stop)`` bounds of the consecutive tiles a cohort runs as.

    Every site that stacks a cohort asks here, so a fused task stays the
    unit of dispatch while the tile is the unit of compute.  Cohort members
    are independent and every batched op is bitwise equal per slice at any
    stack size, so the tiling never changes a bit.  ``min_tiles`` narrows
    the tiles until there are that many (one per worker thread).
    """
    width = tile_width(template, cohort_size, batch_shape)
    width = max(1, min(width, -(-cohort_size // max(1, min_tiles))))
    return [(start, min(start + width, cohort_size))
            for start in range(0, cohort_size, width)]


# --------------------------------------------------------------------------- #
# BatchedModule
# --------------------------------------------------------------------------- #
class BatchedModule:
    """Replay a template model over a stacked cohort of parameter sets.

    Parameters
    ----------
    template:
        A model exposing ``fusion_layers()``; used only for architecture —
        its own parameters are never read or written.
    states:
        One ``state_dict()`` per cohort member (all shapes must match the
        template).  Parameters are stacked into ``(B, *shape)`` leaf tensors
        and buffers into stacked arrays.
    requires_grad:
        Whether the stacked parameters accumulate gradients (``False`` for
        forward/VJP-only uses such as the teacher ensemble).
    members:
        Optional live per-cohort-member model instances (one per state).
        Required to *train* through layers with per-instance RNG state
        (Dropout): each stacked slice then draws from its own member's
        generator stream, keeping fused training bitwise identical to the
        per-device fallback — including the post-round RNG states.
    """

    def __init__(self, template: Module, states: Sequence[Dict[str, np.ndarray]],
                 requires_grad: bool = True,
                 members: Optional[Sequence[Module]] = None) -> None:
        if not states:
            raise ValueError("BatchedModule needs at least one state dict")
        if members is not None and len(members) != len(states):
            raise ValueError(
                f"got {len(members)} member models for {len(states)} states")
        signature = fusion_signature(template)
        if signature is None:
            raise UnfusableModelError(
                f"{type(template).__name__} does not support batched fusion")
        self.batch_size = len(states)
        self.training = True
        self._params: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, param in template.named_parameters():
            # _as_floating mirrors Module.load_state_dict: floating payloads
            # keep their dtype (float32 cohorts stay float32) and non-float
            # payloads are promoted to the active numeric policy's dtype.
            stacked = np.stack(
                [_as_floating(state[name]) for state in states], axis=0)
            if stacked.shape[1:] != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{stacked.shape[1:]} vs {param.data.shape}")
            tensor = Tensor(stacked, requires_grad=requires_grad)
            # Keep the stacked dtype (Tensor.__init__ coerces to the policy
            # dtype); Module.load_state_dict preserves floating state the
            # same way.
            tensor.data = stacked
            self._params[name] = tensor
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, _ in template.named_buffers():
            self._buffers[name] = np.stack(
                [_as_floating(state[f"buffer::{name}"])
                 for state in states], axis=0)

        member_sequences: Optional[List[List[Module]]] = None
        if members is not None:
            member_sequences = []
            for member in members:
                if fusion_signature(member) != signature:
                    raise ValueError(
                        "member model's fusion signature differs from the template")
                member_sequences.append(list(member.fusion_layers()))

        prefix_of = {id(module): name for name, module in template.named_modules()}
        self._ops: List[Callable[[Tensor], Tensor]] = []
        for position, layer in enumerate(template.fusion_layers()):
            prefix = prefix_of[id(layer)]
            qualify = (lambda local, p=prefix: f"{p}.{local}" if p else local)
            params = {local: self._params[qualify(local)]
                      for local in layer._parameters}
            buffers = {local: self._buffers[qualify(local)]
                       for local in layer._buffers}
            member_layers = (None if member_sequences is None
                             else [sequence[position] for sequence in member_sequences])
            builder = _ADAPTERS[type(layer)][1]
            self._ops.append(builder(layer, params, buffers, self, member_layers))

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        """Run the stacked forward over ``(B, N, ...)`` inputs."""
        for op in self._ops:
            x = op(x)
        return x

    __call__ = forward

    def parameters(self) -> List[Tensor]:
        return list(self._params.values())

    def named_parameters(self):
        return list(self._params.items())

    def zero_grad(self, set_to_none: bool = True) -> None:
        for param in self._params.values():
            param.zero_grad(set_to_none=set_to_none)

    def train(self, mode: bool = True) -> "BatchedModule":
        self.training = mode
        return self

    def eval(self) -> "BatchedModule":
        return self.train(False)

    def state_dicts(self) -> List[Dict[str, np.ndarray]]:
        """Unstack back into per-device state dicts (serial key order)."""
        states: List[Dict[str, np.ndarray]] = []
        for index in range(self.batch_size):
            state = {name: param.data[index].copy()
                     for name, param in self._params.items()}
            for name, buf in self._buffers.items():
                state[f"buffer::{name}"] = buf[index].copy()
            states.append(state)
        return states

    def predict(self, inputs) -> np.ndarray:
        """No-grad stacked inference: ``(B, N, ...)`` in, ``(B, N, C)`` out.

        Runs the fused forward in eval mode with gradient recording off, so
        no graph is built and no backward buffers are retained; the previous
        train/eval mode is restored afterwards.  Slice ``b`` of the result
        is bitwise equal to the serial model's eval forward on slice ``b``.
        """
        was_training = self.training
        self.eval()
        with no_grad():
            out = self.forward(Tensor(inputs))
        if was_training:
            self.train()
        return out.data


def slice_thread_count(batch_size: int) -> int:
    """Worker-thread count for running a fused forward's tiles concurrently.

    Opt-in via ``REPRO_SLICE_THREADS`` (unset, empty, or ``<= 1`` keeps the
    single-threaded fused path); capped at the cohort size, since a slice is
    the smallest independent unit of work.
    """
    raw = os.environ.get("REPRO_SLICE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        return 1
    return max(1, min(threads, int(batch_size)))


class BatchedEvaluator:
    """No-grad fused inference over a cohort, one tile at a time.

    Builds one eval-mode :class:`BatchedModule` per tile of the cohort
    (:func:`cohort_tiles`, sized for ``batch_shape`` — the widest batch
    :meth:`predict` will be given).  When ``REPRO_SLICE_THREADS`` requests
    more than one worker the tiles are narrowed until every worker has one
    and handed to a :class:`~concurrent.futures.ThreadPoolExecutor`.  Cohort
    slices are fully independent — every batched op is bitwise equal per
    slice regardless of the stack size, and numpy releases the GIL inside
    the BLAS kernels — so neither the tiling nor the threads change a bit.

    The shared input batch is broadcast — not copied — onto each tile's
    leading axis; downstream reshapes materialize per-tile copies exactly
    where the fused ops need contiguous layouts.
    """

    def __init__(self, template: Module, states: Sequence[Dict[str, np.ndarray]],
                 batch_shape: Sequence[int]) -> None:
        self.batch_size = len(states)
        threads = slice_thread_count(self.batch_size)
        self._modules = [
            BatchedModule(template, list(states[lo:hi]), requires_grad=False).eval()
            for lo, hi in cohort_tiles(template, self.batch_size, batch_shape,
                                       min_tiles=threads)]
        self._executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Stacked logits ``(B, N, C)`` for one input batch shared by all slices."""
        images = np.asarray(images)

        def tile(module: BatchedModule) -> np.ndarray:
            return module.predict(
                np.broadcast_to(images, (module.batch_size,) + images.shape))

        run = map if self._executor is None else self._executor.map
        return np.concatenate(list(run(tile, self._modules)), axis=0)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "BatchedEvaluator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class BatchedSGD(SGD):
    """SGD over stacked ``(B, *shape)`` parameter blocks.

    The update formulas are element-wise, so applying :class:`SGD`'s fused
    in-place ufuncs to the stacked block is bitwise identical to stepping B
    independent optimizers — one ufunc call per parameter instead of B.
    The class exists to make the stacked contract explicit (leading batch
    axis validated, ``batch_size`` recorded for reporting).
    """

    def __init__(self, parameters: Sequence[Tensor], batch_size: int, lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr=lr, momentum=momentum, weight_decay=weight_decay)
        self.batch_size = _validate_stacked(self.parameters, batch_size)

    def snapshot_slices(self, indices: Sequence[int]) -> Dict[str, object]:
        """Copy parameter values and momentum of the given cohort slices.

        Used by the family-padded training loop to freeze inactive devices:
        snapshot before ``step()``, restore after, and the frozen slices are
        bitwise untouched by the step.  A ``None`` velocity entry records
        "never stepped", which restores as zeros (the two are bit-exact —
        see :meth:`SGD.velocity_state`).
        """
        index_array = np.asarray(indices, dtype=np.int64)
        return {
            "indices": index_array,
            "params": [param.data[index_array].copy() for param in self.parameters],
            "velocity": [None if velocity is None else velocity[index_array].copy()
                         for velocity in self._velocity],
        }

    def restore_slices(self, snapshot: Dict[str, object]) -> None:
        """Write a :meth:`snapshot_slices` capture back into its slices."""
        index_array = snapshot["indices"]
        for param, values in zip(self.parameters, snapshot["params"]):
            param.data[index_array] = values
        for position, values in enumerate(snapshot["velocity"]):
            velocity = self._velocity[position]
            if velocity is None:
                continue
            if values is None:
                velocity[index_array] = 0.0
            else:
                velocity[index_array] = values


def _validate_stacked(parameters: Sequence[Tensor], batch_size: int) -> int:
    size = int(batch_size)
    for param in parameters:
        if param.data.shape[0] != size:
            raise ValueError(
                f"stacked parameter has leading axis {param.data.shape[0]}, "
                f"expected cohort size {size}")
    return size


class BatchedAdam(Adam):
    """Adam over stacked ``(B, *shape)`` parameter blocks.

    Unlike SGD, Adam is *not* purely element-wise across the stack: the
    bias corrections depend on each slice's step count.  The step counter
    is therefore a ``(B,)`` vector and the corrections broadcast as
    ``(B, 1, ...)`` factors, which keeps every ufunc element-wise per slice
    — slice ``b`` of a fused step is bitwise identical to an independent
    :class:`~repro.nn.optim.Adam` at step ``steps[b]``.  Corrections are
    cast to the parameter dtype before dividing, matching the effective
    precision of the scalar corrections in the serial formulation.
    """

    def __init__(self, parameters: Sequence[Tensor], batch_size: int, lr: float = 0.001,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        self.batch_size = _validate_stacked(self.parameters, batch_size)
        self._steps = np.zeros(self.batch_size, dtype=np.int64)

    def step(self) -> None:
        self._steps += 1
        # Python-float pow per slice: ``np.power(beta, int64_vector)`` takes
        # numpy's repeated-squaring fast path for integer exponents, which can
        # differ from libm ``pow`` by 1 ulp — enough to break bit-parity with
        # the serial optimizer's scalar ``beta ** step``.
        correction1 = np.array([1.0 - self.beta1 ** int(step)
                                for step in self._steps])
        correction2 = np.array([1.0 - self.beta2 ** int(step)
                                for step in self._steps])
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            scratch = self._scratch_for(index, param)
            extra = self._scratch2_for(index, param)
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=extra)
                np.add(extra, grad, out=extra)
                grad = extra
            m, v = self._m[index], self._v[index]
            if m is None:
                m = self._m[index] = np.zeros_like(param.data)
                v = self._v[index] = np.zeros_like(param.data)
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1 - self.beta1, out=scratch)
            np.add(m, scratch, out=m)
            np.multiply(v, self.beta2, out=v)
            np.power(grad, 2, out=scratch)
            np.multiply(scratch, 1 - self.beta2, out=scratch)
            np.add(v, scratch, out=v)
            shape = (self.batch_size,) + (1,) * (param.data.ndim - 1)
            c1 = correction1.reshape(shape).astype(param.data.dtype, copy=False)
            c2 = correction2.reshape(shape).astype(param.data.dtype, copy=False)
            np.divide(m, c1, out=extra)
            np.multiply(extra, self.lr, out=extra)
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            np.add(scratch, self.eps, out=scratch)
            np.divide(extra, scratch, out=extra)
            np.subtract(param.data, extra, out=param.data)

    def state(self) -> dict:
        """Like :meth:`Adam.state`, with a ``(B,)`` per-slice step vector."""
        payload = super().state()
        payload["step"] = self._steps.copy()
        return payload

    def load_state(self, state: dict) -> None:
        """Install stacked state; a scalar ``step`` broadcasts to all slices."""
        steps = np.asarray(state["step"])
        if steps.ndim == 0:
            steps = np.full(self.batch_size, int(steps), dtype=np.int64)
        if steps.shape != (self.batch_size,):
            raise ValueError(
                f"expected a ({self.batch_size},) step vector, got shape {steps.shape}")
        super().load_state({**state, "step": 0})
        self._steps = steps.astype(np.int64, copy=True)
