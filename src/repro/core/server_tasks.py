"""Picklable tasks that shard the FedZKT server update across workers.

Algorithm 3 has two compute blocks that dominate server wall time and are
naturally data-parallel over *models*:

* **Phase 1** (adversarial game) evaluates the teacher ensemble
  ``f_ens(x)`` — one independent forward (and, for the generator step, one
  backward to the synthesized inputs) per on-device architecture;
* **Phase 2** (back-transfer) distills the global model into every
  on-device architecture from identical synthetic input/target batches.

This module packages both as tasks for the
:class:`~repro.federated.backend.ExecutionBackend`; they are the only
implementation of the server update (``ServerConfig.server_shards`` sets
how many tasks a dispatch splits into, and one shard is one task).  State
payloads arrive either as :class:`~repro.utils.serialization.StateRef`
handles into the backend's content-addressed state store (teacher states
and shared synthetic batches, published once and referenced by many tasks)
or inline as live arrays (a device's own state and momentum buffers,
referenced by exactly one task); tasks resolve both uniformly and carry no
encoding of their own — the backend pickles a task whole.  Execution
borrows the per-process :class:`~repro.federated.backend.WorkerContext`
(whose model replicas share architectures with the server-side replicas,
keyed by device id).  Tasks *borrow* a context model
(:func:`borrowed_model`): they hold its parameters, buffers, and
train/eval mode by reference, load the server-side state, compute, and
rebind what they held — so on the serial backend (where context models are
the live device models) a server update never leaks state into the
devices.

Bit-identity contract (pinned by ``tests/core/test_server_sharding.py``):
every task replays the exact Tensor ops of
:func:`~repro.core.distillation.disagreement_loss` /
:func:`~repro.core.distillation.ensemble_output` and the per-device KL loop
on the same float64 payloads, and the driver reduces partial results in
teacher order, so every shard count produces identical model states,
metrics, and gradients.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from ..federated.backend import WorkerContext, _single_array, resolve_arrays, resolve_state
from ..nn import no_grad
from ..nn.batched import (
    BatchedModule,
    BatchedSGD,
    batched_kl_divergence,
    cohort_tiles,
    fusion_signature,
)
from ..nn.losses import kl_divergence_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from ..utils.serialization import StateLike, StateRef

__all__ = [
    "partition_shards",
    "borrowed_model",
    "distill_group_fused",
    "EnsembleForwardTask",
    "EnsembleVJPTask",
    "DeviceDistillTask",
    "DeviceDistillResult",
]

#: A shard task's per-model state payload: a ref into the state store
#: (teacher states, published once per round) or a plain dict.
ShardState = Union[StateRef, StateLike]


def partition_shards(items: Sequence, num_shards: int) -> List[List]:
    """Split ``items`` into at most ``num_shards`` contiguous, near-even groups.

    Contiguity matters: the driver re-reduces per-model partial results in
    the original model order, which keeps the floating-point reduction
    association identical to :func:`~repro.core.distillation.ensemble_output`'s
    loop over the models.
    """
    items = list(items)
    if not items:
        return []
    num_shards = max(1, min(int(num_shards), len(items)))
    bounds = np.linspace(0, len(items), num_shards + 1).astype(int)
    return [items[start:stop] for start, stop in zip(bounds[:-1], bounds[1:]) if stop > start]


@contextmanager
def borrowed_model(context: WorkerContext, device_id: int, state: ShardState,
                   train: bool):
    """Temporarily load ``state`` into the context's replica for ``device_id``.

    ``load_state_dict`` rebinds every parameter and buffer to a fresh copy,
    so the replica's own arrays are never written while it is borrowed:
    they are held by reference and rebound on exit, together with the
    train/eval mode (and any gradients the task accumulated are cleared).
    That makes server-side tasks safe on the serial backend, where context
    models alias live models.
    """
    model = context.model_for(device_id)
    parameters = [(param, param.data) for param in model.parameters()]
    buffers = [(owner, name, owner._buffers[name])
               for owner, name in model._buffer_owners().values()]
    saved_mode = model.training
    model.load_state_dict(resolve_state(state))
    model.train(train)
    try:
        yield model
    finally:
        for param, data in parameters:
            param.data = data
        for owner, name, value in buffers:
            owner._set_buffer(name, value)
        model.train(saved_mode)
        model.zero_grad()


@contextmanager
def frozen_parameters(models):
    """Clear ``requires_grad`` on every parameter of ``models`` for the block.

    For passes that need the gradient at the *inputs* only: the weight
    gradients are not computed (and no conv holds its im2col columns for
    them), while every value that flows back to the inputs is unchanged.
    """
    parameters = [param for model in models for param in model.parameters()]
    previous = [param.requires_grad for param in parameters]
    for param in parameters:
        param.requires_grad = False
    try:
        yield
    finally:
        # Each its own flag back: one the caller had frozen stays frozen.
        for param, flag in zip(parameters, previous):
            param.requires_grad = flag


def _member_output(model, x: Tensor, mode: str) -> Tensor:
    """One teacher's ensemble member — the same ops ``ensemble_output`` runs."""
    logits = model(x)
    return logits.softmax(axis=-1) if mode == "prob" else logits


def _fusion_groups(models: Sequence) -> List[List[int]]:
    """Positions of same-signature models that may share a fused loop.

    Only groups of two or more are returned; singletons and models without
    a batched adapter stay on the per-model path.
    """
    groups: Dict[tuple, List[int]] = {}
    for position, model in enumerate(models):
        signature = fusion_signature(model)
        if signature is None:
            continue
        groups.setdefault(signature, []).append(position)
    return [positions for positions in groups.values() if len(positions) >= 2]


def _fusion_tiles(context: WorkerContext, device_ids: Sequence[int],
                  batch_shape: Sequence[int]) -> List[List[int]]:
    """Every fusion group's positions, cut into the tiles it stacks as."""
    tiles: List[List[int]] = []
    models = [context.model_for(device_id) for device_id in device_ids]
    for positions in _fusion_groups(models):
        template = models[positions[0]]
        tiles.extend(positions[lo:hi] for lo, hi in
                     cohort_tiles(template, len(positions), batch_shape))
    return tiles


def _tile(array: np.ndarray, batch: int) -> np.ndarray:
    """Replicate one batch along a new leading device axis (contiguous)."""
    return np.repeat(array[None], batch, axis=0)


@dataclass
class EnsembleForwardTask:
    """Evaluate a shard of teacher models on one synthetic batch.

    Returns the *unweighted* member outputs (post-softmax distributions in
    ``"prob"`` mode, raw logits in ``"logit"`` mode) in ``device_ids``
    order; the driver applies the ensemble weights and reduces across all
    shards in ascending teacher order so the weighted mean is bit-identical
    to :func:`~repro.core.distillation.ensemble_output`.
    """

    device_ids: List[int]
    states: List[ShardState]
    inputs: Union[StateRef, np.ndarray]
    mode: str = "prob"
    fuse: bool = False

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        inputs = _single_array(self.inputs)
        fused: Dict[int, np.ndarray] = {}
        if self.fuse:
            for positions in _fusion_tiles(context, self.device_ids, inputs.shape):
                template = context.model_for(self.device_ids[positions[0]])
                states = [resolve_state(self.states[i]) for i in positions]
                module = BatchedModule(template, states, requires_grad=False).eval()
                with no_grad():
                    out = module(Tensor(_tile(inputs, len(positions))))
                    if self.mode == "prob":
                        out = out.softmax(axis=-1)
                for slot, position in enumerate(positions):
                    fused[position] = np.ascontiguousarray(out.data[slot])
        members: List[np.ndarray] = []
        for position, (device_id, state) in enumerate(zip(self.device_ids, self.states)):
            if position in fused:
                members.append(fused[position])
                continue
            with borrowed_model(context, device_id, state, train=False) as model:
                with no_grad():
                    members.append(_member_output(model, Tensor(inputs), self.mode).data)
        return members


@dataclass
class EnsembleVJPTask:
    """Backward pass of a shard of ensemble members w.r.t. the inputs.

    Given the upstream gradient of the disagreement loss with respect to
    the ensemble output, computes each teacher's contribution to the
    gradient at the synthesized inputs by replaying ``ensemble_output``'s
    graph ops (``member = softmax(model(x))``; ``term = member * weight``)
    and backpropagating ``upstream`` through them.  Parameter gradients are
    skipped (:func:`frozen_parameters`) — only the
    input-gradient path is needed, and skipping the weight-gradient work
    does not change the values that flow to the inputs.
    """

    device_ids: List[int]
    states: List[ShardState]
    weights: List[float]
    inputs: Union[StateRef, np.ndarray]
    upstream: Union[StateRef, np.ndarray]
    mode: str = "prob"
    fuse: bool = False

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        inputs = _single_array(self.inputs)
        upstream = _single_array(self.upstream)
        fused: Dict[int, np.ndarray] = {}
        if self.fuse:
            for positions in _fusion_tiles(context, self.device_ids, inputs.shape):
                batch = len(positions)
                template = context.model_for(self.device_ids[positions[0]])
                states = [resolve_state(self.states[i]) for i in positions]
                # Stacked parameters stay grad-free — only the input-gradient
                # path is materialized, matching the per-model branch below.
                module = BatchedModule(template, states, requires_grad=False).eval()
                x = Tensor(_tile(inputs, batch), requires_grad=True)
                out = module(x)
                if self.mode == "prob":
                    out = out.softmax(axis=-1)
                weights = np.asarray([self.weights[i] for i in positions], dtype=np.float64)
                term = out * Tensor(weights.reshape((batch,) + (1,) * (out.data.ndim - 1)))
                term.backward(_tile(upstream, batch))
                for slot, position in enumerate(positions):
                    fused[position] = np.ascontiguousarray(x.grad[slot])
        grads: List[np.ndarray] = []
        for position, (device_id, state, weight) in enumerate(
                zip(self.device_ids, self.states, self.weights)):
            if position in fused:
                grads.append(fused[position])
                continue
            with borrowed_model(context, device_id, state, train=False) as model:
                with frozen_parameters([model]):
                    x = Tensor(inputs, requires_grad=True)
                    term = _member_output(model, x, self.mode) * float(weight)
                    term.backward(upstream)
                grads.append(x.grad)
        return grads


def distill_group_fused(template, states: Sequence[Dict[str, np.ndarray]],
                        velocity_lists: Sequence[Sequence[np.ndarray]],
                        inputs: Sequence[np.ndarray],
                        targets: Sequence[np.ndarray],
                        lr: float, momentum: float, members=None,
                        ) -> "tuple[List[Dict[str, np.ndarray]], List[List[np.ndarray]], List[List[float]]]":
    """Distill into a group of same-signature device models in fused loops.

    The group runs as consecutive tiles (``nn.batched.cohort_tiles``), each
    stacked through a :class:`BatchedModule` with the per-device momentum
    stacked into a :class:`BatchedSGD`, and each replaying every shared
    synthetic batch once for all its members.  Slice ``b`` of the fused
    trajectory is bitwise identical to running the serial per-device loop
    on member ``b`` alone.  Returns the final state dicts, updated momentum
    buffers, and per-device loss lists.
    """
    out_states: List[Dict[str, np.ndarray]] = []
    out_velocities: List[List[np.ndarray]] = []
    losses: List[List[float]] = []
    # Every iteration's synthetic batch has one shape; with no iterations
    # there is no step to size a tile for.
    tiles = (cohort_tiles(template, len(states), np.shape(inputs[0]))
             if len(inputs) else [(0, len(states))])
    for lo, hi in tiles:
        tile = _distill_tile(
            template, states[lo:hi], velocity_lists[lo:hi], inputs, targets,
            lr, momentum, None if members is None else members[lo:hi])
        for collected, part in zip((out_states, out_velocities, losses), tile):
            collected.extend(part)
    return out_states, out_velocities, losses


def _distill_tile(template, states, velocity_lists, inputs, targets, lr, momentum,
                  members):
    """One stacked tile of :func:`distill_group_fused` (same returns)."""
    group = len(states)
    module = BatchedModule(template, list(states), members=members)
    module.train()
    optimizer = BatchedSGD(module.parameters(), group, lr=lr, momentum=momentum)
    # Stacking copies: the caller's buffers are never stepped in place.
    optimizer.load_velocity_state([np.stack(buffers) for buffers in zip(*velocity_lists)])

    losses: List[List[float]] = [[] for _ in range(group)]
    for batch, target in zip(inputs, targets):
        batch = np.asarray(batch)
        target = np.asarray(target)
        # Every group member consumes the same synthetic batch; materialize
        # the stacked (B, N, ...) layout the batched ops expect.
        stacked_batch = np.ascontiguousarray(
            np.broadcast_to(batch, (group,) + batch.shape))
        stacked_target = np.ascontiguousarray(
            np.broadcast_to(target, (group,) + target.shape))
        optimizer.zero_grad(set_to_none=False)
        logits = module(Tensor(stacked_batch))
        loss_vec = batched_kl_divergence(logits, Tensor(stacked_target))
        # Read after backward below, so pin the (B,) vector against
        # pooled-forward reclaim.
        loss_vec.retain_data()
        # Summing the (B,) loss vector seeds each device's slice of the
        # backward pass with exactly the serial upstream of 1.
        loss_vec.sum().backward()
        optimizer.step()
        for member in range(group):
            losses[member].append(float(loss_vec.data[member]))

    stacked = optimizer.velocity_state()
    out_velocities = [[buffer[member] for buffer in stacked] for member in range(group)]
    return module.state_dicts(), out_velocities, losses


def distill_students(models: Sequence, velocities: Sequence[Sequence[np.ndarray]],
                     inputs: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                     lr: float, momentum: float, fuse: bool = False,
                     ) -> "tuple[List[List[np.ndarray]], List[List[float]]]":
    """Phase 2 for one shard of device models sharing the same synthetic
    batches (the body of :class:`DeviceDistillTask`).

    Each model is in train mode, holds the state to distill into, and is
    updated in place; ``velocities[i]`` is model ``i``'s SGD momentum, one
    array per parameter, read but never written.  With ``fuse``,
    same-signature models train through one :func:`distill_group_fused`
    stacked loop per group; every other model runs the per-model KL loop.
    Returns each model's updated momentum and per-iteration losses.
    """
    out_velocities: List[List[np.ndarray]] = [None] * len(models)
    losses: List[List[float]] = [None] * len(models)
    if fuse:
        for group in _fusion_groups(models):
            members = [models[position] for position in group]
            states, group_velocities, group_losses = distill_group_fused(
                members[0], [model.state_dict() for model in members],
                [velocities[position] for position in group],
                inputs, targets, lr, momentum, members=members)
            for slot, position in enumerate(group):
                members[slot].load_state_dict(states[slot])
                out_velocities[position] = group_velocities[slot]
                losses[position] = group_losses[slot]

    for position, model in enumerate(models):
        if losses[position] is not None:
            continue
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
        optimizer.load_velocity_state(velocities[position])
        losses[position] = []
        for batch, target in zip(inputs, targets):
            student_logits = model(Tensor(batch))
            loss = kl_divergence_loss(student_logits, Tensor(target))
            optimizer.zero_grad(set_to_none=False)
            loss.backward()
            optimizer.step()
            losses[position].append(loss.item())
        out_velocities[position] = optimizer.velocity_state()
    return out_velocities, losses


@dataclass
class DeviceDistillTask:
    """Distill the global model into a shard of device models (Phase 2).

    Every device in the shard consumes the *same* per-iteration synthetic
    inputs and teacher targets (precomputed on the driver, so the
    generator/global-model RNG stream does not depend on the sharding) and
    trains independently with SGD from its own persisted momentum
    (``velocities``, one array per parameter).  The shard's context
    replicas are borrowed for the length of the task and handed to
    :func:`distill_students`.
    """

    device_ids: List[int]
    states: List[ShardState]
    velocities: List[List[np.ndarray]]
    inputs: Union[StateRef, List[np.ndarray]]
    targets: Union[StateRef, List[np.ndarray]]
    lr: float
    momentum: float = 0.9
    fuse: bool = False

    def run(self, context: WorkerContext) -> "DeviceDistillResult":
        with ExitStack() as borrowed:
            models = [borrowed.enter_context(borrowed_model(context, device_id, state,
                                                            train=True))
                      for device_id, state in zip(self.device_ids, self.states)]
            velocities, losses = distill_students(
                models, self.velocities, resolve_arrays(self.inputs),
                resolve_arrays(self.targets), self.lr, self.momentum, self.fuse)
            return DeviceDistillResult(
                device_ids=list(self.device_ids),
                states=[model.state_dict() for model in models],
                velocities=velocities, losses=losses)


@dataclass
class DeviceDistillResult:
    """Updated states, momentum buffers, and per-iteration losses of a shard."""

    device_ids: List[int]
    states: List[StateLike]
    velocities: List[List[np.ndarray]]
    losses: List[List[float]]
