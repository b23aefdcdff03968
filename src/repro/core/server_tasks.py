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

Inside a task, every group of two or more same-signature models runs as
stacked tiles (:func:`_fusion_tiles`: one
:class:`~repro.nn.batched.BatchedModule` per tile) and every other model
— a singleton, one without a batched adapter, or a tile of one — on its
own; there is no switch, since each slice of a tile is bitwise the
per-model computation.
``FederatedConfig.cohort_fusion`` does not reach here: it only groups
device tasks for dispatch.

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
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..federated.backend import WorkerContext, _single_array, resolve_arrays, resolve_state
from ..federated.trainer import by_member, sgd_steps, stack_batches
from ..nn import no_grad
from ..nn.batched import BatchedModule, BatchedSGD, cohort_tiles, fusion_signature
from ..nn.losses import kl_divergence_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from ..utils.serialization import StateLike, StateRef

__all__ = [
    "partition_shards",
    "borrowed_model",
    "distill_students",
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
    """Positions of same-signature models that share a stacked loop.

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


def _fusion_tiles(models: Sequence, batch_shape: Sequence[int]) -> List[List[int]]:
    """Every fusion group's positions, cut into the tiles it stacks as
    (``nn.batched.cohort_tiles``, sized for a ``batch_shape`` batch).

    A tile of one is dropped: its model takes the per-model arm, which gives
    the same bits without the stacked step's per-call overhead.
    """
    tiles: List[List[int]] = []
    for positions in _fusion_groups(models):
        tiles.extend(positions[lo:hi] for lo, hi in
                     cohort_tiles(models[positions[0]], len(positions), batch_shape)
                     if hi - lo >= 2)
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
    to :func:`~repro.core.distillation.ensemble_output`.  Same-signature
    teachers run as stacked tiles, the rest one at a time.
    """

    device_ids: List[int]
    states: List[ShardState]
    inputs: Union[StateRef, np.ndarray]
    mode: str = "prob"

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        inputs = _single_array(self.inputs)
        models = [context.model_for(device_id) for device_id in self.device_ids]
        members: List[Optional[np.ndarray]] = [None] * len(models)
        for positions in _fusion_tiles(models, inputs.shape):
            states = [resolve_state(self.states[i]) for i in positions]
            module = BatchedModule(models[positions[0]], states, requires_grad=False).eval()
            with no_grad():
                out = module(Tensor(_tile(inputs, len(positions))))
                if self.mode == "prob":
                    out = out.softmax(axis=-1)
            for slot, position in enumerate(positions):
                members[position] = np.ascontiguousarray(out.data[slot])
        for position, (device_id, state) in enumerate(zip(self.device_ids, self.states)):
            if members[position] is not None:
                continue
            with borrowed_model(context, device_id, state, train=False) as model:
                with no_grad():
                    members[position] = _member_output(model, Tensor(inputs), self.mode).data
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
    does not change the values that flow to the inputs.  Same-signature
    teachers run as stacked tiles, the rest one at a time.
    """

    device_ids: List[int]
    states: List[ShardState]
    weights: List[float]
    inputs: Union[StateRef, np.ndarray]
    upstream: Union[StateRef, np.ndarray]
    mode: str = "prob"

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        inputs = _single_array(self.inputs)
        upstream = _single_array(self.upstream)
        models = [context.model_for(device_id) for device_id in self.device_ids]
        grads: List[Optional[np.ndarray]] = [None] * len(models)
        for positions in _fusion_tiles(models, inputs.shape):
            batch = len(positions)
            states = [resolve_state(self.states[i]) for i in positions]
            # Stacked parameters stay grad-free — only the input-gradient
            # path is materialized, matching the per-model branch below.
            module = BatchedModule(models[positions[0]], states, requires_grad=False).eval()
            x = Tensor(_tile(inputs, batch), requires_grad=True)
            out = module(x)
            if self.mode == "prob":
                out = out.softmax(axis=-1)
            weights = np.asarray([self.weights[i] for i in positions], dtype=np.float64)
            term = out * Tensor(weights.reshape((batch,) + (1,) * (out.data.ndim - 1)))
            term.backward(_tile(upstream, batch))
            for slot, position in enumerate(positions):
                grads[position] = np.ascontiguousarray(x.grad[slot])
        for position, (device_id, state, weight) in enumerate(
                zip(self.device_ids, self.states, self.weights)):
            if grads[position] is not None:
                continue
            with borrowed_model(context, device_id, state, train=False) as model:
                with frozen_parameters([model]):
                    x = Tensor(inputs, requires_grad=True)
                    term = _member_output(model, x, self.mode) * float(weight)
                    term.backward(upstream)
                grads[position] = x.grad
        return grads


def distill_students(models: Sequence, velocities: Sequence[Sequence[np.ndarray]],
                     inputs: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                     lr: float, momentum: float,
                     ) -> "tuple[List[List[np.ndarray]], List[List[float]]]":
    """Phase 2 for one shard of device models sharing the same synthetic
    batches (the body of :class:`DeviceDistillTask`).

    Each model is in train mode, holds the state to distill into, and is
    updated in place; ``velocities[i]`` is model ``i``'s SGD momentum, one
    array per parameter, read but never written.  Same-signature models
    train as stacked tiles (:func:`_fusion_tiles`): one
    :class:`BatchedModule` over the live members, their momentum stacked
    into one :class:`BatchedSGD`, every shared synthetic batch replayed
    once for the tile.  Every other model runs the per-model KL loop, and
    slice ``b`` of a tile is bitwise that loop on member ``b``.  Returns
    each model's updated momentum and per-iteration losses.
    """
    out_velocities: List[List[np.ndarray]] = [None] * len(models)
    losses: List[List[float]] = [None] * len(models)
    # Every synthetic batch has one shape; with none there is no step to
    # size a tile for, and nothing to stack.
    tiles = _fusion_tiles(models, np.shape(inputs[0])) if len(inputs) else []
    for positions in tiles:
        members = [models[position] for position in positions]
        module = BatchedModule(members[0], [model.state_dict() for model in members],
                               members=members)
        optimizer = BatchedSGD(module.parameters(), len(members), lr=lr, momentum=momentum)
        # Stacking copies: the caller's buffers are never stepped in place.
        optimizer.load_velocity_state(
            [np.stack(buffers) for buffers in zip(*(velocities[p] for p in positions))])
        tile_losses = by_member(
            sgd_steps(module, optimizer,
                      stack_batches([zip(inputs, targets) for _ in members]),
                      kl_divergence_loss),
            len(members))
        stacked = optimizer.velocity_state()
        for slot, (position, model, state) in enumerate(
                zip(positions, members, module.state_dicts())):
            model.load_state_dict(state)
            out_velocities[position] = [buffer[slot] for buffer in stacked]
            losses[position] = tile_losses[slot]

    for position, model in enumerate(models):
        if losses[position] is not None:
            continue
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
        optimizer.load_velocity_state(velocities[position])
        losses[position] = sgd_steps(model, optimizer, zip(inputs, targets),
                                     kl_divergence_loss)
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

    def run(self, context: WorkerContext) -> "DeviceDistillResult":
        with ExitStack() as borrowed:
            models = [borrowed.enter_context(borrowed_model(context, device_id, state,
                                                            train=True))
                      for device_id, state in zip(self.device_ids, self.states)]
            velocities, losses = distill_students(
                models, self.velocities, resolve_arrays(self.inputs),
                resolve_arrays(self.targets), self.lr, self.momentum)
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
