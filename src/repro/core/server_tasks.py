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
referenced by exactly one task); the worker's runtime resolves the refs
before a task runs, and tasks carry no encoding of their own — the backend
pickles a task whole.  A task runs on the
:class:`~repro.federated.backend.WorkerContext`'s model replicas (which
share architectures with the server-side replicas, keyed by device id):
it loads the server-side state into a replica, sets its mode, and computes.
The replicas belong to the worker on every backend, so a server update
never touches a model the driver holds.

Inside a task, the models run as the tiles
:func:`~repro.nn.batched.stack_tiles` plans: a tile of two or more
same-signature models is one :class:`~repro.nn.batched.BatchedModule`, and
every other model — a singleton, one without a batched adapter, or a tile
of one — runs on its own; there is no switch, since each slice of a tile
is bitwise the per-model computation.
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

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..federated.backend import WorkerContext
from ..federated.trainer import by_member, sgd_steps, stack_batches
from ..nn import no_grad
from ..nn.batched import BatchedModule, BatchedSGD, run_tiles, stack_tiles
from ..nn.layers import dropout_states, load_dropout_states
from ..nn.losses import kl_divergence_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from ..utils.serialization import StateLike, StateRef

__all__ = [
    "partition_shards",
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


def _loaded(context: WorkerContext, device_id: int, state: StateLike, train: bool):
    """The context's replica for ``device_id``, holding ``state``, in the
    given mode."""
    model = context.model_for(device_id)
    model.load_state_dict(state)
    return model.train(train)


@contextmanager
def frozen_parameters(models):
    """Clear ``requires_grad`` on every parameter of ``models`` for the block.

    For passes that need the gradient at the *inputs* only: the weight
    gradients are not computed (and no conv gathers its im2col columns again
    for them), while every value that flows back to the inputs is unchanged.
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
        inputs = self.inputs
        models = [context.model_for(device_id) for device_id in self.device_ids]

        def alone(position: int) -> np.ndarray:
            model = _loaded(context, self.device_ids[position], self.states[position],
                            train=False)
            with no_grad():
                return _member_output(model, Tensor(inputs), self.mode).data

        def stacked(positions: List[int]) -> List[np.ndarray]:
            states = [self.states[i] for i in positions]
            module = BatchedModule(models[positions[0]], states, requires_grad=False).eval()
            with no_grad():
                out = module(Tensor(_tile(inputs, len(positions))))
                if self.mode == "prob":
                    out = out.softmax(axis=-1)
            return [np.ascontiguousarray(member) for member in out.data]

        return run_tiles(stack_tiles(models, inputs.shape), alone, stacked)


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
        inputs, upstream = self.inputs, self.upstream
        models = [context.model_for(device_id) for device_id in self.device_ids]

        def alone(position: int) -> np.ndarray:
            model = _loaded(context, self.device_ids[position], self.states[position],
                            train=False)
            with frozen_parameters([model]):
                x = Tensor(inputs, requires_grad=True)
                term = _member_output(model, x, self.mode) * float(self.weights[position])
                term.backward(upstream)
            return x.grad

        def stacked(positions: List[int]) -> List[np.ndarray]:
            batch = len(positions)
            states = [self.states[i] for i in positions]
            # Stacked parameters stay grad-free — only the input-gradient
            # path is materialized, matching a model run alone.
            module = BatchedModule(models[positions[0]], states, requires_grad=False).eval()
            x = Tensor(_tile(inputs, batch), requires_grad=True)
            out = module(x)
            if self.mode == "prob":
                out = out.softmax(axis=-1)
            weights = np.asarray([self.weights[i] for i in positions], dtype=np.float64)
            term = out * Tensor(weights.reshape((batch,) + (1,) * (out.data.ndim - 1)))
            term.backward(_tile(upstream, batch))
            return [np.ascontiguousarray(grad) for grad in x.grad]

        return run_tiles(stack_tiles(models, inputs.shape), alone, stacked)


def distill_students(models: Sequence, velocities: Sequence[Sequence[np.ndarray]],
                     inputs: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                     lr: float, momentum: float,
                     ) -> "tuple[List[List[np.ndarray]], List[List[float]]]":
    """Phase 2 for one shard of device models sharing the same synthetic
    batches (the body of :class:`DeviceDistillTask`).

    Each model is in train mode, holds the state to distill into, and is
    updated in place; ``velocities[i]`` is model ``i``'s SGD momentum, one
    array per parameter, read but never written.  The models run as the
    tiles :func:`~repro.nn.batched.stack_tiles` plans: a tile of two or more
    is one :class:`BatchedModule` over the live members, their momentum
    stacked into one :class:`BatchedSGD`, every shared synthetic batch
    replayed once for the tile; a model on its own runs the per-model KL
    loop, and slice ``b`` of a tile is bitwise that loop on member ``b``.
    Returns each model's updated momentum and per-iteration losses.
    """
    def alone(position: int):
        model = models[position]
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
        optimizer.load_velocity_state(velocities[position])
        losses = sgd_steps(model, optimizer, zip(inputs, targets), kl_divergence_loss)
        return optimizer.velocity_state(), losses

    def stacked(positions: List[int]):
        members = [models[position] for position in positions]
        module = BatchedModule(members[0], [model.state_dict() for model in members],
                               members=members)
        optimizer = BatchedSGD(module.parameters(), len(members), lr=lr, momentum=momentum)
        # Stacking copies: the caller's buffers are never stepped in place.
        optimizer.load_velocity_state(
            [np.stack(buffers) for buffers in zip(*(velocities[p] for p in positions))])
        losses = by_member(
            sgd_steps(module, optimizer,
                      stack_batches([zip(inputs, targets) for _ in members]),
                      kl_divergence_loss),
            len(members))
        velocity = optimizer.velocity_state()
        for model, state in zip(members, module.state_dicts()):
            model.load_state_dict(state)
        return [([buffer[slot] for buffer in velocity], losses[slot])
                for slot in range(len(members))]

    # Every synthetic batch has one shape; with none there is no step to
    # size a tile for, and each model runs on its own.
    tiles = (stack_tiles(models, np.shape(inputs[0])) if len(inputs)
             else [[position] for position in range(len(models))])
    results = run_tiles(tiles, alone, stacked)
    return [velocity for velocity, _ in results], [losses for _, losses in results]


@dataclass
class DeviceDistillTask:
    """Distill the global model into a shard of device models (Phase 2).

    Every device in the shard consumes the *same* per-iteration synthetic
    inputs and teacher targets (precomputed on the driver, so the
    generator/global-model RNG stream does not depend on the sharding) and
    trains independently with SGD from its own persisted momentum
    (``velocities``, one array per parameter).  ``dropout_states`` carries
    each server-side replica's Dropout streams (``None`` leaves the worker
    replicas' own).  The shard's context replicas, loaded with ``states``
    in train mode, are handed to :func:`distill_students`.
    """

    device_ids: List[int]
    states: List[ShardState]
    velocities: List[List[np.ndarray]]
    inputs: Union[StateRef, List[np.ndarray]]
    targets: Union[StateRef, List[np.ndarray]]
    lr: float
    momentum: float = 0.9
    dropout_states: Optional[List[List[dict]]] = None

    def run(self, context: WorkerContext) -> "DeviceDistillResult":
        models = [_loaded(context, device_id, state, train=True)
                  for device_id, state in zip(self.device_ids, self.states)]
        for model, streams in zip(models, self.dropout_states or ()):
            load_dropout_states(model, streams)
        velocities, losses = distill_students(
            models, self.velocities, self.inputs, self.targets, self.lr, self.momentum)
        for model in models:
            # The replica keeps no gradients between tasks.
            model.zero_grad()
        return DeviceDistillResult(
            device_ids=list(self.device_ids),
            states=[model.state_dict() for model in models],
            velocities=velocities, losses=losses,
            dropout_states=[dropout_states(model) for model in models])


@dataclass
class DeviceDistillResult:
    """Updated states, momentum buffers, per-iteration losses and Dropout
    streams of a shard."""

    device_ids: List[int]
    states: List[StateLike]
    velocities: List[List[np.ndarray]]
    losses: List[List[float]]
    dropout_states: List[List[dict]] = field(default_factory=list)
