"""Cohort fusion: run a batch of same-architecture device tasks at once.

Every FedZKT round trains a cohort of compact on-device models, and with
homogeneous populations many of those models share one architecture.
With ``FederatedConfig.cohort_fusion`` on, the planner in this module
groups a round's device tasks by fusion signature and wraps each group of
two or more same-type tasks in one :class:`Cohort`, which the backend
dispatches as a single unit.  A cohort's ``run`` cuts its members into
the tiles :func:`repro.nn.batched.stack_tiles` plans, the rule the server
shard tasks follow too: a tile of two or more stacks its members'
parameters on a leading axis and drives one vectorized loop through
:class:`repro.nn.batched.BatchedModule` / :class:`BatchedSGD`, using the
stacked body :data:`_STACKED` registers for the member type — local
training (FedMD digests included), evaluation, or public logits — and a
tile of one is that member's own ``run``.  The
flag decides only this grouping of device tasks for dispatch; the FedZKT
server phases stack same-signature models inside a shard task whatever it
says (:mod:`repro.core.server_tasks`).

The loops are not written here.  Training runs
:func:`~repro.federated.trainer.sgd_steps`, the step loop the per-device
tasks run, on batches :func:`~repro.federated.trainer.stack_batches`
gathers from every member's own shuffle stream; the no-grad tasks run
:func:`~repro.federated.trainer.sweep` with a tile's
:meth:`~repro.nn.batched.BatchedModule.predict` as its forward.  What this
module adds is the gathering, the stacked module and optimizer, and the
planning.

The stacked path is bit-identical to the serial path by construction:
every batched op reduces over the same axes in the same order per device
slice (see ``repro.nn.batched``), each device keeps its own shuffle RNG
stream, and the per-device loss scalars are read off the ``(B,)`` loss
vector the backward pass is seeded from.  Groups that cannot be fused —
heterogeneous architectures, models without ``fusion_layers()``,
batch-incompatible layers, mismatched shard sizes or training configs —
fall back to the untouched per-device tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.batched import (
    BatchedModule,
    BatchedSGD,
    batched_l2_proximal,
    batched_mse_loss,
    run_tiles,
    stack_tiles,
)
from ..nn.layers import dropout_states
from .backend import (
    DigestSpec,
    EvaluateTask,
    LocalTrainResult,
    LocalTrainTask,
    PublicLogitsTask,
    WorkerContext,
    _restored_rng,
)
from .trainer import (
    LocalTrainingReport,
    by_member,
    sgd_steps,
    shard_batches,
    stack_batches,
    supervised_loss,
    sweep_accuracies,
    sweep_logits,
)

__all__ = [
    "Cohort",
    "CohortPlan",
    "plan_cohorts",
]


@dataclass
class Cohort:
    """Same-key device tasks dispatched as one unit and run stacked.

    ``members`` are the ordinary per-device tasks, all of one type, in the
    planner's order; ``run`` hands them to the stacked body registered for
    that type in :data:`_STACKED` and returns one result per member, each
    bitwise what the member's own ``run`` returns.
    """

    members: List[object]

    def run(self, context: WorkerContext) -> List:
        return _STACKED[type(self.members[0])](self.members, context)


def _train_stacked(members: List[LocalTrainTask], context: WorkerContext,
                   ) -> List[LocalTrainResult]:
    """Train a cohort as the tiles ``nn.batched.stack_tiles`` plans.

    Devices are independent, so each tile — a slice of ``members`` — runs
    its digests and every epoch to completion before the next tile stacks
    its states; a tile of one is that member's own ``run``.
    """
    first = members[0]
    shards = [context.shards[task.device_id] for task in members]
    sizes = [len(shard) for shard in shards]
    if len(set(sizes)) > 1:
        raise ValueError(f"a training cohort needs equal shard sizes, got {sizes}")
    # The widest batch any step feeds the module sizes the tile.
    samples = min(context.train_configs[first.device_id].batch_size, sizes[0])
    if first.digest is not None and context.public_dataset is not None:
        samples = max(samples, min(first.digest.batch_size, len(context.public_dataset)))
    batch_shape = (samples,) + shards[0].images.shape[1:]
    return run_tiles(stack_tiles([context.model_for(task.device_id) for task in members],
                                 batch_shape),
                     lambda position: members[position].run(context),
                     lambda tile: _train_tile([members[i] for i in tile], context))


def _train_tile(members: List[LocalTrainTask], context: WorkerContext,
                ) -> List[LocalTrainResult]:
    batch = len(members)
    first = members[0]
    config = context.train_configs[first.device_id]
    # members= hands each stacked slice its own replica, set to its task's
    # Dropout streams, so each slice draws its masks as the member's own
    # run would.
    replicas = [task.replica(context) for task in members]
    module = BatchedModule(replicas[0], [task.state for task in members], members=replicas)
    rngs = [_restored_rng(task.rng_state) for task in members]

    digest_losses: List[Optional[float]] = [None] * batch
    if first.digest is not None:
        digest_losses = _digest_stacked(module, [task.digest for task in members], context)

    anchors: Optional[List[np.ndarray]] = None
    if first.anchor is not None:
        anchors = [np.stack(column) for column in zip(*(task.anchor for task in members))]

    shards = [context.shards[task.device_id] for task in members]
    parameters = module.parameters()
    optimizer = BatchedSGD(parameters, batch, lr=config.lr, momentum=config.momentum,
                           weight_decay=config.weight_decay)
    losses = by_member(sgd_steps(
        module, optimizer,
        stack_batches([shard_batches(shard.images, shard.labels, config.batch_size,
                                     first.epochs, rng)
                       for shard, rng in zip(shards, rngs)]),
        supervised_loss(parameters, anchors, config.prox_mu, batched_l2_proximal)), batch)

    parameter_count = replicas[0].num_parameters()
    return [
        LocalTrainResult(
            device_id=task.device_id,
            state=state,
            report=LocalTrainingReport.from_losses(
                task.device_id, first.epochs, device_losses, len(shards[0]), parameter_count),
            rng_state=rng.bit_generator.state,
            digest_loss=digest_loss,
            dropout_states=dropout_states(replica))
        for task, state, device_losses, rng, digest_loss, replica in zip(
            members, module.state_dicts(), losses, rngs, digest_losses, replicas)]


def _digest_stacked(module: BatchedModule, digests: List[DigestSpec],
                    context: WorkerContext) -> List[float]:
    """The stacked FedMD digest: :func:`~repro.federated.trainer.digest_on_public`
    with every member's public batch stacked on the cohort axis."""
    if context.public_dataset is None:
        raise RuntimeError("digest task requires a public dataset in the worker context")
    public = context.public_dataset
    spec = digests[0]  # the planner keys on (epochs, lr, batch_size)
    optimizer = BatchedSGD(module.parameters(), len(digests), lr=spec.lr, momentum=0.9)
    batches = stack_batches([
        shard_batches(public.images, np.asarray(item.consensus),
                      spec.batch_size, spec.epochs, np.random.default_rng(item.seed))
        for item in digests])
    losses = by_member(sgd_steps(module, optimizer, batches, batched_mse_loss), len(digests))
    return [float(np.mean(item)) if item else 0.0 for item in losses]


def _sweep_stacked(members: List, context: WorkerContext, dataset, reduce) -> List:
    """Each member's ``reduce`` (``sweep_accuracies`` / ``sweep_logits``)
    over ``dataset``, as the tiles ``nn.batched.stack_tiles`` plans for the
    widest chunk the sweep feeds: a stacked tile is one eval-mode
    :class:`BatchedModule` whose ``predict`` takes each chunk broadcast onto
    its leading axis, and a tile of one is that member's own ``run``."""
    models = [context.model_for(task.device_id) for task in members]
    batch_size = members[0].batch_size
    batch_shape = (min(batch_size, len(dataset)),) + dataset.images.shape[1:]

    def stacked(tile: List[int]) -> List:
        module = BatchedModule(models[tile[0]], [members[i].state for i in tile],
                               requires_grad=False).eval()
        return reduce(
            lambda images: module.predict(np.broadcast_to(images, (len(tile),) + images.shape)),
            dataset, batch_size, len(tile))

    return run_tiles(stack_tiles(models, batch_shape),
                     lambda position: members[position].run(context), stacked)


def _evaluate_stacked(members: List[EvaluateTask], context: WorkerContext) -> List[float]:
    """Each member's test-set accuracy, reduced by
    :func:`~repro.federated.trainer.sweep_accuracies` as the per-device task
    reduces it."""
    if context.eval_dataset is None:
        raise RuntimeError("evaluate task requires an eval dataset in the worker context")
    return _sweep_stacked(members, context, context.eval_dataset, sweep_accuracies)


def _public_logits_stacked(members: List[PublicLogitsTask], context: WorkerContext,
                           ) -> List[np.ndarray]:
    """Each member's class scores on the public dataset (FedMD)."""
    if context.public_dataset is None:
        raise RuntimeError("public-logits task requires a public dataset in the worker context")
    return _sweep_stacked(members, context, context.public_dataset, sweep_logits)


#: The stacked body of each device task type a :class:`Cohort` can hold;
#: the planner fuses no other type.
_STACKED: Dict[type, Callable[[List, WorkerContext], List]] = {
    LocalTrainTask: _train_stacked,
    EvaluateTask: _evaluate_stacked,
    PublicLogitsTask: _public_logits_stacked,
}


# --------------------------------------------------------------------------- #
# Cohort planning
# --------------------------------------------------------------------------- #
@dataclass
class CohortPlan:
    """Outcome of :func:`plan_cohorts`.

    ``tasks`` is the dispatch list (a :class:`Cohort` in place of each
    group, passthrough tasks untouched) and ``scatter[i]`` lists the
    positions in the *original* task list that planned task ``i``'s results
    land in — one position for a passthrough task, one per member (in
    member order) for a cohort.
    """

    tasks: List[object] = field(default_factory=list)
    scatter: List[List[int]] = field(default_factory=list)

    def scattered(self, planned_index: int, result) -> Iterable[Tuple[int, object]]:
        """``(original_index, result)`` for each task planned task
        ``planned_index`` stands for, given what it returned."""
        indices = self.scatter[planned_index]
        if isinstance(self.tasks[planned_index], Cohort):
            return zip(indices, result)
        return ((indices[0], result),)

    def gather(self, raw_results: Sequence) -> List:
        """Re-assemble planned results into original task order."""
        results: List = [None] * sum(len(indices) for indices in self.scatter)
        for planned_index, result in enumerate(raw_results):
            for original_index, value in self.scattered(planned_index, result):
                results[original_index] = value
        return results


def _digest_group_key(digest: Optional[DigestSpec]) -> Optional[Tuple]:
    if digest is None:
        return None
    return (digest.epochs, digest.lr, digest.batch_size)


def _task_fusion_key(task, group_key) -> Optional[Hashable]:
    """The full fusion key of one task, or ``None`` for the per-device path.

    Only task types with a stacked body (:data:`_STACKED`) fuse.
    ``group_key`` covers the model/config dimensions; the task-level
    dimensions folded in here depend on the task kind — training tasks add
    epochs, anchor presence, and the digest hyperparameters, the no-grad
    forward tasks only their eval batch size.  The task type itself leads
    the key, so an evaluate task can never fuse with a logits task.
    """
    task_type = type(task)
    if task_type not in _STACKED:
        return None
    key = group_key(task)
    if key is None:
        return None
    if task_type is LocalTrainTask:
        return (task_type.__name__, key, task.epochs, task.anchor is not None,
                _digest_group_key(task.digest))
    return (task_type.__name__, key, task.batch_size)


#: Smallest group the planner fuses; a lone task keeps its per-device path.
_MIN_GROUP = 2


def plan_cohorts(tasks: Sequence,
                 group_key: Callable[[object], Optional[Hashable]]) -> CohortPlan:
    """Group a round's tasks into cohorts.

    ``group_key(task)`` returns a hashable fusion key covering the model
    and training-config dimensions, or ``None`` when the task must stay on
    the per-device path (unfusable model, mismatched shard size...).  The
    planner itself folds in the task-level dimensions — epochs, anchor
    presence, digest presence and digest hyperparameters for training
    tasks; eval batch size for the no-grad forward tasks (evaluate /
    public-logits sweeps) — so two tasks fuse only when every knob that
    shapes the work agrees.  Tasks sharing a key become one
    :class:`Cohort` when the group reaches ``_MIN_GROUP``; each cohort is
    emitted at its first member's position, so single-group rounds keep
    their dispatch order stable.
    """
    keys: List[Optional[Hashable]] = []
    groups: Dict[Hashable, List[int]] = {}
    for index, task in enumerate(tasks):
        key = _task_fusion_key(task, group_key)
        keys.append(key)
        if key is not None:
            groups.setdefault(key, []).append(index)

    plan = CohortPlan()
    emitted = set()
    for index, task in enumerate(tasks):
        if index in emitted:
            continue
        key = keys[index]
        members = groups.get(key, []) if key is not None else [index]
        if key is None or len(members) < _MIN_GROUP:
            plan.tasks.append(task)
            plan.scatter.append([index])
            emitted.add(index)
            continue
        plan.tasks.append(Cohort([tasks[i] for i in members]))
        plan.scatter.append(list(members))
        emitted.update(members)
    return plan
