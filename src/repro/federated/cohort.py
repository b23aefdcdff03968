"""Fused cohort execution: train a batch of same-architecture devices at once.

Every FedZKT round trains a cohort of compact on-device models, and with
homogeneous populations many of those models share one architecture.
Instead of dispatching B independent Python training loops, the planner
in this module groups a round's :class:`LocalTrainTask`s by fusion
signature and replaces each group of two or more with a single
:class:`FusedLocalTrainTask` that stacks the devices' parameters on a
leading axis and drives one vectorized loop through
:class:`repro.nn.batched.BatchedModule` / :class:`BatchedSGD`.

The loops are not written here.  Training runs
:func:`~repro.federated.trainer.sgd_steps`, the step loop the per-device
tasks run, on batches :func:`~repro.federated.trainer.stack_batches`
gathers from every member's own shuffle stream; the no-grad tasks run
:func:`~repro.federated.trainer.sweep` with a
:class:`~repro.nn.batched.BatchedEvaluator` as its forward.  What this
module adds is the gathering, the stacked module and optimizer, and the
planning.

The fused path is bit-identical to the serial path by construction: every
batched op reduces over the same axes in the same order per device slice
(see ``repro.nn.batched``), each device keeps its own shuffle RNG stream,
and the per-device loss scalars are read off the ``(B,)`` loss vector the
backward pass is seeded from.  Groups that cannot be fused — heterogeneous
architectures, models without ``fusion_layers()``, batch-incompatible
layers, mismatched shard sizes or training configs — fall back to the
untouched per-device tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.batched import (
    BatchedEvaluator,
    BatchedModule,
    BatchedSGD,
    batched_l2_proximal,
    batched_mse_loss,
    cohort_tiles,
)
from .backend import (
    DigestSpec,
    EvaluateTask,
    LocalTrainResult,
    LocalTrainTask,
    PublicLogitsTask,
    WorkerContext,
    _restored_rng,
    _single_array,
    resolve_arrays,
    resolve_state,
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
    "FusedEvaluateTask",
    "FusedLocalTrainTask",
    "FusedPublicLogitsTask",
    "CohortPlan",
    "plan_cohorts",
]


@dataclass
class FusedLocalTrainTask:
    """Train a cohort of same-signature devices in one vectorized loop.

    Field layout mirrors :class:`LocalTrainTask` with every per-device field
    pluralized and aligned by position; ``run`` returns one
    :class:`LocalTrainResult` per device, in ``device_ids`` order, each
    indistinguishable from what the per-device task would have produced.
    """

    device_ids: List[int]
    states: List[object]  # StateRef | state dict, per device
    epochs: int
    rng_states: List[dict]
    anchors: Optional[List[object]] = None  # per-device StateRef | array list
    digests: Optional[List[DigestSpec]] = None

    def _run_digests(self, module: BatchedModule, context: WorkerContext) -> List[float]:
        """The stacked FedMD digest: :func:`~repro.federated.trainer.digest_on_public`
        with every member's public batch stacked on the cohort axis."""
        if context.public_dataset is None:
            raise RuntimeError("digest task requires a public dataset in the worker context")
        public = context.public_dataset
        spec = self.digests[0]  # planner guarantees identical (epochs, lr, batch_size)
        optimizer = BatchedSGD(module.parameters(), len(self.device_ids), lr=spec.lr,
                               momentum=0.9)
        batches = stack_batches([
            shard_batches(public.images, np.asarray(_single_array(item.consensus)),
                          spec.batch_size, spec.epochs, np.random.default_rng(item.seed))
            for item in self.digests])
        losses = by_member(sgd_steps(module, optimizer, batches, batched_mse_loss),
                           len(self.device_ids))
        return [float(np.mean(item)) if item else 0.0 for item in losses]

    def run(self, context: WorkerContext) -> List[LocalTrainResult]:
        """Train the cohort as consecutive tiles (see ``nn.batched.cohort_tiles``).

        Devices are independent, so each tile — itself a fused task over a
        slice of this one's per-device fields — runs its digests and every
        epoch to completion before the next tile stacks its states.
        """
        template = context.model_for(self.device_ids[0])
        config = context.train_configs[self.device_ids[0]]
        shards = [context.shards[device_id] for device_id in self.device_ids]
        sizes = [len(shard) for shard in shards]
        if len(set(sizes)) > 1:
            raise ValueError(f"a fused training task needs equal shard sizes, got {sizes}")
        # The widest batch any step feeds the module sizes the tile.
        samples = min(config.batch_size, sizes[0])
        if self.digests is not None and context.public_dataset is not None:
            samples = max(samples, min(self.digests[0].batch_size,
                                       len(context.public_dataset)))
        batch_shape = (samples,) + shards[0].images.shape[1:]
        results: List[LocalTrainResult] = []
        for lo, hi in cohort_tiles(template, len(sizes), batch_shape):
            tile = replace(
                self, device_ids=self.device_ids[lo:hi], states=self.states[lo:hi],
                rng_states=self.rng_states[lo:hi],
                anchors=None if self.anchors is None else self.anchors[lo:hi],
                digests=None if self.digests is None else self.digests[lo:hi])
            results.extend(tile._run_stacked(context))
        return results

    def _run_stacked(self, context: WorkerContext) -> List[LocalTrainResult]:
        batch = len(self.device_ids)
        template = context.model_for(self.device_ids[0])
        config = context.train_configs[self.device_ids[0]]
        states = [resolve_state(value) for value in self.states]
        # members= hands each stacked slice its own live model, so RNG-stateful
        # layers (Dropout) draw per-device streams exactly as the serial
        # fallback would on the same worker.
        module = BatchedModule(
            template, states,
            members=[context.model_for(device_id) for device_id in self.device_ids])
        rngs = [_restored_rng(state) for state in self.rng_states]

        digest_losses: List[Optional[float]] = [None] * batch
        if self.digests is not None:
            digest_losses = self._run_digests(module, context)

        anchors: Optional[List[np.ndarray]] = None
        if self.anchors is not None:
            per_device = [resolve_arrays(value) for value in self.anchors]
            anchors = [np.stack([np.asarray(per_device[b][i]) for b in range(batch)])
                       for i in range(len(per_device[0]))]

        shards = [context.shards[device_id] for device_id in self.device_ids]
        parameters = module.parameters()
        optimizer = BatchedSGD(parameters, batch, lr=config.lr, momentum=config.momentum,
                               weight_decay=config.weight_decay)
        losses = by_member(sgd_steps(
            module, optimizer,
            stack_batches([shard_batches(shard.images, shard.labels, config.batch_size,
                                         self.epochs, rng)
                           for shard, rng in zip(shards, rngs)]),
            supervised_loss(parameters, anchors, config.prox_mu, batched_l2_proximal)), batch)

        parameter_count = template.num_parameters()
        return [
            LocalTrainResult(
                device_id=device_id,
                state=state,
                report=LocalTrainingReport.from_losses(
                    device_id, self.epochs, device_losses, len(shards[0]), parameter_count),
                rng_state=rng.bit_generator.state,
                digest_loss=digest_loss)
            for device_id, state, device_losses, rng, digest_loss in zip(
                self.device_ids, module.state_dicts(), losses, rngs, digest_losses)]


# --------------------------------------------------------------------------- #
# Fused no-grad forward tasks (evaluation and public-logit sweeps)
# --------------------------------------------------------------------------- #
@dataclass
class _FusedForwardTask:
    """Shared plumbing of the fused no-grad tasks: per-device state payloads
    plus the chunked dataset sweep through a :class:`BatchedEvaluator`
    (which runs the cohort as tiles)."""

    device_ids: List[int]
    states: List[object]  # StateRef | state dict, per device
    batch_size: int = 256

    def _evaluator(self, context: WorkerContext, dataset) -> BatchedEvaluator:
        template = context.model_for(self.device_ids[0])
        states = [resolve_state(value) for value in self.states]
        samples = min(self.batch_size, len(dataset))
        return BatchedEvaluator(template, states,
                                (samples,) + dataset.images.shape[1:])


class FusedEvaluateTask(_FusedForwardTask):
    """Evaluate a same-architecture cohort on the held-out test set at once.

    One stacked eval forward per test batch replaces B sequential model
    sweeps; the per-device accuracies are read off the cohort axis by
    :func:`~repro.federated.trainer.sweep_accuracies`, the reduction
    :func:`~repro.federated.trainer.evaluate_accuracy` runs, so each slice's
    accuracy is bitwise equal to the per-device
    :class:`~repro.federated.backend.EvaluateTask`.
    """

    def run(self, context: WorkerContext) -> List[float]:
        if context.eval_dataset is None:
            raise RuntimeError("evaluate task requires an eval dataset in the worker context")
        return sweep_accuracies(self._evaluator(context, context.eval_dataset).predict,
                                context.eval_dataset, self.batch_size, len(self.device_ids))


class FusedPublicLogitsTask(_FusedForwardTask):
    """Compute a cohort's class scores on the public dataset in one sweep
    (FedMD communicate phase); slice ``b`` is bitwise equal to the serial
    :class:`~repro.federated.backend.PublicLogitsTask` output."""

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        if context.public_dataset is None:
            raise RuntimeError("public-logits task requires a public dataset in the worker context")
        return sweep_logits(self._evaluator(context, context.public_dataset).predict,
                            context.public_dataset, self.batch_size, len(self.device_ids))


#: Task types the planner may emit in place of a fused group.
_FUSED_TASK_TYPES = (FusedLocalTrainTask, FusedEvaluateTask, FusedPublicLogitsTask)


# --------------------------------------------------------------------------- #
# Cohort planning
# --------------------------------------------------------------------------- #
@dataclass
class CohortPlan:
    """Outcome of :func:`plan_cohorts`.

    ``tasks`` is the dispatch list (fused tasks replacing their groups,
    passthrough tasks untouched) and ``scatter[i]`` lists the positions in
    the *original* task list that planned task ``i``'s results land in —
    one position for a passthrough task, ``len(device_ids)`` positions (in
    ``device_ids`` order) for a fused task.
    """

    tasks: List[object] = field(default_factory=list)
    scatter: List[List[int]] = field(default_factory=list)

    @property
    def fused_group_count(self) -> int:
        return sum(1 for task in self.tasks if isinstance(task, _FUSED_TASK_TYPES))

    def gather(self, raw_results: Sequence) -> List:
        """Re-assemble planned results into original task order."""
        total = sum(len(indices) for indices in self.scatter)
        results: List = [None] * total
        for planned_index, result in enumerate(raw_results):
            indices = self.scatter[planned_index]
            if isinstance(self.tasks[planned_index], _FUSED_TASK_TYPES):
                for slot, original_index in enumerate(indices):
                    results[original_index] = result[slot]
            else:
                results[indices[0]] = result
        return results


def _digest_group_key(digest: Optional[DigestSpec]) -> Optional[Tuple]:
    if digest is None:
        return None
    return (digest.epochs, digest.lr, digest.batch_size)


def _task_fusion_key(task, group_key) -> Optional[Hashable]:
    """The full fusion key of one task, or ``None`` for the per-device path.

    ``group_key`` covers the model/config dimensions; the task-level
    dimensions folded in here depend on the task kind — training tasks add
    epochs, anchor presence, and the digest hyperparameters, the no-grad
    forward tasks only their eval batch size.  The task type itself leads
    the key, so an evaluate task can never fuse with a logits task.
    """
    task_type = type(task)
    if task_type not in (LocalTrainTask, EvaluateTask, PublicLogitsTask):
        return None
    key = group_key(task)
    if key is None:
        return None
    if task_type is LocalTrainTask:
        return (task_type.__name__, key, task.epochs, task.anchor is not None,
                _digest_group_key(task.digest))
    return (task_type.__name__, key, task.batch_size)


def _fuse_group(cohort: List) -> object:
    """Build the fused task replacing a planned group (same-type members)."""
    first = cohort[0]
    if type(first) is LocalTrainTask:
        return FusedLocalTrainTask(
            device_ids=[t.device_id for t in cohort],
            states=[t.state for t in cohort],
            epochs=first.epochs,
            rng_states=[t.rng_state for t in cohort],
            anchors=([t.anchor for t in cohort]
                     if any(t.anchor is not None for t in cohort) else None),
            digests=([t.digest for t in cohort]
                     if any(t.digest is not None for t in cohort) else None),
        )
    fused_type = (FusedEvaluateTask if type(first) is EvaluateTask
                  else FusedPublicLogitsTask)
    return fused_type(
        device_ids=[t.device_id for t in cohort],
        states=[t.state for t in cohort],
        batch_size=first.batch_size,
    )


#: Smallest group the planner fuses; a lone task keeps its per-device path.
_MIN_GROUP = 2


def plan_cohorts(tasks: Sequence,
                 group_key: Callable[[object], Optional[Hashable]]) -> CohortPlan:
    """Group a round's tasks into fused cohorts.

    ``group_key(task)`` returns a hashable fusion key covering the model
    and training-config dimensions, or ``None`` when the task must stay on
    the per-device path (unfusable model, mismatched shard size...).  The
    planner itself folds in the task-level dimensions — epochs, anchor
    presence, digest presence and digest hyperparameters for training
    tasks; eval batch size for the no-grad forward tasks (evaluate /
    public-logits sweeps) — so two tasks fuse only when every knob that
    shapes the work agrees.  Tasks sharing a key are fused when the group
    reaches ``_MIN_GROUP``; each fused task is emitted at its first member's
    position, so single-group rounds keep their dispatch order stable.
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
        plan.tasks.append(_fuse_group([tasks[i] for i in members]))
        plan.scatter.append(list(members))
        emitted.update(members)
    return plan
