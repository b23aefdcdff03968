"""Fused cohort execution: train a batch of same-architecture devices at once.

Every FedZKT round trains a cohort of compact on-device models, and with
homogeneous (or family-grouped) populations many of those models share one
architecture.  Instead of dispatching B independent Python training loops,
the planner in this module groups a round's :class:`LocalTrainTask`s by
fusion signature and replaces each group of two or more with a single
:class:`FusedLocalTrainTask` that stacks the devices' parameters on a
leading axis and drives one vectorized loop through
:class:`repro.nn.batched.BatchedModule` / :class:`BatchedSGD`.

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
    batched_cross_entropy,
    batched_cross_entropy_masked,
    batched_l2_proximal,
    batched_mse_loss,
    cohort_tiles,
)
from ..nn.functional import accuracy
from ..nn.tensor import Tensor
from .backend import (
    DigestSpec,
    EvaluateTask,
    LocalTrainResult,
    LocalTrainTask,
    PublicLogitsTask,
    WorkerContext,
    _single_array,
    resolve_arrays,
    resolve_state,
)
from .trainer import LocalTrainingReport

__all__ = [
    "FusedEvaluateTask",
    "FusedLocalTrainTask",
    "FusedPublicLogitsTask",
    "CohortPlan",
    "plan_cohorts",
]


def _restored_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


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

    # ------------------------------------------------------------------ #
    # Fused FedMD digest phase (mirrors trainer.digest_on_public)
    # ------------------------------------------------------------------ #
    def _run_digests(self, module: BatchedModule, context: WorkerContext) -> List[float]:
        if context.public_dataset is None:
            raise RuntimeError("digest task requires a public dataset in the worker context")
        public = context.public_dataset
        batch = len(self.device_ids)
        spec = self.digests[0]  # planner guarantees identical (epochs, lr, batch_size)
        consensus = [np.asarray(_single_array(item.consensus)) for item in self.digests]
        rngs = [np.random.default_rng(item.seed) for item in self.digests]

        module.train()
        optimizer = BatchedSGD(module.parameters(), batch, lr=spec.lr, momentum=0.9)
        losses: List[List[float]] = [[] for _ in range(batch)]
        indices = np.arange(len(public))
        for _ in range(spec.epochs):
            orders = [rng.permutation(indices) for rng in rngs]
            for start in range(0, len(indices), spec.batch_size):
                chosen = [order[start:start + spec.batch_size] for order in orders]
                images = np.stack([public.images[chosen[b]] for b in range(batch)])
                targets = np.stack([consensus[b][chosen[b]] for b in range(batch)])
                optimizer.zero_grad(set_to_none=False)
                prediction = module(Tensor(images))
                loss_vec = batched_mse_loss(prediction, Tensor(targets))
                # Read after backward below, so pin the (B,) vector against
                # pooled-forward reclaim.
                loss_vec.retain_data()
                loss_vec.sum().backward()
                optimizer.step()
                for b in range(batch):
                    losses[b].append(float(loss_vec.data[b]))
        return [float(np.mean(item)) if item else 0.0 for item in losses]

    # ------------------------------------------------------------------ #
    # Fused local SGD (mirrors trainer.local_sgd_train batch for batch)
    # ------------------------------------------------------------------ #
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
        # The widest batch any step feeds the module sizes the tile.
        samples = min(config.batch_size, max(sizes))
        if self.digests is not None and context.public_dataset is not None:
            samples = max(samples, min(self.digests[0].batch_size,
                                       len(context.public_dataset)))
        batch_shape = (samples,) + shards[0].images.shape[1:]
        # Whether steps are padded, and how wide, is the cohort's property: a
        # tile whose own shards happen to agree still runs the masked loop.
        pad_to = max(sizes) if len(set(sizes)) > 1 else None
        results: List[LocalTrainResult] = []
        for lo, hi in cohort_tiles(template, len(sizes), batch_shape):
            tile = replace(
                self, device_ids=self.device_ids[lo:hi], states=self.states[lo:hi],
                rng_states=self.rng_states[lo:hi],
                anchors=None if self.anchors is None else self.anchors[lo:hi],
                digests=None if self.digests is None else self.digests[lo:hi])
            results.extend(tile._run_stacked(context, pad_to))
        return results

    def _run_stacked(self, context: WorkerContext,
                     pad_to: Optional[int]) -> List[LocalTrainResult]:
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
        module.train()
        optimizer = BatchedSGD(module.parameters(), batch, lr=config.lr,
                               momentum=config.momentum,
                               weight_decay=config.weight_decay)
        losses: List[List[float]] = [[] for _ in range(batch)]
        batch_counts = [0] * batch
        sample_counts = [0] * batch
        if pad_to is None:
            self._train_exact(module, optimizer, shards, rngs, config, anchors,
                              losses, batch_counts, sample_counts)
        else:
            self._train_padded(module, optimizer, shards, rngs, config, anchors,
                               losses, batch_counts, sample_counts, pad_to)

        parameter_count = template.num_parameters()
        results: List[LocalTrainResult] = []
        final_states = module.state_dicts()
        for b, device_id in enumerate(self.device_ids):
            device_losses = losses[b]
            report = LocalTrainingReport(
                device_id=device_id,
                epochs=self.epochs,
                batches=batch_counts[b],
                final_loss=device_losses[-1] if device_losses else 0.0,
                mean_loss=float(np.mean(device_losses)) if device_losses else 0.0,
                samples_seen=sample_counts[b],
                parameter_updates=batch_counts[b] * parameter_count,
            )
            results.append(LocalTrainResult(
                device_id=device_id,
                state=final_states[b],
                report=report,
                rng_state=rngs[b].bit_generator.state,
                digest_loss=digest_losses[b],
            ))
        return results

    def _train_exact(self, module, optimizer, shards, rngs, config, anchors,
                     losses, batch_counts, sample_counts) -> None:
        """Equal-size cohort: the bit-identical fused loop."""
        batch = len(self.device_ids)
        size = len(shards[0])
        base = np.arange(size)
        for _ in range(self.epochs):
            # Each device replays exactly the shuffle DataLoader would draw
            # from its own RNG stream.
            orders = [rng.permutation(base) for rng in rngs]
            for start in range(0, size, config.batch_size):
                chosen = [order[start:start + config.batch_size] for order in orders]
                images = np.stack([shards[b].images[chosen[b]] for b in range(batch)])
                labels = np.stack([shards[b].labels[chosen[b]] for b in range(batch)])
                optimizer.zero_grad(set_to_none=False)
                logits = module(Tensor(images))
                loss_vec = batched_cross_entropy(logits, labels)
                if config.prox_mu > 0 and anchors is not None:
                    loss_vec = loss_vec + batched_l2_proximal(
                        module.parameters(), anchors, mu=config.prox_mu)
                # Summing the (B,) loss vector seeds each device's slice of
                # the backward pass with exactly the serial upstream of 1.
                # The per-device losses are read back after backward, so the
                # vector is pinned against pooled-forward reclaim.
                loss_vec.retain_data()
                loss_vec.sum().backward()
                optimizer.step()
                for b in range(batch):
                    losses[b].append(float(loss_vec.data[b]))
                    batch_counts[b] += 1
                    sample_counts[b] += int(labels.shape[1])

    def _train_padded(self, module, optimizer, shards, rngs, config, anchors,
                      losses, batch_counts, sample_counts, pad_to) -> None:
        """Family cohort with unequal shard sizes: masked padding on the
        sample axis.

        Each device still draws its own shuffle permutation over its own
        shard; a step's stacked batch is padded to the widest member of the
        whole cohort (``pad_to`` is its largest shard, so a tile pads exactly
        as the undivided cohort would) and a 0/1 mask keeps padding rows out
        of the loss (so, for the pad-safe models the planner admits here, out
        of every real gradient).
        Members whose epoch is already exhausted sit out the step entirely:
        their loss contribution is exactly zero and
        :meth:`BatchedSGD.snapshot_slices` / ``restore_slices`` around the
        step keep their parameters and momentum bitwise untouched (a zero
        gradient would still decay momentum).  Numeric policy: the masked
        mean reduces over the padded width, so active members match the
        per-device path to ~1e-9 relative rather than bitwise — the one
        documented fusion deviation (see ``batched_cross_entropy_masked``).
        """
        batch = len(self.device_ids)
        sizes = [len(shard) for shard in shards]
        sample_shape = shards[0].images.shape[1:]
        dtype = shards[0].images.dtype
        for _ in range(self.epochs):
            orders = [rng.permutation(np.arange(size))
                      for rng, size in zip(rngs, sizes)]
            for start in range(0, max(sizes), config.batch_size):
                chosen = [order[start:start + config.batch_size] for order in orders]
                counts = np.array([len(c) for c in chosen], dtype=np.int64)
                active = counts > 0
                width = min(config.batch_size, pad_to - start)
                images = np.zeros((batch, width) + sample_shape, dtype=dtype)
                labels = np.zeros((batch, width), dtype=np.int64)
                for b in range(batch):
                    if counts[b]:
                        images[b, :counts[b]] = shards[b].images[chosen[b]]
                        labels[b, :counts[b]] = shards[b].labels[chosen[b]]
                mask = (np.arange(width)[None, :] < counts[:, None]).astype(np.float64)
                optimizer.zero_grad(set_to_none=False)
                logits = module(Tensor(images))
                loss_vec = batched_cross_entropy_masked(
                    logits, labels, mask, np.maximum(counts, 1))
                if config.prox_mu > 0 and anchors is not None:
                    prox = batched_l2_proximal(module.parameters(), anchors,
                                               mu=config.prox_mu)
                    loss_vec = loss_vec + prox * Tensor(active.astype(np.float64))
                loss_vec.retain_data()
                loss_vec.sum().backward()
                inactive = np.nonzero(~active)[0]
                snapshot = (optimizer.snapshot_slices(inactive)
                            if inactive.size else None)
                optimizer.step()
                if snapshot is not None:
                    optimizer.restore_slices(snapshot)
                for b in range(batch):
                    if active[b]:
                        losses[b].append(float(loss_vec.data[b]))
                        batch_counts[b] += 1
                        sample_counts[b] += int(counts[b])


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
    sweeps; the per-device accuracies are read off the cohort axis with the
    exact chunked float reduction of
    :func:`~repro.federated.trainer.evaluate_accuracy` (per-batch mean, ×
    batch length, summed, / total), so each slice's accuracy is bitwise
    equal to the per-device :class:`~repro.federated.backend.EvaluateTask`.
    """

    def run(self, context: WorkerContext) -> List[float]:
        if context.eval_dataset is None:
            raise RuntimeError("evaluate task requires an eval dataset in the worker context")
        dataset = context.eval_dataset
        batch = len(self.device_ids)
        correct = [0.0] * batch
        total = 0
        evaluator = self._evaluator(context, dataset)
        for start in range(0, len(dataset), self.batch_size):
            labels = dataset.labels[start:start + self.batch_size]
            logits = evaluator.predict(dataset.images[start:start + self.batch_size])
            for b in range(batch):
                correct[b] += accuracy(logits[b], labels) * len(labels)
            total += len(labels)
        return [float(value / total) if total else 0.0 for value in correct]


class FusedPublicLogitsTask(_FusedForwardTask):
    """Compute a cohort's class scores on the public dataset in one sweep
    (FedMD communicate phase); slice ``b`` is bitwise equal to the serial
    :class:`~repro.federated.backend.PublicLogitsTask` output."""

    def run(self, context: WorkerContext) -> List[np.ndarray]:
        if context.public_dataset is None:
            raise RuntimeError("public-logits task requires a public dataset in the worker context")
        dataset = context.public_dataset
        batch = len(self.device_ids)
        evaluator = self._evaluator(context, dataset)
        chunks = [evaluator.predict(dataset.images[start:start + self.batch_size])
                  for start in range(0, len(dataset), self.batch_size)]
        return [np.concatenate([chunk[b] for chunk in chunks], axis=0)
                for b in range(batch)]


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


def plan_cohorts(tasks: Sequence, group_key: Callable[[object], Optional[Hashable]],
                 min_group: int = 2) -> CohortPlan:
    """Group a round's tasks into fused cohorts.

    ``group_key(task)`` returns a hashable fusion key covering the model
    and training-config dimensions, or ``None`` when the task must stay on
    the per-device path (unfusable model, mismatched shard size...).  The
    planner itself folds in the task-level dimensions — epochs, anchor
    presence, digest presence and digest hyperparameters for training
    tasks; eval batch size for the no-grad forward tasks (evaluate /
    public-logits sweeps) — so two tasks fuse only when every knob that
    shapes the work agrees.  Tasks sharing a key are fused when the group
    reaches ``min_group``; each fused task is emitted at its first member's
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
        if key is None or len(members) < min_group:
            plan.tasks.append(task)
            plan.scatter.append([index])
            emitted.add(index)
            continue
        plan.tasks.append(_fuse_group([tasks[i] for i in members]))
        plan.scatter.append(list(members))
        emitted.update(members)
    return plan
