"""Server-side zero-shot knowledge transfer (Algorithm 3 of the paper).

The :class:`ZeroShotDistiller` owns the generator ``G`` and the global
model ``F`` and performs, each communication round:

1. **Device → global transfer** (adversarial phase): alternate between a
   generator step that *maximizes* the disagreement ``L(F(G(z)), f_ens(G(z)))``
   and a global-model step that *minimizes* it (Eq. 2).
2. **Global → device transfer** (back-transfer phase): reuse the trained
   generator to synthesize inputs and distill the updated global model into
   every on-device model with the KL-divergence loss (Eq. 8).

Both phases can be *sharded* across an
:class:`~repro.federated.backend.ExecutionBackend` (``ServerConfig.
server_shards > 1`` plus :meth:`ZeroShotDistiller.bind_backend`): Phase 1
fans the per-teacher ensemble forward — and, on generator steps, the
backward to the synthesized inputs — out as
:class:`~repro.core.server_tasks.EnsembleForwardTask` /
:class:`~repro.core.server_tasks.EnsembleVJPTask` shards and reduces the
weighted mean on the driver in teacher order; Phase 2 dispatches one
:class:`~repro.core.server_tasks.DeviceDistillTask` per shard of device
models, each consuming identical precomputed synthetic batches.  Shared
payloads travel through the backend's content-addressed state store:
teacher states are published **once per round** (every shard task of every
synthesis iteration then carries a tiny ref, and each worker fetches a
teacher's blob at most once), and per-iteration synthetic batches are
published once, shared across shards, and discarded as soon as their
dispatch completes.  The sharded path is bit-identical to the serial one
(model states, metrics, and gradients), which the parity tests in
``tests/core/test_server_sharding.py`` pin.

The distiller also records the diagnostics the paper reports: per-phase
losses and the norm of the disagreement gradient with respect to the
synthesized inputs (Fig. 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..federated.config import ServerConfig
from ..models.base import ClassificationModel
from ..models.generator import Generator
from ..nn import no_grad
from ..nn.losses import get_distillation_loss
from ..nn.optim import SGD, Adam, MultiStepLR, Optimizer
from ..nn.tensor import Tensor
from .distillation import disagreement_loss, ensemble_mode_for_loss, ensemble_output
from .server_tasks import (
    DeviceDistillTask,
    EnsembleForwardTask,
    EnsembleVJPTask,
    distill_optimizer_state,
    distill_students,
    frozen_parameters,
    load_distill_optimizer_state,
    make_distill_optimizer,
    partition_shards,
)

__all__ = ["ZeroShotDistiller", "DistillationReport"]


class DistillationReport(dict):
    """Metrics of one server update (a plain dict with attribute-style docs).

    Keys
    ----
    ``generator_loss`` / ``global_loss``:
        Mean adversarial losses over the distillation iterations.
    ``transfer_loss``:
        Mean KL back-transfer loss over devices and iterations.
    ``input_gradient_norm``:
        Mean norm of the disagreement gradient w.r.t. the synthesized inputs
        (the quantity plotted in Fig. 2).
    ``parameter_updates``:
        Total parameter-gradient evaluations done by the server this round
        (used by the compute-split ablation).
    """


class ZeroShotDistiller:
    """Implements the ServerUpdate procedure of FedZKT.

    Parameters
    ----------
    global_model:
        The server's global model ``F``.
    generator:
        The server's generative model ``G``.
    config:
        Server hyper-parameters (iterations, batch size, learning rates,
        distillation loss, server shard count).
    seed:
        Seed of the noise-sampling RNG.
    backend:
        Optional execution backend used when ``config.server_shards > 1``;
        usually installed later via :meth:`bind_backend` by the simulation
        engine.  Without a backend the distiller always runs in process.
    cohort_fusion:
        Fuse both phases over same-architecture groups.  Phase 1: shard
        tasks evaluate their same-signature teachers through one stacked
        forward/VJP.  Phase 2 (:func:`~repro.core.server_tasks.distill_students`):
        same-signature device replicas distill in one stacked loop —
        per-device persisted optimizer state rides along as stacked
        momentum (or stacked Adam moments with per-slice step counters).
        Both are bit-identical to the unfused path; heterogeneous models
        fall back per model.
    """

    def __init__(self, global_model: ClassificationModel, generator: Generator,
                 config: ServerConfig, seed: int = 0, backend=None,
                 cohort_fusion: bool = False) -> None:
        self.global_model = global_model
        self.generator = generator
        self.config = config
        self.backend = backend
        self.cohort_fusion = bool(cohort_fusion)
        self._rng = np.random.default_rng(seed)
        self._loss_name = config.distillation_loss
        # Optimizers persist across rounds so momentum/Adam state carries over.
        self.generator_optimizer = Adam(generator.parameters(), lr=config.generator_lr)
        self.global_optimizer = SGD(global_model.parameters(), lr=config.global_lr,
                                    momentum=0.9)
        # Device-distill optimizers persist too (keyed by device id), so the
        # back-transfer momentum carries across rounds instead of silently
        # resetting every server update.
        self._device_optimizers: Dict[int, Tuple[ClassificationModel, Optimizer]] = {}
        self.parameter_updates_total = 0

    # ------------------------------------------------------------------ #
    # Backend plumbing
    # ------------------------------------------------------------------ #
    def bind_backend(self, backend) -> None:
        """Install the execution backend used for sharded server updates."""
        self.backend = backend

    @property
    def sharding_active(self) -> bool:
        """Whether server updates are dispatched through the backend."""
        return self.backend is not None and self.config.shard_server_update

    @property
    def _store(self):
        """The backend's content-addressed state store (None → inline payloads)."""
        return getattr(self.backend, "state_store", None)

    def _publish(self, payload, label: str, ephemerals: List):
        """A shard-task payload: published through the backend's state store
        (tasks then carry a tiny ref; the payload ships at most once per
        worker), or ``payload`` itself for a backend without one.

        A dict is a model state, a list an ordered array list, a bare array
        (synthetic batch, upstream gradient) a list of one.  Published refs
        are collected into ``ephemerals`` and dropped from the channel as
        soon as the tasks that referenced them have completed — per-iteration
        synthetic batches would otherwise accumulate for a whole round.
        """
        store = self._store
        if store is None:
            return payload
        if isinstance(payload, dict):
            ref = store.put_state(payload, label=label)
        else:
            ref = store.put_arrays([payload] if isinstance(payload, np.ndarray) else payload,
                                   label=label)
        ephemerals.append(ref)
        return ref

    def _drain(self, ephemerals: List) -> None:
        store = self._store
        if store is not None and ephemerals:
            store.discard(list(ephemerals))
        ephemerals.clear()

    def device_optimizer_for(self, device_id: int,
                             model: ClassificationModel) -> Optimizer:
        """The persistent back-transfer optimizer for a device model.

        Created lazily per ``config.device_distill_optimizer`` (SGD with
        momentum 0.9, or Adam); recreated only when the model object for
        the id changes (the optimizer holds references to the model's
        parameter tensors).
        """
        cached = self._device_optimizers.get(device_id)
        if cached is None or cached[0] is not model:
            optimizer = make_distill_optimizer(
                model, self.config.device_distill_lr, 0.9,
                self.config.device_distill_optimizer)
            self._device_optimizers[device_id] = (model, optimizer)
            return optimizer
        return cached[1]

    # ------------------------------------------------------------------ #
    # Phase 1: device knowledge -> global model (adversarial game, Eq. 2)
    # ------------------------------------------------------------------ #
    def adversarial_distillation(self, teachers: Sequence[ClassificationModel],
                                 iterations: Optional[int] = None,
                                 teacher_ids: Optional[Sequence[int]] = None) -> DistillationReport:
        """Alternate generator (max) and global model (min) steps.

        ``teacher_ids`` keys the teachers into the backend's worker context
        for the sharded path; without ids (or without a bound backend) the
        phase runs in process.
        """
        if not teachers:
            raise ValueError("adversarial distillation requires at least one teacher")
        iterations = iterations if iterations is not None else self.config.distillation_iterations
        sharded = self.sharding_active and teacher_ids is not None
        generator_losses: List[float] = []
        global_losses: List[float] = []
        input_grad_norms: List[float] = []
        updates = 0

        gen_scheduler = self._make_scheduler(self.generator_optimizer, iterations,
                                             self.config.generator_lr)
        glob_scheduler = self._make_scheduler(self.global_optimizer, iterations,
                                              self.config.global_lr)

        for teacher in teachers:
            teacher.eval()
        self.global_model.train()
        self.generator.train()

        mode = ensemble_mode_for_loss(self._loss_name)
        loss_fn = get_distillation_loss(self._loss_name)
        weights = [1.0 / len(teachers)] * len(teachers)
        if sharded:
            # Teachers are frozen throughout the adversarial phase, so
            # snapshot their states once and publish them once into the
            # state store: every forward/VJP shard task of every synthesis
            # iteration then carries a tiny ref, and each worker fetches a
            # teacher's blob at most once for the whole round.  phase_refs
            # live until the phase ends; iteration_refs (synthetic batches,
            # upstream gradients) are dropped as soon as the next iteration
            # starts.
            teacher_ids = list(teacher_ids)
            snapshots = [teacher.state_dict() for teacher in teachers]
            phase_refs: List = []
            iteration_refs: List = []
            shipped_states = [self._publish(state, "teacher", phase_refs)
                              for state in snapshots]
            shards = partition_shards(list(range(len(teachers))), self.config.server_shards)

        steps_per_generator = max(1, int(self.config.global_steps_per_generator_step))

        for iteration in range(iterations):
            if sharded:
                # Previous iteration's synthetic batches / upstream payloads
                # are done with: drop them from the channel.
                self._drain(iteration_refs)
            # ---- Generator step: maximize the disagreement -------------------
            # Run every ``steps_per_generator`` iterations; with the paper's
            # literal 1:1 alternation set the config knob to 1.
            if iteration % steps_per_generator == 0:
                noise = self.generator.sample_noise(self.config.batch_size, self._rng)
                synthetic = self.generator(noise)
                # The input-gradient norm below reads this intermediate's
                # gradient after backward; keep it through buffer reclaim.
                synthetic.retain_grad()
                # Only the generator steps here: F's and the teachers' weight
                # gradients would be computed and thrown away (the sharded
                # path's ``EnsembleVJPTask`` skips them the same way).
                with frozen_parameters([self.global_model, *teachers]):
                    if sharded:
                        # Same op order as disagreement_loss: student branch
                        # first, then the ensemble branch (here a
                        # backend-backed graph node).
                        student_logits = self.global_model(synthetic)
                        teacher_out = self._sharded_ensemble_node(
                            synthetic, teacher_ids, shipped_states, weights, mode,
                            shards, iteration_refs)
                        loss = loss_fn(student_logits, teacher_out)
                    else:
                        loss = disagreement_loss(self.global_model, teachers,
                                                 synthetic, self._loss_name)
                    generator_loss = loss * -1.0
                    # ``loss`` is an interior node of the graph backward is
                    # about to walk, which gives its storage back: read it now.
                    generator_losses.append(loss.item())
                    self.generator_optimizer.zero_grad(set_to_none=False)
                    generator_loss.backward()
                if synthetic.grad is not None:
                    input_grad_norms.append(float(np.linalg.norm(synthetic.grad)))
                self.generator_optimizer.step()
                updates += self._count_parameters(self.generator)

            # ---- Global-model step: minimize the disagreement ----------------
            noise = self.generator.sample_noise(self.config.batch_size, self._rng)
            with no_grad():
                synthetic = self.generator(noise)
                if not sharded:
                    teacher_out = ensemble_output(teachers, synthetic, mode=mode)
            if sharded:
                members = self._sharded_members(
                    teacher_ids, shipped_states,
                    self._publish(synthetic.data, "batch", iteration_refs),
                    mode, shards)
                teacher_data = self._reduce_members(members, weights)
            else:
                teacher_data = teacher_out.data
            student_logits = self.global_model(Tensor(synthetic.data))
            global_loss = loss_fn(student_logits, Tensor(teacher_data))
            self.global_optimizer.zero_grad(set_to_none=False)
            global_loss.backward()
            self.global_optimizer.step()
            global_losses.append(global_loss.item())
            updates += self._count_parameters(self.global_model)

            gen_scheduler.step()
            glob_scheduler.step()

        if sharded:
            self._drain(iteration_refs)
            self._drain(phase_refs)
        self.parameter_updates_total += updates
        return DistillationReport(
            generator_loss=float(np.mean(generator_losses)) if generator_losses else 0.0,
            global_loss=float(np.mean(global_losses)) if global_losses else 0.0,
            input_gradient_norm=float(np.mean(input_grad_norms)) if input_grad_norms else 0.0,
            parameter_updates=updates,
        )

    # ------------------------------------------------------------------ #
    # Sharded Phase-1 helpers
    # ------------------------------------------------------------------ #
    def _sharded_members(self, teacher_ids: List[int], shipped_states: List,
                         inputs, mode: str,
                         shards: List[List[int]]) -> List[np.ndarray]:
        """Unweighted member outputs of every teacher, in teacher order.

        ``inputs`` is a prepared payload — a state-store ref (published
        once, shared by every shard task and fetched at most once per
        worker), or the raw batch for a backend without a store.
        """
        tasks = [EnsembleForwardTask(device_ids=[teacher_ids[i] for i in shard],
                                     states=[shipped_states[i] for i in shard],
                                     inputs=inputs, mode=mode,
                                     fuse=self.cohort_fusion)
                 for shard in shards]
        results = self.backend.run_tasks(tasks)
        return [member for shard_members in results for member in shard_members]

    @staticmethod
    def _reduce_members(members: List[np.ndarray], weights: List[float]) -> np.ndarray:
        """Weighted mean over members with the serial loop's exact reduction
        order/association (term-by-term, ascending teacher index)."""
        total: Optional[np.ndarray] = None
        for member, weight in zip(members, weights):
            term = member * float(weight)
            total = term if total is None else total + term
        return total

    def _sharded_ensemble_node(self, x: Tensor, teacher_ids: List[int],
                               shipped_states: List, weights: List[float],
                               mode: str, shards: List[List[int]],
                               ephemerals: List) -> Tensor:
        """Backend-backed ensemble output wired into the autograd graph.

        Forward fans member evaluation out as :class:`EnsembleForwardTask`
        shards; backward fans the input-gradient computation out as
        :class:`EnsembleVJPTask` shards and accumulates the per-teacher
        contributions into ``x.grad`` in ascending teacher order — the same
        order the serial graph's reversed topological sort produces — so
        the generator step is bit-identical to the in-process path.  The
        synthesized inputs and the upstream gradient are published once
        into ``ephemerals`` (dropped by the caller after the backward).
        """
        shared_inputs = self._publish(x.data, "batch", ephemerals)
        members = self._sharded_members(teacher_ids, shipped_states, shared_inputs,
                                        mode, shards)
        total = self._reduce_members(members, weights)
        backend = self.backend

        def factory(out: Tensor):
            def backward() -> None:
                if not x.requires_grad:
                    return
                upstream = self._publish(np.asarray(out.grad, dtype=np.float64),
                                         "batch", ephemerals)
                tasks = [EnsembleVJPTask(device_ids=[teacher_ids[i] for i in shard],
                                         states=[shipped_states[i] for i in shard],
                                         weights=[weights[i] for i in shard],
                                         inputs=shared_inputs, upstream=upstream,
                                         mode=mode, fuse=self.cohort_fusion)
                         for shard in shards]
                for shard_grads in backend.run_tasks(tasks):
                    for grad in shard_grads:
                        x._accumulate(grad)

            return backward

        return Tensor._make(np.asarray(total), (x,), factory)

    # ------------------------------------------------------------------ #
    # Phase 2: global model -> on-device models (Eq. 8)
    # ------------------------------------------------------------------ #
    def transfer_to_devices(self, device_models: Dict[int, ClassificationModel],
                            iterations: Optional[int] = None) -> DistillationReport:
        """Distill the global model back into every on-device model."""
        if not device_models:
            raise ValueError("transfer requires at least one device model")
        iterations = iterations if iterations is not None else self.config.effective_transfer_iterations

        self.global_model.eval()
        self.generator.eval()
        optimizers = {
            device_id: self.device_optimizer_for(device_id, model)
            for device_id, model in device_models.items()
        }
        for model in device_models.values():
            model.train()

        # Every student consumes the same precomputed batches, in process or
        # sharded: the one distill body (``server_tasks.distill_students``)
        # runs here on the live models and their persistent optimizers, or in
        # a ``DeviceDistillTask`` per shard on borrowed replicas.
        batches, targets = self._synthesize_batches(iterations)
        if self.sharding_active:
            losses_by_device = self._transfer_sharded(device_models, optimizers,
                                                      batches, targets)
        else:
            losses_by_device = dict(zip(device_models, distill_students(
                [(model, optimizers[device_id])
                 for device_id, model in device_models.items()],
                batches, targets, self.config.device_distill_lr, 0.9,
                self.config.device_distill_optimizer, fuse=self.cohort_fusion)))
        # Reassemble iteration-major so ``transfer_loss`` reduces in the
        # historical interleaved (iteration, device) order.
        transfer_losses = [losses_by_device[device_id][iteration]
                           for iteration in range(iterations)
                           for device_id in device_models]
        updates = iterations * sum(self._count_parameters(model)
                                   for model in device_models.values())

        self.global_model.train()
        self.generator.train()
        self.parameter_updates_total += updates
        return DistillationReport(
            transfer_loss=float(np.mean(transfer_losses)) if transfer_losses else 0.0,
            parameter_updates=updates,
        )

    def _synthesize_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """One synthetic input batch and its global-model soft targets."""
        noise = self.generator.sample_noise(self.config.batch_size, self._rng)
        with no_grad():
            synthetic = self.generator(noise)
            teacher_probs = self.global_model(synthetic).softmax(axis=-1)
        return synthetic.data, teacher_probs.data

    def _synthesize_batches(self, iterations: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Precompute every iteration's synthetic batch and soft targets.

        The distill loops consume no driver RNG, so synthesizing up front
        draws the exact noise sequence the historical interleaved loop drew
        — batches are bit-identical, and sharing them across devices,
        shards, and fused groups needs no further care.
        """
        batches: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for _ in range(iterations):
            batch, target = self._synthesize_batch()
            batches.append(batch)
            targets.append(target)
        return batches, targets

    def _transfer_sharded(self, device_models: Dict[int, ClassificationModel],
                          optimizers: Dict[int, Optimizer],
                          batches: List[np.ndarray],
                          targets: List[np.ndarray]) -> Dict[int, List[float]]:
        """Backend-sharded Phase 2: one distill task per shard of devices;
        returns each device's per-iteration losses."""
        shards = partition_shards(list(device_models), self.config.server_shards)
        # Publish the *shared* batch/target payloads once into the state
        # store (every shard task carries the same ref; each worker fetches
        # at most once), ephemeral and dropped after the dispatch.  The
        # per-device states and momentum buffers stay inline: each is
        # referenced by exactly one shard task, and for singly-referenced
        # payloads publish-then-fetch would ship ~2x the bytes of an inline
        # copy.  In-process backends store live objects (nothing is encoded).
        ephemerals: List = []
        shared_inputs = self._publish(batches, "batch", ephemerals)
        shared_targets = self._publish(targets, "batch", ephemerals)
        tasks = [DeviceDistillTask(
            device_ids=list(shard),
            states=[device_models[device_id].state_dict() for device_id in shard],
            velocities=[distill_optimizer_state(optimizers[device_id])
                        for device_id in shard],
            inputs=shared_inputs, targets=shared_targets,
            lr=self.config.device_distill_lr, momentum=0.9,
            optimizer=self.config.device_distill_optimizer,
            fuse=self.cohort_fusion,
        ) for shard in shards]
        results = self.backend.run_tasks(tasks)

        losses_by_device: Dict[int, List[float]] = {}
        for result in results:
            for index, device_id in enumerate(result.device_ids):
                device_models[device_id].load_state_dict(result.states[index])
                load_distill_optimizer_state(optimizers[device_id],
                                             result.velocities[index])
                losses_by_device[device_id] = result.losses[index]

        self._drain(ephemerals)
        return losses_by_device

    # ------------------------------------------------------------------ #
    # Full server update (Algorithm 3)
    # ------------------------------------------------------------------ #
    def server_update(self, device_models: Dict[int, ClassificationModel]) -> DistillationReport:
        """Run both phases and return the merged metrics."""
        teachers = list(device_models.values())
        phase1 = self.adversarial_distillation(teachers,
                                               teacher_ids=list(device_models.keys()))
        phase2 = self.transfer_to_devices(device_models)
        return DistillationReport(
            generator_loss=phase1["generator_loss"],
            global_loss=phase1["global_loss"],
            input_gradient_norm=phase1["input_gradient_norm"],
            transfer_loss=phase2["transfer_loss"],
            parameter_updates=phase1["parameter_updates"] + phase2["parameter_updates"],
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _make_scheduler(self, optimizer, iterations: int, base_lr: float) -> MultiStepLR:
        optimizer.lr = base_lr
        milestones = [max(1, int(iterations * fraction))
                      for fraction in self.config.lr_decay_milestones]
        scheduler = MultiStepLR(optimizer, milestones=milestones, gamma=self.config.lr_decay_gamma)
        scheduler.base_lr = base_lr
        return scheduler

    @staticmethod
    def _count_parameters(model) -> int:
        return int(model.num_parameters()) if hasattr(model, "num_parameters") else 0
