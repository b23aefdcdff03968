"""Server-side zero-shot knowledge transfer (Algorithm 3 of the paper).

The :class:`ZeroShotDistiller` owns the generator ``G`` and the global
model ``F`` and performs, each communication round:

1. **Device → global transfer** (adversarial phase): alternate between a
   generator step that *maximizes* the disagreement ``L(F(G(z)), f_ens(G(z)))``
   and a global-model step that *minimizes* it (Eq. 2).
2. **Global → device transfer** (back-transfer phase): reuse the trained
   generator to synthesize inputs and distill the updated global model into
   every on-device model with the KL-divergence loss (Eq. 8).

Both phases run as shard tasks on an
:class:`~repro.federated.backend.ExecutionBackend` (installed by
:meth:`ZeroShotDistiller.bind_backend`; ``ServerConfig.server_shards`` is
how many shards each dispatch splits into, and ``1`` is one task).  Phase 1
fans the per-teacher ensemble forward — and, on generator steps, the
backward to the synthesized inputs — out as
:class:`~repro.core.server_tasks.EnsembleForwardTask` /
:class:`~repro.core.server_tasks.EnsembleVJPTask` shards and reduces the
weighted mean on the driver in teacher order; Phase 2 dispatches one
:class:`~repro.core.server_tasks.DeviceDistillTask` per shard of device
models, each consuming identical precomputed synthetic batches.  Inside
every shard task, a group of two or more same-signature models runs as
stacked tiles and everything else one model at a time, whatever
``FederatedConfig.cohort_fusion`` says (that flag only groups device tasks
for dispatch).  Shared
payloads travel through the backend's content-addressed state store:
teacher states are published **once per round** (every shard task of every
synthesis iteration then carries a tiny ref, and each worker fetches a
teacher's blob at most once), and per-iteration synthetic batches are
published once, shared across shards, and discarded as soon as their
dispatch completes.  Every shard count on every backend produces the same
bits, which ``tests/core/test_server_sharding.py`` pins against a reference
written from :func:`~repro.core.distillation.disagreement_loss` /
:func:`~repro.core.distillation.ensemble_output` on live models.

The distiller also records the diagnostics the paper reports: per-phase
losses and the norm of the disagreement gradient with respect to the
synthesized inputs (Fig. 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..federated.backend import ExecutionBackend, SerialBackend, WorkerContext
from ..federated.config import ServerConfig
from ..models.base import ClassificationModel
from ..models.generator import Generator
from ..nn import no_grad
from ..nn.losses import get_distillation_loss
from ..nn.optim import SGD, Adam, MultiStepLR
from ..nn.tensor import Tensor
from .distillation import ensemble_mode_for_loss
from .server_tasks import (
    DeviceDistillTask,
    EnsembleForwardTask,
    EnsembleVJPTask,
    frozen_parameters,
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

    Inside every shard task, same-architecture models stack: Phase 1's
    same-signature teachers run one stacked forward/VJP, and Phase 2's
    same-signature device replicas distill in one stacked loop with their
    persisted momentum stacked into one :class:`~repro.nn.batched.BatchedSGD`
    (:mod:`repro.core.server_tasks`).  Both are bit-identical to the
    per-model path, which singletons, unfusable models and tiles of one
    take.
    """

    def __init__(self, global_model: ClassificationModel, generator: Generator,
                 config: ServerConfig, seed: int = 0) -> None:
        self.global_model = global_model
        self.generator = generator
        self.config = config
        self.backend: Optional[ExecutionBackend] = None
        self._rng = np.random.default_rng(seed)
        self._loss_name = config.distillation_loss
        # Optimizers persist across rounds so momentum/Adam state carries over.
        self.generator_optimizer = Adam(generator.parameters(), lr=config.generator_lr)
        self.global_optimizer = SGD(global_model.parameters(), lr=config.global_lr,
                                    momentum=0.9)
        # Each device's back-transfer SGD momentum (one array per parameter,
        # keyed by device id) persists too, so it carries across rounds
        # instead of silently resetting every server update.
        self.device_momentum: Dict[int, List[np.ndarray]] = {}
        self.parameter_updates_total = 0

    # ------------------------------------------------------------------ #
    # Backend plumbing
    # ------------------------------------------------------------------ #
    def bind_backend(self, backend: ExecutionBackend) -> None:
        """Install the execution backend both phases dispatch their shard
        tasks through (its worker context holds a replica per device id)."""
        self.backend = backend

    def _backend_for(self, models: Dict[int, ClassificationModel]) -> ExecutionBackend:
        """The bound backend; a distiller used without a simulation runs its
        tasks on a private :class:`SerialBackend` whose context replicas are
        ``models`` themselves (tasks restore what they borrow)."""
        if self.backend is not None:
            return self.backend
        backend = SerialBackend()
        backend.start(WorkerContext(models=dict(models)))
        return backend

    @staticmethod
    def _publish(backend: ExecutionBackend, payload, label: str, ephemerals: List):
        """A shard-task payload, published through the backend's state store
        (tasks then carry a tiny ref; the payload ships at most once per
        worker).

        A dict is a model state, a list an ordered array list, a bare array
        (synthetic batch, upstream gradient) a list of one.  Published refs
        are collected into ``ephemerals`` and dropped from the channel as
        soon as the tasks that referenced them have completed — per-iteration
        synthetic batches would otherwise accumulate for a whole round.
        """
        store = backend.state_store
        if isinstance(payload, dict):
            ref = store.put_state(payload, label=label)
        else:
            ref = store.put_arrays([payload] if isinstance(payload, np.ndarray) else payload,
                                   label=label)
        ephemerals.append(ref)
        return ref

    @staticmethod
    def _drain(backend: ExecutionBackend, ephemerals: List) -> None:
        if ephemerals:
            backend.state_store.discard(list(ephemerals))
        ephemerals.clear()

    # ------------------------------------------------------------------ #
    # Phase 1: device knowledge -> global model (adversarial game, Eq. 2)
    # ------------------------------------------------------------------ #
    def adversarial_distillation(self, teachers: Dict[int, ClassificationModel],
                                 iterations: Optional[int] = None) -> DistillationReport:
        """Alternate generator (max) and global model (min) steps against the
        ensemble of ``teachers`` (device id -> model; the id keys each
        teacher's replica in the backend's worker context)."""
        if not teachers:
            raise ValueError("adversarial distillation requires at least one teacher")
        iterations = iterations if iterations is not None else self.config.distillation_iterations
        backend = self._backend_for(teachers)
        generator_losses: List[float] = []
        global_losses: List[float] = []
        input_grad_norms: List[float] = []
        updates = 0

        gen_scheduler = self._make_scheduler(self.generator_optimizer, iterations,
                                             self.config.generator_lr)
        glob_scheduler = self._make_scheduler(self.global_optimizer, iterations,
                                              self.config.global_lr)
        self.global_model.train()
        self.generator.train()

        mode = ensemble_mode_for_loss(self._loss_name)
        loss_fn = get_distillation_loss(self._loss_name)
        # Teachers are frozen throughout the adversarial phase, so snapshot
        # their states once and publish them once into the state store: every
        # forward/VJP shard task of every synthesis iteration then carries a
        # tiny ref, and each worker fetches a teacher's blob at most once for
        # the whole round.  phase_refs live until the phase ends;
        # iteration_refs (synthetic batches, upstream gradients) are dropped
        # as soon as the next iteration starts.
        phase_refs: List = []
        iteration_refs: List = []
        shipped = [(device_id, self._publish(backend, model.state_dict(), "teacher", phase_refs),
                    1.0 / len(teachers)) for device_id, model in teachers.items()]
        # Each shard as its teachers' ids, published states and weights.
        shards = [[list(column) for column in zip(*shard)]
                  for shard in partition_shards(shipped, self.config.server_shards)]
        steps_per_generator = max(1, int(self.config.global_steps_per_generator_step))

        for iteration in range(iterations):
            # Previous iteration's synthetic batches / upstream payloads are
            # done with: drop them from the channel.
            self._drain(backend, iteration_refs)
            # ---- Generator step: maximize the disagreement -------------------
            # Run every ``steps_per_generator`` iterations; with the paper's
            # literal 1:1 alternation set the config knob to 1.
            if iteration % steps_per_generator == 0:
                noise = self.generator.sample_noise(self.config.batch_size, self._rng)
                synthetic = self.generator(noise)
                # The input-gradient norm below reads this intermediate's
                # gradient after backward; keep it through buffer reclaim.
                synthetic.retain_grad()
                # Only the generator steps here: F's weight gradients would be
                # computed and thrown away (``EnsembleVJPTask`` skips the
                # teachers' the same way).
                with frozen_parameters([self.global_model]):
                    # Same op order as ``disagreement_loss``: student branch
                    # first, then the ensemble branch (a backend-backed node).
                    student_logits = self.global_model(synthetic)
                    teacher_out = self._ensemble_node(backend, synthetic, shards, mode,
                                                      iteration_refs)
                    loss = loss_fn(student_logits, teacher_out)
                    generator_loss = loss * -1.0
                    # ``loss`` is an interior node of the graph backward is
                    # about to walk, which gives its storage back: read it now.
                    generator_losses.append(loss.item())
                    self.generator_optimizer.zero_grad(set_to_none=False)
                    generator_loss.backward()
                if synthetic.grad is not None:
                    input_grad_norms.append(float(np.linalg.norm(synthetic.grad)))
                self.generator_optimizer.step()
                updates += self.generator.num_parameters()

            # ---- Global-model step: minimize the disagreement ----------------
            noise = self.generator.sample_noise(self.config.batch_size, self._rng)
            with no_grad():
                synthetic = self.generator(noise)
            teacher_data = self._ensemble(
                backend, self._publish(backend, synthetic.data, "batch", iteration_refs),
                shards, mode)
            student_logits = self.global_model(Tensor(synthetic.data))
            global_loss = loss_fn(student_logits, Tensor(teacher_data))
            self.global_optimizer.zero_grad(set_to_none=False)
            global_loss.backward()
            self.global_optimizer.step()
            global_losses.append(global_loss.item())
            updates += self.global_model.num_parameters()

            gen_scheduler.step()
            glob_scheduler.step()

        self._drain(backend, iteration_refs)
        self._drain(backend, phase_refs)
        self.parameter_updates_total += updates
        return DistillationReport(
            generator_loss=float(np.mean(generator_losses)) if generator_losses else 0.0,
            global_loss=float(np.mean(global_losses)) if global_losses else 0.0,
            input_gradient_norm=float(np.mean(input_grad_norms)) if input_grad_norms else 0.0,
            parameter_updates=updates,
        )

    # ------------------------------------------------------------------ #
    # Phase-1 helpers
    # ------------------------------------------------------------------ #
    def _ensemble(self, backend: ExecutionBackend, inputs, shards: List[tuple],
                  mode: str) -> np.ndarray:
        """The weighted ensemble output on ``inputs`` (a state-store ref,
        published once, shared by every shard task and fetched at most once
        per worker), reduced term by term in ascending teacher order — the
        association of :func:`~repro.core.distillation.ensemble_output`."""
        tasks = [EnsembleForwardTask(ids, states, inputs, mode=mode)
                 for ids, states, _ in shards]
        weights = [weight for _, _, shard_weights in shards for weight in shard_weights]
        members = [member for shard_members in backend.run_tasks(tasks)
                   for member in shard_members]
        total: Optional[np.ndarray] = None
        for member, weight in zip(members, weights):
            term = member * float(weight)
            total = term if total is None else total + term
        return total

    def _ensemble_node(self, backend: ExecutionBackend, x: Tensor,
                       shards: List[tuple], mode: str, ephemerals: List) -> Tensor:
        """Backend-backed ensemble output wired into the autograd graph.

        Forward fans member evaluation out as :class:`EnsembleForwardTask`
        shards; backward fans the input-gradient computation out as
        :class:`EnsembleVJPTask` shards and accumulates the per-teacher
        contributions into ``x.grad`` in ascending teacher order — the same
        order the reversed topological sort of ``disagreement_loss``'s graph
        produces.  The synthesized inputs and the upstream gradient are
        published once into ``ephemerals`` (dropped by the caller after the
        backward).
        """
        shared_inputs = self._publish(backend, x.data, "batch", ephemerals)
        total = self._ensemble(backend, shared_inputs, shards, mode)

        def factory(out: Tensor):
            def backward() -> None:
                if not x.requires_grad:
                    return
                upstream = self._publish(backend, np.asarray(out.grad, dtype=np.float64),
                                         "batch", ephemerals)
                tasks = [EnsembleVJPTask(ids, states, weights, shared_inputs, upstream,
                                         mode=mode)
                         for ids, states, weights in shards]
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
        """Distill the global model back into every on-device model: one
        :class:`DeviceDistillTask` per shard of devices, every task consuming
        the same precomputed synthetic batches."""
        if not device_models:
            raise ValueError("transfer requires at least one device model")
        iterations = iterations if iterations is not None else self.config.effective_transfer_iterations
        backend = self._backend_for(device_models)

        self.global_model.eval()
        self.generator.eval()
        for device_id, model in device_models.items():
            # A never-stepped SGD's momentum: zeros in the parameter's dtype.
            if device_id not in self.device_momentum:
                self.device_momentum[device_id] = [np.zeros_like(param.data)
                                                   for param in model.parameters()]
        batches, targets = self._synthesize_batches(iterations)
        # Publish the *shared* batch/target payloads once into the state
        # store (every shard task carries the same ref; each worker fetches
        # at most once), ephemeral and dropped after the dispatch.  The
        # per-device states and momentum buffers stay inline: each is
        # referenced by exactly one shard task, and for singly-referenced
        # payloads publish-then-fetch would ship ~2x the bytes of an inline
        # copy.  In-process backends store live objects (nothing is encoded).
        ephemerals: List = []
        shared_inputs = self._publish(backend, batches, "batch", ephemerals)
        shared_targets = self._publish(backend, targets, "batch", ephemerals)
        tasks = [DeviceDistillTask(
            device_ids=list(shard),
            states=[device_models[device_id].state_dict() for device_id in shard],
            velocities=[self.device_momentum[device_id] for device_id in shard],
            inputs=shared_inputs, targets=shared_targets,
            lr=self.config.device_distill_lr, momentum=0.9,
        ) for shard in partition_shards(device_models, self.config.server_shards)]

        losses_by_device: Dict[int, List[float]] = {}
        for result in backend.run_tasks(tasks):
            for index, device_id in enumerate(result.device_ids):
                device_models[device_id].load_state_dict(result.states[index])
                self.device_momentum[device_id] = result.velocities[index]
                losses_by_device[device_id] = result.losses[index]
        self._drain(backend, ephemerals)

        # Reassemble iteration-major so ``transfer_loss`` reduces in the
        # historical interleaved (iteration, device) order.
        transfer_losses = [losses_by_device[device_id][iteration]
                           for iteration in range(iterations)
                           for device_id in device_models]
        updates = iterations * sum(model.num_parameters()
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
        shards, and stacked tiles needs no further care.
        """
        batches: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for _ in range(iterations):
            batch, target = self._synthesize_batch()
            batches.append(batch)
            targets.append(target)
        return batches, targets

    # ------------------------------------------------------------------ #
    # Full server update (Algorithm 3)
    # ------------------------------------------------------------------ #
    def server_update(self, device_models: Dict[int, ClassificationModel]) -> DistillationReport:
        """Run both phases and return the merged metrics."""
        phase1 = self.adversarial_distillation(device_models)
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
        return MultiStepLR(optimizer, milestones=milestones, gamma=self.config.lr_decay_gamma)
