"""The generic federated simulation engine (Algorithm 1, strategy-driven).

One :class:`Simulation` runs *every* algorithm.  It owns the pieces that
are not algorithm-specific — devices, execution backend, round scheduler,
simulated clock state, heterogeneity model, sampler, and the training
history — and delegates the algorithm-specific round phases to a pluggable
:class:`~repro.federated.strategy.Strategy`:

1. ``sample``          — the strategy (default: the sampler) picks the
   round's candidate devices;
2. ``dispatch``        — ``strategy.device_tasks`` packages device-side
   work (local training, FedMD digest+revisit, ...) as picklable tasks
   fanned out through the configured
   :class:`~repro.federated.backend.ExecutionBackend`;
3. ``collect``         — ``strategy.process_result`` absorbs each completed
   task and collects any upload (with scheduler-attached staleness
   metadata);
4. ``aggregate``       — ``strategy.server_update`` runs the central
   computation (FedZKT: Algorithm 3; FedAvg: weighted averaging; FedMD /
   standalone: nothing), staleness-aware when uploads arrive late;
5. ``broadcast``       — ``strategy.broadcast`` delivers per-device
   payloads (Algorithm 1, lines 11–13);
6. ``evaluate``        — the engine evaluates the global model (if the
   strategy has one) and every distinct on-device model once, merges the
   strategy's round metrics, and appends a :class:`RoundRecord` (with
   simulated wall-clock time).

*When* those phases run is the round scheduler's decision
(:mod:`repro.federated.scheduler`): the default
:class:`~repro.federated.scheduler.SynchronousScheduler` replays the
historical lockstep loop bit for bit (pinned by the golden-history
fixtures); ``deadline`` and ``async`` reorder the same phases on a
simulated clock.  Serial and parallel backends remain bit-identical because
each task carries exact parameters and RNG state, and runs on model
replicas its worker owns.

Construct ``Simulation(devices, config, test_dataset, strategy)`` directly
or use the per-algorithm builders (``build_fedzkt``, ``build_fedavg``,
``build_fedmd``, ``build_standalone``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..datasets.base import ImageDataset
from ..nn.batched import fusion_signature
from ..nn.buffers import scratch_pool
from ..utils.serialization import StateStore, state_digest
from .backend import (
    EvaluateTask,
    ExecutionBackend,
    PublicLogitsTask,
    SerialBackend,
    WorkerContext,
    build_worker_context,
)
from .cohort import plan_cohorts
from .config import FederatedConfig
from .device import Device
from .heterogeneity import HeterogeneityModel
from .history import RoundRecord, TrainingHistory
from .sampling import DeviceSampler, UniformSampler
from .scheduler import RoundScheduler, SchedulerState, UploadMeta, make_scheduler
from .strategy import Strategy

__all__ = ["Simulation"]


class Simulation:
    """Run any federated algorithm end to end via its strategy.

    Parameters
    ----------
    devices:
        The federated devices (with their heterogeneous models and shards).
    config:
        Federated configuration (rounds, local epochs, participation,
        server / scheduler / heterogeneity blocks, ...).
    test_dataset:
        Held-out test set used for per-round evaluation.
    strategy:
        The algorithm implementing the round phases (see
        :mod:`repro.federated.strategy`); bound to this engine on
        construction.
    sampler:
        Device sampler; defaults to :class:`UniformSampler` with the
        config's participation fraction.
    evaluate_devices:
        Whether to evaluate every on-device model each round (needed for
        Figs. 5–7; can be disabled to speed up global-model-only studies).
    round_callback:
        Optional hook invoked with each completed :class:`RoundRecord`
        (used by diagnostics such as the Fig. 2 gradient probe).
    backend:
        Execution backend for device-side work; defaults to
        :class:`~repro.federated.backend.SerialBackend`.  A backend passed
        in explicitly is owned by the caller; an internally-created default
        is owned by the simulation and released by :meth:`close` (also
        called on ``with``-block exit).
    scheduler:
        Round scheduler; defaults to the one described by
        ``config.scheduler`` (synchronous unless configured otherwise).
        Must be a kind the strategy declares in ``supports_schedulers``,
        and ``config.server.server_shards > 1`` needs a strategy declaring
        ``supports_server_shards``: the constructor is the one place these
        capabilities are checked.
    heterogeneity:
        Device timing/availability model; defaults to one built from
        ``config.heterogeneity`` and the config seed.
    """

    def __init__(self, devices: Sequence[Device], config: FederatedConfig,
                 test_dataset: ImageDataset, strategy: Strategy,
                 sampler: Optional[DeviceSampler] = None,
                 evaluate_devices: bool = True,
                 round_callback: Optional[Callable[[RoundRecord], None]] = None,
                 backend: Optional[ExecutionBackend] = None,
                 scheduler: Optional[RoundScheduler] = None,
                 heterogeneity: Optional[HeterogeneityModel] = None) -> None:
        if not devices:
            raise ValueError("at least one device is required")
        if not isinstance(strategy, Strategy):
            raise TypeError(f"strategy must be a Strategy instance, got {type(strategy).__name__}")
        self.devices = list(devices)
        self.config = config
        self.test_dataset = test_dataset
        self.strategy = strategy
        self.sampler = sampler or UniformSampler(config.participation_fraction, seed=config.seed)
        self.evaluate_devices = evaluate_devices
        self.round_callback = round_callback
        self.scheduler = scheduler or make_scheduler(config.scheduler)
        kind = getattr(self.scheduler, "name", None)
        if kind is not None and kind not in strategy.supports_schedulers:
            raise ValueError(
                f"strategy {strategy.name!r} does not support the {kind!r} "
                f"scheduler (supported: {', '.join(strategy.supports_schedulers)})")
        if config.server.server_shards > 1 and not strategy.supports_server_shards:
            raise ValueError(
                f"server_shards={config.server.server_shards} requires a strategy "
                f"with a shardable server-side phase, but strategy {strategy.name!r} "
                "does not declare supports_server_shards (only fedzkt's zero-shot "
                "distillation shards through the backend)")
        self._owns_backend = backend is None
        self.backend = backend or SerialBackend()
        self.heterogeneity = heterogeneity or HeterogeneityModel(
            len(self.devices), config.heterogeneity, seed=config.seed)
        self._context: Optional[WorkerContext] = None
        self._round_state: Optional[SchedulerState] = None
        self._fusion_signatures: Dict[int, object] = {}
        self._eval_results: Dict[tuple, float] = {}
        self._closed = False
        strategy.bind(self)
        self.history = TrainingHistory(algorithm=strategy.name, config=config.describe())

    @property
    def server(self) -> Strategy:
        """Another name for :attr:`strategy`, which holds the server state.
        Kept only because the benchmark harness's ``benchmarks/e2e/probe.py``
        and ``benchmarks/e2e/test_harness.py`` read
        ``simulation.server.distiller``; everything else uses :attr:`strategy`."""
        return self.strategy

    @property
    def state_store(self) -> StateStore:
        """The backend's content-addressed state store."""
        return self.backend.state_store

    # ------------------------------------------------------------------ #
    # Backend plumbing and lifetime
    # ------------------------------------------------------------------ #
    def _build_context(self) -> WorkerContext:
        return build_worker_context(self.devices, eval_dataset=self.test_dataset,
                                    public_dataset=self.strategy.public_dataset)

    def ensure_backend(self) -> None:
        """Build the worker context lazily and (re)start the backend with it."""
        if self._context is None:
            self._context = self._build_context()
        self.backend.start(self._context)
        self._closed = False

    def close(self) -> None:
        """Release the execution backend if this simulation created it.

        Idempotent.  Backends passed into the constructor are owned by the
        caller (they may be shared across simulations) and are left running;
        shut those down with ``backend.shutdown()`` or a ``with`` block.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_backend:
            self.backend.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _scheduler_state(self) -> SchedulerState:
        """The persistent per-simulation scheduler state (clock, in-flight
        uploads), shared by ``run`` and ``run_round`` so the two entry
        points can be interleaved without losing in-flight work."""
        if self._round_state is None:
            self._round_state = self.scheduler.initial_state(self)
        return self._round_state

    # ------------------------------------------------------------------ #
    # Round phases (driven by the scheduler, delegated to the strategy)
    # ------------------------------------------------------------------ #
    def device_tasks(self, device_ids: Sequence[int], round_index: int) -> List:
        """Package the round's device-side work (dispatch phase)."""
        return self.strategy.device_tasks(device_ids, round_index)

    # ------------------------------------------------------------------ #
    # Cohort fusion (opt-in via ``config.cohort_fusion``): which device
    # tasks the driver merges into one dispatch unit
    # ------------------------------------------------------------------ #
    def _signature(self, device_id: int):
        """Cached ``fusion_signature`` of a device's model."""
        if device_id not in self._fusion_signatures:
            self._fusion_signatures[device_id] = fusion_signature(
                self.devices[device_id].model)
        return self._fusion_signatures[device_id]

    def _fusion_group_key(self, task):
        """Model/config/shard dimensions of a task's fusion key.

        ``None`` keeps the task on the per-device path.  The planner folds
        in the task-level dimensions (epochs, anchor/digest layout); the
        FedMD digest phase additionally requires all cohort members to
        share the public dataset, which they do by construction (one
        ``public_dataset`` per worker context).

        No-grad forward tasks (evaluate / public-logits sweeps) share every
        batch with every cohort member, so their key is the architecture
        signature alone: shard sizes and training configs never shape the
        fused eval forward.
        """
        device = self.devices[task.device_id]
        signature = self._signature(task.device_id)
        if signature is None:
            return None
        if isinstance(task, (EvaluateTask, PublicLogitsTask)):
            return signature
        return (signature, device.training_config, len(device.dataset))

    def run_device_tasks(self, tasks: Sequence) -> List:
        """Execute device tasks, merging same-key ones into one dispatch unit
        (a :class:`~repro.federated.cohort.Cohort`) when
        ``config.cohort_fusion`` is on.

        Results come back in task order and are indistinguishable from
        per-device execution (the stacked path is bit-identical).
        """
        if not self.config.cohort_fusion:
            return self.backend.run_tasks(tasks)
        plan = plan_cohorts(tasks, self._fusion_group_key)
        return plan.gather(self.backend.run_tasks(plan.tasks))

    def run_device_tasks_as_completed(self, tasks: Sequence):
        """As-completed variant for deadline/async schedulers.

        Yields ``(original_task_index, result)``; a cohort surfaces its
        members when it completes, in member order.
        """
        if not self.config.cohort_fusion:
            yield from self.backend.run_tasks_as_completed(tasks)
            return
        plan = plan_cohorts(tasks, self._fusion_group_key)
        for planned_index, result in self.backend.run_tasks_as_completed(plan.tasks):
            yield from plan.scattered(planned_index, result)

    def advance_round_version(self, round_index: int) -> None:
        """Bump the state store's round version (called by the scheduler at
        the top of every round); entries from rounds before the previous one
        are evicted from the channel.  The autograd scratch pool is trimmed
        on the same cadence: chunks the previous round never touched go, and
        what it did use stays mapped for this round."""
        scratch_pool().enter_round(round_index)
        self.state_store.advance_round(round_index)

    def process_result(self, result, meta: UploadMeta) -> float:
        """Absorb one completed task (collect phase); returns local loss."""
        return self.strategy.process_result(result, meta)

    def aggregate_round(self, round_index: int, device_ids: Sequence[int]) -> None:
        """The strategy's server update over this round's uploads, staleness-aware."""
        self.strategy.server_update(round_index, device_ids)

    def broadcast(self, device_ids: Optional[Sequence[int]] = None) -> None:
        """Deliver server payloads (``None`` = all devices)."""
        self.strategy.broadcast(device_ids)

    def evaluate_round(self, round_index: int, active: Sequence[int],
                       losses: Sequence[float], sim_time: Optional[float] = None,
                       extra_metrics: Optional[Dict[str, float]] = None) -> RoundRecord:
        """Evaluate global + device models and append the round record."""
        record = RoundRecord(round_index=round_index, active_devices=list(active),
                             sim_time=sim_time)
        record.local_loss = float(np.mean(losses)) if losses else None
        record.global_accuracy = self.strategy.evaluate_global(self.test_dataset)
        if self.evaluate_devices:
            self._evaluate_devices(record)
        record.server_metrics = dict(self.strategy.round_metrics())
        if extra_metrics:
            record.server_metrics.update(extra_metrics)
        self.history.append(record)
        if self.round_callback is not None:
            self.round_callback(record)
        return record

    def _eval_key(self, task):
        """``(architecture, state digest, batch size)`` of an evaluate task.

        Equal keys load equal parameters into interchangeable models and
        sweep the test set in equal chunks, so their accuracies are equal
        bit for bit.  A model without a fusion signature stands for itself
        (its device id).
        """
        signature = self._signature(task.device_id)
        return (task.device_id if signature is None else signature,
                task.state.key, task.batch_size)

    def _evaluate_devices(self, record: RoundRecord) -> None:
        """Fill ``record.device_accuracies``, evaluating each distinct key once.

        The round's table starts with the global model's result, which a
        FedAvg broadcast puts on every device, and takes over the previous
        round's entries, so a device nothing touched since is not re-run.
        Duplicate keys collapse to one task; cohort fusion stacks what is
        left.  The table then replaces the previous one, so a result lives
        one round unless it is hit again.
        """
        previous, table = self._eval_results, {}
        global_model = self.strategy.global_model
        if (global_model is not None
                and record.global_accuracy is not None and self._context is not None
                and self._context.eval_dataset is self.test_dataset):
            signature = fusion_signature(global_model)
            # The digest is only worth taking when some device could match it.
            if signature is not None and any(self._signature(device.device_id) == signature
                                             for device in self.devices):
                table[(signature, state_digest(global_model.state_dict()),
                       self.config.batch_size)] = record.global_accuracy
        tasks = [device.evaluate_task(self.state_store) for device in self.devices]
        keys = [self._eval_key(task) for task in tasks]
        pending = {}  # eval key -> task
        for key, task in zip(keys, tasks):
            if key not in table and key in previous:
                table[key] = previous[key]
            if key not in table:
                pending.setdefault(key, task)
        # Same fusion seam as the dispatch phase: with cohort_fusion on, each
        # same-architecture cohort evaluates in one stacked no-grad forward.
        ran = (dict(zip(pending, self.run_device_tasks(list(pending.values()))))
               if pending else {})
        table.update(ran)
        for device, key in zip(self.devices, keys):
            record.device_accuracies[device.device_id] = table[key]
        self._eval_results = table

    # ------------------------------------------------------------------ #
    def run(self, rounds: Optional[int] = None, verbose: bool = False) -> TrainingHistory:
        """Execute ``rounds`` scheduler rounds (defaults to the config)."""
        total_rounds = rounds if rounds is not None else self.config.rounds
        self.ensure_backend()
        self.strategy.on_run_start(total_rounds)
        return self.scheduler.run(self, total_rounds, verbose=verbose,
                                  state=self._scheduler_state())

    def run_round(self, round_index: int) -> RoundRecord:
        """Run a single round through the configured scheduler.

        Scheduler state (simulated clock, in-flight uploads) persists across
        successive ``run_round`` calls on the same simulation.
        """
        return self.scheduler.run_round(self, round_index, self._scheduler_state())
