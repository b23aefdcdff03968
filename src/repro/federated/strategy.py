"""The ``Strategy`` protocol: one object per federated algorithm.

The paper's contribution (FedZKT) is *one algorithm among peers* — its
experiments compare against FedAvg, FedMD, and standalone training.  One
generic :class:`~repro.federated.simulation.Simulation` engine owns the
devices, execution backend, round scheduler, simulated clock, and training
history, and delegates everything algorithm-specific to a
:class:`Strategy` — the same shape Flower's ``Strategy`` abstraction uses
over its generic simulation engine.  An algorithm's server state (global
model, replicas, generator, payloads) lives on its strategy: the strategy
*is* the server.

Hook order for one scheduler round (``S`` = strategy hook, ``E`` = engine)::

    run()                                  run_round()
      E ensure_backend                       S on_round_start(round_index)
      S on_run_start(total_rounds)             E/S sample(round_index)
      loop: run_round(...)  ────────────▶      S device_tasks(ids, round)     (dispatch)
                                               S process_result(result, meta) (collect, per upload)
                                               S aggregate(round, ids, meta)
                                                 └─ S server_update(...)      (overridable core)
                                               S broadcast(ids)
                                               E evaluate_round               (evaluate)
                                                 ├─ S evaluate_global(test)
                                                 └─ S round_metrics()
                                             S on_round_end(record)

The scheduler decides *when* each phase runs on the simulated clock
(synchronous lockstep, deadline-bounded, or async buffered); the strategy
decides *what* each phase does.  The capability declarations
(:attr:`Strategy.supports_schedulers`, :attr:`Strategy.supports_server_shards`,
:attr:`Strategy.uses_public_dataset`) are checked in one place, when a
``Simulation`` is constructed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .scheduler import UploadMeta
from .trainer import evaluate_accuracy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..datasets.base import ImageDataset
    from ..models.base import ClassificationModel
    from .history import RoundRecord
    from .simulation import Simulation

__all__ = ["GLOBAL_EVAL_BATCH_SIZE", "Strategy", "ParameterServerStrategy"]

#: Batch size of the global model's evaluation sweep.
GLOBAL_EVAL_BATCH_SIZE = 256


class Strategy:
    """Base class for federated algorithm strategies.

    A strategy is bound to exactly one
    :class:`~repro.federated.simulation.Simulation` (via :meth:`bind`) and
    implements the algorithm-specific round phases the engine delegates to.
    Subclasses override the phase hooks they need; the defaults describe an
    algorithm that trains devices locally and exchanges nothing.

    Class-level capability declarations (checked by ``Simulation`` and
    listed by ``repro list``):

    ``supports_schedulers``
        Round-scheduler kinds this strategy's round structure tolerates.
        Strategies that need every active upload before aggregation declare
        ``("sync",)``; strategies whose aggregation tolerates partial or
        reordered uploads include ``"deadline"`` / ``"async"``.
    ``supports_server_shards``
        Whether the strategy has a server-side computation that can shard
        through the execution backend (``ServerConfig.server_shards``).
    ``uses_public_dataset``
        Whether the strategy requires a shared public dataset (FedMD).
    """

    #: Name of the strategy (also recorded as the history's ``algorithm``);
    #: instances may override the class attribute.
    name = "base"

    supports_schedulers: Sequence[str] = ("sync", "deadline", "async")
    supports_server_shards = False
    uses_public_dataset = False

    #: The server's global model ``F``, if the algorithm maintains one.
    global_model: Optional["ClassificationModel"] = None

    #: The shared public dataset, if the algorithm uses one (shipped to
    #: workers inside the :class:`~repro.federated.backend.WorkerContext`).
    public_dataset = None

    def __init__(self) -> None:
        self.simulation: Optional["Simulation"] = None

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, simulation: "Simulation") -> None:
        """Attach the strategy to its engine (called by ``Simulation`` once
        its backend and scheduler exist)."""
        if self.simulation is not None and self.simulation is not simulation:
            raise RuntimeError(
                f"strategy {self.name!r} is already bound to a simulation; "
                "construct one strategy instance per Simulation")
        self.simulation = simulation

    # ------------------------------------------------------------------ #
    # Lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_run_start(self, total_rounds: int) -> None:
        """Called once per :meth:`Simulation.run`, before the first round
        (FedMD performs its transfer-learning warm-up here)."""

    def on_round_start(self, round_index: int) -> None:
        """Called by the scheduler before each round's phases."""

    def on_round_end(self, record: "RoundRecord") -> None:
        """Called by the scheduler after each round's record is appended."""

    # ------------------------------------------------------------------ #
    # Round phases (delegated by the engine, driven by the scheduler)
    # ------------------------------------------------------------------ #
    def sample(self, round_index: int) -> List[int]:
        """The candidate devices for this round (default: the sampler)."""
        simulation = self.simulation
        return simulation.sampler.sample(round_index, len(simulation.devices))

    def device_tasks(self, device_ids: Sequence[int], round_index: int) -> List:
        """Package the round's device-side work as backend tasks.

        The default dispatches plain local training (Algorithm 2) for each
        device, publishing parameter payloads through the backend's
        content-addressed state store.
        """
        simulation = self.simulation
        store = simulation.state_store
        return [simulation.devices[device_id].local_train_task(
                    simulation.config.local_epochs, store=store)
                for device_id in device_ids]

    def process_result(self, result, meta: UploadMeta) -> float:
        """Absorb one completed task (collect phase); return the local loss.

        The default absorbs the training result into the device and uploads
        nothing — algorithms that exchange payloads override this.
        """
        device = self.simulation.devices[result.device_id]
        return device.absorb_training_result(result).mean_loss

    def aggregate(self, round_index: int, device_ids: Sequence[int],
                  upload_meta: Dict[int, UploadMeta]) -> None:
        """The server-side computation over this round's uploads (no-op by
        default — algorithms without central state skip it)."""

    def broadcast(self, device_ids: Optional[Sequence[int]] = None) -> None:
        """Deliver server payloads (``None`` = every device; no-op default)."""

    def evaluate_global(self, dataset: "ImageDataset") -> Optional[float]:
        """Accuracy of :attr:`global_model`, or ``None`` without one."""
        if self.global_model is None:
            return None
        return evaluate_accuracy(self.global_model, dataset,
                                 batch_size=GLOBAL_EVAL_BATCH_SIZE)

    def round_metrics(self) -> Dict[str, float]:
        """Algorithm-specific metrics recorded on the round's record."""
        return {}

    def verbose_line(self, record: "RoundRecord", total_rounds: int) -> str:
        """The progress line printed in verbose mode."""
        global_part = (
            f"global={record.global_accuracy:.3f} " if record.global_accuracy is not None else ""
        )
        return (f"[{self.name}] round {record.round_index}/{total_rounds} "
                f"{global_part}mean_device={record.mean_device_accuracy:.3f}")


class ParameterServerStrategy(Strategy):
    """Base for parameter-upload algorithms (FedZKT, FedAvg).

    Devices train locally and upload their parameters; :meth:`collect`
    keeps each round's uploads with the scheduler's :class:`UploadMeta`
    (dispatch round, arrival time, staleness, aggregation weight).
    Subclasses implement :meth:`server_update` (the central computation)
    and :meth:`payload_for` (what each device receives back); the
    broadcast phase delivers the payloads and clears the round's uploads.

    Synchronous rounds collect every upload with staleness 0 and weight
    1.0; the deadline and async schedulers attach staleness-discounted
    weights to late uploads, which :meth:`upload_weight` reports.  The
    ``upload_meta`` the scheduler passes to :meth:`aggregate` is what
    :meth:`collect` recorded, so the server update reads the latter.

    Parameters
    ----------
    name:
        Optional name override (e.g. ``fedprox`` for FedAvg with a
        proximal term); defaults to the class's ``name``.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__()
        if name is not None:
            self.name = name
        #: Device uploads collected so far this round.
        self.uploads: Dict[int, Dict[str, np.ndarray]] = {}
        #: Metadata of the uploads collected so far this round.
        self.upload_meta: Dict[int, UploadMeta] = {}
        #: Metrics of the last server update (the round record's).
        self.last_metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Upload bookkeeping
    # ------------------------------------------------------------------ #
    def collect(self, device_id: int, state: Dict[str, np.ndarray],
                meta: Optional[UploadMeta] = None) -> None:
        """Receive an uploaded parameter set from an active device.

        ``meta`` carries the scheduler's staleness bookkeeping; when omitted
        (direct synchronous use) the upload is treated as fresh.
        """
        self.uploads[device_id] = state
        self.upload_meta[device_id] = meta if meta is not None else UploadMeta(device_id)

    def upload_weight(self, device_id: int) -> float:
        """The scheduler-assigned aggregation weight for a device's upload."""
        meta = self.upload_meta.get(device_id)
        return meta.weight if meta is not None else 1.0

    def staleness_summary(self) -> Dict[str, float]:
        """Mean/max staleness of the uploads collected this round."""
        if not self.upload_meta:
            return {"mean_staleness": 0.0, "max_staleness": 0.0}
        staleness = [meta.staleness for meta in self.upload_meta.values()]
        return {"mean_staleness": float(np.mean(staleness)),
                "max_staleness": float(max(staleness))}

    def finish_round(self) -> None:
        """Clear the round's uploads (called by :meth:`broadcast`)."""
        self.uploads.clear()
        self.upload_meta.clear()

    # ------------------------------------------------------------------ #
    # Round phases
    # ------------------------------------------------------------------ #
    def process_result(self, result, meta: UploadMeta) -> float:
        """Absorb one training result and upload the parameters."""
        device = self.simulation.devices[result.device_id]
        report = device.absorb_training_result(result)
        self.collect(device.device_id, device.send_parameters(), meta=meta)
        return report.mean_loss

    def aggregate(self, round_index: int, device_ids: Sequence[int],
                  upload_meta: Dict[int, UploadMeta]) -> None:
        self.server_update(round_index, device_ids)

    def server_update(self, round_index: int, device_ids: Sequence[int]) -> None:
        """The central computation over :attr:`uploads` and their
        :attr:`upload_meta` (Algorithm 3 for FedZKT; averaging for FedAvg)."""
        raise NotImplementedError

    def payload_for(self, device_id: int) -> Optional[Dict[str, np.ndarray]]:
        """Parameters to send back to ``device_id`` (None = nothing to send)."""
        raise NotImplementedError

    def broadcast(self, device_ids: Optional[Sequence[int]] = None) -> None:
        """Deliver per-device payloads (Algorithm 1, lines 11–13)."""
        devices = self.simulation.devices
        targets = (devices if device_ids is None
                   else [devices[device_id] for device_id in device_ids])
        for device in targets:
            payload = self.payload_for(device.device_id)
            if payload is not None:
                device.receive_parameters(payload)
        self.finish_round()

    def round_metrics(self) -> Dict[str, float]:
        return dict(self.last_metrics)
