"""FedMD baseline (Li & Wang, 2019): public-dataset logit-consensus distillation.

FedMD is the paper's primary comparison point (Table I, Figs. 3–4): it also
supports heterogeneous on-device models, but relies on a *public dataset*
shared by the server and all devices.  Each round:

1. every device computes class scores (logits) on the public dataset and
   uploads them;
2. the server averages the scores into a consensus;
3. every device *digests* the consensus — trains its model to match the
   consensus on the public data — and then *revisits* its private data for
   a few local epochs.

Because the knowledge carrier is the public dataset, FedMD's quality
depends on how close the public data is to the private distribution, which
is exactly the sensitivity the paper demonstrates with the CIFAR-100 vs
SVHN pairing (reproduced here with the synthetic close/far datasets).

:class:`FedMDStrategy` implements the protocol as a registry plugin for the
generic :class:`~repro.federated.simulation.Simulation` engine.  The
exchanged payloads are logit matrices rather than model parameters; the
devices keep their own parameters throughout.  All device-side phases
(logit computation, digest + revisit, evaluation) are dispatched as
picklable tasks through an
:class:`~repro.federated.backend.ExecutionBackend`, so the round fans out
across worker processes when a parallel backend is selected — with
bit-identical results to the serial path.

Partial consensus
-----------------
Classic FedMD is lockstep: the consensus averages *every* active device's
scores, which is why it historically refused the deadline/async schedulers.
This implementation relaxes that: the consensus is computed over the
*dispatch cohort* — whichever sampled devices are free and available when
the scheduler dispatches work.  Under the synchronous scheduler the cohort
is all active devices, reproducing classic (full-consensus) FedMD bit for
bit; under the ``deadline`` and ``async`` schedulers the cohort is partial
and each straggler digests the (possibly stale) consensus its dispatch
batch agreed on — a *partial-consensus* FedMD that keeps every timing draw
keyed and deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..datasets.base import ImageDataset
from ..federated.backend import (
    DigestSpec,
    ExecutionBackend,
    PublicLogitsTask,
)
from ..federated.config import FederatedConfig
from ..federated.device import Device
from ..federated.sampling import DeviceSampler
from ..federated.server import UploadMeta
from ..federated.simulation import Simulation
from ..federated.strategy import Strategy
from ..models.base import ClassificationModel
from ..partition.base import Partitioner
from ..partition.iid import IIDPartitioner
from ..federated.trainer import compute_public_logits, digest_on_public

__all__ = ["FedMDStrategy", "build_fedmd"]


class FedMDStrategy(Strategy):
    """Public-dataset logit-consensus distillation (FedMD, Li & Wang 2019).

    Parameters
    ----------
    public_dataset:
        The shared public dataset (labels are not used; only inputs).
    digest_epochs:
        Passes over the public dataset during the digest phase;
        ``config.server.device_distill_lr`` is the digest learning rate and
        ``config.local_epochs`` the revisit epochs.
    """

    name = "fedmd"
    #: Under ``deadline``/``async`` the consensus is computed over the
    #: dispatch cohort (partial consensus, see the module docstring).
    supports_schedulers = ("sync", "deadline", "async")
    supports_server_shards = False
    uses_public_dataset = True

    def __init__(self, public_dataset: ImageDataset, digest_epochs: int = 1) -> None:
        super().__init__()
        self.public_dataset = public_dataset
        self.digest_epochs = int(digest_epochs)
        self._round_digest_losses: List[float] = []

    # ------------------------------------------------------------------ #
    @property
    def consensus_mode(self) -> str:
        """``"full"`` under the synchronous scheduler, ``"partial"`` when a
        reordering scheduler dispatches cohorts."""
        simulation = self.simulation
        if simulation is None or simulation.scheduler.name == "sync":
            return "full"
        return "partial"

    def _digest_seed(self, device_id: int) -> int:
        return self.simulation.config.seed + 500 + device_id

    # ------------------------------------------------------------------ #
    # In-process helpers (kept for direct use and tests; same code paths
    # the backend tasks execute in workers)
    # ------------------------------------------------------------------ #
    def _public_logits(self, model: ClassificationModel, batch_size: int = 256) -> np.ndarray:
        """Class scores of ``model`` on the whole public dataset (no gradients)."""
        return compute_public_logits(model, self.public_dataset, batch_size=batch_size)

    def _digest(self, device: Device, consensus: np.ndarray) -> float:
        """Train the device model to match the consensus scores on public data."""
        config = self.simulation.config
        return digest_on_public(
            device.model, self.public_dataset, consensus,
            lr=config.server.device_distill_lr,
            batch_size=config.batch_size, epochs=self.digest_epochs,
            rng=np.random.default_rng(self._digest_seed(device.device_id)))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_run_start(self, total_rounds: int) -> None:
        """FedMD's transfer-learning warm-up: each device first trains on
        its private data before any communication (fanned out through the
        backend)."""
        simulation = self.simulation
        store = simulation.state_store
        warmup_tasks = [device.local_train_task(simulation.config.local_epochs, store=store)
                        for device in simulation.devices]
        for result in simulation.backend.run_tasks(warmup_tasks):
            simulation.devices[result.device_id].absorb_training_result(result)

    # ------------------------------------------------------------------ #
    # Round phases
    # ------------------------------------------------------------------ #
    def device_tasks(self, device_ids: Sequence[int], round_index: int) -> List:
        """Communicate + aggregate consensus, then package digest + revisit.

        FedMD's knowledge carrier is the consensus over public-data scores,
        so the communicate/aggregate phases run *inside* task packaging: the
        per-device class scores are collected through the backend, averaged
        over the dispatch cohort, and the resulting consensus rides along
        with each device's digest-plus-revisit training task.
        """
        if not device_ids:
            return []
        simulation = self.simulation
        store = simulation.state_store

        def published_state(device_id):
            state = simulation.devices[device_id].model.state_dict()
            return store.put_state(state, label="device") if store is not None else state

        # Snapshot/publish each cohort member's state once; the digest +
        # revisit training task below reuses the same payload (running the
        # logits task does not move the model — it loads these very values).
        states = {device_id: published_state(device_id) for device_id in device_ids}
        logit_tasks = [
            PublicLogitsTask(device_id=device_id, state=states[device_id])
            for device_id in device_ids
        ]
        # Routed through the fusion seam: with cohort_fusion on, each
        # same-architecture cohort's public sweep runs as one stacked
        # no-grad forward (bit-identical per slice).
        uploaded = simulation.run_device_tasks(logit_tasks)
        consensus = np.mean(np.stack(uploaded, axis=0), axis=0)
        # The cohort shares one consensus matrix: publish it once and let
        # every digest spec carry the same ref instead of N inline copies.
        consensus_payload = (store.put_arrays([consensus], label="consensus")
                            if store is not None else consensus)

        train_tasks = []
        for device_id in device_ids:
            task = simulation.devices[device_id].local_train_task(
                simulation.config.local_epochs, store=store,
                state=states[device_id])
            task.digest = DigestSpec(
                consensus=consensus_payload,
                epochs=self.digest_epochs,
                lr=simulation.config.server.device_distill_lr,
                batch_size=simulation.config.batch_size,
                seed=self._digest_seed(device_id),
            )
            train_tasks.append(task)
        return train_tasks

    def process_result(self, result, meta: UploadMeta) -> float:
        device = self.simulation.devices[result.device_id]
        report = device.absorb_training_result(result)
        self._round_digest_losses.append(
            result.digest_loss if result.digest_loss is not None else 0.0)
        return report.mean_loss

    def round_metrics(self) -> dict:
        """Digest statistics over the uploads absorbed since the last round
        record (drained here so deferred-absorb schedulers attribute each
        digest loss to the round its upload landed in)."""
        losses = self._round_digest_losses
        self._round_digest_losses = []
        return {
            "digest_loss": float(np.mean(losses)) if losses else 0.0,
            "public_dataset": self.public_dataset.name,
        }

    def verbose_line(self, record, total_rounds: int) -> str:
        return (f"[fedmd] round {record.round_index}/{total_rounds} "
                f"mean_device={record.mean_device_accuracy:.3f}")


def build_fedmd(train_dataset: ImageDataset, test_dataset: ImageDataset,
                public_dataset: ImageDataset, config: FederatedConfig, family: str = "cifar",
                partitioner: Optional[Partitioner] = None,
                device_models: Optional[Sequence[ClassificationModel]] = None,
                sampler: Optional[DeviceSampler] = None,
                digest_epochs: Optional[int] = None,
                backend: Optional[ExecutionBackend] = None) -> Simulation:
    """Construct a ready-to-run FedMD simulation mirroring :func:`build_fedzkt`.

    ``digest_epochs`` defaults to the config's strategy block
    (``config.strategy.digest_epochs``).
    """
    from ..models.registry import device_suite_for_family  # local import to avoid cycle

    if digest_epochs is None:
        digest_epochs = config.strategy.digest_epochs
    config = config.with_strategy("fedmd", digest_epochs=digest_epochs)
    num_classes = train_dataset.num_classes
    input_shape = train_dataset.input_shape
    partitioner = partitioner or IIDPartitioner(config.num_devices, seed=config.seed)
    shards = partitioner.partition(train_dataset)

    if device_models is None:
        device_models = device_suite_for_family(family, config.num_devices, input_shape,
                                                num_classes, seed=config.seed)
    device_models = list(device_models)
    if len(device_models) != config.num_devices:
        raise ValueError("need exactly one model per device")

    devices = [
        Device(device_id=index, model=model, dataset=shard,
               lr=config.device_lr, momentum=config.device_momentum,
               weight_decay=config.device_weight_decay, batch_size=config.batch_size,
               prox_mu=config.prox_mu, seed=config.seed + 1000 + index)
        for index, (model, shard) in enumerate(zip(device_models, shards))
    ]
    strategy = FedMDStrategy(public_dataset, digest_epochs=digest_epochs)
    return Simulation(devices, config, test_dataset, strategy,
                      sampler=sampler, backend=backend)
