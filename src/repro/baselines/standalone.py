"""Standalone training: the no-collaboration baseline and Table III bounds.

For every device, the paper reports:

* **lower bound** — the accuracy the device's architecture reaches when
  trained *only* on its own local shard (no collaboration);
* **upper bound** — the accuracy the same architecture reaches when trained
  on the union of all devices' data (perfect, centralised collaboration).

FedZKT's per-device accuracy should land close to the upper bound, which is
the evidence Fig. 5 / Table III present for effective knowledge transfer
across heterogeneous models.

Two entry points:

* :func:`compute_bounds` trains fresh copies for the Table III bounds (a
  one-shot computation, no round structure);
* :class:`StandaloneStrategy` (``repro run --algorithm standalone``) runs
  the *lower-bound trajectory* as a federated history — each round every
  sampled device trains locally with no exchange of any kind, and the
  per-round on-device accuracies trace how far isolated training gets.
  Useful as the per-round floor any collaboration curve should clear.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.base import ImageDataset
from ..federated.backend import ExecutionBackend
from ..federated.config import FederatedConfig
from ..federated.device import build_devices
from ..federated.sampling import DeviceSampler
from ..federated.simulation import Simulation
from ..federated.strategy import Strategy
from ..federated.trainer import DeviceTrainingConfig, evaluate_accuracy, local_sgd_train
from ..models.base import ClassificationModel
from ..partition.base import Partitioner

__all__ = [
    "StandaloneBounds",
    "StandaloneStrategy",
    "build_standalone",
    "train_standalone",
    "compute_bounds",
]


class StandaloneStrategy(Strategy):
    """No-collaboration baseline: every round is pure local training.

    Devices never exchange parameters or logits, so there is no collect /
    aggregate / broadcast payload — the base-class defaults (absorb the
    training result, do nothing centrally) are exactly right.  Round
    records carry per-device accuracies and mean local loss, tracing the
    standalone lower bound per round.

    Only the synchronous scheduler applies: with no aggregation event
    there is no buffer to fill or deadline to beat, so staleness and
    reordering are meaningless for this strategy.
    """

    name = "standalone"
    supports_schedulers = ("sync",)
    supports_server_shards = False

    def verbose_line(self, record, total_rounds: int) -> str:
        return (f"[standalone] round {record.round_index}/{total_rounds} "
                f"mean_device={record.mean_device_accuracy:.3f}")


def build_standalone(train_dataset: ImageDataset, test_dataset: ImageDataset,
                     config: FederatedConfig, family: str = "cifar",
                     partitioner: Optional[Partitioner] = None,
                     device_models: Optional[Sequence[ClassificationModel]] = None,
                     sampler: Optional[DeviceSampler] = None,
                     backend: Optional[ExecutionBackend] = None) -> Simulation:
    """Construct a standalone (no-collaboration) simulation.

    Mirrors :func:`repro.core.fedzkt.build_fedzkt`'s wiring — the same
    heterogeneous device suite, partitioning, and seeding — so standalone
    histories are directly comparable with FedZKT/FedMD runs on the same
    config.
    """
    devices = build_devices(train_dataset, config, device_models, family, partitioner)
    return Simulation(devices, config, test_dataset, StandaloneStrategy(),
                      sampler=sampler, backend=backend)


@dataclass
class StandaloneBounds:
    """Lower/upper standalone accuracy for one device's architecture."""

    device_id: int
    architecture: str
    lower_bound: float
    upper_bound: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "architecture": self.architecture,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
        }


def train_standalone(model: ClassificationModel, dataset: ImageDataset, epochs: int,
                     lr: float = 0.01, momentum: float = 0.9, weight_decay: float = 0.0,
                     batch_size: int = 32, seed: int = 0) -> ClassificationModel:
    """Train ``model`` on ``dataset`` with plain mini-batch SGD (in place).

    Routes through the shared trainer loop
    (:func:`repro.federated.trainer.local_sgd_train`), i.e. exactly the same
    code path federated devices execute — just without a proximal anchor.
    """
    config = DeviceTrainingConfig(lr=lr, momentum=momentum, weight_decay=weight_decay,
                                  batch_size=batch_size)
    local_sgd_train(model, dataset, epochs, config, np.random.default_rng(seed))
    return model


def compute_bounds(device_models: Sequence[ClassificationModel], shards: Sequence[ImageDataset],
                   full_train: ImageDataset, test_dataset: ImageDataset, epochs: int,
                   lr: float = 0.01, batch_size: int = 32, seed: int = 0,
                   labels: Optional[Sequence[str]] = None) -> List[StandaloneBounds]:
    """Compute per-device lower/upper bounds.

    Parameters
    ----------
    device_models:
        The heterogeneous on-device models (fresh, untrained instances;
        they are deep-copied so the originals stay untouched).
    shards:
        Per-device private shards (aligned with ``device_models``).
    full_train:
        The union of all device data (the centralized training pool).
    epochs:
        Training epochs for both bounds.
    labels:
        Optional human-readable architecture labels (Model A–E).
    """
    if len(device_models) != len(shards):
        raise ValueError("device_models and shards must be aligned")
    results: List[StandaloneBounds] = []
    for index, (model, shard) in enumerate(zip(device_models, shards)):
        label = labels[index] if labels else model.__class__.__name__
        lower_model = copy.deepcopy(model)
        train_standalone(lower_model, shard, epochs=epochs, lr=lr,
                         batch_size=batch_size, seed=seed + index)
        lower = evaluate_accuracy(lower_model, test_dataset)

        upper_model = copy.deepcopy(model)
        train_standalone(upper_model, full_train, epochs=epochs, lr=lr,
                         batch_size=batch_size, seed=seed + 100 + index)
        upper = evaluate_accuracy(upper_model, test_dataset)

        results.append(StandaloneBounds(device_id=index, architecture=label,
                                        lower_bound=lower, upper_bound=upper))
    return results
