"""Shared device-side training and evaluation primitives.

Every place that used to hand-roll a mini-batch SGD or evaluation loop —
:meth:`Device.local_train`, FedMD's digest/revisit phases, the standalone
lower/upper bounds, the server's global-model sweep — now routes
through this module.  The functions are *pure* with respect to process
state: they touch only the arguments they are given (model, dataset,
config, RNG), which is what makes them safe to execute inside backend
worker processes (:mod:`repro.federated.backend`) with bit-identical
results to in-process execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..datasets.base import ImageDataset
from ..datasets.dataloader import DataLoader
from ..models.base import ClassificationModel
from ..nn import no_grad
from ..nn.functional import accuracy
from ..nn.losses import cross_entropy, l2_proximal, mse_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor

__all__ = [
    "DeviceTrainingConfig",
    "LocalTrainingReport",
    "local_sgd_train",
    "evaluate_accuracy",
    "compute_public_logits",
    "digest_on_public",
]


@dataclass(frozen=True)
class DeviceTrainingConfig:
    """On-device optimization hyper-parameters (Algorithm 2 of the paper).

    A picklable value object so the execution backends can ship it to
    worker processes once, alongside the model replicas and data shards.

    Attributes
    ----------
    lr, momentum, weight_decay:
        Local SGD hyper-parameters.
    batch_size:
        Mini-batch size for local training (and the digest phase of FedMD).
    prox_mu:
        Coefficient of the ℓ2 proximal term of Eq. 9 (0 disables it).
    eval_batch_size:
        Batch size used for on-device evaluation (was previously hardcoded
        to 256 in several call sites).
    """

    lr: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 32
    prox_mu: float = 0.0
    eval_batch_size: int = 256


@dataclass
class LocalTrainingReport:
    """Statistics returned by one local-training pass (Algorithm 2)."""

    device_id: int
    epochs: int
    batches: int
    final_loss: float
    mean_loss: float
    samples_seen: int
    parameter_updates: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "device_id": self.device_id,
            "epochs": self.epochs,
            "batches": self.batches,
            "final_loss": self.final_loss,
            "mean_loss": self.mean_loss,
            "samples_seen": self.samples_seen,
            "parameter_updates": self.parameter_updates,
        }


def local_sgd_train(model: ClassificationModel, dataset: ImageDataset, epochs: int,
                    config: DeviceTrainingConfig, rng: np.random.Generator,
                    anchor: Optional[List[np.ndarray]] = None,
                    device_id: int = -1) -> LocalTrainingReport:
    """Run ``epochs`` of mini-batch SGD on ``dataset`` (Algorithm 2, in place).

    The loss is cross-entropy, optionally augmented with the ℓ2 proximal
    regularizer of Eq. 9 anchored at ``anchor`` when ``config.prox_mu > 0``.
    Shuffling consumes ``rng``, so callers that need reproducible multi-call
    sequences (the federated round loop) must thread the generator state
    through explicitly.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    model.train()
    optimizer = SGD(model.parameters(), lr=config.lr, momentum=config.momentum,
                    weight_decay=config.weight_decay)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
    losses: List[float] = []
    batches = 0
    samples = 0
    for _ in range(epochs):
        for images, labels in loader:
            optimizer.zero_grad(set_to_none=False)
            logits = model(images)
            loss = cross_entropy(logits, labels)
            if config.prox_mu > 0 and anchor is not None:
                loss = loss + l2_proximal(model.parameters(), anchor, mu=config.prox_mu)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
            batches += 1
            samples += len(labels)
    final_loss = losses[-1] if losses else 0.0
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return LocalTrainingReport(
        device_id=device_id,
        epochs=epochs,
        batches=batches,
        final_loss=final_loss,
        mean_loss=mean_loss,
        samples_seen=samples,
        parameter_updates=batches * model.num_parameters(),
    )


def evaluate_accuracy(model: ClassificationModel, dataset: ImageDataset,
                      batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (no gradients, mode restored)."""
    was_training = model.training
    model.eval()
    correct = 0.0
    total = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = Tensor(dataset.images[start:start + batch_size])
            labels = dataset.labels[start:start + batch_size]
            correct += accuracy(model(images), labels) * len(labels)
            total += len(labels)
    if was_training:
        model.train()
    return float(correct / total) if total else 0.0


def compute_public_logits(model: ClassificationModel, dataset: ImageDataset,
                          batch_size: int = 256) -> np.ndarray:
    """Class scores of ``model`` on every sample of ``dataset`` (no gradients)."""
    was_training = model.training
    model.eval()
    outputs: List[np.ndarray] = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = Tensor(dataset.images[start:start + batch_size])
            outputs.append(model(images).data.copy())
    if was_training:
        model.train()
    return np.concatenate(outputs, axis=0)


def digest_on_public(model: ClassificationModel, public_dataset: ImageDataset,
                     consensus: np.ndarray, lr: float, batch_size: int, epochs: int,
                     rng: np.random.Generator, momentum: float = 0.9) -> float:
    """FedMD digest phase: regress the model's public-data scores onto ``consensus``."""
    model.train()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    losses: List[float] = []
    indices = np.arange(len(public_dataset))
    for _ in range(epochs):
        order = rng.permutation(indices)
        for start in range(0, len(order), batch_size):
            chosen = order[start:start + batch_size]
            images = Tensor(public_dataset.images[chosen])
            targets = Tensor(consensus[chosen])
            optimizer.zero_grad(set_to_none=False)
            loss = mse_loss(model(images), targets)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
    return float(np.mean(losses)) if losses else 0.0
