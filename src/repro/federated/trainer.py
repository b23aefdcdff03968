"""Shared device-side training and evaluation primitives.

Every device-side loop in the library is one of two bodies kept here:

* :func:`sgd_steps`, the one SGD step loop (zero_grad → forward → loss →
  backward → step → record).  Algorithm 2's local SGD
  (:func:`local_sgd_train`), FedMD's digest (:func:`digest_on_public`), their
  fused cohort versions (:mod:`repro.federated.cohort`) and Phase 2's
  back-transfer (:mod:`repro.core.server_tasks`) all call it;
* :func:`sweep`, the one chunked no-grad forward over a dataset, reduced to
  accuracies (:func:`sweep_accuracies`) or class scores
  (:func:`sweep_logits`) on both the per-device and the fused path.

Per-device and stacked execution differ only in how a batch is gathered
(one shard through :func:`shard_batches`, or :func:`stack_batches` over the
members' shards), which module runs it (the model, or a
:class:`~repro.nn.batched.BatchedModule` tile) and which optimizer steps it
(``SGD`` or ``BatchedSGD``).  The losses are the same functions:
``cross_entropy`` and ``kl_divergence_loss`` average over the sample axis
only, so a tile's ``(B, N, C)`` logits give a ``(B,)`` loss vector, whose
``backward()`` seeds every member's slice with the serial upstream of 1.
Every shuffled loop draws its batches from
:func:`~repro.datasets.dataloader.shuffled_batches`, one generator per
member, so a stacked member replays the shuffle it would draw alone.

The functions are *pure* with respect to process state: they touch only
the arguments they are given (model, dataset, config, RNG), which is what
makes them safe to execute inside backend worker processes
(:mod:`repro.federated.backend`) with bit-identical results to in-process
execution.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.base import ImageDataset
from ..datasets.dataloader import shuffled_batches
from ..models.base import ClassificationModel
from ..nn import no_grad
from ..nn.functional import accuracy
from ..nn.losses import cross_entropy, l2_proximal, mse_loss
from ..nn.optim import SGD
from ..nn.tensor import Tensor

__all__ = [
    "DeviceTrainingConfig",
    "LocalTrainingReport",
    "sgd_steps",
    "by_member",
    "shard_batches",
    "stack_batches",
    "supervised_loss",
    "sweep",
    "sweep_accuracies",
    "sweep_logits",
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
        Batch size used for on-device evaluation.
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

    @classmethod
    def from_losses(cls, device_id: int, epochs: int, losses: List[float],
                    shard_size: int, parameter_count: int) -> "LocalTrainingReport":
        """The report of ``epochs`` passes over a ``shard_size``-sample shard
        that took one step per entry of ``losses``."""
        return cls(
            device_id=device_id,
            epochs=epochs,
            batches=len(losses),
            final_loss=losses[-1] if losses else 0.0,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            samples_seen=epochs * shard_size,
            parameter_updates=len(losses) * parameter_count,
        )

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


def sgd_steps(module, optimizer, batches: Iterable[Tuple[np.ndarray, object]],
              loss_fn: Callable[[Tensor, object], Tensor]) -> List:
    """The one SGD step loop: one ``optimizer`` step per ``(inputs, targets)``.

    ``module`` runs in train mode on ``Tensor(inputs)`` and
    ``loss_fn(outputs, targets)`` is the step's loss: a scalar for one
    model, a ``(B,)`` vector for a stacked tile.  ``backward()`` seeds it
    with ones, each member's slice with the serial upstream of 1, and a
    root keeps its data through backward.  Returns each step's loss value:
    a float for one model, a list of ``B`` floats for a tile.
    """
    module.train()
    losses = []
    for inputs, targets in batches:
        optimizer.zero_grad(set_to_none=False)
        loss = loss_fn(module(Tensor(inputs)), targets)
        loss.backward()
        optimizer.step()
        losses.append(loss.data.tolist())
    return losses


def by_member(steps: List[List[float]], members: int) -> List[List[float]]:
    """Per-member loss lists from a stacked tile's :func:`sgd_steps` values."""
    return [[step[member] for step in steps] for member in range(members)]


def shard_batches(inputs: np.ndarray, targets: np.ndarray, batch_size: int, epochs: int,
                  rng: np.random.Generator) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One member's shuffled ``(inputs[chosen], targets[chosen])`` batches."""
    for chosen in shuffled_batches(len(inputs), batch_size, epochs, rng):
        yield inputs[chosen], targets[chosen]


def stack_batches(streams: Sequence[Iterable[Tuple[np.ndarray, ...]]],
                  ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Zip per-member batch streams into stacked ``(B, n, ...)`` batches."""
    for parts in zip(*streams):
        yield tuple(np.stack(column) for column in zip(*parts))


def supervised_loss(parameters: Sequence[Tensor], anchors: Optional[Sequence[np.ndarray]],
                    prox_mu: float, proximal=l2_proximal) -> Callable:
    """Algorithm 2's loss: cross-entropy, plus the ℓ2 proximal term of Eq. 9
    anchored at ``anchors`` when ``prox_mu > 0`` (``proximal`` is
    ``batched_l2_proximal`` for a stacked tile)."""
    if prox_mu <= 0 or anchors is None:
        return cross_entropy

    def loss_fn(logits: Tensor, labels: np.ndarray) -> Tensor:
        return cross_entropy(logits, labels) + proximal(parameters, anchors, mu=prox_mu)

    return loss_fn


def sweep(forward: Callable[[np.ndarray], np.ndarray], dataset: ImageDataset,
          batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The one evaluation sweep: ``(logits, labels)`` per chunk of ``dataset``.

    ``forward`` maps a chunk of images to stacked ``(B, n, C)`` logits: a
    cohort's :meth:`~repro.nn.batched.BatchedEvaluator.predict`, or one
    model's output as a ``[None]`` view (:func:`_model_forward`).  One
    model's output is a scratch-arena block that goes back when its array
    does, so a reduction drops each chunk before asking for the next: the
    next forward then reuses the block.
    """
    for start in range(0, len(dataset), batch_size):
        stop = start + batch_size
        yield forward(dataset.images[start:stop]), dataset.labels[start:stop]


def sweep_accuracies(forward: Callable[[np.ndarray], np.ndarray], dataset: ImageDataset,
                     batch_size: int, members: int) -> List[float]:
    """Top-1 accuracy of each of ``members`` stacked models on ``dataset``:
    per-chunk mean × chunk length, summed, over the total."""
    correct = [0.0] * members
    total = 0
    for logits, labels in sweep(forward, dataset, batch_size):
        for member in range(members):
            correct[member] += accuracy(logits[member], labels) * len(labels)
        total += len(labels)
        del logits  # see sweep: before the next chunk's forward runs
    return [float(value / total) if total else 0.0 for value in correct]


def sweep_logits(forward: Callable[[np.ndarray], np.ndarray], dataset: ImageDataset,
                 batch_size: int, members: int) -> List[np.ndarray]:
    """Class scores of each of ``members`` stacked models on every sample."""
    chunks = []
    for logits, _ in sweep(forward, dataset, batch_size):
        chunks.append(logits.copy())
        del logits  # see sweep: before the next chunk's forward runs
    return [np.concatenate([chunk[member] for chunk in chunks], axis=0)
            for member in range(members)]


@contextmanager
def _model_forward(model: ClassificationModel):
    """One model as a :func:`sweep` forward: eval mode, no gradients, its
    output as a ``(1, n, C)`` view; the train/eval mode is restored on exit."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            yield lambda images: model(Tensor(images)).data[None]
    finally:
        model.train(was_training)


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
    parameters = model.parameters()
    optimizer = SGD(parameters, lr=config.lr, momentum=config.momentum,
                    weight_decay=config.weight_decay)
    losses = sgd_steps(
        model, optimizer,
        shard_batches(dataset.images, dataset.labels, config.batch_size, epochs, rng),
        supervised_loss(parameters, anchor, config.prox_mu))
    return LocalTrainingReport.from_losses(device_id, epochs, losses, len(dataset),
                                           model.num_parameters())


def evaluate_accuracy(model: ClassificationModel, dataset: ImageDataset,
                      batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (no gradients, mode restored)."""
    with _model_forward(model) as forward:
        return sweep_accuracies(forward, dataset, batch_size, 1)[0]


def compute_public_logits(model: ClassificationModel, dataset: ImageDataset,
                          batch_size: int = 256) -> np.ndarray:
    """Class scores of ``model`` on every sample of ``dataset`` (no gradients)."""
    with _model_forward(model) as forward:
        return sweep_logits(forward, dataset, batch_size, 1)[0]


def digest_on_public(model: ClassificationModel, public_dataset: ImageDataset,
                     consensus: np.ndarray, lr: float, batch_size: int, epochs: int,
                     rng: np.random.Generator, momentum: float = 0.9) -> float:
    """FedMD digest phase: regress the model's public-data scores onto ``consensus``."""
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    losses = sgd_steps(model, optimizer,
                       shard_batches(public_dataset.images, consensus, batch_size, epochs, rng),
                       mse_loss)
    return float(np.mean(losses)) if losses else 0.0
