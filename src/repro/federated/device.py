"""On-device participant: local training and parameter exchange.

A :class:`Device` owns a private dataset shard and an independently chosen
model architecture.  Its only heavy operation is local training (Algorithm
2 of the paper: mini-batch SGD on the private data with cross-entropy,
optionally augmented with the ℓ2 proximal regularizer of Eq. 9 anchored at
the parameters last received from the server).  The actual loops live in
:mod:`repro.federated.trainer`; the device either runs them in-process
(:meth:`Device.local_train`) or packages them as picklable tasks for an
execution backend (:meth:`Device.local_train_task` /
:meth:`Device.absorb_training_result`), with explicit RNG-state threading
so both paths produce bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.base import ImageDataset
from ..models.base import ClassificationModel
from ..models.registry import device_suite_for_family
from ..nn.layers import dropout_states, load_dropout_states
from ..partition.base import Partitioner
from ..partition.iid import IIDPartitioner
from ..utils.serialization import StateRef, StateStore
from .backend import EvaluateTask, LocalTrainResult, LocalTrainTask
from .config import FederatedConfig
from .trainer import (
    DeviceTrainingConfig,
    LocalTrainingReport,
    evaluate_accuracy,
    local_sgd_train,
)

__all__ = ["Device", "LocalTrainingReport", "build_devices"]


class Device:
    """A federated device with an independently designed on-device model.

    Parameters
    ----------
    device_id:
        Integer identifier (0-based).
    model:
        The on-device model; architectures may differ across devices.
    dataset:
        Private local data shard; never leaves the device.
    lr, momentum, weight_decay, batch_size:
        Local SGD hyper-parameters (Algorithm 2).  ``batch_size`` is also
        the chunk an evaluation sweeps the test set in, so a no-grad sweep
        never holds more than a training step.
    prox_mu:
        Coefficient of the ℓ2 proximal term of Eq. 9.  When positive, the
        local loss becomes ``CE + prox_mu * ||w - w_received||²`` where
        ``w_received`` are the parameters last received from the server.
    seed:
        Seed for the local data shuffling.
    """

    def __init__(self, device_id: int, model: ClassificationModel, dataset: ImageDataset,
                 lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0,
                 batch_size: int = 32, prox_mu: float = 0.0, seed: int = 0) -> None:
        self.device_id = int(device_id)
        self.model = model
        self.dataset = dataset
        self.training_config = DeviceTrainingConfig(
            lr=float(lr), momentum=float(momentum), weight_decay=float(weight_decay),
            batch_size=int(batch_size), prox_mu=float(prox_mu))
        self._rng = np.random.default_rng(seed)
        self._anchor: Optional[List[np.ndarray]] = None
        # Communication accounting (floats exchanged with the server).
        self.uploaded_parameters = 0
        self.downloaded_parameters = 0

    # ------------------------------------------------------------------ #
    # Parameter exchange
    # ------------------------------------------------------------------ #
    def send_parameters(self) -> Dict[str, np.ndarray]:
        """Upload the current on-device parameters ŵ_k to the server."""
        state = self.model.state_dict()
        self.uploaded_parameters += int(sum(v.size for v in state.values()))
        return state

    def receive_parameters(self, state: Dict[str, np.ndarray]) -> None:
        """Absorb the server-distilled parameters w_k (Algorithm 1, line 12).

        The received parameters also become the anchor of the ℓ2 proximal
        term for the next local update (Eq. 9 uses w_k^{t-1}).
        """
        self.model.load_state_dict(state)
        self.downloaded_parameters += int(sum(v.size for v in state.values()))
        self._anchor = [param.data.copy() for param in self.model.parameters()]

    @property
    def has_anchor(self) -> bool:
        """Whether the device has received server parameters at least once."""
        return self._anchor is not None

    # ------------------------------------------------------------------ #
    # Local training (Algorithm 2)
    # ------------------------------------------------------------------ #
    def local_train(self, epochs: int) -> LocalTrainingReport:
        """Run ``epochs`` of local SGD on the private shard, in-process."""
        return local_sgd_train(self.model, self.dataset, epochs, self.training_config,
                               self._rng, anchor=self._anchor, device_id=self.device_id)

    def local_train_task(self, epochs: int, store: StateStore,
                         state: Optional[StateRef] = None) -> LocalTrainTask:
        """Package the next local-training step as a backend task.

        The task snapshots the current parameters, proximal anchor, and the
        exact shuffle-RNG and Dropout-stream states, so executing it (in-process or in a worker)
        and absorbing the result is equivalent to calling
        :meth:`local_train` directly.  The parameter payloads are published
        once into ``store`` (the backend's content-addressed state store)
        and the task carries tiny
        :class:`~repro.utils.serialization.StateRef` handles.  A caller
        that already published this device's *current* state (FedMD builds
        a public-logits task from it moments earlier) can pass its ref via
        ``state`` to skip the redundant copy + digest.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if state is None:
            state = store.put_state(self.model.state_dict(), label="device")
        # The proximal anchor only enters the loss when prox_mu > 0
        # (trainer.local_sgd_train); with the regularizer off there is no
        # reason to ship it at all.
        use_anchor = self._anchor is not None and self.training_config.prox_mu > 0
        anchor = store.put_arrays(list(self._anchor), label="anchor") if use_anchor else None
        return LocalTrainTask(
            device_id=self.device_id,
            state=state,
            epochs=epochs,
            rng_state=self._rng.bit_generator.state,
            anchor=anchor,
            dropout_states=dropout_states(self.model),
        )

    def absorb_training_result(self, result: LocalTrainResult) -> LocalTrainingReport:
        """Apply the outcome of a dispatched :class:`LocalTrainTask`."""
        if result.device_id != self.device_id:
            raise ValueError(f"result for device {result.device_id} applied to "
                             f"device {self.device_id}")
        self.model.load_state_dict(result.state)
        self._rng.bit_generator.state = result.rng_state
        load_dropout_states(self.model, result.dropout_states)
        return result.report

    def evaluate_task(self, store: StateStore) -> EvaluateTask:
        """Package on-device evaluation as a backend task.

        The state is published content-addressed into ``store`` — since
        evaluation runs right after broadcast, the same ref is typically
        re-used (a pure cache hit) by the next round's training dispatch.
        """
        return EvaluateTask(device_id=self.device_id,
                            state=store.put_state(self.model.state_dict(), label="device"),
                            batch_size=self.training_config.batch_size)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, dataset: ImageDataset, batch_size: Optional[int] = None) -> float:
        """Top-1 accuracy of the on-device model on ``dataset``.

        Sweeps in chunks of ``training_config.batch_size`` unless overridden.
        """
        size = batch_size if batch_size is not None else self.training_config.batch_size
        return evaluate_accuracy(self.model, dataset, batch_size=size)

    def describe(self) -> str:
        """One-line description used in experiment logs (Fig. 5 / Table III)."""
        return (
            f"device {self.device_id}: {self.model.__class__.__name__} "
            f"({self.model.num_parameters()} params, {len(self.dataset)} samples)"
        )


def build_devices(train_dataset: ImageDataset, config: FederatedConfig,
                  device_models: Optional[Sequence[ClassificationModel]] = None,
                  family: str = "cifar", partitioner: Optional[Partitioner] = None,
                  prox_mu: Optional[float] = None) -> List[Device]:
    """One :class:`Device` per shard of ``train_dataset``, as every builder wires them.

    The shards come from ``partitioner`` (IID by default); the models from
    ``device_models`` or, when it is ``None``, the ``family`` device suite.
    Device ``k`` takes the config's local SGD settings (``prox_mu``
    overrides the config's proximal coefficient) and shuffles with seed
    ``config.seed + 1000 + k``.
    """
    partitioner = partitioner or IIDPartitioner(config.num_devices, seed=config.seed)
    shards = partitioner.partition(train_dataset)
    if device_models is None:
        device_models = device_suite_for_family(
            family, config.num_devices, train_dataset.input_shape,
            train_dataset.num_classes, seed=config.seed)
    device_models = list(device_models)
    if len(device_models) != config.num_devices:
        raise ValueError("need exactly one model per device")
    return [
        Device(device_id=index, model=model, dataset=shard,
               lr=config.device_lr, momentum=config.device_momentum,
               weight_decay=config.device_weight_decay, batch_size=config.batch_size,
               prox_mu=config.prox_mu if prox_mu is None else prox_mu,
               seed=config.seed + 1000 + index)
        for index, (model, shard) in enumerate(zip(device_models, shards))
    ]
