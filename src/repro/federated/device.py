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

from typing import Dict, List, Optional

import numpy as np

from ..datasets.base import ImageDataset
from ..models.base import ClassificationModel
from ..utils.serialization import StateStore
from .backend import EvaluateTask, LocalTrainResult, LocalTrainTask
from .trainer import (
    DeviceTrainingConfig,
    LocalTrainingReport,
    evaluate_accuracy,
    local_sgd_train,
)

__all__ = ["Device", "LocalTrainingReport"]


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
        Local SGD hyper-parameters (Algorithm 2).
    prox_mu:
        Coefficient of the ℓ2 proximal term of Eq. 9.  When positive, the
        local loss becomes ``CE + prox_mu * ||w - w_received||²`` where
        ``w_received`` are the parameters last received from the server.
    eval_batch_size:
        Batch size used when evaluating the on-device model.
    seed:
        Seed for the local data shuffling.
    """

    def __init__(self, device_id: int, model: ClassificationModel, dataset: ImageDataset,
                 lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0,
                 batch_size: int = 32, prox_mu: float = 0.0, eval_batch_size: int = 256,
                 seed: int = 0) -> None:
        self.device_id = int(device_id)
        self.model = model
        self.dataset = dataset
        self.training_config = DeviceTrainingConfig(
            lr=float(lr), momentum=float(momentum), weight_decay=float(weight_decay),
            batch_size=int(batch_size), prox_mu=float(prox_mu),
            eval_batch_size=int(eval_batch_size))
        self._rng = np.random.default_rng(seed)
        self._anchor: Optional[List[np.ndarray]] = None
        # Communication accounting (floats exchanged with the server).
        self.uploaded_parameters = 0
        self.downloaded_parameters = 0

    # Convenience accessors kept for backwards compatibility with code and
    # tests written against the pre-trainer Device attributes.
    @property
    def lr(self) -> float:
        return self.training_config.lr

    @property
    def momentum(self) -> float:
        return self.training_config.momentum

    @property
    def weight_decay(self) -> float:
        return self.training_config.weight_decay

    @property
    def batch_size(self) -> int:
        return self.training_config.batch_size

    @property
    def prox_mu(self) -> float:
        return self.training_config.prox_mu

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

    def local_train_task(self, epochs: int,
                         store: Optional[StateStore] = None,
                         state: Optional[object] = None) -> LocalTrainTask:
        """Package the next local-training step as a backend task.

        The task snapshots the current parameters, proximal anchor, and the
        exact shuffle-RNG state, so executing it (in-process or in a worker)
        and absorbing the result is equivalent to calling
        :meth:`local_train` directly.  When ``store`` is given (the
        backend's content-addressed state store) the parameter payloads are
        published once and the task carries tiny
        :class:`~repro.utils.serialization.StateRef` handles; without a
        store, payloads stay plain arrays inside the task.  A caller
        that already snapshotted/published this device's *current* state
        (FedMD builds a public-logits task from it moments earlier) can
        pass it via ``state`` to skip the redundant copy + digest.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if state is None:
            state = self.model.state_dict()
            if store is not None:
                state = store.put_state(state, label="device")
        # The proximal anchor only enters the loss when prox_mu > 0
        # (trainer.local_sgd_train); with the regularizer off there is no
        # reason to ship it at all.
        use_anchor = self._anchor is not None and self.training_config.prox_mu > 0
        anchor = list(self._anchor) if use_anchor else None
        if store is not None and anchor is not None:
            anchor = store.put_arrays(anchor, label="anchor")
        return LocalTrainTask(
            device_id=self.device_id,
            state=state,
            epochs=epochs,
            rng_state=self._rng.bit_generator.state,
            anchor=anchor,
        )

    def absorb_training_result(self, result: LocalTrainResult) -> LocalTrainingReport:
        """Apply the outcome of a dispatched :class:`LocalTrainTask`."""
        if result.device_id != self.device_id:
            raise ValueError(f"result for device {result.device_id} applied to "
                             f"device {self.device_id}")
        self.model.load_state_dict(result.state)
        self._rng.bit_generator.state = result.rng_state
        return result.report

    def evaluate_task(self, store: Optional[StateStore] = None) -> EvaluateTask:
        """Package on-device evaluation as a backend task.

        With a ``store``, the state is published content-addressed — since
        evaluation runs right after broadcast, the same ref is typically
        re-used (a pure cache hit) by the next round's training dispatch.
        """
        state = self.model.state_dict()
        if store is not None:
            state = store.put_state(state, label="device")
        return EvaluateTask(device_id=self.device_id,
                            state=state,
                            batch_size=self.training_config.eval_batch_size)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, dataset: ImageDataset, batch_size: Optional[int] = None) -> float:
        """Top-1 accuracy of the on-device model on ``dataset``.

        Uses ``training_config.eval_batch_size`` unless overridden.
        """
        size = batch_size if batch_size is not None else self.training_config.eval_batch_size
        return evaluate_accuracy(self.model, dataset, batch_size=size)

    def describe(self) -> str:
        """One-line description used in experiment logs (Fig. 5 / Table III)."""
        return (
            f"device {self.device_id}: {self.model.__class__.__name__} "
            f"({self.model.num_parameters()} params, {len(self.dataset)} samples)"
        )
