"""FedAvg and FedProx baselines (homogeneous on-device models).

The paper positions FedZKT against the classical parameter-averaging
paradigm, which requires every device to run the *same* architecture.
These reference implementations reuse the generic Device / Server /
Strategy / Simulation substrate: the server element-wise averages the
uploaded parameters (weighted by shard size) and broadcasts the result.
FedProx is FedAvg plus the on-device ℓ2 proximal term (``prox_mu > 0``),
the same mechanism FedZKT adapts for its non-IID regularizer (Eq. 9).
``FedAvgStrategy`` is the registry plugin behind
``repro run --algorithm fedavg``.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from ..datasets.base import ImageDataset
from ..federated.backend import ExecutionBackend
from ..federated.config import FederatedConfig
from ..federated.device import build_devices
from ..federated.sampling import DeviceSampler
from ..federated.server import FederatedServer
from ..federated.simulation import Simulation
from ..federated.strategy import ParameterServerStrategy
from ..models.base import ClassificationModel
from ..models.registry import ModelSpec, build_model
from ..partition.base import Partitioner

__all__ = ["FedAvgServer", "FedAvgStrategy", "build_fedavg", "build_fedprox"]


class FedAvgServer(FederatedServer):
    """Parameter-averaging server.

    Parameters
    ----------
    global_model:
        The shared-architecture global model; its state is broadcast to all
        devices every round.
    device_weights:
        Per-device aggregation weights (normally the shard sizes).
    """

    name = "fedavg"

    def __init__(self, global_model: ClassificationModel,
                 device_weights: Optional[Dict[int, float]] = None) -> None:
        super().__init__()
        self._global_model = global_model
        self.device_weights = dict(device_weights or {})
        self._payload: Dict[str, np.ndarray] = global_model.state_dict()

    @property
    def global_model(self) -> ClassificationModel:
        return self._global_model

    def aggregate(self, round_index: int, active_devices: List[int],
                  upload_meta=None) -> None:
        if not self.uploads:
            # No active device uploaded (can happen with extreme straggler
            # settings): keep the current global parameters.
            self._payload = self._global_model.state_dict()
            self.last_metrics = {"aggregated_devices": 0.0}
            return
        base = np.array([self.device_weights.get(device_id, 1.0)
                         for device_id in self.uploads], dtype=np.float64)
        base = base / base.sum()
        discounts = np.array([self.upload_weight(device_id, upload_meta)
                              for device_id in self.uploads], dtype=np.float64)
        # The staleness discount is *absolute*: a stale upload's lost mass
        # stays with the current global parameters instead of being
        # renormalized back onto the (possibly lone, possibly all-stale)
        # uploads — otherwise a single straggler's rounds-old update would
        # overwrite the global model at full weight.  The all-fresh branch
        # reproduces the historical shard-weighted average bit for bit.
        if np.all(discounts >= 1.0):
            weights = base
            residual = 0.0
            current = None
        else:
            weights = base * discounts
            residual = 1.0 - float(weights.sum())
            current = self._global_model.state_dict()

        keys = next(iter(self.uploads.values())).keys()
        averaged: Dict[str, np.ndarray] = {}
        for key in keys:
            stacked = np.stack([state[key] for state in self.uploads.values()], axis=0)
            shaped = weights.reshape((-1,) + (1,) * (stacked.ndim - 1))
            averaged[key] = np.sum(stacked * shaped, axis=0)
            if current is not None:
                averaged[key] = averaged[key] + residual * current[key]
            # The weights are float64: under the float32 policy the average
            # must go back to the uploads' dtype before it is broadcast.
            averaged[key] = averaged[key].astype(stacked.dtype, copy=False)
        self._global_model.load_state_dict(averaged)
        self._payload = averaged
        self.last_metrics = {"aggregated_devices": float(len(self.uploads)),
                             **self.staleness_summary()}

    def payload_for(self, device_id: int) -> Dict[str, np.ndarray]:
        return self._payload


class FedAvgStrategy(ParameterServerStrategy):
    """Classical parameter averaging (McMahan et al.): homogeneous devices
    upload full parameters, the server computes a shard-size-weighted
    average (staleness-discounted under reordering schedulers) and
    broadcasts it back.  FedProx reuses this strategy with a non-zero
    on-device proximal term (the ``fedprox`` labelling rides on ``name``).
    """

    name = "fedavg"
    supports_schedulers = ("sync", "deadline", "async")
    supports_server_shards = False

    def __init__(self, server: FedAvgServer, name: Optional[str] = None) -> None:
        super().__init__(server, name=name if name is not None else self.name)


def _build_homogeneous(train_dataset: ImageDataset, test_dataset: ImageDataset,
                       config: FederatedConfig, model_spec: ModelSpec,
                       partitioner: Optional[Partitioner], sampler: Optional[DeviceSampler],
                       prox_mu: float,
                       backend: Optional[ExecutionBackend] = None) -> Simulation:
    config = config.with_strategy("fedavg")
    reference = build_model(model_spec, train_dataset.input_shape,
                            train_dataset.num_classes, seed=config.seed)
    devices = build_devices(
        train_dataset, config,
        [copy.deepcopy(reference) for _ in range(config.num_devices)],
        partitioner=partitioner, prox_mu=prox_mu)
    weights = {device.device_id: float(len(device.dataset)) for device in devices}
    server = FedAvgServer(copy.deepcopy(reference), device_weights=weights)
    return Simulation(devices, config, test_dataset, FedAvgStrategy(server),
                      sampler=sampler, backend=backend)


def build_fedavg(train_dataset: ImageDataset, test_dataset: ImageDataset,
                 config: FederatedConfig,
                 model_spec: ModelSpec = ModelSpec("cnn", {"channels": (16, 32)}),
                 partitioner: Optional[Partitioner] = None,
                 sampler: Optional[DeviceSampler] = None,
                 backend: Optional[ExecutionBackend] = None) -> Simulation:
    """FedAvg: homogeneous devices, weighted parameter averaging, no proximal term."""
    return _build_homogeneous(train_dataset, test_dataset, config, model_spec,
                              partitioner, sampler, prox_mu=0.0, backend=backend)


def build_fedprox(train_dataset: ImageDataset, test_dataset: ImageDataset,
                  config: FederatedConfig, prox_mu: float = 0.01,
                  model_spec: ModelSpec = ModelSpec("cnn", {"channels": (16, 32)}),
                  partitioner: Optional[Partitioner] = None,
                  sampler: Optional[DeviceSampler] = None,
                  backend: Optional[ExecutionBackend] = None) -> Simulation:
    """FedProx: FedAvg plus the on-device ℓ2 proximal regularizer."""
    simulation = _build_homogeneous(train_dataset, test_dataset, config, model_spec,
                                    partitioner, sampler, prox_mu=prox_mu, backend=backend)
    simulation.server.name = "fedprox"
    simulation.strategy.name = "fedprox"
    simulation.history.algorithm = "fedprox"
    return simulation
