"""FedZKT strategy and end-to-end builder (Algorithm 1 of the paper).

:class:`FedZKTStrategy` is the FedZKT central server inside the generic
federated round loop:

* ``collect`` stores the parameters uploaded by active devices;
* ``server_update`` loads them into the server-side replicas of the
  on-device models, runs the bidirectional zero-shot knowledge transfer
  (:class:`repro.core.server_update.ZeroShotDistiller`), and prepares the
  updated per-device parameter payloads;
* ``payload_for`` returns each device's updated parameters, which the
  broadcast phase delivers to **all** devices (stragglers included).

``build_fedzkt`` wires datasets, partitioners, heterogeneous device models,
devices, and the strategy into a ready-to-run
:class:`repro.federated.simulation.Simulation`.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence

import numpy as np

from ..datasets.base import ImageDataset
from ..federated.backend import ExecutionBackend
from ..federated.config import FederatedConfig
from ..federated.device import build_devices
from ..federated.sampling import DeviceSampler
from ..federated.simulation import Simulation
from ..federated.strategy import ParameterServerStrategy
from ..models.base import ClassificationModel
from ..models.generator import Generator
from ..models.registry import build_generator, build_global_model
from ..partition.base import Partitioner
from .server_update import ZeroShotDistiller

__all__ = ["FedZKTStrategy", "build_fedzkt"]


class FedZKTStrategy(ParameterServerStrategy):
    """Zero-shot knowledge transfer (the paper's algorithm, Algorithms 1–3).

    Devices upload full parameters; the server runs the adversarial
    generator / global-model distillation and distils the result back into
    per-device replicas.  The server update runs as shard tasks on the
    simulation's execution backend, split ``ServerConfig.server_shards``
    ways, so this is the one built-in strategy declaring
    ``supports_server_shards``.

    Parameters
    ----------
    global_model:
        The server's knowledge-abundant global model ``F``.
    generator:
        The server-side generator ``G`` trained adversarially against the
        device ensemble.
    device_models:
        Server-side replicas of every device's model architecture, keyed by
        device id.  Uploaded parameters are loaded into these replicas; the
        distiller updates them; their state is sent back to the devices.
    config:
        The federated configuration (its ``server`` section drives the
        distiller).
    """

    name = "fedzkt"
    supports_schedulers = ("sync", "deadline", "async")
    supports_server_shards = True

    def __init__(self, global_model: ClassificationModel, generator: Generator,
                 device_models: Dict[int, ClassificationModel], config: FederatedConfig) -> None:
        super().__init__()
        if not device_models:
            raise ValueError("FedZKT requires at least one device model replica")
        self.global_model = global_model
        self.generator = generator
        self.device_models = dict(device_models)
        self.distiller = ZeroShotDistiller(global_model, generator, config.server,
                                           seed=config.seed + 17)
        self._payloads: Dict[int, Dict[str, np.ndarray]] = {}

    def bind(self, simulation) -> None:
        """Bind to the simulation, and run the server update's shard tasks
        (both phases, split ``config.server.server_shards`` ways per
        dispatch) on its backend."""
        super().bind(simulation)
        self.distiller.bind_backend(simulation.backend)

    def server_update(self, round_index: int, device_ids: Sequence[int]) -> None:
        # Load the freshly uploaded parameters into the server-side replicas.
        # Devices that did not participate keep their last known parameters
        # (which are the ones the server itself distilled last round).  A
        # stale upload (scheduler weight w < 1) is blended into the replica
        # rather than overwriting it: replica <- w * upload + (1 - w) * replica.
        for device_id, state in self.uploads.items():
            if device_id not in self.device_models:
                raise KeyError(f"upload from unknown device {device_id}")
            replica = self.device_models[device_id]
            weight = self.upload_weight(device_id)
            if weight >= 1.0:
                replica.load_state_dict(state)
            else:
                current = replica.state_dict()
                blended = {key: weight * value + (1.0 - weight) * current[key]
                           for key, value in state.items()}
                replica.load_state_dict(blended)

        report = self.distiller.server_update(self.device_models)
        self.last_metrics = {
            "generator_loss": report.get("generator_loss", 0.0),
            "global_loss": report.get("global_loss", 0.0),
            "transfer_loss": report.get("transfer_loss", 0.0),
            "input_gradient_norm": report.get("input_gradient_norm", 0.0),
            "server_parameter_updates": report.get("parameter_updates", 0),
            **self.staleness_summary(),
        }

        # Prepare the payloads: every device receives its updated parameters.
        self._payloads = {
            device_id: model.state_dict() for device_id, model in self.device_models.items()
        }

    def payload_for(self, device_id: int) -> Optional[Dict[str, np.ndarray]]:
        return self._payloads.get(device_id)

    @property
    def server_parameter_updates(self) -> int:
        """Cumulative parameter-gradient evaluations performed by the server."""
        return self.distiller.parameter_updates_total


def build_fedzkt(train_dataset: ImageDataset, test_dataset: ImageDataset,
                 config: FederatedConfig, family: str = "cifar",
                 partitioner: Optional[Partitioner] = None,
                 device_models: Optional[Sequence[ClassificationModel]] = None,
                 sampler: Optional[DeviceSampler] = None,
                 generator: Optional[Generator] = None,
                 global_model: Optional[ClassificationModel] = None,
                 backend: Optional[ExecutionBackend] = None) -> Simulation:
    """Construct a ready-to-run FedZKT simulation.

    Parameters
    ----------
    train_dataset / test_dataset:
        The global train pool (to be partitioned across devices) and the
        held-out test set.
    config:
        Federated configuration.
    family:
        Device-model family: ``"cifar"`` (Models A–E) or ``"small"``.
    partitioner:
        Data partitioner; defaults to IID.
    device_models:
        Optional explicit per-device models (overrides ``family``).
    backend:
        Execution backend for device-side work (default: serial).
    """
    num_classes = train_dataset.num_classes
    input_shape = train_dataset.input_shape
    devices = build_devices(train_dataset, config, device_models, family, partitioner)

    # Server-side replicas share the architectures but are distinct objects:
    # parameters flow only through the explicit upload/download payloads.
    replicas = {device.device_id: copy.deepcopy(device.model) for device in devices}

    global_model = global_model or build_global_model(input_shape, num_classes,
                                                      seed=config.seed + 7)
    generator = generator or build_generator(input_shape, noise_dim=config.server.noise_dim,
                                             seed=config.seed + 13)
    strategy = FedZKTStrategy(global_model, generator, replicas, config)
    return Simulation(devices, config, test_dataset, strategy,
                      sampler=sampler, backend=backend)
