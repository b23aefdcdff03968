"""Resource-accounting metrics for the federated setting.

The paper's motivation is resource-constrained participation: FedZKT pushes
the compute-intensive distillation to the server so devices only pay for
plain local SGD plus one parameter upload/download per round.  These
helpers quantify that split (used by the compute-split ablation bench and
reported in experiment summaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..models.base import ClassificationModel
from .device import Device

__all__ = [
    "CommunicationReport",
    "communication_report",
    "model_size_bytes",
    "device_compute_estimate",
    "resource_split_summary",
]

_BYTES_PER_PARAMETER = 8  # float64 in this substrate; 4 for float32 deployments.


@dataclass
class CommunicationReport:
    """Total upload/download volume per device (in parameters and bytes)."""

    uploaded_parameters: Dict[int, int]
    downloaded_parameters: Dict[int, int]

    @property
    def total_uploaded(self) -> int:
        return int(sum(self.uploaded_parameters.values()))

    @property
    def total_downloaded(self) -> int:
        return int(sum(self.downloaded_parameters.values()))

    def uploaded_bytes(self, device_id: int) -> int:
        return self.uploaded_parameters.get(device_id, 0) * _BYTES_PER_PARAMETER

    def downloaded_bytes(self, device_id: int) -> int:
        return self.downloaded_parameters.get(device_id, 0) * _BYTES_PER_PARAMETER

    def as_dict(self) -> Dict[str, object]:
        return {
            "uploaded_parameters": dict(self.uploaded_parameters),
            "downloaded_parameters": dict(self.downloaded_parameters),
            "total_uploaded": self.total_uploaded,
            "total_downloaded": self.total_downloaded,
        }


def communication_report(devices: Iterable[Device]) -> CommunicationReport:
    """Collect cumulative upload/download counters from the devices."""
    uploads = {}
    downloads = {}
    for device in devices:
        uploads[device.device_id] = device.uploaded_parameters
        downloads[device.device_id] = device.downloaded_parameters
    return CommunicationReport(uploads, downloads)


def model_size_bytes(model: ClassificationModel) -> int:
    """Size of a model's parameters in bytes (the on-device memory budget)."""
    return model.num_parameters() * _BYTES_PER_PARAMETER


def device_compute_estimate(model: ClassificationModel, samples: int, epochs: int,
                            rounds: int, batch_size: int = 32) -> int:
    """Rough device-side work estimate: parameter-gradient evaluations.

    Work is counted in optimizer steps × parameters (the same unit the
    server-side distiller reports): ``parameters × ceil(samples/batch) ×
    epochs × rounds``.  This is the quantity that scales with on-device
    capability and is what FedZKT keeps small relative to the server's
    distillation workload.
    """
    steps_per_epoch = int(np.ceil(samples / max(1, batch_size)))
    return int(model.num_parameters()) * steps_per_epoch * int(epochs) * int(rounds)


def resource_split_summary(devices: Sequence[Device], server_parameter_updates: int,
                           rounds: int, local_epochs: int) -> Dict[str, object]:
    """Summarize device-side vs server-side workloads for one run.

    Parameters
    ----------
    devices:
        The federated devices after a run.
    server_parameter_updates:
        Total parameter-gradient evaluations performed by the server
        (reported by the FedZKT server's distillation engine).
    """
    per_device = []
    for device in devices:
        estimate = device_compute_estimate(device.model, len(device.dataset), local_epochs, rounds,
                                           batch_size=device.training_config.batch_size)
        per_device.append({
            "device_id": device.device_id,
            "model_parameters": device.model.num_parameters(),
            "model_bytes": model_size_bytes(device.model),
            "compute_estimate": estimate,
        })
    device_total = int(sum(entry["compute_estimate"] for entry in per_device))
    return {
        "per_device": per_device,
        "device_total_compute": device_total,
        "server_total_compute": int(server_parameter_updates),
        "server_to_device_ratio": (
            float(server_parameter_updates) / device_total if device_total else float("inf")
        ),
        "communication": communication_report(devices).as_dict(),
    }
