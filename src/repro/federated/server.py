"""Abstract federated server interface.

Algorithms (FedZKT, FedMD, FedAvg, FedProx) differ only in what the server
does between collecting device uploads and broadcasting updates.  A
:class:`~repro.federated.scheduler.RoundScheduler` drives any
:class:`FederatedServer` through the same three-phase round:

1. ``collect``    — receive uploaded parameters from the active devices,
   together with per-upload :class:`UploadMeta` (dispatch round, simulated
   arrival time, staleness, aggregation weight);
2. ``aggregate``  — algorithm-specific server computation; staleness-aware
   servers consult the upload metadata to discount late uploads;
3. ``broadcast``  — return the per-device payloads to deliver.

Synchronous rounds collect every upload with staleness 0 and weight 1.0,
which keeps the historical aggregation rules bit-identical; the deadline
and async schedulers attach staleness-discounted weights to late uploads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..datasets.base import ImageDataset
from ..models.base import ClassificationModel
from .trainer import evaluate_accuracy

__all__ = ["FederatedServer", "GLOBAL_EVAL_BATCH_SIZE", "UploadMeta"]

#: Batch size of the global model's evaluation sweep.
GLOBAL_EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class UploadMeta:
    """Per-upload metadata attached by the round scheduler.

    Attributes
    ----------
    device_id:
        The uploading device.
    dispatch_round:
        Round (or async dispatch event) in which the local training that
        produced this upload started.
    arrival_time:
        Simulated time at which the upload reached the server.
    staleness:
        How many aggregations happened between dispatch and arrival
        (0 = fresh, i.e. the synchronous case).
    weight:
        Aggregation weight assigned by the scheduler's staleness policy
        (``1.0`` for fresh uploads).
    """

    device_id: int
    dispatch_round: int = 0
    arrival_time: float = 0.0
    staleness: int = 0
    weight: float = 1.0


class FederatedServer:
    """Base class for federated servers.

    Subclasses implement :meth:`aggregate` (the algorithm-specific central
    computation) and may override :meth:`payload_for` to control what each
    device receives back.
    """

    #: Human-readable algorithm name recorded in training histories.
    name = "base"

    def __init__(self) -> None:
        self._uploads: Dict[int, Dict[str, np.ndarray]] = {}
        self._upload_meta: Dict[int, UploadMeta] = {}
        self.last_metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Execution-backend plumbing
    # ------------------------------------------------------------------ #
    def bind_backend(self, backend) -> None:
        """Receive the engine's execution backend (called by
        ``RoundEngine.ensure_backend``).

        Servers whose aggregation can shard work across workers — FedZKT's
        zero-shot distillation — override this; the default server-side
        aggregation rules are cheap and ignore it.
        """

    # ------------------------------------------------------------------ #
    # Round phases
    # ------------------------------------------------------------------ #
    def collect(self, device_id: int, state: Dict[str, np.ndarray],
                meta: Optional[UploadMeta] = None) -> None:
        """Receive an uploaded parameter set from an active device.

        ``meta`` carries the scheduler's staleness bookkeeping; when omitted
        (direct synchronous use) the upload is treated as fresh.
        """
        self._uploads[device_id] = state
        self._upload_meta[device_id] = meta if meta is not None else UploadMeta(device_id)

    def aggregate(self, round_index: int, active_devices: List[int],
                  upload_meta: Optional[Dict[int, UploadMeta]] = None) -> None:
        """Run the server-side computation for this round.

        ``upload_meta`` maps device id to the scheduler-attached
        :class:`UploadMeta`; staleness-aware servers use
        :meth:`upload_weight` to discount late uploads.  ``None`` means
        "use whatever :meth:`collect` recorded" (all fresh by default).
        """
        raise NotImplementedError

    def payload_for(self, device_id: int) -> Optional[Dict[str, np.ndarray]]:
        """Parameters to send back to ``device_id`` (None = nothing to send)."""
        raise NotImplementedError

    def finish_round(self) -> None:
        """Clear per-round upload buffers (called by the round scheduler)."""
        self._uploads.clear()
        self._upload_meta.clear()

    # ------------------------------------------------------------------ #
    # Staleness helpers
    # ------------------------------------------------------------------ #
    def upload_weight(self, device_id: int,
                      upload_meta: Optional[Dict[int, UploadMeta]] = None) -> float:
        """The scheduler-assigned aggregation weight for a device's upload."""
        meta = (upload_meta or self._upload_meta).get(device_id)
        return meta.weight if meta is not None else 1.0

    def staleness_summary(self) -> Dict[str, float]:
        """Mean/max staleness of the uploads collected this round."""
        if not self._upload_meta:
            return {"mean_staleness": 0.0, "max_staleness": 0.0}
        staleness = [meta.staleness for meta in self._upload_meta.values()]
        return {"mean_staleness": float(np.mean(staleness)),
                "max_staleness": float(max(staleness))}

    # ------------------------------------------------------------------ #
    # Optional global model
    # ------------------------------------------------------------------ #
    @property
    def global_model(self) -> Optional[ClassificationModel]:
        """The server's global model ``F`` if the algorithm maintains one."""
        return None

    def evaluate_global(self, dataset: ImageDataset) -> Optional[float]:
        """Accuracy of the global model, or None for algorithms without one."""
        model = self.global_model
        if model is None:
            return None
        return evaluate_accuracy(model, dataset, batch_size=GLOBAL_EVAL_BATCH_SIZE)

    # ------------------------------------------------------------------ #
    @property
    def uploads(self) -> Dict[int, Dict[str, np.ndarray]]:
        """Device uploads collected so far this round."""
        return self._uploads

    @property
    def upload_meta(self) -> Dict[int, UploadMeta]:
        """Metadata of the uploads collected so far this round."""
        return self._upload_meta
