"""Training history: per-round metrics collected by the simulation loop.

The paper reports several different curves and tables from the same runs —
global-model accuracy (Table I), per-device accuracy (Fig. 5), average
on-device accuracy (Figs. 6/7), and diagnostic quantities such as the norm
of gradients with respect to the generator inputs (Fig. 2).  The history
object records all of them per round so the experiment harness can derive
any table or series afterwards.

Rounds driven by a :mod:`~repro.federated.scheduler` also carry the
simulated wall-clock time at which the round's aggregation happened
(``RoundRecord.sim_time``), so the same history yields wall-clock-vs-
accuracy curves (:meth:`TrainingHistory.accuracy_timeline`,
:meth:`TrainingHistory.time_to_accuracy`) alongside the round-vs-accuracy
curves — the quantity straggler studies actually care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["RoundRecord", "TrainingHistory"]


@dataclass
class RoundRecord:
    """Metrics for one communication round."""

    round_index: int
    global_accuracy: Optional[float] = None
    device_accuracies: Dict[int, float] = field(default_factory=dict)
    active_devices: List[int] = field(default_factory=list)
    local_loss: Optional[float] = None
    server_metrics: Dict[str, float] = field(default_factory=dict)
    #: Simulated wall-clock time at which this round's aggregation happened
    #: (None for histories produced without a scheduler clock).
    sim_time: Optional[float] = None

    @property
    def mean_device_accuracy(self) -> float:
        """Average accuracy over all devices evaluated this round."""
        if not self.device_accuracies:
            return 0.0
        return float(np.mean(list(self.device_accuracies.values())))

    def as_dict(self) -> Dict[str, object]:
        return {
            "round": self.round_index,
            "global_accuracy": self.global_accuracy,
            "mean_device_accuracy": self.mean_device_accuracy,
            "device_accuracies": dict(self.device_accuracies),
            "active_devices": list(self.active_devices),
            "local_loss": self.local_loss,
            "server_metrics": dict(self.server_metrics),
            "sim_time": self.sim_time,
        }


class TrainingHistory:
    """Ordered collection of :class:`RoundRecord` with convenience accessors."""

    def __init__(self, algorithm: str = "", config: Optional[Dict[str, object]] = None) -> None:
        self.algorithm = algorithm
        self.config = dict(config or {})
        self.records: List[RoundRecord] = []

    # ------------------------------------------------------------------ #
    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------ #
    # Series accessors (the paper's learning curves)
    # ------------------------------------------------------------------ #
    def rounds(self) -> List[int]:
        return [record.round_index for record in self.records]

    def global_accuracy_curve(self) -> List[float]:
        """Global-model accuracy per round (Figure 3-style learning curve)."""
        return [record.global_accuracy for record in self.records
                if record.global_accuracy is not None]

    def mean_device_accuracy_curve(self) -> List[float]:
        """Average on-device accuracy per round (Figures 5–7)."""
        return [record.mean_device_accuracy for record in self.records]

    def device_accuracy_curve(self, device_id: int) -> List[float]:
        """Accuracy curve of one device (Figure 5)."""
        return [record.device_accuracies.get(device_id) for record in self.records
                if device_id in record.device_accuracies]

    def server_metric_curve(self, key: str) -> List[float]:
        """Curve of an arbitrary server-side metric (e.g. gradient norms, Fig. 2)."""
        return [record.server_metrics[key] for record in self.records
                if key in record.server_metrics]

    # ------------------------------------------------------------------ #
    # Timeline accessors (simulated wall clock, straggler studies)
    # ------------------------------------------------------------------ #
    def sim_time_curve(self) -> List[Optional[float]]:
        """Simulated wall-clock time per round (None without a scheduler clock)."""
        return [record.sim_time for record in self.records]

    def _metric_value(self, record: RoundRecord, metric: str) -> Optional[float]:
        if metric == "global":
            return record.global_accuracy
        if metric == "mean_device":
            return record.mean_device_accuracy
        if metric == "auto":
            return (record.global_accuracy if record.global_accuracy is not None
                    else record.mean_device_accuracy)
        raise ValueError(f"unknown metric {metric!r}; use 'global', 'mean_device', or 'auto'")

    def accuracy_timeline(self, metric: str = "auto") -> List[Tuple[float, float]]:
        """(sim_time, accuracy) pairs — the wall-clock-vs-accuracy curve.

        Rounds without a recorded ``sim_time`` fall back to their round
        index, so the timeline degrades gracefully for legacy histories.
        """
        points: List[Tuple[float, float]] = []
        for record in self.records:
            value = self._metric_value(record, metric)
            if value is None:
                continue
            time = record.sim_time if record.sim_time is not None else float(record.round_index)
            points.append((float(time), float(value)))
        return points

    def time_to_accuracy(self, target: float, metric: str = "auto") -> Optional[float]:
        """Simulated time at which ``metric`` first reaches ``target`` (or None)."""
        for time, value in self.accuracy_timeline(metric):
            if value >= target:
                return time
        return None

    # ------------------------------------------------------------------ #
    # Scalar summaries (the paper's tables)
    # ------------------------------------------------------------------ #
    def final_global_accuracy(self) -> Optional[float]:
        curve = self.global_accuracy_curve()
        return curve[-1] if curve else None

    def best_global_accuracy(self) -> Optional[float]:
        curve = self.global_accuracy_curve()
        return max(curve) if curve else None

    def final_mean_device_accuracy(self) -> float:
        curve = self.mean_device_accuracy_curve()
        return curve[-1] if curve else 0.0

    def best_mean_device_accuracy(self) -> float:
        curve = self.mean_device_accuracy_curve()
        return max(curve) if curve else 0.0

    def final_device_accuracies(self) -> Dict[int, float]:
        if not self.records:
            return {}
        return dict(self.records[-1].device_accuracies)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Serializable representation (the ``result`` of a ``metrics.jsonl`` line)."""
        return {
            "algorithm": self.algorithm,
            "config": dict(self.config),
            "rounds": [record.as_dict() for record in self.records],
        }

    def summary(self) -> Dict[str, object]:
        """Compact summary of the run's headline numbers."""
        return {
            "algorithm": self.algorithm,
            "rounds": len(self.records),
            "final_global_accuracy": self.final_global_accuracy(),
            "best_global_accuracy": self.best_global_accuracy(),
            "final_mean_device_accuracy": self.final_mean_device_accuracy(),
            "best_mean_device_accuracy": self.best_mean_device_accuracy(),
            "final_sim_time": self.records[-1].sim_time if self.records else None,
        }
