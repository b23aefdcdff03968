"""``repro.core`` — the FedZKT algorithm (the paper's primary contribution).

Zero-shot bidirectional knowledge transfer between a server-side global
model and heterogeneous on-device models, driven by an adversarially
trained generator and the Softmax-ℓ1 disagreement loss.
"""

from .distillation import disagreement_loss, ensemble_mode_for_loss, ensemble_output
from .fedzkt import FedZKTStrategy, build_fedzkt
from .gradient_probe import GradientNormProbe, input_gradient_norms
from .server_tasks import (
    DeviceDistillTask,
    EnsembleForwardTask,
    EnsembleVJPTask,
    partition_shards,
)
from .server_update import DistillationReport, ZeroShotDistiller

__all__ = [
    "disagreement_loss",
    "ensemble_output",
    "ensemble_mode_for_loss",
    "FedZKTStrategy",
    "build_fedzkt",
    "GradientNormProbe",
    "input_gradient_norms",
    "ZeroShotDistiller",
    "DistillationReport",
    "EnsembleForwardTask",
    "EnsembleVJPTask",
    "DeviceDistillTask",
    "partition_shards",
]
