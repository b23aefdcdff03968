"""Experiment presets: scales and per-experiment configurations.

The paper's full experimental scale (50–100 rounds, 200–500 distillation
iterations, 60k-image datasets) is far beyond what a CPU-only numpy
substrate can run in minutes, so every experiment is parameterized by a
*scale*:

* ``"tiny"``   — used by the benchmark suite; minutes of wall clock, enough
  to reproduce the qualitative shape (who wins, trends across sweeps).
* ``"small"``  — a heavier setting for overnight CPU runs.
* ``"paper"``  — the paper's hyper-parameters (rounds, iterations, device
  counts); provided for completeness.  An experiment run records its scale
  in the ``manifest.json`` it writes next to ``metrics.jsonl`` and
  ``summary.json`` (see :func:`repro.experiments.run_experiment`).

All experiment runners accept a :class:`ExperimentScale` and derive their
:class:`repro.federated.FederatedConfig` from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..federated.config import (
    FederatedConfig,
    HeterogeneityConfig,
    SchedulerConfig,
    ServerConfig,
)

__all__ = ["ExperimentScale", "SCALES", "get_scale", "federated_config_for"]


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by every experiment runner.

    Attributes
    ----------
    name:
        Scale identifier (``tiny`` / ``small`` / ``paper``).
    rounds_small / rounds_cifar:
        Communication rounds for the MNIST-family and CIFAR-family datasets
        (the paper uses 50 and 100 respectively).
    local_epochs_small / local_epochs_cifar:
        On-device epochs per round (paper: 5 and 10).
    distillation_iterations_small / distillation_iterations_cifar:
        Server distillation iterations per round (paper: 200 and 500).
    num_devices:
        Default number of devices (paper default: 10).
    train_size / test_size / public_size:
        Synthetic dataset sizes (the paper uses the full 50–60k corpora).
    batch_size / server_batch_size:
        On-device and server batch sizes (paper: 256).
    device_lr / global_lr / device_distill_lr / generator_lr:
        Learning rates; the paper uses 0.01 SGD on devices and the global
        model and 0.001 Adam for the generator.  The reduced scales use a
        slightly higher device/global LR because they take far fewer steps.
    """

    name: str
    rounds_small: int
    rounds_cifar: int
    local_epochs_small: int
    local_epochs_cifar: int
    distillation_iterations_small: int
    distillation_iterations_cifar: int
    num_devices: int
    train_size: int
    test_size: int
    public_size: int
    batch_size: int
    server_batch_size: int
    device_lr: float
    global_lr: float
    device_distill_lr: float
    generator_lr: float
    image_size: int = 16

    def rounds_for(self, family: str) -> int:
        return self.rounds_small if family == "small" else self.rounds_cifar

    def local_epochs_for(self, family: str) -> int:
        return self.local_epochs_small if family == "small" else self.local_epochs_cifar

    def distillation_iterations_for(self, family: str) -> int:
        return (self.distillation_iterations_small if family == "small"
                else self.distillation_iterations_cifar)


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny",
        rounds_small=2, rounds_cifar=2,
        local_epochs_small=3, local_epochs_cifar=2,
        distillation_iterations_small=30, distillation_iterations_cifar=18,
        num_devices=5,
        train_size=600, test_size=180, public_size=250,
        batch_size=32, server_batch_size=32,
        device_lr=0.05, global_lr=0.05, device_distill_lr=0.02, generator_lr=1e-3,
    ),
    "small": ExperimentScale(
        name="small",
        rounds_small=10, rounds_cifar=8,
        local_epochs_small=4, local_epochs_cifar=4,
        distillation_iterations_small=80, distillation_iterations_cifar=60,
        num_devices=10,
        train_size=3000, test_size=600, public_size=1000,
        batch_size=32, server_batch_size=32,
        device_lr=0.03, global_lr=0.03, device_distill_lr=0.02, generator_lr=1e-3,
    ),
    "paper": ExperimentScale(
        name="paper",
        rounds_small=50, rounds_cifar=100,
        local_epochs_small=5, local_epochs_cifar=10,
        distillation_iterations_small=200, distillation_iterations_cifar=500,
        num_devices=10,
        train_size=50000, test_size=10000, public_size=10000,
        batch_size=256, server_batch_size=256,
        device_lr=0.01, global_lr=0.01, device_distill_lr=0.01, generator_lr=1e-3,
        image_size=32,
    ),
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    key = name.lower()
    if key not in SCALES:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")
    return SCALES[key]


def federated_config_for(scale: ExperimentScale, family: str, *, num_devices: int = None,
                         participation_fraction: float = 1.0, prox_mu: float = 0.0,
                         distillation_loss: str = "sl", seed: int = 0,
                         rounds: int = None, local_epochs: int = None,
                         distillation_iterations: int = None,
                         server_shards: int = 1,
                         scheduler: SchedulerConfig = None,
                         heterogeneity: HeterogeneityConfig = None,
                         cohort_fusion: bool = False,
                         numeric_policy: str = "float64") -> FederatedConfig:
    """Build a :class:`FederatedConfig` for a dataset family at a given scale.

    ``scheduler`` / ``heterogeneity`` select the round-scheduling policy and
    the device timing model (both default to the synchronous, homogeneous
    historical behaviour); ``server_shards`` is how many shard tasks each
    FedZKT server-update dispatch splits into on the execution backend.
    ``numeric_policy`` picks the floating dtype every model in the run is
    built and trained with (``"float64"``, the bit-identity tier, or the
    faster ``"float32"``).
    """
    server = ServerConfig(
        distillation_iterations=(distillation_iterations
                                 if distillation_iterations is not None
                                 else scale.distillation_iterations_for(family)),
        batch_size=scale.server_batch_size,
        generator_lr=scale.generator_lr,
        global_lr=scale.global_lr,
        device_distill_lr=scale.device_distill_lr,
        distillation_loss=distillation_loss,
        server_shards=server_shards,
    )
    return FederatedConfig(
        num_devices=num_devices if num_devices is not None else scale.num_devices,
        rounds=rounds if rounds is not None else scale.rounds_for(family),
        local_epochs=local_epochs if local_epochs is not None else scale.local_epochs_for(family),
        batch_size=scale.batch_size,
        device_lr=scale.device_lr,
        device_momentum=0.9,
        participation_fraction=participation_fraction,
        prox_mu=prox_mu,
        seed=seed,
        server=server,
        scheduler=scheduler if scheduler is not None else SchedulerConfig(),
        heterogeneity=heterogeneity if heterogeneity is not None else HeterogeneityConfig(),
        cohort_fusion=cohort_fusion,
        numeric_policy=numeric_policy,
    )
