"""Configuration dataclasses for federated experiments.

A single :class:`FederatedConfig` captures every knob of the paper's
federated setting (Section IV-A3): number of devices, communication rounds,
local epochs, batch size, learning rates, participation fraction (straggler
portion ``p``), distillation iterations, and the on-device ℓ2 proximal
coefficient.  The experiment harness builds these from per-table presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

__all__ = [
    "FederatedConfig",
    "ServerConfig",
    "SchedulerConfig",
    "HeterogeneityConfig",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Round-scheduling policy (see :mod:`repro.federated.scheduler`).

    Attributes
    ----------
    kind:
        ``"sync"`` (lockstep rounds, the default and historical behaviour),
        ``"deadline"`` (straggler-aware: a round aggregates whichever
        uploads land before a simulated deadline; late uploads carry
        staleness), or ``"async"`` (FedBuff-style buffered asynchronous
        aggregation every ``buffer_size`` arrivals).
    deadline:
        Simulated-time budget per round for the deadline scheduler,
        expressed in units of the *fastest* device's local-training time
        (a device with compute-speed multiplier ``m`` takes ``m`` simulated
        seconds per dispatch, plus network latency).
    buffer_size:
        Number of arrivals the async scheduler buffers before aggregating.
    staleness_alpha:
        Exponent of the staleness discount ``1 / (1 + s) ** alpha`` applied
        to uploads that are ``s`` rounds (or server versions) late.
    """

    kind: str = "sync"
    deadline: float = 1.5
    buffer_size: int = 2
    staleness_alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("sync", "deadline", "async"):
            raise ValueError(f"unknown scheduler kind {self.kind!r}; "
                             "use 'sync', 'deadline', or 'async'")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if self.staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")


@dataclass(frozen=True)
class HeterogeneityConfig:
    """Device heterogeneity model (see :mod:`repro.federated.heterogeneity`).

    All draws derive deterministically from the federated config seed, so
    heterogeneous runs are reproducible across repeats and across execution
    backends.

    Attributes
    ----------
    speed_skew:
        Compute-time ratio between the slowest and the fastest device
        (``1.0`` = homogeneous fleet).  Per-device multipliers are
        log-spaced over ``[1, speed_skew]`` and shuffled by the seed.
    latency_mean:
        Mean simulated network latency added to each upload (``0`` disables
        latency draws).
    latency_sigma:
        Sigma of the lognormal latency distribution.
    dropout_rate:
        Per-(device, round) probability that a device is unavailable.
    """

    speed_skew: float = 1.0
    latency_mean: float = 0.0
    latency_sigma: float = 0.5
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_skew < 1.0:
            raise ValueError("speed_skew must be >= 1")
        if self.latency_mean < 0 or self.latency_sigma < 0:
            raise ValueError("latency parameters must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def is_homogeneous(self) -> bool:
        """True when the config describes the ideal (no-skew) fleet."""
        return (self.speed_skew == 1.0 and self.latency_mean == 0.0
                and self.dropout_rate == 0.0)


@dataclass(frozen=True)
class ServerConfig:
    """Server-side (distillation) hyper-parameters.

    Attributes
    ----------
    distillation_iterations:
        Number of adversarial generator/global-model iterations per round
        (``n_D`` in Algorithm 3); the paper uses 200 for the small datasets
        and 500 for CIFAR-10.
    transfer_iterations:
        Number of back-transfer iterations distilling the global model into
        the on-device models; defaults to ``distillation_iterations``.
    batch_size:
        Batch size of generated samples per distillation step (paper: 256).
    generator_lr:
        Adam learning rate for the generator (paper: 0.001).
    global_lr:
        SGD learning rate for the global model (paper: 0.01).
    device_distill_lr:
        Learning rate of the back-transfer (Eq. 8): SGD with momentum 0.9
        distilling the global model into every on-device model, each
        device's momentum persisting across rounds.
    lr_decay_gamma / lr_decay_milestones:
        Learning-rate decay applied at fractions of the total iterations
        (paper: ×0.3 at 1/2 and 3/4).
    noise_dim:
        Latent dimension of the generator input noise.
    distillation_loss:
        Disagreement loss between the global model and the ensemble:
        ``"sl"`` (paper default), ``"kl"``, or ``"l1"``.
    global_steps_per_generator_step:
        How many global-model (student) updates are performed per generator
        update.  This departs from Algorithm 3, which alternates the two
        1:1: giving the student several steps per generator step keeps the
        adversarial game from saturating at small iteration budgets (see
        ``docs/architecture.md``).  Set it to 1 for the literal algorithm.
    server_shards:
        Number of shard tasks each server-update dispatch splits into on
        the simulation's execution backend (``1`` is one task).
        Teacher-ensemble evaluation (Phase 1) and per-device back-transfer
        (Phase 2) shard over models; results are reduced on the driver in
        model order, so every shard count is bit-identical (see
        :mod:`repro.core.server_tasks`).
    """

    distillation_iterations: int = 20
    transfer_iterations: Optional[int] = None
    batch_size: int = 32
    generator_lr: float = 1e-3
    global_lr: float = 0.01
    device_distill_lr: float = 0.01
    lr_decay_gamma: float = 0.3
    lr_decay_milestones: tuple = (0.5, 0.75)
    noise_dim: int = 64
    distillation_loss: str = "sl"
    global_steps_per_generator_step: int = 5
    server_shards: int = 1

    def __post_init__(self) -> None:
        if self.server_shards < 1:
            raise ValueError("server_shards must be at least 1")

    @property
    def effective_transfer_iterations(self) -> int:
        return self.transfer_iterations if self.transfer_iterations is not None else self.distillation_iterations


@dataclass(frozen=True)
class FederatedConfig:
    """Full configuration of a federated learning run.

    Attributes
    ----------
    num_devices:
        Number of participating devices (K); the paper sweeps {5,10,15,20}.
    rounds:
        Total communication rounds (T); paper: 50 small / 100 CIFAR-10.
    local_epochs:
        On-device training epochs per round (T_l); paper: 5 small / 10 CIFAR.
    batch_size:
        On-device mini-batch size (paper: 256; scaled down here).
    device_lr:
        On-device SGD learning rate (paper: 0.01).
    device_momentum / device_weight_decay:
        On-device SGD momentum and weight decay (paper: 0 / 5e-4 for CIFAR).
    participation_fraction:
        Fraction ``p`` of devices active each round (straggler study, Fig 6).
    prox_mu:
        Coefficient of the ℓ2 proximal regularizer of Eq. 9 (0 disables it).
    seed:
        Master seed; all randomness (partitioning, sampling, init) derives
        from it.
    server:
        Server-side distillation configuration.
    scheduler:
        Round-scheduling policy (sync / deadline / async).
    heterogeneity:
        Device compute-speed, latency, and availability model.
    cohort_fusion:
        Opt-in: merge each round's same-key device tasks — training (FedMD
        digests included), evaluation and FedMD's public-logit sweeps — into
        one dispatch unit (a :class:`~repro.federated.cohort.Cohort`) that
        runs them stacked, bit-identical to the per-device path.  Only
        exact-signature devices with equal shard sizes and training
        configs train together; heterogeneous or batch-incompatible groups
        stay per device.  The trade is fewer, larger tasks against worker
        parallelism.  The flag only groups device tasks for dispatch: the
        FedZKT server phases always stack same-signature groups inside a
        shard task.
    numeric_policy:
        Floating dtype tier the run computes in: ``"float64"`` (default —
        the dtype the bit-identity contract and golden fixtures are defined
        over) or ``"float32"`` (half the bytes, roughly double the GEMM
        throughput; deterministic across repeats and backends but outside
        the bit-identity contract).  The experiment runner activates the
        policy for the run's duration and workers apply it with the
        published context (CLI: ``--dtype float32``).
    """

    num_devices: int = 10
    rounds: int = 10
    local_epochs: int = 2
    batch_size: int = 32
    device_lr: float = 0.01
    device_momentum: float = 0.9
    device_weight_decay: float = 0.0
    participation_fraction: float = 1.0
    prox_mu: float = 0.0
    seed: int = 0
    server: ServerConfig = field(default_factory=ServerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    heterogeneity: HeterogeneityConfig = field(default_factory=HeterogeneityConfig)
    cohort_fusion: bool = False
    numeric_policy: str = "float64"

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        if not isinstance(self.cohort_fusion, bool):
            raise ValueError(f"cohort_fusion must be True or False, got {self.cohort_fusion!r}")
        if self.numeric_policy not in ("float64", "float32"):
            raise ValueError(
                f"numeric_policy must be 'float64' or 'float32', "
                f"got {self.numeric_policy!r}")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be non-negative")

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, object]:
        """Flat dictionary of the configuration (for experiment reports)."""
        summary = {
            "num_devices": self.num_devices,
            "rounds": self.rounds,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "device_lr": self.device_lr,
            "participation_fraction": self.participation_fraction,
            "prox_mu": self.prox_mu,
            "seed": self.seed,
            "distillation_iterations": self.server.distillation_iterations,
            "distillation_loss": self.server.distillation_loss,
            "server_batch_size": self.server.batch_size,
            "scheduler": self.scheduler.kind,
        }
        if self.server.server_shards > 1:
            summary["server_shards"] = self.server.server_shards
        if self.scheduler.kind == "deadline":
            summary["deadline"] = self.scheduler.deadline
        if self.scheduler.kind == "async":
            summary["buffer_size"] = self.scheduler.buffer_size
        if not self.heterogeneity.is_homogeneous:
            summary["speed_skew"] = self.heterogeneity.speed_skew
            summary["latency_mean"] = self.heterogeneity.latency_mean
            summary["dropout_rate"] = self.heterogeneity.dropout_rate
        if self.cohort_fusion:
            summary["cohort_fusion"] = self.cohort_fusion
        if self.numeric_policy != "float64":
            summary["numeric_policy"] = self.numeric_policy
        return summary
