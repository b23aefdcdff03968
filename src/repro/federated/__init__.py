"""``repro.federated`` — the federated-learning substrate.

Devices (local training, parameter exchange), the strategy interface
every algorithm implements, active-device sampling (stragglers), the round schedulers
(synchronous / deadline / async) that drive Algorithm 1's phases on a
simulated clock, the device heterogeneity model, per-round history, and
resource accounting.
"""

from .backend import BACKENDS, ExecutionBackend, SerialBackend, WorkerContext, make_backend
from .config import FederatedConfig, HeterogeneityConfig, SchedulerConfig, ServerConfig
from .cohort import Cohort, CohortPlan, plan_cohorts
from .device import Device, LocalTrainingReport
from .heterogeneity import HeterogeneityModel
from .history import RoundRecord, TrainingHistory
from .trainer import DeviceTrainingConfig, evaluate_accuracy, local_sgd_train
from .metrics import (
    CommunicationReport,
    communication_report,
    device_compute_estimate,
    model_size_bytes,
    resource_split_summary,
)
from .sampling import DeviceSampler, FixedSampler, UniformSampler
from .scheduler import (
    AsyncBufferedScheduler,
    DeadlineScheduler,
    RoundScheduler,
    SynchronousScheduler,
    UploadMeta,
    make_scheduler,
)
from .simulation import Simulation
from .strategy import ParameterServerStrategy, Strategy

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkerContext",
    "BACKENDS",
    "make_backend",
    "SchedulerConfig",
    "HeterogeneityConfig",
    "HeterogeneityModel",
    "RoundScheduler",
    "SynchronousScheduler",
    "DeadlineScheduler",
    "AsyncBufferedScheduler",
    "make_scheduler",
    "UploadMeta",
    "DeviceTrainingConfig",
    "evaluate_accuracy",
    "local_sgd_train",
    "FederatedConfig",
    "ServerConfig",
    "Device",
    "LocalTrainingReport",
    "Cohort",
    "CohortPlan",
    "plan_cohorts",
    "RoundRecord",
    "TrainingHistory",
    "DeviceSampler",
    "UniformSampler",
    "FixedSampler",
    "Simulation",
    "Strategy",
    "ParameterServerStrategy",
    "CommunicationReport",
    "communication_report",
    "model_size_bytes",
    "device_compute_estimate",
    "resource_split_summary",
]


def __getattr__(name):
    # ``process:N`` runs on repro.net, which imports this package: resolve
    # its backend class on first use rather than in the import cycle.
    if name == "ProcessPoolBackend":
        from ..net.backend import ProcessPoolBackend

        return ProcessPoolBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
