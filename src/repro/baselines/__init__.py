"""``repro.baselines`` — comparison algorithms and reference bounds.

* FedMD — the paper's primary heterogeneous-model baseline (public-dataset
  logit consensus);
* FedAvg / FedProx — classical homogeneous-model references;
* standalone lower/upper bounds (Table III).
"""

from .fedavg import FedAvgServer, FedAvgStrategy, build_fedavg, build_fedprox
from .fedmd import FedMDStrategy, build_fedmd
from .standalone import (
    StandaloneBounds,
    StandaloneStrategy,
    build_standalone,
    compute_bounds,
    train_standalone,
)

__all__ = [
    "FedAvgServer",
    "FedAvgStrategy",
    "build_fedavg",
    "build_fedprox",
    "FedMDStrategy",
    "build_fedmd",
    "StandaloneBounds",
    "StandaloneStrategy",
    "build_standalone",
    "compute_bounds",
    "train_standalone",
]
