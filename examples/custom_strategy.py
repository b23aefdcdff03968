"""Writing a new algorithm as a strategy.

A new algorithm is a :class:`~repro.federated.Strategy` subclass (or a
subclass of an existing strategy) passed to ``Simulation``; the generic
engine — with every scheduler and execution backend — drives it.

This example builds **median-FedAvg**: parameter averaging with the
coordinate-wise *median* instead of the weighted mean (a classic
robust-aggregation variant — a single corrupted upload cannot drag the
global model arbitrarily far).  Everything except the server update is
inherited from :class:`~repro.baselines.FedAvgStrategy`: uploads,
broadcast of the global parameters, global-model evaluation.

Run with:  python examples/custom_strategy.py
"""

import copy

import numpy as np

from repro.baselines import FedAvgStrategy
from repro.datasets import load_dataset
from repro.federated import Device, FederatedConfig, Simulation
from repro.models import ModelSpec
from repro.models.registry import build_model
from repro.partition import IIDPartitioner


class MedianFedAvgStrategy(FedAvgStrategy):
    """Robust parameter averaging: coordinate-wise median of the uploads."""

    name = "fedmedian"
    supports_schedulers = ("sync",)  # the median ignores staleness weights

    def server_update(self, round_index, device_ids):
        if not self.uploads:
            self._payload = self.global_model.state_dict()
            self.last_metrics = {"aggregated_devices": 0.0}
            return
        aggregated = {
            key: np.median(np.stack([state[key] for state in self.uploads.values()],
                                    axis=0), axis=0)
            for key in next(iter(self.uploads.values()))
        }
        self.global_model.load_state_dict(aggregated)
        self._payload = aggregated
        self.last_metrics = {"aggregated_devices": float(len(self.uploads))}


def main() -> None:
    train, test = load_dataset("mnist", train_size=800, test_size=200, seed=0)
    config = FederatedConfig(num_devices=4, rounds=3, local_epochs=2, batch_size=32,
                             device_lr=0.05, seed=0)

    spec = ModelSpec("cnn", {"channels": (8, 16)})
    reference = build_model(spec, train.input_shape, train.num_classes, seed=0)
    shards = IIDPartitioner(config.num_devices, seed=0).partition(train)
    devices = [Device(device_id=i, model=copy.deepcopy(reference), dataset=shard,
                      lr=config.device_lr, batch_size=config.batch_size, seed=1000 + i)
               for i, shard in enumerate(shards)]

    strategy = MedianFedAvgStrategy(copy.deepcopy(reference))
    with Simulation(devices, config, test, strategy) as simulation:
        history = simulation.run(verbose=True)

    print(f"\n{history.algorithm}: global-model accuracy per round",
          [f"{acc:.3f}" for acc in history.global_accuracy_curve()])


if __name__ == "__main__":
    main()
