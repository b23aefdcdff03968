"""Quickstart: run FedZKT with five heterogeneous devices on a synthetic dataset.

This is the smallest end-to-end use of the public API:

1. load a synthetic dataset (a stand-in for MNIST);
2. build a FedZKT simulation — heterogeneous on-device models, a server-side
   global model and generator, IID data partitioning;
3. run a few communication rounds and print the learning curve.

Every algorithm runs through the same generic ``Simulation`` engine with
its own strategy: swap ``build_fedzkt`` for ``build_fedavg`` /
``build_fedmd`` / ``build_standalone`` (or pass your own strategy to
``Simulation``, as ``custom_strategy.py`` does) and everything else here
stays the same.  The equivalent CLI one-liner is::

    repro run mnist --algorithm fedzkt --rounds 3

Run with:  python examples/quickstart.py [--rounds N]
"""

import argparse

from repro.core import build_fedzkt
from repro.datasets import load_dataset
from repro.federated import FederatedConfig, ServerConfig
from repro.utils import Timer


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="FedZKT quickstart")
    parser.add_argument("--rounds", type=int, default=3,
                        help="communication rounds (default: 3)")
    args = parser.parse_args(argv)

    # A small synthetic MNIST stand-in (1x16x16 images, 10 classes).
    train, test = load_dataset("mnist", train_size=1200, test_size=300, seed=0)
    print(f"train: {train.describe()}")
    print(f"test:  {test.describe()}")

    # Five devices, server-side zero-shot distillation.
    config = FederatedConfig(
        num_devices=5,
        rounds=args.rounds,
        local_epochs=3,
        batch_size=32,
        device_lr=0.05,
        server=ServerConfig(distillation_iterations=40, batch_size=32,
                            global_lr=0.05, device_distill_lr=0.02),
    )

    simulation = build_fedzkt(train, test, config, family="small")
    print(f"\nstrategy: {simulation.strategy.name} "
          f"(schedulers: {', '.join(simulation.strategy.supports_schedulers)})")
    print("On-device models (independently designed, heterogeneous):")
    for device in simulation.devices:
        print(f"  {device.describe()}")
    print(f"server global model: {simulation.strategy.global_model.describe()}")

    with Timer("training") as timer:
        history = simulation.run(verbose=True)
    print(f"\nfinished in {timer.elapsed:.1f}s")

    print("\nGlobal-model accuracy per round:",
          [f"{acc:.3f}" for acc in history.global_accuracy_curve()])
    print("Mean on-device accuracy per round:",
          [f"{acc:.3f}" for acc in history.mean_device_accuracy_curve()])


if __name__ == "__main__":
    main()
