"""Loss-function ablation: SL vs KL vs raw-logit ℓ1 for zero-shot distillation.

Reproduces the spirit of Table II and Figure 2: run FedZKT with each of the
three candidate disagreement losses under non-IID data and also probe the
norm of the loss gradients with respect to the synthesized inputs (the
quantity behind the paper's two hypotheses).

Run with:  python examples/loss_ablation.py
"""

from repro.core import build_fedzkt, input_gradient_norms
from repro.datasets import load_dataset
from repro.federated import FederatedConfig, ServerConfig
from repro.partition import QuantityLabelSkewPartitioner


def make_config(loss_name: str) -> FederatedConfig:
    return FederatedConfig(
        num_devices=5,
        rounds=2,
        local_epochs=3,
        batch_size=32,
        device_lr=0.05,
        prox_mu=0.05,
        server=ServerConfig(distillation_iterations=30, batch_size=32, global_lr=0.05,
                            device_distill_lr=0.02, distillation_loss=loss_name),
    )


def main() -> None:
    train, test = load_dataset("mnist", train_size=1000, test_size=250, seed=0)

    accuracies = {}
    last_simulation = None
    for loss_name in ("kl", "l1", "sl"):
        partitioner = QuantityLabelSkewPartitioner(5, classes_per_device=5, seed=0)
        simulation = build_fedzkt(train, test, make_config(loss_name), family="small",
                                  partitioner=partitioner)
        history = simulation.run()
        accuracies[loss_name] = history.best_global_accuracy()
        last_simulation = simulation
        print(f"{loss_name.upper():3s} loss: best global accuracy {accuracies[loss_name]:.3f}")

    print("\nTable II shape: SL >= KL and SL >> l1 on the paper's CIFAR-10 runs.")

    # Figure 2-style probe: gradient norms w.r.t. the generator's samples.
    strategy = last_simulation.strategy
    samples = strategy.generator.generate(32, rng=__import__("numpy").random.default_rng(0))
    norms = input_gradient_norms(strategy.global_model, list(strategy.device_models.values()),
                                 samples.data)
    print("\nInput-gradient norms on current models (Fig. 2 ordering: kl <= sl <= l1):")
    for name, value in sorted(norms.items()):
        print(f"  {name}: {value:.4g}")


if __name__ == "__main__":
    main()
