"""Tests for the FedMD, FedAvg/FedProx, and standalone-bound baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    FedAvgServer,
    FedMDStrategy,
    build_fedavg,
    build_fedmd,
    build_fedprox,
    compute_bounds,
    train_standalone,
)
from repro.federated import Simulation
from repro.federated.trainer import compute_public_logits, digest_on_public, evaluate_accuracy
from repro.models import ModelSpec, SimpleCNN
from repro.partition import IIDPartitioner

SHAPE = (3, 8, 8)
CLASSES = 4


class TestFedMD:
    def test_round_updates_devices_and_records_metrics(self, micro_config, tiny_rgb_dataset,
                                                       tiny_test_dataset):
        simulation = build_fedmd(tiny_rgb_dataset, tiny_test_dataset, tiny_rgb_dataset,
                                 micro_config, family="small",
                                 device_models=[SimpleCNN(SHAPE, CLASSES, channels=(4, 8),
                                                          hidden_size=16, seed=i)
                                                for i in range(micro_config.num_devices)])
        record = simulation.run_round(1)
        assert len(record.device_accuracies) == micro_config.num_devices
        assert "digest_loss" in record.server_metrics
        assert record.server_metrics["public_dataset"] == tiny_rgb_dataset.name

    def test_run_includes_warmup_and_all_rounds(self, micro_config, tiny_rgb_dataset,
                                                tiny_test_dataset):
        simulation = build_fedmd(tiny_rgb_dataset, tiny_test_dataset, tiny_rgb_dataset,
                                 micro_config, family="small",
                                 device_models=[SimpleCNN(SHAPE, CLASSES, channels=(4, 8),
                                                          hidden_size=16, seed=i)
                                                for i in range(micro_config.num_devices)])
        history = simulation.run(rounds=2)
        assert len(history) == 2
        assert history.algorithm == "fedmd"
        assert history.final_global_accuracy() is None  # FedMD has no global model

    def test_digest_pulls_logits_toward_consensus(self, micro_config, tiny_rgb_dataset,
                                                  tiny_test_dataset):
        simulation = build_fedmd(tiny_rgb_dataset, tiny_test_dataset, tiny_rgb_dataset,
                                 micro_config, family="small",
                                 device_models=[SimpleCNN(SHAPE, CLASSES, channels=(4, 8),
                                                          hidden_size=16, seed=i)
                                                for i in range(micro_config.num_devices)],
                                 digest_epochs=2)
        device, strategy, config = simulation.devices[0], simulation.strategy, simulation.config
        consensus = np.zeros((len(tiny_rgb_dataset), CLASSES))
        before = compute_public_logits(device.model, strategy.public_dataset)
        digest_on_public(device.model, strategy.public_dataset, consensus,
                         lr=config.server.device_distill_lr,
                         batch_size=config.batch_size, epochs=strategy.digest_epochs,
                         rng=np.random.default_rng(strategy._digest_seed(device.device_id)))
        after = compute_public_logits(device.model, strategy.public_dataset)
        assert np.abs(after).mean() < np.abs(before).mean()

    def test_strategy_helpers_are_not_simulation_attributes(self, micro_config,
                                                            tiny_rgb_dataset, tiny_test_dataset):
        # A simulation forwards nothing: strategy internals are reached
        # through ``simulation.strategy``.
        simulation = build_fedmd(tiny_rgb_dataset, tiny_test_dataset, tiny_rgb_dataset,
                                 micro_config, family="small",
                                 device_models=[SimpleCNN(SHAPE, CLASSES, channels=(4,),
                                                          hidden_size=8, seed=i)
                                                for i in range(micro_config.num_devices)])
        assert hasattr(simulation.strategy, "_digest_seed")
        with pytest.raises(AttributeError,
                           match="'Simulation' object has no attribute '_digest_seed'"):
            simulation._digest_seed

    def test_requires_devices(self, micro_config, tiny_rgb_dataset, tiny_test_dataset):
        with pytest.raises(ValueError):
            Simulation([], micro_config, tiny_test_dataset, FedMDStrategy(tiny_rgb_dataset))


class TestFedAvgFedProx:
    def test_fedavg_aggregation_is_weighted_average(self):
        model_a = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0)
        model_b = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=1)
        server = FedAvgServer(SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=2),
                              device_weights={0: 1.0, 1: 3.0})
        server.collect(0, model_a.state_dict())
        server.collect(1, model_b.state_dict())
        server.aggregate(1, [0, 1])
        payload = server.payload_for(0)
        key = "classifier.1.weight"
        expected = 0.25 * model_a.state_dict()[key] + 0.75 * model_b.state_dict()[key]
        np.testing.assert_allclose(payload[key], expected)

    def test_fedavg_no_uploads_keeps_global(self):
        reference = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0)
        server = FedAvgServer(reference)
        before = reference.state_dict()
        server.aggregate(1, [])
        after = server.payload_for(0)
        for key in before:
            np.testing.assert_allclose(before[key], after[key])

    def test_fedavg_simulation_improves_over_rounds(self, micro_config, tiny_rgb_dataset,
                                                    tiny_test_dataset):
        config = micro_config.with_overrides(rounds=3, local_epochs=2)
        simulation = build_fedavg(tiny_rgb_dataset, tiny_test_dataset, config,
                                  model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                               "hidden_size": 16}))
        history = simulation.run()
        curve = history.global_accuracy_curve()
        assert len(curve) == 3
        assert curve[-1] >= 1.0 / CLASSES - 0.05  # at least chance level by the end

    def test_fedprox_uses_proximal_devices(self, micro_config, tiny_rgb_dataset,
                                           tiny_test_dataset):
        simulation = build_fedprox(tiny_rgb_dataset, tiny_test_dataset, micro_config,
                                   prox_mu=0.5,
                                   model_spec=ModelSpec("cnn", {"channels": (4,),
                                                                "hidden_size": 8}))
        assert simulation.history.algorithm == "fedprox"
        assert all(device.prox_mu == 0.5 for device in simulation.devices)


class TestStandalone:
    def test_train_standalone_improves_accuracy(self, tiny_rgb_dataset, tiny_test_dataset):
        model = SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=0)
        before = evaluate_accuracy(model, tiny_test_dataset)
        train_standalone(model, tiny_rgb_dataset, epochs=5, lr=0.05, batch_size=16, seed=0)
        after = evaluate_accuracy(model, tiny_test_dataset)
        assert after >= before

    def test_compute_bounds_upper_generally_beats_lower(self, tiny_rgb_dataset, tiny_test_dataset):
        models = [SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=i)
                  for i in range(2)]
        shards = IIDPartitioner(2, seed=0).partition(tiny_rgb_dataset)
        bounds = compute_bounds(models, shards, tiny_rgb_dataset, tiny_test_dataset,
                                epochs=3, lr=0.05, batch_size=16, seed=0,
                                labels=["Model A", "Model B"])
        assert len(bounds) == 2
        assert bounds[0].architecture == "Model A"
        mean_upper = np.mean([b.upper_bound for b in bounds])
        mean_lower = np.mean([b.lower_bound for b in bounds])
        assert mean_upper >= mean_lower - 0.1
        as_dict = bounds[0].as_dict()
        assert {"device_id", "architecture", "lower_bound", "upper_bound"} == set(as_dict)

    def test_compute_bounds_alignment_check(self, tiny_rgb_dataset, tiny_test_dataset):
        with pytest.raises(ValueError):
            compute_bounds([SimpleCNN(SHAPE, CLASSES, seed=0)], [], tiny_rgb_dataset,
                           tiny_test_dataset, epochs=1)

    def test_compute_bounds_does_not_mutate_inputs(self, tiny_rgb_dataset, tiny_test_dataset):
        model = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0)
        original = model.state_dict()
        shards = IIDPartitioner(1, seed=0).partition(tiny_rgb_dataset)
        compute_bounds([model], shards, tiny_rgb_dataset, tiny_test_dataset, epochs=1,
                       batch_size=16)
        for key, value in model.state_dict().items():
            np.testing.assert_allclose(value, original[key])
