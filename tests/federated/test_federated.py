"""Tests for the federated substrate: devices, sampling, history, metrics, config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import (
    Device,
    FederatedConfig,
    FixedSampler,
    RoundRecord,
    ServerConfig,
    TrainingHistory,
    UniformSampler,
    communication_report,
    device_compute_estimate,
    model_size_bytes,
    resource_split_summary,
)
from repro.federated.trainer import evaluate_accuracy
from repro.models import SimpleCNN
from repro.nn import Tensor


def _device(dataset, device_id=0, prox_mu=0.0, lr=0.05):
    model = SimpleCNN(dataset.input_shape, dataset.num_classes, channels=(4, 8),
                      hidden_size=16, seed=device_id)
    return Device(device_id=device_id, model=model, dataset=dataset, lr=lr, momentum=0.9,
                  batch_size=16, prox_mu=prox_mu, seed=device_id)


class TestDevice:
    def test_local_train_reduces_loss(self, tiny_rgb_dataset):
        device = _device(tiny_rgb_dataset)
        first = device.local_train(epochs=1)
        for _ in range(3):
            last = device.local_train(epochs=1)
        assert last.mean_loss < first.mean_loss
        assert first.samples_seen == len(tiny_rgb_dataset)
        assert first.batches == int(np.ceil(len(tiny_rgb_dataset) / 16))

    def test_local_train_zero_epochs(self, tiny_rgb_dataset):
        report = _device(tiny_rgb_dataset).local_train(epochs=0)
        assert report.batches == 0 and report.mean_loss == 0.0
        with pytest.raises(ValueError):
            _device(tiny_rgb_dataset).local_train(epochs=-1)

    def test_parameter_exchange_and_accounting(self, tiny_rgb_dataset):
        sender = _device(tiny_rgb_dataset, device_id=0)
        receiver = _device(tiny_rgb_dataset, device_id=1)
        # Same architecture (both device_id seeds build SimpleCNN with same dims).
        state = sender.send_parameters()
        receiver.receive_parameters(state)
        x = Tensor(tiny_rgb_dataset.images[:8])
        sender.model.eval(), receiver.model.eval()
        np.testing.assert_allclose(sender.model(x).data, receiver.model(x).data)
        assert sender.uploaded_parameters > 0
        assert receiver.downloaded_parameters == sender.uploaded_parameters
        assert receiver.has_anchor and not sender.has_anchor

    def test_prox_term_limits_drift(self, tiny_rgb_dataset):
        free = _device(tiny_rgb_dataset, device_id=0, prox_mu=0.0)
        anchored = _device(tiny_rgb_dataset, device_id=0, prox_mu=10.0)
        # Give both the same anchor (their own initial parameters).
        free.receive_parameters(free.send_parameters())
        anchored.receive_parameters(anchored.send_parameters())
        start_free = np.concatenate([p.data.reshape(-1).copy() for p in free.model.parameters()])
        start_anch = np.concatenate([p.data.reshape(-1).copy() for p in anchored.model.parameters()])
        free.local_train(epochs=2)
        anchored.local_train(epochs=2)
        drift_free = np.linalg.norm(
            np.concatenate([p.data.reshape(-1) for p in free.model.parameters()]) - start_free)
        drift_anch = np.linalg.norm(
            np.concatenate([p.data.reshape(-1) for p in anchored.model.parameters()]) - start_anch)
        assert drift_anch < drift_free

    def test_evaluate_returns_fraction(self, tiny_rgb_dataset, tiny_test_dataset):
        device = _device(tiny_rgb_dataset)
        accuracy = device.evaluate(tiny_test_dataset)
        assert 0.0 <= accuracy <= 1.0
        assert "SimpleCNN" in device.describe()


class TestSamplers:
    def test_uniform_sampler_fraction(self):
        sampler = UniformSampler(0.5, seed=0)
        active = sampler.sample(1, 10)
        assert len(active) == 5
        assert all(0 <= device < 10 for device in active)
        assert active == sorted(active)

    def test_uniform_sampler_full_participation(self):
        assert UniformSampler(1.0, seed=0).sample(3, 6) == list(range(6))

    def test_uniform_sampler_minimum_one(self):
        assert len(UniformSampler(0.05, seed=0).sample(1, 4)) == 1

    def test_uniform_sampler_validation(self):
        with pytest.raises(ValueError):
            UniformSampler(0.0)

    def test_fixed_sampler(self):
        sampler = FixedSampler([2, 0])
        assert sampler.sample(1, 5) == [0, 2]
        with pytest.raises(ValueError):
            sampler.sample(1, 2)
        with pytest.raises(ValueError):
            FixedSampler([])

    def test_sampling_varies_across_rounds(self):
        sampler = UniformSampler(0.4, seed=3)
        draws = {tuple(sampler.sample(round_index, 10)) for round_index in range(10)}
        assert len(draws) > 1


class TestHistory:
    def _history(self):
        history = TrainingHistory(algorithm="demo", config={"rounds": 2})
        history.append(RoundRecord(round_index=1, global_accuracy=0.4,
                                   device_accuracies={0: 0.3, 1: 0.5},
                                   server_metrics={"loss": 1.0}))
        history.append(RoundRecord(round_index=2, global_accuracy=0.6,
                                   device_accuracies={0: 0.5, 1: 0.7},
                                   server_metrics={"loss": 0.5}))
        return history

    def test_curves_and_summaries(self):
        history = self._history()
        assert history.rounds() == [1, 2]
        assert history.global_accuracy_curve() == [0.4, 0.6]
        assert history.mean_device_accuracy_curve() == [0.4, 0.6]
        assert history.device_accuracy_curve(1) == [0.5, 0.7]
        assert history.server_metric_curve("loss") == [1.0, 0.5]
        assert history.final_global_accuracy() == 0.6
        assert history.best_global_accuracy() == 0.6
        assert history.final_mean_device_accuracy() == pytest.approx(0.6)
        assert history.final_device_accuracies() == {0: 0.5, 1: 0.7}
        summary = history.summary()
        assert summary["algorithm"] == "demo" and summary["rounds"] == 2

    def test_empty_history(self):
        history = TrainingHistory("empty")
        assert history.final_global_accuracy() is None
        assert history.final_mean_device_accuracy() == 0.0
        assert len(history) == 0

    def test_to_dict_serializable(self):
        import json

        payload = json.dumps(self._history().to_dict())
        assert "device_accuracies" in payload


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(num_devices=0)
        with pytest.raises(ValueError):
            FederatedConfig(participation_fraction=0.0)
        with pytest.raises(ValueError):
            FederatedConfig(rounds=0)
        with pytest.raises(ValueError):
            FederatedConfig(prox_mu=-1.0)

    @pytest.mark.parametrize("value", ["family", "bogus"])
    def test_other_strings_are_rejected(self, value):
        with pytest.raises(ValueError, match="cohort_fusion"):
            FederatedConfig(num_devices=2, rounds=1, cohort_fusion=value)

    @pytest.mark.parametrize("value", [1, None])
    def test_non_bool_values_are_rejected(self, value):
        # ``1`` is truthy and equal to ``True`` but still not a bool.
        with pytest.raises(ValueError, match="cohort_fusion"):
            FederatedConfig(num_devices=2, rounds=1, cohort_fusion=value)

    def test_with_overrides_and_describe(self):
        config = FederatedConfig(num_devices=4, server=ServerConfig(distillation_iterations=7))
        other = config.with_overrides(num_devices=8)
        assert other.num_devices == 8 and config.num_devices == 4
        described = config.describe()
        assert described["distillation_iterations"] == 7
        assert described["num_devices"] == 4

    def test_server_config_transfer_iterations_default(self):
        server = ServerConfig(distillation_iterations=9)
        assert server.effective_transfer_iterations == 9
        assert ServerConfig(distillation_iterations=9, transfer_iterations=3).effective_transfer_iterations == 3

    def test_back_transfer_optimizer_is_not_configurable(self):
        # Phase 2 steps SGD only: the removed knob is an unknown argument,
        # and no optimizer appears in the flat description.
        with pytest.raises(TypeError, match="device_distill_optimizer"):
            ServerConfig(device_distill_optimizer="adam")
        assert not any("optimizer" in key for key in FederatedConfig(num_devices=2).describe())


class TestMetrics:
    def test_model_size_and_compute_estimate(self, tiny_rgb_dataset):
        device = _device(tiny_rgb_dataset)
        assert model_size_bytes(device.model) == device.model.num_parameters() * 8
        estimate = device_compute_estimate(device.model, samples=100, epochs=2, rounds=3,
                                           batch_size=25)
        assert estimate == device.model.num_parameters() * 4 * 2 * 3

    def test_communication_report(self, tiny_rgb_dataset):
        devices = [_device(tiny_rgb_dataset, device_id=i) for i in range(2)]
        devices[0].send_parameters()
        report = communication_report(devices)
        assert report.total_uploaded > 0
        assert report.uploaded_parameters[0] == sum(
            value.size for value in devices[0].model.state_dict().values())
        assert report.total_downloaded == 0

    def test_resource_split_summary(self, tiny_rgb_dataset):
        devices = [_device(tiny_rgb_dataset, device_id=i) for i in range(2)]
        summary = resource_split_summary(devices, server_parameter_updates=10_000_000,
                                         rounds=2, local_epochs=1)
        assert summary["server_total_compute"] == 10_000_000
        assert summary["device_total_compute"] > 0
        assert summary["server_to_device_ratio"] > 0
        assert len(summary["per_device"]) == 2

    def test_evaluate_model_helper(self, tiny_rgb_dataset, tiny_test_dataset):
        device = _device(tiny_rgb_dataset)
        value = evaluate_accuracy(device.model, tiny_test_dataset)
        assert 0.0 <= value <= 1.0
        # evaluate_accuracy restores training mode.
        assert device.model.training
