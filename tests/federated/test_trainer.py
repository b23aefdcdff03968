"""Tests for the shared trainer primitives (repro.federated.trainer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import shuffled_batches
from repro.federated import (Device, DeviceTrainingConfig, SerialBackend, evaluate_accuracy,
                             local_sgd_train)
from repro.federated.device import build_devices
from repro.federated.trainer import (
    LocalTrainingReport,
    by_member,
    compute_public_logits,
    digest_on_public,
    sgd_steps,
    shard_batches,
    stack_batches,
    sweep_accuracies,
    sweep_logits,
)
from repro.models import SimpleCNN
from repro.nn import SGD
from repro.nn.batched import BatchedModule, BatchedSGD
from repro.nn.losses import cross_entropy
from repro.partition import IIDPartitioner


def _model(dataset, seed=0):
    return SimpleCNN(dataset.input_shape, dataset.num_classes, channels=(4, 8),
                     hidden_size=16, seed=seed)


class TestDeviceTrainingConfig:
    def test_device_exposes_training_config(self, tiny_rgb_dataset):
        device = Device(device_id=0, model=_model(tiny_rgb_dataset),
                        dataset=tiny_rgb_dataset, lr=0.03, momentum=0.8,
                        weight_decay=1e-4, batch_size=24, prox_mu=0.2, seed=0)
        config = device.training_config
        assert config == DeviceTrainingConfig(lr=0.03, momentum=0.8, weight_decay=1e-4,
                                              batch_size=24, prox_mu=0.2)

    def test_evaluate_sweeps_in_training_batches(self, tiny_rgb_dataset, tiny_test_dataset,
                                                 monkeypatch):
        """An evaluation sweeps the test set in chunks of the training batch
        size, in-process and as a task; a no-grad sweep then never holds more
        than a training step."""
        device = Device(device_id=0, model=_model(tiny_rgb_dataset),
                        dataset=tiny_rgb_dataset, batch_size=7, seed=0)
        chunks = []
        real = device.model.forward
        monkeypatch.setattr(device.model, "forward",
                            lambda images: chunks.append(len(images)) or real(images))
        accuracy = device.evaluate(tiny_test_dataset)
        full, rest = divmod(len(tiny_test_dataset), 7)
        assert chunks == [7] * full + ([rest] if rest else [])
        assert device.evaluate_task(SerialBackend().state_store).batch_size == 7
        # Accuracy does not depend on the chunking.
        assert accuracy == device.evaluate(tiny_test_dataset, batch_size=256)


class TestLocalSGDTrain:
    def test_matches_device_local_train(self, tiny_rgb_dataset):
        device = Device(device_id=3, model=_model(tiny_rgb_dataset),
                        dataset=tiny_rgb_dataset, lr=0.05, momentum=0.9,
                        batch_size=16, seed=11)
        report_device = device.local_train(epochs=2)

        model = _model(tiny_rgb_dataset)
        config = DeviceTrainingConfig(lr=0.05, momentum=0.9, batch_size=16)
        report_trainer = local_sgd_train(model, tiny_rgb_dataset, 2, config,
                                         np.random.default_rng(11), device_id=3)
        assert report_trainer.mean_loss == report_device.mean_loss
        assert report_trainer.final_loss == report_device.final_loss
        assert report_trainer.samples_seen == report_device.samples_seen
        assert report_trainer.device_id == 3

    def test_zero_epochs_and_validation(self, tiny_rgb_dataset):
        model = _model(tiny_rgb_dataset)
        config = DeviceTrainingConfig()
        report = local_sgd_train(model, tiny_rgb_dataset, 0, config,
                                 np.random.default_rng(0))
        assert report.batches == 0 and report.mean_loss == 0.0
        with pytest.raises(ValueError):
            local_sgd_train(model, tiny_rgb_dataset, -1, config, np.random.default_rng(0))


class TestEvaluationHelpers:
    def test_evaluate_accuracy_mode_restoration(self, tiny_rgb_dataset, tiny_test_dataset):
        model = _model(tiny_rgb_dataset)
        model.eval()
        value = evaluate_accuracy(model, tiny_test_dataset, batch_size=32)
        assert 0.0 <= value <= 1.0
        assert not model.training  # eval mode preserved
        model.train()
        evaluate_accuracy(model, tiny_test_dataset, batch_size=32)
        assert model.training  # train mode preserved

    def test_public_logits_shape_and_batch_invariance(self, tiny_rgb_dataset):
        model = _model(tiny_rgb_dataset)
        full = compute_public_logits(model, tiny_rgb_dataset, batch_size=256)
        chunked = compute_public_logits(model, tiny_rgb_dataset, batch_size=17)
        assert full.shape == (len(tiny_rgb_dataset), tiny_rgb_dataset.num_classes)
        np.testing.assert_allclose(full, chunked)

    def test_digest_pulls_scores_toward_consensus(self, tiny_rgb_dataset):
        model = _model(tiny_rgb_dataset)
        consensus = np.zeros((len(tiny_rgb_dataset), tiny_rgb_dataset.num_classes))
        before = np.abs(compute_public_logits(model, tiny_rgb_dataset)).mean()
        loss = digest_on_public(model, tiny_rgb_dataset, consensus, lr=0.05,
                                batch_size=16, epochs=2, rng=np.random.default_rng(0))
        after = np.abs(compute_public_logits(model, tiny_rgb_dataset)).mean()
        assert after < before
        assert loss >= 0.0


class TestStepLoopAndSweep:
    """The one step loop and the one sweep: per-device and stacked calls
    differ only in the gather, the module and the optimizer."""

    @staticmethod
    def _halves(dataset):
        return [dataset.subset(np.arange(0, 60)), dataset.subset(np.arange(60, 120))]

    def test_stacked_steps_equal_each_members_serial_steps(self, tiny_rgb_dataset):
        shards = self._halves(tiny_rgb_dataset)
        serial = [_model(tiny_rgb_dataset, seed=seed) for seed in (1, 2)]
        fused = [_model(tiny_rgb_dataset, seed=seed) for seed in (1, 2)]
        serial_losses = []
        for member, (model, shard) in enumerate(zip(serial, shards)):
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            serial_losses.append(sgd_steps(
                model, optimizer,
                shard_batches(shard.images, shard.labels, 16, 2,
                              np.random.default_rng(20 + member)),
                cross_entropy))
        tile = BatchedModule(fused[0], [model.state_dict() for model in fused])
        optimizer = BatchedSGD(tile.parameters(), 2, lr=0.05, momentum=0.9)
        steps = sgd_steps(tile, optimizer, stack_batches([
            shard_batches(shard.images, shard.labels, 16, 2, np.random.default_rng(20 + member))
            for member, shard in enumerate(shards)]), cross_entropy)
        assert all(len(step) == 2 for step in steps)
        assert by_member(steps, 2) == serial_losses
        for model, state in zip(serial, tile.state_dicts()):
            for name, value in model.state_dict().items():
                np.testing.assert_array_equal(state[name], value)

    def test_shard_batches_gather_the_shuffled_draw(self, tiny_rgb_dataset):
        draw = list(shuffled_batches(len(tiny_rgb_dataset), 25, 2, np.random.default_rng(4)))
        gathered = list(shard_batches(tiny_rgb_dataset.images, tiny_rgb_dataset.labels, 25, 2,
                                      np.random.default_rng(4)))
        assert len(gathered) == len(draw) == 10
        for chosen, (images, labels) in zip(draw, gathered):
            np.testing.assert_array_equal(images, tiny_rgb_dataset.images[chosen])
            np.testing.assert_array_equal(labels, tiny_rgb_dataset.labels[chosen])

    def test_stacked_sweep_equals_each_models_sweep(self, tiny_rgb_dataset, tiny_test_dataset):
        models = [_model(tiny_rgb_dataset, seed=seed) for seed in (3, 4)]
        tile = BatchedModule(models[0], [model.state_dict() for model in models],
                             requires_grad=False).eval()

        def forward(images):
            return tile.predict(np.broadcast_to(images, (2,) + images.shape))

        accuracies = sweep_accuracies(forward, tiny_test_dataset, 17, 2)
        logits = sweep_logits(forward, tiny_test_dataset, 17, 2)
        for member, model in enumerate(models):
            assert accuracies[member] == evaluate_accuracy(model, tiny_test_dataset, 17)
            np.testing.assert_array_equal(
                logits[member], compute_public_logits(model, tiny_test_dataset, 17))
            assert logits[member].shape == (len(tiny_test_dataset),
                                            tiny_test_dataset.num_classes)

    def test_report_from_losses(self):
        report = LocalTrainingReport.from_losses(5, 2, [1.0, 0.5, 0.25], 40, 100)
        assert (report.batches, report.final_loss, report.mean_loss) == (3, 0.25, 1.75 / 3)
        assert report.samples_seen == 80 and report.parameter_updates == 300
        empty = LocalTrainingReport.from_losses(5, 0, [], 40, 100)
        assert (empty.batches, empty.final_loss, empty.mean_loss) == (0, 0.0, 0.0)
        assert empty.samples_seen == 0 and empty.parameter_updates == 0


class TestBuildDevices:
    def test_shards_models_and_seeds(self, tiny_rgb_dataset, micro_config):
        models = [_model(tiny_rgb_dataset, seed=index) for index in range(3)]
        devices = build_devices(tiny_rgb_dataset, micro_config, device_models=models,
                                prox_mu=0.3)
        shards = IIDPartitioner(3, seed=micro_config.seed).partition(tiny_rgb_dataset)
        for index, (device, model, shard) in enumerate(zip(devices, models, shards)):
            assert device.device_id == index and device.model is model
            np.testing.assert_array_equal(device.dataset.labels, shard.labels)
            assert device.training_config.prox_mu == 0.3
            assert device.training_config.lr == micro_config.device_lr
            assert (device._rng.bit_generator.state
                    == np.random.default_rng(micro_config.seed + 1000 + index)
                    .bit_generator.state)

    def test_one_model_per_device(self, tiny_rgb_dataset, micro_config):
        with pytest.raises(ValueError, match="one model per device"):
            build_devices(tiny_rgb_dataset, micro_config,
                          device_models=[_model(tiny_rgb_dataset)])
