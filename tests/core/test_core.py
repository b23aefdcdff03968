"""Tests for the FedZKT core: ensembles, distiller, server, and gradient probe."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GradientNormProbe,
    ZeroShotDistiller,
    build_fedzkt,
    disagreement_loss,
    ensemble_mode_for_loss,
    ensemble_output,
    input_gradient_norms,
)
from repro.datasets.registry import dataset_family, load_dataset
from repro.experiments.configs import federated_config_for, get_scale
from repro.federated import ServerConfig
from repro.federated.trainer import evaluate_accuracy
from repro.models import LeNet, SimpleCNN, build_generator, build_global_model
from repro.nn import Tensor
from repro.nn.buffers import fresh_pool

SHAPE = (3, 8, 8)
CLASSES = 4


def _teachers(count=2):
    return [SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=i) for i in range(count)]


def _batch(n=6, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n,) + SHAPE))


class TestEnsemble:
    def test_prob_ensemble_is_distribution(self):
        out = ensemble_output(_teachers(3), _batch(), mode="prob")
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-9)

    def test_logit_ensemble_is_mean_of_logits(self):
        teachers = _teachers(2)
        x = _batch()
        expected = (teachers[0](x).data + teachers[1](x).data) / 2.0
        out = ensemble_output(teachers, x, mode="logit")
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_weights_must_match(self):
        with pytest.raises(ValueError):
            ensemble_output(_teachers(2), _batch(), weights=[1.0])
        with pytest.raises(ValueError):
            ensemble_output([], _batch())
        with pytest.raises(ValueError):
            ensemble_output(_teachers(1), _batch(), mode="other")

    def test_mode_for_loss(self):
        assert ensemble_mode_for_loss("sl") == "prob"
        assert ensemble_mode_for_loss("kl") == "prob"
        assert ensemble_mode_for_loss("l1") == "logit"
        with pytest.raises(KeyError):
            ensemble_mode_for_loss("mse")

    def test_disagreement_loss_positive_for_random_models(self):
        global_model = build_global_model(SHAPE, CLASSES, seed=9)
        for name in ("sl", "kl", "l1"):
            value = disagreement_loss(global_model, _teachers(2), _batch(), name).item()
            assert value > 0.0


class TestZeroShotDistiller:
    def _distiller(self, loss="sl", iterations=3):
        global_model = build_global_model(SHAPE, CLASSES, seed=1)
        generator = build_generator(SHAPE, noise_dim=8, base_channels=8, seed=2)
        config = ServerConfig(distillation_iterations=iterations, batch_size=6,
                              distillation_loss=loss, global_steps_per_generator_step=2)
        return ZeroShotDistiller(global_model, generator, config, seed=3)

    def test_adversarial_phase_reports_metrics(self):
        distiller = self._distiller()
        report = distiller.adversarial_distillation(dict(enumerate(_teachers(2))))
        assert report["parameter_updates"] > 0
        assert np.isfinite(report["generator_loss"])
        assert np.isfinite(report["global_loss"])
        assert report["input_gradient_norm"] >= 0.0

    def test_generator_step_skips_weight_gradients_not_input_gradients(self):
        """The generator step freezes F (and ``EnsembleVJPTask`` the
        teachers): their parameters come out with ``requires_grad`` restored
        and no ``.grad`` from it, and the disagreement gradient at the
        synthesized batch is, bit for bit, what the graph with every weight
        gradient attached computes."""
        teachers = _teachers(2)
        reference = self._distiller(iterations=1)
        for teacher in teachers:
            teacher.eval()
        noise = reference.generator.sample_noise(6, np.random.default_rng(3))
        synthetic = reference.generator(noise)
        synthetic.retain_grad()
        (disagreement_loss(reference.global_model, teachers, synthetic, "sl") * -1.0).backward()
        assert all(param.grad is not None for param in teachers[0].parameters())
        expected = float(np.linalg.norm(synthetic.grad))

        teachers = _teachers(2)
        distiller = self._distiller(iterations=1)
        report = distiller.adversarial_distillation(dict(enumerate(teachers)))
        assert report["input_gradient_norm"] == expected
        for model in teachers:
            assert all(param.requires_grad and param.grad is None
                       for param in model.parameters())
        assert all(param.requires_grad for param in distiller.global_model.parameters())

    def test_generator_step_restores_requires_grad_when_a_teacher_raises(self):
        class Broken(SimpleCNN):
            def forward(self, x):
                raise RuntimeError("teacher failed")

        teachers = _teachers(1) + [Broken(SHAPE, CLASSES, channels=(4, 8), hidden_size=16)]
        distiller = self._distiller(iterations=1)
        with pytest.raises(RuntimeError, match="teacher failed"):
            distiller.adversarial_distillation(dict(enumerate(teachers)))
        for model in teachers + [distiller.global_model]:
            assert all(param.requires_grad for param in model.parameters())

    def test_transfer_phase_moves_device_models_toward_global(self):
        distiller = self._distiller(iterations=6)
        device_models = {0: LeNet(SHAPE, CLASSES, conv_channels=(4,), fc_sizes=(16,), seed=5)}
        before = device_models[0].state_dict()
        report = distiller.transfer_to_devices(device_models)
        after = device_models[0].state_dict()
        changed = any(not np.allclose(before[key], after[key]) for key in before)
        assert changed
        assert report["transfer_loss"] >= 0.0

    def test_server_update_runs_both_phases(self):
        distiller = self._distiller()
        device_models = {i: model for i, model in enumerate(_teachers(2))}
        report = distiller.server_update(device_models)
        assert {"generator_loss", "global_loss", "transfer_loss", "parameter_updates"} <= set(report)
        assert distiller.parameter_updates_total == report["parameter_updates"]

    def test_requires_teachers(self):
        distiller = self._distiller()
        with pytest.raises(ValueError):
            distiller.adversarial_distillation({})
        with pytest.raises(ValueError):
            distiller.transfer_to_devices({})

    def test_distillation_actually_teaches_global_model(self, tiny_rgb_dataset):
        """With competent teachers, the zero-shot distilled global model beats chance."""
        from repro.baselines import train_standalone

        teachers = _teachers(2)
        for index, teacher in enumerate(teachers):
            train_standalone(teacher, tiny_rgb_dataset, epochs=4, lr=0.05, batch_size=16,
                             seed=index)
        distiller = self._distiller(iterations=30)
        distiller.adversarial_distillation(dict(enumerate(teachers)))
        accuracy = evaluate_accuracy(distiller.global_model, tiny_rgb_dataset)
        assert accuracy > 1.5 / CLASSES  # clearly above the 25% chance level


class TestFedZKTStrategy:
    def _build(self, micro_config, tiny_rgb_dataset, tiny_test_dataset):
        return build_fedzkt(tiny_rgb_dataset, tiny_test_dataset, micro_config, family="small",
                            device_models=[SimpleCNN(SHAPE, CLASSES, channels=(4, 8),
                                                     hidden_size=16, seed=i)
                                           for i in range(micro_config.num_devices)])

    def test_round_produces_payload_for_every_device(self, micro_config, tiny_rgb_dataset,
                                                     tiny_test_dataset):
        simulation = self._build(micro_config, tiny_rgb_dataset, tiny_test_dataset)
        record = simulation.run_round(1)
        assert len(record.device_accuracies) == micro_config.num_devices
        assert record.global_accuracy is not None
        assert set(record.server_metrics) >= {"generator_loss", "global_loss", "transfer_loss"}
        # All devices received parameters (anchors set), including any stragglers.
        assert all(device.has_anchor for device in simulation.devices)

    def test_unknown_device_upload_rejected(self, micro_config, tiny_rgb_dataset,
                                            tiny_test_dataset):
        simulation = self._build(micro_config, tiny_rgb_dataset, tiny_test_dataset)
        strategy = simulation.strategy
        strategy.collect(99, simulation.devices[0].model.state_dict())
        with pytest.raises(KeyError):
            strategy.server_update(1, [99])

    def test_replicas_are_independent_objects(self, micro_config, tiny_rgb_dataset,
                                              tiny_test_dataset):
        simulation = self._build(micro_config, tiny_rgb_dataset, tiny_test_dataset)
        device = simulation.devices[0]
        replica = simulation.strategy.device_models[0]
        assert replica is not device.model
        device.model.parameters()[0].data += 1.0
        assert not np.allclose(replica.parameters()[0].data, device.model.parameters()[0].data)

    def test_build_fedzkt_validates_model_count(self, micro_config, tiny_rgb_dataset,
                                                tiny_test_dataset):
        with pytest.raises(ValueError):
            build_fedzkt(tiny_rgb_dataset, tiny_test_dataset, micro_config, family="small",
                         device_models=[SimpleCNN(SHAPE, CLASSES, seed=0)])

    def test_a_zkt_serial_server_update_retains_at_most_1_25x_its_high_water(self):
        """One server update (Phase 1 and Phase 2) built as the whole-round
        harness builds ``zkt_serial``: five heterogeneous devices, ``tiny``
        scale.  Phase 1's large arrays and Phase 2's many small ones are
        served from the same bytes, so the arena holds little more than the
        most it ever had checked out.  That most is pinned: the generator
        step's, with no convolution holding its columns into backward."""
        scale = get_scale("tiny")
        family = dataset_family("mnist")
        config = federated_config_for(scale, family, num_devices=5, seed=0)
        train, test = load_dataset("mnist", train_size=scale.train_size,
                                   test_size=scale.test_size, image_size=scale.image_size,
                                   seed=0)
        with build_fedzkt(train, test, config, family=family) as simulation:
            simulation.ensure_backend()
            strategy = simulation.strategy
            with fresh_pool() as pool:
                strategy.distiller.server_update(strategy.device_models)
        stats = pool.stats()
        assert stats["outstanding_high_water"] == 26_902_544
        assert (stats["free_bytes"] + stats["outstanding_bytes"]
                <= 1.25 * stats["outstanding_high_water"])


class TestGradientProbe:
    def test_input_gradient_norms_keys_and_values(self):
        global_model = build_global_model(SHAPE, CLASSES, seed=0)
        teachers = _teachers(2)
        inputs = np.random.default_rng(0).normal(size=(5,) + SHAPE)
        norms = input_gradient_norms(global_model, teachers, inputs)
        assert set(norms) == {"kl", "l1", "sl"}
        assert all(np.isfinite(value) and value >= 0 for value in norms.values())

    def test_probe_is_side_effect_free_on_parameters(self):
        global_model = build_global_model(SHAPE, CLASSES, seed=0)
        teachers = _teachers(1)
        inputs = np.random.default_rng(0).normal(size=(4,) + SHAPE)
        input_gradient_norms(global_model, teachers, inputs)
        assert all(param.grad is None for param in global_model.parameters())
        assert all(param.grad is None for param in teachers[0].parameters())

    def test_probe_callback_records_history(self):
        global_model = build_global_model(SHAPE, CLASSES, seed=0)
        generator = build_generator(SHAPE, noise_dim=8, base_channels=8, seed=1)
        probe = GradientNormProbe(global_model, _teachers(2), generator, batch_size=4, seed=0)
        from repro.federated.history import RoundRecord

        record = RoundRecord(round_index=1)
        probe(record)
        assert "grad_norm_sl" in record.server_metrics
        curves = probe.curves()
        assert len(curves["kl"]) == 1


def test_a_fedzkt_server_update_calls_no_einsum(monkeypatch):
    """One FedZKT server update at the whole-round harness's scale (``tiny``,
    1x16x16, five heterogeneous devices) makes no ``np.einsum`` call: every
    convolution with wide dimensions runs its own GEMMs, and the generator's
    1-channel output layer the two matrix-vector products einsum would have
    made (forward in both phases, weight VJP whenever the generator
    trains)."""
    from repro.datasets.registry import dataset_family, load_dataset
    from repro.experiments.configs import federated_config_for, get_scale

    scale, family = get_scale("tiny"), dataset_family("mnist")
    config = federated_config_for(scale, family, num_devices=5, seed=0,
                                  distillation_iterations=3)
    train, test = load_dataset("mnist", train_size=scale.train_size, test_size=scale.test_size,
                               image_size=scale.image_size, seed=0)
    calls = []
    real = np.einsum

    def counting(subscripts, *operands, **kwargs):
        calls.append((subscripts, [operand.shape for operand in operands]))
        return real(subscripts, *operands, **kwargs)

    with build_fedzkt(train, test, config, family=family) as simulation:
        simulation.ensure_backend()
        monkeypatch.setattr(np, "einsum", counting)
        strategy = simulation.strategy
        strategy.distiller.server_update(strategy.device_models)
    assert calls == []
