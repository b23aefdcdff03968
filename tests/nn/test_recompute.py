"""A backward closure keeps only what it cannot rebuild from its output's and
its parents' data: a convolution gathers its im2col columns again for the
weight gradient, and ReLU / LeakyReLU read their mask back from the output.
Both rebuild the same bytes, so gradients are unchanged bit for bit; what
changes is how much of the arena a training step holds at once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.experiments.configs import federated_config_for, get_scale
from repro.federated.trainer import evaluate_accuracy
from repro.models import build_generator, build_global_model
from repro.models.registry import small_image_device_suite
from repro.nn import Tensor
from repro.nn.buffers import fresh_pool
from repro.nn.losses import cross_entropy

#: Every value class a comparison or a product treats apart: signed zeros,
#: subnormals, infinities, NaN and ordinary numbers of both signs.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf,
                    np.nan, 1.5, -2.5, 1e300, -1e300, 3.0, -7.0, 0.25])


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _layouts(values):
    """``values`` (32 entries) in the layouts a masked activation meets:
    contiguous ``(N, O, H, W)``, a per-model convolution output (an ``(N, L,
    O)`` base viewed ``(N, O, H, W)``), and a stacked one (the same with a
    cohort axis in front)."""
    contiguous = values.reshape(2, 2, 2, 4).copy()
    per_model = np.swapaxes(values.reshape(2, 2, 8).swapaxes(-1, -2).copy(), -1, -2)
    stacked = np.swapaxes(values.reshape(2, 2, 2, 4).swapaxes(-1, -2).copy(), -1, -2)
    return {"contiguous": contiguous,
            "per-model": per_model.reshape(2, 2, 2, 4),
            "stacked": stacked.reshape(2, 2, 2, 2, 2)}


class TestMaskFromOutput:
    @pytest.mark.parametrize("layout", ["contiguous", "per-model", "stacked"])
    @pytest.mark.parametrize("slope", [None, 0.0, 0.2, 1.0, 1.5, -0.5])
    def test_backward_is_the_mask_from_input_form_bit_for_bit(self, layout, slope):
        """Every input value against every upstream-gradient value: the
        output and the input gradient are those of ``a * mask`` and ``grad *
        mask`` with the mask taken from the input, as the forward has it.
        ``slope=None`` is ReLU; a negative slope (whose negative branch
        comes out positive) reads the mask from the input."""
        values = np.repeat(SPECIAL, SPECIAL.size)
        grads = np.tile(SPECIAL, SPECIAL.size)
        for start in range(0, values.size, 32):
            a = _layouts(values[start:start + 32])[layout]
            upstream = _layouts(grads[start:start + 32])[layout]
            x = Tensor(a, requires_grad=True)
            with np.errstate(invalid="ignore"):  # inf * 0
                mask = np.where(a > 0, 1.0, 0.0 if slope is None else slope)
                out = x.relu() if slope is None else x.leaky_relu(slope)
                assert out._pooled_data and out.data.strides == a.strides
                assert np.array_equal(_bits(out.data), _bits(a * mask))
                out.backward(upstream)
                assert np.array_equal(_bits(x.grad), _bits(upstream * mask))

    @pytest.mark.parametrize("slope", [None, 0.2])
    def test_an_activation_holds_one_block(self, slope):
        """The recorded forward leaves one arena block outstanding, the
        output itself; the backward borrows one more for the mask and gives
        it back."""
        a = np.random.default_rng(0).normal(size=(4, 3, 8, 8))
        x = Tensor(a, requires_grad=True)
        with fresh_pool() as pool:
            out = x.relu() if slope is None else x.leaky_relu(slope)
            assert pool.stats()["outstanding_bytes"] == a.nbytes
            out.backward(np.ones(a.shape))
        # The output, its gradient, and the mask while the closure runs.
        assert pool.stats()["outstanding_high_water"] == 3 * a.nbytes


def _harness_models():
    """The ``zkt_serial`` models at ``tiny`` scale: the five-device suite,
    the global model and the generator, on MNIST-shaped (1, 16, 16) input."""
    config = federated_config_for(get_scale("tiny"), "mnist", num_devices=5, seed=0)
    shape = (1, 16, 16)
    devices = small_image_device_suite(5, shape, 10, seed=0)
    return (devices, build_global_model(shape, 10, seed=0),
            build_generator(shape, noise_dim=config.server.noise_dim, seed=0))


class TestStepHighWater:
    """The most arena bytes one training step (forward, backward) holds at
    once, batch 32, each step on a fresh arena: no convolution holds its
    columns from forward to backward and no activation a mask beside its
    output.  Every model with a convolution holds less than it would if
    they did; the fully-connected one peaks elsewhere."""

    def test_classifier_steps(self):
        devices, global_model, _ = _harness_models()
        rng = np.random.default_rng(0)
        images = rng.normal(size=(32, 1, 16, 16))
        labels = rng.integers(0, 10, size=32)
        high_water = []
        for model in devices + [global_model]:
            model.train()
            with fresh_pool() as pool:
                cross_entropy(model(Tensor(images)), labels).backward()
            high_water.append(pool.stats()["outstanding_high_water"])
        # CNN, FC, LeNet-S/M/L, GlobalCNN.
        assert high_water == [9_699_336, 327_688, 1_900_544, 2_555_912, 3_538_952,
                              19_398_664]

    def test_a_test_sweep_holds_less_than_a_step(self):
        """The global model's no-grad accuracy sweep over ``zkt_serial``'s
        180-sample test set goes in chunks of the training batch size, so it
        holds less than the same model's training step above."""
        config = federated_config_for(get_scale("tiny"), "mnist", num_devices=5, seed=0)
        scale = get_scale("tiny")
        _, test = load_dataset("mnist", train_size=scale.train_size,
                               test_size=scale.test_size, image_size=scale.image_size, seed=0)
        _, global_model, _ = _harness_models()
        assert (len(test), config.batch_size) == (180, 32)
        with fresh_pool() as pool:
            evaluate_accuracy(global_model, test, batch_size=config.batch_size)
        assert pool.stats()["outstanding_high_water"] == 6_291_456 <= 19_398_664

    def test_generator_step(self):
        _, _, generator = _harness_models()
        generator.train()
        noise = generator.sample_noise(32, np.random.default_rng(0))
        with fresh_pool() as pool:
            generator(noise).sum().backward()
        assert pool.stats()["outstanding_high_water"] == 26_902_528
