"""Tests for layers, the module system, and state (de)serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    UpsampleNearest2d,
)
from repro.nn import init as nn_init


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(4, 3, seed=0)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data, x @ layer.weight.data.T + layer.bias.data)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_receive_gradients(self, rng):
        layer = Linear(4, 2, seed=1)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConvLayers:
    def test_conv2d_layer_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, seed=0)
        out = layer(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_layer_shape(self, rng):
        layer = DepthwiseConv2d(4, 3, padding=1, seed=0)
        out = layer(Tensor(rng.normal(size=(2, 4, 6, 6))))
        assert out.shape == (2, 4, 6, 6)

    def test_pooling_layers(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        assert MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert AvgPool2d(2)(x).shape == (2, 3, 4, 4)
        assert GlobalAvgPool2d()(x).shape == (2, 3)
        assert UpsampleNearest2d(2)(x).shape == (2, 3, 16, 16)


class TestBatchNorm:
    def test_batchnorm2d_normalizes_in_train_mode(self, rng):
        layer = BatchNorm2d(3)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4)))
        out = layer(x)
        means = out.data.mean(axis=(0, 2, 3))
        stds = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, np.zeros(3), atol=1e-8)
        np.testing.assert_allclose(stds, np.ones(3), atol=1e-3)

    def test_batchnorm_updates_running_stats(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.normal(loc=2.0, size=(16, 2, 3, 3)))
        layer(x)
        assert not np.allclose(layer.running_mean, 0.0)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.normal(size=(8, 2, 3, 3))
        for _ in range(20):
            layer(Tensor(x))
        layer.eval()
        out_eval = layer(Tensor(x)).data
        layer.train()
        out_train = layer(Tensor(x)).data
        np.testing.assert_allclose(out_eval, out_train, atol=0.2)

    def test_batchnorm1d_shape_check(self, rng):
        with pytest.raises(ValueError):
            BatchNorm1d(4)(Tensor(rng.normal(size=(2, 4, 3))))

    def test_batchnorm_gradients_flow_to_affine_params(self, rng):
        layer = BatchNorm2d(3)
        out = layer(Tensor(rng.normal(size=(4, 3, 2, 2))))
        (out * out).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestDropout:
    def test_dropout_identity_in_eval(self, rng):
        layer = Dropout(0.5, seed=0)
        layer.eval()
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_dropout_scales_in_train(self, rng):
        layer = Dropout(0.5, seed=0)
        x = np.ones((1000, 10))
        out = layer(Tensor(x)).data
        # Inverted dropout keeps the expected value.
        assert abs(out.mean() - 1.0) < 0.1
        assert set(np.unique(np.round(out, 6))) <= {0.0, 2.0}

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestActivationsAndReshape:
    def test_activation_layers_match_tensor_methods(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(ReLU()(Tensor(x)).data, np.maximum(x, 0))
        np.testing.assert_allclose(Tanh()(Tensor(x)).data, np.tanh(x))
        np.testing.assert_allclose(Sigmoid()(Tensor(x)).data, 1 / (1 + np.exp(-x)))
        np.testing.assert_allclose(LeakyReLU(0.1)(Tensor(x)).data,
                                   np.where(x > 0, x, 0.1 * x))

    def test_flatten_and_reshape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        assert Flatten()(x).shape == (2, 48)
        assert Reshape(4, 3, 4)(x).shape == (2, 4, 3, 4)


class TestModuleSystem:
    def test_named_parameters_are_qualified(self):
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 2, seed=1))
        names = [name for name, _ in net.named_parameters()]
        assert "0.weight" in names and "2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        net = Linear(10, 5, seed=0)
        assert net.num_parameters() == 10 * 5 + 5

    def test_train_eval_propagates(self):
        net = Sequential(Linear(4, 4, seed=0), BatchNorm1d(4), Dropout(0.2))
        net.eval()
        assert all(not module.training for module in net.modules())
        net.train()
        assert all(module.training for module in net.modules())

    def test_zero_grad_clears_all(self, rng):
        net = Sequential(Linear(4, 4, seed=0), ReLU(), Linear(4, 2, seed=1))
        net(Tensor(rng.normal(size=(3, 4)))).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self, rng):
        net1 = Sequential(Linear(4, 6, seed=0), ReLU(), BatchNorm1d(6), Linear(6, 2, seed=1))
        net2 = Sequential(Linear(4, 6, seed=5), ReLU(), BatchNorm1d(6), Linear(6, 2, seed=9))
        x = rng.normal(size=(7, 4))
        net1(Tensor(x))  # update running stats so buffers are non-trivial
        net2.load_state_dict(net1.state_dict())
        net1.eval(), net2.eval()
        np.testing.assert_allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)

    def test_state_dict_returns_copies(self):
        net = Linear(3, 3, seed=0)
        state = net.state_dict()
        state["weight"][...] = 0.0
        assert not np.allclose(net.weight.data, 0.0)

    def test_load_state_dict_shape_mismatch(self):
        net = Linear(3, 3, seed=0)
        bad = {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
        with pytest.raises(ValueError):
            net.load_state_dict(bad)

    def test_load_state_dict_missing_key_strict(self):
        net = Linear(3, 3, seed=0)
        with pytest.raises(KeyError):
            net.load_state_dict({"weight": np.zeros((3, 3))})
        net.load_state_dict({"weight": np.zeros((3, 3))}, strict=False)
        np.testing.assert_allclose(net.weight.data, 0.0)

    def test_sequential_iteration_and_indexing(self):
        net = Sequential(Linear(2, 2, seed=0), ReLU())
        assert len(net) == 2
        assert isinstance(net[1], ReLU)
        assert len(list(iter(net))) == 2

    def test_custom_module_registration(self):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.scale = Parameter(np.array([2.0]))
                self.inner = Linear(2, 2, seed=0)

            def forward(self, x):
                return self.inner(x) * self.scale

        module = Custom()
        names = {name for name, _ in module.named_parameters()}
        assert names == {"scale", "inner.weight", "inner.bias"}


class TestInit:
    def test_glorot_uniform_bounds(self, rng):
        weights = nn_init.glorot_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert np.abs(weights).max() <= limit

    def test_compute_fans_conv(self):
        fan_in, fan_out = nn_init.compute_fans((8, 4, 3, 3))
        assert fan_in == 4 * 9 and fan_out == 8 * 9

    def test_zeros_ones(self):
        np.testing.assert_allclose(nn_init.zeros((3,)), 0.0)
        np.testing.assert_allclose(nn_init.ones((3,)), 1.0)
