"""``batch_norm`` against the expression it replaced, bit for bit.

The layer used to be written out of :class:`Tensor` primitives — sixteen
recorded nodes per call — in ``_BatchNorm._normalize`` and again in the
stacked adapter.  That expression lives on here as the oracle
(:func:`composed`): the one-node op has to return its values *and strides*,
move the running statistics as it did, and hand back its gradients with
every bit and every sign of zero in place, for each combination of who
needs a gradient; and it has to do so with the work gone, not moved.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import Tensor, layers, no_grad, using_numeric_policy
from repro.nn.buffers import fresh_pool, scratch_pool
from repro.nn.functional import numerical_gradient
from repro.nn.tensor import batch_norm

MOMENTUM, EPS = 0.1, 1e-5


def composed(x, weight, bias, running_mean, running_var, axes, shape, training):
    """Batch normalization as the layers spelled it before the op existed."""
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean[...] = ((1 - MOMENTUM) * running_mean
                             + MOMENTUM * mean.data.reshape(running_mean.shape))
        running_var[...] = ((1 - MOMENTUM) * running_var
                            + MOMENTUM * var.data.reshape(running_var.shape))
    else:
        mean = Tensor(running_mean.reshape(shape))
        var = Tensor(running_var.reshape(shape))
    normalized = (x - mean) / ((var + EPS) ** 0.5)
    return normalized * weight.reshape(shape) + bias.reshape(shape)


def fused(x, weight, bias, running_mean, running_var, axes, shape, training):
    axes = (axes,) if isinstance(axes, int) else axes  # BatchNorm1d wrote ``axis=0``
    return batch_norm(x, weight, bias, running_mean, running_var, axes, shape,
                      training, MOMENTUM, EPS)


def _geometry(form, samples, channels, side):
    """(input shape, reduced axes, broadcast shape, parameter shape, channel axis)."""
    if form == "1d":
        return (samples, channels), 0, (1, channels), (channels,), 1
    if form == "2d":
        return ((samples, channels, side, side), (0, 2, 3), (1, channels, 1, 1),
                (channels,), 1)
    return ((2, samples, channels, side, side), (1, 3, 4), (2, 1, channels, 1, 1),
            (2, channels), 2)


def _channel_innermost(array, channel_axis):
    """The same values on a conv output's ``(n, l, o)`` base: channels vary fastest."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(array, channel_axis, -1)),
                       -1, channel_axis)


def _hand_down(out, gradient):
    """A consumer of ``out`` whose closure gives it ``gradient`` as it lies,
    layout included (``backward(seed)`` would copy a seed C-contiguous)."""
    def factory(node):
        return lambda: out._accumulate(gradient.copy(order="K"), owned=True)
    return Tensor._make(np.zeros(()), (out,), factory)


def _same_bits(actual, expected):
    if expected is None:
        return actual is None
    return (actual is not None and actual.dtype == expected.dtype
            and np.array_equal(actual, expected, equal_nan=True)
            and np.array_equal(np.signbit(actual), np.signbit(expected)))


def _run(op, values, geometry, innermost, innermost_grad, training, needs, earlier=False):
    """One forward (+ backward when anything ``needs`` a gradient; ``None``
    is the ``no_grad`` forward) of ``op``; everything it produced, by name."""
    _, axes, shape, _, channel_axis = geometry
    data = _channel_innermost(values["x"], channel_axis) if innermost else values["x"].copy()
    x = Tensor(data, requires_grad=bool(needs and needs[0]))
    weight = Tensor(values["weight"].copy(), requires_grad=bool(needs and needs[1]))
    bias = Tensor(values["bias"].copy(), requires_grad=bool(needs and needs[2]))
    mean, var = values["mean"].astype(x.dtype), values["var"].astype(x.dtype)
    started = scratch_pool().stats()["outstanding_bytes"]
    if needs is None:
        with no_grad():
            out = op(x, weight, bias, mean, var, axes, shape, training)
    else:
        source = x
        if earlier:  # x is interior and another consumer's closure runs first
            source = x * 1.0
            other = source * Tensor(values["x"][::-1].copy())
        out = op(source, weight, bias, mean, var, axes, shape, training)
    result = {"out": out.data.copy(order="K"), "strides": out.data.strides,
              "running_mean": mean, "running_var": var}
    if needs is not None:
        gradient = values["g"].astype(x.dtype)
        if innermost_grad:
            gradient = _channel_innermost(gradient, channel_axis)
        loss = _hand_down(out, gradient)
        if earlier:
            loss = other.sum() + loss
        loss.backward()
        del loss
        result.update(x_grad=x.grad, weight_grad=weight.grad, bias_grad=bias.grad)
    del out
    result["left_out"] = scratch_pool().stats()["outstanding_bytes"] - started
    return result


def _values(rng, geometry, integers):
    """Inputs for one case.  ``integers`` draws small whole numbers, so sums
    cancel exactly and the sign of a zero sum is part of the comparison;
    channel 0 of ``x`` is constant either way (zero variance)."""
    shape, _, _, parameter_shape, channel_axis = geometry
    def draw(size):
        return (rng.integers(-2, 3, size=size).astype(float) if integers
                else rng.normal(size=size))
    x = draw(shape)
    if shape[channel_axis] > 1:
        np.moveaxis(x, channel_axis, 0)[0] = 0.0
    return {"x": x, "g": draw(shape), "weight": draw(parameter_shape),
            "bias": draw(parameter_shape), "mean": draw(parameter_shape),
            "var": np.abs(draw(parameter_shape)) + 0.5}


# Who needs a gradient, (x, weight, bias); ``None`` is the ``no_grad`` forward.
NEEDS = [None] + [needs for needs in itertools.product([False, True], repeat=3) if any(needs)]
# Above 2**15 elements (one shape of the grid, most of its cost) only the two
# combinations the algorithms run: a training step and a frozen-parameter pass.
LARGE_NEEDS = [None, (True, True, True), (True, False, False)]


class TestAgainstTheComposedExpression:
    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("form", ["1d", "2d", "stacked"])
    def test_values_strides_statistics_and_gradients_are_bit_equal(self, form, policy):
        rng = np.random.default_rng(20221004)
        sides = (1,) if form == "1d" else (1, 4, 16)
        with using_numeric_policy(policy), fresh_pool():
            for samples, channels, side in itertools.product((1, 2, 32), (1, 4, 32), sides):
                geometry = _geometry(form, samples, channels, side)
                values = _values(rng, geometry, integers=samples * side * side <= 32)
                layouts = (False,) if form == "1d" else (False, True)
                for innermost, training, needs in itertools.product(
                        layouts, (True, False),
                        NEEDS if np.prod(geometry[0]) <= 2 ** 15 else LARGE_NEEDS):
                    for innermost_grad in (layouts if needs else (False,)):
                        runs = [_run(op, values, geometry, innermost, innermost_grad,
                                     training, needs) for op in (composed, fused)]
                        where = (form, policy, samples, channels, side, innermost,
                                 innermost_grad, training, needs)
                        assert runs[0]["strides"] == runs[1]["strides"], where
                        assert runs[0]["left_out"] == runs[1]["left_out"] == 0, where
                        for name in runs[0].keys() - {"strides", "left_out"}:
                            assert _same_bits(runs[1][name], runs[0][name]), (name, where)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("innermost", [False, True])
    def test_a_gradient_x_already_holds_is_added_to(self, rng, innermost, training):
        geometry = _geometry("2d", 4, 3, 4)
        values = _values(rng, geometry, integers=False)
        with fresh_pool():
            runs = [_run(op, values, geometry, innermost, False, training,
                         (True, True, True), earlier=True) for op in (composed, fused)]
        for name in ("out", "x_grad", "weight_grad", "bias_grad", "running_mean"):
            assert _same_bits(runs[1][name], runs[0][name]), name
        assert runs[0]["left_out"] == runs[1]["left_out"] == 0

    def test_a_sum_that_cancels_exactly_keeps_the_sign_it_had(self):
        """``a = g * w`` is ``[-0, 1, -1]`` here, so ``sum(-a)`` is ``+0`` where
        ``-sum(a)`` would be ``-0``, and sample 0 sits on the mean with a zero
        upstream gradient, so nothing larger is added over it: ``x.grad[0]``
        is ``+0`` only if no negation was folded into the sum after it."""
        geometry = _geometry("1d", 3, 1, 1)
        values = {"x": np.array([[0.0], [1.0], [-1.0]]), "g": np.array([[0.0], [-1.0], [1.0]]),
                  "weight": np.array([-1.0]), "bias": np.zeros(1),
                  "mean": np.zeros(1), "var": np.ones(1)}
        runs = [_run(op, values, geometry, False, False, True, (True, True, True))
                for op in (composed, fused)]
        for name in ("x_grad", "weight_grad", "bias_grad"):
            assert _same_bits(runs[1][name], runs[0][name]), name
        assert runs[1]["x_grad"][0, 0] == 0.0 and not np.signbit(runs[1]["x_grad"][0, 0])

    def test_a_subnormal_gradient_is_doubled_after_it_is_rounded(self, rng):
        """``centered * centered`` names one parent twice, so the graph adds
        ``s * centered`` to itself; ``(2 * s) * centered`` rounds once less
        where the product is subnormal."""
        geometry = _geometry("2d", 4, 3, 4)
        values = _values(rng, geometry, integers=False)
        values["g"] *= 1e-310
        runs = [_run(op, values, geometry, True, False, True, (True, True, True))
                for op in (composed, fused)]
        for name in ("x_grad", "weight_grad", "bias_grad"):
            assert _same_bits(runs[1][name], runs[0][name]), name

    def test_gradient_of_an_input_with_a_second_consumer_is_right(self, rng):
        """Here the four ``x.grad`` terms land together where the composed
        graph could interleave them with the other consumer's: the same sum
        in another order, checked against finite differences."""
        values = rng.normal(size=(3, 2, 2, 2))
        weight = Tensor(rng.normal(size=2), requires_grad=True)
        bias = Tensor(rng.normal(size=2), requires_grad=True)
        mix = rng.normal(size=(3, 2, 2, 2))

        def loss_of(array):
            x = Tensor(array, requires_grad=True)
            shared = x * 1.0
            out = batch_norm(shared, weight, bias, np.zeros(2), np.ones(2), (0, 2, 3),
                             (1, 2, 1, 1), True, MOMENTUM, EPS)
            return x, ((out * Tensor(mix)).sum() + (shared * shared * shared).sum())

        x, loss = loss_of(values.copy())
        loss.backward()
        expected = numerical_gradient(lambda array: loss_of(array)[1].item(), values.copy())
        np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-7)


class TestTheWorkIsGone:
    def test_one_node_seven_acquires_three_buffers(self, rng):
        """A recorded training step of ``BatchNorm2d`` at the generator's
        ``(32, 32, 16, 16)`` on a conv output's layout.  Composed it was 16
        nodes, 9 + 17 acquires, 5 activation-sized buffers held after the
        forward and 18 MiB checked out at the peak."""
        activation = 32 * 32 * 16 * 16 * 8
        layer = layers.BatchNorm2d(32)
        layer.train()
        x = Tensor(_channel_innermost(rng.normal(size=(32, 32, 16, 16)), 1),
                   requires_grad=True)
        with fresh_pool() as pool:
            out = layer(x)
            # one node: nothing recorded between the output and its three leaves
            assert out._backward is not None
            assert [id(parent) for parent in out._parents] == [
                id(x), id(layer.weight), id(layer.bias)]
            assert out.data.strides == x.data.strides
            assert pool.stats()["outstanding_bytes"] == 3 * activation
            out.backward(rng.normal(size=out.shape))
            stats = pool.stats()
        assert stats["acquires"] == 7
        # 10 MiB checked out at the peak: the bound is within 1.25x of it
        assert stats["outstanding_high_water"] <= 12 * 2 ** 20
        assert all(t.grad is not None for t in (x, layer.weight, layer.bias))

    @pytest.mark.parametrize("training", [True, False])
    def test_a_forward_nothing_is_recorded_for_runs_in_one_buffer(self, rng, training):
        layer = layers.BatchNorm2d(4)
        layer.train(training)
        x = Tensor(rng.normal(size=(8, 4, 6, 6)))
        with fresh_pool() as pool:
            with no_grad():
                out = layer(x)
            stats = pool.stats()
            assert not out.requires_grad and out._backward is None
            # the output is one arena block; a training forward's squares
            # are scratch beside it, back before the call returns
            assert stats["acquires"] == (2 if training else 1)
            assert stats["outstanding_bytes"] == x.data.nbytes
            assert stats["outstanding_high_water"] == (2 if training else 1) * x.data.nbytes
            assert out.data.base.nbytes == x.data.nbytes
            # nothing records the output, so dropping it is what gives it back
            del out
            assert pool.stats()["outstanding_bytes"] == 0
