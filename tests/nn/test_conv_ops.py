"""Tests for convolution, pooling, up-sampling, and channel shuffle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import Tensor, batched, buffers, layers, no_grad, scratch_pool, using_numeric_policy
from repro.nn import conv as conv_ops
from repro.nn.conv import (
    avg_pool2d,
    channel_shuffle,
    col2im,
    contract,
    conv2d,
    depthwise_conv2d,
    global_avg_pool2d,
    im2col,
    max_pool2d,
    upsample_nearest2d,
)
from repro.nn.functional import numerical_gradient


def _reference_conv2d(images, weight, bias, stride, padding):
    """Naive direct convolution used as the ground truth."""
    batch, in_c, height, width = images.shape
    out_c, _, kernel, _ = weight.shape
    if padding:
        images = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (images.shape[2] - kernel) // stride + 1
    out_w = (images.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_c, out_h, out_w))
    for n in range(batch):
        for oc in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    patch = images[n, :, i * stride:i * stride + kernel, j * stride:j * stride + kernel]
                    out[n, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[n, oc] += bias[oc]
    return out


class TestIm2Col:
    def test_roundtrip_shapes(self, rng):
        images = rng.normal(size=(2, 3, 6, 6))
        cols, out_h, out_w = im2col(images, kernel=3, stride=1, padding=1)
        assert cols.shape == (2, 27, 36)
        assert (out_h, out_w) == (6, 6)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        images = rng.normal(size=(1, 2, 5, 5))
        cols, _, _ = im2col(images, kernel=3, stride=2, padding=1)
        cotangent = rng.normal(size=cols.shape)
        lhs = np.sum(cols * cotangent)
        back = col2im(cotangent, images.shape, kernel=3, stride=2, padding=1)
        rhs = np.sum(images * back)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @staticmethod
    def _col2im_tap_loop(columns, image_shape, kernel, stride, padding):
        """The historical per-tap python loop, kept as the ground truth for
        the vectorized scatter-add implementation."""
        batch, channels, height, width = image_shape
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
        cols = columns.reshape(batch, channels, kernel, kernel, out_h, out_w)
        for kh in range(kernel):
            for kw in range(kernel):
                padded[:, :, kh:kh + stride * out_h:stride,
                       kw:kw + stride * out_w:stride] += cols[:, :, kh, kw, :, :]
        if padding > 0:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (5, 2, 2),
                                                       (2, 2, 0), (1, 1, 0)])
    def test_col2im_scatter_add_matches_tap_loop_exactly(self, rng, kernel, stride, padding):
        """The vectorized scatter-add is bit-identical to the old tap loop
        (same per-pixel accumulation order), so the conv backward pass is
        numerically unchanged."""
        image_shape = (2, 3, 8, 8)
        out_h = (8 + 2 * padding - kernel) // stride + 1
        out_w = (8 + 2 * padding - kernel) // stride + 1
        columns = rng.normal(size=(2, 3 * kernel * kernel, out_h * out_w))
        expected = self._col2im_tap_loop(columns, image_shape, kernel, stride, padding)
        np.testing.assert_array_equal(
            col2im(columns, image_shape, kernel, stride, padding), expected)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (5, 2, 2)])
    def test_col2im_chunked_planes_match_tap_loop_exactly(self, rng, kernel, stride, padding):
        """More planes than one scatter-index chunk holds (with a ragged
        last chunk): chunks split between planes, so every pixel still
        accumulates its taps in the tap loop's order."""
        from repro.nn.conv import _col2im_chunk_index

        image_shape = (5, 50, 8, 8)
        out_h = (8 + 2 * padding - kernel) // stride + 1
        out_w = (8 + 2 * padding - kernel) // stride + 1
        _, chunk = _col2im_chunk_index(kernel, stride, out_h, out_w, 8 + 2 * padding,
                                       (8 + 2 * padding) ** 2)
        assert 1 < chunk < 250 and 250 % chunk
        columns = rng.normal(size=(5, 50 * kernel * kernel, out_h * out_w))
        expected = self._col2im_tap_loop(columns, image_shape, kernel, stride, padding)
        np.testing.assert_array_equal(
            col2im(columns, image_shape, kernel, stride, padding), expected)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_naive(self, rng, stride, padding):
        images = rng.normal(size=(2, 3, 7, 7))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=(4,))
        out = conv2d(Tensor(images), Tensor(weight), Tensor(bias), stride=stride, padding=padding)
        expected = _reference_conv2d(images, weight, bias, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gradients_match_numerical(self, rng):
        images = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(3,))
        x = Tensor(images, requires_grad=True)
        w = Tensor(weight, requires_grad=True)
        b = Tensor(bias, requires_grad=True)
        out = conv2d(x, w, b, stride=1, padding=1)
        (out * out).sum().backward()

        def loss_wrt_images(arr):
            val = conv2d(Tensor(arr), Tensor(weight), Tensor(bias), stride=1, padding=1)
            return float((val.data ** 2).sum())

        def loss_wrt_weight(arr):
            val = conv2d(Tensor(images), Tensor(arr), Tensor(bias), stride=1, padding=1)
            return float((val.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numerical_gradient(loss_wrt_images, images.copy(), 1e-5),
                                   rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(w.grad, numerical_gradient(loss_wrt_weight, weight.copy(), 1e-5),
                                   rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(rng.normal(size=(1, 2, 4, 4))), Tensor(rng.normal(size=(3, 5, 3, 3))))


class TestDepthwiseConv2d:
    def test_forward_matches_per_channel_conv(self, rng):
        images = rng.normal(size=(2, 3, 6, 6))
        weight = rng.normal(size=(3, 1, 3, 3))
        out = depthwise_conv2d(Tensor(images), Tensor(weight), stride=1, padding=1)
        for channel in range(3):
            expected = _reference_conv2d(images[:, channel:channel + 1], weight[channel:channel + 1],
                                         None, 1, 1)
            np.testing.assert_allclose(out.data[:, channel:channel + 1], expected, atol=1e-10)

    def test_gradient_matches_numerical(self, rng):
        images = rng.normal(size=(1, 2, 5, 5))
        weight = rng.normal(size=(2, 1, 3, 3))
        w = Tensor(weight, requires_grad=True)
        out = depthwise_conv2d(Tensor(images), w, stride=2, padding=1)
        (out * out).sum().backward()

        def loss(arr):
            val = depthwise_conv2d(Tensor(images), Tensor(arr), stride=2, padding=1)
            return float((val.data ** 2).sum())

        np.testing.assert_allclose(w.grad, numerical_gradient(loss, weight.copy(), 1e-5),
                                   rtol=1e-4, atol=1e-5)

    def test_bad_weight_shape_raises(self, rng):
        with pytest.raises(ValueError):
            depthwise_conv2d(Tensor(rng.normal(size=(1, 3, 4, 4))),
                             Tensor(rng.normal(size=(3, 2, 3, 3))))


class TestPooling:
    def test_max_pool_forward(self):
        images = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(images), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_max(self):
        images = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        x = Tensor(images, requires_grad=True)
        max_pool2d(x, kernel=2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avg_pool_forward_and_grad(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        out = avg_pool2d(Tensor(images), kernel=2)
        expected = images.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        x = Tensor(images, requires_grad=True)
        avg_pool2d(x, kernel=2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(images, 0.25))

    def test_global_avg_pool(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(images))
        np.testing.assert_allclose(out.data, images.mean(axis=(2, 3)))


def _im2col_max_pool(images, kernel, stride):
    """``max_pool2d`` as it was before windows were read off the input: gather
    the windows into columns, ``argmax`` over each.  Returns the output and
    the function from an upstream gradient to the input's."""
    batch, channels, _, _ = images.shape
    columns, out_h, out_w = im2col(images, kernel, stride, 0)
    cols = columns.reshape(batch, channels, kernel * kernel, out_h * out_w)
    arg = cols.argmax(axis=2)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2).squeeze(2)

    def input_grad(grad):
        grad_cols = np.zeros(columns.shape)
        np.put_along_axis(grad_cols.reshape(cols.shape), arg[:, :, None, :],
                          grad.reshape(batch, channels, 1, -1), axis=2)
        return col2im(grad_cols, images.shape, kernel, stride, 0)

    return out.reshape(batch, channels, out_h, out_w), input_grad


def _channels_last(array):
    """The same values laid out the way a conv output is: a transposed view
    of an (..., N, H*W, C)-contiguous base."""
    *lead, batch, channels, height, width = array.shape
    base = np.ascontiguousarray(
        np.moveaxis(array.reshape(*lead, batch, channels, height * width), -2, -1))
    return np.moveaxis(base, -1, -2).reshape(array.shape)


def _same_bits(actual, expected):
    """array_equal, NaN matching NaN, and the sign of every zero."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


class TestMaxPoolWindows:
    """Non-overlapping windows are pooled straight off the input; the im2col
    formulation above is the reference for values, layout and gradients."""

    def _check(self, images, kernel, stride=None, seed=None):
        expected, expected_grad = _im2col_max_pool(np.ascontiguousarray(images), kernel,
                                                   stride or kernel)
        x = Tensor(images, requires_grad=True)
        assert x.data is images  # the layout under test is the one that is pooled
        out = max_pool2d(x, kernel, stride)
        np.testing.assert_array_equal(out.data, expected)
        assert out.data.flags.c_contiguous and out.data.dtype == images.dtype
        seed = np.random.default_rng(3).normal(size=expected.shape) if seed is None else seed
        out.backward(seed)
        assert x.grad.shape == images.shape
        _same_bits(x.grad, expected_grad(seed))
        # A second contribution is added to the first, as every op's is.
        again = max_pool2d(x, kernel, stride)
        again.backward(seed)
        _same_bits(x.grad, expected_grad(seed) + expected_grad(seed))

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("height, width", [(6, 6), (7, 9), (12, 5)])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _channels_last])
    def test_matches_the_im2col_formulation(self, rng, kernel, height, width, layout):
        self._check(layout(rng.normal(size=(3, 4, height, width))), kernel)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_ties_go_to_the_first_maximum(self, rng, kernel):
        after_relu = np.maximum(rng.normal(size=(2, 3, 6, 6)), 0.0)  # windows of zeros
        after_relu[0, 0] = 0.0
        after_relu[1, 1] *= -0.0  # zeros of either sign compare equal
        self._check(after_relu, kernel)
        self._check(np.full((2, 3, 6, 6), 1.5), kernel)
        self._check(np.tile(rng.normal(size=(1, 1, 1, 6)), (2, 3, 6, 1)), kernel)

    def test_negative_zero_gradients_come_out_positive(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        seed = np.where(rng.random((2, 3, 2, 2)) < 0.5, -0.0, rng.normal(size=(2, 3, 2, 2)))
        assert np.signbit(seed[seed == 0]).all() and (seed == 0).any()
        self._check(images, 2, seed=seed)

    def test_non_finite_gradients_stay_where_the_maximum_was(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        seed = rng.normal(size=(2, 3, 2, 2))
        seed[0, 0, 0, 0], seed[1, 2, 1, 1], seed[1, 0, 0, 1] = np.inf, -np.inf, np.nan
        self._check(images, 2, seed=seed)

    def test_nan_inputs_take_the_general_path(self, rng):
        images = rng.normal(size=(2, 3, 6, 6))
        images[0, 1, 2, 3] = images[1, 2, 5, 5] = np.nan
        images[1, 0, 0, :2] = np.nan  # two in one window: the first is the argmax
        self._check(images, 2)
        self._check(images, 3)

    @pytest.mark.parametrize("kernel, size", [(16, 16), (16, 50), (17, 17)])
    def test_one_window_per_image(self, rng, kernel, size):
        """256 taps are the most a uint8 argmax can name (the 16x16 images of
        the whole-round harness pooled whole); 289 take the general path."""
        self._check(rng.normal(size=(2, 3, size, size)), kernel)
        self._check(rng.normal(size=(2, 3, size, size)), kernel, stride=kernel)

    @pytest.mark.parametrize("kernel, stride", [(3, 2), (2, 1), (2, 3)])
    def test_other_strides_take_the_general_path(self, rng, kernel, stride):
        self._check(rng.normal(size=(2, 3, 7, 7)), kernel, stride)

    def test_float32_and_infinities(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        images[0, 0, 0, 0], images[1, 1, 2, 2] = np.inf, -np.inf
        self._check(images, 2)
        with using_numeric_policy("float32"):
            self._check(images.astype(np.float32), 2,
                        seed=rng.normal(size=(2, 3, 2, 2)).astype(np.float32))

    def test_an_input_without_gradient_builds_no_argmax(self, rng, monkeypatch):
        images = rng.normal(size=(2, 3, 6, 6))
        expected, _ = _im2col_max_pool(images, 2, 2)
        updates = []
        real = np.greater  # only the argmax update compares
        monkeypatch.setattr(np, "greater",
                            lambda *args, **kwargs: updates.append(1) or real(*args, **kwargs))
        out = max_pool2d(Tensor(images), 2)
        with no_grad():
            unrecorded = max_pool2d(Tensor(images, requires_grad=True), 2)
        assert not updates and out._backward is None and unrecorded._backward is None
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(unrecorded.data, expected)
        max_pool2d(Tensor(images, requires_grad=True), 2)
        assert len(updates) == 3

    def test_takes_nothing_from_the_arena_on_the_way_forward(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        before = scratch_pool().stats()["acquires"]
        max_pool2d(x, 2)
        assert scratch_pool().stats()["acquires"] == before

    @pytest.mark.parametrize("cohort", [1, 3, 8])
    def test_through_a_batched_cohort(self, rng, cohort):
        """``nn.batched`` folds the cohort into the batch axis and calls the
        same op: every slice equals the serial reference on its own."""
        run = batched._build_pool(layers.MaxPool2d(2), None, None, None, None)
        images = _channels_last(rng.normal(size=(cohort * 4, 3, 6, 7))).reshape(
            cohort, 4, 3, 6, 7)
        x = Tensor(images, requires_grad=True)
        out = run(x)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        for member in range(cohort):
            expected, expected_grad = _im2col_max_pool(
                np.ascontiguousarray(images[member]), 2, 2)
            np.testing.assert_array_equal(out.data[member], expected)
            _same_bits(x.grad[member], expected_grad(seed[member]))


class TestUpsampleAndShuffle:
    def test_upsample_forward(self):
        images = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = upsample_nearest2d(Tensor(images), scale=2)
        np.testing.assert_allclose(out.data[0, 0],
                                   [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_upsample_grad_sums_over_window(self):
        images = np.ones((1, 1, 2, 2))
        x = Tensor(images, requires_grad=True)
        upsample_nearest2d(x, scale=3).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(images, 9.0))

    def test_channel_shuffle_permutes_channels(self):
        images = np.zeros((1, 4, 1, 1))
        images[0, :, 0, 0] = [0, 1, 2, 3]
        out = channel_shuffle(Tensor(images), groups=2)
        np.testing.assert_allclose(out.data[0, :, 0, 0], [0, 2, 1, 3])

    def test_channel_shuffle_invalid_groups(self, rng):
        with pytest.raises(ValueError):
            channel_shuffle(Tensor(rng.normal(size=(1, 3, 2, 2))), groups=2)

    def test_channel_shuffle_is_differentiable(self, rng):
        images = rng.normal(size=(2, 4, 3, 3))
        x = Tensor(images, requires_grad=True)
        (channel_shuffle(x, 2) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * images)


# Every contraction ``contract`` still serves (the conv forward and weight VJP
# run their own GEMMs), with the destination layout its call site hands in
# (axes of the C-contiguous base, as a view in result order); ``None`` where
# the call site passes no destination.
_CONTRACTIONS = [
    ("of,nol->nfl", (0, 1, 2)),
    ("cf,ncfl->ncl", (1, 0, 2)),
    ("ncl,ncfl->cf", None),
    ("bof,bnol->bnfl", (0, 1, 2, 3)),
]


def _contraction_sizes(subscripts):
    """Seeded size assignments: all dimensions >= 2, then each one at 1."""
    letters = sorted(set(subscripts) - set(",->"))
    rng = np.random.default_rng(sum(map(ord, subscripts)))
    regular = [dict(zip(letters, rng.integers(2, 7, size=len(letters))))
               for _ in range(3)]
    return regular + [{**regular[0], letter: 1} for letter in letters]


def _operand(rng, letters, size, dtype, transposed):
    """A random operand; ``transposed`` builds it as a reversed-axes view."""
    shape = tuple(size[c] for c in letters)
    if not transposed:
        return rng.normal(size=shape).astype(dtype)
    return rng.normal(size=shape[::-1]).astype(dtype).transpose()


def _destination(size, result, out_axes, dtype):
    """A NaN-filled destination in result order: the call site's layout
    (``out_axes`` of a C-contiguous base), or a plain C-order array."""
    shape = tuple(size[c] for c in result)
    axes = out_axes or tuple(range(len(shape)))
    base = np.full([shape[axes.index(k)] for k in range(len(axes))], np.nan, dtype=dtype)
    out = base.transpose(axes)
    assert out.shape == shape
    return out


class TestContract:
    """``contract`` is ``np.einsum(..., optimize=True)``: the same bits, into
    the caller's destination where it has the regular case's layout, and
    without one in einsum's layout or a plan's (C-contiguous)."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["dense", "views"])
    @pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float32, np.float32),
                                        (np.float32, np.float64)],
                             ids=["float64", "float32", "mixed"])
    @pytest.mark.parametrize("subscripts, out_axes", _CONTRACTIONS,
                             ids=[entry[0] for entry in _CONTRACTIONS])
    def test_equals_einsum_in_values_and_strides(self, subscripts, out_axes, dtypes, transposed):
        inputs, result = subscripts.split("->")
        a_letters, b_letters = inputs.split(",")
        rng = np.random.default_rng(7)
        for size in _contraction_sizes(subscripts):
            a = _operand(rng, a_letters, size, dtypes[0], transposed)
            b = _operand(rng, b_letters, size, dtypes[1], transposed)
            expected = np.einsum(subscripts, a, b, optimize=True)

            plain = contract(subscripts, a, b)
            np.testing.assert_array_equal(plain, expected)
            assert plain.dtype == expected.dtype, size
            # Without a destination: einsum's own layout at the call site that
            # passes none, and otherwise that or a plan's product, which is
            # C-contiguous in result order.
            assert plain.strides == expected.strides or (
                out_axes is not None and plain.flags.c_contiguous), size

            out = _destination(size, result, out_axes, expected.dtype)
            filled = contract(subscripts, a, b, out=out)
            np.testing.assert_array_equal(filled, expected)
            regular = dtypes[0] == dtypes[1] and min(size.values()) >= 2
            assert filled is out or (
                not regular and filled.strides == expected.strides), size

    @pytest.mark.parametrize("subscripts, out_axes", _CONTRACTIONS,
                             ids=[entry[0] for entry in _CONTRACTIONS])
    def test_second_call_allocates_no_slab(self, subscripts, out_axes):
        inputs, result = subscripts.split("->")
        a_letters, b_letters = inputs.split(",")
        rng = np.random.default_rng(11)
        size = _contraction_sizes(subscripts)[0]
        a = _operand(rng, a_letters, size, np.float64, False)
        b = _operand(rng, b_letters, size, np.float64, False)
        out = _destination(size, result, out_axes, np.float64) if out_axes else None
        first = contract(subscripts, a, b, out=out)
        misses = scratch_pool().stats()["misses"]
        second = contract(subscripts, a, b, out=out)
        assert scratch_pool().stats()["misses"] == misses
        np.testing.assert_array_equal(first, second)


def _leaf(array):
    """A gradient-taking leaf over ``array`` itself: its dtype and layout are
    what is under test, whatever the numeric policy would make of them."""
    tensor = Tensor(array, requires_grad=True)
    tensor.data = array
    return tensor


def _einsum_conv2d(images, weight, bias, stride, padding, seed):
    """The convolution as three ``np.einsum(..., optimize=True)`` calls over
    ``im2col``'s sample-major columns: the definition of every bit (and of
    the output's strides) that ``conv2d`` has to reproduce.  Returns the
    output and the gradients of ``(out * seed).sum()`` for input, weight and
    bias."""
    batch, out_channels, kernel = images.shape[0], weight.shape[0], weight.shape[-1]
    columns, out_h, out_w = im2col(images, kernel, stride, padding)
    w_mat = weight.reshape(out_channels, -1)
    out = np.einsum("of,nfl->nol", w_mat, columns, optimize=True) + bias.reshape(1, -1, 1)
    grad = seed.reshape(batch, out_channels, -1)
    grad_w = np.einsum("nol,nfl->of", grad, columns, optimize=True).reshape(weight.shape)
    if min(w_mat.shape[1], grad.shape[2]) >= 2:
        grad_columns = np.matmul(w_mat.T, grad)
    else:
        grad_columns = np.einsum("of,nol->nfl", w_mat, grad, optimize=True)
    # col2im folds in float64 (bincount's dtype); the gradient takes the input's.
    grad_x = col2im(grad_columns, images.shape, kernel, stride, padding).astype(images.dtype)
    return (out.reshape(batch, out_channels, out_h, out_w), grad_x, grad_w,
            grad.sum(axis=(0, 2)))


def _conv_geometries(kernels=(1, 3, 5), strides=(1, 2)):
    """kernel x stride x padding x C_in x C_out x batch: 486 geometries which,
    over 6-pixel images, have GEMM products on both sides of
    ``_BLAS_SMALL_PRODUCT`` and, at kernel 5 without padding, a single output
    position."""
    return list(itertools.product(kernels, strides, (0, 1, 2), (1, 3, 16), (1, 2, 16),
                                  (1, 2, 32)))


class TestConvGemm:
    """``conv2d`` gathers tap-major columns and runs its own GEMMs; the einsum
    formulation over ``im2col`` columns stays the reference, bit for bit."""

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _channels_last],
                             ids=["c_contiguous", "channel_innermost"])
    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_bit_equal_to_the_einsum_formulation(self, stride, kernel, policy, layout):
        rng = np.random.default_rng(21)
        products = set()
        with using_numeric_policy(policy):
            dtype = np.dtype(policy)
            for case in _conv_geometries([kernel], [stride]):
                _, _, padding, in_channels, out_channels, batch = case
                images = layout(rng.normal(size=(batch, in_channels, 6, 6)).astype(dtype))
                weight = rng.normal(size=(out_channels, in_channels, kernel, kernel)).astype(dtype)
                bias = rng.normal(size=(out_channels,)).astype(dtype)
                x, w, b = _leaf(images), _leaf(weight), _leaf(bias)
                out = conv2d(x, w, b, stride=stride, padding=padding)
                seed = rng.normal(size=out.shape).astype(dtype)
                expected = _einsum_conv2d(images, weight, bias, stride, padding, seed)
                np.testing.assert_array_equal(out.data, expected[0], err_msg=str(case))
                assert out.data.strides == expected[0].strides, case
                assert out.data.dtype == dtype
                with no_grad():
                    unrecorded = conv2d(x, w, b, stride=stride, padding=padding)
                np.testing.assert_array_equal(unrecorded.data, expected[0], err_msg=str(case))
                assert unrecorded.data.strides == expected[0].strides, case
                out.backward(seed)
                for actual, reference in zip((x.grad, w.grad, b.grad), expected[1:]):
                    np.testing.assert_array_equal(actual, reference, err_msg=str(case))
                    assert actual.dtype == dtype
                products.add(out_channels * in_channels * kernel ** 2 * out[0, 0].size * batch
                             > conv_ops._BLAS_SMALL_PRODUCT)
        # The staged forward always, the unstaged one where anything is large.
        assert products == ({False} if kernel == 1 else {False, True})

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("shape, out_channels", [
        ((32, 8, 8, 8), 16),     # 2.4e6 multiply-adds: just past the threshold
        ((32, 16, 8, 8), 32),    # 9.4e6
        ((32, 32, 16, 16), 16),  # 3.8e7: the generator's widest layer
    ])
    def test_harness_sized_layers_past_the_small_product(self, shape, out_channels, policy):
        """Past ``_BLAS_SMALL_PRODUCT`` the forward reads the columns
        transposed and relies on BLAS giving that product the row-major one's
        bits: a BLAS that does not fails here, not only in the goldens."""
        rng = np.random.default_rng(23)
        with using_numeric_policy(policy):
            dtype = np.dtype(policy)
            images = rng.normal(size=shape).astype(dtype)
            weight = rng.normal(size=(out_channels, shape[1], 3, 3)).astype(dtype)
            bias = rng.normal(size=(out_channels,)).astype(dtype)
            x, w, b = _leaf(images), _leaf(weight), _leaf(bias)
            out = conv2d(x, w, b, padding=1)
            assert out_channels * w[0].size * out[:, 0].size > conv_ops._BLAS_SMALL_PRODUCT
            seed = rng.normal(size=out.shape).astype(dtype)
            expected = _einsum_conv2d(images, weight, bias, 1, 1, seed)
            np.testing.assert_array_equal(out.data, expected[0])
            assert out.data.strides == expected[0].strides
            out.backward(seed)
            for actual, reference in zip((x.grad, w.grad, b.grad), expected[1:]):
                np.testing.assert_array_equal(actual, reference)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _channels_last],
                             ids=["c_contiguous", "channel_innermost"])
    def test_every_slice_of_a_stack_is_conv2d_on_that_slice(self, width, layout):
        rng = np.random.default_rng(22 + width)
        for case in _conv_geometries():
            kernel, stride, padding, in_channels, out_channels, batch = case
            if (kernel, padding) not in ((1, 0), (3, 1), (5, 0)):
                continue  # conv2d above has every geometry; the stack a third
            images = layout(rng.normal(size=(width, batch, in_channels, 6, 6)))
            weight = rng.normal(size=(width, out_channels, in_channels, kernel, kernel))
            bias = rng.normal(size=(width, out_channels))
            x, w, b = _leaf(images), _leaf(weight), _leaf(bias)
            out = batched.batched_conv2d(x, w, b, stride=stride, padding=padding)
            seed = rng.normal(size=out.shape)
            with no_grad():
                unrecorded = batched.batched_conv2d(x, w, b, stride=stride, padding=padding)
            layouts = [out.data[member].strides for member in range(width)]
            values = out.data.copy()
            out.backward(seed)
            for member in range(width):
                xs, ws, bs = _leaf(images[member]), _leaf(weight[member]), _leaf(bias[member])
                alone = conv2d(xs, ws, bs, stride=stride, padding=padding)
                np.testing.assert_array_equal(values[member], alone.data, err_msg=str(case))
                np.testing.assert_array_equal(unrecorded.data[member], alone.data)
                assert layouts[member] == alone.data.strides, case
                assert unrecorded.data[member].strides == alone.data.strides, case
                alone.backward(seed[member])
                np.testing.assert_array_equal(x.grad[member], xs.grad, err_msg=str(case))
                np.testing.assert_array_equal(w.grad[member], ws.grad, err_msg=str(case))
                np.testing.assert_array_equal(b.grad[member], bs.grad, err_msg=str(case))

    @staticmethod
    def _count_einsum(monkeypatch):
        calls = []
        real = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("unit, shape, out_channels, kernel", [
        ("o", (4, 3, 6, 6), 1, 3),   # the generator's 1-channel output layer
        ("n", (1, 3, 6, 6), 4, 3),   # a batch of one sample
        ("l", (4, 3, 3, 3), 4, 3),   # one output position
        ("f", (4, 1, 6, 6), 4, 1),   # a 1x1 kernel over one channel
    ])
    def test_a_unit_dimension_is_left_to_einsum(self, rng, monkeypatch, unit, shape,
                                                out_channels, kernel):
        images = rng.normal(size=shape)
        weight = rng.normal(size=(out_channels, shape[1], kernel, kernel))
        bias = rng.normal(size=(out_channels,))
        x, w, b = _leaf(images), _leaf(weight), _leaf(bias)
        calls = self._count_einsum(monkeypatch)
        out = conv2d(x, w, b)
        seed = rng.normal(size=out.shape)
        values, layout = out.data.copy(), out.data.strides
        out.backward(seed)
        # Forward and weight VJP; the input VJP too unless its own plan's
        # dimensions (f and l) are both wide.
        assert calls[:2] == ["of,nfl->nol", "nol,nfl->of"], unit
        assert len(calls) == (3 if unit in "fl" else 2)
        monkeypatch.undo()
        expected = _einsum_conv2d(images, weight, bias, 1, 0, seed)
        np.testing.assert_array_equal(values, expected[0])
        assert layout == expected[0].strides
        for actual, reference in zip((x.grad, w.grad, b.grad), expected[1:]):
            np.testing.assert_array_equal(actual, reference)

    def test_mixed_dtypes_are_left_to_einsum(self, rng, monkeypatch):
        images = rng.normal(size=(4, 3, 6, 6)).astype(np.float32)
        x, w = _leaf(images), _leaf(rng.normal(size=(4, 3, 3, 3)))
        calls = self._count_einsum(monkeypatch)
        out = conv2d(x, w)
        out.backward(np.ones(out.shape))
        # (The input VJP contracts the float64 weight with the float64
        # gradient: one dtype, its own plan.)
        assert calls == ["of,nfl->nol", "nol,nfl->of"]
        assert out.data.dtype == w.grad.dtype == np.float64 and x.grad.dtype == np.float32

    def test_wide_dimensions_never_reach_einsum(self, rng, monkeypatch):
        calls = self._count_einsum(monkeypatch)
        for shape in ((2, 2, 2, 3), (32, 16, 8, 8)):
            x, w = _leaf(rng.normal(size=shape)), _leaf(rng.normal(size=(2, shape[1], 1, 1)))
            conv2d(x, w).sum().backward()
            stacked = batched.batched_conv2d(_leaf(x.data[None]), _leaf(w.data[None]))
            stacked.sum().backward()
        assert calls == []

    @pytest.mark.parametrize("input_grad", [False, True])
    def test_the_columns_are_never_copied(self, rng, input_grad):
        """The harness's largest server-side convolution, recorded forward and
        backward on an arena of its own: besides the columns themselves (and
        the input VJP's gradient columns, which ``col2im`` folds) nothing the
        size of the column matrix is acquired — the parent commit staged a
        transposed copy in each of forward and weight VJP — and the arena's
        high-water mark is the parent's 40 894 464 bytes less one column
        matrix."""
        x = Tensor(rng.normal(size=(32, 32, 16, 16)), requires_grad=input_grad)
        w = Tensor(rng.normal(size=(16, 32, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(16,)), requires_grad=True)
        column_bytes = (32 * 3 * 3) * (32 * 16 * 16) * 8
        with buffers.fresh_pool() as pool:
            acquired = []
            acquire = pool.acquire

            def record(shape, dtype=np.float64):
                acquired.append(int(np.prod(shape)) * np.dtype(dtype).itemsize)
                return acquire(shape, dtype)

            pool.acquire = record
            out = conv2d(x, w, b, padding=1)
            out.backward(np.ones(out.shape))
        stats = pool.stats()
        # Padded plane, columns, output base; the seed's copy, the staged
        # (N*L, O) gradient; the input VJP's columns.
        assert stats["acquires"] == len(acquired) == 5 + input_grad
        assert acquired.count(column_bytes) == 1 + input_grad
        assert max(size for size in acquired if size != column_bytes) < column_bytes // 7
        assert stats["outstanding_high_water"] == 40_894_464 - column_bytes
