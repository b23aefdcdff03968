"""Unit tests for the autograd engine: forward values and analytic gradients.

Every operation is checked against numpy for its forward value and against
central finite differences for its gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack
from repro.nn.functional import numerical_gradient


def _gradcheck(build_loss, x0, tolerance=1e-6):
    """Compare analytic and numerical gradients of a scalar loss w.r.t. x0."""
    x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad.copy()

    def scalar(arr):
        return build_loss(Tensor(arr)).item()

    numeric = numerical_gradient(scalar, np.array(x0, dtype=np.float64))
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=tolerance)


class TestElementwise:
    def test_add_forward_and_grad(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        out = Tensor(a, requires_grad=True) + Tensor(b)
        np.testing.assert_allclose(out.data, a + b)
        _gradcheck(lambda x: (x + Tensor(b)).sum(), a)

    def test_add_broadcasting_grad(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        x = Tensor(b, requires_grad=True)
        out = (Tensor(a) + x).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(4, 3.0))

    def test_mul_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        _gradcheck(lambda x: (x * Tensor(b)).sum(), a)

    def test_div_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3)) + 3.0
        _gradcheck(lambda x: (x / Tensor(b)).sum(), a)
        _gradcheck(lambda x: (Tensor(a) / (x + 5.0)).sum(), b)

    def test_sub_and_neg(self, rng):
        a = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        out = Tensor(a) - Tensor(b)
        np.testing.assert_allclose(out.data, a - b)
        _gradcheck(lambda x: (-x).sum(), a)

    def test_pow_grad(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        _gradcheck(lambda x: (x ** 3).sum(), a)
        _gradcheck(lambda x: (x ** 0.5).sum(), a)

    def test_exp_log_grad(self, rng):
        a = rng.normal(size=(6,))
        _gradcheck(lambda x: x.exp().sum(), a)
        _gradcheck(lambda x: (x.exp() + 1.0).log().sum(), a)

    def test_abs_grad(self, rng):
        a = rng.normal(size=(8,)) + 0.1  # keep away from the kink
        _gradcheck(lambda x: x.abs().sum(), a)

    def test_clip_grad_zero_outside_range(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        out = x.clip(-1.0, 1.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_scalar_right_ops(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (3.0 - x) + (6.0 / x) + 2.0 * x
        expected = (3.0 - x.data) + 6.0 / x.data + 2.0 * x.data
        np.testing.assert_allclose(out.data, expected)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        a = rng.normal(size=(3, 4, 5))
        out = Tensor(a).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, a.sum(axis=1, keepdims=True))
        _gradcheck(lambda x: (x.sum(axis=(0, 2)) ** 2).sum(), a)

    def test_mean_and_var(self, rng):
        a = rng.normal(size=(4, 6))
        np.testing.assert_allclose(Tensor(a).mean(axis=0).data, a.mean(axis=0))
        np.testing.assert_allclose(Tensor(a).var(axis=1).data, a.var(axis=1), rtol=1e-10)
        _gradcheck(lambda x: x.var(axis=0).sum(), a)

    def test_max_grad_routes_to_argmax(self):
        a = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        x = Tensor(a, requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_reshape_transpose_grad(self, rng):
        a = rng.normal(size=(2, 3, 4))
        _gradcheck(lambda x: (x.reshape(6, 4).transpose() ** 2).sum(), a)

    def test_flatten_keeps_batch(self, rng):
        a = rng.normal(size=(5, 2, 3))
        assert Tensor(a).flatten(1).shape == (5, 6)

    def test_getitem_grad(self, rng):
        a = rng.normal(size=(4, 5))
        x = Tensor(a, requires_grad=True)
        x[1:3, ::2].sum().backward()
        expected = np.zeros_like(a)
        expected[1:3, ::2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_pad2d_grad(self, rng):
        a = rng.normal(size=(2, 1, 3, 3))
        x = Tensor(a, requires_grad=True)
        out = x.pad2d(2)
        assert out.shape == (2, 1, 7, 7)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))

    def test_concatenate_and_stack_grads(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        xa, xb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        concatenate([xa, xb], axis=1).sum().backward()
        np.testing.assert_allclose(xa.grad, np.ones_like(a))
        np.testing.assert_allclose(xb.grad, np.ones_like(b))
        xa.zero_grad()
        xb.zero_grad()
        stack([xa, xb], axis=0).sum().backward()
        np.testing.assert_allclose(xa.grad, np.ones_like(a))


class TestMatmulAndNonlinearities:
    def test_matmul_forward_and_grads(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(a).matmul(Tensor(b)).data, a @ b)
        _gradcheck(lambda x: (x @ Tensor(b)).sum(), a)
        _gradcheck(lambda x: (Tensor(a) @ x).sum(), b)

    def test_relu_sigmoid_tanh_leaky(self, rng):
        a = rng.normal(size=(10,)) + 0.05
        _gradcheck(lambda x: x.relu().sum(), a)
        _gradcheck(lambda x: x.sigmoid().sum(), a)
        _gradcheck(lambda x: x.tanh().sum(), a)
        _gradcheck(lambda x: x.leaky_relu(0.1).sum(), a)

    def test_softmax_rows_sum_to_one(self, rng):
        a = rng.normal(size=(4, 7))
        probs = Tensor(a).softmax(axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4))
        assert (probs > 0).all()

    def test_softmax_grad(self, rng):
        a = rng.normal(size=(3, 5))
        weights = rng.normal(size=(3, 5))
        _gradcheck(lambda x: (x.softmax(axis=-1) * Tensor(weights)).sum(), a)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        a = rng.normal(size=(3, 5)) * 10
        np.testing.assert_allclose(Tensor(a).log_softmax(-1).data,
                                   np.log(Tensor(a).softmax(-1).data), atol=1e-10)

    def test_log_softmax_grad(self, rng):
        a = rng.normal(size=(3, 5))
        weights = rng.normal(size=(3, 5))
        _gradcheck(lambda x: (x.log_softmax(axis=-1) * Tensor(weights)).sum(), a)

    def test_softmax_stability_with_large_logits(self):
        a = np.array([[1e4, 1e4 - 5.0, 0.0]])
        probs = Tensor(a).softmax(-1).data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0)


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_backward_shape_check(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(4))

    def test_gradients_accumulate_across_backward_calls(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_shared_subexpression_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # used once but x appears twice
        z = y + x
        z.backward()
        np.testing.assert_allclose(x.grad, [5.0])  # d(x^2 + x)/dx = 2x + 1

    def test_diamond_graph_grad(self, rng):
        a = rng.normal(size=(4,))
        _gradcheck(lambda x: ((x * 2.0) + (x ** 2)).sum(), a)

    def test_item_and_len_and_repr(self):
        x = Tensor(np.array([3.5]))
        assert x.item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4
        assert "Tensor" in repr(x)
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()

    def test_as_tensor_passthrough(self):
        x = Tensor(np.ones(2))
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_integer_labels_keep_integer_dtype(self):
        labels = Tensor(np.array([1, 2, 3]))
        assert labels.data.dtype.kind in "iu"


def test_no_grad_is_thread_local():
    """The autograd switch must be per-thread: work running concurrently on
    threads enters/exits no_grad in arbitrary interleavings, which would
    corrupt a shared module-global flag."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.nn import is_grad_enabled, no_grad

    def toggler(_):
        for _ in range(100):
            assert is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
                with no_grad():
                    assert not is_grad_enabled()
                assert not is_grad_enabled()
        return is_grad_enabled()

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(toggler, range(8)))
    assert is_grad_enabled()
