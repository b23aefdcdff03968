"""Gradient-buffer reclaim semantics and the gradients' reference expressions.

After ``backward()``, intermediate gradients are released into the scratch
pool (their ``.grad`` reads ``None``); leaves, the backward seed, and any
node marked with ``retain_grad()`` keep theirs.  These tests pin that
contract, and that the in-place, pooled backward of every op with a
multi-step gradient computes, bit for bit, the plain numpy expression of
that gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor


def _small_graph(rng):
    """A leaf -> two intermediates -> scalar loss chain."""
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    hidden = (x * 2.0).relu()
    scaled = hidden + 1.0
    loss = scaled.sum()
    return x, hidden, scaled, loss


class TestReclaim:
    def test_intermediate_grads_reclaimed_leaves_kept(self, rng):
        x, hidden, scaled, loss = _small_graph(rng)
        loss.backward()
        assert x.grad is not None
        assert hidden.grad is None
        assert scaled.grad is None
        # The seed tensor backward ran from keeps its gradient too.
        assert loss.grad is not None

    def test_retain_grad_keeps_intermediate(self, rng):
        x, hidden, scaled, loss = _small_graph(rng)
        hidden.retain_grad()
        loss.backward()
        assert hidden.grad is not None
        assert scaled.grad is None
        # d(loss)/d(hidden) = 1 everywhere (sum of hidden + 1.0).
        np.testing.assert_array_equal(hidden.grad, np.ones_like(hidden.data))


# (shape of the differentiated operand, op, its gradient in plain numpy).
# ``op(x, c)`` builds the output from the operand tensor and a (5, 4) constant;
# ``reference(g, x, c, out)`` is given the upstream gradient, the two payloads
# and the forward value.  The references are the allocating expressions the
# engine's pooled ``fill`` closures replaced.
_REFERENCES = [
    pytest.param((5, 4), lambda x, c: Tensor(c) / x,
                 lambda g, x, c, out: -g * c / (x ** 2), id="div"),
    pytest.param((1, 4), lambda x, c: Tensor(c) / x,
                 lambda g, x, c, out: (-g * c / (x ** 2)).sum(axis=0, keepdims=True),
                 id="div_broadcast"),
    pytest.param((5, 4), lambda x, c: x ** 3,
                 lambda g, x, c, out: g * 3 * x ** (3 - 1), id="pow"),
    pytest.param((5, 4), lambda x, c: x.sqrt(),
                 lambda g, x, c, out: g * 0.5 * x ** (0.5 - 1), id="sqrt"),
    pytest.param((5, 4), lambda x, c: x.sigmoid(),
                 lambda g, x, c, out: g * out * (1.0 - out), id="sigmoid"),
    pytest.param((5, 4), lambda x, c: x.tanh(),
                 lambda g, x, c, out: g * (1.0 - out ** 2), id="tanh"),
    pytest.param((5, 4), lambda x, c: x.softmax(axis=-1),
                 lambda g, x, c, out: out * (g - (g * out).sum(axis=-1, keepdims=True)),
                 id="softmax"),
    pytest.param((5, 4), lambda x, c: x.log_softmax(axis=-1),
                 lambda g, x, c, out: g - np.exp(out) * g.sum(axis=-1, keepdims=True),
                 id="log_softmax"),
    pytest.param((5, 4), lambda x, c: x.matmul(Tensor(c.T)),
                 lambda g, x, c, out: g @ c, id="matmul_left"),
    pytest.param((5, 4), lambda x, c: Tensor(c.T).matmul(x),
                 lambda g, x, c, out: c @ g, id="matmul_right"),
]


class TestReferenceGradients:
    @pytest.mark.parametrize("accumulations", [1, 2])
    @pytest.mark.parametrize("shape, op, reference", _REFERENCES)
    def test_pooled_backward_equals_the_numpy_expression(
            self, rng, shape, op, reference, accumulations):
        """The second accumulation lands in the ``.grad`` the first one left
        (in place), where the reference adds the two expressions."""
        x = Tensor(np.abs(rng.normal(size=shape)) + 0.5, requires_grad=True)
        constant = rng.normal(size=(5, 4))
        expected = None
        for _ in range(accumulations):
            out = op(x, constant)
            seed = rng.normal(size=out.shape)
            value = out.data.copy()
            out.backward(seed)
            term = reference(seed, x.data, constant, value)
            expected = term if expected is None else expected + term
        assert x.grad.shape == shape
        np.testing.assert_array_equal(x.grad, expected)
