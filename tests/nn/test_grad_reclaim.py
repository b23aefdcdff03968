"""Gradient-buffer reclaim semantics and the gradients' reference expressions.

``backward()`` reclaims a node the moment its own closure has run: its
gradient goes back to the scratch pool (``.grad`` reads ``None``), so does
its pooled forward output (``.data`` reads ``None``), and the graph
references are dropped.  Leaves, the backward seed, and whatever
``retain_grad()`` / ``retain_data()`` / ``detach()`` pinned keep theirs.
These tests pin that contract, and that the in-place, pooled backward of
every op with a multi-step gradient computes, bit for bit, the plain numpy
expression of that gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, layers
from repro.nn.buffers import fresh_pool


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


def _interior_nodes(root):
    """Every node below ``root`` that has a closure, ``root`` included."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestReclaimAsBackwardWalks:
    def test_backward_never_holds_more_than_it_started_with_plus_two_gradients(self, rng):
        """Through six conv/BN/ReLU layers the arena bytes checked out when a
        closure starts never exceed what was checked out when the first one
        started (every forward output and mask) by more than the two largest
        gradients: whatever a closure has propagated is already back."""
        stack = []
        for index in range(6):
            stack += [layers.Conv2d(3 if index == 0 else 8, 8, 3, padding=1, seed=index),
                      layers.BatchNorm2d(8), layers.ReLU()]
        for layer in stack:
            layer.train()
        with fresh_pool() as pool:
            out = Tensor(rng.normal(size=(4, 3, 8, 8)))
            for layer in stack:
                out = layer(out)
            loss = out.sum()
            nodes = _interior_nodes(loss)
            assert len(nodes) == 6 * 3 + 1  # a node per conv, batch norm and ReLU; the sum
            held = []

            def watched(closure):
                def run():
                    held.append(pool.stats()["outstanding_bytes"])
                    closure()
                return run

            for node in nodes:
                node._backward = watched(node._backward)
            loss.backward()
            after = pool.stats()["outstanding_bytes"]
        assert len(held) == len(nodes)
        largest = 4 * 8 * 8 * 8 * 8  # one activation's worth of float64
        assert max(held) <= held[0] + 2 * largest
        # ... and falls as it goes: at the input end next to nothing is left.
        assert held[-1] < held[0] / 4
        # Nothing stays out: the parameters are leaves, and a leaf's gradient
        # is an array of its own, not the arena's.
        assert after == 0

    def test_a_node_that_feeds_only_leaves_runs_right_after_its_consumer(
            self, rng, monkeypatch):
        """``Linear`` multiplies by ``weight.transpose()``: that node's
        gradient is as large as the weight, and only the weight, a leaf, is
        waiting for it.  Its closure runs next after the matmul's, so the
        gradient is not out while the layers below are walked — and every
        other closure runs where it would with the weights frozen, so a sum
        of three contributions is formed in the order it always was."""
        images = rng.normal(size=(5, 6))
        created = []
        make = Tensor._make
        monkeypatch.setattr(Tensor, "_make", staticmethod(
            lambda *args, **kwargs: created.append(make(*args, **kwargs)) or created[-1]))

        def closure_order(frozen):
            """Creation indices of the nodes, in the order their closures ran."""
            del created[:]
            linears = [layers.Linear(6, 6, seed=index) for index in range(4)]
            for linear in linears:
                linear.weight.requires_grad = not frozen
            shared = hidden = Tensor(images, requires_grad=True) * 1.0
            for linear in linears:
                hidden = linear(hidden).relu()
            loss = (hidden + shared * shared + shared.relu()).sum()  # three consumers
            order = []
            for index, node in enumerate(created):
                if node._backward is not None:
                    def spy(closure=node._backward, index=index):
                        order.append(index)
                        closure()
                    node._backward = spy
            weights = [linear.weight for linear in linears]
            transposes = {index for index, node in enumerate(created)
                          if any(parent is weight for parent in node._parents
                                 for weight in weights)}
            loss.backward()
            return order, transposes

        order, transposes = closure_order(frozen=False)
        assert len(transposes) == 4 and transposes <= set(order)
        for position, index in enumerate(order):
            if index in transposes:
                assert order[position - 1] == index + 1  # the matmul made from it
        frozen_order, _ = closure_order(frozen=True)
        assert frozen_order == [index for index in order if index not in transposes]

    def test_a_tensor_with_two_consumers_is_reclaimed_after_both_closures(self, rng):
        x = Tensor(rng.integers(-3, 4, size=(4, 3)).astype(float), requires_grad=True)
        shared = x * 2.0  # pooled forward output
        seen = {}
        left, right = shared.relu(), shared * shared
        for name, node in (("left", left), ("right", right)):
            def spy(closure=node._backward, name=name):
                seen[name] = (shared.data is not None, shared._backward is not None)
                closure()
                # both consumers add into it before its own closure reads it
                seen[name + "_grad"] = shared.grad.copy()
            node._backward = spy
        (left.sum() + right.sum()).backward()
        assert seen["left"] == seen["right"] == (True, True)
        assert shared.data is None and shared.grad is None and shared._parents == ()
        total = (x.data * 2.0 > 0) + 2 * (x.data * 2.0)
        last = "left_grad" if list(seen).index("left_grad") > list(seen).index("right_grad") \
            else "right_grad"
        np.testing.assert_array_equal(seen[last], total)
        np.testing.assert_array_equal(x.grad, total * 2.0)

    def test_what_was_pinned_and_the_seed_stay_readable(self, rng):
        x = Tensor(rng.integers(-3, 4, size=(4, 3)).astype(float), requires_grad=True)
        kept_grad, kept_data, detached, dropped = x * 2.0, x * 3.0, x * 4.0, x * 5.0
        kept_grad.retain_grad()
        kept_data.retain_data()
        payload = detached.detach()
        seed = kept_grad + kept_data + detached + dropped
        expected = x.data * 14.0
        seed.backward(np.ones((4, 3)))
        np.testing.assert_array_equal(kept_grad.grad, np.ones((4, 3)))
        assert kept_grad.data is None
        np.testing.assert_array_equal(kept_data.data, x.data * 3.0)
        assert kept_data.grad is None
        np.testing.assert_array_equal(payload.data, x.data * 4.0)
        assert payload.data is detached.data
        assert dropped.data is None and dropped.grad is None
        np.testing.assert_array_equal(seed.data, expected)
        np.testing.assert_array_equal(seed.grad, np.ones((4, 3)))
        assert seed._backward is None and seed._parents == ()
        with pytest.raises(RuntimeError, match="retain_data"):
            dropped.item()

    def test_the_seed_dies_with_its_last_reference(self, rng):
        """No closure is left holding the seed, so a loss tensor — and the
        arena bytes under it — goes when the step drops it, not at the next
        collector pass."""
        with fresh_pool() as pool:
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            loss = (x * 2.0).relu() * 3.0
            loss.backward(np.ones((4, 3)))
            # the seed's data and gradient (x is a leaf: its gradient is its own)
            assert pool.stats()["outstanding_bytes"] == 2 * loss.data.nbytes
            del loss
            assert pool.stats()["outstanding_bytes"] == 0
            assert x.grad.base is None


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
