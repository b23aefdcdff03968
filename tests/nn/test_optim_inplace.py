"""Bit-parity pins for the in-place optimizer rewrite.

``SGD.step`` and ``Adam.step`` now update parameters through preallocated
scratch buffers and ``out=`` ufuncs instead of allocating fresh arrays
every step.  The in-place formulations commute only scalar multiplies and
array adds — bitwise-symmetric under IEEE-754 — so trajectories must match
the allocating reference implementations below *exactly* (assert_array_equal,
not allclose).  These references are the pre-rewrite ``step`` bodies,
kept here verbatim as the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, SGD, Tensor


def _reference_sgd_step(parameters, lr, momentum, weight_decay, velocity):
    """The pre-rewrite allocating SGD update."""
    for index, param in enumerate(parameters):
        if param.grad is None:
            continue
        grad = param.grad
        if weight_decay:
            grad = grad + weight_decay * param.data
        if momentum:
            if velocity[index] is None:
                velocity[index] = np.zeros_like(param.data)
            velocity[index] = momentum * velocity[index] + grad
            grad = velocity[index]
        param.data = param.data - lr * grad


def _reference_adam_step(parameters, lr, betas, eps, weight_decay, moments, step):
    """The pre-rewrite allocating Adam update."""
    beta1, beta2 = betas
    correction1 = 1 - beta1 ** step
    correction2 = 1 - beta2 ** step
    for index, param in enumerate(parameters):
        if param.grad is None:
            continue
        grad = param.grad
        if weight_decay:
            grad = grad + weight_decay * param.data
        m, v = moments[index]
        if m is None:
            m, v = np.zeros_like(param.data), np.zeros_like(param.data)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad ** 2
        moments[index] = (m, v)
        m_hat = m / correction1
        v_hat = v / correction2
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def _param_pair(rng, shapes=((5, 3), (3,), (2, 4, 4))):
    """Two identical parameter lists (one per implementation under test)."""
    arrays = [rng.normal(size=shape) for shape in shapes]
    return ([Tensor(array.copy(), requires_grad=True) for array in arrays],
            [Tensor(array.copy(), requires_grad=True) for array in arrays])


def _seed_grads(params_a, params_b, rng):
    for a, b in zip(params_a, params_b):
        grad = rng.normal(size=a.data.shape)
        a.grad = grad.copy()
        b.grad = grad.copy()


class TestSGDInPlaceParity:
    @pytest.mark.parametrize("momentum,weight_decay", [
        (0.0, 0.0), (0.9, 0.0), (0.0, 5e-4), (0.9, 5e-4),
    ])
    def test_trajectory_bitwise_equal(self, momentum, weight_decay):
        rng = np.random.default_rng(0)
        params, reference = _param_pair(rng)
        optimizer = SGD(params, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        velocity = [None] * len(reference)
        for _ in range(25):
            _seed_grads(params, reference, rng)
            optimizer.step()
            _reference_sgd_step(reference, 0.05, momentum, weight_decay, velocity)
            for actual, expected in zip(params, reference):
                np.testing.assert_array_equal(actual.data, expected.data)

    def test_skips_parameters_without_grad(self):
        params = [Tensor(np.ones(3), requires_grad=True),
                  Tensor(np.full(3, 2.0), requires_grad=True)]
        params[0].grad = np.ones(3)
        SGD(params, lr=0.5).step()
        np.testing.assert_array_equal(params[0].data, np.full(3, 0.5))
        np.testing.assert_array_equal(params[1].data, np.full(3, 2.0))

    def test_velocity_state_returns_copies(self):
        params = [Tensor(np.ones(4), requires_grad=True)]
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        params[0].grad = np.ones(4)
        optimizer.step()
        snapshot = optimizer.velocity_state()
        params[0].grad = np.ones(4)
        optimizer.step()  # mutates the live buffer in place
        np.testing.assert_array_equal(snapshot[0], np.ones(4))

    def test_load_velocity_state_preserves_param_dtype(self):
        # The fix under test: float32 parameters must not silently upcast
        # their momentum buffers to float64 on load.
        params = [Tensor(np.ones(3)), Tensor(np.ones(2))]
        params[0].data = params[0].data.astype(np.float32)
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        optimizer.load_velocity_state([np.ones(3, dtype=np.float64),
                                       np.ones(2, dtype=np.float64)])
        assert optimizer._velocity[0].dtype == np.float32
        assert optimizer._velocity[1].dtype == np.float64

    def test_load_velocity_state_copies_buffers(self):
        params = [Tensor(np.ones(3), requires_grad=True)]
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        external = [np.zeros(3)]
        optimizer.load_velocity_state(external)
        params[0].grad = np.ones(3)
        optimizer.step()
        np.testing.assert_array_equal(external[0], np.zeros(3))

    def test_load_velocity_state_validates_length(self):
        optimizer = SGD([Tensor(np.ones(3), requires_grad=True)], lr=0.1, momentum=0.9)
        with pytest.raises(ValueError, match="momentum buffers"):
            optimizer.load_velocity_state([np.ones(3), np.ones(3)])

    def test_roundtrip_resume_is_bitwise(self):
        rng = np.random.default_rng(7)
        params, resumed = _param_pair(rng)
        optimizer = SGD(params, lr=0.05, momentum=0.9)
        other = SGD(resumed, lr=0.05, momentum=0.9)
        for _ in range(5):
            _seed_grads(params, resumed, rng)
            optimizer.step()
            other.step()
        # Serialize one optimizer's momentum into a fresh instance and
        # continue both: trajectories must stay identical.
        fresh = SGD(resumed, lr=0.05, momentum=0.9)
        fresh.load_velocity_state(other.velocity_state())
        for _ in range(5):
            _seed_grads(params, resumed, rng)
            optimizer.step()
            fresh.step()
            for actual, expected in zip(params, resumed):
                np.testing.assert_array_equal(actual.data, expected.data)


class TestAdamInPlaceParity:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_trajectory_bitwise_equal(self, weight_decay):
        rng = np.random.default_rng(1)
        params, reference = _param_pair(rng)
        optimizer = Adam(params, lr=0.002, weight_decay=weight_decay)
        moments = [(None, None) for _ in reference]
        for step in range(1, 26):
            _seed_grads(params, reference, rng)
            optimizer.step()
            _reference_adam_step(reference, 0.002, (0.9, 0.999), 1e-8,
                                 weight_decay, moments, step)
            for actual, expected in zip(params, reference):
                np.testing.assert_array_equal(actual.data, expected.data)
