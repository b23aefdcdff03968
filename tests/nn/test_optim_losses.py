"""Tests for optimizers, LR schedules, and the classification/distillation losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, MultiStepLR, ReLU, Sequential, Tensor
from repro.nn.functional import (
    accuracy,
    clip_grad_norm,
    flatten_parameters,
    global_grad_norm,
    numerical_gradient,
    predict_classes,
    unflatten_parameters,
)
from repro.nn.losses import (
    cross_entropy,
    get_distillation_loss,
    kl_divergence_loss,
    l2_proximal,
    logit_l1_loss,
    mse_loss,
    nll_loss,
    one_hot,
    softmax_l1_loss,
)


class TestSGD:
    def test_plain_sgd_step(self):
        param = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        param.grad = np.array([0.5, -0.5])
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        param = Tensor(np.array([0.0]), requires_grad=True)
        optimizer = SGD([param], lr=1.0, momentum=0.5)
        param.grad = np.array([1.0])
        optimizer.step()
        first = param.data.copy()
        param.grad = np.array([1.0])
        optimizer.step()
        # Second step is larger because of the velocity term.
        assert abs(param.data[0] - first[0]) > 1.0

    def test_weight_decay_shrinks_weights(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        param.grad = np.array([0.0])
        SGD([param], lr=0.1, weight_decay=0.1).step()
        assert param.data[0] < 10.0

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [1.0])

    def test_invalid_hyperparameters(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=-0.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        param.grad = np.array([1.0])
        optimizer = SGD([param], lr=0.1)
        optimizer.zero_grad()
        assert param.grad is None


class TestAdam:
    def test_adam_minimizes_quadratic(self):
        param = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss = (param * param).sum()
            loss.backward()
            optimizer.step()
        assert abs(param.data[0]) < 0.1

    def test_bias_correction_first_step_magnitude(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        param.grad = np.array([1.0])
        Adam([param], lr=0.1).step()
        # With bias correction the first step is approximately lr.
        assert abs(1.0 - param.data[0]) == pytest.approx(0.1, rel=0.05)


class TestSchedulers:
    def test_multistep_decay(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([param], lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.1)
        lrs = [scheduler.step() for _ in range(5)]
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01, 0.01])

    def test_multistep_reads_its_base_rate_from_the_optimizer(self):
        # Milestones may come in any order; the schedule starts from the
        # optimizer's rate when the scheduler is built.
        param = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([param], lr=2.0)
        optimizer.lr = 0.5
        scheduler = MultiStepLR(optimizer, milestones=[3, 1], gamma=0.5)
        assert scheduler.base_lr == 0.5 and scheduler.milestones == [1, 3]
        assert [scheduler.step() for _ in range(4)] == [0.25, 0.25, 0.125, 0.125]
        assert optimizer.lr == 0.125


class TestClassificationLosses:
    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([[0, 1]]), 3)

    def test_cross_entropy_value(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]]))
        assert cross_entropy(logits, np.array([0])).item() < 0.01
        assert cross_entropy(logits, np.array([1])).item() > 5.0

    def test_cross_entropy_matches_nll_of_log_softmax(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        ce = cross_entropy(Tensor(logits), labels).item()
        nll = nll_loss(Tensor(logits).log_softmax(-1), labels).item()
        assert ce == pytest.approx(nll, rel=1e-10)

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        x = Tensor(logits, requires_grad=True)
        cross_entropy(x, labels).backward()
        numeric = numerical_gradient(lambda arr: cross_entropy(Tensor(arr), labels).item(),
                                     logits.copy())
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-7)

    def test_l2_proximal(self):
        params = [Tensor(np.array([1.0, 2.0]), requires_grad=True)]
        anchors = [np.array([0.0, 0.0])]
        assert l2_proximal(params, anchors, mu=2.0).item() == pytest.approx(10.0)
        with pytest.raises(ValueError):
            l2_proximal(params, [], mu=1.0)

    def test_mse_loss(self):
        assert mse_loss(Tensor(np.array([1.0, 3.0])), Tensor(np.array([1.0, 1.0]))).item() == 2.0


class TestDistillationLosses:
    def test_sl_loss_zero_when_identical(self, rng):
        logits = rng.normal(size=(5, 4))
        teacher = Tensor(logits).softmax(-1)
        assert softmax_l1_loss(Tensor(logits), teacher).item() == pytest.approx(0.0, abs=1e-12)

    def test_sl_loss_max_is_two(self):
        student = Tensor(np.array([[100.0, 0.0]]))
        teacher = Tensor(np.array([[0.0, 1.0]]))
        assert softmax_l1_loss(student, teacher).item() == pytest.approx(2.0, abs=1e-10)

    def test_kl_loss_zero_when_identical(self, rng):
        logits = rng.normal(size=(5, 4))
        teacher = Tensor(logits).softmax(-1)
        assert kl_divergence_loss(Tensor(logits), teacher).item() == pytest.approx(0.0, abs=1e-10)

    def test_kl_loss_positive_when_different(self, rng):
        student = rng.normal(size=(5, 4))
        teacher = Tensor(rng.normal(size=(5, 4))).softmax(-1)
        assert kl_divergence_loss(Tensor(student), teacher).item() > 0.0

    def test_logit_l1_loss(self):
        student = Tensor(np.array([[1.0, 2.0]]))
        teacher = Tensor(np.array([[0.0, 0.0]]))
        assert logit_l1_loss(student, teacher).item() == pytest.approx(3.0)

    def test_vanishing_gradient_effect_near_convergence(self, rng):
        """As the student approaches the teacher, KL input-gradients shrink
        faster than SL input-gradients (Hypothesis 1 of the paper)."""
        teacher_logits = rng.normal(size=(8, 6))
        teacher_probs = Tensor(teacher_logits).softmax(-1)
        near = teacher_logits + 1e-3 * rng.normal(size=teacher_logits.shape)

        x_kl = Tensor(near.copy(), requires_grad=True)
        kl_divergence_loss(x_kl, teacher_probs).backward()
        x_sl = Tensor(near.copy(), requires_grad=True)
        softmax_l1_loss(x_sl, teacher_probs).backward()
        assert np.linalg.norm(x_kl.grad) <= np.linalg.norm(x_sl.grad) + 1e-8

    def test_registry_lookup(self):
        assert get_distillation_loss("SL") is softmax_l1_loss
        with pytest.raises(KeyError):
            get_distillation_loss("unknown")

    def test_gradient_flows_through_teacher_branch(self, rng):
        """The teacher branch stays in the graph (needed by the generator step)."""
        student = Tensor(rng.normal(size=(3, 4)))
        teacher_logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = softmax_l1_loss(student, teacher_logits.softmax(-1))
        loss.backward()
        assert teacher_logits.grad is not None


class TestFunctionalHelpers:
    def test_accuracy_and_predictions(self):
        logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0]]))
        np.testing.assert_array_equal(predict_classes(logits), [0, 1])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 1])) == 0.5
        assert accuracy(logits, np.array([])[:0]) == 0.0

    def test_flatten_unflatten_roundtrip(self, rng):
        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                  Tensor(rng.normal(size=(4,)), requires_grad=True)]
        flat = flatten_parameters(params)
        assert flat.shape == (10,)
        restored = unflatten_parameters(flat, params)
        np.testing.assert_allclose(restored[0], params[0].data)
        np.testing.assert_allclose(restored[1], params[1].data)
        with pytest.raises(ValueError):
            unflatten_parameters(np.zeros(3), params)

    def test_global_grad_norm_and_clip(self):
        params = [Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)]
        params[0].grad = np.array([3.0, 0.0, 0.0])
        params[1].grad = np.array([0.0, 4.0, 0.0, 0.0])
        assert global_grad_norm(params) == pytest.approx(5.0)
        pre = clip_grad_norm(params, max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert global_grad_norm(params) == pytest.approx(1.0)

    def test_training_loop_reduces_loss(self, rng):
        """End-to-end: a small MLP fits a linearly separable problem."""
        features = rng.normal(size=(120, 8))
        labels = (features[:, 0] + features[:, 1] > 0).astype(int)
        net = Sequential(Linear(8, 16, seed=0), ReLU(), Linear(16, 2, seed=1))
        optimizer = Adam(net.parameters(), lr=0.02)
        first_loss = None
        for step in range(60):
            optimizer.zero_grad()
            loss = cross_entropy(net(Tensor(features)), labels)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.5
        assert accuracy(net(Tensor(features)), labels) > 0.9
