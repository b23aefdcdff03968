"""Property-based tests for the ensemble/disagreement algebra (hypothesis).

`ensemble_output` is the reduction the server update's shard tasks must
reproduce bit for bit, so its algebraic invariants are pinned over
randomized inputs and weights rather than a handful of fixed examples:

* explicit uniform weights are exactly the paper's default ``1/K`` mean;
* any weights summing to 1 keep the ``"prob"`` ensemble a distribution;
* ``"prob"`` / ``"logit"`` modes are consistent with the definitions
  (mean of softmaxes vs softmax-free mean of logits);
* a single-teacher ensemble is exactly that teacher;
* a model has zero KL disagreement with itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import disagreement_loss, ensemble_mode_for_loss, ensemble_output
from repro.models import FullyConnected, SimpleCNN
from repro.nn import Tensor

SHAPE = (3, 8, 8)
CLASSES = 4

# Model construction dominates runtime, so build a fixed heterogeneous pool
# once and let hypothesis vary batches, weights, and pool subsets.
_POOL = [
    SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0),
    FullyConnected(SHAPE, CLASSES, hidden_sizes=(16,), seed=1),
    SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=2),
]
for _model in _POOL:
    _model.eval()


def _batch(seed: int, n: int = 4) -> Tensor:
    return Tensor(np.random.default_rng(seed).normal(size=(n,) + SHAPE))


batches = st.integers(min_value=0, max_value=10_000).map(_batch)
teacher_counts = st.integers(min_value=1, max_value=len(_POOL))
modes = st.sampled_from(["prob", "logit"])
raw_weights = st.lists(st.floats(min_value=0.05, max_value=10.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=len(_POOL))


@settings(max_examples=20, deadline=None)
@given(x=batches, count=teacher_counts, mode=modes)
def test_explicit_uniform_weights_equal_default(x, count, mode):
    teachers = _POOL[:count]
    default = ensemble_output(teachers, x, mode=mode)
    uniform = ensemble_output(teachers, x, mode=mode,
                              weights=[1.0 / count] * count)
    np.testing.assert_array_equal(default.data, uniform.data)


@settings(max_examples=20, deadline=None)
@given(x=batches, weights=raw_weights)
def test_normalized_weights_keep_prob_ensemble_a_distribution(x, weights):
    teachers = _POOL[:len(weights)]
    total = float(sum(weights))
    normalized = [weight / total for weight in weights]
    out = ensemble_output(teachers, x, mode="prob", weights=normalized)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(len(x)), atol=1e-9)
    assert np.all(out.data >= 0.0)


@settings(max_examples=20, deadline=None)
@given(x=batches, count=teacher_counts)
def test_mode_consistency_with_definitions(x, count):
    teachers = _POOL[:count]
    logit_mean = ensemble_output(teachers, x, mode="logit").data
    prob_mean = ensemble_output(teachers, x, mode="prob").data

    member_logits = [teacher(x).data for teacher in teachers]
    np.testing.assert_allclose(logit_mean, np.mean(member_logits, axis=0), atol=1e-12)

    def softmax(z):
        shifted = z - z.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=-1, keepdims=True)

    np.testing.assert_allclose(prob_mean,
                               np.mean([softmax(z) for z in member_logits], axis=0),
                               atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(x=batches, index=st.integers(min_value=0, max_value=len(_POOL) - 1), mode=modes)
def test_single_teacher_ensemble_equals_that_teacher(x, index, mode):
    teacher = _POOL[index]
    out = ensemble_output([teacher], x, mode=mode)
    logits = teacher(x)
    expected = logits.softmax(axis=-1) if mode == "prob" else logits
    np.testing.assert_allclose(out.data, expected.data, atol=1e-15)


@settings(max_examples=15, deadline=None)
@given(x=batches, index=st.integers(min_value=0, max_value=len(_POOL) - 1))
def test_model_has_zero_kl_disagreement_with_itself(x, index):
    model = _POOL[index]
    loss = disagreement_loss(model, [model], x, loss_name="kl")
    assert abs(loss.item()) < 1e-9


@settings(max_examples=15, deadline=None)
@given(x=batches, count=teacher_counts)
def test_disagreement_loss_uses_the_mode_of_its_loss(x, count):
    """sl/kl compare distributions, l1 compares logits — dispatch matches."""
    teachers = _POOL[:count]
    student = _POOL[-1]
    for loss_name in ("sl", "kl", "l1"):
        mode = ensemble_mode_for_loss(loss_name)
        assert mode == ("logit" if loss_name == "l1" else "prob")
        loss = disagreement_loss(student, teachers, x, loss_name=loss_name)
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0
