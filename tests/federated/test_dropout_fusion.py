"""Dropout under cohort fusion: per-member RNG streams, bit for bit.

Dropout used to make a model unfusable (its per-layer generator could not
be replayed under stacking), so SimpleCNN-with-dropout cohorts always fell
back to per-device training.  The adapter added in ISSUE 7 draws slice
``b``'s mask from member ``b``'s own live layer generator — same shape,
same order as the serial layer — so fused training is bitwise identical to
the fallback *and* leaves every device's RNG in the identical state (a
dropout-CNN cohort at every tile width is a job of
``tests/federated/test_cohort_fusion.py``, and a whole dropout-CNN FedAvg
run is a row of ``tests/integration/test_parity_matrix.py``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.models import SimpleCNN
from repro.nn import Tensor
from repro.nn.batched import BatchedModule, UnfusableModelError, fusion_signature

SHAPE = (3, 8, 8)
CLASSES = 4


def _models(p=0.5, count=3):
    return [SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8,
                      dropout=p, seed=index) for index in range(count)]


class TestDropoutSignature:
    def test_dropout_model_is_fusable(self):
        assert fusion_signature(_models()[0]) is not None

    def test_same_probability_shares_a_signature(self):
        first, second = _models(p=0.3, count=2)
        assert fusion_signature(first) == fusion_signature(second)

    def test_probability_is_part_of_the_signature(self):
        low = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8,
                        dropout=0.2, seed=0)
        high = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8,
                         dropout=0.5, seed=0)
        assert fusion_signature(low) != fusion_signature(high)

    def test_zero_probability_omits_the_layer(self):
        plain = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0)
        explicit = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8,
                             dropout=0.0, seed=0)
        assert fusion_signature(plain) == fusion_signature(explicit)


class TestBatchedDropoutForward:
    def test_training_without_members_is_rejected(self):
        models = _models()
        module = BatchedModule(models[0], [m.state_dict() for m in models])
        x = np.random.default_rng(0).normal(size=(len(models), 4) + SHAPE)
        with pytest.raises(UnfusableModelError):
            module(Tensor(x))

    def test_eval_mode_needs_no_members(self):
        models = _models()
        module = BatchedModule(models[0], [m.state_dict() for m in models],
                               requires_grad=False).eval()
        x = np.random.default_rng(0).normal(size=(len(models), 4) + SHAPE)
        out = module(Tensor(x))
        assert out.data.shape == (len(models), 4, CLASSES)

    def test_fused_forward_matches_serial_and_advances_member_rngs(self):
        models = _models(p=0.5)
        replicas = copy.deepcopy(models)
        x = np.random.default_rng(3).normal(size=(len(models), 4) + SHAPE)

        module = BatchedModule(models[0], [m.state_dict() for m in models],
                               members=models)
        fused = module(Tensor(x))

        for index, replica in enumerate(replicas):
            replica.train()
            serial = replica(Tensor(x[index]))
            np.testing.assert_array_equal(fused.data[index], serial.data)

        # The live members' generators advanced exactly as serial training
        # would have advanced them — subsequent per-device use continues
        # from identical streams.
        def _dropout_state(model):
            [layer] = [l for l in model.fusion_layers()
                       if type(l).__name__ == "Dropout"]
            return layer._rng.bit_generator.state

        for member, replica in zip(models, replicas):
            assert _dropout_state(member) == _dropout_state(replica)

    def test_member_count_must_match_states(self):
        models = _models()
        with pytest.raises(ValueError):
            BatchedModule(models[0], [m.state_dict() for m in models],
                          members=models[:2])
