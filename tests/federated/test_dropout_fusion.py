"""Dropout under cohort fusion: per-member RNG streams, bit for bit.

Dropout used to make a model unfusable (its per-layer generator could not
be replayed under stacking), so SimpleCNN-with-dropout cohorts always fell
back to per-device training.  The adapter added in ISSUE 7 draws slice
``b``'s mask from member ``b``'s own live layer generator — same shape,
same order as the serial layer — so fused training is bitwise identical to
the fallback *and* leaves every device's RNG in the identical state.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.baselines import build_fedavg
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    FusedLocalTrainTask,
    SchedulerConfig,
    ServerConfig,
)
from repro.models import ModelSpec, SimpleCNN, build_model
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


# --------------------------------------------------------------------------- #
# End-to-end: a SimpleCNN-with-dropout cohort no longer falls back
# --------------------------------------------------------------------------- #
_DROPOUT_SPEC = ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16,
                                  "dropout": 0.25})


def _data():
    config = SyntheticImageConfig(name="dropout-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=29, noise_level=0.2,
                                  max_shift=1, modes_per_class=1,
                                  background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(128, seed=1), generator.sample(48, seed=2)


def _config(fusion):
    return FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=9,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
        scheduler=SchedulerConfig(),
        cohort_fusion=fusion,
    )


def _canonical(history):
    payload = history.to_dict()
    payload["config"].pop("cohort_fusion", None)
    return json.dumps(payload, default=float, sort_keys=True)


def _run(fusion):
    train, test = _data()
    with build_fedavg(train, test, _config(fusion),
                      model_spec=_DROPOUT_SPEC) as simulation:
        return simulation.run()


def test_dropout_cohort_history_is_bit_identical():
    assert _canonical(_run(False)) == _canonical(_run(True))


# --------------------------------------------------------------------------- #
# Tiles: every member keeps its own mask stream across tile boundaries
# --------------------------------------------------------------------------- #
def _dropout_rng_states(context):
    return [[layer._rng.bit_generator.state for layer in model.fusion_layers()
             if type(layer).__name__ == "Dropout"]
            for _, model in sorted(context.models.items())]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_tiled_dropout_cohort_matches_the_whole_stack(width, cohort_context,
                                                      force_tile_width):
    def factory(seed):
        return build_model(_DROPOUT_SPEC, SHAPE, CLASSES, seed=seed)

    def run(forced):
        force_tile_width(forced)
        context = cohort_context(factory, [16] * 8)
        ids = sorted(context.models)
        task = FusedLocalTrainTask(
            device_ids=ids, states=[context.models[i].state_dict() for i in ids],
            epochs=2, rng_states=[np.random.default_rng(100 + i).bit_generator.state
                                  for i in ids])
        return task.run(context), _dropout_rng_states(context)

    (tiled, tiled_streams), (whole, whole_streams) = run(width), run(8)
    for ours, theirs in zip(tiled, whole):
        assert ours.report == theirs.report
        assert ours.rng_state == theirs.rng_state
        for key in theirs.state:
            np.testing.assert_array_equal(ours.state[key], theirs.state[key], err_msg=key)
    # The live members' mask generators end where the undivided stack (and so
    # per-device training) leaves them: no tile drew from a neighbour's stream.
    assert tiled_streams == whole_streams
    assert all(streams for streams in whole_streams)
