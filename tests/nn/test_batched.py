"""Bit-parity and property tests for the batched (fused-cohort) nn layer.

The contract of :mod:`repro.nn.batched` is that stacking B parameter sets
on a leading axis and training them through one :class:`BatchedModule` /
:class:`BatchedSGD` loop produces, per device slice, *exactly* the arrays
the per-device loop produces — same reduction axes in the same order, so
assert_array_equal, not allclose.  That is the invariant that lets the
cohort planner swap the fused path in under golden-history replay.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.models.simple import FullyConnected, LeNet, SimpleCNN
from repro.nn import SGD, Tensor, batched, layers, no_grad
from repro.nn import conv as conv_ops
from repro.nn.batched import (
    TILE_ARRAY_BYTES,
    BatchedModule,
    BatchedSGD,
    UnfusableModelError,
    _sample_footprint,
    batched_l2_proximal,
    fusion_signature,
    stack_states,
    stack_tiles,
    tile_width,
    unstack_states,
)
from repro.nn.buffers import fresh_pool, scratch_pool
from repro.nn.losses import cross_entropy, l2_proximal
from repro.nn.policy import using_numeric_policy

BATCH = 3
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4


def _models(factory):
    return [factory(seed=10 + index) for index in range(BATCH)]


def _cohort_data(rng, steps=3, samples=8):
    images = rng.normal(size=(steps, BATCH, samples, *INPUT_SHAPE))
    labels = rng.integers(0, NUM_CLASSES, size=(steps, BATCH, samples))
    return images, labels


def _train_serial(models, images, labels, lr=0.05, momentum=0.9, mu=0.0, anchors=None):
    for b, model in enumerate(models):
        model.train()
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
        for step in range(images.shape[0]):
            optimizer.zero_grad()
            loss = cross_entropy(model(Tensor(images[step, b])), labels[step, b])
            if mu > 0:
                loss = loss + l2_proximal(model.parameters(),
                                          [a[b] for a in anchors], mu=mu)
            loss.backward()
            optimizer.step()


def _train_fused(module, images, labels, lr=0.05, momentum=0.9, mu=0.0, anchors=None):
    module.train()
    optimizer = BatchedSGD(module.parameters(), BATCH, lr=lr, momentum=momentum)
    for step in range(images.shape[0]):
        optimizer.zero_grad()
        loss_vec = cross_entropy(module(Tensor(images[step])), labels[step])
        if mu > 0:
            loss_vec = loss_vec + batched_l2_proximal(module.parameters(), anchors, mu=mu)
        loss_vec.backward()
        optimizer.step()


FACTORIES = {
    "fully_connected": lambda seed: FullyConnected(INPUT_SHAPE, NUM_CLASSES,
                                                   hidden_sizes=(16, 8), seed=seed),
    "simple_cnn": lambda seed: SimpleCNN(INPUT_SHAPE, NUM_CLASSES, channels=(4, 8),
                                         hidden_size=16, seed=seed),
    "lenet": lambda seed: LeNet(INPUT_SHAPE, NUM_CLASSES, conv_channels=(4, 8),
                                fc_sizes=(24,), seed=seed),
}


class TestBatchedModuleParity:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_training_is_bitwise_identical(self, name):
        rng = np.random.default_rng(3)
        images, labels = _cohort_data(rng)
        serial_models = _models(FACTORIES[name])
        states = [model.state_dict() for model in serial_models]
        module = BatchedModule(serial_models[0], states)

        _train_serial(serial_models, images, labels)
        _train_fused(module, images, labels)

        for model, fused_state in zip(serial_models, module.state_dicts()):
            expected = model.state_dict()
            assert set(expected) == set(fused_state)
            for key in expected:
                np.testing.assert_array_equal(fused_state[key], expected[key],
                                              err_msg=f"{name}:{key}")

    def test_proximal_term_is_bitwise_identical(self):
        rng = np.random.default_rng(4)
        images, labels = _cohort_data(rng)
        serial_models = _models(FACTORIES["fully_connected"])
        states = [model.state_dict() for model in serial_models]
        snapshots = [[param.data.copy() for param in model.parameters()]
                     for model in serial_models]
        anchors = [np.stack([snapshots[b][i] for b in range(BATCH)])
                   for i in range(len(snapshots[0]))]
        module = BatchedModule(serial_models[0], states)

        _train_serial(serial_models, images, labels, mu=0.1, anchors=anchors)
        _train_fused(module, images, labels, mu=0.1, anchors=anchors)

        for model, fused_state in zip(serial_models, module.state_dicts()):
            expected = model.state_dict()
            for key in expected:
                np.testing.assert_array_equal(fused_state[key], expected[key])

    def test_eval_forward_uses_running_stats(self):
        # Train (updates per-slice BN running stats), then compare eval-mode
        # forwards — exercising the normalize-by-running-buffers branch.
        rng = np.random.default_rng(5)
        images, labels = _cohort_data(rng)
        serial_models = _models(FACTORIES["simple_cnn"])
        states = [model.state_dict() for model in serial_models]
        module = BatchedModule(serial_models[0], states)
        _train_serial(serial_models, images, labels)
        _train_fused(module, images, labels)

        module.eval()
        probe = rng.normal(size=(BATCH, 5, *INPUT_SHAPE))
        fused_out = module(Tensor(probe)).data
        for b, model in enumerate(serial_models):
            model.eval()
            np.testing.assert_array_equal(fused_out[b], model(Tensor(probe[b])).data)


class TestFusionSignature:
    def test_same_architecture_shares_signature(self):
        a, b = FACTORIES["simple_cnn"](1), FACTORIES["simple_cnn"](2)
        assert fusion_signature(a) == fusion_signature(b)

    def test_different_widths_differ(self):
        a = FullyConnected(INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(16,), seed=0)
        b = FullyConnected(INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(32,), seed=0)
        assert fusion_signature(a) != fusion_signature(b)

    def test_model_without_fusion_layers_is_unfusable(self):
        assert fusion_signature(layers.Linear(4, 2)) is None

    def test_dropout_is_fusable_but_training_requires_members(self):
        # Dropout has an adapter (ISSUE 7): the model fuses, but *training*
        # through the stacked dropout needs per-member models so each slice
        # draws masks from its own device's RNG stream.
        model = FullyConnected(INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(8,), seed=0)
        model.network.append(layers.Dropout(0.5))
        assert fusion_signature(model) is not None
        module = BatchedModule(model, [model.state_dict()])
        x = np.zeros((1, 2) + INPUT_SHAPE)
        with pytest.raises(UnfusableModelError):
            module(Tensor(x))
        module.eval()
        assert module(Tensor(x)).data.shape == (1, 2, NUM_CLASSES)


_DTYPES = st.sampled_from([np.float64, np.float32, np.int64])
_SHAPES = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


@st.composite
def _state_cohorts(draw):
    """A cohort of state dicts sharing keys/shapes with mixed dtypes."""
    batch = draw(st.integers(1, 4))
    num_keys = draw(st.integers(1, 4))
    spec = {f"key{i}": (draw(_SHAPES), draw(_DTYPES)) for i in range(num_keys)}
    cohort = []
    for _ in range(batch):
        state = {}
        for key, (shape, dtype) in spec.items():
            if np.issubdtype(dtype, np.integer):
                state[key] = draw(arrays(dtype=dtype, shape=shape,
                                         elements=st.integers(-100, 100)))
            else:
                state[key] = draw(arrays(
                    dtype=dtype, shape=shape,
                    elements=st.floats(-100, 100, allow_nan=False, width=32)))
        cohort.append(state)
    return cohort


class TestStackUnstackProperties:
    @settings(max_examples=60, deadline=None)
    @given(_state_cohorts())
    def test_roundtrip_is_exact(self, cohort):
        recovered = unstack_states(stack_states(cohort))
        assert len(recovered) == len(cohort)
        for original, roundtripped in zip(cohort, recovered):
            assert list(original) == list(roundtripped)
            for key in original:
                np.testing.assert_array_equal(roundtripped[key], original[key])
                assert roundtripped[key].shape == original[key].shape

    @settings(max_examples=30, deadline=None)
    @given(_state_cohorts())
    def test_stacked_leading_axis_is_batch(self, cohort):
        stacked = stack_states(cohort)
        for key, value in stacked.items():
            assert value.shape == (len(cohort),) + cohort[0][key].shape

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            stack_states([{"a": np.zeros(2)}, {"b": np.zeros(2)}])

    def test_inconsistent_batch_axis_rejected(self):
        with pytest.raises(ValueError, match="batch axis"):
            unstack_states({"a": np.zeros((2, 3)), "b": np.zeros((3, 3))})

    def test_unstack_returns_copies(self):
        stacked = stack_states([{"a": np.zeros(3)}, {"a": np.ones(3)}])
        views = unstack_states(stacked)
        views[0]["a"][:] = 99.0
        np.testing.assert_array_equal(stacked["a"][0], np.zeros(3))


# --------------------------------------------------------------------------- #
# BatchedSGD: one stacked step == B independent SGD steps
# --------------------------------------------------------------------------- #
_SGD_SHAPES = ((5, 3), (3,), (2, 4, 4))


def _sgd_cohort(rng):
    """B independent parameter lists and the same arrays stacked on axis 0."""
    members = [[Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in _SGD_SHAPES] for _ in range(BATCH)]
    stacked = [Tensor(np.stack([member[index].data for member in members]),
                      requires_grad=True) for index in range(len(_SGD_SHAPES))]
    return members, stacked


def _seed_cohort_grads(members, stacked, rng):
    for index, param in enumerate(stacked):
        grads = [rng.normal(size=param.data.shape[1:]).astype(param.data.dtype)
                 for _ in members]
        for member, grad in zip(members, grads):
            member[index].grad = grad.copy()
        param.grad = np.stack(grads)


class TestBatchedSGD:
    @pytest.mark.parametrize("momentum,weight_decay", [
        (0.0, 0.0), (0.9, 0.0), (0.0, 5e-4), (0.9, 5e-4),
    ])
    def test_fused_step_matches_independent_sgds(self, momentum, weight_decay):
        rng = np.random.default_rng(11)
        members, stacked = _sgd_cohort(rng)
        independent = [SGD(member, lr=0.05, momentum=momentum, weight_decay=weight_decay)
                       for member in members]
        fused = BatchedSGD(stacked, BATCH, lr=0.05, momentum=momentum,
                           weight_decay=weight_decay)
        for _ in range(6):
            _seed_cohort_grads(members, stacked, rng)
            for optimizer in independent:
                optimizer.step()
            fused.step()
            for index, param in enumerate(stacked):
                for b, member in enumerate(members):
                    np.testing.assert_array_equal(param.data[b], member[index].data)

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_stacked_momentum_slices_are_the_members_momentum(self, policy):
        rng = np.random.default_rng(12)
        with using_numeric_policy(policy):
            members, stacked = _sgd_cohort(rng)
            independent = [SGD(member, lr=0.05, momentum=0.9) for member in members]
            fused = BatchedSGD(stacked, BATCH, lr=0.05, momentum=0.9)
            for _ in range(3):
                _seed_cohort_grads(members, stacked, rng)
                for optimizer in independent:
                    optimizer.step()
                fused.step()
        fused_state = fused.velocity_state()
        for b, optimizer in enumerate(independent):
            for stacked_buffer, buffer in zip(fused_state, optimizer.velocity_state()):
                assert stacked_buffer.dtype == buffer.dtype == np.dtype(policy)
                np.testing.assert_array_equal(stacked_buffer[b], buffer)

    def test_stacked_member_momentum_resumes_bitwise(self):
        # Phase 2's seam: each member's momentum arrives as its own list of
        # arrays, is stacked straight into a fresh BatchedSGD, and the fused
        # trajectory continues exactly where the independent ones left off.
        rng = np.random.default_rng(13)
        members, stacked = _sgd_cohort(rng)
        independent = [SGD(member, lr=0.05, momentum=0.9) for member in members]
        for _ in range(3):
            _seed_cohort_grads(members, stacked, rng)
            for optimizer in independent:
                optimizer.step()
        for index, param in enumerate(stacked):
            param.data = np.stack([member[index].data for member in members])
        lists = [optimizer.velocity_state() for optimizer in independent]
        snapshots = [[buffer.copy() for buffer in buffers] for buffers in lists]
        fused = BatchedSGD(stacked, BATCH, lr=0.05, momentum=0.9)
        fused.load_velocity_state([np.stack(buffers) for buffers in zip(*lists)])
        for _ in range(3):
            _seed_cohort_grads(members, stacked, rng)
            for optimizer in independent:
                optimizer.step()
            fused.step()
        for index, param in enumerate(stacked):
            for b, member in enumerate(members):
                np.testing.assert_array_equal(param.data[b], member[index].data)
        for buffers, snapshot in zip(lists, snapshots):
            for buffer, before in zip(buffers, snapshot):
                np.testing.assert_array_equal(buffer, before)

    def test_rejects_a_parameter_off_the_cohort_axis(self):
        _, stacked = _sgd_cohort(np.random.default_rng(14))
        with pytest.raises(ValueError, match="cohort size 4"):
            BatchedSGD(stacked, BATCH + 1, lr=0.05)
        assert BatchedSGD(stacked, BATCH, lr=0.05).batch_size == BATCH

    def test_batched_adam_is_a_tombstone(self):
        # Phase 2 steps SGD only; the name survives for the e2e probe's
        # optimizer tuple but cannot be built and is not exported.
        import repro.nn as nn

        assert not hasattr(batched.BatchedAdam, "step")
        with pytest.raises(TypeError, match="SGD only"):
            batched.BatchedAdam([], BATCH)
        assert not hasattr(nn, "BatchedAdam")


# --------------------------------------------------------------------------- #
# Tile width: how much of a cohort one BatchedModule stacks
# --------------------------------------------------------------------------- #
#: The models, input shapes and batch sizes of the sweep the constant is
#: fitted to (the table under "Tile width" in ``docs/architecture.md``, last
#: recorded at commit 7639820; a refit is measured on ``avg_serial_fused``).
_SWEEP = {
    (3, 8, 8): {
        "fully_connected": FACTORIES["fully_connected"],
        "simple_cnn": FACTORIES["simple_cnn"],
        "lenet": FACTORIES["lenet"],
    },
    (1, 16, 16): {
        "fully_connected": lambda seed: FullyConnected(
            (1, 16, 16), 10, hidden_sizes=(128, 64), seed=seed),
        "simple_cnn": lambda seed: SimpleCNN((1, 16, 16), 10, channels=(16, 32), seed=seed),
        "lenet": lambda seed: LeNet((1, 16, 16), 10, conv_channels=(6, 16),
                                    fc_sizes=(64, 32), seed=seed),
    },
}
_SWEEP_CASES = [(shape, name, samples) for shape, models in _SWEEP.items()
                for name in models for samples in (8, 32)]


class TestTileWidth:
    @pytest.mark.parametrize("shape", sorted(_SWEEP))
    @pytest.mark.parametrize("samples", [8, 32])
    def test_fully_connected_keeps_the_full_stack(self, shape, samples):
        model = _SWEEP[shape]["fully_connected"](0)
        assert tile_width(model, 8, (samples, *shape)) == 8

    @pytest.mark.parametrize("samples", [32, 180])
    def test_the_e2e_cnn_runs_nearly_unstacked(self, samples):
        # cnn (16, 32) at 1x16x16: batch 32 is the harness's training step,
        # 180 samples its evaluation batch.
        model = _SWEEP[(1, 16, 16)]["simple_cnn"](0)
        assert tile_width(model, 8, (samples, 1, 16, 16)) <= 2

    def test_the_gated_tiny_shapes_keep_the_full_stack(self):
        for name, factory in FACTORIES.items():
            assert tile_width(factory(0), 8, (8, *INPUT_SHAPE)) == 8, name

    @pytest.mark.parametrize("shape", sorted(_SWEEP))
    @pytest.mark.parametrize("name", ["fully_connected", "simple_cnn", "lenet"])
    def test_bounds_and_monotonicity(self, shape, name):
        model = _SWEEP[shape][name](0)
        for cohort in (1, 2, 3, 8, 13):
            widths = [tile_width(model, cohort, (samples, *shape))
                      for samples in (0, 1, 2, 8, 32, 64, 180, 256)]
            assert all(1 <= width <= cohort for width in widths)
            assert widths == sorted(widths, reverse=True)
        # Half the itemsize never narrows a tile.
        with using_numeric_policy("float32"):
            narrow = tile_width(model, 8, (32, *shape))
        assert narrow >= tile_width(model, 8, (32, *shape))

    def test_tiles_are_evened_out(self):
        # A fit of five on a cohort of eight is two tiles of four, not 5 + 3.
        model = _SWEEP[(1, 16, 16)]["lenet"](0)
        widths = {tile_width(model, 8, (samples, 1, 16, 16))
                  for samples in range(1, 200, 3)}
        assert {1, 8} < widths <= {1, 2, 3, 4, 8}

    def test_sizing_touches_neither_the_template_nor_the_arena(self):
        # The footprint is measured on a copy, on an arena of its own: the
        # template's Dropout stream and the thread's arena counters stay put.
        template = SimpleCNN((1, 16, 16), 10, channels=(4, 8), hidden_size=16,
                             dropout=0.25, seed=0)
        dropout = next(layer for layer in template.fusion_layers()
                       if isinstance(layer, layers.Dropout))
        before = (dropout._rng.bit_generator.state, scratch_pool().stats(),
                  {key: value.copy() for key, value in template.state_dict().items()})
        assert 1 <= tile_width(template, 8, (33, 1, 16, 16)) <= 8
        assert dropout._rng.bit_generator.state == before[0]
        assert scratch_pool().stats() == before[1]
        for key, value in template.state_dict().items():
            np.testing.assert_array_equal(value, before[2][key])

    @pytest.mark.parametrize("shape, name, samples", _SWEEP_CASES)
    def test_a_tile_forward_stays_inside_the_budget(self, shape, name, samples, monkeypatch):
        # The constant stands for arena bytes: a recorded forward of a tile
        # the rule stacked holds, at its peak, no more than the constant per
        # array it acquired.  (A tile of one is the floor, whatever it holds.)
        factory = _SWEEP[shape][name]
        width = tile_width(factory(0), 8, (samples, *shape))
        module = BatchedModule(factory(0), [factory(seed).state_dict()
                                            for seed in range(width)])
        module.train()
        images = np.random.default_rng(0).normal(size=(width, samples, *shape))
        # The convolutions whose forward is past ``_BLAS_SMALL_PRODUCT`` and
        # so stages no row-major copy of its columns.
        unstaged = []
        body = batched._conv2d

        def conv2d(x, w, *rest):
            out = body(x, w, *rest)
            if w.data[0].size * out.data[0, :, 0].size > conv_ops._BLAS_SMALL_PRODUCT:
                unstaged.append(w.data.shape)
            return out

        with monkeypatch.context() as patch, fresh_pool() as pool:  # its counters are this forward's
            patch.setattr(batched, "_conv2d", conv2d)
            module(Tensor(images))
        stats = pool.stats()
        if width > 1:
            assert stats["outstanding_high_water"] <= TILE_ARRAY_BYTES * stats["acquires"]
        # What the rule divides by is the per-sample measurement, times
        # samples and width, in as many arrays.  Its two samples stage the
        # row-major copy in every convolution that is small at two samples:
        # one array more than the tile takes for each one the full batch
        # carries past the threshold.
        per_sample, arrays = _sample_footprint(factory(0), shape)
        assert stats["acquires"] == arrays - len(unstaged)
        # A product is linear in the samples, so the same measurement under
        # the threshold scaled to its two samples stages exactly what the full
        # batch does, and is what the tile really takes (it counts the
        # batch-norm statistics once per sample; nothing else is off) -- the
        # rule's own figure wherever the batch changes no convolution's route,
        # and never above it.
        monkeypatch.setattr(batched, "_FOOTPRINTS", {})
        monkeypatch.setattr(conv_ops, "_BLAS_SMALL_PRODUCT",
                            conv_ops._BLAS_SMALL_PRODUCT * 2 / samples)
        exact_per_sample, exact_arrays = _sample_footprint(factory(0), shape)
        estimate = exact_per_sample * samples * width
        assert stats["acquires"] == exact_arrays
        assert stats["outstanding_high_water"] <= estimate <= 1.01 * stats["outstanding_high_water"]
        assert exact_per_sample <= per_sample
        if not unstaged:
            assert exact_per_sample == per_sample


class TestCohortTiles:
    @staticmethod
    def _cohort(name, size):
        return [FACTORIES[name](seed) for seed in range(size)]

    def test_uneven_tail(self, force_tile_width):
        force_tile_width(3)
        assert (stack_tiles(self._cohort("fully_connected", 8), (8, *INPUT_SHAPE))
                == [[0, 1, 2], [3, 4, 5], [6, 7]])

    def test_a_width_past_the_cohort_is_one_tile(self, force_tile_width):
        force_tile_width(99)
        assert stack_tiles(self._cohort("fully_connected", 5), (8, *INPUT_SHAPE)) == [
            [0, 1, 2, 3, 4]]

    def test_groups_by_signature_and_runs_the_unfusable_alone(self, force_tile_width):
        # Groups in order of first appearance, each cut at its own width; a
        # model without a batched adapter and a singleton are tiles of one.
        force_tile_width(2)
        cnn, fc = self._cohort("simple_cnn", 3), self._cohort("fully_connected", 2)
        models = [cnn[0], fc[0], cnn[1], layers.Linear(4, 2), fc[1], cnn[2],
                  FACTORIES["lenet"](0)]
        assert stack_tiles(models, (8, *INPUT_SHAPE)) == [[0, 2], [5], [1, 4], [3], [6]]

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_tiles_cover_the_cohort_once_in_order(self, name):
        models = self._cohort(name, 12)
        for samples in (8, 32, 180):
            for cohort in range(1, 13):
                batch_shape = (samples, *INPUT_SHAPE)
                tiles = stack_tiles(models[:cohort], batch_shape)
                width = tile_width(models[0], cohort, batch_shape)
                assert [position for tile in tiles for position in tile] == list(range(cohort))
                assert all(len(tile) == width for tile in tiles[:-1])
                assert 1 <= len(tiles[-1]) <= width
                assert len(tiles) == -(-cohort // width)

    def test_float32_policy_halves_the_bytes(self):
        models = [_SWEEP[(1, 16, 16)]["lenet"](seed) for seed in range(8)]
        wide = stack_tiles(models, (32, 1, 16, 16))
        with using_numeric_policy("float32"):
            assert len(stack_tiles(models, (32, 1, 16, 16))) <= len(wide)


class TestTiledEvaluator:
    """A cohort swept as the tiles ``stack_tiles`` plans gives each member the
    bytes the whole stack's ``predict`` gives it, a tile of one by running
    the model itself."""

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_predict_is_bitwise_identical(self, name, width, force_tile_width):
        models = [FACTORIES[name](seed) for seed in range(8)]
        states = [model.state_dict() for model in models]
        rng = np.random.default_rng(6)
        batches = [rng.normal(size=(samples, *INPUT_SHAPE)) for samples in (8, 8, 5)]
        whole = BatchedModule(models[0], states, requires_grad=False).eval()
        expected = [whole.predict(np.broadcast_to(batch, (8,) + batch.shape))
                    for batch in batches]

        force_tile_width(width)
        tiles = stack_tiles(models, batches[0].shape)
        assert len(tiles) == -(-8 // width)
        for tile in tiles:
            if len(tile) == 1:
                model = models[tile[0]].eval()
                with no_grad():
                    outputs = [model(Tensor(batch)).data[None] for batch in batches]
            else:
                module = BatchedModule(models[tile[0]], [states[i] for i in tile],
                                       requires_grad=False).eval()
                outputs = [module.predict(np.broadcast_to(batch, (len(tile),) + batch.shape))
                           for batch in batches]
            for output, reference in zip(outputs, expected):
                np.testing.assert_array_equal(output, reference[tile])


# --------------------------------------------------------------------------- #
# Memory budgets of the training step: transient bytes and arena retention
# --------------------------------------------------------------------------- #
#: Absolute byte budgets: BUDGET_FACTOR x what the pooled, in-place engine
#: measured when they were set.  Every allocate-per-op formulation of the
#: engine measured at least 1.48x those figures.
BUDGET_FACTOR = 1.25
STEP_BUDGET_BYTES = {  # traced bytes per fused device-step
    "fully_connected": BUDGET_FACTOR * 12_426,
    "lenet": BUDGET_FACTOR * 132_445,
    "simple_cnn": BUDGET_FACTOR * 134_660,
}
FORWARD_BUDGET_BYTES = {  # traced bytes per serial training forward
    "fully_connected": BUDGET_FACTOR * 14_634,
    "lenet": BUDGET_FACTOR * 32_822,
    "simple_cnn": BUDGET_FACTOR * 80_068,
}
#: What the arena may hold after a warmed loop, over the most it ever had
#: checked out at once.  A pool that parks idle buffers per shape fails it.
RETENTION_FACTOR = 1.25
_COHORT, _SAMPLES, _WARMUP_STEPS, _MEASURED_STEPS = 8, 8, 3, 10


class TestMemoryBudgets:
    """A cohort of eight through a warmed ``BatchedModule`` + ``BatchedSGD``
    loop with ``zero_grad(set_to_none=False)``, and the same loop on one
    model, each on an arena of its own."""

    @staticmethod
    def _data(seed):
        rng = np.random.default_rng(seed)
        steps = _WARMUP_STEPS + _MEASURED_STEPS
        return (rng.normal(size=(steps, _COHORT, _SAMPLES, *INPUT_SHAPE)),
                rng.integers(0, NUM_CLASSES, size=(steps, _COHORT, _SAMPLES)))

    @classmethod
    def _fused_steps(cls, factory):
        """The fused step loop: yields after each step."""
        images, labels = cls._data(23)
        module = BatchedModule(factory(seed=0),
                               [factory(seed=index).state_dict() for index in range(_COHORT)])
        module.train()
        optimizer = BatchedSGD(module.parameters(), _COHORT, lr=0.05, momentum=0.9)
        for step in range(len(images)):
            optimizer.zero_grad(set_to_none=False)
            cross_entropy(module(Tensor(images[step])), labels[step]).backward()
            optimizer.step()
            yield step

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_transient_bytes_per_fused_device_step(self, name):
        """Peak traced bytes over the steady-state baseline across the
        measured steps: temporaries die within the step that made them, so
        that is one step's transient working set."""
        with fresh_pool():
            tracemalloc.start()
            try:
                for step in self._fused_steps(FACTORIES[name]):
                    if step == _WARMUP_STEPS - 1:
                        gc.collect()
                        tracemalloc.reset_peak()
                        baseline = tracemalloc.get_traced_memory()[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak - baseline) / _COHORT <= STEP_BUDGET_BYTES[name]

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_transient_bytes_per_serial_forward(self, name):
        """Only the ``model(...)`` call is inside the window; backward and the
        optimizer step run between windows, so reclaim recycles the pooled
        activations for the next forward."""
        images, labels = self._data(29)
        model = FACTORIES[name](seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        worst = 0
        with fresh_pool():
            tracemalloc.start()
            try:
                for step in range(len(images)):
                    optimizer.zero_grad(set_to_none=False)
                    if step == _WARMUP_STEPS:
                        gc.collect()
                    tracemalloc.reset_peak()
                    baseline = tracemalloc.get_traced_memory()[0]
                    out = model(Tensor(images[step, 0]))
                    if step >= _WARMUP_STEPS:
                        worst = max(worst, tracemalloc.get_traced_memory()[1] - baseline)
                    cross_entropy(out, labels[step, 0]).backward()
                    optimizer.step()
            finally:
                tracemalloc.stop()
        assert worst <= FORWARD_BUDGET_BYTES[name]

    def test_unrecorded_sweep_holds_one_layer_at_a_time(self):
        """An eval-mode ``SimpleCNN`` over a 250-sample public batch at 16x16
        (the FedMD sweep): every activation is an arena block that goes
        back as the forward drops it, so the peak is one layer's arrays —
        the first ReLU's input and output (its mask lives in the output),
        or the second convolution's tap-major columns, input and output —
        and the logits are all that is out until they are dropped."""
        samples = 250
        model = SimpleCNN((1, 16, 16), 10, seed=0).eval()
        images = np.random.default_rng(31).normal(size=(samples, 1, 16, 16))
        with fresh_pool() as pool:
            with no_grad():
                logits = model(Tensor(images)).data
            stats = pool.stats()
            assert stats["outstanding_bytes"] == logits.nbytes
            del logits
            assert pool.stats()["outstanding_bytes"] == 0
        first_relu = 2 * samples * 16 * 16 * 16 * 8
        columns = 16 * 3 * 3 * samples * 8 * 8 * 8
        second_conv = columns + samples * 16 * 8 * 8 * 8 + samples * 32 * 8 * 8 * 8
        assert stats["outstanding_high_water"] == max(first_relu, second_conv)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_arena_retention_after_the_fused_loop(self, name):
        with fresh_pool() as pool:
            for _ in self._fused_steps(FACTORIES[name]):
                pass
        stats = pool.stats()
        assert (stats["free_bytes"] + stats["outstanding_bytes"]
                <= RETENTION_FACTOR * stats["outstanding_high_water"])
