"""Fused-cohort execution: planner semantics and tiled training tasks.

``cohort_fusion`` must be a pure performance knob.  Whole runs with fusion
on — every algorithm and scheduler, serial or process backends, sharded or
in-process server updates, forced tile widths — replay the fusion-off
history in ``tests/integration/test_parity_matrix.py``; this module keeps
the planner's grouping and the task-level tile comparisons.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.baselines import build_fedavg
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import FederatedConfig, FusedLocalTrainTask, plan_cohorts
from repro.federated.backend import DigestSpec, EvaluateTask, LocalTrainTask
from repro.models import ModelSpec, build_model


# --------------------------------------------------------------------------- #
# Planner unit tests
# --------------------------------------------------------------------------- #
def _task(device_id, epochs=1, anchor=None, digest=None):
    return LocalTrainTask(device_id=device_id, state={"w": np.zeros(2)},
                          epochs=epochs, rng_state={"state": device_id},
                          anchor=anchor, digest=digest)


def _digest(seed, epochs=1, lr=0.02, batch_size=8):
    return DigestSpec(consensus=np.zeros((4, 2)), epochs=epochs, lr=lr,
                      batch_size=batch_size, seed=seed)


class TestPlanCohorts:
    def test_groups_same_key_and_scatters_in_order(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        plan = plan_cohorts(tasks, lambda task: "cnn")
        assert len(plan.tasks) == 1 and plan.fused_group_count == 1
        fused = plan.tasks[0]
        assert isinstance(fused, FusedLocalTrainTask)
        assert fused.device_ids == [0, 1, 2, 3]
        assert plan.scatter == [[0, 1, 2, 3]]

    def test_unfusable_tasks_pass_through(self):
        tasks = [_task(0), _task(1), _task(2)]
        plan = plan_cohorts(tasks, lambda task: None)
        assert plan.tasks == tasks
        assert plan.fused_group_count == 0
        assert plan.scatter == [[0], [1], [2]]

    def test_singleton_groups_pass_through(self):
        tasks = [_task(0), _task(1)]
        plan = plan_cohorts(tasks, lambda task: f"arch{task.device_id}")
        assert plan.tasks == tasks

    def test_mixed_groups_emit_at_first_member_position(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        keys = {0: "a", 1: "b", 2: "a", 3: "b"}
        plan = plan_cohorts(tasks, lambda task: keys[task.device_id])
        assert [t.device_ids for t in plan.tasks] == [[0, 2], [1, 3]]
        assert plan.scatter == [[0, 2], [1, 3]]

    def test_epochs_and_anchor_layout_split_groups(self):
        tasks = [_task(0, epochs=1), _task(1, epochs=2),
                 _task(2, epochs=1, anchor=[np.zeros(2)]), _task(3, epochs=1)]
        plan = plan_cohorts(tasks, lambda task: "same")
        fused = [t for t in plan.tasks if isinstance(t, FusedLocalTrainTask)]
        assert len(fused) == 1 and fused[0].device_ids == [0, 3]

    def test_digest_hyperparameters_split_groups(self):
        tasks = [_task(0, digest=_digest(0)), _task(1, digest=_digest(1)),
                 _task(2, digest=_digest(2, lr=0.5))]
        plan = plan_cohorts(tasks, lambda task: "same")
        fused = [t for t in plan.tasks if isinstance(t, FusedLocalTrainTask)]
        assert len(fused) == 1 and fused[0].device_ids == [0, 1]
        assert [spec.seed for spec in fused[0].digests] == [0, 1]

    def test_gather_restores_original_order(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        keys = {0: "a", 1: None, 2: "a", 3: None}
        plan = plan_cohorts(tasks, lambda task: keys[task.device_id])
        # Planned order: fused [0, 2] first, then passthrough 1 and 3.
        raw = [["r0", "r2"], "r1", "r3"]
        assert plan.gather(raw) == ["r0", "r1", "r2", "r3"]


class TestSimulationGroupKey:
    """A FedAvg FC population whose 130 samples shard as 33, 33, 32, 32."""

    @pytest.fixture
    def simulation(self):
        config = SyntheticImageConfig(name="key-rgb", num_classes=4, channels=3,
                                      height=8, width=8, family_seed=37, noise_level=0.2,
                                      max_shift=1, modes_per_class=1,
                                      background_strength=0.2)
        generator = SyntheticImageGenerator(config)
        federated = FederatedConfig(num_devices=4, rounds=1, batch_size=16,
                                    cohort_fusion=True)
        with build_fedavg(generator.sample(130, seed=1), generator.sample(48, seed=2),
                          federated, model_spec=ModelSpec("fc", {"hidden_sizes": (24,)})
                          ) as simulation:
            assert [len(device.dataset) for device in simulation.devices] == [33, 33, 32, 32]
            yield simulation

    def test_shard_size_splits_a_training_cohort(self, simulation):
        keys = [simulation._fusion_group_key(_task(device.device_id))
                for device in simulation.devices]
        assert keys[0] == keys[1] and keys[2] == keys[3] and keys[0] != keys[2]

    def test_an_evaluation_cohort_ignores_shard_size(self, simulation):
        keys = {simulation._fusion_group_key(EvaluateTask(device.device_id, state={}))
                for device in simulation.devices}
        assert len(keys) == 1 and None not in keys


# --------------------------------------------------------------------------- #
# Tile widths: a fused task run as tiles returns the undivided stack's bytes
# --------------------------------------------------------------------------- #
def _cnn(seed):
    return build_model(ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16}), (3, 8, 8), 4,
                       seed=seed)


def _fc(seed):
    return build_model(ModelSpec("fc", {"hidden_sizes": (24,)}), (3, 8, 8), 4, seed=seed)


def _train_cohort(context, anchors=False, digests=False):
    """Run one fused training task over the whole context."""
    ids = sorted(context.models)
    rng = np.random.default_rng(3)
    task = FusedLocalTrainTask(
        device_ids=ids,
        states=[context.models[index].state_dict() for index in ids],
        epochs=2,
        rng_states=[np.random.default_rng(100 + index).bit_generator.state
                    for index in ids],
        anchors=([[param.data + 0.01 for param in context.models[index].parameters()]
                  for index in ids] if anchors else None),
        digests=([DigestSpec(consensus=rng.normal(size=(len(context.public_dataset), 4)),
                             epochs=1, lr=0.02, batch_size=16, seed=50 + index)
                  for index in ids] if digests else None))
    return task.run(context)


def _assert_results_identical(tiled, whole):
    assert [result.device_id for result in tiled] == [result.device_id for result in whole]
    for ours, theirs in zip(tiled, whole):
        assert ours.report == theirs.report            # batches, samples, both losses
        assert ours.rng_state == theirs.rng_state
        assert ours.digest_loss == theirs.digest_loss
        assert list(ours.state) == list(theirs.state)
        for key in theirs.state:
            np.testing.assert_array_equal(ours.state[key], theirs.state[key], err_msg=key)


class TestTiledTrainingMatchesTheWholeStack:
    """Cohort of eight at forced widths 1, 2, 3 (3 + 3 + 2) and 8."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_exact_cohort_with_proximal_anchors(self, width, cohort_context,
                                                force_tile_width):
        def run(forced):
            force_tile_width(forced)
            return _train_cohort(cohort_context(_cnn, [16] * 8, prox_mu=0.05),
                                 anchors=True)
        _assert_results_identical(run(width), run(8))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_fully_connected_cohort_with_proximal_anchors(self, width, cohort_context,
                                                          force_tile_width):
        def run(forced):
            force_tile_width(forced)
            return _train_cohort(cohort_context(_fc, [16] * 8, prox_mu=0.05), anchors=True)
        _assert_results_identical(run(width), run(8))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_fedmd_digests(self, width, cohort_context, force_tile_width):
        def run(forced):
            force_tile_width(forced)
            return _train_cohort(cohort_context(_cnn, [16] * 8), digests=True)
        tiled, whole = run(width), run(8)
        assert all(result.digest_loss is not None for result in whole)
        _assert_results_identical(tiled, whole)

    def test_the_whole_stack_matches_the_per_device_tasks(self, cohort_context,
                                                          force_tile_width):
        # Anchor for the comparisons above: width 8 is the per-device result.
        force_tile_width(8)
        whole = _train_cohort(cohort_context(_cnn, [16] * 8), digests=True)
        context = cohort_context(_cnn, [16] * 8)
        rng = np.random.default_rng(3)
        serial = [LocalTrainTask(
            device_id=index, state=context.models[index].state_dict(), epochs=2,
            rng_state=np.random.default_rng(100 + index).bit_generator.state,
            digest=DigestSpec(consensus=rng.normal(size=(40, 4)), epochs=1, lr=0.02,
                              batch_size=16, seed=50 + index)).run(context)
            for index in sorted(context.models)]
        _assert_results_identical(whole, serial)


@pytest.mark.parametrize("sizes", [[17, 16, 16, 16, 16, 16, 16, 15], [16, 17], [17, 16]])
def test_unequal_shards_are_rejected(sizes, cohort_context):
    # The planner keys on shard size, so it never builds such a task; one
    # built by hand must fail loudly rather than train device 1 on 16 of
    # its 17 samples or index past a short shard.
    with pytest.raises(ValueError, match=re.escape(f"equal shard sizes, got {sizes}")):
        _train_cohort(cohort_context(_cnn, sizes))
