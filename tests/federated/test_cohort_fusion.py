"""Cohort fusion: planner semantics and the stacked bodies a ``Cohort`` runs.

``cohort_fusion`` must be a pure performance knob.  Whole runs with fusion
on — every algorithm and scheduler, serial or process backends, sharded
server updates, forced tile widths — replay the fusion-off history in
``tests/integration/test_parity_matrix.py``; this module keeps the
planner's grouping and holds every stacked job, at every tile width, to
its members' own ``run``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.baselines import build_fedavg
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import Cohort, FederatedConfig, plan_cohorts
from repro.federated.backend import (
    DigestSpec,
    EvaluateTask,
    LocalTrainTask,
    PublicLogitsTask,
    iter_state_refs,
)
from repro.models import ModelSpec, build_model
from repro.utils import StateRef


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


def _ids(cohort):
    return [task.device_id for task in cohort.members]


class TestPlanCohorts:
    def test_groups_same_key_and_scatters_in_order(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        plan = plan_cohorts(tasks, lambda task: "cnn")
        assert plan.tasks == [Cohort(tasks)]
        assert plan.scatter == [[0, 1, 2, 3]]

    def test_unfusable_tasks_pass_through(self):
        tasks = [_task(0), _task(1), _task(2)]
        plan = plan_cohorts(tasks, lambda task: None)
        assert plan.tasks == tasks
        assert plan.scatter == [[0], [1], [2]]

    def test_singleton_groups_pass_through(self):
        tasks = [_task(0), _task(1)]
        plan = plan_cohorts(tasks, lambda task: f"arch{task.device_id}")
        assert plan.tasks == tasks

    def test_mixed_groups_emit_at_first_member_position(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        keys = {0: "a", 1: "b", 2: "a", 3: "b"}
        plan = plan_cohorts(tasks, lambda task: keys[task.device_id])
        assert [_ids(cohort) for cohort in plan.tasks] == [[0, 2], [1, 3]]
        assert plan.scatter == [[0, 2], [1, 3]]

    def test_epochs_and_anchor_layout_split_groups(self):
        tasks = [_task(0, epochs=1), _task(1, epochs=2),
                 _task(2, epochs=1, anchor=[np.zeros(2)]), _task(3, epochs=1)]
        plan = plan_cohorts(tasks, lambda task: "same")
        cohorts = [t for t in plan.tasks if isinstance(t, Cohort)]
        assert len(cohorts) == 1 and _ids(cohorts[0]) == [0, 3]

    def test_digest_hyperparameters_split_groups(self):
        tasks = [_task(0, digest=_digest(0)), _task(1, digest=_digest(1)),
                 _task(2, digest=_digest(2, lr=0.5))]
        plan = plan_cohorts(tasks, lambda task: "same")
        cohorts = [t for t in plan.tasks if isinstance(t, Cohort)]
        assert cohorts == [Cohort(tasks[:2])]

    def test_only_task_types_with_a_stacked_body_fuse(self):
        tasks = [PublicLogitsTask(0, {}), PublicLogitsTask(1, {}), EvaluateTask(2, {}),
                 EvaluateTask(3, {}), _task(4), _task(5), "an unknown task", "another"]
        plan = plan_cohorts(tasks, lambda task: "same")
        assert plan.tasks == [Cohort(tasks[0:2]), Cohort(tasks[2:4]), Cohort(tasks[4:6]),
                              *tasks[6:]]

    def test_cohort_carries_every_members_refs(self):
        # Dispatch accounting reads a cohort's refs through its members.
        def ref(name):
            return StateRef(key=name, kind="arrays" if name.startswith("a") else "state")
        members = [LocalTrainTask(device_id=index, state=ref(f"s{index}"), epochs=1,
                                  rng_state={}, anchor=ref(f"a{index}"),
                                  digest=DigestSpec(ref("a-consensus"), 1, 0.1, 4, index))
                   for index in range(3)]
        refs = list(iter_state_refs(Cohort(members)))
        assert refs == [ref for task in members for ref in iter_state_refs(task)]
        assert [item.key for item in refs] == [
            key for index in range(3) for key in (f"s{index}", f"a{index}", "a-consensus")]

    def test_gather_restores_original_order(self):
        tasks = [_task(0), _task(1), _task(2), _task(3)]
        keys = {0: "a", 1: None, 2: "a", 3: None}
        plan = plan_cohorts(tasks, lambda task: keys[task.device_id])
        # Planned order: cohort [0, 2] first, then passthrough 1 and 3.
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
# Stacked jobs: per member, a cohort returns what the member's own run does
# --------------------------------------------------------------------------- #
def _cnn(seed):
    return build_model(ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16}), (3, 8, 8), 4,
                       seed=seed)


def _fc(seed):
    return build_model(ModelSpec("fc", {"hidden_sizes": (24,)}), (3, 8, 8), 4, seed=seed)


def _dropout_cnn(seed):
    return build_model(ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16,
                                         "dropout": 0.25}), (3, 8, 8), 4, seed=seed)


def _train(anchors=False, digests=False):
    def tasks(context):
        ids = sorted(context.models)
        rng = np.random.default_rng(3)
        return [LocalTrainTask(
            device_id=index, state=context.models[index].state_dict(), epochs=2,
            rng_state=np.random.default_rng(100 + index).bit_generator.state,
            anchor=([param.data + 0.01 for param in context.models[index].parameters()]
                    if anchors else None),
            digest=(DigestSpec(consensus=rng.normal(size=(len(context.public_dataset), 4)),
                               epochs=1, lr=0.02, batch_size=16, seed=50 + index)
                    if digests else None))
            for index in ids]
    return tasks


def _forward(task_type):
    # batch_size 20 over 48 / 40 samples: full chunks and a short tail.
    def tasks(context):
        return [task_type(index, context.models[index].state_dict(), batch_size=20)
                for index in sorted(context.models)]
    return tasks


#: job -> (model factory, training config overrides, member tasks of a context)
JOBS = {
    "train-prox": (_cnn, {"prox_mu": 0.05}, _train(anchors=True)),
    "train-fc-prox": (_fc, {"prox_mu": 0.05}, _train(anchors=True)),
    "train-digest": (_cnn, {}, _train(digests=True)),
    "train-dropout": (_dropout_cnn, {}, _train()),
    "evaluate": (_cnn, {}, _forward(EvaluateTask)),
    "public-logits": (_cnn, {}, _forward(PublicLogitsTask)),
}


def _dropout_streams(context):
    return [[layer._rng.bit_generator.state for layer in model.fusion_layers()
             if type(layer).__name__ == "Dropout"]
            for _, model in sorted(context.models.items())]


def _assert_same_result(ours, theirs):
    if isinstance(theirs, (float, np.ndarray)):
        np.testing.assert_array_equal(ours, theirs)
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype
        return
    assert ours.device_id == theirs.device_id
    assert ours.report == theirs.report            # batches, samples, both losses
    assert ours.rng_state == theirs.rng_state
    assert ours.digest_loss == theirs.digest_loss
    assert list(ours.state) == list(theirs.state)
    for key in theirs.state:
        np.testing.assert_array_equal(ours.state[key], theirs.state[key], err_msg=key)


#: Forced width -> the stacks a cohort of eight builds: none at width 1,
#: and never one for a tile of one.
STACKS = {1: [], 2: [2, 2, 2, 2], 3: [3, 3, 2], 7: [7], 8: [8]}


@pytest.mark.parametrize("width", sorted(STACKS))
@pytest.mark.parametrize("job", sorted(JOBS))
def test_cohort_returns_each_members_own_result(job, width, cohort_context,
                                                force_tile_width, stacked_widths):
    """A cohort of eight at forced widths 1, 2, 3 (3 + 3 + 2), 7 (7 + 1) and
    8 (the whole stack) against its members run one by one on a context of
    their own.  A tile of one is its member's own run: it builds no stack."""
    factory, training, tasks = JOBS[job]
    alone = cohort_context(factory, [16] * 8, **training)
    expected = [task.run(alone) for task in tasks(alone)]
    assert stacked_widths == []

    force_tile_width(width)
    context = cohort_context(factory, [16] * 8, **training)
    results = Cohort(tasks(context)).run(context)
    assert stacked_widths == STACKS[width]
    assert len(results) == len(expected) == 8
    for ours, theirs in zip(results, expected):
        _assert_same_result(ours, theirs)
    if job == "train-digest":
        assert all(result.digest_loss is not None for result in expected)
    # Each live member's mask generator ends where training alone leaves it:
    # no tile drew from a neighbour's stream.
    assert _dropout_streams(context) == _dropout_streams(alone)
    assert all(_dropout_streams(alone)) == (job == "train-dropout")


@pytest.mark.parametrize("sizes", [[17, 16, 16, 16, 16, 16, 16, 15], [16, 17], [17, 16]])
def test_unequal_shards_are_rejected(sizes, cohort_context):
    # The planner keys on shard size, so it never builds such a cohort; one
    # built by hand must fail loudly rather than train device 1 on 16 of
    # its 17 samples or index past a short shard.
    context = cohort_context(_cnn, sizes)
    with pytest.raises(ValueError, match=re.escape(f"equal shard sizes, got {sizes}")):
        Cohort(_train()(context)).run(context)
