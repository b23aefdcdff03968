"""Fused-cohort execution: planner semantics and end-to-end bit-parity.

``cohort_fusion`` must be a pure performance knob: every history produced
with fusion on — FedZKT / FedAvg / FedMD, sync / deadline / async
schedulers, serial or process backends, sharded or in-process server
updates — must match the fusion-off run *numerically exactly* (module the
``cohort_fusion`` key the config summary adds).  Heterogeneous cohorts
must silently fall back to the per-device tasks.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    FusedLocalTrainTask,
    SchedulerConfig,
    ServerConfig,
    make_backend,
    plan_cohorts,
)
from repro.federated.backend import DigestSpec, LocalTrainTask
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


# --------------------------------------------------------------------------- #
# End-to-end bit-parity
# --------------------------------------------------------------------------- #
def _data():
    config = SyntheticImageConfig(name="fusion-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=29, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(128, seed=1), generator.sample(48, seed=2)


def _public():
    config = SyntheticImageConfig(name="fusion-public", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=31, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(48, seed=5)


def _config(fusion, rounds=2, scheduler=None, server_shards=1, prox_mu=0.0):
    return FederatedConfig(
        num_devices=4, rounds=rounds, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=9, prox_mu=prox_mu,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02, server_shards=server_shards),
        scheduler=scheduler or SchedulerConfig(),
        cohort_fusion=fusion,
    )


_CNN_SPEC = ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16})


def _homogeneous_models(config, input_shape, num_classes):
    return [build_model(_CNN_SPEC, input_shape, num_classes, seed=config.seed + index)
            for index in range(config.num_devices)]


def _canonical(history):
    payload = history.to_dict()
    payload["config"].pop("cohort_fusion", None)
    return json.dumps(payload, default=float, sort_keys=True)


def _run_fedavg(fusion, scheduler=None, backend=None, prox_mu=0.0):
    train, test = _data()
    config = _config(fusion, scheduler=scheduler, prox_mu=prox_mu)
    with build_fedavg(train, test, config, model_spec=_CNN_SPEC,
                      backend=backend) as simulation:
        return simulation.run()


def _run_fedmd(fusion, homogeneous):
    train, test = _data()
    config = _config(fusion)
    models = (_homogeneous_models(config, train.input_shape, train.num_classes)
              if homogeneous else None)
    kwargs = {"device_models": models} if homogeneous else {"family": "small"}
    with build_fedmd(train, test, _public(), config, **kwargs) as simulation:
        return simulation.run()


def _run_fedzkt(fusion, homogeneous=False, server_shards=1):
    train, test = _data()
    config = _config(fusion, server_shards=server_shards)
    models = (_homogeneous_models(config, train.input_shape, train.num_classes)
              if homogeneous else None)
    kwargs = {"device_models": models} if homogeneous else {"family": "small"}
    with build_fedzkt(train, test, config, **kwargs) as simulation:
        return simulation.run()


class TestFusedHistoriesMatchSerial:
    def test_fedavg_sync(self):
        assert _canonical(_run_fedavg(False)) == _canonical(_run_fedavg(True))

    def test_fedprox_anchored_cohort(self):
        assert (_canonical(_run_fedavg(False, prox_mu=0.05))
                == _canonical(_run_fedavg(True, prox_mu=0.05)))

    @pytest.mark.parametrize("kind", ["deadline", "async"])
    def test_fedavg_reordering_schedulers(self, kind):
        scheduler = SchedulerConfig(kind=kind, deadline=1.5, buffer_size=2)
        assert (_canonical(_run_fedavg(False, scheduler=scheduler))
                == _canonical(_run_fedavg(True, scheduler=scheduler)))

    def test_fedavg_process_backend(self):
        backend = make_backend("process:2")
        try:
            fused = _run_fedavg(True, backend=backend)
        finally:
            backend.shutdown()
        assert _canonical(_run_fedavg(False)) == _canonical(fused)

    def test_fedmd_homogeneous_fuses_digest_phase(self):
        assert (_canonical(_run_fedmd(False, homogeneous=True))
                == _canonical(_run_fedmd(True, homogeneous=True)))

    def test_fedmd_heterogeneous_falls_back(self):
        assert (_canonical(_run_fedmd(False, homogeneous=False))
                == _canonical(_run_fedmd(True, homogeneous=False)))

    def test_fedzkt_heterogeneous_falls_back(self):
        assert (_canonical(_run_fedzkt(False)) == _canonical(_run_fedzkt(True)))

    def test_fedzkt_homogeneous_sharded_teacher_ensemble(self):
        # server_shards=2 + fusion: Phase-1 ensemble forward/VJP shards run
        # through the stacked BatchedModule path.
        baseline = _run_fedzkt(False, homogeneous=True, server_shards=1)
        fused = _run_fedzkt(True, homogeneous=True, server_shards=2)
        base_payload = json.loads(_canonical(baseline))
        fused_payload = json.loads(_canonical(fused))
        base_payload["config"].pop("server_shards", None)
        fused_payload["config"].pop("server_shards", None)
        assert (json.dumps(base_payload, sort_keys=True)
                == json.dumps(fused_payload, sort_keys=True))

    def test_fusion_flag_lands_in_history_config(self):
        history = _run_fedavg(True)
        assert history.config.get("cohort_fusion") is True


# --------------------------------------------------------------------------- #
# Tile widths: a fused task run as tiles returns the undivided stack's bytes
# --------------------------------------------------------------------------- #
def _cnn(seed):
    return build_model(_CNN_SPEC, (3, 8, 8), 4, seed=seed)


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
    def test_family_padded_cohort(self, width, cohort_context, force_tile_width):
        # Unequal shards: the 17-sample device steps alone at the end, the
        # 15-sample one is padded mid-epoch, and a tile whose own shards all
        # agree (any tile of one) still runs the cohort's masked loop at the
        # cohort's padded width.
        sizes = [17, 16, 16, 16, 16, 16, 16, 15]

        def run(forced):
            force_tile_width(forced)
            return _train_cohort(cohort_context(_fc, sizes, prox_mu=0.05), anchors=True)
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


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("algorithm", ["fedavg", "fedmd", "fedzkt"])
def test_tiled_histories_match_unfused(algorithm, width, force_tile_width):
    # Whole runs on eight homogeneous devices: every fused site (training,
    # digests, evaluation, public logits, sharded ensemble forward/VJP,
    # Phase-2 transfer with its persisted optimizer state) cut into tiles.
    def run(fusion):
        train, test = _data()
        shards = 2 if fusion and algorithm == "fedzkt" else 1
        config = replace(_config(fusion, server_shards=shards), num_devices=8)
        models = _homogeneous_models(config, train.input_shape, train.num_classes)
        if algorithm == "fedavg":
            builder = build_fedavg(train, test, config, model_spec=_CNN_SPEC)
        elif algorithm == "fedmd":
            builder = build_fedmd(train, test, _public(), config, device_models=models)
        else:
            builder = build_fedzkt(train, test, config, device_models=models)
        with builder as simulation:
            payload = json.loads(_canonical(simulation.run()))
        payload["config"].pop("server_shards", None)
        return payload

    force_tile_width(width)
    assert run(True) == run(False)
