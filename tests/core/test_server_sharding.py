"""Sharded server update parity: backend-dispatched == in-process, bit for bit.

The sharding contract (ISSUE 3) mirrors the device-side backend contract:
dispatching the FedZKT server update through an execution backend must be a
pure performance optimization.  Phase 1 (teacher-ensemble evaluation with
the autograd path back to the synthesized inputs) and Phase 2 (per-device
back-transfer) are compared against the serial path with exact equality —
on model states, optimizer momentum, `DistillationReport` metrics, and
whole training histories — for both the serial backend and a 2-worker
process pool.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import ZeroShotDistiller, build_fedzkt
from repro.core.server_tasks import (
    DeviceDistillTask,
    EnsembleForwardTask,
    EnsembleVJPTask,
    distill_optimizer_state,
    frozen_parameters,
    make_distill_optimizer,
    partition_shards,
)
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    ProcessPoolBackend,
    SerialBackend,
    ServerConfig,
    WorkerContext,
)
from repro.models import FullyConnected, LeNet, SimpleCNN, build_generator, build_global_model

SHAPE = (3, 8, 8)
CLASSES = 4


def _server_config(**overrides):
    base = dict(distillation_iterations=3, batch_size=8, noise_dim=16,
                device_distill_lr=0.02, global_steps_per_generator_step=2)
    base.update(overrides)
    return ServerConfig(**base)


def _device_models():
    """Heterogeneous replicas, as the FedZKT server holds them."""
    return {
        0: SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=0),
        1: FullyConnected(SHAPE, CLASSES, hidden_sizes=(32,), seed=1),
        2: LeNet(SHAPE, CLASSES, conv_channels=(4,), fc_sizes=(16,), seed=2),
        3: SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=3),
    }


def _distiller(config, backend=None):
    global_model = build_global_model(SHAPE, CLASSES, seed=7)
    generator = build_generator(SHAPE, noise_dim=config.noise_dim, seed=13)
    return ZeroShotDistiller(global_model, generator, config, seed=17, backend=backend)


def _context_for(device_models):
    """A worker context whose models mimic the live device models: same
    architectures as the replicas, but distinct objects with their own
    (different) parameters — exactly the aliasing situation of a real run."""
    return WorkerContext(models={device_id: copy.deepcopy(model)
                                 for device_id, model in device_models.items()})


def _assert_states_equal(state_a, state_b):
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


def _run_server_update(backend, server_shards):
    config = _server_config(server_shards=server_shards)
    device_models = _device_models()
    distiller = _distiller(config)
    if backend is not None:
        context = _context_for(device_models)
        backend.start(context)
        distiller.bind_backend(backend)
    else:
        context = None
    report = distiller.server_update(device_models)
    return distiller, device_models, report, context


@pytest.mark.parametrize("backend_factory", [
    SerialBackend,
    lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial-backend", "process:2"])
def test_sharded_server_update_is_bit_identical(backend_factory):
    _, serial_models, serial_report, _ = _run_server_update(None, 1)

    backend = backend_factory()
    with backend:
        sharded_distiller, sharded_models, sharded_report, context = _run_server_update(
            backend, 2)

        assert serial_report == sharded_report
        for device_id in serial_models:
            _assert_states_equal(serial_models[device_id].state_dict(),
                                 sharded_models[device_id].state_dict())

        # The borrowed context models (the live device models on a serial
        # backend) are restored exactly: the server update must not leak
        # replica state into them.
        pristine = _context_for(_device_models())
        for device_id, model in context.models.items():
            _assert_states_equal(model.state_dict(),
                                 pristine.models[device_id].state_dict())


def test_sharded_phases_match_serial_individually():
    config = _server_config(server_shards=3)
    device_models_a = _device_models()
    device_models_b = _device_models()
    serial = _distiller(_server_config(server_shards=1))
    sharded = _distiller(config)
    backend = SerialBackend()
    backend.start(_context_for(device_models_b))
    sharded.bind_backend(backend)

    ids = list(device_models_a.keys())
    report_a = serial.adversarial_distillation(list(device_models_a.values()),
                                               teacher_ids=ids)
    report_b = sharded.adversarial_distillation(list(device_models_b.values()),
                                                teacher_ids=ids)
    assert report_a == report_b
    _assert_states_equal(serial.global_model.state_dict(), sharded.global_model.state_dict())
    _assert_states_equal(serial.generator.state_dict(), sharded.generator.state_dict())

    report_a = serial.transfer_to_devices(device_models_a)
    report_b = sharded.transfer_to_devices(device_models_b)
    assert report_a == report_b
    for device_id in ids:
        _assert_states_equal(device_models_a[device_id].state_dict(),
                             device_models_b[device_id].state_dict())
        # Persisted back-transfer momentum matches too (next round stays equal).
        vel_a = serial.device_optimizer_for(device_id, device_models_a[device_id])
        vel_b = sharded.device_optimizer_for(device_id, device_models_b[device_id])
        for buffer_a, buffer_b in zip(vel_a.velocity_state(), vel_b.velocity_state()):
            np.testing.assert_array_equal(buffer_a, buffer_b)


def _tiny_federated_data():
    config = SyntheticImageConfig(name="shard-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=21, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(160, seed=1), generator.sample(60, seed=2)


def _federated_history(backend, server_shards, scheduler_kind="sync"):
    from repro.federated.config import SchedulerConfig

    train, test = _tiny_federated_data()
    config = FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=_server_config(distillation_iterations=2, server_shards=server_shards),
        scheduler=SchedulerConfig(kind=scheduler_kind),
    )
    with backend:
        with build_fedzkt(train, test, config, family="small", backend=backend) as simulation:
            return simulation.run()


def _assert_histories_equal(history_a, history_b):
    assert len(history_a) == len(history_b)
    for record_a, record_b in zip(history_a.records, history_b.records):
        assert record_a.active_devices == record_b.active_devices
        assert record_a.global_accuracy == record_b.global_accuracy
        assert record_a.local_loss == record_b.local_loss
        assert record_a.device_accuracies == record_b.device_accuracies
        for key, value in record_a.server_metrics.items():
            assert value == record_b.server_metrics[key], key


@pytest.mark.parametrize("backend_factory", [
    SerialBackend,
    lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial-backend", "process:2"])
def test_fedzkt_history_identical_with_server_sharding(backend_factory):
    reference = _federated_history(SerialBackend(), server_shards=1)
    sharded = _federated_history(backend_factory(), server_shards=2)
    _assert_histories_equal(reference, sharded)


def test_fedzkt_history_identical_with_server_sharding_under_deadline_scheduler():
    """Sharded server updates compose with the straggler-aware scheduler."""
    reference = _federated_history(SerialBackend(), server_shards=1,
                                   scheduler_kind="deadline")
    sharded = _federated_history(SerialBackend(), server_shards=3,
                                 scheduler_kind="deadline")
    _assert_histories_equal(reference, sharded)


def test_partition_shards_contiguous_and_even():
    assert partition_shards([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4, 5]]
    assert partition_shards([1, 2], 5) == [[1], [2]]
    assert partition_shards([], 3) == []
    assert partition_shards(list(range(7)), 3) == [[0, 1], [2, 3], [4, 5, 6]]
    flattened = [item for shard in partition_shards(list(range(11)), 4) for item in shard]
    assert flattened == list(range(11))


def test_sharding_inactive_without_backend():
    config = _server_config(server_shards=4)
    distiller = _distiller(config)
    assert not distiller.sharding_active
    # Runs fine in process when no backend was ever bound.
    report = distiller.server_update(_device_models())
    assert np.isfinite(report["transfer_loss"])


def test_server_shards_validation():
    with pytest.raises(ValueError):
        ServerConfig(server_shards=0)
    assert not ServerConfig().shard_server_update
    assert ServerConfig(server_shards=2).shard_server_update


@pytest.mark.parametrize("raises", [False, True])
def test_frozen_parameters_gives_each_parameter_its_own_flag_back(raises):
    """A layer the caller had frozen stays frozen after a generator step or an
    ``EnsembleVJPTask`` on its model; the rest come back trainable."""
    model = SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=0)
    frozen = list(model.fusion_layers()[0].parameters())
    assert frozen
    for param in frozen:
        param.requires_grad = False
    try:
        with frozen_parameters([model]):
            assert not any(param.requires_grad for param in model.parameters())
            if raises:
                raise KeyError("the flags come back on the way out too")
    except KeyError:
        pass
    assert not any(param.requires_grad for param in frozen)
    others = [param for param in model.parameters()
              if not any(param is other for other in frozen)]
    assert others and all(param.requires_grad for param in others)


class TestPersistentDeviceDistillOptimizers:
    """Pin the Phase-2 optimizer fix: back-transfer momentum must carry
    across server updates instead of silently resetting every round."""

    def test_two_single_iteration_calls_equal_one_two_iteration_call(self):
        # With persistent optimizers, splitting the transfer across calls is
        # invisible: same RNG stream + same momentum state => same models.
        split = _distiller(_server_config())
        merged = _distiller(_server_config())
        models_split = _device_models()
        models_merged = _device_models()

        split.transfer_to_devices(models_split, iterations=1)
        split.transfer_to_devices(models_split, iterations=1)
        merged.transfer_to_devices(models_merged, iterations=2)

        for device_id in models_split:
            _assert_states_equal(models_split[device_id].state_dict(),
                                 models_merged[device_id].state_dict())

    def test_optimizer_objects_persist_across_calls(self):
        distiller = _distiller(_server_config())
        models = _device_models()
        distiller.transfer_to_devices(models, iterations=1)
        first = {device_id: distiller.device_optimizer_for(device_id, model)
                 for device_id, model in models.items()}
        distiller.transfer_to_devices(models, iterations=1)
        for device_id, model in models.items():
            assert distiller.device_optimizer_for(device_id, model) is first[device_id]
            velocity = first[device_id].velocity_state()
            assert any(np.any(buffer != 0) for buffer in velocity)

    def test_optimizer_recreated_when_model_object_changes(self):
        distiller = _distiller(_server_config())
        model = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=5)
        optimizer = distiller.device_optimizer_for(0, model)
        replacement = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=6)
        assert distiller.device_optimizer_for(0, replacement) is not optimizer


# --------------------------------------------------------------------------- #
# Tile widths: a fused shard task run as tiles returns the same bytes
# --------------------------------------------------------------------------- #
def _homogeneous_cohort():
    """Eight same-architecture replicas plus one that cannot join them."""
    models = {device_id: SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16,
                                   seed=device_id) for device_id in range(8)}
    models[8] = FullyConnected(SHAPE, CLASSES, hidden_sizes=(32,), seed=9)
    return models


class TestTiledShardTasks:
    """Cohort of eight at forced widths 1, 2, 3 (3 + 3 + 2) and 8, against the
    unfused per-model branch of the same task."""

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize("mode", ["prob", "logit"])
    def test_ensemble_forward_and_vjp(self, width, mode, force_tile_width):
        models = _homogeneous_cohort()
        context = _context_for(models)
        ids = list(models)
        states = [models[device_id].state_dict() for device_id in ids]
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(6, *SHAPE))
        upstream = rng.normal(size=(6, CLASSES))
        weights = list(rng.uniform(0.5, 1.5, size=len(ids)))

        def run(fuse):
            forward = EnsembleForwardTask(ids, states, inputs, mode=mode, fuse=fuse)
            vjp = EnsembleVJPTask(ids, states, weights, inputs, upstream, mode=mode,
                                  fuse=fuse)
            return forward.run(context), vjp.run(context)

        members, grads = run(fuse=False)
        force_tile_width(width)
        tiled_members, tiled_grads = run(fuse=True)
        for ours, theirs in zip(tiled_members + tiled_grads, members + grads):
            np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
    def test_phase2_distillation_and_its_optimizer_state(self, width, optimizer_kind,
                                                         force_tile_width):
        models = _homogeneous_cohort()
        context = _context_for(models)
        ids = list(models)
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(6, *SHAPE)) for _ in range(3)]
        targets = [rng.dirichlet(np.ones(CLASSES), size=6) for _ in range(3)]

        def run(fuse):
            # Two dispatches, the second resuming from the first's states and
            # flat optimizer state, as consecutive rounds do.
            states = [models[device_id].state_dict() for device_id in ids]
            velocities = [distill_optimizer_state(make_distill_optimizer(
                models[device_id], 0.02, 0.9, optimizer_kind)) for device_id in ids]
            for _ in range(2):
                result = DeviceDistillTask(ids, states, velocities, batches, targets,
                                           lr=0.02, optimizer=optimizer_kind,
                                           fuse=fuse).run(context)
                states, velocities = result.states, result.velocities
            return result

        unfused = run(fuse=False)
        force_tile_width(width)
        tiled = run(fuse=True)
        assert tiled.device_ids == unfused.device_ids
        assert tiled.losses == unfused.losses
        for ours, theirs in zip(tiled.states, unfused.states):
            _assert_states_equal(ours, theirs)
        for ours, theirs in zip(tiled.velocities, unfused.velocities):
            assert len(ours) == len(theirs)
            for array_a, array_b in zip(ours, theirs):
                assert np.asarray(array_a).dtype == np.asarray(array_b).dtype
                np.testing.assert_array_equal(array_a, array_b)
