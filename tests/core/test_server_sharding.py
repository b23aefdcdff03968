"""Server update parity: every shard count on every backend == a reference
written from the paper's ops on live models, bit for bit.

The server update runs only as shard tasks (Phase 1's teacher-ensemble
evaluation with the autograd path back to the synthesized inputs, Phase 2's
per-device back-transfer).  The oracle here is not that code:
``_reference_server_update`` is Algorithm 3 written directly from
``disagreement_loss`` / ``ensemble_output`` / ``kl_divergence_loss`` on the
live models.  Model states, optimizer momentum and `DistillationReport`
losses are compared with exact equality at 1, 2 and 3 shards, on the serial
backend and a 2-worker process pool.  Whole FedZKT runs are rows of
``tests/integration/test_parity_matrix.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import ZeroShotDistiller, disagreement_loss, ensemble_output
from repro.core.distillation import ensemble_mode_for_loss
from repro.core.server_tasks import (
    DeviceDistillTask,
    EnsembleForwardTask,
    EnsembleVJPTask,
    frozen_parameters,
    partition_shards,
)
from repro.federated import ProcessPoolBackend, SerialBackend, ServerConfig, WorkerContext
from repro.models import FullyConnected, LeNet, SimpleCNN, build_generator, build_global_model
from repro.nn import no_grad, using_numeric_policy
from repro.nn.losses import get_distillation_loss, kl_divergence_loss
from repro.nn.optim import SGD, Adam, MultiStepLR
from repro.nn.tensor import Tensor

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


def _server_models(config):
    return (build_global_model(SHAPE, CLASSES, seed=7),
            build_generator(SHAPE, noise_dim=config.noise_dim, seed=13))


def _distiller(config):
    return ZeroShotDistiller(*_server_models(config), config, seed=17)


def _reference_server_update(config, device_models):
    """Algorithm 3 on live models, with the distiller's seeds and schedules.

    Returns the global model, the generator, the report's losses and each
    device's back-transfer momentum."""
    global_model, generator = _server_models(config)
    rng, teachers = np.random.default_rng(17), list(device_models.values())
    iterations = config.distillation_iterations
    gen_opt = Adam(generator.parameters(), lr=config.generator_lr)
    glob_opt = SGD(global_model.parameters(), lr=config.global_lr, momentum=0.9)
    schedules = [MultiStepLR(opt, [max(1, int(iterations * f)) for f in config.lr_decay_milestones],
                             gamma=config.lr_decay_gamma) for opt in (gen_opt, glob_opt)]
    loss_name = config.distillation_loss
    loss_fn, mode = get_distillation_loss(loss_name), ensemble_mode_for_loss(loss_name)
    gen_losses, glob_losses, norms = [], [], []
    for teacher in teachers:
        teacher.eval()
    for iteration in range(iterations):
        if iteration % config.global_steps_per_generator_step == 0:
            synthetic = generator(generator.sample_noise(config.batch_size, rng))
            synthetic.retain_grad()
            with frozen_parameters([global_model, *teachers]):
                loss = disagreement_loss(global_model, teachers, synthetic, loss_name)
                gen_losses.append(loss.item())
                gen_opt.zero_grad(set_to_none=False)
                (loss * -1.0).backward()
            norms.append(float(np.linalg.norm(synthetic.grad)))
            gen_opt.step()
        with no_grad():
            synthetic = generator(generator.sample_noise(config.batch_size, rng))
            target = ensemble_output(teachers, synthetic, mode=mode).data
        loss = loss_fn(global_model(Tensor(synthetic.data)), Tensor(target))
        glob_opt.zero_grad(set_to_none=False)
        loss.backward()
        glob_opt.step()
        glob_losses.append(loss.item())
        for schedule in schedules:
            schedule.step()

    global_model.eval()
    generator.eval()
    with no_grad():
        batches = [generator(generator.sample_noise(config.batch_size, rng))
                   for _ in range(iterations)]
        targets = [global_model(batch).softmax(axis=-1).data for batch in batches]
    momentum, transfer = {}, []
    for device_id, model in device_models.items():
        model.train()
        optimizer = SGD(model.parameters(), lr=config.device_distill_lr, momentum=0.9)
        for batch, target in zip(batches, targets):
            loss = kl_divergence_loss(model(Tensor(batch.data)), Tensor(target))
            optimizer.zero_grad(set_to_none=False)
            loss.backward()
            optimizer.step()
            transfer.append(loss.item())
        momentum[device_id] = optimizer.velocity_state()
    # The report reduces the transfer losses iteration-major.
    transfer = np.reshape(transfer, (len(device_models), iterations)).T.ravel().tolist()
    report = dict(generator_loss=float(np.mean(gen_losses)),
                  global_loss=float(np.mean(glob_losses)),
                  input_gradient_norm=float(np.mean(norms)),
                  transfer_loss=float(np.mean(transfer)))
    return global_model, generator, report, momentum


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


@pytest.mark.parametrize("server_shards", [1, 2, 3])
@pytest.mark.parametrize("backend_factory", [
    SerialBackend,
    lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial-backend", "process:2"])
def test_server_update_matches_the_reference(backend_factory, server_shards):
    config = _server_config(server_shards=server_shards)
    reference_models = _device_models()
    global_model, generator, reference, momentum = _reference_server_update(
        config, reference_models)

    device_models = _device_models()
    distiller = _distiller(config)
    with backend_factory() as backend:
        context = _context_for(device_models)
        backend.start(context)
        distiller.bind_backend(backend)
        report = distiller.server_update(device_models)

        assert {key: report[key] for key in reference} == reference
        _assert_states_equal(distiller.global_model.state_dict(), global_model.state_dict())
        _assert_states_equal(distiller.generator.state_dict(), generator.state_dict())
        for device_id, model in device_models.items():
            _assert_states_equal(model.state_dict(), reference_models[device_id].state_dict())
            velocity = distiller.device_momentum[device_id]
            assert len(velocity) == len(momentum[device_id])
            for ours, theirs in zip(velocity, momentum[device_id]):
                np.testing.assert_array_equal(ours, theirs)

        # The borrowed context models (the live device models on a serial
        # backend) are restored exactly: the server update must not leak
        # replica state into them.
        pristine = _context_for(_device_models())
        for device_id, model in context.models.items():
            _assert_states_equal(model.state_dict(),
                                 pristine.models[device_id].state_dict())


def test_phases_match_across_shard_counts_individually():
    device_models_a = _device_models()
    device_models_b = _device_models()
    one = _distiller(_server_config(server_shards=1))
    three = _distiller(_server_config(server_shards=3))
    backend = SerialBackend()
    backend.start(_context_for(device_models_b))
    three.bind_backend(backend)

    report_a = one.adversarial_distillation(device_models_a)
    report_b = three.adversarial_distillation(device_models_b)
    assert report_a == report_b
    _assert_states_equal(one.global_model.state_dict(), three.global_model.state_dict())
    _assert_states_equal(one.generator.state_dict(), three.generator.state_dict())

    report_a = one.transfer_to_devices(device_models_a)
    report_b = three.transfer_to_devices(device_models_b)
    assert report_a == report_b
    for device_id in device_models_a:
        _assert_states_equal(device_models_a[device_id].state_dict(),
                             device_models_b[device_id].state_dict())
        # Persisted back-transfer momentum matches too (next round stays equal).
        for buffer_a, buffer_b in zip(one.device_momentum[device_id],
                                      three.device_momentum[device_id]):
            np.testing.assert_array_equal(buffer_a, buffer_b)


def test_partition_shards_contiguous_and_even():
    assert partition_shards([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4, 5]]
    assert partition_shards([1, 2], 5) == [[1], [2]]
    assert partition_shards([], 3) == []
    assert partition_shards(list(range(7)), 3) == [[0, 1], [2, 3], [4, 5, 6]]
    flattened = [item for shard in partition_shards(list(range(11)), 4) for item in shard]
    assert flattened == list(range(11))


def test_unbound_distiller_matches_a_serial_backend_bound_one():
    """Without a simulation the distiller runs its tasks on a private serial
    backend over the models it is handed; the bits are those of a bound one."""
    config = _server_config(server_shards=4)
    unbound_models, bound_models = _device_models(), _device_models()
    unbound, bound = _distiller(config), _distiller(config)
    backend = SerialBackend()
    backend.start(_context_for(bound_models))
    bound.bind_backend(backend)
    for _ in range(2):
        assert unbound.server_update(unbound_models) == bound.server_update(bound_models)
    _assert_states_equal(unbound.global_model.state_dict(), bound.global_model.state_dict())
    for device_id in unbound_models:
        _assert_states_equal(unbound_models[device_id].state_dict(),
                             bound_models[device_id].state_dict())


def test_borrowed_replica_keeps_its_own_arrays():
    """A forward, a VJP and a training distill task load other states into
    the context replica; afterwards it holds the very same parameter and
    buffer arrays, with their values, in its own mode."""
    replica = SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=0).eval()
    context = WorkerContext(models={0: replica})
    arrays = [param.data for param in replica.parameters()] + [
        buffer for _, buffer in replica.named_buffers()]
    values = [array.copy() for array in arrays]
    other = SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16, seed=5)
    state = other.state_dict()
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(6, *SHAPE))
    EnsembleForwardTask([0], [state], inputs).run(context)
    EnsembleVJPTask([0], [state], [1.0], inputs, rng.normal(size=(6, CLASSES))).run(context)
    velocity = [np.zeros_like(param.data) for param in other.parameters()]
    result = DeviceDistillTask([0], [state], [velocity], [inputs],
                               [rng.dirichlet(np.ones(CLASSES), size=6)], lr=0.02).run(context)
    assert any(np.any(result.states[0][key] != state[key]) for key in state)

    now = [param.data for param in replica.parameters()] + [
        buffer for _, buffer in replica.named_buffers()]
    assert all(ours is theirs for ours, theirs in zip(now, arrays))
    for array, value in zip(now, values):
        np.testing.assert_array_equal(array, value)
    assert not replica.training
    assert all(param.grad is None for param in replica.parameters())


def test_server_shards_validation():
    with pytest.raises(ValueError):
        ServerConfig(server_shards=0)


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


class TestPersistentDeviceMomentum:
    """Pin the Phase-2 momentum fix: back-transfer momentum must carry
    across server updates instead of silently resetting every round."""

    def test_two_single_iteration_calls_equal_one_two_iteration_call(self):
        # With persistent momentum, splitting the transfer across calls is
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

    def test_momentum_persists_across_calls(self):
        # Each call replaces a device's momentum with what its task handed
        # back; the arrays the driver held are read, never stepped in place.
        distiller = _distiller(_server_config())
        models = _device_models()
        distiller.transfer_to_devices(models, iterations=1)
        held = dict(distiller.device_momentum)
        snapshots = {device_id: [buffer.copy() for buffer in buffers]
                     for device_id, buffers in held.items()}
        distiller.transfer_to_devices(models, iterations=1)
        assert set(held) == set(distiller.device_momentum) == set(models)
        for device_id, buffers in held.items():
            assert len(buffers) == len(models[device_id].parameters())
            assert any(np.any(buffer != 0) for buffer in buffers)
            for buffer, snapshot in zip(buffers, snapshots[device_id]):
                np.testing.assert_array_equal(buffer, snapshot)
            assert any(np.any(new != old) for new, old in
                       zip(distiller.device_momentum[device_id], buffers))

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_a_first_transfer_starts_from_zero_momentum(self, policy):
        # A device's first transfer starts from what a never-stepped SGD
        # holds: one zero array per parameter, in the parameter's dtype.
        with using_numeric_policy(policy):
            distiller = _distiller(_server_config())
            models = _device_models()
            before = {device_id: model.state_dict() for device_id, model in models.items()}
            assert distiller.device_momentum == {}
            report = distiller.transfer_to_devices(models, iterations=0)
        assert report == {"transfer_loss": 0.0, "parameter_updates": 0}
        assert set(distiller.device_momentum) == set(models)
        for device_id, model in models.items():
            buffers = distiller.device_momentum[device_id]
            params = model.parameters()
            assert len(buffers) == len(params)
            for buffer, param in zip(buffers, params):
                assert buffer.shape == param.data.shape
                assert buffer.dtype == param.data.dtype == np.dtype(policy)
                assert not np.any(buffer)
            _assert_states_equal(model.state_dict(), before[device_id])

    def test_momentum_follows_device_ids_not_dict_order(self):
        # Every device consumes the same synthetic batches, so handing the
        # replicas over in another order changes nothing any id holds.
        forward, backward = _distiller(_server_config()), _distiller(_server_config())
        models_forward = _device_models()
        models_backward = dict(reversed(list(_device_models().items())))
        for _ in range(2):
            forward.transfer_to_devices(models_forward, iterations=1)
            backward.transfer_to_devices(models_backward, iterations=1)
        assert list(backward.device_momentum) == list(models_backward)
        for device_id, model in models_forward.items():
            _assert_states_equal(model.state_dict(), models_backward[device_id].state_dict())
            for ours, theirs in zip(forward.device_momentum[device_id],
                                    backward.device_momentum[device_id]):
                np.testing.assert_array_equal(ours, theirs)


def test_each_server_update_restarts_the_schedules_at_the_config_rates():
    # The previous round left both optimizers at a decayed rate; the next
    # round's schedules start again from the configured ones.
    config = _server_config(distillation_iterations=8)
    distiller = _distiller(config)
    for optimizer, base_lr in ((distiller.generator_optimizer, config.generator_lr),
                               (distiller.global_optimizer, config.global_lr)):
        optimizer.lr = base_lr * 1e-3
        scheduler = distiller._make_scheduler(optimizer, 8, base_lr)
        assert scheduler.base_lr == optimizer.lr == base_lr
        milestones = [max(1, int(8 * fraction)) for fraction in config.lr_decay_milestones]
        expected = [base_lr * config.lr_decay_gamma ** sum(step >= m for m in milestones)
                    for step in range(1, 9)]
        assert [scheduler.step() for _ in range(8)] == expected
        assert optimizer.lr == expected[-1] < base_lr


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
    def test_phase2_distillation_and_its_momentum(self, width, force_tile_width):
        models = _homogeneous_cohort()
        context = _context_for(models)
        ids = list(models)
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(6, *SHAPE)) for _ in range(3)]
        targets = [rng.dirichlet(np.ones(CLASSES), size=6) for _ in range(3)]

        def run(fuse):
            # Two dispatches, the second resuming from the first's states and
            # momentum, as consecutive rounds do.
            states = [models[device_id].state_dict() for device_id in ids]
            velocities = [[np.zeros_like(param.data) for param in models[device_id].parameters()]
                          for device_id in ids]
            for _ in range(2):
                result = DeviceDistillTask(ids, states, velocities, batches, targets,
                                           lr=0.02, fuse=fuse).run(context)
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
