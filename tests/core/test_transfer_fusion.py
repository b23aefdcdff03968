"""Stacked Phase-2 back-transfer parity: stacked == per-model, bit for bit.

Inside a shard task, devices whose models share a fusion signature are
distilled as one stacked :class:`BatchedModule` over the shared synthetic
batches, with their persisted SGD momentum stacked into
:class:`BatchedSGD`.  The contract is exact equality with the per-device
loop — on model states, the distiller's ``device_momentum``, and the
`DistillationReport` — including across resume boundaries, through
sharded backends, and under the float32 numeric policy.  The per-model
oracle is the same transfer with one device per shard (or
``distill_students`` called once per model): a singleton never stacks.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import ZeroShotDistiller
from repro.core import server_tasks
from repro.federated import ProcessPoolBackend, SerialBackend, ServerConfig, WorkerContext
from repro.models import FullyConnected, SimpleCNN, build_generator, build_global_model
from repro.nn import using_numeric_policy
from repro.nn.batched import stack_tiles

SHAPE = (3, 8, 8)
CLASSES = 4


def _server_config(**overrides):
    base = dict(distillation_iterations=3, batch_size=8, noise_dim=16,
                device_distill_lr=0.02, global_steps_per_generator_step=2)
    base.update(overrides)
    return ServerConfig(**base)


def _device_models():
    """A fusable cohort: four SimpleCNNs with the same architecture but
    different parameters, plus a lone FullyConnected that must take the
    per-device fallback path inside the same transfer."""
    models = {
        device_id: SimpleCNN(SHAPE, CLASSES, channels=(4, 8), hidden_size=16,
                             seed=device_id)
        for device_id in range(4)
    }
    models[4] = FullyConnected(SHAPE, CLASSES, hidden_sizes=(32,), seed=9)
    return models


def _distiller(stacked, server_shards=None):
    """A distiller whose shard tasks stack the CNN cohort (one shard unless
    ``server_shards`` says otherwise) or run every device alone (one device
    per shard)."""
    if server_shards is None:
        server_shards = 1 if stacked else len(_device_models())
    config = _server_config(server_shards=server_shards)
    global_model = build_global_model(SHAPE, CLASSES, seed=7)
    generator = build_generator(SHAPE, noise_dim=config.noise_dim, seed=13)
    return ZeroShotDistiller(global_model, generator, config, seed=17)


def _context_for(device_models):
    return WorkerContext(models={device_id: copy.deepcopy(model)
                                 for device_id, model in device_models.items()})


def _assert_states_equal(state_a, state_b):
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


def _assert_runs_equal(run_a, run_b):
    models_a, report_a, momentum_a = run_a
    models_b, report_b, momentum_b = run_b
    assert report_a == report_b
    assert set(models_a) == set(models_b)
    for device_id in models_a:
        _assert_states_equal(models_a[device_id].state_dict(),
                             models_b[device_id].state_dict())
    assert set(momentum_a) == set(momentum_b)
    for device_id in momentum_a:
        assert len(momentum_a[device_id]) == len(momentum_b[device_id])
        for array_a, array_b in zip(momentum_a[device_id], momentum_b[device_id]):
            assert np.asarray(array_a).dtype == np.asarray(array_b).dtype
            np.testing.assert_array_equal(array_a, array_b)


def _run_transfer(stacked, transfers=(None,)):
    """Run ``transfer_to_devices`` once per entry of ``transfers`` (an
    iteration count, or None for the config default) on one distiller, so
    persisted momentum carries across calls."""
    device_models = _device_models()
    distiller = _distiller(stacked)
    for iterations in transfers:
        report = distiller.transfer_to_devices(device_models, iterations=iterations)
    return device_models, report, distiller.device_momentum


def test_cohort_is_actually_fusable():
    # Guard: the parity tests below are vacuous if the homogeneous group
    # runs as tiles of one at the transfer's batch of eight.
    models = list(_device_models().values())
    assert stack_tiles(models, (_server_config().batch_size, *SHAPE)) == [[0, 1, 2, 3], [4]]


def test_fused_transfer_is_bit_identical():
    _assert_runs_equal(_run_transfer(stacked=False), _run_transfer(stacked=True))


@pytest.mark.parametrize("policy", ["float64", "float32"])
def test_fused_transfer_resumes_bit_identically(policy):
    # Two stacked 1-iteration transfers == one per-model 2-iteration transfer:
    # the stacked momentum round-trips losslessly across the resume boundary.
    # The driver creates each device's zero momentum itself, in its
    # parameters' dtype, and every buffer a task hands back keeps that dtype.
    with using_numeric_policy(policy):
        split_models, _, split_momentum = _run_transfer(stacked=True, transfers=(1, 1))
        merged_models, _, merged_momentum = _run_transfer(stacked=False, transfers=(2,))
    _assert_runs_equal((split_models, None, split_momentum),
                       (merged_models, None, merged_momentum))
    assert len(split_momentum) == len(split_models)
    for buffers in split_momentum.values():
        assert buffers and all(buffer.dtype == np.dtype(policy) for buffer in buffers)


@pytest.mark.parametrize("backend_factory", [
    SerialBackend,
    lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial-backend", "process:2"])
def test_sharded_fused_transfer_matches_unfused_serial(backend_factory):
    unfused_models, unfused_report, _ = _run_transfer(stacked=False)

    device_models = _device_models()
    backend = backend_factory()
    with backend:
        backend.start(_context_for(device_models))
        # Shards [0, 1] and [2, 3, 4]: each stacks a CNN pair.
        distiller = _distiller(stacked=True, server_shards=2)
        distiller.bind_backend(backend)
        report = distiller.transfer_to_devices(device_models)

    assert report == unfused_report
    for device_id in unfused_models:
        _assert_states_equal(unfused_models[device_id].state_dict(),
                             device_models[device_id].state_dict())


def test_fused_server_update_is_bit_identical(monkeypatch):
    # End to end: a full server update (stacked Phase 1 + stacked Phase 2) at
    # one shard, against one device per shard.
    def _run(stacked):
        device_models = _device_models()
        distiller = _distiller(stacked)
        report = distiller.server_update(device_models)
        return device_models, report, distiller.device_momentum

    stacks = []

    class Recorded(server_tasks.BatchedModule):
        def __init__(self, template, states, *args, requires_grad=True, **kwargs):
            stacks.append((len(states), requires_grad))
            super().__init__(template, states, *args, requires_grad=requires_grad, **kwargs)

    monkeypatch.setattr(server_tasks, "BatchedModule", Recorded)
    unfused = _run(False)
    # One device per shard stacks nothing.
    assert stacks == []
    _assert_runs_equal(unfused, _run(True))
    # At one shard Phase 1's forward/VJP tasks (grad-free stacks) ran the
    # four CNN teachers as one stack; Phase 2 stacked the four students.
    assert (4, False) in stacks and (4, True) in stacks


# --------------------------------------------------------------------------- #
# distill_students: the Phase-2 task body, on plain momentum lists
# --------------------------------------------------------------------------- #
def _distill_inputs(iterations=2, seed=6):
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(6, *SHAPE)) for _ in range(iterations)]
    targets = [rng.dirichlet(np.ones(CLASSES), size=6) for _ in range(iterations)]
    return batches, targets


def _students(seed=8):
    """The fusable cohort in train mode, each with nonzero starting momentum."""
    models = list(_device_models().values())
    rng = np.random.default_rng(seed)
    velocities = []
    for model in models:
        model.train()
        velocities.append([(0.1 * rng.normal(size=param.data.shape)).astype(param.data.dtype)
                           for param in model.parameters()])
    return models, velocities


def _distill(models, velocities, batches, targets, fuse):
    """``distill_students`` over the whole cohort (``fuse``: the four CNNs
    stack), or once per model (a singleton never stacks)."""
    if fuse:
        return server_tasks.distill_students(models, velocities, batches, targets,
                                             lr=0.02, momentum=0.9)
    runs = [server_tasks.distill_students([model], [velocity], batches, targets,
                                          lr=0.02, momentum=0.9)
            for model, velocity in zip(models, velocities)]
    return [run[0][0] for run in runs], [run[1][0] for run in runs]


def _assert_momentum_equal(velocities_a, velocities_b):
    assert len(velocities_a) == len(velocities_b)
    for buffers_a, buffers_b in zip(velocities_a, velocities_b):
        assert len(buffers_a) == len(buffers_b)
        for array_a, array_b in zip(buffers_a, buffers_b):
            assert array_a.dtype == array_b.dtype
            np.testing.assert_array_equal(array_a, array_b)


@pytest.mark.parametrize("policy", ["float64", "float32"])
def test_distill_students_fused_equals_per_model(policy):
    with using_numeric_policy(policy):
        batches, targets = _distill_inputs()
        serial_models, serial_velocities = _students()
        fused_models, fused_velocities = _students()
        serial = _distill(serial_models, serial_velocities, batches, targets, fuse=False)
        fused = _distill(fused_models, fused_velocities, batches, targets, fuse=True)
    assert fused[1] == serial[1]
    _assert_momentum_equal(fused[0], serial[0])
    for buffers in fused[0]:
        assert all(buffer.dtype == np.dtype(policy) for buffer in buffers)
    for fused_model, serial_model in zip(fused_models, serial_models):
        _assert_states_equal(fused_model.state_dict(), serial_model.state_dict())


@pytest.mark.parametrize("fuse", [False, True], ids=["per-model", "fused"])
def test_distill_students_never_writes_the_callers_momentum(fuse):
    batches, targets = _distill_inputs()
    models, velocities = _students()
    snapshots = [[buffer.copy() for buffer in buffers] for buffers in velocities]
    returned, _ = _distill(models, velocities, batches, targets, fuse)
    _assert_momentum_equal(velocities, snapshots)
    for given, handed_back in zip(velocities, returned):
        for buffer, new in zip(given, handed_back):
            assert not np.shares_memory(buffer, new)
            assert np.any(new != buffer)


@pytest.mark.parametrize("fuse", [False, True], ids=["per-model", "fused"])
def test_distill_students_resumes_from_the_momentum_it_returns(fuse):
    # Two one-batch calls, the second fed the first's momentum, equal one
    # two-batch call: the returned lists are the whole optimizer state.
    batches, targets = _distill_inputs()
    split_models, velocities = _students()
    merged_models, merged_velocities = _students()
    split_losses = []
    for batch, target in zip(batches, targets):
        velocities, losses = _distill(split_models, velocities, [batch], [target], fuse)
        split_losses.append(losses)
    merged_velocities, merged_losses = _distill(merged_models, merged_velocities,
                                                batches, targets, fuse)
    assert [sum(per_call, []) for per_call in zip(*split_losses)] == merged_losses
    _assert_momentum_equal(velocities, merged_velocities)
    for split_model, merged_model in zip(split_models, merged_models):
        _assert_states_equal(split_model.state_dict(), merged_model.state_dict())


@pytest.mark.parametrize("fuse", [False, True], ids=["per-model", "fused"])
def test_distill_students_without_batches_changes_nothing(fuse):
    models, velocities = _students()
    before = [model.state_dict() for model in models]
    returned, losses = _distill(models, velocities, [], [], fuse)
    assert losses == [[] for _ in models]
    _assert_momentum_equal(returned, velocities)
    for model, state in zip(models, before):
        _assert_states_equal(model.state_dict(), state)


@pytest.mark.parametrize("fuse", [False, True], ids=["per-model", "fused"])
def test_distill_students_rejects_a_short_momentum_list(fuse):
    # Model 0 is a CNN: with fusion it is stacked with three others, whose
    # lists are then zipped against its short one.
    batches, targets = _distill_inputs(iterations=1)
    models, velocities = _students()
    velocities[0] = velocities[0][:-1]
    with pytest.raises(ValueError, match="momentum buffers"):
        _distill(models, velocities, batches, targets, fuse)
