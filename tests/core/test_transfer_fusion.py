"""Fused Phase-2 back-transfer parity: fused == unfused, bit for bit.

ISSUE 7's second tentpole leg: when ``cohort_fusion`` is enabled, devices
whose models share a fusion signature are distilled as one stacked
:class:`BatchedModule` over the shared synthetic batches, with their
persisted optimizer state stacked into :class:`BatchedSGD` /
:class:`BatchedAdam`.  The contract is exact equality with the historical
per-device loop — on model states, persisted optimizer state (momentum or
Adam moments + step counts), and the `DistillationReport` — including
across resume boundaries and through sharded backends.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import ZeroShotDistiller
from repro.core import server_tasks
from repro.core.server_tasks import _fusion_groups, distill_optimizer_state
from repro.federated import ProcessPoolBackend, SerialBackend, ServerConfig, WorkerContext
from repro.models import FullyConnected, SimpleCNN, build_generator, build_global_model

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


def _distiller(config, fused):
    global_model = build_global_model(SHAPE, CLASSES, seed=7)
    generator = build_generator(SHAPE, noise_dim=config.noise_dim, seed=13)
    return ZeroShotDistiller(global_model, generator, config, seed=17,
                             cohort_fusion=fused)


def _context_for(device_models):
    return WorkerContext(models={device_id: copy.deepcopy(model)
                                 for device_id, model in device_models.items()})


def _assert_states_equal(state_a, state_b):
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


def _optimizer_states(distiller):
    return {device_id: distill_optimizer_state(optimizer)
            for device_id, (_, optimizer) in distiller._device_optimizers.items()}


def _assert_runs_equal(run_a, run_b):
    models_a, report_a, opt_a = run_a
    models_b, report_b, opt_b = run_b
    assert report_a == report_b
    assert set(models_a) == set(models_b)
    for device_id in models_a:
        _assert_states_equal(models_a[device_id].state_dict(),
                             models_b[device_id].state_dict())
    assert set(opt_a) == set(opt_b)
    for device_id in opt_a:
        assert len(opt_a[device_id]) == len(opt_b[device_id])
        for array_a, array_b in zip(opt_a[device_id], opt_b[device_id]):
            assert np.asarray(array_a).dtype == np.asarray(array_b).dtype
            np.testing.assert_array_equal(array_a, array_b)


def _run_transfer(optimizer_kind, fused, transfers=(None,)):
    """Run ``transfer_to_devices`` once per entry of ``transfers`` (an
    iteration count, or None for the config default) on one distiller, so
    persisted optimizer state carries across calls."""
    config = _server_config(device_distill_optimizer=optimizer_kind)
    device_models = _device_models()
    distiller = _distiller(config, fused)
    for iterations in transfers:
        report = distiller.transfer_to_devices(device_models, iterations=iterations)
    return device_models, report, _optimizer_states(distiller)


def test_cohort_is_actually_fusable():
    # Guard: the parity tests below are vacuous if the homogeneous group
    # degenerates into singletons.
    assert _fusion_groups(list(_device_models().values())) == [[0, 1, 2, 3]]


@pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
def test_fused_transfer_is_bit_identical(optimizer_kind):
    unfused = _run_transfer(optimizer_kind, fused=False)
    fused = _run_transfer(optimizer_kind, fused=True)
    _assert_runs_equal(unfused, fused)


@pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
def test_fused_transfer_resumes_bit_identically(optimizer_kind):
    # Two fused 1-iteration transfers == one unfused 2-iteration transfer:
    # the stacked optimizer state (momentum, or Adam moments + per-slice
    # step counts) round-trips losslessly across the resume boundary.
    split = _run_transfer(optimizer_kind, fused=True, transfers=(1, 1))
    merged = _run_transfer(optimizer_kind, fused=False, transfers=(2,))
    split_models, _, split_opt = split
    merged_models, _, merged_opt = merged
    _assert_runs_equal((split_models, None, split_opt),
                       (merged_models, None, merged_opt))


@pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
@pytest.mark.parametrize("backend_factory", [
    SerialBackend,
    lambda: ProcessPoolBackend(max_workers=2),
], ids=["serial-backend", "process:2"])
def test_sharded_fused_transfer_matches_unfused_serial(backend_factory,
                                                       optimizer_kind):
    unfused_models, unfused_report, _ = _run_transfer(optimizer_kind, fused=False)

    config = _server_config(device_distill_optimizer=optimizer_kind,
                            server_shards=2)
    device_models = _device_models()
    backend = backend_factory()
    with backend:
        backend.start(_context_for(device_models))
        distiller = _distiller(config, fused=True)
        distiller.bind_backend(backend)
        report = distiller.transfer_to_devices(device_models)

    assert report == unfused_report
    for device_id in unfused_models:
        _assert_states_equal(unfused_models[device_id].state_dict(),
                             device_models[device_id].state_dict())


def test_fused_server_update_is_bit_identical(monkeypatch):
    # End to end: a full server update (fused Phase 1 + fused Phase 2), at
    # the default one shard.
    def _run(fused):
        device_models = _device_models()
        distiller = _distiller(_server_config(), fused)
        report = distiller.server_update(device_models)
        return device_models, report, _optimizer_states(distiller)

    unfused = _run(False)
    stacks = []

    class Recorded(server_tasks.BatchedModule):
        def __init__(self, template, states, *args, requires_grad=True, **kwargs):
            stacks.append((len(states), requires_grad))
            super().__init__(template, states, *args, requires_grad=requires_grad, **kwargs)

    monkeypatch.setattr(server_tasks, "BatchedModule", Recorded)
    _assert_runs_equal(unfused, _run(True))
    # Phase 1's forward/VJP tasks (grad-free stacks) ran the four CNN
    # teachers as one stack; Phase 2 stacked the four students.
    assert (4, False) in stacks and (4, True) in stacks
