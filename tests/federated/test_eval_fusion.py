"""Fused evaluation: the eval sweep must be a pure performance knob.

``cohort_fusion`` routes per-round evaluation (and FedMD's public-logit
sweeps) through :class:`~repro.federated.FusedEvaluateTask` /
:class:`~repro.federated.cohort.FusedPublicLogitsTask` when a cohort
shares an architecture.  Everything observable — per-round accuracies,
digest losses, the full history, and each device's post-run RNG state —
must match the fusion-off run bit for bit, on every backend.  These tests
also pin that fusion actually *fires* for homogeneous cohorts: a silent
fall-back to per-device evaluation would keep the numbers right while
quietly losing the speedup the benchmark gates.  A synchronous FedAvg
round evaluates nothing per device (every device holds the global state,
whose result the engine already has), so the fused eval sweep is pinned on
homogeneous FedZKT, whose same-architecture devices hold distinct states.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    SchedulerConfig,
    ServerConfig,
    make_backend,
)
from repro.federated import cohort as cohort_mod
from repro.federated.backend import EvaluateTask, PublicLogitsTask
from repro.models import ModelSpec, build_model


def _data():
    config = SyntheticImageConfig(name="evalfusion-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=41, noise_level=0.2,
                                  max_shift=1, modes_per_class=1,
                                  background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(96, seed=1), generator.sample(40, seed=2)


def _public():
    config = SyntheticImageConfig(name="evalfusion-public", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=43, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(40, seed=5)


def _config(fusion, rounds=2):
    return FederatedConfig(
        num_devices=4, rounds=rounds, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=11,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
        scheduler=SchedulerConfig(),
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


def _run(algorithm, fusion, backend_spec=None):
    """Full run -> (canonical history, post-run device RNG states)."""
    train, test = _data()
    config = _config(fusion)
    backend = make_backend(backend_spec) if backend_spec else None
    if algorithm == "fedavg":
        builder = build_fedavg(train, test, config, model_spec=_CNN_SPEC,
                               backend=backend)
    elif algorithm == "fedmd":
        models = _homogeneous_models(config, train.input_shape, train.num_classes)
        builder = build_fedmd(train, test, _public(), config,
                              device_models=models, backend=backend)
    elif algorithm == "fedzkt":
        models = _homogeneous_models(config, train.input_shape, train.num_classes)
        builder = build_fedzkt(train, test, config, device_models=models,
                               backend=backend)
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(algorithm)
    try:
        with builder as simulation:
            history = simulation.run()
            rng_states = [json.dumps(device._rng.bit_generator.state,
                                     default=int, sort_keys=True)
                          for device in simulation.devices]
    finally:
        if backend is not None:
            backend.shutdown()
    return _canonical(history), rng_states


class TestFusedEvalMatchesSerial:
    """History + post-run RNG bit-parity, per algorithm x backend."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedmd", "fedzkt"])
    def test_serial_backend(self, algorithm):
        baseline, base_rng = _run(algorithm, fusion=False)
        fused, fused_rng = _run(algorithm, fusion=True)
        assert baseline == fused
        assert base_rng == fused_rng

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedmd", "fedzkt"])
    def test_process_backend(self, algorithm):
        baseline, base_rng = _run(algorithm, fusion=False)
        fused, fused_rng = _run(algorithm, fusion=True, backend_spec="process:2")
        assert baseline == fused
        assert base_rng == fused_rng

    def test_fedmd_digest_losses_survive_fusion(self):
        # The digest-phase per-device losses ride in the history payload;
        # pull them out explicitly so a digest regression names itself
        # instead of hiding in a whole-history diff.
        baseline, _ = _run("fedmd", fusion=False)
        fused, _ = _run("fedmd", fusion=True)
        base_rounds = json.loads(baseline)["rounds"]
        fused_rounds = json.loads(fused)["rounds"]
        assert base_rounds == fused_rounds


class TestFusionFires:
    """Homogeneous cohorts must actually take the fused eval path."""

    def _count_runs(self, monkeypatch, task_cls):
        calls = {"count": 0}
        original = task_cls.run

        def counting_run(self, context):
            calls["count"] += 1
            return original(self, context)

        monkeypatch.setattr(task_cls, "run", counting_run)
        return calls

    def test_homogeneous_fedzkt_eval_sweep_fuses(self, monkeypatch):
        calls = self._count_runs(monkeypatch, cohort_mod.FusedEvaluateTask)
        _run("fedzkt", fusion=True)
        assert calls["count"] > 0

    def test_sync_fedavg_ships_no_device_evaluation(self, monkeypatch):
        evaluations = self._count_runs(monkeypatch, EvaluateTask)
        fused = self._count_runs(monkeypatch, cohort_mod.FusedEvaluateTask)
        _run("fedavg", fusion=True)
        assert evaluations["count"] == 0
        assert fused["count"] == 0

    def test_fedmd_logit_sweep_fuses(self, monkeypatch):
        calls = self._count_runs(monkeypatch, cohort_mod.FusedPublicLogitsTask)
        _run("fedmd", fusion=True)
        assert calls["count"] > 0

    def test_unfused_run_never_builds_fused_eval_tasks(self, monkeypatch):
        calls = self._count_runs(monkeypatch, cohort_mod.FusedEvaluateTask)
        _run("fedavg", fusion=False)
        assert calls["count"] == 0


class TestTiledRuns:
    """Whole runs with the cohort's tiles forced narrow: four tiles of one,
    and 3 + 1 with an uneven tail.  Bits must hold."""

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("algorithm", ["fedmd", "fedzkt"])
    def test_fused_run_bit_identical(self, algorithm, width, force_tile_width):
        baseline, base_rng = _run(algorithm, fusion=False)
        force_tile_width(width)
        tiled, tiled_rng = _run(algorithm, fusion=True)
        assert baseline == tiled
        assert base_rng == tiled_rng


class TestTiledForwardTasks:
    """Cohort of eight: the fused no-grad tasks return the same bytes at
    forced tile widths 1, 2, 3 (3 + 3 + 2) and 8, and the per-device ones."""

    @staticmethod
    def _cnn(seed):
        return build_model(_CNN_SPEC, (3, 8, 8), 4, seed=seed)

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_evaluation_and_public_logits(self, width, cohort_context, force_tile_width):
        context = cohort_context(self._cnn, [4] * 8)
        ids = sorted(context.models)
        states = [context.models[index].state_dict() for index in ids]
        # batch_size 20 over 48 / 40 samples: full chunks and a short tail.
        accuracies = [EvaluateTask(index, state, batch_size=20).run(context)
                      for index, state in zip(ids, states)]
        logits = [PublicLogitsTask(index, state, batch_size=20).run(context)
                  for index, state in zip(ids, states)]

        force_tile_width(width)
        assert cohort_mod.FusedEvaluateTask(ids, states, 20).run(context) == accuracies
        fused = cohort_mod.FusedPublicLogitsTask(ids, states, 20).run(context)
        for ours, theirs in zip(fused, logits):
            np.testing.assert_array_equal(ours, theirs)
