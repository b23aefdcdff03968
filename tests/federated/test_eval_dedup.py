"""Each distinct model is evaluated once per round, and the result is exact.

``Simulation.evaluate_round`` keys every device evaluation by
``(fusion signature, state digest, batch size)``.  The round's table starts
with the global model's result and takes over the previous round's entries,
so a FedAvg broadcast (every device holds the global state) ships no device
evaluation, and a device the deadline scheduler left untouched is not
re-run.  Evaluation draws no RNG and equal keys give equal bits, so the
dedup must be invisible: the differential grid below replays every run
against the evaluate-everything loop kept here as the oracle.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    Device,
    FederatedConfig,
    HeterogeneityConfig,
    SchedulerConfig,
    ServerConfig,
    SerialBackend,
    Simulation,
    Strategy,
    make_backend,
)
from repro.federated.backend import EvaluateTask
from repro.federated.trainer import evaluate_accuracy
from repro.models import ModelSpec, SimpleCNN, build_model

_CNN_SPEC = ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16})
_ROUNDS = 3


def _data():
    config = SyntheticImageConfig(name="evaldedup-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=51, noise_level=0.2,
                                  max_shift=1, modes_per_class=1,
                                  background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(96, seed=1), generator.sample(40, seed=2)


def _public():
    config = SyntheticImageConfig(name="evaldedup-public", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=53, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(40, seed=5)


def _config(scheduler, fusion):
    return FederatedConfig(
        num_devices=4, rounds=_ROUNDS, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=13,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
        scheduler=SchedulerConfig(kind=scheduler, deadline=1.5),
        heterogeneity=HeterogeneityConfig(speed_skew=4.0),
        cohort_fusion=fusion,
    )


def _evaluate_everything(self, record):
    """The evaluate-everything loop the dedup replaced: the oracle."""
    store = self.state_store
    tasks = [device.evaluate_task(store=store) for device in self.devices]
    for device, accuracy in zip(self.devices, self.run_device_tasks(tasks)):
        record.device_accuracies[device.device_id] = accuracy


def _count_evaluations(monkeypatch):
    """Count the device evaluations handed to the fusion seam."""
    counted = {"count": 0}
    original = Simulation.run_device_tasks

    def counting(self, tasks):
        counted["count"] += sum(isinstance(task, EvaluateTask) for task in tasks)
        return original(self, tasks)

    monkeypatch.setattr(Simulation, "run_device_tasks", counting)
    return counted


def _run(algorithm, scheduler, fusion, backend_spec):
    """Full run -> (history JSON, global accuracies, device accuracies, RNG states)."""
    train, test = _data()
    config = _config(scheduler, fusion)
    backend = make_backend(backend_spec)
    models = [build_model(_CNN_SPEC, train.input_shape, train.num_classes,
                          seed=config.seed + index) for index in range(config.num_devices)]
    if algorithm == "fedavg":
        builder = build_fedavg(train, test, config, model_spec=_CNN_SPEC, backend=backend)
    elif algorithm == "fedmd":
        builder = build_fedmd(train, test, _public(), config, device_models=models,
                              backend=backend)
    else:
        builder = build_fedzkt(train, test, config, device_models=models, backend=backend)
    try:
        with builder as simulation:
            history = simulation.run()
            rng_states = [json.dumps(device._rng.bit_generator.state, default=int,
                                     sort_keys=True) for device in simulation.devices]
    finally:
        backend.shutdown()
    return (json.dumps(history.to_dict(), default=float, sort_keys=True),
            [record.global_accuracy for record in history],
            [record.device_accuracies for record in history],
            rng_states)


_GRID = [(algorithm, scheduler, fusion, backend)
         for algorithm in ("fedavg", "fedmd", "fedzkt")
         for scheduler in ("sync", "deadline")
         for fusion in (False, True)
         for backend in ("serial", "process:2")]


class TestDedupMatchesEvaluateEverything:
    """algorithm x scheduler x fusion x backend, against the oracle loop."""

    @pytest.mark.parametrize("algorithm,scheduler,fusion,backend", _GRID)
    def test_bit_equal_to_oracle(self, algorithm, scheduler, fusion, backend, monkeypatch):
        counted = _count_evaluations(monkeypatch)
        deduped = _run(algorithm, scheduler, fusion, backend)
        dedup_tasks = counted["count"]

        counted["count"] = 0
        monkeypatch.setattr(Simulation, "_evaluate_devices", _evaluate_everything)
        oracle = _run(algorithm, scheduler, fusion, backend)
        oracle_tasks = counted["count"]

        history, global_accuracy, device_accuracies, rng_states = deduped
        assert device_accuracies == oracle[2]
        assert global_accuracy == oracle[1]
        assert history == oracle[0]
        assert rng_states == oracle[3]

        records = len(json.loads(history)["rounds"])
        assert oracle_tasks == 4 * records
        if scheduler == "deadline":
            # Late devices keep last round's state: their results carry over.
            assert 0 < dedup_tasks < oracle_tasks
        elif algorithm == "fedavg":
            # Every device holds the broadcast global, already evaluated.
            assert dedup_tasks == 0
        else:
            # FedMD and FedZKT move every device to a state of its own each
            # round (FedZKT's global model has an architecture of its own).
            assert dedup_tasks == oracle_tasks


# --------------------------------------------------------------------------- #
# The key
# --------------------------------------------------------------------------- #
class _RenamedCNN(SimpleCNN):
    """A ``SimpleCNN`` under another name: equal state dict, other signature."""


class _StorelessBackend(SerialBackend):
    """An in-process backend without a state store: tasks carry inline states."""

    def __init__(self) -> None:
        super().__init__()
        self.state_store = None


def _device(device_id, dataset, model_cls=SimpleCNN, model_seed=0, eval_batch_size=256):
    model = model_cls(dataset.input_shape, dataset.num_classes, channels=(4, 8),
                      hidden_size=16, seed=model_seed)
    return Device(device_id=device_id, model=model, dataset=dataset,
                  eval_batch_size=eval_batch_size, seed=device_id)


def _engine(devices, test, backend=None):
    config = FederatedConfig(num_devices=len(devices), rounds=1, seed=0)
    simulation = Simulation(devices, config, test, Strategy(),
                            backend=backend or SerialBackend())
    simulation.ensure_backend()
    return simulation


@pytest.fixture
def eval_runs(monkeypatch):
    counted = {"count": 0}
    original = EvaluateTask.run

    def counting(self, context):
        counted["count"] += 1
        return original(self, context)

    monkeypatch.setattr(EvaluateTask, "run", counting)
    return counted


class TestEvaluationKey:

    def test_equal_states_share_one_evaluation(self, eval_runs):
        train, test = _data()
        simulation = _engine([_device(0, train), _device(1, train)], test)
        record = simulation.evaluate_round(0, [], [])
        assert eval_runs["count"] == 1
        assert record.device_accuracies[0] == record.device_accuracies[1]

    def test_batch_size_is_part_of_the_key(self, eval_runs):
        train, test = _data()
        devices = [_device(0, train, eval_batch_size=16),
                   _device(1, train, eval_batch_size=32)]
        _engine(devices, test).evaluate_round(0, [], [])
        assert eval_runs["count"] == 2

    def test_fusion_signature_is_part_of_the_key(self, eval_runs):
        train, test = _data()
        devices = [_device(0, train), _device(1, train, model_cls=_RenamedCNN)]
        left, right = (device.model.state_dict() for device in devices)
        assert left.keys() == right.keys()
        assert all(np.array_equal(left[name], right[name]) for name in left)
        _engine(devices, test).evaluate_round(0, [], [])
        assert eval_runs["count"] == 2

    def test_inline_states_are_never_merged(self, eval_runs):
        train, test = _data()
        simulation = _engine([_device(0, train), _device(1, train)], test,
                             backend=_StorelessBackend())
        simulation.evaluate_round(0, [], [])
        simulation.evaluate_round(1, [], [])
        assert eval_runs["count"] == 4

    def test_changed_state_reruns_and_unchanged_state_carries(self, eval_runs):
        train, test = _data()
        devices = [_device(0, train, model_seed=0), _device(1, train, model_seed=1)]
        simulation = _engine(devices, test)
        simulation.evaluate_round(0, [], [])
        assert eval_runs["count"] == 2

        state = devices[0].model.state_dict()
        devices[0].model.load_state_dict(
            {name: value * 0.5 if value.dtype.kind == "f" else value
             for name, value in state.items()})
        record = simulation.evaluate_round(1, [], [])
        assert eval_runs["count"] == 3
        assert record.device_accuracies[0] == evaluate_accuracy(devices[0].model, test)
        assert record.device_accuracies[1] == evaluate_accuracy(devices[1].model, test)

        # A carried result is kept for as long as it keeps being hit.
        simulation.evaluate_round(2, [], [])
        simulation.evaluate_round(3, [], [])
        assert eval_runs["count"] == 3


class TestGlobalSeed:

    def _fedavg(self, test_override=None):
        train, test = _data()
        config = _config("sync", fusion=False)
        simulation = build_fedavg(train, test, config, model_spec=_CNN_SPEC)
        simulation.ensure_backend()
        if test_override is not None:
            simulation.test_dataset = test_override
        return simulation, test

    def test_broadcast_round_reuses_the_global_result(self, eval_runs):
        simulation, test = self._fedavg()
        with simulation:
            record = simulation.run_round(0)
            assert eval_runs["count"] == 0
            assert set(record.device_accuracies.values()) == {record.global_accuracy}

    def test_replaced_test_dataset_seeds_nothing(self, eval_runs):
        replacement = SyntheticImageGenerator(SyntheticImageConfig(
            name="evaldedup-other", num_classes=4, channels=3, height=8, width=8,
            family_seed=57)).sample(24, seed=3)
        simulation, test = self._fedavg(test_override=replacement)
        with simulation:
            record = simulation.run_round(0)
            # Devices still evaluate on the worker context's dataset, once
            # for the one broadcast state, never on the global's result.
            assert eval_runs["count"] == 1
            expected = evaluate_accuracy(simulation.server.global_model, test)
            assert set(record.device_accuracies.values()) == {expected}
