"""Backend parity: serial and process-pool execution produce identical histories.

The execution-backend contract (ISSUE 1) is that device tasks carry exact
parameter and RNG state, so fanning local training out across worker
processes must be a pure performance optimization — every per-round metric
(global accuracy, per-device accuracies, local losses) must match the
serial run bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    ProcessPoolBackend,
    SerialBackend,
    ServerConfig,
    make_backend,
)
from repro.models import ModelSpec


def _data(samples_train=160, samples_test=60):
    config = SyntheticImageConfig(name="parity-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=21, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(samples_train, seed=1), generator.sample(samples_test, seed=2)


def _public():
    config = SyntheticImageConfig(name="parity-public", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=77, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(60, seed=5)


def _config(participation=1.0):
    # 2 rounds, 4 devices: the workload the parity acceptance criterion names.
    return FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        participation_fraction=participation,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
    )


def _build(algorithm, backend, participation=1.0):
    train, test = _data()
    config = _config(participation)
    if algorithm == "fedzkt":
        return build_fedzkt(train, test, config, family="small", backend=backend)
    if algorithm == "fedavg":
        return build_fedavg(train, test, config,
                            model_spec=ModelSpec("cnn", {"channels": (4, 8),
                                                         "hidden_size": 16}),
                            backend=backend)
    if algorithm == "fedmd":
        return build_fedmd(train, test, _public(), config, family="small", backend=backend)
    raise ValueError(algorithm)


def _run(algorithm, backend):
    # The simulation only owns (and closes) internally-created backends, so
    # the explicitly-passed pool is released with its own context manager.
    with backend:
        with _build(algorithm, backend) as simulation:
            return simulation.run()


@pytest.mark.parametrize("algorithm", ["fedzkt", "fedavg", "fedmd"])
def test_serial_and_process_backends_produce_identical_histories(algorithm):
    serial = _run(algorithm, SerialBackend())
    parallel = _run(algorithm, ProcessPoolBackend(max_workers=2))

    assert len(serial) == len(parallel) == 2
    for record_s, record_p in zip(serial.records, parallel.records):
        assert record_s.active_devices == record_p.active_devices
        assert record_s.global_accuracy == record_p.global_accuracy
        assert record_s.local_loss == record_p.local_loss
        assert set(record_s.device_accuracies) == set(record_p.device_accuracies)
        for device_id, accuracy in record_s.device_accuracies.items():
            assert accuracy == record_p.device_accuracies[device_id]
        if algorithm == "fedmd":
            assert (record_s.server_metrics["digest_loss"]
                    == record_p.server_metrics["digest_loss"])


# --------------------------------------------------------------------------- #
# Scheduler parity: the SynchronousScheduler must replay the pre-refactor
# monolithic round loop bit for bit (ISSUE 2 acceptance criterion).  The
# reference implementations below are verbatim transcriptions of the loops
# that used to live inside FederatedSimulation.run_round and
# FedMDSimulation.run_round/run before the scheduler layer existed.
# --------------------------------------------------------------------------- #
def _reference_parameter_round(simulation, round_index):
    """The pre-scheduler FederatedSimulation.run_round (FedZKT/FedAvg)."""
    simulation.ensure_backend()
    active = simulation.sampler.sample(round_index, len(simulation.devices))

    tasks = [simulation.devices[device_id].local_train_task(simulation.config.local_epochs)
             for device_id in active]
    results = simulation.backend.run_tasks(tasks)
    local_losses = []
    for result in results:
        device = simulation.devices[result.device_id]
        report = device.absorb_training_result(result)
        local_losses.append(report.mean_loss)
        simulation.server.collect(device.device_id, device.send_parameters())

    simulation.server.aggregate(round_index, active)
    for device in simulation.devices:
        payload = simulation.server.payload_for(device.device_id)
        if payload is not None:
            device.receive_parameters(payload)
    simulation.server.finish_round()

    record = {"active": list(active),
              "local_loss": float(np.mean(local_losses)) if local_losses else None,
              "global_accuracy": simulation.server.evaluate_global(simulation.test_dataset)}
    eval_tasks = [device.evaluate_task() for device in simulation.devices]
    accuracies = simulation.backend.run_tasks(eval_tasks)
    record["device_accuracies"] = {
        device.device_id: accuracy
        for device, accuracy in zip(simulation.devices, accuracies)
    }
    return record


def _reference_fedmd_run(simulation, total_rounds):
    """The pre-scheduler FedMDSimulation.run (warm-up + consensus rounds)."""
    from repro.federated.backend import DigestSpec, PublicLogitsTask

    simulation.ensure_backend()
    warmup = [device.local_train_task(simulation.config.local_epochs)
              for device in simulation.devices]
    for result in simulation.backend.run_tasks(warmup):
        simulation.devices[result.device_id].absorb_training_result(result)

    records = []
    for round_index in range(1, total_rounds + 1):
        active = simulation.sampler.sample(round_index, len(simulation.devices))
        logit_tasks = [PublicLogitsTask(device_id=device_id,
                                        state=simulation.devices[device_id].model.state_dict())
                       for device_id in active]
        uploaded = simulation.backend.run_tasks(logit_tasks)
        consensus = np.mean(np.stack(uploaded, axis=0), axis=0)

        train_tasks = []
        for device_id in active:
            task = simulation.devices[device_id].local_train_task(simulation.config.local_epochs)
            task.digest = DigestSpec(consensus=consensus, epochs=simulation.digest_epochs,
                                     lr=simulation.config.server.device_distill_lr,
                                     batch_size=simulation.config.batch_size,
                                     seed=simulation._digest_seed(device_id))
            train_tasks.append(task)
        results = simulation.backend.run_tasks(train_tasks)

        digest_losses, revisit_losses = [], []
        for result in results:
            device = simulation.devices[result.device_id]
            report = device.absorb_training_result(result)
            digest_losses.append(result.digest_loss if result.digest_loss is not None else 0.0)
            revisit_losses.append(report.mean_loss)

        record = {"active": list(active),
                  "local_loss": float(np.mean(revisit_losses)) if revisit_losses else None,
                  "digest_loss": float(np.mean(digest_losses)) if digest_losses else 0.0}
        eval_tasks = [device.evaluate_task() for device in simulation.devices]
        accuracies = simulation.backend.run_tasks(eval_tasks)
        record["device_accuracies"] = {
            device.device_id: accuracy
            for device, accuracy in zip(simulation.devices, accuracies)
        }
        records.append(record)
    return records


@pytest.mark.parametrize("participation", [1.0, 0.5])
@pytest.mark.parametrize("algorithm", ["fedzkt", "fedavg"])
def test_synchronous_scheduler_matches_pre_refactor_loop(algorithm, participation):
    with _build(algorithm, SerialBackend(), participation) as scheduled:
        history = scheduled.run()

    reference_sim = _build(algorithm, SerialBackend(), participation)
    with reference_sim:
        reference = [_reference_parameter_round(reference_sim, round_index)
                     for round_index in (1, 2)]

    assert len(history) == len(reference) == 2
    for record, expected in zip(history.records, reference):
        assert record.active_devices == expected["active"]
        assert record.local_loss == expected["local_loss"]
        assert record.global_accuracy == expected["global_accuracy"]
        assert record.device_accuracies == expected["device_accuracies"]


def test_synchronous_scheduler_matches_pre_refactor_fedmd_loop():
    with _build("fedmd", SerialBackend()) as scheduled:
        history = scheduled.run()

    reference_sim = _build("fedmd", SerialBackend())
    with reference_sim:
        reference = _reference_fedmd_run(reference_sim, total_rounds=2)

    assert len(history) == len(reference) == 2
    for record, expected in zip(history.records, reference):
        assert record.active_devices == expected["active"]
        assert record.local_loss == expected["local_loss"]
        assert record.server_metrics["digest_loss"] == expected["digest_loss"]
        assert record.device_accuracies == expected["device_accuracies"]


def test_task_dispatch_matches_direct_local_train(tiny_rgb_dataset):
    """Dispatching a LocalTrainTask and absorbing its result is equivalent to
    calling Device.local_train in place (same parameters, same RNG stream)."""
    from repro.federated import Device, WorkerContext
    from repro.models import SimpleCNN

    def make_device():
        model = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                          channels=(4, 8), hidden_size=16, seed=0)
        return Device(device_id=0, model=model, dataset=tiny_rgb_dataset, lr=0.05,
                      momentum=0.9, batch_size=16, seed=7)

    direct = make_device()
    report_direct = direct.local_train(epochs=2)

    dispatched = make_device()
    backend = SerialBackend()
    backend.start(WorkerContext(models={0: dispatched.model},
                                shards={0: dispatched.dataset},
                                train_configs={0: dispatched.training_config}))
    (result,) = backend.run_tasks([dispatched.local_train_task(epochs=2)])
    report_task = dispatched.absorb_training_result(result)

    assert report_task.mean_loss == report_direct.mean_loss
    assert report_task.final_loss == report_direct.final_loss
    assert report_task.batches == report_direct.batches
    for param_a, param_b in zip(direct.model.parameters(), dispatched.model.parameters()):
        np.testing.assert_array_equal(param_a.data, param_b.data)
    # The RNG stream advanced identically: a further epoch still matches.
    follow_direct = direct.local_train(epochs=1)
    follow_task = dispatched.local_train(epochs=1)
    assert follow_direct.mean_loss == follow_task.mean_loss


def test_make_backend_specs():
    assert isinstance(make_backend(None), SerialBackend)
    assert isinstance(make_backend("serial"), SerialBackend)
    backend = make_backend("process:3")
    assert isinstance(backend, ProcessPoolBackend) and backend.max_workers == 3
    with pytest.raises(ValueError):
        make_backend("threads")
    with pytest.raises(ValueError):
        make_backend("process:0")


class _Unpicklable(Exception):
    """An exception that cannot cross a process boundary (holds a lambda)."""

    def __init__(self):
        super().__init__("cannot be pickled")
        self.hook = lambda: None


def _raise_value_error(item):
    raise ValueError(f"bad item {item}")


def _raise_unpicklable(item):
    raise _Unpicklable()


class TestProcessBackendIsTheNetStack:
    """``process:N`` is ``repro.net`` over loopback: no second transport."""

    def test_spec_builds_a_loopback_remote_backend(self):
        from repro.net import DriverChannel, RemoteBackend

        backend = make_backend("process:2")
        assert isinstance(backend, RemoteBackend)
        assert backend.name == "process" and backend.host == "127.0.0.1"
        assert backend.bind_port == 0 and backend.workers == 2
        with backend:
            backend.start(None)
            assert backend.port != 0
            # The driver side of the one cross-process channel there is.
            assert isinstance(backend.state_store.channel, DriverChannel)
            assert backend.map(abs, [-1, 2]) == [1, 2]

    def test_manager_path_is_gone(self):
        import repro.federated.backend as module

        for name in ("_StateService", "_StateManager", "_ManagedChannel",
                     "_init_worker", "_execute_shipped"):
            assert not hasattr(module, name)

    @pytest.mark.parametrize("spec", ["process:1", "tcp://:0?workers=1"])
    def test_workers_are_forked_from_the_driver(self, spec):
        # A function defined in this test module resolves by name in a worker
        # only because the worker is a fork of a process that imported it.
        backend = make_backend(spec)
        with backend:
            backend.start(None)
            with pytest.raises(ValueError, match="bad item 3") as raised:
                backend.map(_raise_value_error, [3])
            assert "Traceback" in str(raised.value.__cause__)

    def test_unpicklable_task_error_still_raises_with_its_traceback(self):
        from repro.net import RemoteTaskError

        backend = make_backend("process:1")
        with backend:
            backend.start(None)
            with pytest.raises(RemoteTaskError, match="_Unpicklable"):
                backend.map(_raise_unpicklable, [0])
            assert backend.map(abs, [-5]) == [5]  # the worker keeps serving


def test_serial_backend_requires_context_for_device_tasks(tiny_rgb_dataset):
    from repro.federated import Device
    from repro.models import SimpleCNN

    model = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                      channels=(4,), hidden_size=8, seed=0)
    device = Device(device_id=0, model=model, dataset=tiny_rgb_dataset)
    backend = SerialBackend()
    with pytest.raises(RuntimeError):
        backend.run_tasks([device.local_train_task(1)])
