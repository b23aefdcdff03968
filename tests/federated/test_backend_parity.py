"""Execution backends: task dispatch, backend specs, and ``process:N``.

The execution-backend contract is that device tasks carry exact parameter
and RNG state, so fanning local training out across worker processes is a
pure performance optimization.  Whole-run histories on every backend are
compared in ``tests/integration/test_parity_matrix.py``; this module keeps
the mechanism tests: one dispatched task equals the in-place call, the spec
grammar, and ``process:N`` being the ``repro.net`` stack over loopback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import ProcessPoolBackend, SerialBackend, make_backend


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
    (result,) = backend.run_tasks([dispatched.local_train_task(2, backend.state_store)])
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


def test_serial_task_leaves_the_device_model_until_absorbed(tiny_rgb_dataset):
    """A serial task trains the runtime's own replica: the device's model —
    its parameter arrays, their values and its Dropout stream — moves only
    when the result is absorbed, as on a worker process."""
    from repro.federated import Device, WorkerContext
    from repro.models import SimpleCNN
    from repro.nn.layers import dropout_states

    model = SimpleCNN(tiny_rgb_dataset.input_shape, tiny_rgb_dataset.num_classes,
                      channels=(4, 8), hidden_size=16, dropout=0.25, seed=0)
    device = Device(device_id=0, model=model, dataset=tiny_rgb_dataset, lr=0.05,
                    momentum=0.9, batch_size=16, seed=7)
    backend = SerialBackend()
    backend.start(WorkerContext(models={0: model}, shards={0: device.dataset},
                                train_configs={0: device.training_config}))
    arrays = [param.data for param in model.parameters()]
    before = model.state_dict()
    streams = dropout_states(model)

    (result,) = backend.run_tasks([device.local_train_task(1, backend.state_store)])
    assert all(param.data is array for param, array in zip(model.parameters(), arrays))
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(value, before[key], err_msg=key)
    assert dropout_states(model) == streams
    assert all(param.grad is None for param in model.parameters())

    device.absorb_training_result(result)
    assert any(np.any(model.state_dict()[key] != before[key]) for key in before)
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(value, result.state[key], err_msg=key)
    assert dropout_states(model) == result.dropout_states != streams


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
        backend.run_tasks([device.local_train_task(1, backend.state_store)])
