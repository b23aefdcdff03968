"""The tcp:// backend end to end: bit-identical parity with serial execution,
worker-disconnect recovery, result-path refs, and spec parsing.

These tests bind real localhost sockets and run real worker daemons — forked
from the test process at start-up, ``python -m repro.net.worker`` when
respawned or started externally — which is exactly what the ``net`` marker
exists for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.baselines import build_fedavg, build_fedmd
from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    SerialBackend,
    ServerConfig,
    WorkerContext,
    make_backend,
)
from repro.federated.backend import EvaluateTask
from repro.models import ModelSpec
from repro.net import RemoteBackend, RemoteTaskError

pytestmark = pytest.mark.net


# --------------------------------------------------------------------------- #
# Parity harness (mirrors tests/federated/test_backend_parity.py)
# --------------------------------------------------------------------------- #
def _data(samples_train=120, samples_test=48):
    config = SyntheticImageConfig(name="tcp-parity-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=21, noise_level=0.2,
                                  max_shift=1, modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(samples_train, seed=1), generator.sample(samples_test, seed=2)


def _public():
    config = SyntheticImageConfig(name="tcp-parity-public", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=77, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(48, seed=5)


def _config():
    return FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
    )


def _build(algorithm, backend):
    train, test = _data()
    config = _config()
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
    with backend:
        with _build(algorithm, backend) as simulation:
            return simulation.run()


def _assert_identical(serial, remote, algorithm):
    assert len(serial) == len(remote) == 2
    for record_s, record_r in zip(serial.records, remote.records):
        assert record_s.active_devices == record_r.active_devices
        assert record_s.global_accuracy == record_r.global_accuracy
        assert record_s.local_loss == record_r.local_loss
        assert record_s.device_accuracies == record_r.device_accuracies
        if algorithm == "fedmd":
            assert (record_s.server_metrics["digest_loss"]
                    == record_r.server_metrics["digest_loss"])


def _wait_for(predicate, timeout=60.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# --------------------------------------------------------------------------- #
# Bit-identical parity (the house invariant)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["fedzkt", "fedavg", "fedmd"])
def test_tcp_backend_matches_serial_bit_for_bit(algorithm):
    serial = _run(algorithm, SerialBackend())
    remote = _run(algorithm, make_backend("tcp://:0?workers=2"))
    _assert_identical(serial, remote, algorithm)


def test_result_path_refs_stay_bit_identical():
    serial = _run("fedavg", SerialBackend())
    backend = make_backend("tcp://:0?workers=2&refs=1")  # every result state comes back as a ref
    with backend:
        with _build("fedavg", backend) as simulation:
            remote = simulation.run()
        stats = backend.transport_stats()
    _assert_identical(serial, remote, "fedavg")
    assert stats["result_refs_resolved"] > 0
    assert stats["uploaded_bytes"] > 0


def test_delta_publishes_cut_steady_state_bytes():
    """Round 2 republishes mostly-unchanged teacher/device states: the delta
    channel must publish far fewer bytes than round 1's cold publish."""
    backend = make_backend("tcp://:0?workers=2")
    with backend:
        with _build("fedzkt", backend) as simulation:
            simulation.run(rounds=1)
            round1 = backend.transport_stats()["published_bytes"]
            simulation.run_round(2)
            round2 = backend.transport_stats()["published_bytes"] - round1
    assert round1 > 0
    # Device states all change between rounds, but consensus/teacher reuse
    # plus content dedup keeps steady-state publishes below the cold round.
    assert round2 < round1


# --------------------------------------------------------------------------- #
# Failure handling
# --------------------------------------------------------------------------- #
def test_killed_worker_mid_round_is_requeued_not_hung():
    backend = RemoteBackend(workers=2, max_worker_restarts=0)
    backend.start(None)
    try:
        _wait_for(lambda: backend._server.counter_snapshot()["workers_connected"] == 2,
                  message="both spawned workers to connect")
        outcome = {}

        def run_batch():
            outcome["results"] = backend.map(time.sleep, [1.0] * 6)

        thread = threading.Thread(target=run_batch, daemon=True)
        thread.start()
        # Wait until the round is demonstrably in flight, then kill one
        # worker while it is certainly mid-task (tasks sleep 1s; a worker
        # that just delivered re-leases within milliseconds).
        _wait_for(lambda: backend._server.counter_snapshot()["results_received"] >= 1,
                  message="first result to arrive")
        time.sleep(0.4)
        backend._procs[0].kill()

        thread.join(timeout=60.0)
        assert not thread.is_alive(), "round hung after killing a worker"
        assert outcome["results"] == [None] * 6
        stats = backend.transport_stats()
        assert stats["worker_disconnects"] >= 1
        assert stats["tasks_requeued"] >= 1
        assert stats["worker_restarts"] == 0  # recovery came from requeue alone
    finally:
        backend.shutdown()


def _started_by_exec(_):
    """True in a worker exec'd as ``python -m repro.net.worker --connect ...``,
    False in one forked from the test process."""
    return "--connect" in sys.argv


def test_dead_spawned_workers_are_respawned(monkeypatch):
    # The exec'd replacement imports this module by name to run the probe.
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(Path(__file__).parent), os.environ.get("PYTHONPATH")])))
    backend = RemoteBackend(workers=1, max_worker_restarts=2)
    backend.start(None)
    try:
        assert backend.map(_started_by_exec, [0]) == [False]
        outcome = {}

        def run_batch():
            outcome["results"] = backend.map(time.sleep, [0.8] * 3)

        thread = threading.Thread(target=run_batch, daemon=True)
        thread.start()
        _wait_for(lambda: backend._server.counter_snapshot()["results_received"] >= 2,
                  message="first sleep to return")
        time.sleep(0.3)
        backend._procs[0].kill()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "round hung after the only worker died"
        assert outcome["results"] == [None] * 3
        assert backend.worker_restarts >= 1
        assert backend.map(_started_by_exec, [0]) == [True]
    finally:
        backend.shutdown()


def test_forked_workers_get_the_backend_settings(monkeypatch, tmp_path):
    # Patched before the fork, so the child runs this stand-in and records
    # the keyword arguments it was handed.
    record = tmp_path / "run_worker.json"

    def run_worker(host, port, **kwargs):
        record.write_text(json.dumps(kwargs))
        return 0

    monkeypatch.setattr("repro.net.worker.run_worker", run_worker)
    backend = RemoteBackend(workers=1, cache_bytes=12345, worker_patience=2.5,
                            secret="settings-token", max_worker_restarts=0)
    backend.start(None)
    try:
        assert backend._procs[0].wait(timeout=30.0) == 0
    finally:
        backend.shutdown()
    kwargs = json.loads(record.read_text())
    assert kwargs["patience"] == 2.5
    assert kwargs["cache_bytes"] == 12345
    assert kwargs["secret"] == "settings-token"


def test_remote_task_failure_raises_with_worker_traceback():
    backend = RemoteBackend(workers=1)
    backend.start(WorkerContext())  # no eval dataset: EvaluateTask must fail
    try:
        # The worker's own exception type, chained to its traceback.
        with pytest.raises(RuntimeError, match="eval dataset") as raised:
            backend.run_tasks([EvaluateTask(device_id=0, state={})])
        assert type(raised.value) is RuntimeError
        cause = raised.value.__cause__
        assert isinstance(cause, RemoteTaskError)
        assert "Traceback" in str(cause) and "eval dataset" in str(cause)
        # The worker survives a task failure and keeps serving.
        assert backend.map(abs, [-3, 5, -7]) == [3, 5, 7]
    finally:
        backend.shutdown()


# --------------------------------------------------------------------------- #
# External workers (the `repro worker --connect` path)
# --------------------------------------------------------------------------- #
def test_externally_started_worker_daemon_serves_tasks():
    import repro

    backend = RemoteBackend(workers=0)
    backend.start(None)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.worker",
         "--connect", f"127.0.0.1:{backend.port}", "--quiet"], env=env)
    try:
        assert backend.map(abs, [-1, -2, -3]) == [1, 2, 3]
    finally:
        backend.shutdown()
        assert proc.wait(timeout=10.0) == 0  # clean exit on driver shutdown


# --------------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------------- #
def test_tcp_spec_parsing():
    backend = make_backend("tcp://:0?workers=2&refs=5&cache=4096")
    assert isinstance(backend, RemoteBackend)
    assert backend.workers == 2
    assert backend.result_ref_threshold == 5 and backend.cache_bytes == 4096

    backend = make_backend("tcp://0.0.0.0:7001")
    assert backend.host == "0.0.0.0" and backend.bind_port == 7001
    assert backend.workers == 0

    assert make_backend("tcp://:0", max_workers=3).workers == 3

    with pytest.raises(ValueError, match="port is required"):
        make_backend("tcp://localhost")
    with pytest.raises(ValueError, match="unknown option"):
        make_backend("tcp://:0?bogus=1")
    with pytest.raises(ValueError, match="workers"):
        make_backend("tcp://:0?workers=-1")
    # Whole-blob publishes are gone (1.12): the key is no longer an option.
    with pytest.raises(ValueError, match="unknown option.*delta"):
        make_backend("tcp://:0?delta=0")
