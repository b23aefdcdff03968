"""The tcp:// backend end to end: steady-state publishes, worker-disconnect
recovery, respawns, external workers, and spec parsing.  Whole runs on
``tcp://`` replay their serial history in
``tests/integration/test_parity_matrix.py``.

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

import numpy as np
import pytest

from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import FederatedConfig, ServerConfig, WorkerContext, make_backend
from repro.federated.backend import EvaluateTask
from repro.net import RemoteBackend, RemoteTaskError

pytestmark = pytest.mark.net


def _fedzkt(backend):
    config = SyntheticImageConfig(name="tcp-parity-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=21, noise_level=0.2,
                                  max_shift=1, modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    federated = FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02))
    return build_fedzkt(generator.sample(120, seed=1), generator.sample(48, seed=2),
                        federated, family="small", backend=backend)


def _wait_for(predicate, timeout=60.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# --------------------------------------------------------------------------- #
# Transport
# --------------------------------------------------------------------------- #
def test_steady_state_round_publishes_less_than_cold():
    """Round 2 publishes fewer bytes than round 1's cold publish: the
    ``StateStore`` dedupes whole states, so a state whose content digest is
    already live is not published again."""
    backend = make_backend("tcp://:0?workers=2")
    with backend:
        with _fedzkt(backend) as simulation:
            simulation.run(rounds=1)
            round1 = backend.transport_stats()["published_bytes"]
            simulation.run_round(2)
            round2 = backend.transport_stats()["published_bytes"] - round1
    assert round1 > 0
    # Device states all change between rounds, but consensus/teacher reuse
    # plus content dedup keeps steady-state publishes below the cold round.
    assert round2 < round1


class _Result:
    """A result object carrying a state dict, as a training task's does."""

    def __init__(self, state) -> None:
        self.state = state


def _large_state(seed):
    """A 2 MiB float64 state dict."""
    rng = np.random.default_rng(seed)
    return {f"layer{index}.weight": rng.standard_normal(32 * 1024) for index in range(8)}


def _large_result(seed):
    return _Result(_large_state(seed))


def test_large_result_state_comes_back_inline(monkeypatch):
    backend = make_backend("tcp://:0?workers=1")
    backend.start(None)
    try:
        service = backend._service
        entries = service.stats()["entries"]
        put, puts = service.put, []

        def counted_put(key, *args, **kwargs):
            puts.append(key)
            return put(key, *args, **kwargs)

        monkeypatch.setattr(service, "put", counted_put)
        results = backend.map(_large_result, [0, 1])
        nbytes = sum(value.nbytes for result in results for value in result.state.values())
        assert nbytes == 2 * 2 * 1024 * 1024
        for seed, result in zip([0, 1], results):
            expected = _large_state(seed)
            assert list(result.state) == list(expected)
            for name, value in expected.items():
                np.testing.assert_array_equal(result.state[name], value)
        assert backend.transport_stats()["result_bytes"] >= nbytes
        assert puts == [] and service.stats()["entries"] == entries
    finally:
        backend.shutdown()


class _Resolve:
    """A context-free task whose only work is the ref its worker resolves."""

    context_free = True

    def __init__(self, payload) -> None:
        self.payload = payload

    def run(self, context):
        return len(self.payload)


def test_worker_cache_holds_two_rounds_of_fetches():
    """A worker keeps what it fetched in the current and the previous round
    and drops the rest — the driver's liveness rule, on a real worker, read
    off the driver's count of blob fetches."""
    backend = make_backend("tcp://:0?workers=1")
    with backend:
        backend.start(None)
        store = backend.state_store

        def fetches_after_resolving(round_index):
            store.advance_round(round_index)
            ref = store.put_arrays([np.arange(4.0)])
            assert backend.run_tasks([_Resolve(ref)]) == [1]
            return backend.transport_stats()["fetches"]

        assert fetches_after_resolving(1) == 1  # a miss
        assert fetches_after_resolving(2) == 1  # held through the next round
        assert fetches_after_resolving(3) == 1  # a hit re-stamps it
        assert fetches_after_resolving(5) == 2  # two rounds on, dropped


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


def test_a_task_raising_an_os_error_reraises_it_and_keeps_its_worker(tmp_path):
    """Only a task's wire traffic — its context and its refs — can lose the
    connection; an ``OSError`` the task itself raises is its own error,
    re-raised as such, and the worker keeps serving.  Taken for a lost
    connection, it killed the worker and every respawn until the restart
    budget ran out."""
    backend = make_backend("tcp://:0?workers=1")
    with backend:
        backend.start(None)
        with pytest.raises(FileNotFoundError) as raised:
            backend.map(open, [str(tmp_path / "missing")])
        assert isinstance(raised.value.__cause__, RemoteTaskError)
        assert backend.worker_restarts == 0
        assert backend.map(abs, [-4]) == [4]


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
    backend = make_backend("tcp://:0?workers=2&cache=4096")
    assert isinstance(backend, RemoteBackend)
    assert backend.workers == 2 and backend.cache_bytes == 4096

    backend = make_backend("tcp://0.0.0.0:7001")
    assert backend.host == "0.0.0.0" and backend.bind_port == 7001
    assert backend.workers == 0

    assert make_backend("tcp://:0", max_workers=3).workers == 3

    with pytest.raises(ValueError, match="port is required"):
        make_backend("tcp://localhost")
    with pytest.raises(ValueError, match="unknown option"):
        make_backend("tcp://:0?bogus=1")
    with pytest.raises(ValueError, match=r"unknown option\(s\) refs"):
        make_backend("tcp://:0?workers=2&refs=5&cache=4096")
    with pytest.raises(ValueError, match="workers"):
        make_backend("tcp://:0?workers=-1")
    # Whole-blob publishes are gone (1.12): the key is no longer an option.
    with pytest.raises(ValueError, match="unknown option.*delta"):
        make_backend("tcp://:0?delta=0")
