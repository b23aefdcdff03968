"""Driver-side blob table and dispatcher: one frame per key, leases, requeue."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.net.server import BlobServer, DriverChannel, serve_in_thread
from repro.net.service import BlobService, Dispatcher
from repro.net.wire import Connection, pack_payload
from repro.net.worker import WorkerChannel

pytestmark = pytest.mark.net


def _state(seed: float = 0.0):
    return {
        "layer1.weight": np.arange(20, dtype=np.float64).reshape(4, 5) + seed,
        "layer1.bias": np.zeros(4, dtype=np.float64) + seed,
        "buffer::stat": np.ones(3, dtype=np.float64),
    }


# --------------------------------------------------------------------------- #
# BlobService
# --------------------------------------------------------------------------- #
def test_replayed_identical_put_keeps_the_key_fetchable():
    # A put is idempotent per key: publishing the same bytes again keeps
    # the key bound to them.
    service = BlobService()
    blob = pack_payload(_state())
    service.put("k", blob)
    service.put("k", blob)  # replay, must not raise

    assert service.get("k") == blob
    assert service.stats()["entries"] == 1


def test_get_raises_for_unknown_or_dropped_key():
    service = BlobService()
    with pytest.raises(KeyError, match="never published"):
        service.get("nope")
    service.put("k", pack_payload(_state()))
    service.drop(["k"])
    with pytest.raises(KeyError, match="never published"):
        service.get("k")


def test_every_fetch_counts_its_frame():
    # Only workers read the blob table: each fetch is a cache miss.
    service = BlobService()
    channel = DriverChannel(service)
    channel.publish("k", _state(), label="device")
    assert service.stats()["fetches"] == 0
    channel.fetch("k")
    stats = service.stats()
    assert stats["fetches"] == 1
    assert stats["by_label"]["device"]["fetched_bytes"] > 0


# --------------------------------------------------------------------------- #
# Over the socket: one get per state, and nothing but reads
# --------------------------------------------------------------------------- #
@pytest.fixture()
def worker_channel():
    service = BlobService()
    server = BlobServer(("127.0.0.1", 0), service, Dispatcher())
    thread = serve_in_thread(server)
    connection = Connection("127.0.0.1", server.port, retries=1, hello={"pid": 1})
    connection.connect()
    yield WorkerChannel(connection), service
    connection.close()
    server.close()
    thread.join(timeout=2.0)


def test_worker_channel_moves_one_frame_per_key(worker_channel):
    channel, service = worker_channel
    driver = DriverChannel(service)
    state = _state(seed=1.0)
    frame = driver.publish("k", state, label="device")
    assert frame == len(pack_payload(state))

    restored = channel.fetch("k")
    assert list(restored) == list(state)
    for name, value in state.items():
        np.testing.assert_array_equal(restored[name], value)
    stats = service.stats()
    assert (stats["fetches"], stats["fetched_bytes"]) == (1, frame)
    assert stats["by_label"]["device"] == {"fetches": 1, "fetched_bytes": frame}
    driver.drop(["k"])
    with pytest.raises(KeyError):
        channel.fetch("k")


@pytest.mark.parametrize("message", [("manifest", "k"), ("tensor", "k"), ("missing", "k"),
                                     ("put", "k", b"x", "result"), ("drop", ["k"])],
                         ids=lambda message: message[0])
def test_removed_payload_ops_are_unknown(worker_channel, message):
    # A worker only reads the blob table: it can neither rebind nor forget
    # a key the driver published.
    channel, service = worker_channel
    DriverChannel(service).publish("k", _state(), label="device")
    frame = service.get("k")
    reply = channel.connection.request(message)
    assert reply == ("error", "ValueError", f"unknown wire op {message[0]!r}")
    assert service.get("k") == frame


# --------------------------------------------------------------------------- #
# Dispatcher: leases, completion, disconnect requeue
# --------------------------------------------------------------------------- #
def test_dispatch_round_trip_preserves_task_order():
    dispatcher = Dispatcher()
    batch = dispatcher.submit(["task-a", "task-b", "task-c"])
    leases = []
    while True:
        leased = dispatcher.next_task(connection_id=1, timeout=0.01)
        if leased == Dispatcher.EMPTY:
            break
        leases.append(leased)
    assert [payload for _, payload in leases] == ["task-a", "task-b", "task-c"]
    # Complete out of order; outcomes stay keyed by task index.
    for lease_id, payload in reversed(leases):
        dispatcher.complete(lease_id, True, payload.upper())
    assert batch.done
    assert [batch.outcomes[i] for i in range(3)] == [
        ("ok", "TASK-A"), ("ok", "TASK-B"), ("ok", "TASK-C")]


def test_release_connection_requeues_unfinished_leases():
    dispatcher = Dispatcher()
    batch = dispatcher.submit(["only-task"])
    lease_id, payload = dispatcher.next_task(connection_id=1, timeout=0.01)
    assert payload == "only-task"

    # Worker 1 dies without completing: its lease must be re-dispatchable.
    assert dispatcher.release_connection(1) == 1
    assert dispatcher.redispatches == 1
    release_id, payload = dispatcher.next_task(connection_id=2, timeout=0.01)
    assert payload == "only-task"
    dispatcher.complete(release_id, True, "done")
    assert batch.done

    # A duplicate delivery from the supposedly-dead worker is ignored.
    dispatcher.complete(lease_id, True, "stale")
    assert batch.outcomes[0] == ("ok", "done")


def test_release_connection_ignores_completed_leases():
    dispatcher = Dispatcher()
    dispatcher.submit(["t"])
    lease_id, _ = dispatcher.next_task(connection_id=1, timeout=0.01)
    dispatcher.complete(lease_id, True, "r")
    assert dispatcher.release_connection(1) == 0


def test_shutdown_unblocks_waiting_workers():
    dispatcher = Dispatcher()
    results = []

    def poll():
        results.append(dispatcher.next_task(connection_id=1, timeout=30.0))

    thread = threading.Thread(target=poll, daemon=True)
    thread.start()
    time.sleep(0.05)
    dispatcher.shutdown()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [Dispatcher.SHUTDOWN]


def test_iter_outcomes_yields_each_outcome_once_in_arrival_order():
    dispatcher = Dispatcher()
    batch = dispatcher.submit(["a", "b", "c"])
    leases = [dispatcher.next_task(connection_id=1, timeout=0.01) for _ in range(3)]
    dispatcher.complete(leases[2][0], True, "rc")
    dispatcher.complete(leases[0][0], True, "ra")
    assert list(dispatcher.iter_outcomes(batch, timeout=0.01)) == [
        (2, ("ok", "rc")), (0, ("ok", "ra"))]
    assert list(dispatcher.iter_outcomes(batch, timeout=0.01)) == []
    dispatcher.complete(leases[1][0], False, "boom")
    assert list(dispatcher.iter_outcomes(batch, timeout=0.01)) == [(1, ("error", "boom"))]
    assert list(dispatcher.iter_outcomes(batch, timeout=0.01)) == []


def test_wait_reports_batch_progress():
    dispatcher = Dispatcher()
    batch = dispatcher.submit(["a", "b"])
    assert not dispatcher.wait(batch, timeout=0.01)
    lease_id, _ = dispatcher.next_task(connection_id=1, timeout=0.01)
    dispatcher.complete(lease_id, True, "ra")
    assert not dispatcher.wait(batch, timeout=0.01)
    lease_id, _ = dispatcher.next_task(connection_id=1, timeout=0.01)
    dispatcher.complete(lease_id, False, "boom")
    assert dispatcher.wait(batch, timeout=0.01)
    assert batch.outcomes[1] == ("error", "boom")
