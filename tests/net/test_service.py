"""Driver-side blob table and dispatcher: delta encoding, leases, requeue."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.net.server import DriverChannel
from repro.net.service import BlobService, Dispatcher
from repro.net.wire import pack_tensor, tensor_digest

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
def test_manifest_refcounts_tensors_across_drops():
    service = BlobService()
    shared = np.arange(8, dtype=np.float64)
    digest = tensor_digest(shared)
    service.put_tensor(digest, pack_tensor(shared))
    service.put_manifest("a", "dict", [("w", digest)])
    service.put_manifest("b", "dict", [("w", digest)])

    service.drop(["a"])
    # Still referenced by manifest "b": the tensor must survive.
    assert service.get_tensor(digest, count=False)
    service.drop(["b"])
    assert service.missing_tensors([digest]) == [digest]
    with pytest.raises(KeyError):
        service.get_tensor(digest, count=False)


def test_replayed_identical_manifest_keeps_shared_tensors():
    # Regression: a lost put_manifest reply makes the client blindly replay
    # the byte-identical request.  Decref-before-incref used to GC the
    # tensors and then fail the missing check, corrupting the table.
    service = BlobService()
    array = np.arange(6, dtype=np.float64)
    digest = tensor_digest(array)
    service.put_tensor(digest, pack_tensor(array))
    service.put_manifest("k", "dict", [("w", digest)])
    service.put_manifest("k", "dict", [("w", digest)])  # replay, must not raise

    assert service.get_tensor(digest, count=False)
    service.drop(["k"])
    assert service.missing_tensors([digest]) == [digest]


def test_manifest_update_keeps_tensors_shared_with_predecessor():
    service = BlobService()
    kept = np.arange(4, dtype=np.float64)
    old = np.ones(3, dtype=np.float64)
    new = np.zeros(3, dtype=np.float64)
    kept_digest, old_digest, new_digest = map(tensor_digest, (kept, old, new))
    for digest, array in [(kept_digest, kept), (old_digest, old)]:
        service.put_tensor(digest, pack_tensor(array))
    service.put_manifest("k", "dict", [("a", kept_digest), ("b", old_digest)])

    # Re-publish: one tensor unchanged, one replaced.
    service.put_tensor(new_digest, pack_tensor(new))
    service.put_manifest("k", "dict", [("a", kept_digest), ("b", new_digest)])

    assert service.get_tensor(kept_digest, count=False)
    assert service.missing_tensors([old_digest]) == [old_digest]  # GCed


def test_failed_manifest_leaves_previous_binding_intact():
    service = BlobService()
    array = np.arange(4, dtype=np.float64)
    digest = tensor_digest(array)
    service.put_tensor(digest, pack_tensor(array))
    service.put_manifest("k", "dict", [("w", digest)])

    with pytest.raises(KeyError, match="unknown tensor blobs"):
        service.put_manifest("k", "dict", [("w", "missing-digest")])

    # The old manifest still resolves and its tensor survived.
    assert service.get_manifest("k", count=False) == ("dict", [("w", digest)])
    assert service.get_tensor(digest, count=False)


# --------------------------------------------------------------------------- #
# Pins: atomic publishes against concurrent GC, orphan reclamation
# --------------------------------------------------------------------------- #
def test_pinned_missing_check_survives_concurrent_drop():
    # A worker publish is missing -> put_tensor -> put_manifest across three
    # requests.  A driver-side drop landing in between must not GC a tensor
    # the missing check reported present.
    service = BlobService()
    shared = np.arange(5, dtype=np.float64)
    digest = tensor_digest(shared)
    service.put_tensor(digest, pack_tensor(shared))
    service.put_manifest("driver-key", "dict", [("w", digest)])

    assert service.missing_tensors([digest], pin_for=7) == []
    service.drop(["driver-key"])  # the race: last manifest reference gone
    assert service.get_tensor(digest, count=False)  # pin keeps it alive
    service.put_manifest("worker-key", "dict", [("w", digest)], pin_for=7)

    # The manifest's refcount now owns the tensor; pins are released.
    service.drop(["worker-key"])
    assert service.missing_tensors([digest]) == [digest]


def test_release_pins_reclaims_orphaned_uploads():
    # A worker that dies between put_tensor and put_manifest must not leak
    # its uploaded blobs: the server releases its pins on disconnect.
    service = BlobService()
    array = np.arange(3, dtype=np.float64)
    digest = tensor_digest(array)
    service.put_tensor(digest, pack_tensor(array), pin_for=3)
    assert service.stats()["tensor_entries"] == 1

    service.release_pins(3)
    assert service.stats()["tensor_entries"] == 0
    assert service.missing_tensors([digest]) == [digest]


def test_release_pins_keeps_manifest_referenced_tensors():
    service = BlobService()
    array = np.arange(3, dtype=np.float64)
    digest = tensor_digest(array)
    service.put_tensor(digest, pack_tensor(array), pin_for=3)
    service.put_manifest("k", "dict", [("w", digest)], pin_for=3)
    service.release_pins(3)  # disconnect after a completed publish: no-op
    assert service.get_tensor(digest, count=False)


def test_failed_pinned_manifest_still_releases_pins():
    service = BlobService()
    array = np.arange(3, dtype=np.float64)
    digest = tensor_digest(array)
    service.put_tensor(digest, pack_tensor(array), pin_for=9)
    with pytest.raises(KeyError):
        service.put_manifest("k", "dict", [("w", digest), ("x", "absent")],
                             pin_for=9)
    # The pin was consumed by the failed put_manifest; nothing references
    # the upload any more, so it was reclaimed.
    assert service.missing_tensors([digest]) == [digest]


def test_get_manifest_raises_for_unknown_key():
    with pytest.raises(KeyError, match="never published"):
        BlobService().get_manifest("nope")


def test_put_manifest_rejects_unknown_tensor_digests():
    with pytest.raises(KeyError, match="unknown tensor blobs"):
        BlobService().put_manifest("key", "dict", [("w", "missing-digest")])


# --------------------------------------------------------------------------- #
# DriverChannel: delta publishes
# --------------------------------------------------------------------------- #
def test_delta_publish_ships_only_changed_tensors():
    channel = DriverChannel(BlobService())

    first = channel.publish("k1", _state(), label="device")
    changed = _state()
    changed["layer1.bias"] = changed["layer1.bias"] + 1.0
    second = channel.publish("k2", changed, label="device")

    # Second publish: one changed tensor (32 bytes of payload + npy header)
    # plus a manifest — far below the full-state first publish.
    assert isinstance(first, int) and isinstance(second, int)
    assert second < first / 2

    restored = channel.fetch("k2", count=False)
    assert set(restored) == set(changed)
    for name in changed:
        np.testing.assert_array_equal(restored[name], changed[name])


def test_delta_publish_of_array_lists_round_trips_in_order():
    channel = DriverChannel(BlobService())
    arrays = [np.arange(4, dtype=np.float64), np.ones((2, 2), dtype=np.float32)]
    channel.publish("anchor", arrays, label="anchor")
    restored = channel.fetch("anchor", count=False)
    assert isinstance(restored, list) and len(restored) == 2
    np.testing.assert_array_equal(restored[0], arrays[0])
    np.testing.assert_array_equal(restored[1], arrays[1])
    assert restored[1].dtype == np.float32


def test_fetch_counts_only_worker_initiated_transfers():
    service = BlobService()
    channel = DriverChannel(service)
    channel.publish("k", _state(), label="device")
    channel.fetch("k", count=False)
    assert service.stats()["fetches"] == 0
    channel.fetch("k", count=True)
    stats = service.stats()
    assert stats["fetches"] == 1
    assert stats["by_label"]["device"]["fetched_bytes"] > 0


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
