"""Driver-side state of the multi-node transport: blob table + dispatcher.

Two thread-safe objects live in the driver process and are shared between
the in-process :class:`~repro.net.server.DriverChannel` (the driver's
:class:`~repro.utils.serialization.StateChannel`) and the socket handler
threads serving remote workers:

* :class:`BlobService` — the blob table behind the wire: one encoded
  payload frame (:func:`~repro.net.wire.pack_payload`) and its label per
  state key.  A publish is one ``put``, a fetch one ``get``, a drop forgets
  the key.  Only the driver puts and drops; a worker connection can only
  ``get``.
* :class:`Dispatcher` — the driver-side task queue.  Workers *lease* tasks
  (``next_task``) and deliver results (``complete``); a lease whose
  connection dies before delivering is re-queued (``release_connection``),
  which is what turns a worker crash mid-round into a re-dispatch instead
  of a hang.  Tasks are pure functions of their payload + context (they
  load parameter state before computing), so a re-executed lease — or a
  duplicate result from a worker whose connection broke *after* computing
  — is harmless: results are keyed and deterministic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["BlobService", "Dispatcher", "DispatchBatch", "RemoteTaskError"]


class RemoteTaskError(RuntimeError):
    """A task raised on a remote worker; carries the remote traceback.

    The driver raises the worker's own exception with this as its cause, or
    this alone when that exception does not survive a pickle round trip."""


# --------------------------------------------------------------------------- #
# Blob table
# --------------------------------------------------------------------------- #
class BlobService:
    """The key-to-frame blob table served to workers.

    All methods are safe to call from any thread.  Only workers read the
    table, so every ``get`` is a cache miss and counts as a fetch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # state key -> (encoded payload frame, label)
        self._blobs: Dict[str, Tuple[bytes, str]] = {}
        self._context_blob: Optional[bytes] = None
        self._context_version = -1
        self._fetches = 0
        self._fetched_bytes = 0
        self._context_fetches = 0
        self._context_bytes = 0
        self._by_label: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    def put(self, key: str, blob: bytes, label: str = "") -> int:
        """Bind ``key`` to ``blob`` (idempotent per key); returns its size."""
        with self._lock:
            self._blobs[key] = (blob, label)
        return len(blob)

    def get(self, key: str) -> bytes:
        """The frame bound to ``key``; raises ``KeyError`` if unknown."""
        with self._lock:
            entry = self._blobs.get(key)
            if entry is None:
                raise KeyError(f"state ref {key!r} is not in the blob table; it was "
                               "never published or was evicted before use")
            blob, label = entry
            self._fetches += 1
            self._fetched_bytes += len(blob)
            bucket = self._by_label.setdefault(label, {"fetches": 0, "fetched_bytes": 0})
            bucket["fetches"] += 1
            bucket["fetched_bytes"] += len(blob)
            return blob

    def drop(self, keys: Sequence[str]) -> None:
        with self._lock:
            for key in keys:
                self._blobs.pop(key, None)

    # ------------------------------------------------------------------ #
    # Worker context
    # ------------------------------------------------------------------ #
    def set_context(self, version: int, blob: bytes) -> None:
        with self._lock:
            self._context_version = int(version)
            self._context_blob = blob

    def get_context(self, have_version: int) -> Tuple[int, Optional[bytes]]:
        with self._lock:
            if have_version == self._context_version or self._context_blob is None:
                return self._context_version, None
            self._context_fetches += 1
            self._context_bytes += len(self._context_blob)
            return self._context_version, self._context_blob

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "fetches": self._fetches,
                "fetched_bytes": self._fetched_bytes,
                "context_fetches": self._context_fetches,
                "context_bytes": self._context_bytes,
                "entries": len(self._blobs),
                "by_label": {label: dict(bucket)
                             for label, bucket in self._by_label.items()},
            }


# --------------------------------------------------------------------------- #
# Task dispatch
# --------------------------------------------------------------------------- #
class DispatchBatch:
    """One ``run_tasks`` call's worth of leases and their results."""

    def __init__(self, size: int) -> None:
        self.size = size
        # task index -> ("ok", result) | ("error", message)
        self.outcomes: Dict[int, Tuple[str, object]] = {}
        self._yielded = 0

    @property
    def done(self) -> bool:
        return len(self.outcomes) >= self.size

    def drain_new(self) -> List[Tuple[int, Tuple[str, object]]]:
        """Outcomes not yet handed to the caller (condition must be held)."""
        fresh = list(self.outcomes.items())[self._yielded:]
        self._yielded = len(self.outcomes)
        return fresh


class Dispatcher:
    """Lease-based task queue shared by the driver and its workers.

    Lifecycle of one task: ``submit`` enqueues it → a worker connection
    ``next_task``s it (the lease records the owner connection) →
    ``complete`` stores the outcome.  ``release_connection`` re-queues
    every lease whose owner died without completing.  ``shutdown`` makes
    ``next_task`` return the shutdown sentinel so workers exit cleanly.
    """

    #: Sentinels returned by :meth:`next_task`.
    EMPTY = ("empty",)
    SHUTDOWN = ("shutdown",)

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._queue: deque = deque()
        # lease id -> {batch, index, payload, owner, status}
        self._leases: Dict[int, Dict] = {}
        self._next_lease = 0
        self._shutdown = False
        self.redispatches = 0

    # ------------------------------------------------------------------ #
    # Driver side
    # ------------------------------------------------------------------ #
    def submit(self, payloads: Sequence) -> DispatchBatch:
        """Enqueue one payload per task; returns the batch to wait on."""
        with self._condition:
            if self._shutdown:
                raise RuntimeError("dispatcher is shut down")
            batch = DispatchBatch(len(payloads))
            for index, payload in enumerate(payloads):
                lease_id = self._next_lease
                self._next_lease += 1
                self._leases[lease_id] = {"batch": batch, "index": index,
                                          "payload": payload, "owner": None,
                                          "status": "queued"}
                self._queue.append(lease_id)
            self._condition.notify_all()
            return batch

    def wait(self, batch: DispatchBatch, timeout: float) -> bool:
        """Block until the batch progresses or ``timeout`` elapses; returns
        whether the batch is complete."""
        with self._condition:
            if not batch.done:
                self._condition.wait(timeout)
            return batch.done

    def iter_outcomes(self, batch: DispatchBatch, timeout: float) -> Iterator:
        """Yield ``(index, outcome)`` pairs that arrived since the last call
        (non-blocking beyond ``timeout`` for the first new outcome)."""
        with self._condition:
            fresh = batch.drain_new()
            if not fresh and not batch.done:
                self._condition.wait(timeout)
                fresh = batch.drain_new()
        return iter(fresh)

    def pending(self, batch: DispatchBatch) -> int:
        with self._condition:
            return batch.size - len(batch.outcomes)

    # ------------------------------------------------------------------ #
    # Worker side (called from socket handler threads)
    # ------------------------------------------------------------------ #
    def next_task(self, connection_id: int, timeout: float = 1.0):
        """Lease the next queued task to ``connection_id``.

        Returns ``(lease_id, payload)``, :data:`EMPTY` after ``timeout``
        with nothing queued, or :data:`SHUTDOWN` once shut down.
        """
        with self._condition:
            if not self._queue and not self._shutdown:
                self._condition.wait(timeout)
            while self._queue:
                lease_id = self._queue.popleft()
                lease = self._leases.get(lease_id)
                if lease is None or lease["status"] == "done":
                    continue  # completed by a duplicate delivery meanwhile
                lease["owner"] = connection_id
                lease["status"] = "leased"
                return lease_id, lease["payload"]
            if self._shutdown:
                return self.SHUTDOWN
            return self.EMPTY

    def complete(self, lease_id: int, ok: bool, result) -> None:
        """Store a lease's outcome (tolerates re-queued duplicates)."""
        with self._condition:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return
            lease["status"] = "done"
            batch: DispatchBatch = lease["batch"]
            if lease["index"] not in batch.outcomes:
                batch.outcomes[lease["index"]] = ("ok" if ok else "error", result)
            self._condition.notify_all()

    def release_connection(self, connection_id: int) -> int:
        """Re-queue every lease the dead connection still owned; returns the
        number of re-dispatched tasks."""
        with self._condition:
            requeued = 0
            for lease_id, lease in self._leases.items():
                if lease["owner"] == connection_id and lease["status"] == "leased":
                    lease["owner"] = None
                    lease["status"] = "queued"
                    self._queue.append(lease_id)
                    requeued += 1
            if requeued:
                self.redispatches += requeued
                self._condition.notify_all()
            return requeued

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        with self._condition:
            self._shutdown = True
            self._condition.notify_all()
