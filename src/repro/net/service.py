"""Driver-side state of the multi-node transport: blob table + dispatcher.

Two thread-safe objects live in the driver process and are shared between
the in-process :class:`~repro.net.server.DriverChannel` (the driver's
:class:`~repro.utils.serialization.StateChannel`) and the socket handler
threads serving remote workers:

* :class:`BlobService` — the digest-keyed blob table behind the wire.
  States are stored **delta-encoded**: a *manifest* maps entry names to
  per-tensor content digests, and tensor blobs are stored once per digest
  with reference counting (a manifest drop garbage-collects tensors no
  other manifest references).  Publishing a state in which most tensors
  kept their digests therefore ships (and stores) only the changed tensors
  plus the tiny manifest.

  A delta publish is three steps (``missing_tensors`` → ``put_tensor``
  per gap → ``put_manifest``) that are **not atomic**, so the table layers
  a *pin* lease over the refcounts: a publisher passes a ``pin_for`` token
  and every digest it checked or uploaded stays alive — immune to
  concurrent ``drop`` GC — until its ``put_manifest`` lands (which
  releases the pins) or the publisher dies (:meth:`release_pins`, called
  by the server when a connection closes, reclaims orphaned refcount-0
  uploads).  ``put_manifest`` increfs the new entries *before* decrefing
  the manifest it replaces, so a replayed identical publish (the blind
  retry a lost reply produces) or an update sharing tensors with its
  predecessor never GCs the shared blobs in between.
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

import pickle
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
    """The digest-keyed blob table served to workers.

    All methods are safe to call from any thread.  ``count=True`` marks
    worker-initiated transfers (cache misses) so driver-side reads never
    pollute the hit/miss statistics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # state key -> (container, entries [(name, tensor_digest)], label,
        #               manifest_nbytes)
        self._manifests: Dict[str, Tuple[str, list, str, int]] = {}
        # tensor digest -> [blob, refcount, pins].  ``refcount`` counts
        # referencing manifests; ``pins`` counts in-flight publishes that
        # checked or uploaded the digest and have not landed their manifest
        # yet.  A tensor is GCed only when both reach zero.
        self._tensors: Dict[str, List] = {}
        # pin token (connection id or driver publish token) -> pinned digests
        self._pins: Dict[object, List[str]] = {}
        self._context_blob: Optional[bytes] = None
        self._context_version = -1
        self._fetches = 0
        self._fetched_bytes = 0
        self._tensor_fetches = 0
        self._context_fetches = 0
        self._context_bytes = 0
        self._uploads = 0
        self._uploaded_bytes = 0
        self._by_label: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    # Publishing (driver-side direct, or worker result uploads via ops)
    # ------------------------------------------------------------------ #
    def missing_tensors(self, digests: Sequence[str],
                        pin_for: Optional[object] = None) -> List[str]:
        """The subset of ``digests`` the table does not hold yet.

        With ``pin_for``, every digest that *is* present gets pinned for
        that token: a concurrent manifest drop cannot GC it out from under
        the caller between this check and the caller's ``put_manifest``.
        """
        with self._lock:
            missing = []
            for digest in digests:
                entry = self._tensors.get(digest)
                if entry is None:
                    missing.append(digest)
                elif pin_for is not None:
                    entry[2] += 1
                    self._pins.setdefault(pin_for, []).append(digest)
            return missing

    def put_tensor(self, digest: str, blob: bytes, *, count_upload: bool = False,
                   pin_for: Optional[object] = None) -> bool:
        """Store one tensor blob; returns whether it was new.  With
        ``pin_for``, the blob is pinned until the owning ``put_manifest``
        lands (or the publisher's pins are released on disconnect)."""
        with self._lock:
            if count_upload:
                self._uploaded_bytes += len(blob)
            entry = self._tensors.get(digest)
            new = entry is None
            if new:
                # Refcount starts at 0; manifests referencing it bump it.
                entry = self._tensors[digest] = [blob, 0, 0]
            if pin_for is not None:
                entry[2] += 1
                self._pins.setdefault(pin_for, []).append(digest)
            return new

    def put_manifest(self, key: str, container: str, entries, label: str = "",
                     *, count_upload: bool = False,
                     pin_for: Optional[object] = None) -> int:
        """Bind ``key`` to a manifest: ``container`` is ``"dict"`` or
        ``"list"`` and entries are ``(name, tensor_digest)`` pairs over
        stored tensors.  Returns the manifest's wire size.  Idempotent per
        key (re-publishing an identical content key replaces an identical
        manifest).  Releases ``pin_for``'s pins whether or not the bind
        succeeds."""
        manifest_nbytes = len(pickle.dumps((container, entries),
                                           protocol=pickle.HIGHEST_PROTOCOL))
        with self._lock:
            try:
                if count_upload:
                    self._uploads += 1
                    self._uploaded_bytes += manifest_nbytes
                missing = [digest for _, digest in entries
                           if digest not in self._tensors]
                if missing:
                    raise KeyError(f"manifest {key!r} references unknown tensor "
                                   f"blobs ({len(missing)} missing); publish "
                                   "tensors first")
                # Incref the new entries BEFORE decrefing the previous
                # manifest: a replayed identical publish, or an update
                # sharing tensors with its predecessor, must not GC the
                # shared blobs in between.
                for _, digest in entries:
                    self._tensors[digest][1] += 1
                previous = self._manifests.get(key)
                if previous is not None:
                    self._decref_locked(previous)
                self._manifests[key] = (container, entries, label, manifest_nbytes)
            finally:
                if pin_for is not None:
                    self._release_pins_locked(pin_for)
        return manifest_nbytes

    def release_pins(self, pin_for: object) -> None:
        """Drop every pin held by ``pin_for``, GCing tensors nothing else
        references — the disconnect path for publishers that died between
        uploading blobs and landing their manifest."""
        with self._lock:
            self._release_pins_locked(pin_for)

    def _release_pins_locked(self, pin_for: object) -> None:
        for digest in self._pins.pop(pin_for, ()):
            entry = self._tensors.get(digest)
            if entry is None:
                continue
            entry[2] -= 1
            if entry[1] <= 0 and entry[2] <= 0:
                del self._tensors[digest]

    def _decref_locked(self, manifest: Tuple[str, list, str, int]) -> None:
        for _, digest in manifest[1]:
            entry = self._tensors.get(digest)
            if entry is None:
                continue
            entry[1] -= 1
            if entry[1] <= 0 and entry[2] <= 0:
                del self._tensors[digest]

    # ------------------------------------------------------------------ #
    # Fetching
    # ------------------------------------------------------------------ #
    def get_manifest(self, key: str, count: bool = True):
        """Return ``(container, entries)``; raises ``KeyError`` if unknown."""
        with self._lock:
            manifest = self._manifests.get(key)
            if manifest is None:
                raise KeyError(f"state ref {key!r} is not in the blob table; it was "
                               "never published or was evicted before use")
            container, entries, label, manifest_nbytes = manifest
            if count:
                self._fetches += 1
                self._fetched_bytes += manifest_nbytes
                bucket = self._by_label.setdefault(
                    label, {"fetches": 0, "fetched_bytes": 0})
                bucket["fetches"] += 1
                bucket["fetched_bytes"] += manifest_nbytes
            return container, entries

    def get_tensor(self, digest: str, count: bool = True, label: str = "") -> bytes:
        with self._lock:
            entry = self._tensors.get(digest)
            if entry is None:
                raise KeyError(f"tensor blob {digest!r} is not in the blob table")
            blob = entry[0]
            if count:
                self._tensor_fetches += 1
                self._fetched_bytes += len(blob)
                bucket = self._by_label.setdefault(
                    label, {"fetches": 0, "fetched_bytes": 0})
                bucket["fetched_bytes"] += len(blob)
            return blob

    def drop(self, keys: Sequence[str]) -> None:
        with self._lock:
            for key in keys:
                manifest = self._manifests.pop(key, None)
                if manifest is not None:
                    self._decref_locked(manifest)

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
                "tensor_fetches": self._tensor_fetches,
                "context_fetches": self._context_fetches,
                "context_bytes": self._context_bytes,
                "uploads": self._uploads,
                "uploaded_bytes": self._uploaded_bytes,
                "entries": len(self._manifests),
                "tensor_entries": len(self._tensors),
                "by_label": {label: dict(bucket)
                             for label, bucket in self._by_label.items()},
            }


# --------------------------------------------------------------------------- #
# Task dispatch
# --------------------------------------------------------------------------- #
class DispatchBatch:
    """One ``run_tasks`` call's worth of leases and their results."""

    def __init__(self, size: int, condition: threading.Condition) -> None:
        self.size = size
        self._condition = condition
        # task index -> ("ok", result) | ("error", message)
        self.outcomes: Dict[int, Tuple[str, object]] = {}
        self._yielded = 0

    @property
    def done(self) -> bool:
        return len(self.outcomes) >= self.size

    def drain_new(self) -> List[Tuple[int, Tuple[str, object]]]:
        """Outcomes not yet handed to the caller (condition must be held)."""
        if self._yielded >= len(self.outcomes):
            return []
        fresh = [(index, outcome) for index, outcome in self.outcomes.items()
                 if index >= 0]  # all indices are >= 0; keep dict order
        fresh = fresh[self._yielded:]
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
            batch = DispatchBatch(len(payloads), self._condition)
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

    @property
    def is_shut_down(self) -> bool:
        with self._condition:
            return self._shutdown
