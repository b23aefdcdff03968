"""The driver's TCP endpoint: blob server + task feed, and its local channel.

:class:`BlobServer` is a threaded stdlib ``socketserver`` speaking the
length-prefixed message protocol of :mod:`repro.net.wire`.  Each worker
connection is one handler thread running a request/reply loop against the
shared :class:`~repro.net.service.BlobService` (manifests + tensor blobs +
worker context) and :class:`~repro.net.service.Dispatcher` (task leases).
A connection that drops — worker crash, network partition — releases its
leases on the way out, so its in-flight tasks are re-dispatched to the
surviving workers instead of hanging the round.

:class:`DriverChannel` is the driver-side
:class:`~repro.utils.serialization.StateChannel` over the *same* service
object, no sockets involved.  The
:class:`~repro.utils.serialization.StateStore` hands it live state dicts,
which it decomposes into per-tensor blobs keyed by content digest:
publishing a state whose tensors mostly kept their digests stores (and
later ships) only the changed tensors plus a small manifest.  ``publish``
returns the wire-equivalent byte count so the store's ``published_bytes``
reflects delta savings.
"""

from __future__ import annotations

import hmac
import itertools
import json
import pickle
import socketserver
import threading
import warnings
from typing import Dict, Optional, Sequence, Tuple

from .service import BlobService, Dispatcher
from .wire import pack_tensor, recv_frame, send_msg, tensor_digest, unpack_tensor

__all__ = ["BlobServer", "DriverChannel", "serve_in_thread"]

#: Results whose state payload is at least this large come back as refs
#: (the worker publishes the state into the blob table and ships a
#: :class:`StateRef` instead of inline bytes).
DEFAULT_RESULT_REF_THRESHOLD = 1 * 1024 * 1024


def _is_loopback(host: str) -> bool:
    return host in ("127.0.0.1", "localhost", "::1") or host.startswith("127.")


def _load_exception(blob: Optional[bytes]) -> Optional[BaseException]:
    """A worker's task exception, if it survived the pickle round trip."""
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception:  # noqa: BLE001 — the traceback text still reaches the driver
        return None


# --------------------------------------------------------------------------- #
# Driver-side channel (in-process; serves the StateStore seam)
# --------------------------------------------------------------------------- #
class DriverChannel:
    """The RemoteBackend's :class:`StateChannel` over the shared service:
    live dicts/lists in, delta-encoded per-tensor blobs in the table."""

    def __init__(self, service: BlobService) -> None:
        self._service = service
        self._publish_tokens = itertools.count()

    # ------------------------------------------------------------------ #
    def publish(self, key: str, payload, label: str = "") -> int:
        """Store ``payload`` under ``key``; returns wire-equivalent bytes
        (new tensor blobs + manifest) for the store's ``published_bytes``
        accounting."""
        if isinstance(payload, dict):
            container = "dict"
            named = list(payload.items())
        else:
            container = "list"
            named = [(str(index), array) for index, array in enumerate(payload)]
        entries = [(name, tensor_digest(array)) for name, array in named]
        new_bytes = 0
        by_digest = {digest: array for (_, array), (_, digest) in zip(named, entries)}
        # Pin across the check → upload → bind sequence so a concurrent drop
        # (another handler thread serving a worker's "drop") cannot GC a
        # tensor this publish verified present.  put_manifest releases.
        token = ("driver-publish", next(self._publish_tokens))
        try:
            for digest in self._service.missing_tensors(list(by_digest), pin_for=token):
                blob = pack_tensor(by_digest[digest])
                if self._service.put_tensor(digest, blob, pin_for=token):
                    new_bytes += len(blob)
            manifest_bytes = self._service.put_manifest(key, container, entries, label,
                                                        pin_for=token)
        except BaseException:
            self._service.release_pins(token)
            raise
        return new_bytes + manifest_bytes

    def fetch(self, key: str, count: bool = True):
        """Materialize ``key`` driver-side as an assembled live dict/list."""
        container, entries = self._service.get_manifest(key, count=count)
        arrays = [(name, unpack_tensor(self._service.get_tensor(digest, count=count)))
                  for name, digest in entries]
        if container == "dict":
            return {name: array for name, array in arrays}
        return [array for _, array in arrays]

    def drop(self, keys: Sequence[str]) -> None:
        self._service.drop(list(keys))

    def stats(self) -> Dict[str, object]:
        return self._service.stats()

    def close(self) -> None:  # the service lives in-process; nothing to release
        pass


# --------------------------------------------------------------------------- #
# The TCP server
# --------------------------------------------------------------------------- #
class _WorkerHandler(socketserver.BaseRequestHandler):
    """One worker connection: a sequential request/reply loop."""

    def handle(self) -> None:
        server: "BlobServer" = self.server  # type: ignore[assignment]
        connection_id = next(server.connection_ids)
        registered = False
        authenticated = server.secret is None
        try:
            while not server.closing:
                try:
                    frame = recv_frame(self.request)
                except (ConnectionError, OSError):
                    break
                if not registered and frame[:1] == b"{":
                    # The hello is JSON: the secret is checked before
                    # anything this peer sends reaches pickle.loads.
                    if not server.admits(frame):
                        self._refuse("hello token does not match the server's "
                                     "shared secret")
                        break
                    authenticated = registered = True
                    with server.lock:
                        server.counters["connections_total"] += 1
                        server.counters["workers_connected"] += 1
                    reply = ("welcome", dict(server.settings))
                elif not authenticated:
                    self._refuse("unauthenticated connection; open it with a hello "
                                 "frame carrying the shared secret")
                    break
                else:
                    try:
                        reply = self._dispatch(server, connection_id, pickle.loads(frame))
                    except KeyError as exc:
                        reply = ("error", "KeyError", str(exc))
                    except Exception as exc:  # noqa: BLE001 — reply, don't kill the loop
                        reply = ("error", type(exc).__name__, str(exc))
                try:
                    send_msg(self.request, reply)
                except (ConnectionError, OSError):
                    break
        finally:
            # Reclaim blobs this connection uploaded but never bound to a
            # manifest (death between put_tensor and put_manifest), then
            # requeue its unfinished task leases.
            server.service.release_pins(connection_id)
            requeued = server.dispatcher.release_connection(connection_id)
            with server.lock:
                if registered:
                    server.counters["workers_connected"] -= 1
                    server.counters["disconnects"] += 1
                if requeued:
                    server.counters["tasks_requeued"] += requeued

    # ------------------------------------------------------------------ #
    def _refuse(self, reason: str) -> None:
        try:
            send_msg(self.request, ("error", "AuthError", reason))
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------ #
    def _dispatch(self, server: "BlobServer", connection_id: int, message):
        service = server.service
        dispatcher = server.dispatcher
        op = message[0]
        if op == "task":
            leased = dispatcher.next_task(connection_id, timeout=server.task_poll_seconds)
            if leased == Dispatcher.SHUTDOWN or leased == Dispatcher.EMPTY:
                return leased
            lease_id, payload = leased
            return ("task", lease_id, payload)
        if op == "result":
            _, lease_id, blob = message
            with server.lock:
                server.counters["results_received"] += 1
                server.counters["result_bytes"] += len(blob)
            dispatcher.complete(lease_id, True, pickle.loads(blob))
            return ("ok",)
        if op == "task_error":
            _, lease_id, remote_traceback, exception_blob = message
            dispatcher.complete(lease_id, False,
                                (remote_traceback, _load_exception(exception_blob)))
            return ("ok",)
        if op == "manifest":
            _, key, count = message
            container, entries = service.get_manifest(key, count=count)
            label = server.manifest_label(key)
            return ("manifest", container, entries, label)
        if op == "tensor":
            _, digest, count, label = message
            return ("tensor", service.get_tensor(digest, count=count, label=label))
        if op == "missing":
            # Pin present digests for this connection: its follow-up
            # put_manifest (or its disconnect) releases them, so a driver
            # drop between the check and the bind cannot GC them.
            return ("missing", service.missing_tensors(message[1],
                                                       pin_for=connection_id))
        if op == "put_tensor":
            _, digest, blob = message
            service.put_tensor(digest, blob, count_upload=True, pin_for=connection_id)
            return ("ok",)
        if op == "put_manifest":
            _, key, container, entries, label = message
            service.put_manifest(key, container, entries, label, count_upload=True,
                                 pin_for=connection_id)
            return ("ok",)
        if op == "drop":
            service.drop(message[1])
            return ("ok",)
        if op == "context":
            version, blob = service.get_context(message[1])
            return ("context", version, blob)
        if op == "stats":
            return ("stats", service.stats())
        if op == "ping":
            return ("ok",)
        raise ValueError(f"unknown wire op {op!r}")


class BlobServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server wiring worker connections to the shared state."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: BlobService,
                 dispatcher: Dispatcher, *,
                 result_ref_threshold: int = DEFAULT_RESULT_REF_THRESHOLD,
                 task_poll_seconds: float = 1.0,
                 secret: Optional[str] = None) -> None:
        super().__init__(address, _WorkerHandler)
        self.service = service
        self.dispatcher = dispatcher
        self.secret = secret
        if secret is None and not _is_loopback(address[0]):
            warnings.warn(
                f"repro.net blob server binding non-loopback interface "
                f"{address[0]!r} without a shared secret: the wire protocol "
                "deserializes pickles, so anything that can reach the port can "
                "execute code in the driver.  Pass a secret (tcp://...?secret=... "
                "or REPRO_NET_SECRET) or bind a private interface.",
                RuntimeWarning, stacklevel=2)
        self.task_poll_seconds = float(task_poll_seconds)
        self.settings = {"result_ref_threshold": int(result_ref_threshold)}
        self.connection_ids = itertools.count(1)
        self.lock = threading.Lock()
        self.closing = False
        self.counters: Dict[str, int] = {
            "connections_total": 0, "workers_connected": 0, "disconnects": 0,
            "tasks_requeued": 0, "results_received": 0, "result_bytes": 0,
        }

    @property
    def port(self) -> int:
        return self.server_address[1]

    def admits(self, hello: bytes) -> bool:
        """Whether a JSON hello frame carries this server's secret (any
        well-formed hello, for a server without one)."""
        try:
            info = json.loads(hello.decode("utf-8"))
        except ValueError:
            return False
        if not isinstance(info, dict):
            return False
        if self.secret is None:
            return True
        return hmac.compare_digest(str(info.get("token", "")).encode("utf-8"),
                                   self.secret.encode("utf-8"))

    def manifest_label(self, key: str) -> str:
        """The label a manifest was published under (for tensor accounting)."""
        with self.service._lock:
            manifest = self.service._manifests.get(key)
            return manifest[2] if manifest is not None else ""

    def counter_snapshot(self) -> Dict[str, int]:
        with self.lock:
            return dict(self.counters)

    def close(self) -> None:
        self.closing = True
        self.shutdown()
        self.server_close()


def serve_in_thread(server: BlobServer) -> threading.Thread:
    """Run ``server.serve_forever`` on a daemon thread; returns the thread."""
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1},
                              name="repro-blob-server", daemon=True)
    thread.start()
    return thread

