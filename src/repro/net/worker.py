"""The remote worker daemon: ``repro worker --connect HOST:PORT``.

Runs the existing :class:`~repro.federated.backend.WorkerRuntime` (context
versioning + the byte-bounded :class:`LRUStateCache` of resolved states)
against a network :class:`WorkerChannel`: state fetches become manifest +
tensor GETs with retry/backoff, context syncs piggyback on the same
connection, and large result states are published back into the driver's
blob table so only a tiny :class:`StateRef` rides in the result pickle.

The daemon is deliberately single-threaded: one task at a time over one
:class:`~repro.net.wire.Connection`.  Parallelism comes from running more
daemons (``tcp://:PORT?workers=N`` spawns N of them), which keeps every
worker a plain OS process you can start on any machine that can reach the
driver — ``python -m repro.net.worker --connect HOST:PORT`` and nothing
else.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import traceback
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..federated.backend import (
    DEFAULT_WORKER_CACHE_BYTES,
    LRUStateCache,
    WorkerRuntime,
    _swap_runtime,
)
from ..utils.serialization import StateRef, state_digest
from .wire import Connection, pack_tensor, parse_hostport, tensor_digest, unpack_tensor

__all__ = ["WorkerChannel", "run_worker", "main"]


def _unwrap(reply):
    """Raise the error a reply tuple carries, else return the reply."""
    if isinstance(reply, tuple) and reply and reply[0] == "error":
        _, error_type, message = reply
        if error_type == "KeyError":
            raise KeyError(message)
        raise RuntimeError(f"{error_type}: {message}")
    return reply


class WorkerChannel:
    """Network :class:`StateChannel` face of one worker connection.

    ``fetch`` resolves a state key to its manifest, then fills in tensors
    from a local digest-keyed LRU cache of decoded arrays — the worker-side
    half of delta publishing: a re-published state whose tensors mostly
    kept their digests costs one small manifest plus only the changed
    tensors on the wire.  Returned payloads are live dicts/lists and must
    be treated as read-only, same as every other channel.
    """

    def __init__(self, connection: Connection,
                 tensor_cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES) -> None:
        self.connection = connection
        self._tensors = LRUStateCache(tensor_cache_bytes)
        self.tensor_hits = 0
        self.tensor_misses = 0

    # ------------------------------------------------------------------ #
    def fetch(self, key: str, count: bool = True):
        reply = _unwrap(self.connection.request(("manifest", key, bool(count))))
        _, container, entries, label = reply
        arrays = []
        for name, digest in entries:
            array = self._tensors.get(digest)
            if array is None:
                self.tensor_misses += 1
                tensor_reply = _unwrap(self.connection.request(
                    ("tensor", digest, bool(count), label)))
                array = unpack_tensor(tensor_reply[1])
                self._tensors.put(digest, array, array.nbytes)
            else:
                self.tensor_hits += 1
            arrays.append((name, array))
        if container == "dict":
            return {name: array for name, array in arrays}
        return [array for _, array in arrays]

    def get_context(self, have_version: int) -> Tuple[int, Optional[bytes]]:
        reply = _unwrap(self.connection.request(("context", int(have_version))))
        return reply[1], reply[2]

    def drop(self, keys: Sequence[str]) -> None:
        _unwrap(self.connection.request(("drop", list(keys))))

    def stats(self) -> Dict[str, object]:
        return {"tensor_hits": self.tensor_hits, "tensor_misses": self.tensor_misses}

    def close(self) -> None:
        self.connection.close()

    # ------------------------------------------------------------------ #
    # Result-path publishing (worker -> driver)
    # ------------------------------------------------------------------ #
    def publish_state(self, state: Dict[str, np.ndarray], key: str,
                      label: str) -> None:
        """Upload a state under ``key``, delta-encoded: only tensors the
        table lacks travel.

        The server pins every digest the ``missing`` check sees (and every
        uploaded blob) for this connection until the ``put_manifest`` lands,
        so the three-step sequence is atomic against concurrent GC.  The one
        hole left is a mid-publish reconnect: the new connection's pins start
        empty, so a tensor verified present before the drop of the socket may
        be GCed before the manifest arrives.  The server rejects that with
        KeyError, and we simply restart the publish from the missing check.
        """
        named = list(state.items())
        entries = [(name, tensor_digest(array)) for name, array in named]
        by_digest = {digest: array for (_, array), (_, digest) in zip(named, entries)}
        for attempt in range(3):
            missing = _unwrap(self.connection.request(("missing", list(by_digest))))[1]
            for digest in missing:
                _unwrap(self.connection.request(
                    ("put_tensor", digest, pack_tensor(by_digest[digest]))))
            try:
                _unwrap(self.connection.request(
                    ("put_manifest", key, "dict", entries, label)))
                return
            except KeyError:
                if attempt == 2:
                    raise


# --------------------------------------------------------------------------- #
# Result-path refs: replace large inline result states with refs
# --------------------------------------------------------------------------- #
def _ship_result(result, channel: WorkerChannel, settings: Dict, counter) -> object:
    """Publish large result state dicts and substitute :class:`StateRef`
    handles (recursing into fused-cohort result lists)."""
    if isinstance(result, (list, tuple)):
        shipped = [_ship_result(item, channel, settings, counter) for item in result]
        return type(result)(shipped)
    state = getattr(result, "state", None)
    if not isinstance(state, dict):
        return result
    nbytes = int(sum(np.asarray(value).nbytes for value in state.values()))
    if nbytes < int(settings.get("result_ref_threshold", 0)):
        return result
    # Unique key per upload: identical states across devices still share
    # tensors (the delta path dedupes those); distinct manifests keep the
    # driver's resolve-then-drop lifecycle collision-free.
    key = f"result:{state_digest(state)}:{os.getpid()}:{next(counter)}"
    channel.publish_state(state, key, "result")
    result.state = StateRef(key=key, round_version=0, kind="state",
                            nbytes=nbytes, label="result")
    return result


def _pickled(exc: BaseException) -> Optional[bytes]:
    """A task's exception as the driver re-raises it (None if it won't pickle)."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 — the traceback text still goes
        return None


# --------------------------------------------------------------------------- #
# Daemon loop
# --------------------------------------------------------------------------- #
def run_worker(host: str, port: int, *,
               cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES,
               patience: float = 30.0, quiet: bool = False,
               max_tasks: Optional[int] = None,
               secret: Optional[str] = None) -> int:
    """Connect to the driver at ``host:port`` and execute tasks until the
    driver shuts down (or the connection is lost past the retry budget).

    ``patience`` bounds the initial wait for the driver to start listening
    (workers may legitimately come up first).  ``secret`` (default: the
    ``REPRO_NET_SECRET`` environment variable) must match the driver's
    shared secret when the driver runs with one.  ``max_tasks`` exists for
    tests: exit after N completed tasks.
    """
    if secret is None:
        secret = os.environ.get("REPRO_NET_SECRET") or None
    hello = {"pid": os.getpid()}
    if secret is not None:
        hello["token"] = secret
    connection = Connection(host, port, hello=hello)
    connection.connect(patience=patience)
    settings = connection.welcome[1]
    channel = WorkerChannel(connection, tensor_cache_bytes=cache_bytes)
    runtime = WorkerRuntime(channel=channel, cache_bytes=cache_bytes)
    _swap_runtime(runtime)
    if not quiet:
        print(f"[repro-worker {os.getpid()}] connected to {host}:{port}", flush=True)
    import itertools

    result_counter = itertools.count()
    completed = 0
    try:
        while True:
            reply = connection.request(("task",))
            op = reply[0]
            if op == "shutdown":
                if not quiet:
                    print(f"[repro-worker {os.getpid()}] driver shut down; exiting",
                          flush=True)
                return 0
            if op == "empty":
                continue
            _, lease_id, payload = reply
            context_version, task_blob = payload
            try:
                runtime.ensure_context(context_version)
                task = pickle.loads(task_blob)
                if runtime.context is None and not getattr(task, "context_free", False):
                    raise RuntimeError(
                        "no WorkerContext installed; was the backend started "
                        "with a context before dispatching device tasks?")
                result = task.run(runtime.context)
                result = _ship_result(result, channel, settings, result_counter)
                blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            except (ConnectionError, OSError):
                raise  # transport failure: let the outer handler deal with it
            except Exception as exc:  # noqa: BLE001 — report task failures, keep serving
                connection.request(
                    ("task_error", lease_id, traceback.format_exc(), _pickled(exc)))
                continue
            connection.request(("result", lease_id, blob))
            completed += 1
            if max_tasks is not None and completed >= max_tasks:
                return 0
    except (ConnectionError, OSError) as exc:
        if not quiet:
            print(f"[repro-worker {os.getpid()}] connection lost: {exc}", flush=True)
        return 1
    finally:
        _swap_runtime(None)
        connection.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Remote worker daemon for the tcp:// execution backend.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="driver blob-server address to connect to")
    parser.add_argument("--cache-bytes", type=int, default=DEFAULT_WORKER_CACHE_BYTES,
                        help="byte budget of the worker state/tensor caches")
    parser.add_argument("--patience", type=float, default=30.0,
                        help="seconds to wait for the driver to start listening")
    parser.add_argument("--secret", default=None,
                        help="shared secret for the driver handshake "
                             "(default: the REPRO_NET_SECRET environment variable)")
    parser.add_argument("--max-tasks", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")
    args = parser.parse_args(argv)
    host, port = parse_hostport(args.connect)
    return run_worker(host, port, cache_bytes=args.cache_bytes,
                      patience=args.patience, quiet=args.quiet,
                      max_tasks=args.max_tasks, secret=args.secret)


if __name__ == "__main__":
    sys.exit(main())
