"""The remote worker daemon: ``repro worker --connect HOST:PORT``.

Runs the existing :class:`~repro.federated.backend.WorkerRuntime` (context
versioning + the :class:`LRUStateCache` of resolved states, which holds what
the current and the previous round fetched, under a byte cap) against a
network :class:`WorkerChannel`: a state fetch is one GET of one
payload frame with retry/backoff, context syncs piggyback on the same
connection, and every result — its state included, whatever its size — goes
back as one pickle.  A worker only reads the driver's blob table.

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
from typing import Optional, Tuple

from ..federated.backend import DEFAULT_WORKER_CACHE_BYTES, WorkerRuntime
from .wire import Connection, parse_hostport, unpack_payload

__all__ = ["WorkerChannel", "run_worker", "add_worker_arguments", "run_from_args", "main"]


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

    ``fetch`` resolves a state key with one GET of its payload frame; the
    :class:`~repro.federated.backend.WorkerRuntime`'s state cache sits in
    front of it.  Returned payloads are live dicts/lists and must be
    treated as read-only, same as every other channel.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection

    # ------------------------------------------------------------------ #
    def fetch(self, key: str):
        reply = _unwrap(self.connection.request(("get", key)))
        return unpack_payload(reply[1])

    def get_context(self, have_version: int) -> Tuple[int, Optional[bytes]]:
        reply = _unwrap(self.connection.request(("context", int(have_version))))
        return reply[1], reply[2]

    def close(self) -> None:
        self.connection.close()


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
    channel = WorkerChannel(connection)
    runtime = WorkerRuntime(channel=channel, cache_bytes=cache_bytes)
    if not quiet:
        print(f"[repro-worker {os.getpid()}] connected to {host}:{port}", flush=True)
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
            task = None
            try:
                runtime.ensure_context(context_version)
                task = runtime.prepare(pickle.loads(task_blob))
                blob = pickle.dumps(task.run(runtime.context),
                                    protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 — report task failures, keep serving
                if task is None and isinstance(exc, OSError):
                    # The context and the task's refs are its only wire
                    # traffic: the connection failed, let the outer handler
                    # deal with it.  Once the task runs, an OSError is its own.
                    raise
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
        connection.close()


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker daemon's options, shared by ``repro worker`` and
    ``python -m repro.net.worker``."""
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="driver blob-server address to connect to")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="byte cap of the worker state cache, which holds the "
                             "current and the previous round's fetches "
                             f"(default: {DEFAULT_WORKER_CACHE_BYTES})")
    parser.add_argument("--patience", type=float, default=30.0,
                        help="seconds to wait for the driver to start listening")
    parser.add_argument("--secret", default=None,
                        help="shared secret for the driver handshake "
                             "(default: the REPRO_NET_SECRET environment variable)")
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")


def run_from_args(args: argparse.Namespace) -> int:
    """Run the daemon the parsed :func:`add_worker_arguments` options describe."""
    try:
        host, port = parse_hostport(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc))
    cache_bytes = DEFAULT_WORKER_CACHE_BYTES if args.cache_bytes is None else args.cache_bytes
    return run_worker(host, port, cache_bytes=cache_bytes, patience=args.patience,
                      quiet=args.quiet, secret=args.secret,
                      max_tasks=getattr(args, "max_tasks", None))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Remote worker daemon for the tcp:// execution backend.")
    add_worker_arguments(parser)
    parser.add_argument("--max-tasks", type=int, default=None, help=argparse.SUPPRESS)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
