"""The ``tcp://`` and ``process:N`` execution backends: one transport stack.

``RemoteBackend`` implements the :class:`~repro.federated.backend.ExecutionBackend`
seam over :mod:`repro.net`: the driver binds the blob server
(:class:`~repro.net.server.BlobServer`) and publishes states/contexts into
the shared :class:`~repro.net.service.BlobService`; workers — localhost
daemons forked from the driver (``tcp://:PORT?workers=N``) or externally
started ``repro worker --connect HOST:PORT`` processes on other machines —
lease pickled tasks from the :class:`~repro.net.service.Dispatcher` and push
results back.  Parity is the house invariant: one pickle per task, one per
result, published states cross the socket one ``.npy`` tensor frame at a
time and only where a tensor's digest is new to the other side, so
histories are bit-identical to ``serial``.

:class:`ProcessPoolBackend` (``process[:N]``) is the same backend bound to
an ephemeral loopback port, with N local workers and a handshake secret of
its own.

Failure model: a worker that disconnects mid-round has its leased tasks
re-queued by the server (tasks are pure functions of payload + context, so
re-execution — or a duplicate result from a half-dead worker — is
harmless); local workers that die are respawned (as ``python -m
repro.net.worker``) up to ``max_worker_restarts`` times, after which
``run_tasks`` raises instead of hanging.  A task that raises on a worker
raises the same exception type in the driver, chained to a
:class:`~repro.net.service.RemoteTaskError` that carries the worker's
traceback.

Spec grammar (``make_tcp_backend``, ``make_process_backend``)::

    tcp://HOST:PORT              bind HOST:PORT, wait for external workers
    tcp://:PORT?workers=N        bind PORT (0 = ephemeral), fork N local workers
    ...&refs=BYTES               result-ref threshold (default 1 MiB)
    ...&cache=BYTES              worker cache budget
    ...&secret=TOKEN             shared handshake secret workers must present
                                 (default: the REPRO_NET_SECRET env var)
    process[:N]                  N forked workers over loopback (default: one per CPU)
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import secrets
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar
from urllib.parse import parse_qs, urlsplit

from ..federated.backend import (
    DEFAULT_WORKER_CACHE_BYTES,
    ExecutionBackend,
    _parse_worker_count,
)
from ..utils.serialization import StateRef, StateStore
from .server import (
    DEFAULT_RESULT_REF_THRESHOLD,
    BlobServer,
    DriverChannel,
    serve_in_thread,
)
from .service import BlobService, Dispatcher, RemoteTaskError

__all__ = ["RemoteBackend", "ProcessPoolBackend", "make_tcp_backend", "make_process_backend"]

T = TypeVar("T")
R = TypeVar("R")


class _MapCall:
    """Picklable wrapper turning ``backend.map`` items into context-free tasks."""

    context_free = True

    def __init__(self, fn: Callable, item) -> None:
        self.fn = fn
        self.item = item

    def run(self, context):
        return self.fn(self.item)


class RemoteBackend(ExecutionBackend):
    """Fan tasks out across TCP-connected worker daemons.

    Parameters
    ----------
    host, port:
        Bind address of the blob server (port 0 picks an ephemeral port —
        read it back from :attr:`port` after :meth:`start`).
    workers:
        Localhost worker daemons to start (0 = external workers only).
    result_ref_threshold:
        Result states at least this large come back as refs the driver
        resolves out of the blob table, not inline pickle bytes.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, workers: int = 0,
                 *, cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES,
                 result_ref_threshold: int = DEFAULT_RESULT_REF_THRESHOLD,
                 max_worker_restarts: int = 3,
                 worker_patience: float = 30.0,
                 secret: Optional[str] = None) -> None:
        if int(workers) < 0:
            raise ValueError("workers must be >= 0")
        self.secret = secret
        self.host = host
        self.bind_port = int(port)
        self.workers = int(workers)
        self.cache_bytes = int(cache_bytes)
        self.result_ref_threshold = int(result_ref_threshold)
        self.max_worker_restarts = int(max_worker_restarts)
        self.worker_patience = float(worker_patience)

        self._service: Optional[BlobService] = None
        self._dispatcher: Optional[Dispatcher] = None
        self._server: Optional[BlobServer] = None
        self._server_thread = None
        self._channel: Optional[DriverChannel] = None
        self.state_store: Optional[StateStore] = None
        self._context = None
        self._context_version = -1
        self._procs: List[subprocess.Popen] = []

        #: Times the server (and store) were actually created.
        self.server_starts = 0
        #: Spawned worker daemons respawned after dying.
        self.worker_restarts = 0
        self._task_bytes = 0
        self._tasks_shipped = 0
        self._context_published_bytes = 0
        self._result_refs_resolved = 0
        self._result_ref_bytes = 0
        self._closed_service_stats: Dict[str, object] = {}
        self._closed_counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def port(self) -> Optional[int]:
        """The bound port (differs from the spec's for ephemeral binds)."""
        return self._server.port if self._server is not None else None

    def _ensure_server(self) -> None:
        if self._server is not None:
            return
        self._service = BlobService()
        self._dispatcher = Dispatcher()
        self._server = BlobServer(
            (self.host, self.bind_port), self._service, self._dispatcher,
            result_ref_threshold=self.result_ref_threshold, secret=self.secret)
        self._channel = DriverChannel(self._service)
        self.state_store = StateStore(self._channel)
        self.server_starts += 1
        # Workers first: the socket listens and no server thread exists yet.
        for _ in range(self.workers):
            self._procs.append(self._spawn_worker())
        self._server_thread = serve_in_thread(self._server)

    def _spawn_worker(self):
        """Start one local worker on the server's port: a fork of the driver
        at start-up, so it has the driver's imports (and whatever a test
        patched) and a function :meth:`map` ships resolves as it does here.
        A respawn is exec'd as ``python -m repro.net.worker``, since the
        server thread then runs and a fork would copy any lock it holds into
        the child, held forever; so is any worker where ``fork`` is missing.
        """
        if (self._server_thread is None
                and "fork" in multiprocessing.get_all_start_methods()):
            process = multiprocessing.get_context("fork").Process(
                target=_forked_worker, name="repro-worker", daemon=True,
                args=(self._server.port, self.cache_bytes, self.worker_patience,
                      self.secret, self._server.socket))
            process.start()
            return _ForkedWorker(process)
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (src_dir + os.pathsep + existing) if existing else src_dir
        if self.secret is not None:
            # Via the environment, not argv: command lines are world-readable.
            env["REPRO_NET_SECRET"] = self.secret
        command = [sys.executable, "-m", "repro.net.worker",
                   "--connect", f"127.0.0.1:{self._server.port}",
                   "--cache-bytes", str(self.cache_bytes),
                   "--patience", str(self.worker_patience),
                   "--quiet"]
        return subprocess.Popen(command, env=env)

    def start(self, context=None) -> None:
        if self._started and self._server is not None and context is self._context:
            return
        self._ensure_server()
        self._context_version += 1
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        self._context_published_bytes += len(blob)
        self._service.set_context(self._context_version, blob)
        self._context = context
        self._started = True

    # ------------------------------------------------------------------ #
    def _monitor_workers(self) -> None:
        """Respawn dead spawned workers; raise once nothing can make progress.

        Externally connected workers make the all-spawned-workers-dead
        state survivable, so the raise only fires when the backend owns
        every worker and the respawn budget is spent.
        """
        if not self._procs:
            return
        alive = 0
        for index, proc in enumerate(self._procs):
            if proc.poll() is None:
                alive += 1
                continue
            if self.worker_restarts < self.max_worker_restarts:
                self.worker_restarts += 1
                self._procs[index] = self._spawn_worker()
                alive += 1
        if alive == 0 and self._server.counter_snapshot()["workers_connected"] == 0:
            raise RuntimeError(
                "all spawned tcp:// workers died and the restart budget "
                f"({self.max_worker_restarts}) is exhausted; aborting instead of hanging")

    def _ship(self, task) -> Tuple[int, bytes]:
        blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        self._task_bytes += len(blob)
        self._tasks_shipped += 1
        return (self._context_version, blob)

    def _materialize(self, outcome: Tuple[str, object]):
        status, value = outcome
        if status != "ok":
            remote_traceback, exception = value
            error = RemoteTaskError(f"task failed on a remote worker:\n{remote_traceback}")
            if exception is None:
                raise error
            raise exception from error
        return self._resolve_result_refs(value)

    def _resolve_result_refs(self, value):
        """Swap result-path :class:`StateRef` handles back to live payloads
        (recursing into fused-cohort result lists), then free the blobs."""
        if isinstance(value, (list, tuple)):
            return type(value)(self._resolve_result_refs(item) for item in value)
        state = getattr(value, "state", None)
        if isinstance(state, StateRef) and state.label == "result":
            value.state = self._channel.fetch(state.key, count=False)
            self._channel.drop([state.key])
            self._result_refs_resolved += 1
            self._result_ref_bytes += state.nbytes
        return value

    # ------------------------------------------------------------------ #
    def run_tasks(self, tasks: Sequence) -> List:
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__}.start(context) must be called "
                               "before run_tasks")
        self._note_dispatch(tasks)
        batch = self._dispatcher.submit([self._ship(task) for task in tasks])
        while not self._dispatcher.wait(batch, timeout=0.2):
            self._monitor_workers()
        return [self._materialize(batch.outcomes[index]) for index in range(batch.size)]

    def run_tasks_as_completed(self, tasks: Sequence) -> Iterator[Tuple[int, object]]:
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__}.start(context) must be called "
                               "before run_tasks")
        self._note_dispatch(tasks)
        batch = self._dispatcher.submit([self._ship(task) for task in tasks])
        yielded = 0
        while yielded < batch.size:
            produced = False
            for index, outcome in self._dispatcher.iter_outcomes(batch, timeout=0.2):
                produced = True
                yielded += 1
                yield index, self._materialize(outcome)
            if not produced:
                self._monitor_workers()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        if self._server is None:
            raise RuntimeError(
                f"{type(self).__name__}.map requires a started pool; call start(None) "
                "for context-free fan-out work before map()")
        return self.run_tasks([_MapCall(fn, item) for item in items])

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.shutdown()
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        self._procs = []
        if self._server is not None:
            # Let externally-started workers drain: they poll for tasks at
            # ~1 Hz and exit cleanly on the shutdown sentinel; closing the
            # listener under them would turn a clean exit into a
            # connection-lost error.
            drain_deadline = time.monotonic() + 3.0
            while (time.monotonic() < drain_deadline
                   and self._server.counter_snapshot()["workers_connected"] > 0):
                time.sleep(0.05)
        if self._server is not None:
            self._closed_service_stats = self._service.stats()
            self._closed_counters = self._server.counter_snapshot()
            self._server.close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=2.0)
        self._server = None
        self._server_thread = None
        self._service = None
        self._dispatcher = None
        self._started = False
        self._context = None

    # ------------------------------------------------------------------ #
    def transport_stats(self) -> Dict[str, object]:
        stats = super().transport_stats()
        service_stats = (self._service.stats() if self._service is not None
                         else dict(self._closed_service_stats))
        counters = (self._server.counter_snapshot() if self._server is not None
                    else dict(self._closed_counters))
        stats["task_bytes"] = self._task_bytes
        stats["tasks_shipped"] = self._tasks_shipped
        stats["context_published_bytes"] = self._context_published_bytes
        stats["uploaded_bytes"] = int(service_stats.get("uploaded_bytes", 0))
        stats["result_bytes"] = int(counters.get("result_bytes", 0))
        stats["result_refs_resolved"] = self._result_refs_resolved
        stats["workers_connected"] = int(counters.get("workers_connected", 0))
        stats["worker_disconnects"] = int(counters.get("disconnects", 0))
        stats["tasks_requeued"] = int(counters.get("tasks_requeued", 0))
        stats["worker_restarts"] = self.worker_restarts
        stats["server_starts"] = self.server_starts
        stats["shipped_bytes"] = (int(stats.get("published_bytes", 0))
                                  + int(stats.get("fetched_bytes", 0))
                                  + int(stats.get("context_bytes", 0))
                                  + self._task_bytes
                                  + self._context_published_bytes
                                  + stats["uploaded_bytes"]
                                  + stats["result_bytes"])
        stats["inline_equivalent_bytes"] = (int(stats.get("inline_bytes", 0))
                                            + self._task_bytes
                                            + stats["result_bytes"]
                                            + self._result_ref_bytes)
        return stats


class _ForkedWorker:
    """A forked worker behind the part of the ``Popen`` API the backend uses."""

    def __init__(self, process) -> None:
        self._process = process

    def poll(self) -> Optional[int]:
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(self._process.name, timeout)
        return self._process.exitcode

    def terminate(self) -> None:
        self._process.terminate()

    def kill(self) -> None:
        self._process.kill()


def _forked_worker(port: int, cache_bytes: int, patience: float,
                   secret: Optional[str], listener) -> None:
    """Body of a forked local worker: the worker daemon loop."""
    from .worker import run_worker  # not at module level: see repro.net.__init__

    listener.close()  # the driver's listening socket, inherited across the fork
    sys.exit(run_worker("127.0.0.1", port, cache_bytes=cache_bytes, patience=patience,
                        quiet=True, secret=secret))


class ProcessPoolBackend(RemoteBackend):
    """``process[:N]``: ``tcp://`` with N local workers and nothing to configure.

    The blob server binds an ephemeral loopback port, starts one worker per
    CPU unless told otherwise, and draws its own handshake secret, so no
    other local process can drive its port.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None,
                 cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES) -> None:
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError("max_workers must be at least 1")
        workers = int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        super().__init__("127.0.0.1", 0, workers, cache_bytes=cache_bytes,
                         secret=secrets.token_hex(16))

    @property
    def max_workers(self) -> int:
        return self.workers


# --------------------------------------------------------------------------- #
# Spec parsing (registered under the "tcp" and "process" schemes)
# --------------------------------------------------------------------------- #
def make_process_backend(spec: str, max_workers: Optional[int] = None) -> ProcessPoolBackend:
    """Build a :class:`ProcessPoolBackend` from a ``process[:N]`` spec string."""
    _, sep, argument = str(spec).partition(":")
    return ProcessPoolBackend(_parse_worker_count(spec, argument, bool(sep), max_workers))


def _parse_int(spec: str, name: str, text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid backend spec {spec!r}: {name} must be an "
                         f"integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"invalid backend spec {spec!r}: {name} must be "
                         f">= {minimum}, got {value}")
    return value


def make_tcp_backend(spec: str, max_workers: Optional[int] = None) -> RemoteBackend:
    """Build a :class:`RemoteBackend` from a ``tcp://`` spec string."""
    parsed = urlsplit(str(spec))
    if parsed.scheme != "tcp":
        raise ValueError(f"unknown backend spec {spec!r}; expected a tcp:// URL")
    try:
        port = parsed.port
    except ValueError:
        raise ValueError(f"invalid backend spec {spec!r}: bad port") from None
    if port is None:
        raise ValueError(f"invalid backend spec {spec!r}: a port is required "
                         "(use tcp://:0 for an ephemeral port)")
    host = parsed.hostname or "127.0.0.1"
    query = parse_qs(parsed.query, keep_blank_values=True)
    unknown = set(query) - {"workers", "refs", "cache", "secret"}
    if unknown:
        raise ValueError(f"invalid backend spec {spec!r}: unknown option(s) "
                         f"{', '.join(sorted(unknown))}")

    workers = max_workers if max_workers is not None else 0
    if "workers" in query:
        workers = _parse_int(spec, "workers", query["workers"][-1], minimum=0)
    threshold = (_parse_int(spec, "refs", query["refs"][-1], minimum=0)
                 if "refs" in query else DEFAULT_RESULT_REF_THRESHOLD)
    cache = (_parse_int(spec, "cache", query["cache"][-1], minimum=1)
             if "cache" in query else DEFAULT_WORKER_CACHE_BYTES)
    secret = (query["secret"][-1] if "secret" in query
              else os.environ.get("REPRO_NET_SECRET")) or None
    return RemoteBackend(host=host, port=port, workers=workers, cache_bytes=cache,
                         result_ref_threshold=threshold, secret=secret)
