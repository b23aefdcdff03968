"""Pluggable execution backends for device-side federated work.

Federated rounds are embarrassingly parallel across devices: each device
trains on its private shard independently before any aggregation happens.
This module turns that observation into an architectural seam.  All
device-side work — local SGD, FedMD's digest/revisit, on-device evaluation,
public-logit computation — is expressed as small *picklable task objects*
that an :class:`ExecutionBackend` executes against a :class:`WorkerContext`
(the per-process registry of model replicas, data shards, and training
configs).

Parameter payloads travel through the **content-addressed state transport**
(:mod:`repro.utils.serialization`): the driver publishes each state dict
once per round into the backend's :class:`~repro.utils.serialization.StateStore`
and tasks carry tiny :class:`~repro.utils.serialization.StateRef` handles.
A worker that misses its bounded LRU cache of resolved states fetches the
payload a single time over the backend's
:class:`~repro.utils.serialization.StateChannel`; every later task that
references the same content is a cache hit.  A payload field holds one of
two things — a ``StateRef`` or live numpy arrays (a state dict, an array
list) — and :func:`resolve_state` / :func:`resolve_arrays` accept both, so
tasks built directly in tests and third-party code work unchanged.  Nothing
here encodes an inline payload: a task or result that crosses a process
boundary is pickled whole by its backend, arrays included.

Three backends are provided:

* :class:`SerialBackend` — runs tasks in-process (the default; identical to
  the historical behaviour).  Its state table stores live objects, so the
  serial path pays no serialization cost.
* :class:`ThreadBackend` — a thread pool sharing the in-process state
  table.  Useful where ``fork`` is unavailable (or as a drop-in sanity
  check); the GIL means it is about determinism and portability, not
  speed.
* :class:`ProcessPoolBackend` — fans tasks out across worker processes.
  The pool is **persistent**: a new :class:`WorkerContext` is published
  through the state channel and installed lazily by workers instead of
  tearing the pool down.  Published payloads are served from a
  manager-hosted table of pickled blobs (the channel pickles on publish and
  unpickles on fetch); per-task payloads are pickled task objects carrying
  refs.

All backends produce **bit-identical** training histories (verified by the
backend parity tests) and surface transport counters — cache hits/misses,
bytes published/fetched/shipped — via :meth:`ExecutionBackend.transport_stats`.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing.managers import BaseManager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..datasets.base import ImageDataset
from ..models.base import ClassificationModel
from ..nn.buffers import scratch_pool
from ..nn.policy import numeric_policy, set_numeric_policy
from ..utils.serialization import InProcessStateTable, StateLike, StateRef, StateStore
from .trainer import (
    DeviceTrainingConfig,
    LocalTrainingReport,
    compute_public_logits,
    digest_on_public,
    evaluate_accuracy,
    local_sgd_train,
)

__all__ = [
    "WorkerContext",
    "build_worker_context",
    "LocalTrainTask",
    "LocalTrainResult",
    "EvaluateTask",
    "PublicLogitsTask",
    "DigestSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "make_backend",
    "register_backend",
    "get_backend_factory",
    "backend_names",
    "backend_descriptions",
    "resolve_state",
    "resolve_arrays",
    "iter_state_refs",
    "LRUStateCache",
    "WorkerRuntime",
    "DEFAULT_WORKER_CACHE_BYTES",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default byte budget of each worker's LRU cache of resolved states.
DEFAULT_WORKER_CACHE_BYTES = 256 * 1024 * 1024


# --------------------------------------------------------------------------- #
# Worker-side context
# --------------------------------------------------------------------------- #
@dataclass
class WorkerContext:
    """Everything a worker needs to execute device tasks.

    Published to workers through the state channel when the backend starts
    (and re-published on context changes — the pool itself survives);
    per-round tasks then only carry :class:`StateRef` handles and
    shard/device indices, never model architectures or pixel data.
    """

    models: Dict[int, ClassificationModel] = field(default_factory=dict)
    shards: Dict[int, ImageDataset] = field(default_factory=dict)
    train_configs: Dict[int, DeviceTrainingConfig] = field(default_factory=dict)
    eval_dataset: Optional[ImageDataset] = None
    public_dataset: Optional[ImageDataset] = None
    #: Numeric-policy name the driver ran under when the context was built;
    #: workers in fresh processes apply it on context installation so both
    #: sides of a process boundary compute in the same precision.
    numeric_policy: str = "float64"

    def model_for(self, device_id: int) -> ClassificationModel:
        try:
            return self.models[device_id]
        except KeyError:
            raise KeyError(f"worker context has no model replica for device {device_id}")


def build_worker_context(devices, eval_dataset: Optional[ImageDataset] = None,
                         public_dataset: Optional[ImageDataset] = None) -> WorkerContext:
    """Assemble a :class:`WorkerContext` from a sequence of devices.

    Shared by every simulation loop so the context layout stays consistent
    across algorithm families.  The context is stamped with the driver's
    active numeric policy, which process-pool (and remote) workers install
    alongside the context.
    """
    return WorkerContext(
        models={device.device_id: device.model for device in devices},
        shards={device.device_id: device.dataset for device in devices},
        train_configs={device.device_id: device.training_config for device in devices},
        eval_dataset=eval_dataset,
        public_dataset=public_dataset,
        numeric_policy=numeric_policy().name,
    )


# --------------------------------------------------------------------------- #
# Worker runtime: state cache + context lifecycle + ref resolution
# --------------------------------------------------------------------------- #
class LRUStateCache:
    """Bounded (by payload bytes) LRU cache of resolved state payloads."""

    def __init__(self, max_bytes: int = DEFAULT_WORKER_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: str, value, nbytes: int) -> None:
        nbytes = max(int(nbytes), 1)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[1]
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes


class WorkerRuntime:
    """Per-worker state: the installed context plus the ref-resolution path.

    In-process backends hand the runtime their live state ``table``
    (lookups are direct, nothing is ever copied or encoded); process-pool
    and ``tcp://`` workers get their ``channel`` to the driver's table and
    keep a bounded :class:`LRUStateCache` of fetched payloads in front of
    it — a cache miss fetches the payload exactly once.
    """

    def __init__(self, channel=None, table: Optional[InProcessStateTable] = None,
                 cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES,
                 context: Optional[WorkerContext] = None) -> None:
        self.channel = channel
        self.table = table
        self.cache = LRUStateCache(cache_bytes) if channel is not None else None
        self.context = context
        self.context_version = -1

    def resolve(self, ref: StateRef):
        """Materialize a :class:`StateRef` (dict for ``"state"``, list for
        ``"arrays"``).  Resolved payloads are shared and must be treated as
        read-only by tasks.

        The ref's ``round_version`` is also how a worker learns that the
        driver moved to a new round, which is when its scratch pool trims.
        """
        scratch_pool().enter_round(ref.round_version)
        if self.table is not None:
            return self.table.fetch(ref.key)
        cached = self.cache.get(ref.key)
        if cached is not None:
            self.cache.hits += 1
            return cached
        self.cache.misses += 1
        value = self.channel.fetch(ref.key, True)
        self.cache.put(ref.key, value, ref.nbytes)
        return value

    def ensure_context(self, version: int) -> None:
        """Install the context version the driver stamped on a task batch,
        fetching the (re)published context from the channel if stale.
        Installing a context also applies its numeric policy, so worker
        processes spawned with the float64 default match a float32 driver."""
        if self.channel is None or version == self.context_version:
            return
        current, blob = self.channel.get_context(self.context_version)
        if blob is not None:
            self.context = pickle.loads(blob)
            if self.context is not None:
                set_numeric_policy(getattr(self.context, "numeric_policy", "float64"))
        self.context_version = current


# The runtime active while tasks execute: set by the pool initializer in
# worker processes, swapped around in-process execution by serial/thread
# backends.
_ACTIVE_RUNTIME: Optional[WorkerRuntime] = None


def _swap_runtime(runtime: Optional[WorkerRuntime]) -> Optional[WorkerRuntime]:
    global _ACTIVE_RUNTIME
    previous = _ACTIVE_RUNTIME
    _ACTIVE_RUNTIME = runtime
    return previous


def _current_runtime() -> WorkerRuntime:
    if _ACTIVE_RUNTIME is None:
        raise RuntimeError(
            "no worker runtime active; StateRef payloads can only be resolved "
            "while a backend is executing tasks")
    return _ACTIVE_RUNTIME


def resolve_state(value: Union[StateRef, StateLike]) -> Dict[str, np.ndarray]:
    """Materialize a task's state payload: a ref, or the plain dict itself."""
    if isinstance(value, StateRef):
        return _current_runtime().resolve(value)
    return value


def resolve_arrays(value) -> Optional[List[np.ndarray]]:
    """Materialize an array-list payload: a ref, or the plain list itself."""
    if isinstance(value, StateRef):
        return _current_runtime().resolve(value)
    return value


def _single_array(value) -> np.ndarray:
    """Materialize a single-array payload: a one-entry ref, or the array itself."""
    if isinstance(value, StateRef):
        return resolve_arrays(value)[0]
    return value


# --------------------------------------------------------------------------- #
# Device tasks
# --------------------------------------------------------------------------- #
@dataclass
class DigestSpec:
    """FedMD digest phase riding along with a local-training task.

    ``consensus`` is the (N, C) matrix of consensus scores over the public
    dataset — published once per round as a shared :class:`StateRef` by the
    FedMD strategy (or a plain array when constructed directly).
    """

    consensus: Union[StateRef, np.ndarray]
    epochs: int
    lr: float
    batch_size: int
    seed: int


def iter_state_refs(task) -> Iterator[StateRef]:
    """Yield every :class:`StateRef` a task carries (used by the backends'
    dispatch accounting).  Walks direct fields, list/tuple fields, and a
    nested :class:`DigestSpec` (directly or inside a list, as a fused
    cohort task carries them)."""
    payload = getattr(task, "__dict__", None)
    if not payload:
        return
    for value in payload.values():
        if isinstance(value, StateRef):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, StateRef):
                    yield item
                elif isinstance(item, DigestSpec):
                    yield from iter_state_refs(item)
        elif isinstance(value, DigestSpec):
            yield from iter_state_refs(value)


@dataclass
class LocalTrainTask:
    """Train one device's model on its private shard (Algorithm 2).

    Carries the device's current parameters (a :class:`StateRef` when
    dispatched through a simulation), the shuffle RNG state, and the
    optional proximal anchor; ``digest`` prepends FedMD's digest phase so
    digest + revisit ship as a single round trip.
    """

    device_id: int
    state: Union[StateRef, StateLike]
    epochs: int
    rng_state: dict
    anchor: Union[StateRef, List[np.ndarray], None] = None
    digest: Optional[DigestSpec] = None

    def run(self, context: WorkerContext) -> "LocalTrainResult":
        model = context.model_for(self.device_id)
        model.load_state_dict(resolve_state(self.state))
        config = context.train_configs[self.device_id]
        rng = np.random.default_rng()
        rng.bit_generator.state = self.rng_state

        digest_loss: Optional[float] = None
        if self.digest is not None:
            if context.public_dataset is None:
                raise RuntimeError("digest task requires a public dataset in the worker context")
            digest_loss = digest_on_public(
                model, context.public_dataset,
                _single_array(self.digest.consensus), lr=self.digest.lr,
                batch_size=self.digest.batch_size, epochs=self.digest.epochs,
                rng=np.random.default_rng(self.digest.seed))

        anchor = resolve_arrays(self.anchor)
        report = local_sgd_train(model, context.shards[self.device_id], self.epochs,
                                 config, rng, anchor=anchor, device_id=self.device_id)
        return LocalTrainResult(
            device_id=self.device_id,
            state=model.state_dict(),
            report=report,
            rng_state=rng.bit_generator.state,
            digest_loss=digest_loss,
        )


@dataclass
class LocalTrainResult:
    """Updated parameters + statistics returned by a :class:`LocalTrainTask`.

    Results flow worker → driver exactly once, so they keep carrying their
    state inline rather than a ref (the ``tcp://`` worker swaps a large one
    for a result ref, which the driver resolves before anyone sees it).
    """

    device_id: int
    state: StateLike
    report: LocalTrainingReport
    rng_state: dict
    digest_loss: Optional[float] = None


@dataclass
class EvaluateTask:
    """Evaluate a parameter set on the context's held-out test dataset."""

    device_id: int
    state: Union[StateRef, StateLike]
    batch_size: int = 256

    def run(self, context: WorkerContext) -> float:
        if context.eval_dataset is None:
            raise RuntimeError("evaluate task requires an eval dataset in the worker context")
        model = context.model_for(self.device_id)
        model.load_state_dict(resolve_state(self.state))
        return evaluate_accuracy(model, context.eval_dataset, batch_size=self.batch_size)


@dataclass
class PublicLogitsTask:
    """Compute a device's class scores on the context's public dataset (FedMD)."""

    device_id: int
    state: Union[StateRef, StateLike]
    batch_size: int = 256

    def run(self, context: WorkerContext) -> np.ndarray:
        if context.public_dataset is None:
            raise RuntimeError("public-logits task requires a public dataset in the worker context")
        model = context.model_for(self.device_id)
        model.load_state_dict(resolve_state(self.state))
        return compute_public_logits(model, context.public_dataset, batch_size=self.batch_size)


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """Abstract executor for device tasks and generic fan-out work.

    Lifecycle: :meth:`start` installs a :class:`WorkerContext` (may be
    ``None`` for context-free workloads such as experiment sweeps), then
    :meth:`run_tasks` / :meth:`map` execute work, and :meth:`shutdown`
    releases resources.  Backends are reusable across rounds; ``start`` is
    idempotent for the same context object, and a *different* context is
    re-published to live workers without tearing pools down.

    Every backend owns a driver-side
    :class:`~repro.utils.serialization.StateStore` (``state_store``) that
    dispatchers publish parameter payloads into; :meth:`transport_stats`
    surfaces the resulting cache and bytes-shipped counters.
    """

    name = "base"

    #: The backend's content-addressed state store (assigned by concrete
    #: backends; ``None`` only for bare third-party subclasses).
    state_store: Optional[StateStore] = None

    _started = False

    @property
    def is_started(self) -> bool:
        """Whether :meth:`start` has been called (context may be ``None``)."""
        return self._started

    def start(self, context: Optional[WorkerContext] = None) -> None:
        raise NotImplementedError

    def run_tasks(self, tasks: Sequence) -> List:
        """Execute device tasks, returning results in task order."""
        raise NotImplementedError

    def run_tasks_as_completed(self, tasks: Sequence) -> Iterator[Tuple[int, object]]:
        """Execute device tasks, yielding ``(task_index, result)`` pairs as
        each completes.

        On parallel backends the completion order is nondeterministic (it
        reflects real worker timing), which is why callers that need
        reproducibility — the deadline/async round schedulers — key results
        by task index and re-order on the *simulated* clock afterwards.
        The default implementation yields in task order.
        """
        for index, result in enumerate(self.run_tasks(tasks)):
            yield index, result

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Generic ordered fan-out of ``fn`` over ``items``."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pool resources (no-op for in-process backends)."""

    # ------------------------------------------------------------------ #
    def _note_dispatch(self, tasks: Sequence) -> None:
        """Record the :class:`StateRef` payloads a task batch carries."""
        store = self.state_store
        if store is None:
            return
        refs = [ref for task in tasks for ref in iter_state_refs(task)]
        if refs:
            store.note_dispatch(refs)

    def transport_stats(self) -> Dict[str, object]:
        """State-transport counters: cache hits/misses, bytes published /
        fetched / shipped, and the per-label breakdown.

        ``inline_equivalent_bytes`` is what the pre-store wire format would
        have shipped (payloads inlined into every task); ``shipped_bytes``
        is what actually crossed a process boundary (zero for in-process
        backends).
        """
        store = self.state_store
        stats: Dict[str, object] = dict(store.stats()) if store is not None else {}
        stats["backend"] = self.name
        stats["pool_restarts"] = getattr(self, "pool_restarts", 0)
        stats.setdefault("task_bytes", 0)
        stats["shipped_bytes"] = (int(stats.get("published_bytes", 0))
                                  + int(stats.get("fetched_bytes", 0)))
        stats["inline_equivalent_bytes"] = int(stats.get("inline_bytes", 0))
        return stats

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()


class SerialBackend(ExecutionBackend):
    """Run every task in the calling process (default; historical behaviour)."""

    name = "serial"

    def __init__(self) -> None:
        self._table = InProcessStateTable()
        self.state_store = StateStore(self._table)
        self._runtime = WorkerRuntime(table=self._table)
        self._context: Optional[WorkerContext] = None

    def start(self, context: Optional[WorkerContext] = None) -> None:
        self._context = context
        self._runtime.context = context
        self._started = True

    def run_tasks(self, tasks: Sequence) -> List:
        if self._context is None:
            raise RuntimeError("SerialBackend.start(context) must be called before run_tasks")
        self._note_dispatch(tasks)
        previous = _swap_runtime(self._runtime)
        try:
            return [task.run(self._context) for task in tasks]
        finally:
            _swap_runtime(previous)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Fan tasks out across a thread pool sharing the in-process state table.

    Useful where ``fork`` is unavailable (sandboxes, Windows spawn-cost
    concerns) or as a drop-in concurrency sanity check: results are
    bit-identical to the serial backend because each dispatch batch touches
    disjoint per-device models and all randomness is carried explicitly in
    the tasks.  The GIL serializes numpy-bound work, so this backend is
    about portability, not wall-clock speedups.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        self._table = InProcessStateTable()
        self.state_store = StateStore(self._table)
        self._runtime = WorkerRuntime(table=self._table)
        self._context: Optional[WorkerContext] = None
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self, context: Optional[WorkerContext] = None) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers,
                                            thread_name_prefix="repro-worker")
        self._context = context
        self._runtime.context = context
        self._started = True

    def run_tasks(self, tasks: Sequence) -> List:
        if self._pool is None or self._context is None:
            raise RuntimeError("ThreadBackend.start(context) must be called before run_tasks")
        self._note_dispatch(tasks)
        context = self._context
        previous = _swap_runtime(self._runtime)
        try:
            return list(self._pool.map(lambda task: task.run(context), tasks))
        finally:
            _swap_runtime(previous)

    def run_tasks_as_completed(self, tasks: Sequence) -> Iterator[Tuple[int, object]]:
        if self._pool is None or self._context is None:
            raise RuntimeError("ThreadBackend.start(context) must be called before run_tasks")
        self._note_dispatch(tasks)
        context = self._context
        previous = _swap_runtime(self._runtime)
        try:
            futures = {self._pool.submit(task.run, context): index
                       for index, task in enumerate(tasks)}
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            _swap_runtime(previous)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        if self._pool is None:
            raise RuntimeError("ThreadBackend.map requires a started pool; "
                               "call start() before map()")
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started = False


# --------------------------------------------------------------------------- #
# Process-pool backend: manager-served state channel + persistent workers
# --------------------------------------------------------------------------- #
class _StateService:
    """The shared blob table, hosted in the manager server process.

    The far side of the process-pool
    :class:`~repro.utils.serialization.StateChannel`: the driver's
    :class:`_ManagedChannel` publishes pickled payloads (and pickled
    contexts) into it once, each worker's channel fetches on cache miss
    over the manager's pipe/socket transport, and every wire transfer is
    counted here — which is what makes the hit/miss and bytes-shipped
    statistics exact without any per-hit IPC.  The table itself never looks
    inside a blob.
    """

    def __init__(self) -> None:
        # BaseManager serves each proxy connection from its own thread, so
        # every read-modify-write below must hold the lock — unguarded
        # counter increments would lose updates under concurrent worker
        # fetches, silently inflating the hit rate the CI gate checks.
        self._lock = threading.Lock()
        self._blobs: Dict[str, Tuple[bytes, str]] = {}
        self._context_blob: Optional[bytes] = None
        self._context_version = -1
        self._fetches = 0
        self._fetched_bytes = 0
        self._context_fetches = 0
        self._context_bytes = 0
        self._by_label: Dict[str, Dict[str, int]] = {}

    def publish(self, key: str, blob: bytes, label: str = "") -> None:
        with self._lock:
            self._blobs[key] = (blob, label)

    def fetch(self, key: str, count: bool = True) -> bytes:
        with self._lock:
            entry = self._blobs.get(key)
            if entry is None:
                raise KeyError(f"state ref {key!r} is not in the shared state table; "
                               "it was never published or was evicted before use")
            blob, label = entry
            if count:
                self._fetches += 1
                self._fetched_bytes += len(blob)
                bucket = self._by_label.setdefault(label,
                                                   {"fetches": 0, "fetched_bytes": 0})
                bucket["fetches"] += 1
                bucket["fetched_bytes"] += len(blob)
            return blob

    def drop(self, keys: Sequence[str]) -> None:
        with self._lock:
            for key in keys:
                self._blobs.pop(key, None)

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


class _StateManager(BaseManager):
    pass


_StateManager.register("StateService", _StateService)


class _ManagedChannel:
    """The :class:`StateChannel` over the manager proxy, on either side of it.

    The one place a published payload becomes bytes on ``process:N``: live
    arrays are pickled in :meth:`publish` (driver) and unpickled in
    :meth:`fetch` (a worker's cache miss, or a driver-side read), so the
    blobs exist only between a driver and the workers it forked.
    Snapshots the service counters on :meth:`close` so transport statistics
    stay readable after the backend shuts its manager down.
    """

    def __init__(self, service) -> None:
        self._service = service
        self._closed_stats: Dict[str, object] = {}

    def publish(self, key: str, payload, label: str = "") -> int:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._service.publish(key, blob, label)
        return len(blob)

    def fetch(self, key: str, count: bool = True):
        return pickle.loads(self._service.fetch(key, count))

    def get_context(self, have_version: int) -> Tuple[int, Optional[bytes]]:
        return self._service.get_context(have_version)

    def drop(self, keys: Sequence[str]) -> None:
        self._service.drop(list(keys))

    def stats(self) -> Dict[str, object]:
        if self._service is None:
            return self._closed_stats
        return self._service.stats()

    def close(self) -> None:
        if self._service is not None:
            try:
                self._closed_stats = self._service.stats()
            except Exception:  # noqa: BLE001 — manager may already be gone
                pass
            self._service = None


def _init_worker(service, cache_bytes: int) -> None:
    """Pool initializer: install the worker runtime around the shared channel."""
    _swap_runtime(WorkerRuntime(channel=_ManagedChannel(service), cache_bytes=cache_bytes))


def _execute_shipped(payload: Tuple[int, bytes]):
    """Worker-side task entry point: sync the context, then run the task."""
    context_version, task_blob = payload
    runtime = _ACTIVE_RUNTIME
    if runtime is None:
        raise RuntimeError("worker runtime missing; was the pool initialized by "
                           "ProcessPoolBackend?")
    runtime.ensure_context(context_version)
    task = pickle.loads(task_blob)
    if runtime.context is None:
        raise RuntimeError("no WorkerContext installed; was the backend started "
                           "with a context before dispatching device tasks?")
    return task.run(runtime.context)


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out across a persistent pool of worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count (defaults to ``os.cpu_count()``).
    start_method:
        Multiprocessing start method (``"fork"`` on Linux is cheapest;
        ``None`` uses the platform default).
    cache_bytes:
        Byte budget of each worker's LRU cache of resolved states.

    The pool and its manager-hosted state channel are created lazily on the
    first :meth:`start`.  Contexts and parameter payloads travel through
    the channel: a *different* context object is re-published (workers
    install it lazily, keyed by a context version stamped onto every task
    batch) instead of respawning the pool, and per-task payloads are tiny
    pickled tasks carrying :class:`StateRef` handles — a worker fetches
    each referenced blob at most once per cache lifetime.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 cache_bytes: int = DEFAULT_WORKER_CACHE_BYTES) -> None:
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        self.start_method = start_method
        self.cache_bytes = int(cache_bytes)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._manager: Optional[_StateManager] = None
        self._service = None
        self._channel: Optional[_ManagedChannel] = None
        self.state_store: Optional[StateStore] = None
        self._context: Optional[WorkerContext] = None
        self._context_version = -1
        #: Times a worker pool was actually created; a context change on a
        #: live pool must NOT increment this (pinned by the transport tests).
        self.pool_restarts = 0
        self._task_bytes = 0
        self._tasks_shipped = 0
        self._context_published_bytes = 0

    # ------------------------------------------------------------------ #
    def _mp_context(self):
        import multiprocessing

        return (multiprocessing.get_context(self.start_method) if self.start_method
                else multiprocessing.get_context())

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        mp_context = self._mp_context()
        if self._service is None:
            self._manager = _StateManager(ctx=mp_context)
            self._manager.start()
            self._service = self._manager.StateService()
            self._channel = _ManagedChannel(self._service)
            self.state_store = StateStore(self._channel)
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(self._service, self.cache_bytes),
        )
        self.pool_restarts += 1

    def start(self, context: Optional[WorkerContext] = None) -> None:
        if self._started and self._pool is not None and context is self._context:
            return
        self._ensure_pool()
        self._context_version += 1
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        self._context_published_bytes += len(blob)
        self._service.set_context(self._context_version, blob)
        self._context = context
        self._started = True

    # ------------------------------------------------------------------ #
    def _ship(self, task) -> Tuple[int, bytes]:
        blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        self._task_bytes += len(blob)
        self._tasks_shipped += 1
        return (self._context_version, blob)

    def run_tasks(self, tasks: Sequence) -> List:
        if self._pool is None:
            raise RuntimeError("ProcessPoolBackend.start(context) must be called before run_tasks")
        self._note_dispatch(tasks)
        payloads = [self._ship(task) for task in tasks]
        return list(self._pool.map(_execute_shipped, payloads))

    def run_tasks_as_completed(self, tasks: Sequence) -> Iterator[Tuple[int, object]]:
        if self._pool is None:
            raise RuntimeError("ProcessPoolBackend.start(context) must be called before run_tasks")
        self._note_dispatch(tasks)
        futures = {self._pool.submit(_execute_shipped, self._ship(task)): index
                   for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            yield futures[future], future.result()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        if self._pool is None:
            raise RuntimeError(
                "ProcessPoolBackend.map requires a started pool; call start(None) "
                "for context-free fan-out work (e.g. experiment sweeps) before map()")
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._channel is not None:
            self._channel.close()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
        self._service = None
        self._started = False
        self._context = None

    def transport_stats(self) -> Dict[str, object]:
        stats = super().transport_stats()
        stats["task_bytes"] = self._task_bytes
        stats["tasks_shipped"] = self._tasks_shipped
        stats["context_published_bytes"] = self._context_published_bytes
        stats["shipped_bytes"] = (int(stats.get("published_bytes", 0))
                                  + int(stats.get("fetched_bytes", 0))
                                  + int(stats.get("context_bytes", 0))
                                  + self._task_bytes
                                  + self._context_published_bytes)
        stats["inline_equivalent_bytes"] = (int(stats.get("inline_bytes", 0))
                                            + self._task_bytes)
        return stats


# --------------------------------------------------------------------------- #
# Backend registry (mirrors the strategy registry in federated.strategies)
# --------------------------------------------------------------------------- #
#: name -> (factory(spec, max_workers) -> backend, one-line description).
_BACKEND_REGISTRY: Dict[str, Tuple[Callable[[str, Optional[int]], ExecutionBackend], str]] = {}

#: Backends that live in modules we do not want to import eagerly
#: (``repro.net`` pulls in sockets/subprocess machinery): name ->
#: ("module:factory", description), resolved on first use.
_BUILTIN_BACKENDS: Dict[str, Tuple[str, str]] = {
    "tcp": ("repro.net.backend:make_tcp_backend",
            "multi-node over TCP: tcp://HOST:PORT (external workers) or "
            "tcp://:PORT?workers=N (spawned localhost daemons)"),
}


def register_backend(name: str,
                     factory: Callable[[str, Optional[int]], ExecutionBackend],
                     *, description: str = "", replace: bool = False) -> None:
    """Register a backend scheme with :func:`make_backend`.

    ``factory`` receives the *full* spec string (so schemes define their own
    grammar after the name) and the ``max_workers`` override.  Third-party
    schemes register exactly like the built-ins; ``repro list`` picks up
    the description.
    """
    name = str(name)
    if not replace and (name in _BACKEND_REGISTRY or name in _BUILTIN_BACKENDS):
        raise ValueError(f"backend {name!r} is already registered; "
                         "pass replace=True to override it")
    _BUILTIN_BACKENDS.pop(name, None)
    _BACKEND_REGISTRY[name] = (factory, description)


def get_backend_factory(name: str) -> Callable[[str, Optional[int]], ExecutionBackend]:
    """Resolve a registered backend factory (imports lazy built-ins)."""
    entry = _BACKEND_REGISTRY.get(name)
    if entry is not None:
        return entry[0]
    builtin = _BUILTIN_BACKENDS.get(name)
    if builtin is not None:
        import importlib

        target, description = builtin
        module_name, _, attribute = target.partition(":")
        factory = getattr(importlib.import_module(module_name), attribute)
        _BACKEND_REGISTRY[name] = (factory, description)
        return factory
    raise ValueError(f"unknown backend spec {name!r}; "
                     f"registered backends: {', '.join(backend_names())}")


def backend_names() -> List[str]:
    """Sorted names of every registered backend scheme."""
    return sorted(set(_BACKEND_REGISTRY) | set(_BUILTIN_BACKENDS))


def backend_descriptions() -> Dict[str, str]:
    """name -> one-line description for every registered backend."""
    merged = {name: description for name, (_, description) in _BUILTIN_BACKENDS.items()}
    merged.update({name: description
                   for name, (_, description) in _BACKEND_REGISTRY.items()})
    return dict(sorted(merged.items()))


def _parse_worker_count(spec: str, argument: str, has_argument: bool,
                        max_workers: Optional[int]) -> Optional[int]:
    workers = max_workers
    if has_argument:
        try:
            workers = int(argument)
        except ValueError:
            raise ValueError(f"invalid backend spec {spec!r}: worker count must be "
                             f"an integer, got {argument!r}") from None
    if workers is not None and int(workers) < 1:
        raise ValueError(f"invalid backend spec {spec!r}: worker count must be a "
                         f"positive integer, got {workers}")
    return workers


def _make_serial(spec: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    _, sep, _ = str(spec).partition(":")
    if sep:
        raise ValueError(f"invalid backend spec {spec!r}: "
                         "'serial' does not take a worker count")
    return SerialBackend()


def _make_thread(spec: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    _, sep, argument = str(spec).partition(":")
    return ThreadBackend(max_workers=_parse_worker_count(spec, argument, bool(sep), max_workers))


def _make_process(spec: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    _, sep, argument = str(spec).partition(":")
    return ProcessPoolBackend(max_workers=_parse_worker_count(spec, argument, bool(sep), max_workers))


register_backend("serial", _make_serial,
                 description="in-process, zero-serialization (default)")
register_backend("thread", _make_thread,
                 description="thread pool sharing the in-process state table (thread[:N])")
register_backend("process", _make_process,
                 description="persistent process pool + manager-served blob table (process[:N])")


def make_backend(spec: Optional[str] = None, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build a backend from a string spec, with uniform validation.

    ``None`` / ``"serial"`` → :class:`SerialBackend`;
    ``"thread"`` / ``"thread:N"`` → :class:`ThreadBackend` with N threads;
    ``"process"`` / ``"process:N"`` → :class:`ProcessPoolBackend` with N workers;
    ``"tcp://HOST:PORT[?workers=N]"`` → the multi-node
    :class:`~repro.net.backend.RemoteBackend`.  Additional schemes plug in
    via :func:`register_backend`.
    """
    if spec is None:
        return SerialBackend()
    spec = str(spec)
    kind = spec.split("://", 1)[0] if "://" in spec else spec.partition(":")[0]
    return get_backend_factory(kind)(spec, max_workers)
