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

Two backends live here:

* :class:`SerialBackend` — runs tasks in-process (the default; identical to
  the historical behaviour).  Its state table stores live objects, so the
  serial path pays no serialization cost.
* :class:`ThreadBackend` — a thread pool sharing the in-process state
  table.  Useful where ``fork`` is unavailable (or as a drop-in sanity
  check); the GIL means it is about determinism and portability, not
  speed.

Every backend whose workers are other processes runs on :mod:`repro.net`:
``process[:N]`` (:class:`~repro.net.backend.ProcessPoolBackend`, workers
forked on this host over loopback) and ``tcp://`` (workers anywhere).  Both
are registered here and imported on first use.

All backends produce **bit-identical** training histories (verified by the
backend parity tests) and surface transport counters — cache hits/misses,
bytes published/fetched/shipped — via :meth:`ExecutionBackend.transport_stats`.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
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
    active numeric policy, which workers in other processes install
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
    (lookups are direct, nothing is ever copied or encoded); ``process:N``
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


# The runtime active while tasks execute: set by the worker daemon loop in
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
# Backend registry (mirrors the strategy registry in federated.strategies)
# --------------------------------------------------------------------------- #
#: name -> (factory(spec, max_workers) -> backend, one-line description).
_BACKEND_REGISTRY: Dict[str, Tuple[Callable[[str, Optional[int]], ExecutionBackend], str]] = {}

#: Backends that live in modules we do not want to import eagerly
#: (``repro.net`` pulls in sockets/subprocess machinery): name ->
#: ("module:factory", description), resolved on first use.
_BUILTIN_BACKENDS: Dict[str, Tuple[str, str]] = {
    "process": ("repro.net.backend:make_process_backend",
                "worker processes forked on this host, over the tcp:// stack on "
                "loopback (process[:N])"),
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


register_backend("serial", _make_serial,
                 description="in-process, zero-serialization (default)")
register_backend("thread", _make_thread,
                 description="thread pool sharing the in-process state table (thread[:N])")


def make_backend(spec: Optional[str] = None, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build a backend from a string spec, with uniform validation.

    ``None`` / ``"serial"`` → :class:`SerialBackend`;
    ``"thread"`` / ``"thread:N"`` → :class:`ThreadBackend` with N threads;
    ``"process"`` / ``"process:N"`` → :class:`~repro.net.backend.ProcessPoolBackend`
    with N forked workers;
    ``"tcp://HOST:PORT[?workers=N]"`` → the multi-node
    :class:`~repro.net.backend.RemoteBackend`.  Additional schemes plug in
    via :func:`register_backend`.
    """
    if spec is None:
        return SerialBackend()
    spec = str(spec)
    kind = spec.split("://", 1)[0] if "://" in spec else spec.partition(":")[0]
    return get_backend_factory(kind)(spec, max_workers)
