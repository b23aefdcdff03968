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
A worker that misses its cache of resolved states fetches the payload a
single time over the backend's
:class:`~repro.utils.serialization.StateChannel`; every later task that
references the same content is a cache hit.  The cache follows the store's
round lifecycle: a worker holds what it fetched in the current and the
previous round, under a byte cap.  Nothing here encodes an inline payload:
a task or result that crosses a process boundary is pickled whole by its
backend, arrays included.

Every backend runs a task the same way, through its worker's
:class:`WorkerRuntime`: on model replicas the worker owns, with every
``StateRef`` the task carries already replaced by its payload
(:meth:`WorkerRuntime.run`).  A task body therefore reads live arrays from
its fields, whether it was dispatched with refs or built directly with
arrays, and no task can write a model the driver holds.

One backend lives here: :class:`SerialBackend` runs tasks in-process (the
default).  Its runtime holds a copy of the context's models and its state
table stores live objects, so the serial path pays no serialization cost.

Every backend whose workers are other processes runs on :mod:`repro.net`:
``process[:N]`` (:class:`~repro.net.backend.ProcessPoolBackend`, workers
forked on this host over loopback) and ``tcp://`` (workers anywhere).  Both
are built by :func:`make_backend`, which imports them on first use.

All backends produce **bit-identical** training histories (verified by the
backend parity tests) and surface transport counters — cache hits/misses,
bytes published/fetched/shipped — via :meth:`ExecutionBackend.transport_stats`.
"""

from __future__ import annotations

import copy
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..datasets.base import ImageDataset
from ..models.base import ClassificationModel
from ..nn.buffers import scratch_pool
from ..nn.layers import dropout_states, load_dropout_states
from ..nn.policy import numeric_policy, set_numeric_policy
from ..utils.serialization import (
    InProcessStateTable,
    StateLike,
    StateRef,
    StateStore,
    live_in_round,
)
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
    "BACKENDS",
    "make_backend",
    "iter_state_refs",
    "with_refs_resolved",
    "LRUStateCache",
    "WorkerRuntime",
    "DEFAULT_WORKER_CACHE_BYTES",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default byte cap of each worker's cache of resolved states (a ceiling:
#: the round lifecycle keeps it at two rounds' fetches below that).
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
    shard/device indices, never model architectures or pixel data.  Each
    worker holds its own replica of every model, which a task loads its
    full state into before it computes.
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
    """A worker's resolved state payloads, on the driver's round lifecycle.

    Each entry is stamped with the highest ``round_version`` of any ref that
    resolved to it (a hit re-stamps).  :meth:`enter_round` applies the
    store's rule (:func:`~repro.utils.serialization.live_in_round`): a
    worker holds what it fetched in the current and the previous round.
    Within a round the byte budget still evicts least recently used first.
    """

    def __init__(self, max_bytes: int = DEFAULT_WORKER_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        # key -> [payload, nbytes, stamp], least recently used first.
        self._entries: "OrderedDict[str, List]" = OrderedDict()
        self._bytes = 0
        self.round_version = 0
        self.hits = 0
        self.misses = 0

    def enter_round(self, version: int) -> None:
        """Follow the driver to round ``version``.

        A higher version starts a round and drops every entry not live in
        it; a ref one round back (a straggler) changes nothing; a version
        further back is a new run on a reused worker and clears the cache.
        """
        if version > self.round_version:
            stale = [key for key, entry in self._entries.items()
                     if not live_in_round(entry[2], version)]
        elif not live_in_round(version, self.round_version):
            stale = list(self._entries)
        else:
            return
        self.round_version = version
        for key in stale:
            self._bytes -= self._entries.pop(key)[1]

    def get(self, key: str, stamp: int):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        entry[2] = max(entry[2], stamp)
        return entry[0]

    def put(self, key: str, value, nbytes: int, stamp: int) -> None:
        nbytes = max(int(nbytes), 1)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[1]
        self._entries[key] = [value, nbytes, stamp]
        self._bytes += nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, (_, evicted_bytes, _) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes

    def stamps(self) -> Dict[str, int]:
        """Each held key's stamp (introspection/tests)."""
        return {key: entry[2] for key, entry in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes


class WorkerRuntime:
    """Per-worker state — the installed context and the ref-resolution path —
    and the one place a task is run (:meth:`run`).

    In-process backends hand the runtime their live state ``table``
    (lookups are direct, nothing is ever copied or encoded); ``process:N``
    and ``tcp://`` workers get their ``channel`` to the driver's table and
    keep an :class:`LRUStateCache` of fetched payloads in front of it — a
    cache miss fetches the payload exactly once, and the cache holds what
    was fetched in the current and the previous round, under its byte cap.
    The context's models are the worker's own replicas: a worker process
    unpickles them, and :class:`SerialBackend` gives its runtime a copy.
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
        """Materialize a :class:`StateRef`: a dict for ``"state"``, a list for
        ``"arrays"``, the array itself for ``"array"``.  Resolved payloads
        are shared and must be treated as read-only by tasks.

        The ref's ``round_version`` is also how a worker learns that the
        driver moved to a new round, which is when its scratch pool trims
        and its state cache drops what the driver no longer keeps.
        """
        version = ref.round_version
        scratch_pool().enter_round(version)
        if self.table is not None:
            value = self.table.fetch(ref.key)
        else:
            self.cache.enter_round(version)
            value = self.cache.get(ref.key, version)
            if value is not None:
                self.cache.hits += 1
            else:
                self.cache.misses += 1
                value = self.channel.fetch(ref.key)
                self.cache.put(ref.key, value, ref.nbytes, version)
        return value[0] if ref.kind == "array" else value

    def prepare(self, task):
        """``task`` with every ``StateRef`` it carries resolved
        (:func:`with_refs_resolved`), ready to run on this worker's context.
        This is all the wire traffic a task causes."""
        if self.context is None and not getattr(task, "context_free", False):
            raise RuntimeError(
                "no WorkerContext installed; was the backend started "
                "with a context before dispatching device tasks?")
        return with_refs_resolved(task, self.resolve)

    def run(self, task):
        """Run ``task`` on this worker's context, its refs resolved first."""
        return self.prepare(task).run(self.context)

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


def with_refs_resolved(value, resolve: Callable[[StateRef], object]):
    """``value`` with every :class:`StateRef` it carries replaced by
    ``resolve(ref)``.

    Walks direct fields, list/tuple fields, and the objects they hold — a
    :class:`DigestSpec`, or a :class:`~repro.federated.cohort.Cohort`'s
    member tasks.  Only what leads to a replaced ref is copied (shallowly),
    so the caller's objects are never written and a value that carries no
    ref, or whose refs ``resolve`` hands back unchanged, is returned as is.
    """
    if isinstance(value, StateRef):
        return resolve(value)
    if isinstance(value, (list, tuple)):
        items = [with_refs_resolved(item, resolve) for item in value]
        if all(new is old for new, old in zip(items, value)):
            return value
        return items if isinstance(value, list) else tuple(items)
    fields = getattr(value, "__dict__", None)
    if not fields:
        return value
    changed = {}
    for name, item in fields.items():
        new = with_refs_resolved(item, resolve)
        if new is not item:
            changed[name] = new
    if not changed:
        return value
    copied = copy.copy(value)
    copied.__dict__.update(changed)
    return copied


def iter_state_refs(task) -> List[StateRef]:
    """Every :class:`StateRef` a task carries, in the order
    :meth:`WorkerRuntime.run` resolves them (the backends' dispatch
    accounting)."""
    refs: List[StateRef] = []

    def note(ref: StateRef) -> StateRef:
        refs.append(ref)
        return ref

    with_refs_resolved(task, note)
    return refs


def _restored_rng(state: dict) -> np.random.Generator:
    """A generator resumed at a task's shipped ``bit_generator.state``."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


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


@dataclass
class LocalTrainTask:
    """Train one device's model on its private shard (Algorithm 2).

    Carries the device's current parameters (a :class:`StateRef` when
    dispatched through a simulation), the shuffle RNG state, the state of
    each of the model's Dropout streams (``None`` leaves the replica's own),
    and the optional proximal anchor; ``digest`` prepends FedMD's digest
    phase so digest + revisit ship as a single round trip.
    """

    device_id: int
    state: Union[StateRef, StateLike]
    epochs: int
    rng_state: dict
    anchor: Union[StateRef, List[np.ndarray], None] = None
    digest: Optional[DigestSpec] = None
    dropout_states: Optional[List[dict]] = None

    def replica(self, context: WorkerContext) -> ClassificationModel:
        """The context's replica of this device, set to the task's
        parameters and Dropout streams."""
        model = context.model_for(self.device_id)
        model.load_state_dict(self.state)
        if self.dropout_states is not None:
            load_dropout_states(model, self.dropout_states)
        return model

    def run(self, context: WorkerContext) -> "LocalTrainResult":
        model = self.replica(context)
        config = context.train_configs[self.device_id]
        rng = _restored_rng(self.rng_state)

        digest_loss: Optional[float] = None
        if self.digest is not None:
            if context.public_dataset is None:
                raise RuntimeError("digest task requires a public dataset in the worker context")
            digest_loss = digest_on_public(
                model, context.public_dataset, self.digest.consensus, lr=self.digest.lr,
                batch_size=self.digest.batch_size, epochs=self.digest.epochs,
                rng=np.random.default_rng(self.digest.seed))

        report = local_sgd_train(model, context.shards[self.device_id], self.epochs,
                                 config, rng, anchor=self.anchor, device_id=self.device_id)
        # The replica keeps no gradients between tasks.
        model.zero_grad()
        return LocalTrainResult(
            device_id=self.device_id,
            state=model.state_dict(),
            report=report,
            rng_state=rng.bit_generator.state,
            digest_loss=digest_loss,
            dropout_states=dropout_states(model),
        )


@dataclass
class LocalTrainResult:
    """Updated parameters + statistics returned by a :class:`LocalTrainTask`.

    Results flow worker → driver exactly once, so they carry their state
    inline rather than a ref, whatever its size.
    """

    device_id: int
    state: StateLike
    report: LocalTrainingReport
    rng_state: dict
    digest_loss: Optional[float] = None
    dropout_states: List[dict] = field(default_factory=list)


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
        model.load_state_dict(self.state)
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
        model.load_state_dict(self.state)
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

    #: The backend's content-addressed state store; every concrete backend
    #: sets it by the time :meth:`start` returns.
    state_store: StateStore

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
        refs = [ref for task in tasks for ref in iter_state_refs(task)]
        if refs:
            self.state_store.note_dispatch(refs)

    def transport_stats(self) -> Dict[str, object]:
        """State-transport counters: cache hits/misses, bytes published /
        fetched / shipped, and the per-label breakdown.

        ``inline_equivalent_bytes`` is what the pre-store wire format would
        have shipped (payloads inlined into every task); ``shipped_bytes``
        is what actually crossed a process boundary (zero for in-process
        backends).
        """
        stats: Dict[str, object] = dict(self.state_store.stats())
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
    """Run every task in the calling process (the default)."""

    name = "serial"

    def __init__(self) -> None:
        self._table = InProcessStateTable()
        self.state_store = StateStore(self._table)
        self._runtime = WorkerRuntime(table=self._table)
        self._context: Optional[WorkerContext] = None

    def start(self, context: Optional[WorkerContext] = None) -> None:
        """Install ``context``.  The runtime gets a copy of its models, as a
        worker process gets one by unpickling; shards and datasets are shared
        (tasks only read them).  Copied once per context object."""
        if context is not self._context or not self._started:
            self._context = context
            self._runtime.context = (
                None if context is None
                else replace(context, models=copy.deepcopy(context.models)))
        self._started = True

    def run_tasks(self, tasks: Sequence) -> List:
        self._note_dispatch(tasks)
        return [self._runtime.run(task) for task in tasks]

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


# --------------------------------------------------------------------------- #
# Backend specs
# --------------------------------------------------------------------------- #
#: The schemes :func:`make_backend` accepts, each with the line ``repro list``
#: prints for it.
BACKENDS: Dict[str, str] = {
    "serial": "in-process, zero-serialization (default)",
    "process": ("worker processes forked on this host, over the tcp:// stack on "
                "loopback (process[:N])"),
    "tcp": ("multi-node over TCP: tcp://HOST:PORT (external workers) or "
            "tcp://:PORT?workers=N (spawned localhost daemons)"),
}


def make_backend(spec: Optional[str] = None, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build a backend from a string spec, with uniform validation.

    ``None`` / ``"serial"`` → :class:`SerialBackend`;
    ``"process"`` / ``"process:N"`` → :class:`~repro.net.backend.ProcessPoolBackend`
    with N forked workers;
    ``"tcp://HOST:PORT[?workers=N]"`` → the multi-node
    :class:`~repro.net.backend.RemoteBackend`.  ``repro.net`` (sockets,
    subprocesses) is imported only for the last two.
    """
    if spec is None:
        return SerialBackend()
    spec = str(spec)
    kind = spec.split("://", 1)[0] if "://" in spec else spec.partition(":")[0]
    if kind == "serial":
        if spec != "serial":
            raise ValueError(f"invalid backend spec {spec!r}: "
                             "'serial' does not take a worker count")
        return SerialBackend()
    if kind == "process":
        from ..net.backend import make_process_backend

        return make_process_backend(spec, max_workers)
    if kind == "tcp":
        from ..net.backend import make_tcp_backend

        return make_tcp_backend(spec, max_workers)
    raise ValueError(f"unknown backend spec {spec!r}; backends: {', '.join(BACKENDS)}")
