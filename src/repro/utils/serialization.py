"""Serialization helpers and the content-addressed state store.

Two families of helpers live here:

* JSON (de)serialization of :class:`TrainingHistory` objects for offline
  analysis and plotting;
* the **content-addressed state store**: :func:`state_digest` computes a
  stable digest of a state dict, :class:`StateRef` is the tiny handle that
  replaces inline parameter payloads inside backend tasks, and
  :class:`StateStore` is the driver-side facade that publishes each state
  **once** through a :class:`StateChannel` (an in-process table for
  in-process backends, :mod:`repro.net`'s key-to-frame blob table for
  ``process:N`` and ``tcp://``) so workers that miss their local cache
  fetch it a single time instead of receiving it inside every task pickle.

A parameter payload has two forms and no third: a :class:`StateRef`, or
live numpy arrays (a state dict, or an ordered array list).  The store and
every task hand channels live arrays and get live arrays back; the channel
whose table sits across a process boundary owns its own byte encoding (one
payload frame of ``.npy`` entries per key), and a task that carries arrays
inline is encoded by the backend's one ``pickle.dumps(task)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # avoid a circular import: federated.backend uses this module
    from ..federated.history import TrainingHistory

__all__ = [
    "save_history_json",
    "load_history_json",
    "StateLike",
    "state_digest",
    "StateRef",
    "StateChannel",
    "InProcessStateTable",
    "live_in_round",
    "StateStore",
]

#: An inline parameter payload: a plain state dict of live arrays.
StateLike = Dict[str, np.ndarray]


# --------------------------------------------------------------------------- #
# Content-addressed state store (StateRef / StateChannel / StateStore)
# --------------------------------------------------------------------------- #
def state_digest(state: StateLike, kind: str = "state") -> str:
    """Stable content digest of a state dict.

    The digest is computed over the *canonical content* — sorted keys, each
    with its dtype, shape, memory order, and raw bytes — so it is stable
    across any lossless encode → decode round trip (nothing of a container
    enters the hash) and independent of key insertion order.  Distinct
    states (different values, dtypes, shapes, or key sets) get distinct
    digests.  ``kind`` namespaces the digest so a state dict and an array
    list with coincidentally identical canonical entries cannot collide.
    """
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(b"\x00")
    for key in sorted(state):
        array = np.asarray(state[key])
        encoded_key = key.encode("utf-8")
        fortran = bool(array.flags.f_contiguous and not array.flags.c_contiguous)
        header = f"{len(encoded_key)}:{array.dtype.str}:{array.shape}:{int(fortran)}:"
        digest.update(header.encode("utf-8"))
        digest.update(encoded_key)
        # 'A' keeps Fortran-ordered arrays in their native byte order (the
        # order pickle and .npy round trips preserve); the flag above
        # disambiguates.
        digest.update(array.tobytes(order="A"))
    return digest.hexdigest()


@dataclass(frozen=True)
class StateRef:
    """A tiny, picklable handle to a published parameter payload.

    Tasks carry these instead of inline state dicts: ``key`` is the content
    digest (the lookup key in the store / worker caches), ``round_version``
    records the store round that published it (lifecycle bookkeeping, not
    part of the identity), ``kind`` says what the payload resolves to
    (``"state"`` → dict, ``"arrays"`` → ordered list, ``"array"`` → the one
    array :meth:`StateStore.put_array` published), ``nbytes`` is the raw
    payload size (used for the bytes-shipped accounting and worker cache
    budgets), and ``label`` tags the payload class (``"teacher"``,
    ``"device"``, ``"batch"``, ...) for per-class transport statistics.
    """

    key: str
    round_version: int = 0
    kind: str = "state"
    nbytes: int = 0
    label: str = ""


class StateChannel:
    """Transport seam between the driver's store and worker-side caches.

    The driver publishes each payload once; a worker that misses its local
    cache fetches it once.  Both directions speak live arrays (a state dict
    or an ordered array list); how they are held in between is the
    channel's own business.  Two implementations ship —
    :class:`InProcessStateTable` (the serial backend: the table *is*
    the cache, nothing is ever encoded) and the channel pair of
    :mod:`repro.net` behind ``process:N`` and ``tcp://`` (the driver's
    blob table of one payload frame per key plus the workers' socket
    client).
    """

    def publish(self, key: str, payload, label: str = "") -> int:
        """Make ``payload`` fetchable under ``key`` (idempotent per key).

        Returns the bytes the publish put on the wire (0 for a channel that
        crosses no boundary).
        """
        raise NotImplementedError

    def fetch(self, key: str):
        """Return the live payload for ``key``; raise ``KeyError`` if unknown."""
        raise NotImplementedError

    def drop(self, keys: Sequence[str]) -> None:
        """Forget the given keys (unknown keys are ignored)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Wire-transfer counters (empty for in-process channels)."""
        return {}

    def close(self) -> None:
        """Release channel resources (no-op by default)."""


class InProcessStateTable(StateChannel):
    """The in-process channel: a plain table of live payload objects.

    The serial backend shares the driver's address space, so
    ``publish`` stores the dict/list itself (zero serialization, zero
    copies) and every worker resolution is a direct table lookup — the
    table doubles as the worker cache.  Payloads must be treated as
    read-only by tasks (they are: ``load_state_dict`` and
    ``load_velocity_state`` copy / never mutate in place), which is what
    makes content-addressed sharing safe.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, object] = {}

    def publish(self, key: str, payload, label: str = "") -> int:
        self._entries[key] = payload
        return 0

    def fetch(self, key: str):
        try:
            return self._entries[key]
        except KeyError:
            raise KeyError(
                f"state ref {key!r} is not in the state table; it was never "
                "published or was evicted before use") from None

    def drop(self, keys: Sequence[str]) -> None:
        for key in keys:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


def _arrays_as_state(arrays: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
    """Canonical dict form of an ordered array list (what its digest hashes)."""
    return {f"a{index:05d}": np.asarray(array) for index, array in enumerate(arrays)}


def live_in_round(stamp: int, version: int) -> bool:
    """Whether a payload last referenced in round ``stamp`` is kept in round
    ``version``: one round of grace, so what round ``r`` published stays
    fetchable through round ``r + 1``.

    The one liveness rule of the state transport — the driver's
    :meth:`StateStore.advance_round` drops what fails it, and a worker's
    cache (:class:`~repro.federated.backend.LRUStateCache`) evicts by it.
    """
    return stamp >= version - 1


class StateStore:
    """Driver-side facade of the content-addressed state transport.

    ``put_state`` / ``put_arrays`` digest a payload and publish it through
    the channel **only if its content is new** — re-putting identical
    content (a device state that did not change between evaluation and the
    next dispatch, a proximal anchor that is constant between broadcasts)
    refreshes its round version without any transfer.  ``advance_round``
    implements the lifecycle: entries older than the previous round are
    dropped from the channel (:func:`live_in_round`).  Worker caches follow
    the same rule on their own: a worker holds what it fetched in the
    current and the previous round, under its byte cap.  ``note_dispatch``
    is called by the backends with every :class:`StateRef` they ship
    inside tasks, which is what powers the
    hits/misses and bytes-shipped accounting in
    ``ExecutionBackend.transport_stats``.

    The store hands the channel live arrays and never encodes anything
    itself: an in-process table keeps the objects (the zero-serialization
    guarantee of serial execution), a channel across a boundary encodes on
    its own side of ``publish`` and reports the bytes.
    """

    def __init__(self, channel: StateChannel) -> None:
        self.channel = channel
        self.round_version = 0
        # key -> [round_version, nbytes, label] for everything currently
        # published (the driver's view of the channel contents).
        self._published: Dict[str, List] = {}
        self._counters: Dict[str, int] = {
            "puts": 0, "publishes": 0, "published_bytes": 0,
            "refs_resolved": 0, "inline_bytes": 0,
        }
        self._by_label: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    def _label_bucket(self, label: str) -> Dict[str, int]:
        bucket = self._by_label.get(label)
        if bucket is None:
            bucket = {"resolved": 0, "inline_bytes": 0,
                      "publishes": 0, "published_bytes": 0}
            self._by_label[label] = bucket
        return bucket

    def _put(self, key: str, kind: str, nbytes: int, label: str,
             payload) -> StateRef:
        self._counters["puts"] += 1
        entry = self._published.get(key)
        if entry is not None:
            # Same content already live: refresh its round so the round
            # lifecycle does not evict an entry that is still in use.
            entry[0] = self.round_version
            return StateRef(key=key, round_version=self.round_version,
                            kind=kind, nbytes=entry[1], label=label)
        # The channel reports what the publish put on the wire (one payload
        # frame, nothing for an in-process table).
        published = self.channel.publish(key, payload, label)
        self._published[key] = [self.round_version, nbytes, label]
        self._counters["publishes"] += 1
        self._counters["published_bytes"] += published
        bucket = self._label_bucket(label)
        bucket["publishes"] += 1
        bucket["published_bytes"] += published
        return StateRef(key=key, round_version=self.round_version,
                        kind=kind, nbytes=nbytes, label=label)

    def put_state(self, state: Dict[str, np.ndarray], label: str = "") -> StateRef:
        """Publish a model state dict; returns its :class:`StateRef`."""
        key = state_digest(state)
        nbytes = int(sum(np.asarray(value).nbytes for value in state.values()))
        return self._put(key, "state", nbytes, label, state)

    def put_arrays(self, arrays: Sequence[np.ndarray], label: str = "") -> StateRef:
        """Publish an ordered array list (anchor, consensus, batches, ...)."""
        arrays = list(arrays)
        canonical = _arrays_as_state(arrays)
        key = state_digest(canonical, kind="arrays")
        nbytes = int(sum(array.nbytes for array in canonical.values()))
        return self._put(key, "arrays", nbytes, label, arrays)

    def put_array(self, array: np.ndarray, label: str = "") -> StateRef:
        """Publish one bare array (a synthetic batch, an upstream gradient, a
        consensus matrix): it travels as a one-entry array list, under that
        list's key, and its ref resolves to the array itself."""
        return replace(self.put_arrays([array], label=label), kind="array")

    # ------------------------------------------------------------------ #
    def discard(self, refs: Union[StateRef, Iterable[StateRef]]) -> None:
        """Drop ephemeral payloads (per-iteration batches) from the channel.

        Refs with the same content digest (deduped puts return the same
        key) are dropped once; unknown keys are ignored.
        """
        if isinstance(refs, StateRef):
            refs = [refs]
        removed = [key for key in {ref.key for ref in refs}
                   if self._published.pop(key, None) is not None]
        if removed:
            self.channel.drop(removed)

    def advance_round(self, version: int) -> None:
        """Bump the round version and evict entries older than the previous
        round (entries published in round ``r`` stay fetchable through round
        ``r + 1``, which is what lets a post-broadcast device state be
        re-referenced by the next round's dispatch without a re-publish).

        A version *below* the current one means the backend is being reused
        by a new simulation whose round counter restarted: everything
        currently published belongs to the previous run and is evicted.
        """
        version = int(version)
        if version < self.round_version:
            stale = list(self._published)
        else:
            stale = [key for key, (round_version, _, _) in self._published.items()
                     if not live_in_round(round_version, version)]
        self.round_version = version
        for key in stale:
            del self._published[key]
        if stale:
            self.channel.drop(stale)

    # ------------------------------------------------------------------ #
    def note_dispatch(self, refs: Iterable[StateRef]) -> None:
        """Record refs shipped inside dispatched tasks (stats bookkeeping)."""
        for ref in refs:
            self._counters["refs_resolved"] += 1
            self._counters["inline_bytes"] += ref.nbytes
            bucket = self._label_bucket(ref.label)
            bucket["resolved"] += 1
            bucket["inline_bytes"] += ref.nbytes

    def stats(self) -> Dict[str, object]:
        """Merged driver + channel transport counters.

        ``inline_bytes`` is what payload-carrying tasks *would* have shipped
        (one full payload per dispatched ref — the pre-store wire format);
        ``published_bytes + fetched_bytes`` is what the store actually
        shipped.  ``hits`` counts ref resolutions served from a worker-side
        cache (resolved minus wire fetches; in-process channels never fetch
        over a wire, so every resolution is a hit).
        """
        channel = self.channel.stats()
        fetches = int(channel.get("fetches", 0))
        fetched_bytes = int(channel.get("fetched_bytes", 0))
        resolved = self._counters["refs_resolved"]
        hits = max(0, resolved - fetches)
        by_label: Dict[str, Dict[str, object]] = {}
        channel_labels = channel.get("by_label", {})
        for label in set(self._by_label) | set(channel_labels):
            driver = self._by_label.get(
                label, {"resolved": 0, "inline_bytes": 0,
                        "publishes": 0, "published_bytes": 0})
            wire = channel_labels.get(label, {"fetches": 0, "fetched_bytes": 0})
            label_resolved = driver["resolved"]
            label_fetches = int(wire.get("fetches", 0))
            label_hits = max(0, label_resolved - label_fetches)
            by_label[label] = {
                **driver,
                "fetches": label_fetches,
                "fetched_bytes": int(wire.get("fetched_bytes", 0)),
                "hits": label_hits,
                "hit_rate": (label_hits / label_resolved) if label_resolved else None,
            }
        return {
            **self._counters,
            "entries": len(self._published),
            "round_version": self.round_version,
            "fetches": fetches,
            "fetched_bytes": fetched_bytes,
            "context_fetches": int(channel.get("context_fetches", 0)),
            "context_bytes": int(channel.get("context_bytes", 0)),
            "hits": hits,
            "misses": fetches,
            "hit_rate": (hits / resolved) if resolved else None,
            "by_label": by_label,
        }


def save_history_json(history: "TrainingHistory", path: Union[str, Path]) -> Path:
    """Write a training history to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(history.to_dict(), handle, indent=2, default=float)
    return path


def load_history_json(path: Union[str, Path]) -> "TrainingHistory":
    """Read a training history previously written by :func:`save_history_json`."""
    from ..federated.history import RoundRecord, TrainingHistory

    with Path(path).open("r", encoding="utf-8") as handle:
        payload: Dict = json.load(handle)
    history = TrainingHistory(algorithm=payload.get("algorithm", ""),
                              config=payload.get("config", {}))
    for row in payload.get("rounds", []):
        record = RoundRecord(
            round_index=int(row["round"]),
            global_accuracy=row.get("global_accuracy"),
            device_accuracies={int(k): float(v) for k, v in row.get("device_accuracies", {}).items()},
            active_devices=[int(d) for d in row.get("active_devices", [])],
            local_loss=row.get("local_loss"),
            server_metrics={k: v for k, v in row.get("server_metrics", {}).items()},
            sim_time=row.get("sim_time"),
        )
        history.append(record)
    return history
