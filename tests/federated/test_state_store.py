"""State transport tests: content-addressed store, persistent workers, stats.

Covers the ISSUE 5 tentpole contracts:

* ``StateStore`` publishes each distinct content exactly once and refreshes
  (rather than re-publishes) on identical content; ``advance_round`` evicts
  entries older than the previous round; ``discard`` drops ephemerals.
* Worker-side ``LRUStateCache`` keeps what the current and the previous
  round fetched (the store's rule), and under its byte cap evicts LRU-first.
* ``ProcessPoolBackend`` keeps its server and workers alive across context
  changes (``server_starts`` stays 1; simulations sharing one pool replay
  their serial histories in ``tests/integration/test_parity_matrix.py``) and
  ships dramatically fewer bytes than the inline wire format would
  (``transport_stats``): at least 10x fewer per
  warmed-up round of a Phase-1-heavy FedZKT run, with at least 90 % of the
  teacher-state resolutions served from a worker's cache.
* ``make_backend`` rejects malformed specs with uniform errors, and
  ``ProcessPoolBackend.map`` refuses to run without an explicit ``start``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_fedzkt
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import (
    FederatedConfig,
    ProcessPoolBackend,
    SerialBackend,
    ServerConfig,
    WorkerContext,
    make_backend,
)
from repro.federated.backend import LRUStateCache
from repro.utils import InProcessStateTable, StateRef, StateStore, state_digest


# --------------------------------------------------------------------------- #
# StateStore unit tests
# --------------------------------------------------------------------------- #
def _state(seed=0, size=8):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(size, size)), "b": rng.normal(size=size)}


class TestStateStore:
    def test_put_state_dedupes_identical_content(self):
        store = StateStore(InProcessStateTable())
        ref_a = store.put_state(_state(0))
        ref_b = store.put_state(_state(0))
        assert ref_a.key == ref_b.key
        assert store.stats()["publishes"] == 1
        assert store.stats()["puts"] == 2

    def test_distinct_content_distinct_keys(self):
        store = StateStore(InProcessStateTable())
        assert store.put_state(_state(0)).key != store.put_state(_state(1)).key

    def test_get_roundtrips_state(self):
        store = StateStore(InProcessStateTable())
        state = _state(3)
        restored = store.get(store.put_state(state))
        for key, value in state.items():
            np.testing.assert_array_equal(restored[key], value)

    def test_put_arrays_preserves_order_and_kind(self):
        store = StateStore(InProcessStateTable())
        arrays = [np.arange(4.0), np.zeros((2, 2)), np.full((1,), -3.5)]
        ref = store.put_arrays(arrays)
        assert ref.kind == "arrays"
        restored = store.get(ref)
        assert len(restored) == 3
        for original, out in zip(arrays, restored):
            np.testing.assert_array_equal(original, out)

    def test_state_and_arrays_digests_never_collide(self):
        # Same canonical entries under both kinds must map to distinct keys.
        arrays = [np.arange(4.0)]
        as_dict = {"a00000": np.arange(4.0)}
        store = StateStore(InProcessStateTable())
        assert store.put_arrays(arrays).key != store.put_state(as_dict).key

    def test_advance_round_keeps_previous_round_entries(self):
        table = InProcessStateTable()
        store = StateStore(table)
        store.advance_round(1)
        ref_old = store.put_state(_state(0))
        store.advance_round(2)
        ref_new = store.put_state(_state(1))
        # Round-1 entries survive round 2 (cross-round reuse window) ...
        assert store.get(ref_old) is not None
        store.advance_round(3)
        # ... but are evicted once they are two rounds old.
        with pytest.raises(KeyError):
            table.fetch(ref_old.key)
        assert store.get(ref_new) is not None

    def test_refresh_on_reput_protects_from_eviction(self):
        table = InProcessStateTable()
        store = StateStore(table)
        store.advance_round(1)
        ref = store.put_state(_state(0))
        store.advance_round(2)
        store.put_state(_state(0))  # same content: refresh, no re-publish
        store.advance_round(3)
        assert store.get(ref) is not None
        assert store.stats()["publishes"] == 1

    def test_discard_drops_ephemerals(self):
        table = InProcessStateTable()
        store = StateStore(table)
        ref = store.put_arrays([np.arange(3.0)], label="batch")
        store.discard(ref)
        with pytest.raises(KeyError):
            table.fetch(ref.key)
        # Discarding again is a no-op.
        store.discard([ref])

    def test_discard_tolerates_duplicate_digests(self):
        """Regression: two refs for identical content share one key; a
        batch discard (the distiller drains teacher refs this way) must
        drop it once, not KeyError on the duplicate."""
        table = InProcessStateTable()
        store = StateStore(table)
        ref_a = store.put_state(_state(0), label="teacher")
        ref_b = store.put_state(_state(0), label="teacher")
        assert ref_a.key == ref_b.key
        store.discard([ref_a, ref_b])
        with pytest.raises(KeyError):
            table.fetch(ref_a.key)

    def test_advance_round_reset_evicts_previous_run(self):
        """Regression: a backend reused by a new simulation restarts its
        round counter; the old run's entries must not linger unevictable
        (version < current used to keep them alive forever)."""
        table = InProcessStateTable()
        store = StateStore(table)
        store.advance_round(10)
        old_ref = store.put_state(_state(0))
        store.advance_round(1)  # new simulation, counter restarted
        with pytest.raises(KeyError):
            table.fetch(old_ref.key)
        fresh = store.put_state(_state(1))
        store.advance_round(2)
        assert store.get(fresh) is not None

    def test_note_dispatch_and_label_stats(self):
        store = StateStore(InProcessStateTable())
        ref = store.put_state(_state(0), label="teacher")
        store.note_dispatch([ref, ref, ref])
        stats = store.stats()
        assert stats["refs_resolved"] == 3
        assert stats["inline_bytes"] == 3 * ref.nbytes
        teacher = stats["by_label"]["teacher"]
        assert teacher["resolved"] == 3
        # In-process channels never fetch over a wire: every resolve is a hit.
        assert stats["hits"] == 3 and stats["misses"] == 0
        assert teacher["hit_rate"] == 1.0


class TestStateDigest:
    def test_digest_is_not_container_sensitive(self):
        # A copy that went through the process channel's codec, and the same
        # entries in another insertion order, digest alike.
        import pickle

        state = _state(5)
        assert state_digest(state) == state_digest(pickle.loads(pickle.dumps(state)))
        assert state_digest(state) == state_digest(dict(reversed(list(state.items()))))

    def test_fortran_order_changes_digest_but_roundtrips(self):
        c_order = {"w": np.ascontiguousarray(np.arange(6.0).reshape(2, 3))}
        f_order = {"w": np.asfortranarray(np.arange(6.0).reshape(2, 3))}
        assert state_digest(c_order) != state_digest(f_order)


class TestLRUStateCache:
    def test_evicts_least_recently_used_by_bytes(self):
        cache = LRUStateCache(max_bytes=100)
        cache.put("a", "payload-a", 40, 0)
        cache.put("b", "payload-b", 40, 0)
        assert cache.get("a", 0) == "payload-a"  # refresh a
        cache.put("c", "payload-c", 40, 0)       # exceeds 100 → evict LRU = b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == "payload-a"
        assert cache.get("c", 0) == "payload-c"
        assert cache.nbytes <= 100

    def test_always_keeps_at_least_one_entry(self):
        cache = LRUStateCache(max_bytes=10)
        cache.put("big", "payload", 10_000, 0)
        assert cache.get("big", 0) == "payload"

    def test_oversize_entry_displaces_everything_but_is_served(self):
        """An entry larger than the whole byte budget evicts the rest but is
        itself retained and served (refusing it would force a re-fetch on
        every resolve of the largest state in the run)."""
        cache = LRUStateCache(max_bytes=100)
        cache.put("a", "payload-a", 40, 0)
        cache.put("b", "payload-b", 40, 0)
        cache.put("huge", "payload-huge", 400, 0)
        assert cache.get("a", 0) is None and cache.get("b", 0) is None
        assert cache.get("huge", 0) == "payload-huge"
        assert len(cache) == 1 and cache.nbytes == 400
        # The next put pushes the oversize entry out and restores the bound.
        cache.put("c", "payload-c", 40, 0)
        assert cache.get("huge", 0) is None
        assert cache.get("c", 0) == "payload-c"
        assert cache.nbytes <= 100

    def test_eviction_order_tracks_interleaved_hits(self):
        """Eviction follows true recency (hits refresh), not insertion order."""
        cache = LRUStateCache(max_bytes=120)
        cache.put("a", "A", 40, 0)
        cache.put("b", "B", 40, 0)
        cache.put("c", "C", 40, 0)       # oldest-first recency: a, b, c
        assert cache.get("a", 0) == "A"  # recency: b, c, a
        assert cache.get("b", 0) == "B"  # recency: c, a, b
        cache.put("d", "D", 40, 0)       # evicts c — insertion-order would evict a
        assert cache.get("c", 0) is None
        assert cache.get("a", 0) == "A"  # recency: b, d, a
        cache.put("e", "E", 40, 0)       # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("d", 0) == "D"
        assert cache.get("a", 0) == "A"
        assert cache.get("e", 0) == "E"
        assert cache.nbytes <= 120

    def test_reput_of_same_key_replaces_bytes_in_place(self):
        cache = LRUStateCache(max_bytes=100)
        cache.put("k", "small", 10, 0)
        cache.put("k", "bigger", 90, 0)
        assert cache.get("k", 0) == "bigger"
        assert cache.nbytes == 90 and len(cache) == 1

    # Round lifecycle: the rule of StateStore.advance_round, on the worker.
    def test_keeps_the_current_and_previous_round(self):
        cache = LRUStateCache()
        for version in range(1, 6):
            cache.enter_round(version)
            cache.put(f"r{version}", f"payload-{version}", 10, version)
        assert cache.stamps() == {"r4": 4, "r5": 5}
        assert cache.nbytes == 20

    def test_straggler_from_the_previous_round_changes_nothing(self):
        cache = LRUStateCache()
        cache.enter_round(4)
        cache.put("old", "payload-old", 10, 4)
        cache.enter_round(5)
        cache.put("new", "payload-new", 10, 5)
        cache.enter_round(4)                  # a ref stamped v - 1 arrives late
        assert cache.round_version == 5
        assert cache.stamps() == {"old": 4, "new": 5}
        cache.put("late", "payload-late", 10, 4)
        cache.enter_round(6)                  # round 6 keeps 5 and up only
        assert cache.stamps() == {"new": 5}

    def test_version_more_than_a_round_back_is_a_new_run(self):
        cache = LRUStateCache()
        cache.enter_round(5)
        cache.put("a", "payload-a", 10, 5)
        cache.put("b", "payload-b", 10, 5)
        cache.enter_round(1)
        assert len(cache) == 0 and cache.nbytes == 0
        assert cache.round_version == 1
        cache.put("c", "payload-c", 10, 1)
        cache.enter_round(2)                  # the new run's clock runs on
        assert cache.stamps() == {"c": 1}

    def test_hit_restamps_so_the_entry_survives_the_next_round(self):
        cache = LRUStateCache()
        cache.enter_round(3)
        cache.put("kept", "payload-kept", 10, 3)
        cache.put("dropped", "payload-dropped", 10, 3)
        cache.enter_round(4)
        assert cache.get("kept", 4) == "payload-kept"   # the driver re-put it
        cache.enter_round(5)
        assert cache.stamps() == {"kept": 4}
        assert cache.get("kept", 5) == "payload-kept"

    def test_straggler_hit_does_not_lower_a_stamp(self):
        cache = LRUStateCache()
        cache.enter_round(5)
        cache.put("k", "payload-k", 10, 5)
        assert cache.get("k", 4) == "payload-k"
        assert cache.stamps() == {"k": 5}

    def test_byte_cap_still_evicts_lru_first_within_a_round(self):
        cache = LRUStateCache(max_bytes=100)
        cache.enter_round(3)
        cache.put("a", "payload-a", 40, 3)
        cache.put("b", "payload-b", 40, 3)
        assert cache.get("a", 3) == "payload-a"
        cache.put("c", "payload-c", 40, 3)   # exceeds 100 → evict LRU = b
        assert cache.stamps() == {"a": 3, "c": 3}
        assert cache.nbytes == 80


def test_refetch_after_grace_window_drop_is_clean():
    """A worker that evicted a payload from its LRU cache re-fetches by key.
    If the round lifecycle has meanwhile dropped that key (published two or
    more rounds ago, i.e. past the one-round grace window), the next round's
    re-put of the same content — same digest, hence the same key — must make
    the re-fetch succeed cleanly rather than KeyError."""
    from repro.federated.backend import WorkerRuntime

    table = InProcessStateTable()
    store = StateStore(table)
    runtime = WorkerRuntime(channel=table, cache_bytes=64)

    store.advance_round(1)
    state = _state(0)
    ref = store.put_state(state, label="device")
    np.testing.assert_array_equal(runtime.resolve(ref)["w"], state["w"])
    assert runtime.cache.misses == 1

    # Two rounds later the channel entry is gone (past the grace window) ...
    store.advance_round(2)
    store.advance_round(3)
    with pytest.raises(KeyError):
        table.fetch(ref.key)
    # ... but the worker's cached copy still resolves without a fetch.
    assert runtime.resolve(ref) is not None
    assert runtime.cache.hits == 1

    # Now the cache evicts it too (a bigger payload displaces it), and the
    # new round re-publishes identical content under the identical key.
    runtime.cache.put("filler", "x", 10_000, 1)
    assert runtime.cache.get(ref.key, 1) is None
    fresh = store.put_state(_state(0), label="device")
    assert fresh.key == ref.key  # content-addressed: the digest is the key
    restored = runtime.resolve(ref)
    np.testing.assert_array_equal(restored["w"], state["w"])
    assert runtime.cache.misses == 2  # cold fetch + post-eviction re-fetch


# --------------------------------------------------------------------------- #
# Backend integration
# --------------------------------------------------------------------------- #
def _data(samples_train=120, samples_test=40):
    config = SyntheticImageConfig(name="store-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=21, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(samples_train, seed=1), generator.sample(samples_test, seed=2)


def test_worker_scratch_pool_trims_when_resolved_round_moves_forward():
    """Nothing but the driver calls ``advance_round_version``: a worker
    thread learns of a new round from the ``round_version`` of the refs it
    resolves, and trims its own scratch pool then — once per round, and not
    for a ref of the previous round that is resolved late."""
    import threading

    from repro.federated.backend import WorkerRuntime
    from repro.nn import scratch_pool

    table = InProcessStateTable()
    table.publish("payload", _state(0))
    runtime = WorkerRuntime(table=table)
    refs = {version: StateRef(key="payload", round_version=version)
            for version in (1, 2, 3)}
    free_after = []

    def worker():
        pool = scratch_pool()  # this thread's own

        def use(count):
            pool.release(pool.acquire((count,)))

        runtime.resolve(refs[1])
        use(100)
        use(1000)
        runtime.resolve(refs[2])   # round 2 begins: what round 1 reached stays
        use(100)
        runtime.resolve(refs[2])
        runtime.resolve(refs[1])   # late ref of the previous round
        free_after.append(pool.free_bytes())
        runtime.resolve(refs[3])   # round 3 begins: round 2 never touched the large one
        free_after.append(pool.free_bytes())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    # Round 1's wider request grew over the bytes of its first, so it reached
    # 8000 bytes in all; round 2 reached 800 of them.
    assert free_after == [8000, 800]


def _config(server_shards=1):
    return FederatedConfig(
        num_devices=4, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02, server_shards=server_shards),
    )


def _run_fedzkt(backend, server_shards=1):
    train, test = _data()
    with backend:
        with build_fedzkt(train, test, _config(server_shards), family="small",
                          backend=backend) as simulation:
            return simulation.run()


def test_serial_transport_ships_zero_bytes():
    backend = SerialBackend()
    _run_fedzkt(backend)
    stats = backend.transport_stats()
    assert stats["shipped_bytes"] == 0
    assert stats["refs_resolved"] > 0
    assert stats["hit_rate"] == 1.0


def test_process_pool_survives_context_change_and_dedupes_bytes():
    train, test = _data()
    backend = ProcessPoolBackend(max_workers=2)
    with backend:
        with build_fedzkt(train, test, _config(server_shards=2), family="small",
                          backend=backend) as simulation:
            history = simulation.run()
        assert len(history) == 2
        stats = backend.transport_stats()
        # One pool for the whole run, despite per-round context re-checks.
        assert stats["server_starts"] == 1
        assert stats["shipped_bytes"] > 0
        # Teacher states are published once per round and re-resolved by
        # every Phase-1 shard task of every synthesis iteration: the store
        # ships each blob at most (1 publish + workers fetches) while the
        # inline wire format would have shipped one copy per resolution.
        # (This pins the mechanism; the aggregate ≥10x claim needs a real
        # workload — test_warm_round_ships_tenfold_less_than_inline below.)
        teacher = stats["by_label"]["teacher"]
        assert teacher["resolved"] > teacher["fetches"] > 0
        teacher_shipped = teacher["published_bytes"] + teacher["fetched_bytes"]
        assert teacher["inline_bytes"] > teacher_shipped > 0

        # A *new* context must be re-published through the channel without
        # respawning the pool.
        context = WorkerContext(models={}, shards={}, train_configs={})
        backend.start(context)
        assert backend.transport_stats()["server_starts"] == 1

        # And the pool still executes work for the new context version.
        assert backend.map(abs, [-1, 2, -3]) == [1, 2, 3]


def test_warm_round_ships_tenfold_less_than_inline():
    """The two byte gates ``benchmarks/bench_transport.py`` used to hold, on
    its workload: six devices, two server shards, fifty synthesis iterations
    over a batch of four, so teacher-state traffic dominates the round.  The
    first round pays the pool spawn, the context publish and cold caches; in
    the second, everything that crossed a process boundary apart from the
    results (published payload frames, cache-miss fetches, task
    pickles) is at least 10x less than one inlined
    payload per dispatched ref would have been, and at least 90 % of the
    teacher refs resolved out of a worker's cache."""
    train, test = _data()
    config = FederatedConfig(
        num_devices=6, rounds=2, local_epochs=1, batch_size=16, device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=50, batch_size=4, noise_dim=16,
                            device_distill_lr=0.02, server_shards=2,
                            global_steps_per_generator_step=1))
    backend = ProcessPoolBackend(max_workers=2)
    with backend:
        with build_fedzkt(train, test, config, family="small",
                          backend=backend) as simulation:
            simulation.run(rounds=1)
            before = backend.transport_stats()
            simulation.run_round(2)
            after = backend.transport_stats()

    # Results return inline under either wire format, so their bytes are
    # left out of both sides: the gate is on what the store changes.
    results = after["result_bytes"] - before["result_bytes"]
    shipped = after["shipped_bytes"] - before["shipped_bytes"] - results
    inline = after["inline_equivalent_bytes"] - before["inline_equivalent_bytes"] - results
    assert shipped > 0
    assert inline >= 10 * shipped
    teacher_before, teacher_after = (stats["by_label"]["teacher"] for stats in (before, after))
    resolved = teacher_after["resolved"] - teacher_before["resolved"]
    fetches = teacher_after["fetches"] - teacher_before["fetches"]
    assert resolved > 0
    assert 1.0 - fetches / resolved >= 0.9
    assert after["server_starts"] == 1


# --------------------------------------------------------------------------- #
# make_backend validation + map regression
# --------------------------------------------------------------------------- #
class TestMakeBackendValidation:
    def test_max_workers_fills_in_for_a_missing_count(self):
        assert make_backend("process", max_workers=2).max_workers == 2
        assert make_backend("process:3", max_workers=2).max_workers == 3

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            make_backend("threads")

    def test_thread_spec_is_gone(self):
        for spec in ("thread", "thread:2"):
            with pytest.raises(ValueError, match="unknown backend spec"):
                make_backend(spec)

    def test_process_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            make_backend("process:0")

    def test_process_negative_workers_rejected(self):
        for spec, max_workers in (("process:-1", None), ("process", 0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                make_backend(spec, max_workers=max_workers)

    def test_process_and_tcp_counts_share_one_parser(self):
        for spec in ("process:two", "tcp://:0?workers=two"):
            with pytest.raises(ValueError, match="must be an integer, got 'two'"):
                make_backend(spec)
        with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
            make_backend("process:0")
        with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
            make_backend("tcp://:0?workers=-1")

    def test_non_integer_worker_count_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            make_backend("process:two")

    def test_serial_with_count_rejected(self):
        with pytest.raises(ValueError, match="does not take a worker count"):
            make_backend("serial:2")


class TestBackendTable:
    def test_every_listed_scheme_builds_and_documents_itself(self):
        from repro.federated import BACKENDS
        from repro.net.backend import RemoteBackend

        assert list(BACKENDS) == ["serial", "process", "tcp"]
        assert all(BACKENDS.values())
        # Construction only: nothing forks or listens before start().
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process:1"), ProcessPoolBackend)
        assert isinstance(make_backend("tcp://:0"), RemoteBackend)

    def test_unknown_scheme_error_lists_the_backends(self):
        with pytest.raises(ValueError,
                           match="unknown backend spec 'udp://:0'; backends: serial, "
                                 "process, tcp"):
            make_backend("udp://:0")


def test_process_map_requires_explicit_start():
    """Regression: ``map`` used to silently self-start a context-less pool,
    which was then considered started and never received a real context."""
    backend = ProcessPoolBackend(max_workers=1)
    with pytest.raises(RuntimeError, match="requires a started pool"):
        backend.map(abs, [-1])
    # After the refused map, a proper start + dispatch still works.
    with backend:
        backend.start(None)
        assert backend.map(abs, [-1, -2]) == [1, 2]


def test_run_experiment_starts_backend_explicitly(monkeypatch):
    from repro.experiments import EXPERIMENTS, Experiment, Variant, run_experiment

    monkeypatch.setitem(EXPERIMENTS, "store-row", Experiment(
        "store row", {"values": (2, 3)},
        lambda f: [Variant(str(value), _variant_runner, {"value": value})
                   for value in f["values"]],
        lambda m, f: "", metric=lambda result: result))
    backend = ProcessPoolBackend(max_workers=1)
    with backend:
        summary = run_experiment("store-row", backend=backend)
    assert summary["metrics"] == {"2": 4, "3": 9}


def _variant_runner(value, scale, seed):
    return value * value


def test_state_ref_is_tiny_and_picklable():
    import pickle

    ref = StateRef(key="ab" * 32, round_version=3, kind="state", nbytes=1024,
                   label="device")
    blob = pickle.dumps(ref)
    assert len(blob) < 300
    assert pickle.loads(blob) == ref
