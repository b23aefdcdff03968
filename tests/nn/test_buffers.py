"""The scratch arena: aliasing, release rules, reuse, splitting and merging,
trimming, steady state."""

from __future__ import annotations

import gc
import mmap
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.simple import SimpleCNN
from repro.nn import SGD, Tensor, buffers, scratch_pool
from repro.nn.buffers import BufferPool, fresh_pool
from repro.nn.losses import cross_entropy

_DTYPES = (np.float64, np.float32, np.bool_, np.int64)

_acquire = st.tuples(
    st.just("acquire"),
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    st.sampled_from(_DTYPES))
_release = st.tuples(st.just("release"), st.integers(0, 64), st.booleans())


class TestAliasing:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_acquire, _release), min_size=1, max_size=40))
    def test_live_acquires_never_share_storage(self, operations):
        """Whatever the order of acquires and releases (repeated ones
        included), an array that is still checked out keeps the bytes its
        holder wrote and overlaps no other checked-out array."""
        pool = BufferPool()
        live = []  # (array, the value its holder filled it with)
        for step, operation in enumerate(operations):
            if operation[0] == "acquire":
                _, shape, dtype = operation
                array = pool.acquire(shape, dtype)
                assert array.shape == shape and array.dtype == dtype
                assert array.flags.c_contiguous and array.flags.writeable
                value = step % 2 if dtype is np.bool_ else step + 1
                array.fill(value)
                live.append((array, value))
            elif live:
                _, position, twice = operation
                array, _ = live.pop(position % len(live))
                pool.release(array)
                if twice:
                    pool.release(array)
            for index, (array, value) in enumerate(live):
                assert (array == value).all()
                for other, _ in live[index + 1:]:
                    assert not np.shares_memory(array, other)
        stats = pool.stats()
        assert stats["hits"] + stats["misses"] == stats["acquires"]


class TestRelease:
    def test_views_keep_the_acquired_array_as_their_base(self):
        """The numpy rule ``release`` / ``release_base`` rest on: an array
        built over a lease has the lease as ``base``; a view of that array —
        transposed, reshaped, sliced — has the array."""
        pool = BufferPool()
        array = pool.acquire((4, 6))
        assert type(array) is np.ndarray and type(array.base) is not np.ndarray
        for view in (array.T, array.T.reshape(3, 2, 4), array[1:], array.view(np.int64)):
            assert view.base is array

    def test_releasing_a_view_is_a_noop(self):
        pool = BufferPool()
        array = pool.acquire((4, 6))
        for view in (array[1:], array.T, array.reshape(24)):
            pool.release(view)
        assert pool.free_bytes() == 0
        assert not np.shares_memory(pool.acquire((4, 6)), array)

    def test_release_base_releases_the_array_behind_a_view(self):
        pool = BufferPool()
        array = pool.acquire((4, 6))
        pool.release_base(array.T.reshape(3, 2, 4))
        assert pool.free_bytes() == array.nbytes
        assert pool.acquire((4, 6)) is array
        pool.release_base(array)  # the acquired array itself works too
        assert pool.free_bytes() == array.nbytes

    def test_double_release_is_ignored(self):
        pool = BufferPool()
        array = pool.acquire((8,))
        pool.release(array)
        pool.release(array)
        assert pool.free_bytes() == array.nbytes
        first, second = pool.acquire((8,)), pool.acquire((8,))
        assert not np.shares_memory(first, second)

    def test_stale_handle_cannot_free_a_reacquired_slab(self):
        """A second release through the *old* array, after the block went out
        again under another shape, must not put it back on the free list."""
        pool = BufferPool()
        stale = pool.acquire((8,))
        pool.release(stale)
        current = pool.acquire((2, 4))
        assert np.shares_memory(stale, current)
        pool.release(stale)
        assert pool.free_bytes() == 0
        assert not np.shares_memory(pool.acquire((8,)), current)

    def test_foreign_arrays_pass_through(self):
        pool = BufferPool()
        pool.release(np.empty((4, 4)))
        pool.release(np.empty((4, 4))[:2])
        assert pool.free_bytes() == 0

    def test_an_unreleased_array_gives_its_region_back_when_collected(self):
        pool = BufferPool()
        kept = pool.acquire((16,))
        array = pool.acquire((1024,))
        assert pool.stats()["outstanding_bytes"] == kept.nbytes + array.nbytes
        del array
        gc.collect()
        stats = pool.stats()
        assert stats["outstanding_bytes"] == kept.nbytes
        assert stats["free_bytes"] == 8192
        assert stats["outstanding_high_water"] == kept.nbytes + 8192
        # The very bytes are handed out again, not new ones.
        again = pool.acquire((1024,))
        assert pool.stats()["misses"] == 2 and not np.shares_memory(again, kept)
        # A view keeps the acquired array, and so its region, alive.
        view = again[5:]
        del again
        gc.collect()
        assert pool.stats()["outstanding_bytes"] == kept.nbytes + 8192
        del view
        gc.collect()
        assert pool.stats()["outstanding_bytes"] == kept.nbytes


class TestReuse:
    def test_same_request_gets_the_same_array_object_back(self):
        pool = BufferPool()
        array = pool.acquire((4, 6), np.float32)
        pool.release(array)
        assert pool.acquire((4, 6), np.float32) is array

    def test_reuse_across_shapes_and_dtypes(self):
        pool = BufferPool()
        array = pool.acquire((4, 6))  # 192 bytes
        pool.release(array)
        reshaped = pool.acquire((2, 3, 4))
        assert reshaped.shape == (2, 3, 4) and np.shares_memory(reshaped, array)
        pool.release(reshaped)
        narrower = pool.acquire((5, 7), np.float32)  # 140 bytes: split off the front
        assert narrower.dtype == np.float32 and np.shares_memory(narrower, array)
        pool.release(narrower)
        flags = pool.acquire((150,), np.bool_)
        assert flags.dtype == np.bool_ and np.shares_memory(flags, array)
        stats = pool.stats()
        assert (stats["acquires"], stats["hits"], stats["misses"]) == (4, 3, 1)
        assert stats["allocated_bytes"] == 192

    def test_first_fit_takes_the_lowest_block_that_fits(self):
        pool = BufferPool()
        large, _, small, _ = (pool.acquire((count,)) for count in (150, 1, 100, 1))
        pool.release(small)
        pool.release(large)
        assert np.shares_memory(pool.acquire((120,)), large)  # too big for the other
        pool.release(pool.acquire((120,)))
        first, second = pool.acquire((90,)), pool.acquire((90,))
        assert np.shares_memory(first, large) and np.shares_memory(second, small)

    def test_a_thousand_repeats_build_no_new_array(self):
        """The steady-state request — the size that was just released — is
        answered with the array object that was released, whether the block
        stood between two that are out or merged into a free one above it
        and was split off again."""
        for merging in (False, True):
            pool = BufferPool()
            below, array, above = pool.acquire((7,)), pool.acquire((64, 32)), pool.acquire((9,))
            if merging:
                pool.release(above)
            for _ in range(1000):
                pool.release(array)
                assert len(pool._starts) == 1
                assert pool.acquire((64, 32)) is array
            stats = pool.stats()
            assert (stats["acquires"], stats["misses"]) == (1003, 3)
            assert below.base is not array.base

    def test_zero_size_requests_bypass_the_arena(self):
        pool = BufferPool()
        empty = pool.acquire((0, 5))
        assert empty.shape == (0, 5) and pool.stats()["acquires"] == 0

    def test_pools_are_per_thread(self):
        pools = []
        worker = threading.Thread(target=lambda: pools.append(scratch_pool()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert pools[0] is not scratch_pool()
        assert scratch_pool() is scratch_pool()

    def test_a_block_is_not_adopted_by_another_threads_pool(self):
        mine, other = BufferPool(), BufferPool()
        array = mine.acquire((16,))
        other.release(array)
        assert other.free_bytes() == 0
        mine.release(array)
        assert mine.free_bytes() == array.nbytes


class TestSplitAndMerge:
    def test_a_large_block_serves_a_small_request_and_keeps_the_rest(self):
        pool = BufferPool()
        large = pool.acquire((2 ** 20,), np.uint8)
        pool.release(large)
        small = pool.acquire((4096,), np.uint8)
        assert np.shares_memory(small, large)
        assert pool.free_bytes() == 2 ** 20 - 4096
        rest = pool.acquire((2 ** 20 - 4096,), np.uint8)
        assert np.shares_memory(rest, large) and not np.shares_memory(rest, small)
        stats = pool.stats()
        assert (stats["hits"], stats["misses"]) == (2, 1)
        assert stats["allocated_bytes"] == stats["outstanding_bytes"] == 2 ** 20

    @pytest.mark.parametrize("first", [0, 1])
    def test_released_neighbours_serve_one_request_of_their_sum(self, first):
        pool = BufferPool()
        pair = [pool.acquire((100,)), pool.acquire((150,))]
        fence = pool.acquire((1,))
        pool.release(pair[first])
        pool.release(pair[1 - first])
        both = pool.acquire((250,))
        assert all(np.shares_memory(both, array) for array in pair)
        assert not np.shares_memory(both, fence)
        assert pool.stats()["misses"] == 3 and pool.free_bytes() == 0

    def test_the_top_of_a_chunk_is_raised_over_its_free_topmost_block(self):
        """A request nothing fits reaches into never-used bytes only for what
        the free block below them cannot cover."""
        pool = BufferPool()
        pool.release(pool.acquire((100,)))
        wider = pool.acquire((1000,))
        assert pool.stats()["allocated_bytes"] == wider.nbytes
        pool.release(wider)
        assert pool.free_bytes() == wider.nbytes

    def test_a_stale_handle_cannot_free_a_merged_and_rehanded_region(self):
        pool = BufferPool()
        stale, other = pool.acquire((8,)), pool.acquire((8,))
        pool.release(stale)
        pool.release(other)
        current = pool.acquire((16,))
        assert np.shares_memory(current, stale) and np.shares_memory(current, other)
        pool.release(stale)
        pool.release(other)
        assert pool.free_bytes() == 0
        assert pool.stats()["outstanding_bytes"] == current.nbytes
        assert not np.shares_memory(pool.acquire((8,)), current)

    def test_a_request_larger_than_a_chunk_gets_a_chunk_of_its_own(self, monkeypatch):
        monkeypatch.setattr(buffers, "_CHUNK_BYTES", 4096)
        pool = BufferPool()
        small, huge = pool.acquire((64,)), pool.acquire((1000,))
        assert len(pool._chunks) == 2 and not np.shares_memory(small, huge)
        pool.release(huge)
        pool.release(small)
        assert np.shares_memory(pool.acquire((900,)), huge)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        _acquire, _release, st.tuples(st.just("drop"), st.integers(0, 64))),
        min_size=1, max_size=60))
    def test_everything_released_leaves_one_free_block_per_chunk(self, operations):
        """Acquires, releases and arrays dropped unreleased, in any order:
        once everything is back the blocks have merged into one per chunk,
        which covers all of the chunk that was ever handed out."""
        with mock.patch.object(buffers, "_CHUNK_BYTES", 256):  # several chunks
            pool = BufferPool()
            live = []
            for operation in operations:
                if operation[0] == "acquire":
                    live.append(pool.acquire(operation[1], operation[2]))
                elif live and operation[0] == "release":
                    pool.release(live.pop(operation[1] % len(live)))
                elif live:
                    del live[operation[1] % len(live)]
            while live:
                pool.release(live.pop())
        gc.collect()
        stats = pool.stats()
        assert stats["outstanding_bytes"] == 0
        assert pool._starts == [chunk.origin for chunk in pool._chunks]
        assert pool._sizes == [chunk.top for chunk in pool._chunks]
        assert stats["free_bytes"] == stats["allocated_bytes"] == sum(pool._sizes)
        pool.trim()
        pool.trim()  # nothing is out and nothing was asked for: every chunk goes
        assert not pool._chunks and not pool._starts and pool.free_bytes() == 0


class TestTrim:
    def test_trim_keeps_what_the_last_round_used(self):
        pool = BufferPool()
        used, idle = pool.acquire((100,)), pool.acquire((1000,))
        pool.release(used)
        pool.release(idle)
        pool.trim()  # both were acquired in the round that just ended
        assert pool.free_bytes() == used.nbytes + idle.nbytes
        pool.release(pool.acquire((100,)))  # this round only asks for the small one
        pool.trim()
        assert pool.free_bytes() == used.nbytes
        assert pool.acquire((100,)) is used

    def test_trim_leaves_acquired_arrays_alone(self):
        pool = BufferPool()
        held = pool.acquire((100,))
        held.fill(7.0)
        pool.trim()
        pool.trim()
        assert (held == 7.0).all()
        pool.release(held)
        assert pool.free_bytes() == held.nbytes

    def test_enter_round_trims_once_per_round(self):
        pool = BufferPool()

        def use(count):
            pool.release(pool.acquire((count,)))

        pool.enter_round(0)
        use(100)
        use(1000)
        pool.enter_round(1)
        use(100)
        # The same round announced again (driver and worker on one thread),
        # and a payload of the previous round resolved late: no second trim.
        pool.enter_round(1)
        pool.enter_round(0)
        assert pool.free_bytes() == 8000  # the wider request grew over the first
        pool.enter_round(2)
        assert pool.free_bytes() == 800
        # A new run on the same thread starts its count over.
        use(1000)
        pool.enter_round(0)
        use(1000)
        pool.enter_round(1)
        assert pool.free_bytes() == 8000


class TestTrimReturnsPages:
    @staticmethod
    def _resident():
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * mmap.PAGESIZE

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
    def test_what_a_round_did_not_reach_leaves_the_resident_set(self):
        """``free_bytes`` is memory the process holds: a trim that takes
        bytes off it hands their pages back, within a chunk too."""
        pool = BufferPool()
        kept, large = pool.acquire((2 ** 17,)), pool.acquire((2 ** 22,))  # 1 and 32 MiB
        kept.fill(1.0)
        large.fill(2.0)
        pool.release(large)
        pool.trim()
        before = self._resident()
        assert pool.free_bytes() == large.nbytes
        pool.trim()
        assert pool.free_bytes() == 0 and len(pool._chunks) == 1
        assert before - self._resident() >= 0.9 * large.nbytes
        assert (kept == 1.0).all()
        # The bytes are still the chunk's to hand out.
        again = pool.acquire((2 ** 22,))
        again.fill(3.0)
        assert np.shares_memory(again, large) and (kept == 1.0).all()


class TestFreshPool:
    def test_the_block_runs_on_an_arena_of_its_own(self):
        own = scratch_pool()
        before = own.stats()
        try:
            with fresh_pool() as pool:
                assert scratch_pool() is pool and pool is not own
                pool.release(pool.acquire((4, 4)))
                raise KeyError("the thread's arena comes back on the way out too")
        except KeyError:
            pass
        assert scratch_pool() is own and own.stats() == before
        assert pool.stats()["acquires"] == 1 and pool.free_bytes() == 128


class TestSteadyState:
    def test_train_loop_allocates_nothing_after_warm_up(self, rng, monkeypatch):
        """One step of a SimpleCNN train loop in its steady form builds the
        working set; every further step is served from it, and what the
        arena then holds is within 1.25x of what a step has checked out at
        its peak.  (The very first step is not of that form: the parameters
        have no ``.grad`` yet, so it runs before the warm-up step.)"""
        pool = BufferPool()
        monkeypatch.setattr(buffers._POOL, "pool", pool)  # this thread's, for the test
        model = SimpleCNN((3, 8, 8), 4, channels=(4, 8), hidden_size=16, seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        images = rng.normal(size=(6, 8, 3, 8, 8))
        labels = rng.integers(0, 4, size=(6, 8))

        def step(index):
            optimizer.zero_grad(set_to_none=False)
            cross_entropy(model(Tensor(images[index])), labels[index]).backward()
            optimizer.step()

        step(0)
        step(1)
        warm = pool.stats()
        for index in range(2, 6):
            step(index)
        steady = pool.stats()
        assert warm["misses"] > 0 and steady["hits"] > warm["hits"]
        # Even the 8-byte scalar loss a backward starts from comes back: it
        # stays readable (``item()``) for as long as the loss tensor lives,
        # and the region goes back to the arena with the tensor's last
        # reference.  Nothing is allocated.
        assert steady["misses"] - warm["misses"] == 0
        assert steady["allocated_bytes"] - warm["allocated_bytes"] == 0
        assert steady["outstanding_high_water"] <= warm["outstanding_high_water"] + 4 * 8
        assert (steady["free_bytes"] + steady["outstanding_bytes"]
                <= 1.25 * steady["outstanding_high_water"])
