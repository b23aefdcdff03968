"""Reusable scratch storage for the autograd hot path.

The conv/linear forward and backward passes need the same large
temporaries every step — im2col column matrices, padded image planes,
gradient-column products, activations.  :class:`BufferPool` is a
per-thread arena of flat byte *slabs*: ``acquire`` hands out an array
viewing the smallest free slab that fits the request (within a fixed
slack), whatever shape or dtype that slab last served, so the generator,
the global model and heterogeneous on-device models share one working set
instead of each parking its own.

Lifecycle rules (see ``docs/architecture.md`` → "Buffer lifecycle &
numeric policy"):

* ``acquire`` removes a slab from the arena entirely — two concurrent
  users can never alias one slab, even for identical shapes.
* ``release`` returns the slab behind an acquired array for reuse.
  Callers release inside the backward closure (which
  :meth:`Tensor.backward` guarantees runs at most once) *after* every read
  of the buffer, or immediately on no-grad paths.  Only the array
  ``acquire`` handed out is accepted — views of it, arrays from elsewhere
  and second releases are ignored.  An array that is never released is
  simply garbage-collected together with its slab — forgetting to release
  can never corrupt data, it only forgoes reuse.
* Pooled arrays are always handed to ``Tensor._accumulate`` with
  ``owned=False`` (the accumulator copies or adds; it never adopts them).
* The pool is **per-thread** module state.  It is never pickled and never
  part of a task payload, so buffers cannot cross the process wire; each
  backend worker grows its own pool.
* ``trim`` drops the free slabs nothing acquired since the previous
  ``trim``; the simulation engine and every backend worker run it once per
  round (``enter_round``), so a round keeps the working set it just used
  and shape churn between rounds cannot pin memory.

Slabs are uninitialized storage: every consumer fully overwrites the
array (``out=`` ufuncs/einsums, ``np.copyto``, ``fill``) before any read,
so stale contents are unobservable, and the array has exactly the shape,
dtype and C layout ``np.empty`` would give — results stay bit-identical to
the allocating formulation.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["BufferPool", "fresh_pool", "scratch_pool"]

#: A free slab serves a request only when it is at most this many times its
#: size.  Heterogeneous models ask for a different size at every layer, one
#: after the other: a tight fit makes each of them allocate its own slabs,
#: no bound lets a small request occupy the slab the next large one needs.
_SLACK = 2


class _Slab(np.ndarray):
    """Flat uint8 storage behind one acquired array.

    A subclass so that it owns its memory *and* is told apart by type:
    numpy sets the ``base`` of an array built over a slab to the slab
    itself, and the ``base`` of any view of that array to the array (base
    collapsing stops at a subclass boundary) — which is how ``release``
    finds the slab in O(1) and recognises views.
    """

    # holder: id() of the array currently handed out over this slab, 0 while
    #         the slab is free (the double-release guard).
    # stamp:  pool generation of the last acquire (what ``trim`` reads).
    # morgue: the owning pool's list of sizes of slabs that were deallocated.
    __slots__ = ("holder", "stamp", "morgue")

    def __del__(self) -> None:
        # list.append is atomic, so a slab may die on any thread.
        self.morgue.append(self.nbytes)


class BufferPool:
    """Best-fit arena of byte slabs shared across shapes and dtypes."""

    def __init__(self) -> None:
        # Free slabs, ascending by size; parallel lists so the bisect runs
        # over plain ints.  ``_arrays[i]`` is the array last handed out over
        # the slab (``.base`` is the slab): a repeat request for its shape
        # and dtype gets that very object back, so steady-state loops build
        # no array headers.
        self._sizes: List[int] = []
        self._arrays: List[np.ndarray] = []
        self._free_bytes = 0
        self._live_bytes = 0  # slabs alive, free or handed out
        self._morgue: List[int] = []
        self._generation = 0
        self._round = -1
        self._acquires = self._hits = self._misses = 0
        self._allocated_bytes = 0
        self._high_water = 0

    def acquire(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array of the requested shape and dtype."""
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        if not nbytes:
            return np.empty(shape, dtype)
        self._acquires += 1
        sizes = self._sizes
        index = bisect_left(sizes, nbytes)
        if index < len(sizes) and sizes[index] <= nbytes * _SLACK:
            self._hits += 1
            self._free_bytes -= sizes.pop(index)
            array = self._arrays.pop(index)
            slab = array.base
            if array.shape != shape or array.dtype != dtype:
                array = np.ndarray(shape, dtype, slab)
        else:
            self._misses += 1
            self._allocated_bytes += nbytes
            self._live_bytes += nbytes
            slab = np.ndarray.__new__(_Slab, (nbytes,), np.uint8)
            slab.morgue = self._morgue
            array = np.ndarray(shape, dtype, slab)
        slab.holder = id(array)
        slab.stamp = self._generation
        if self._morgue:
            self._reap()
        outstanding = self._live_bytes - self._free_bytes
        if outstanding > self._high_water:
            self._high_water = outstanding
        return array

    def release(self, buffer: np.ndarray) -> None:
        """Return the slab behind ``buffer`` for reuse.

        Only the array ``acquire`` returned is accepted, once, on the pool
        that made it.  Anything else passes through to the garbage
        collector: views (their base may outlive them, and pooling a view
        could alias live data), foreign arrays, repeated releases.
        """
        slab = buffer.base
        if (type(slab) is not _Slab or slab.holder != id(buffer)
                or slab.morgue is not self._morgue):
            return
        slab.holder = 0
        size = slab.nbytes
        index = bisect_left(self._sizes, size)
        self._sizes.insert(index, size)
        self._arrays.insert(index, buffer)
        self._free_bytes += size

    def release_base(self, array: np.ndarray) -> None:
        """Release the acquired array that ``array`` is, or is a view of."""
        base = array.base
        self.release(base if type(base) is np.ndarray else array)

    def trim(self) -> None:
        """Drop the free slabs that no ``acquire`` touched since the last trim.

        Called at a round boundary: what the round that just ended used
        stays (so the next round does not fault its working set in again),
        what it never asked for goes.  Acquired arrays are unaffected.
        """
        generation = self._generation
        keep = [index for index, array in enumerate(self._arrays)
                if array.base.stamp >= generation]
        self._sizes = [self._sizes[index] for index in keep]
        self._arrays = [self._arrays[index] for index in keep]
        self._free_bytes = sum(self._sizes)
        self._generation = generation + 1

    def enter_round(self, version: int) -> None:
        """``trim`` once per round, however many callers announce the round.

        The driver announces a round at its top; a backend worker learns of
        it from the ``round_version`` of the first payload it resolves — on
        the serial backend both are this thread, and payloads published in
        the previous round are still resolved during the next.  A version
        that falls back further than that is a new run on a reused thread.
        """
        if version > self._round or version < self._round - 1:
            self._round = version
            self.trim()

    def free_bytes(self) -> int:
        """Total bytes of the free slabs (introspection/benchmarks)."""
        return self._free_bytes

    def _reap(self) -> None:
        """Take the slabs that were garbage-collected off the live count."""
        morgue = self._morgue
        while morgue:
            self._live_bytes -= morgue.pop()

    def stats(self) -> Dict[str, int]:
        """Counters since the pool was created (plain ints, no timing).

        ``hits`` / ``misses`` split ``acquires`` into requests served from a
        free slab and requests that allocated one (``allocated_bytes`` in
        total); ``outstanding_high_water`` is the most slab bytes ever handed
        out at once, the working set the arena has to hold.
        """
        self._reap()
        return {
            "acquires": self._acquires,
            "hits": self._hits,
            "misses": self._misses,
            "allocated_bytes": self._allocated_bytes,
            "outstanding_bytes": self._live_bytes - self._free_bytes,
            "outstanding_high_water": self._high_water,
            "free_bytes": self._free_bytes,
        }


class _PoolLocal(threading.local):
    pool = None


_POOL = _PoolLocal()


def scratch_pool() -> BufferPool:
    """The calling thread's shared scratch pool (created lazily)."""
    if _POOL.pool is None:
        _POOL.pool = BufferPool()
    return _POOL.pool


@contextmanager
def fresh_pool() -> Iterator[BufferPool]:
    """Run the block on a new, empty arena and yield it.

    What the block takes is then read off that arena's ``stats()``; the
    calling thread's own arena is set aside untouched and put back after.
    """
    own, _POOL.pool = _POOL.pool, BufferPool()
    try:
        yield _POOL.pool
    finally:
        _POOL.pool = own
