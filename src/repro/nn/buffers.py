"""Reusable scratch storage for the autograd hot path.

The conv/linear forward and backward passes need the same large
temporaries every step — im2col column matrices, padded image planes,
gradient-column products, activations.  :class:`BufferPool` is a
per-thread *region arena*: a few large chunks of bytes, out of which
``acquire`` carves the lowest free block that fits the request (splitting
off what is left over) and into which ``release`` puts a block back, merged
with whichever of its neighbours are free.  Bytes are bytes — whatever shape
or dtype they last served — so the generator, the global model and
heterogeneous on-device models share one working set, and a phase that needs
one large array is served from the space the small arrays of the phase
before gave back.

Lifecycle rules (see ``docs/architecture.md`` → "Buffer lifecycle &
numeric policy"):

* ``acquire`` takes its bytes out of the free list entirely — two
  concurrent users can never alias one region, even for identical shapes.
* ``release`` returns the region behind an acquired array for reuse.
  Callers release inside the backward closure (which
  :meth:`Tensor.backward` guarantees runs at most once) *after* every read
  of the buffer, or immediately on no-grad paths.  Only the array
  ``acquire`` handed out is accepted — views of it, arrays from elsewhere
  and second releases are ignored.  An array that is never released gives
  its region back when it is garbage-collected — forgetting to release can
  never corrupt data, it only delays reuse.
* Pooled arrays are always handed to ``Tensor._accumulate`` with
  ``owned=False`` (the accumulator copies or adds; it never adopts them).
* The pool is **per-thread** module state.  It is never pickled and never
  part of a task payload, so buffers cannot cross the process wire; each
  backend worker grows its own pool.
* ``trim`` gives back to the operating system what no ``acquire`` reached
  since the previous ``trim`` — the pages above that reach, and a chunk nothing
  touched whole; the simulation engine and every backend worker run it once
  per round (``enter_round``).

Regions are uninitialized storage: every consumer fully overwrites the
array (``out=`` ufuncs/einsums, ``np.copyto``, ``fill``) before any read,
so stale contents are unobservable, and the array has exactly the shape,
dtype and C layout ``np.empty`` would give — results stay bit-identical to
the allocating formulation.
"""

from __future__ import annotations

import math
import mmap
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["BufferPool", "fresh_pool", "scratch_pool"]

#: Bytes reserved per chunk (a larger request gets a chunk of its own size).
#: Reserved is not resident: a chunk's pages are backed as blocks first reach
#: them, so a large chunk costs address space only, and the larger it is the
#: fewer boundaries there are that a merge cannot cross.
_CHUNK_BYTES = 64 * 2 ** 20

#: Block sizes and offsets are multiples of this power of two (float64
#: alignment).
_GRAIN = 8


class _Storage(np.ndarray):
    """The bytes of one chunk.

    A subclass only to be told apart by type: when an array is built over a
    base that does not own its data, numpy steps down to that base's own
    base for as long as it finds the new array's type there.  An array over
    a :class:`_Lease` keeps the lease as its ``base`` only because the next
    step down, this storage, is not a plain ``ndarray``.
    """

    __slots__ = ()


class _Lease(np.ndarray):
    """The bytes of one handed-out block: the ``base`` of the acquired array.

    ``release`` finds the block through it in O(1) and recognises views (the
    ``base`` of a view of the acquired array is that array, not the lease).
    The acquired array holds the only reference while the block is out, so
    an array that is dropped unreleased takes its lease with it, and the
    lease reports the block to the pool on its way out.
    """

    # holder: id() of the array handed out over this lease, 0 while the
    #         block is free (the double-release guard).
    # start:  the arena address of the block.
    # size:   its bytes (``nbytes``, as a plain attribute).
    # morgue: the owning pool's list of blocks whose lease died while out.
    __slots__ = ("holder", "start", "size", "morgue")

    def __del__(self) -> None:
        if self.holder:
            # list.append is atomic, so a lease may die on any thread.
            self.morgue.append((self.start, self.size))


class _Chunk:
    """One chunk: ``size`` bytes at arena addresses ``origin`` and up.

    Blocks, free or handed out, tile ``[origin, origin + top)``; the pages
    above are not backed.  ``reach`` is how far acquires got since the last
    trim.
    """

    __slots__ = ("memory", "storage", "origin", "size", "top", "reach")

    def __init__(self, origin: int, size: int) -> None:
        # A private anonymous mapping rather than an array that owns its
        # data, so that ``lower`` can hand pages back from the middle of it.
        self.memory = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.storage = np.ndarray.__new__(_Storage, (size,), np.uint8, self.memory)
        self.origin = origin
        self.size = size
        self.top = self.reach = 0

    def lower(self, top: int) -> None:
        """Bring ``top`` down and return the pages wholly above it."""
        page = -(-top // mmap.PAGESIZE) * mmap.PAGESIZE
        if page < self.top:
            self.memory.madvise(mmap.MADV_DONTNEED, page, self.top - page)
        self.top = top


class BufferPool:
    """Address-ordered first-fit region arena shared across shapes and dtypes."""

    def __init__(self) -> None:
        # Chunks by ascending origin.  Their address ranges are disjoint and
        # never adjacent, so one pair of lists holds every free block and a
        # merge cannot cross from one chunk into the next.
        self._chunks: List[_Chunk] = []
        # Free blocks by ascending address; parallel lists so the searches
        # run over plain ints.
        self._starts: List[int] = []
        self._sizes: List[int] = []
        # Block address -> the array last released there.  A request that
        # lands on the same bytes with the same size, shape and dtype gets
        # that very object back, so steady-state loops build no array
        # headers however often their blocks merged and split in between.
        self._arrays: Dict[int, np.ndarray] = {}
        self._morgue: List[Tuple[int, int]] = []
        self._round = -1
        self._acquires = self._misses = 0
        self._allocated_bytes = 0
        self._outstanding = 0
        self._high_water = 0

    def acquire(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array of the requested shape and dtype."""
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        if not nbytes:
            return np.empty(shape, dtype)
        self._acquires += 1
        if self._morgue:
            self._reap()
        size = (nbytes + _GRAIN - 1) & -_GRAIN
        # First fit by address: the lowest free block that is large enough.
        # Low addresses fill first and the top of a chunk is touched last,
        # which keeps what a step leaves behind in as few pages as it needs.
        starts, sizes = self._starts, self._sizes
        for index, free in enumerate(sizes):
            if free >= size:
                start = starts[index]
                if free == size:
                    del starts[index], sizes[index]
                else:  # the front of the block; the rest stays free
                    starts[index] = start + size
                    sizes[index] = free - size
                break
        else:
            start = self._extend(size)
        for chunk in self._chunks:
            if start < chunk.origin + chunk.size:
                break
        end = start + size - chunk.origin
        if end > chunk.reach:
            chunk.reach = end
        array = self._arrays.pop(start, None)
        lease = None if array is None else array.base
        if lease is None or lease.size != size:
            lease = np.ndarray.__new__(_Lease, (size,), np.uint8,
                                       chunk.storage, start - chunk.origin)
            lease.start = start
            lease.size = size
            lease.morgue = self._morgue
            array = np.ndarray(shape, dtype, lease)
        elif array.shape != shape or array.dtype != dtype:
            array = np.ndarray(shape, dtype, lease)
        lease.holder = id(array)
        self._outstanding += size
        if self._outstanding > self._high_water:
            self._high_water = self._outstanding
        return array

    def release(self, buffer: np.ndarray) -> None:
        """Return the region behind ``buffer`` for reuse.

        Only the array ``acquire`` returned is accepted, once, on the pool
        that made it.  Anything else passes through to the garbage
        collector: views (their base may outlive them, and pooling a view
        could alias live data), foreign arrays, repeated releases.
        """
        lease = buffer.base
        if (type(lease) is not _Lease or lease.holder != id(buffer)
                or lease.morgue is not self._morgue):
            return
        lease.holder = 0
        self._arrays[lease.start] = buffer
        self._free(lease.start, lease.size)

    def release_base(self, array: np.ndarray) -> None:
        """Release the acquired array that ``array`` is, or is a view of."""
        base = array.base
        self.release(base if type(base) is np.ndarray else array)

    def _top_block(self, chunk: _Chunk) -> Optional[int]:
        """Index of the free block that ends at the top of ``chunk``, if the
        topmost block is free."""
        top = chunk.origin + chunk.top
        index = bisect_left(self._starts, top) - 1
        if index >= 0 and self._starts[index] + self._sizes[index] == top \
                and self._starts[index] >= chunk.origin:
            return index
        return None

    def _extend(self, size: int) -> int:
        """The address of ``size`` bytes that end in never-used ones: the
        top of the first chunk with room is raised — over its topmost block,
        when that is free — or a new chunk started."""
        for chunk in self._chunks:
            index = self._top_block(chunk)
            start = chunk.origin + chunk.top if index is None else self._starts[index]
            if start + size <= chunk.origin + chunk.size:
                if index is not None:
                    del self._starts[index], self._sizes[index]
                break
        else:
            last = self._chunks[-1] if self._chunks else None
            # One grain between chunks: blocks of two chunks never touch.
            start = 0 if last is None else last.origin + last.size + _GRAIN
            chunk = _Chunk(start, max(size, _CHUNK_BYTES))
            self._chunks.append(chunk)
        top = start + size - chunk.origin
        self._misses += 1
        self._allocated_bytes += top - chunk.top
        chunk.top = top
        return start

    def _free(self, start: int, size: int) -> None:
        """Put a handed-out block on the free list, merged with its free
        neighbours."""
        self._outstanding -= size
        starts, sizes = self._starts, self._sizes
        index = bisect_left(starts, start)
        above = index < len(starts) and starts[index] == start + size
        if index and starts[index - 1] + sizes[index - 1] == start:
            if above:
                size += sizes[index]
                del starts[index], sizes[index]
            sizes[index - 1] += size
        elif above:
            starts[index] = start
            sizes[index] += size
        else:
            starts.insert(index, start)
            sizes.insert(index, size)

    def _reap(self) -> None:
        """Free the blocks whose arrays were garbage-collected unreleased."""
        morgue = self._morgue
        while morgue:
            self._free(*morgue.pop())

    def trim(self) -> None:
        """Give back what no ``acquire`` reached since the last trim.

        Called at a round boundary: what the round that just ended used
        stays, what it never asked for goes — the top of each chunk comes
        down to the round's reach (or to the topmost block still out, if
        that is higher) and the pages above return to the operating system;
        a chunk left with nothing is unmapped.  Acquired arrays are
        unaffected.
        """
        self._reap()
        starts, sizes = self._starts, self._sizes
        for chunk in list(self._chunks):
            # Free neighbours are always merged, so at most one free block
            # lies above the topmost handed-out one.
            index = self._top_block(chunk)
            held = chunk.top if index is None else starts[index] - chunk.origin
            keep = max(chunk.reach, held)
            chunk.reach = 0
            if keep == chunk.top:
                continue
            if keep == held:
                del starts[index], sizes[index]
            else:
                sizes[index] = keep - held
            if keep:
                chunk.lower(keep)
            else:
                self._chunks.remove(chunk)
        # Arrays are kept for the blocks as they stand now; the rest were
        # for layouts that merges have since erased.
        arrays = self._arrays
        self._arrays = {start: arrays[start] for start in starts if start in arrays}

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
        """Bytes of the free blocks: backed by pages and not handed out
        (introspection/benchmarks)."""
        self._reap()
        return sum(self._sizes)

    def stats(self) -> Dict[str, int]:
        """Counters since the pool was created (plain ints, no timing).

        ``hits`` / ``misses`` split ``acquires`` into requests served from
        a free block and requests that raised the top of a chunk
        (by ``allocated_bytes`` in total); ``outstanding_high_water`` is the most
        bytes ever handed out at once, the working set the arena has to hold.
        """
        free = self.free_bytes()
        return {
            "acquires": self._acquires,
            "hits": self._acquires - self._misses,
            "misses": self._misses,
            "allocated_bytes": self._allocated_bytes,
            "outstanding_bytes": self._outstanding,
            "outstanding_high_water": self._high_water,
            "free_bytes": free,
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
