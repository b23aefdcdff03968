"""Reverse-mode automatic differentiation on top of numpy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  The paper's algorithms (adversarial generator
training, knowledge distillation, gradient probes with respect to input
data) all require gradients to flow through arbitrary compositions of
differentiable operations, including *through* frozen models and *into*
generated inputs.  A small reverse-mode autodiff engine gives us exactly
the same code paths PyTorch would, at laptop scale.

Design notes
------------
* Each operation builds a new :class:`Tensor` whose ``_backward`` closure
  reads the output tensor's ``grad`` and accumulates into the operands'
  ``grad`` buffers (micrograd-style).
* ``backward()`` runs an iterative topological sort over the recorded graph
  and calls the closures in reverse order.
* Broadcasting is supported for elementwise arithmetic; gradients are
  "unbroadcast" (summed) back to the operand shapes.
* Intermediate tensors are created fresh on every forward pass, so their
  gradients never leak across steps.  Parameters and probed inputs are
  long-lived leaves; zero them with :meth:`Tensor.zero_grad` or via an
  optimizer.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .buffers import scratch_pool
from .policy import policy_dtype

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "concatenate",
    "stack",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# Per-thread autograd switch (mirrors ``torch.no_grad``).  Manipulated only
# through the ``no_grad`` context manager below.  Thread-local rather than a
# module global so work running concurrently on threads cannot corrupt each
# other's graph-construction mode (interleaved enter/exit of a shared flag
# could leave gradients disabled after all blocks closed).
class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation produces constant
    tensors (no recorded parents), which keeps inference and evaluation
    cheap.  The switch is per-thread.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_MODE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (this thread)."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    Broadcasting may both prepend dimensions and stretch size-1 axes; the
    gradient of a broadcast operand is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy for existing tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _forward_buffer(shape: Tuple[int, ...], dtype) -> Optional[np.ndarray]:
    """A pooled buffer for a forward output, or None.

    Every forward output in the numeric policy's dtype comes from the
    scratch arena (another dtype returns None and the caller allocates, so
    ``Tensor.__init__`` never meets a pooled array it would have to copy).
    Whether a graph records the output decides only when the bytes go back:
    a recorded output in ``backward()``, as its node's closure has run; an
    unrecorded one (evaluation, public logits, a teacher forward) when its
    array is dropped, through the arena's lease morgue.
    """
    if np.dtype(dtype) != policy_dtype():
        return None
    return scratch_pool().acquire(shape, dtype)


def _forward_buffer_like(arr: np.ndarray) -> Optional[np.ndarray]:
    """A pooled buffer matching ``arr``'s shape, dtype, AND memory layout,
    under :func:`_forward_buffer`'s condition (else None)."""
    if arr.dtype != policy_dtype():
        return None
    return _scratch_like(arr)


def _scratch_like(arr: np.ndarray) -> Optional[np.ndarray]:
    """Pooled scratch matching ``arr``'s shape, dtype, AND memory layout.

    Downstream reductions (batch-norm statistics in particular) are
    layout-sensitive at ulp level, so a pooled result may only replace an
    allocating ufunc result if its strides are exactly what ``order='K'``
    would have produced — ``arr``'s own strides, for the dense inputs the
    models generate.  Strided inputs (transposed-view conv outputs) get a
    base acquired in stride-descending order and viewed back; anything
    whose layout cannot be reproduced exactly returns None and the caller
    falls back to the allocating path.
    """
    pool = scratch_pool()
    if arr.flags.c_contiguous:
        return pool.acquire(arr.shape, arr.dtype)
    order = sorted(range(arr.ndim), key=lambda axis: (-arr.strides[axis], axis))
    base = pool.acquire(tuple(arr.shape[axis] for axis in order), arr.dtype)
    inverse = [0] * arr.ndim
    for position, axis in enumerate(order):
        inverse[axis] = position
    view = base.transpose(inverse)
    if view.strides != arr.strides:
        pool.release(base)
        return None
    return view


def _broadcasts_onto(small: Tuple[int, ...], big: Tuple[int, ...]) -> bool:
    """True when broadcasting ``small`` against ``big`` yields ``big``."""
    if len(small) > len(big):
        return False
    return all(s == 1 or s == g for s, g in zip(reversed(small), reversed(big)))


def _binary_forward(ufunc, a: "Tensor", b: "Tensor"):
    """``ufunc(a.data, b.data)`` into a pooled buffer when safe.

    Returns ``(data, pooled)``.  Pooling only happens in the cases whose
    ``order='K'`` output layout is predictable without allocating the
    reference result: a full-result-shape operand against a broadcast
    operand (the output copies the full operand's stride order — exactly
    what :func:`_forward_buffer_like` reconstructs, with its strides check
    rejecting anything it cannot reproduce), or two same-shape C-contiguous
    operands (C-contiguous output).  Elementwise values are bit-identical
    in any layout; the layout gate is for downstream reductions, which
    iterate in memory order.
    """
    av, bv = a.data, b.data
    buffer = None
    if av.dtype == bv.dtype:
        if av.shape == bv.shape:
            if av.flags.c_contiguous and bv.flags.c_contiguous:
                buffer = _forward_buffer(av.shape, av.dtype)
        elif _broadcasts_onto(bv.shape, av.shape):
            buffer = _forward_buffer_like(av)
        elif _broadcasts_onto(av.shape, bv.shape):
            buffer = _forward_buffer_like(bv)
    if buffer is None:
        return ufunc(av, bv), False
    ufunc(av, bv, out=buffer)
    return buffer, True


class Tensor:
    """A numpy-backed array that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload.  Floating payloads are stored in the active
        :mod:`numeric policy <repro.nn.policy>` dtype (``float64`` by
        default); integer payloads (e.g. label arrays) keep their dtype.
    requires_grad:
        Whether gradients should be accumulated for this tensor.  Leaf
        tensors created by the user (parameters, probed inputs) set this;
        intermediate tensors inherit the need for gradients from their
        parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_retain_grad", "_pooled_data", "_retain_data", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype.kind == "f":
            target = policy_dtype()
            if array.dtype != target:
                array = array.astype(target)
        elif array.dtype.kind not in "fiub":
            array = array.astype(policy_dtype())
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_MODE.enabled
        self._backward: Optional[Callable[[], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._retain_grad: bool = False
        self._pooled_data: bool = False
        self._retain_data: bool = False
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar payload of a single-element tensor."""
        if self.data is None:
            raise RuntimeError(
                "this tensor's storage went back to the scratch arena when backward() "
                "passed it; read the value before backward(), or call retain_data() first")
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(())[()])

    def retain_grad(self) -> None:
        """Keep this tensor's ``.grad`` through ``backward()``.

        Intermediate (non-leaf) gradients are normally reclaimed into the
        scratch pool as soon as the node's own closure has propagated them;
        call this before ``backward()``
        on any intermediate whose gradient must stay readable afterwards
        (e.g. the synthetic batch whose input-gradient norm Phase 1 logs).
        """
        self._retain_grad = True

    def retain_data(self) -> None:
        """Keep this tensor's ``.data`` through ``backward()``.

        Intermediate outputs produced into pooled buffers are reclaimed as
        backward passes them (nothing in the graph reads them again) and
        their ``.data`` reads ``None`` from then on.  Call this before
        ``backward()`` on any intermediate whose payload must stay readable
        afterwards — a synthesized batch that is re-used as data after the
        generator step, a loss term whose ``item()`` is logged.
        """
        self._retain_data = True

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph.

        Detaching declares that the payload outlives the graph, so it also
        pins a pooled forward output (see :meth:`retain_data`).
        """
        self._retain_data = True
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Reset the accumulated gradient.

        ``set_to_none=False`` keeps an already-allocated buffer and zeroes
        it in place instead of dropping it, making steady-state training
        loops allocation-free: the next backward pass accumulates into the
        same array via in-place ``+=``.  Starting from a zeroed buffer is
        bit-identical to starting from scratch (``0.0 + g == g`` under
        IEEE-754 up to the sign of zero, which no comparison in the
        library distinguishes).
        """
        if set_to_none or self.grad is None:
            self.grad = None
        else:
            self.grad.fill(0.0)

    # ------------------------------------------------------------------ #
    # Graph construction / backward pass
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_factory: Callable[["Tensor"], Callable[[], None]],
        pooled: bool = False,
    ) -> "Tensor":
        """Create a result tensor, wiring it into the graph when needed.

        ``backward_factory`` receives the freshly created output tensor and
        returns the zero-argument closure that propagates ``out.grad`` to the
        parents.  The factory is only invoked when gradients are enabled and
        at least one parent requires them, so inference pays no graph cost.
        ``pooled`` says ``data`` lives in a pooled forward buffer, which
        ``backward()`` reclaims with the graph when the node is recorded; an
        unrecorded node's buffer goes back when its array is dropped.
        """
        out = Tensor(data)
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_factory(out)
            out._pooled_data = pooled
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` (unbroadcast to our shape) into ``.grad``.

        ``owned=True`` is the caller's promise that ``grad`` was freshly
        allocated by the backward closure and no other reference to it
        exists, letting a first accumulation adopt the array instead of
        copying it.  Anything that aliases live graph state — ``out.grad``
        itself, views/slices of it, user-supplied seeds, pooled scratch
        buffers — must stay ``owned=False``.  When ``.grad`` already holds
        a buffer (persistent buffers via ``zero_grad(set_to_none=False)``,
        or a second accumulation) the addition happens in place; ``+=`` on
        float arrays performs the identical IEEE-754 additions as the
        allocating ``a = a + b``, so trajectories are bit-identical.

        Gradients follow the owning tensor's dtype (the numeric policy's
        job ends at construction time): a contribution arriving in another
        dtype is cast once here.
        """
        array = np.asarray(grad)
        if array.dtype != self.data.dtype:
            array = array.astype(self.data.dtype)
            owned = True
        if array.shape != self.data.shape:
            # _unbroadcast always reduces (sum / reshape-of-sum), so the
            # result is a fresh array the caller cannot hold a reference to.
            array = _unbroadcast(array, self.data.shape)
            owned = True
        if self.grad is not None:
            self.grad += array
        elif owned and array.flags.writeable:
            self.grad = array
        else:
            # First accumulation of a shared/viewed gradient: copy.
            self.grad = self._grad_storage(array.shape, array.dtype)
            np.copyto(self.grad, array)

    def _grad_storage(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Uninitialized storage for a first gradient accumulation.

        An interior node's gradient is the arena's: ``backward()`` gives it
        back right after the node's own closure.  A leaf's lives as long as
        the leaf (``zero_grad(set_to_none=False)`` keeps it for every later
        step), and bytes that never come back would split the arena's free
        space around them for good, so a leaf gets an array of its own.
        """
        if self._backward is None:
            return np.empty(shape, dtype)
        return scratch_pool().acquire(shape, dtype)

    def _accumulate_pooled(self, shape: Tuple[int, ...],
                           fill: Callable[[np.ndarray], None]) -> None:
        """Accumulate a computed gradient contribution through pooled scratch.

        ``fill(buffer)`` must write the full contribution (shape ``shape``,
        in this tensor's dtype) into ``buffer``.  The contribution lands
        either directly in the buffer adopted as ``.grad`` (first
        accumulation), in pooled scratch added in place (subsequent
        accumulations), or in pooled scratch reduced by ``_unbroadcast``
        (broadcast operands).  Every ``fill`` performs the same IEEE-754
        operations in the same order as the plain numpy expression of its
        gradient (``tests/nn/test_grad_reclaim.py`` holds those expressions).
        """
        pool = scratch_pool()
        dtype = self.data.dtype
        if shape != self.data.shape:
            scratch = pool.acquire(shape, dtype)
            fill(scratch)
            self._accumulate(_unbroadcast(scratch, self.data.shape), owned=True)
            pool.release(scratch)
            return
        buffer = self.grad
        if buffer is None:
            out = self._grad_storage(shape, dtype)
            fill(out)
            self.grad = out
        else:
            scratch = pool.acquire(shape, dtype)
            fill(scratch)
            buffer += scratch
            pool.release(scratch)

    def _accumulate_ufunc(self, ufunc: Callable, *operands) -> None:
        """Accumulate ``ufunc(*operands)`` without a throwaway temporary.

        The elementwise backward fast path: products like ``out.grad *
        mask`` are written straight into pooled scratch (or a pooled buffer
        adopted as ``.grad``) via the ufunc's ``out=`` form, which runs the
        identical kernel as the allocating expression.
        """
        shape = np.broadcast_shapes(*(np.shape(operand) for operand in operands))
        self._accumulate_pooled(shape, lambda out: ufunc(*operands, out=out))

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ones, which is the usual seed for a scalar loss.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )
            seed_owned = False  # may alias the caller's array

        # Iterative topological sort (avoids recursion limits on deep nets).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            # A parent that feeds nothing but leaves (a transposed weight)
            # goes under its siblings and comes off the stack after them, next
            # to this node in ``topo``: its closure then runs right after this
            # node's, not at the end of the walk with its gradient parked in
            # the arena until then.  All other closures keep their order
            # among themselves, so every interior gradient is summed in the
            # order it was; only the additions into a leaf used three or more
            # times in one graph can change places.
            below = len(stack)
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    if any(source._backward is not None for source in parent._parents):
                        stack.append((parent, False))
                    else:
                        stack.insert(below, (parent, False))

        # Reverse topological order runs every consumer's closure before a
        # node's own, and a closure reads only its output's data and grad and
        # its parents' data: once a node's closure has run, nothing reads
        # the node again.  So it is reclaimed there and then, not after the
        # walk — its gradient and its pooled forward output go back to the
        # thread's scratch arena for the closures still to run, and the graph
        # references go so the same leaves can enter a fresh graph next step.
        # Leaves (parameters, probed inputs) have no closure and keep
        # everything; the seed tensor backward ran from keeps its data and
        # gradient (and, its closure gone, dies with its last reference
        # instead of waiting in a cycle for the collector);
        # :meth:`retain_grad` and :meth:`retain_data` (or :meth:`detach`)
        # pin what must outlive backward on any other node.
        pool = scratch_pool()
        self._accumulate(grad, owned=seed_owned)
        for node in reversed(topo):
            if node._backward is None:
                continue
            node._backward()
            node._parents = ()
            node._backward = None
            if node is self:
                continue
            if node.grad is not None and not node._retain_grad:
                pool.release(node.grad)
                node.grad = None
            if node._pooled_data and not node._retain_data:
                # The bytes are the arena's again: a late read must fail, not
                # return whatever is written there next.
                pool.release_base(node.data)
                node._pooled_data = False
                node.data = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate(out.grad)
                if b.requires_grad:
                    b._accumulate(out.grad)

            return backward

        data, pooled = _binary_forward(np.add, a, b)
        return Tensor._make(data, (a, b), factory, pooled)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.negative, out.grad)

            return backward

        buffer = _forward_buffer_like(a.data)
        if buffer is None:
            data, pooled = -a.data, False
        else:
            np.negative(a.data, out=buffer)
            data, pooled = buffer, True
        return Tensor._make(data, (a,), factory, pooled)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate(out.grad)
                if b.requires_grad:
                    b._accumulate_ufunc(np.negative, out.grad)

            return backward

        data, pooled = _binary_forward(np.subtract, a, b)
        return Tensor._make(data, (a, b), factory, pooled)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.multiply, out.grad, b.data)
                if b.requires_grad:
                    b._accumulate_ufunc(np.multiply, out.grad, a.data)

            return backward

        data, pooled = _binary_forward(np.multiply, a, b)
        return Tensor._make(data, (a, b), factory, pooled)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.divide, out.grad, b.data)
                if b.requires_grad:
                    def fill(buffer: np.ndarray) -> None:
                        # ((-g) * a) / b**2, in that order
                        square = scratch_pool().acquire(b.data.shape, b.data.dtype)
                        np.power(b.data, 2, out=square)
                        np.negative(out.grad, out=buffer)
                        buffer *= a.data
                        buffer /= square
                        scratch_pool().release(square)

                    b._accumulate_pooled(out.grad.shape, fill)

            return backward

        data, pooled = _binary_forward(np.divide, a, b)
        return Tensor._make(data, (a, b), factory, pooled)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    def fill(buffer: np.ndarray) -> None:
                        # ``a.data ** (exponent - 1)`` stays a plain power
                        # expression for numpy's scalar-exponent fast paths
                        # (e.g. ``** 0.5`` -> sqrt).
                        np.multiply(out.grad, exponent, out=buffer)
                        buffer *= a.data ** (exponent - 1)

                    a._accumulate_pooled(out.grad.shape, fill)

            return backward

        return Tensor._make(a.data ** exponent, (a,), factory)

    def exp(self) -> "Tensor":
        a = self
        value = np.exp(a.data)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.multiply, out.grad, value)

            return backward

        return Tensor._make(value, (a,), factory)

    def log(self) -> "Tensor":
        a = self

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.divide, out.grad, a.data)

            return backward

        return Tensor._make(np.log(a.data), (a,), factory)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.multiply, out.grad, sign)

            return backward

        return Tensor._make(np.abs(a.data), (a,), factory)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        a = self
        mask = ((a.data >= low) & (a.data <= high)).astype(a.data.dtype)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate_ufunc(np.multiply, out.grad, mask)

            return backward

        return Tensor._make(np.clip(a.data, low, high), (a,), factory)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        value = a.data.sum(axis=axis, keepdims=keepdims)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if not a.requires_grad:
                    return
                g = np.asarray(out.grad)
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(ax % a.data.ndim for ax in axes)
                    g = np.expand_dims(g, axis=axes)
                a._accumulate(np.broadcast_to(g, a.data.shape))

            return backward

        return Tensor._make(np.asarray(value), (a,), factory)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divides by N), matching batch-norm statistics."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        value = a.data.max(axis=axis, keepdims=keepdims)
        max_keep = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == max_keep).astype(a.data.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if not a.requires_grad:
                    return
                g = np.asarray(out.grad)
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(ax % a.data.ndim for ax in axes)
                    g = np.expand_dims(g, axis=axes)
                elif axis is None:
                    g = np.broadcast_to(g, a.data.shape)
                a._accumulate_ufunc(np.multiply, mask, g)

            return backward

        return Tensor._make(np.asarray(value), (a,), factory)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.data.shape

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate(np.asarray(out.grad).reshape(original))

            return backward

        return Tensor._make(a.data.reshape(shape), (a,), factory)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten trailing dimensions starting at ``start_dim`` (keeps batch by default)."""
        shape = self.data.shape
        tail = int(np.prod(shape[start_dim:])) if shape[start_dim:] else 1
        return self.reshape(shape[:start_dim] + (tail,))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        axes = tuple(axes)
        inverse = tuple(int(i) for i in np.argsort(axes))
        a = self

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    a._accumulate(np.asarray(out.grad).transpose(inverse))

            return backward

        return Tensor._make(a.data.transpose(axes), (a,), factory)

    def __getitem__(self, index) -> "Tensor":
        a = self

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    full = np.zeros(a.data.shape, dtype=a.data.dtype)
                    np.add.at(full, index, out.grad)
                    a._accumulate(full, owned=True)

            return backward

        return Tensor._make(a.data[index], (a,), factory)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                grad = np.asarray(out.grad)
                if a.requires_grad:
                    _matmul_accumulate(a, grad, np.swapaxes(b.data, -1, -2))
                if b.requires_grad:
                    _matmul_accumulate(b, np.swapaxes(a.data, -1, -2), grad)

            return backward

        # The product goes into a pooled buffer (``np.matmul(..., out=)``
        # runs the identical gufunc/BLAS kernel, so values are bit-identical).
        data = None
        pooled = False
        if a.data.ndim >= 2 and b.data.ndim >= 2 and a.data.dtype == b.data.dtype:
            shape = np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2]) \
                + (a.data.shape[-2], b.data.shape[-1])
            buffer = _forward_buffer(shape, a.data.dtype)
            if buffer is not None:
                np.matmul(a.data, b.data, out=buffer)
                data = buffer
                pooled = True
        if data is None:
            data = a.data @ b.data
        return Tensor._make(data, (a, b), factory, pooled)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # Nonlinearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        a = self

        def write_mask(buffer: np.ndarray, values: np.ndarray) -> np.ndarray:
            # bool comparison result casts exactly to 0.0 / 1.0
            np.greater(values, 0, out=buffer)
            return buffer

        return _masked_activation(
            a, lambda: (a.data > 0).astype(a.data.dtype), write_mask)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        a = self

        def alloc_mask() -> np.ndarray:
            return np.where(a.data > 0, 1.0,
                            negative_slope).astype(a.data.dtype, copy=False)

        def write_mask(buffer: np.ndarray, values: np.ndarray) -> np.ndarray:
            # fill + masked overwrite produces the same exact 1.0 / slope
            # values np.where would.  A slope that is not >= 0 gives the
            # negative branch a positive output (or a NaN one), so only the
            # input tells the branches apart.
            if not negative_slope >= 0:
                values = a.data
            buffer.fill(negative_slope)
            np.copyto(buffer, 1.0, where=values > 0)
            return buffer

        return _masked_activation(a, alloc_mask, write_mask)

    def sigmoid(self) -> "Tensor":
        a = self
        value = 1.0 / (1.0 + np.exp(-a.data))

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    def fill(buffer: np.ndarray) -> None:
                        np.multiply(out.grad, value, out=buffer)
                        complement = scratch_pool().acquire(value.shape, value.dtype)
                        np.subtract(1.0, value, out=complement)
                        buffer *= complement
                        scratch_pool().release(complement)

                    a._accumulate_pooled(out.grad.shape, fill)

            return backward

        return Tensor._make(value, (a,), factory)

    def tanh(self) -> "Tensor":
        a = self
        value = np.tanh(a.data)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    def fill(buffer: np.ndarray) -> None:
                        complement = scratch_pool().acquire(value.shape, value.dtype)
                        np.power(value, 2, out=complement)
                        np.subtract(1.0, complement, out=complement)
                        np.multiply(out.grad, complement, out=buffer)
                        scratch_pool().release(complement)

                    a._accumulate_pooled(out.grad.shape, fill)

            return backward

        return Tensor._make(value, (a,), factory)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis`` with exact gradient."""
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        value = exps / exps.sum(axis=axis, keepdims=True)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    grad = np.asarray(out.grad)

                    def fill(buffer: np.ndarray) -> None:
                        np.multiply(grad, value, out=buffer)
                        dot = buffer.sum(axis=axis, keepdims=True)
                        np.subtract(grad, dot, out=buffer)
                        buffer *= value

                    a._accumulate_pooled(grad.shape, fill)

            return backward

        return Tensor._make(value, (a,), factory)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax with exact gradient."""
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_sum
        softmax_value = np.exp(value)

        def factory(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if a.requires_grad:
                    grad = np.asarray(out.grad)

                    def fill(buffer: np.ndarray) -> None:
                        total = grad.sum(axis=axis, keepdims=True)
                        np.multiply(softmax_value, total, out=buffer)
                        np.subtract(grad, buffer, out=buffer)

                    a._accumulate_pooled(grad.shape, fill)

            return backward

        return Tensor._make(value, (a,), factory)


def _masked_activation(a: "Tensor",
                       alloc_mask: Callable[[], np.ndarray],
                       write_mask: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Tensor":
    """Shared ReLU/leaky-ReLU body: ``a * mask``, one arena block per output.

    ``write_mask(buffer, values)`` writes the mask of ``values > 0`` into
    ``buffer``.  The forward writes it from ``a.data`` into the output's own
    layout-matched pooled buffer (``_forward_buffer_like`` guarantees the
    exact strides the allocating path would produce) and multiplies ``a``
    into it in place: the same IEEE-754 products as ``a * mask``.  The
    backward rebuilds the mask into scratch from the output, which is exact:
    ``a > 0`` exactly where ``a * mask > 0`` (a positive ``a`` is multiplied
    by one; the other branch's product is ``<= 0`` or NaN, and NaN compares
    false), and the scratch goes back as soon as the gradient has been
    accumulated through it.  Another dtype (no pooled buffer) keeps the
    allocating ``a * alloc_mask()`` and its mask in the closure.
    """
    buffer = _forward_buffer_like(a.data)
    if buffer is None:
        mask = alloc_mask()
        data = np.multiply(a.data, mask)
    else:
        mask = None
        data = np.multiply(a.data, write_mask(buffer, a.data), out=buffer)

    def factory(out: "Tensor") -> Callable[[], None]:
        def backward() -> None:
            if not a.requires_grad:
                return
            if mask is not None:
                a._accumulate_ufunc(np.multiply, out.grad, mask)
                return
            pool = scratch_pool()
            rebuilt = write_mask(pool.acquire(out.data.shape, out.data.dtype), out.data)
            a._accumulate_ufunc(np.multiply, out.grad, rebuilt)
            pool.release(rebuilt)

        return backward

    return Tensor._make(data, (a,), factory, buffer is not None)


def _matmul_accumulate(target: "Tensor", left: np.ndarray, right: np.ndarray) -> None:
    """Accumulate ``left @ right`` into ``target.grad`` via pooled scratch.

    The matmul products of the linear-layer backward are the largest
    per-step temporaries of FC models; computing them into a pooled buffer
    (``np.matmul(..., out=...)`` runs the identical gufunc/BLAS kernel, so
    values are bit-identical) makes the steady-state backward
    allocation-free.  First accumulations adopt the pooled buffer as
    ``.grad`` outright — ``backward()`` reclaims intermediate gradient
    buffers into the pool once their closures have run, so adopted buffers
    cycle instead of leaking.  Operand combinations the ``out=`` form
    cannot take (1-D operands, mixed or non-float payloads) use the
    allocating fallback.
    """
    if left.ndim >= 2 and right.ndim >= 2 \
            and left.dtype == right.dtype and left.dtype.kind == "f" \
            and left.dtype == target.data.dtype:
        shape = np.broadcast_shapes(left.shape[:-2], right.shape[:-2]) \
            + (left.shape[-2], right.shape[-1])
        target._accumulate_pooled(shape,
                                  lambda out: np.matmul(left, right, out=out))
    else:
        target._accumulate(left @ right, owned=True)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            grad = np.asarray(out.grad)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(int(start), int(stop))
                    tensor._accumulate(grad[tuple(slicer)])

        return backward

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), factory)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis ``axis``."""
    tensors = [as_tensor(t) for t in tensors]

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            grad = np.asarray(out.grad)
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(piece, axis=axis))

        return backward

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), factory)


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, axes: Tuple[int, ...], shape: Tuple[int, ...],
               training: bool, momentum: float, eps: float) -> Tensor:
    """Batch normalization over ``axes`` as one autograd node.

    ``(x - mean) / (var + eps) ** 0.5 * weight.reshape(shape) + bias.reshape(shape)``
    with the biased batch statistics of ``x`` (training; they also move the
    running statistics, in place) or the running ones (evaluation).  ``shape``
    is ``x``'s with every axis in ``axes`` set to 1; a stacked cohort passes
    ``(B, C)`` parameters and statistics and keeps ``B`` out of ``axes``.

    Values, strides and every gradient are bit for bit those of that
    expression written out of :class:`Tensor` primitives (the oracle in
    ``tests/nn/test_batch_norm.py``): each statistic is computed once, and
    backward performs the composed graph's operations in the composed graph's
    order.  Every reduction runs on the layout it would there — the statistics
    on ``x``'s own, the parameter and statistic gradients axis by axis on
    C-contiguous scratch, the bias's on the upstream gradient itself —
    because a sum's order is where layout reaches the bits.  Two things are
    deliberately not folded: a negation into the sum after it (that flips the
    sign of an exactly-zero sum) and ``b + b`` into ``2 * s`` (``centered *
    centered`` names one parent twice, so its gradient is accumulated twice;
    doubling ``s`` first rounds differently in the subnormal range).

    The forward keeps ``centered`` only when ``x`` needs a gradient in
    training mode and ``normalized`` only when ``weight`` needs one; whatever
    is not kept is overwritten by the next step of the chain, down to one
    arena block for a no-grad or frozen-parameter evaluation forward.

    The four contributions to ``x.grad`` land together in this node's
    closure.  In the composed graph the closures of another consumer of ``x``
    could run between them; no model in ``repro.models`` has one (every
    batch-norm input is a conv or linear output that batch norm alone
    consumes), and for a tensor that does the sum is reassociated, not wrong.
    """
    xv = x.data
    recorded = _GRAD_MODE.enabled and (
        x.requires_grad or weight.requires_grad or bias.requires_grad)
    keep_centered = recorded and training and x.requires_grad
    keep_normalized = recorded and weight.requires_grad
    bias_grad = bias.requires_grad
    scale, shift = weight.data.reshape(shape), bias.data.reshape(shape)
    buffer = _forward_buffer_like(xv)
    if training:
        inverse = Tensor(1.0 / math.prod(xv.shape[axis] for axis in axes)).data
        mean = xv.sum(axis=axes, keepdims=True) * inverse
        centered = np.subtract(xv, mean, out=buffer)  # out=None: allocated in x's stride order
        squares = _scratch_like(centered)
        var = np.multiply(centered, centered, out=squares).sum(axis=axes, keepdims=True) * inverse
        if squares is not None:
            scratch_pool().release_base(squares)
        running_mean[...] = ((1 - momentum) * running_mean
                             + momentum * mean.reshape(running_mean.shape))
        running_var[...] = ((1 - momentum) * running_var
                            + momentum * var.reshape(running_var.shape))
    else:
        var = Tensor(running_var.reshape(shape)).data
        centered = np.subtract(xv, Tensor(running_mean.reshape(shape)).data, out=buffer)
    shifted = var + Tensor(eps).data
    std = shifted ** 0.5
    if keep_centered:
        buffer = _forward_buffer_like(centered)
        normalized = np.divide(centered, std, out=buffer)
    else:
        normalized = np.divide(centered, std, out=centered)
    if keep_normalized:
        buffer = _forward_buffer_like(normalized)
        result = np.multiply(normalized, scale, out=buffer)
    else:
        result = np.multiply(normalized, scale, out=normalized)
    result += shift

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            pool = scratch_pool()
            g = out.grad
            if bias_grad:
                bias._accumulate(_unbroadcast(g, shape).reshape(bias.data.shape))
            if keep_normalized:
                scratch = pool.acquire(g.shape, g.dtype)
                np.multiply(g, normalized, out=scratch)
                weight._accumulate(_unbroadcast(scratch, shape).reshape(weight.data.shape))
                pool.release(scratch)
                pool.release_base(normalized)
            if not x.requires_grad:
                return
            # a = g * w lands where x's gradient will live; the first
            # accumulation adopts it instead of copying it.
            adopt = x.grad is None
            a = x._grad_storage(g.shape, g.dtype) if adopt else pool.acquire(g.shape, g.dtype)
            np.multiply(g, scale, out=a)
            if keep_centered:
                # std.grad = ((-a) * centered) / std**2 summed; then through
                # ** 0.5, + eps and the variance's 1/count to the squares.
                scratch = pool.acquire(g.shape, g.dtype)
                np.negative(a, out=scratch)
                scratch *= centered
                scratch /= np.power(std, 2)
                spread = ((_unbroadcast(scratch, shape) * 0.5) * shifted ** (0.5 - 1)) * inverse
            a /= std
            if adopt:
                x.grad = a
            else:
                x.grad += a
            if keep_centered:
                np.negative(a, out=scratch)  # mean.grad, reached through x - mean
                x.grad += _unbroadcast(scratch, shape) * inverse
                np.multiply(spread, centered, out=scratch)
                np.add(scratch, scratch, out=scratch)
                x.grad += scratch
                np.negative(scratch, out=scratch)  # the variance's own x - mean
                x.grad += _unbroadcast(scratch, shape) * inverse
                pool.release(scratch)
                pool.release_base(centered)
            if not adopt:
                pool.release(a)

        return backward

    return Tensor._make(result, (x, weight, bias), factory, pooled=buffer is not None)
