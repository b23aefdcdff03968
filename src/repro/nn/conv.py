"""Convolution, pooling, and up-sampling primitives for the autograd engine.

All spatial operations follow the NCHW layout used throughout the library:
``(batch, channels, height, width)``.  Convolution is implemented with
im2col / col2im so that the heavy lifting stays inside numpy's BLAS-backed
matrix multiplication, which keeps CPU training of the paper's compact
on-device models practical.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .buffers import BufferPool, scratch_pool
from .policy import policy_dtype
from .tensor import Tensor, as_tensor, is_grad_enabled, _forward_buffer

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "upsample_nearest2d",
    "channel_shuffle",
]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _unfold(images: np.ndarray, kernel: int, stride: int, padding: int,
            pool: Optional[BufferPool], tap_major: bool) -> Tuple[np.ndarray, int, int]:
    """Gather every kernel window of the zero-padded ``images`` (..., N, C, H,
    W) into columns, plus the output height and width.

    Sample-major ``(..., N, C*k*k, L)`` is :func:`im2col`'s layout.  Tap-major
    ``(..., C*k*k, N*L)`` is the same pad-then-strided-window gather with the
    axes permuted, into the layout both convolution GEMMs read as it stands
    — ``columns.T @ w_mat.T`` forward, ``columns @ grad`` for the weight — so
    neither stages a transposed copy of the largest array of the step.  With
    a ``pool`` the columns (and the padded plane, released here) are pooled.
    """
    height, width = images.shape[-2:]
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded = None
    if padding > 0 and pool is None:
        images = np.pad(images, [(0, 0)] * (images.ndim - 2) + [(padding, padding)] * 2)
    elif padding > 0:
        padded = pool.acquire(
            images.shape[:-2] + (height + 2 * padding, width + 2 * padding), images.dtype)
        padded.fill(0)
        padded[..., padding:-padding, padding:-padding] = images
        images = padded
    strides = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=images.shape[:-2] + (out_h, out_w, kernel, kernel),
        strides=strides[:-2] + (strides[-2] * stride, strides[-1] * stride,
                                strides[-2], strides[-1]),
        writeable=False,
    )
    *lead, samples, channels = images.shape[:-2]
    if tap_major:  # (..., N, C, oh, ow, kh, kw) -> (..., C, kh, kw, N, oh, ow)
        windows = np.moveaxis(windows, (-5, -2, -1), (-6, -5, -4))
        shape = (*lead, channels * kernel * kernel, samples * out_h * out_w)
    else:  # -> (..., N, C, kh, kw, oh, ow)
        windows = np.moveaxis(windows, (-2, -1), (-4, -3))
        shape = (*lead, samples, channels * kernel * kernel, out_h * out_w)
    columns = (np.empty(shape, images.dtype) if pool is None
               else pool.acquire(shape, images.dtype))
    np.copyto(columns.reshape(windows.shape), windows)
    if padded is not None:
        pool.release(padded)  # windows gather is done; the plane is free
    return columns, out_h, out_w


def im2col(
    images: np.ndarray, kernel: int, stride: int, padding: int,
    pool: Optional[BufferPool] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``images`` (N, C, H, W) into columns of shape (N, C*k*k, L).

    Returns the column matrix along with the output height and width.
    With a ``pool``, the column matrix (and the zero-padded image plane,
    when padding is active) is written into pooled scratch instead of
    freshly allocated storage — the caller owns the returned array until
    it releases it back to the pool.  Values are byte-identical either
    way: the pooled path performs the same strided gather into the same
    C-order layout.
    """
    return _unfold(images, kernel, stride, padding, pool, tap_major=False)


# Image planes fold independently (a column entry only ever lands in its own
# plane), so col2im scatters them a chunk at a time through one small index
# per geometry instead of a batch-expanded one per (geometry, batch): the
# index stays cache-resident and what the cache below can pin is bounded by
# ``maxsize`` times this.
_INDEX_CHUNK_BYTES = 512 * 1024


@lru_cache(maxsize=32)
def _col2im_chunk_index(kernel: int, stride: int, out_h: int, out_w: int,
                        padded_w: int, plane_size: int) -> Tuple[np.ndarray, int]:
    """Flat scatter indices over a chunk of consecutive planes, and its length.

    Within a plane, entry ``(kh, kw, oh, ow)`` of a column lands at flat
    position ``(kh + stride*oh) * padded_w + (kw + stride*ow)``; plane ``p``
    of the chunk adds ``p * plane_size``.  Batch-independent, so one entry
    serves every batch and cohort size (``cache_info()`` has the hit rate).
    """
    rows = np.arange(kernel)[:, None, None, None] + stride * np.arange(out_h)[None, None, :, None]
    cols = np.arange(kernel)[None, :, None, None] + stride * np.arange(out_w)[None, None, None, :]
    within_plane = (rows * padded_w + cols).reshape(-1)
    planes = max(1, _INDEX_CHUNK_BYTES // within_plane.nbytes)
    offsets = np.arange(planes, dtype=np.int64) * plane_size
    return (offsets[:, None] + within_plane[None, :]).reshape(-1), planes


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold column gradients back into image gradients (adjoint of im2col).

    Implemented as a vectorized scatter-add (``np.bincount`` over cached
    flat indices, a chunk of planes per call) instead of a python loop over
    the kernel taps.  Overlapping taps accumulate in the same ascending
    (kh, kw) order the historical loop used — chunking splits between
    planes, never within one — so results are bit-identical.
    """
    batch, channels, height, width = image_shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    plane_size = padded_h * padded_w
    planes = batch * channels
    entries = kernel * kernel * out_h * out_w  # per plane
    index, chunk = _col2im_chunk_index(kernel, stride, out_h, out_w, padded_w, plane_size)
    weights = columns.reshape(-1)
    if planes <= chunk:
        flat = np.bincount(index[:planes * entries], weights=weights,
                           minlength=planes * plane_size)
    else:
        flat = np.empty(planes * plane_size)  # bincount's own result dtype
        for start in range(0, planes, chunk):
            count = min(chunk, planes - start)
            flat[start * plane_size:(start + count) * plane_size] = np.bincount(
                index[:count * entries],
                weights=weights[start * entries:(start + count) * entries],
                minlength=count * plane_size)
    padded = flat.reshape(batch, channels, padded_h, padded_w)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class _GemmPlan(NamedTuple):
    """How one contraction runs as a single batched GEMM.

    The operand holding the ``rows`` letters, laid out ``batch + rows +
    inner``, times the other, laid out ``batch + inner + cols``, gives a
    ``batch + rows + cols`` product — for every plan below, the result's own
    letter order.  ``wide`` names the dimensions that must be at least 2 for
    the GEMM to reproduce einsum's bits (with a unit one, numpy and BLAS both
    switch to matrix-vector kernels that sum in another order).
    """

    batch: str
    rows: str
    inner: str
    cols: str
    wide: str


#: OpenBLAS hands a GEMM of at most this many multiply-adds (M*N*K) to its
#: small-matrix kernels, where the order a dot product is summed in depends on
#: which operands are transposed; above it both operands are packed first and
#: every transposition of one product gives the same bits.  A convolution
#: forward this small therefore stages its columns row-major, the operand the
#: pinned histories were computed from; a larger one reads them transposed.
#: The figure is OpenBLAS 0.3.31's (``interface/gemm.c`` asks ``kernel/x86_64/
#: {s,d}gemm_small_kernel_permit_skylakex.c``, which refuses ``M*N*K >
#: 100**3``); a BLAS that permits more fails ``TestConvGemm`` at harness size.
_BLAS_SMALL_PRODUCT = 100 ** 3

_GEMM_PLANS = {
    "of,nol->nfl": _GemmPlan("n", "f", "o", "l", "fl"),          # conv2d input VJP
    "ncl,ncfl->cf": _GemmPlan("c", "f", "nl", "", "ncfl"),       # depthwise weight VJP
    "bof,bnol->bnfl": _GemmPlan("bn", "f", "o", "l", "fl"),      # stacked conv2d input VJP
}


def _gemm_operand(pool: BufferPool, operand: np.ndarray, letters: str,
                  size: dict, batch: str, rows: str, cols: str) -> np.ndarray:
    """``operand`` as a stack of ``(rows, cols)`` matrices over ``batch``.

    A side that merges several letters is copied contiguous into pooled
    scratch; otherwise the result is a transposed view, with unit axes for
    the batch letters it lacks.
    """
    view = operand.transpose(
        [letters.index(c) for c in batch + rows + cols if c in letters])
    shape = tuple(size[c] if c in letters else 1 for c in batch) + (
        prod(size[c] for c in rows), prod(size[c] for c in cols))
    if len(rows) < 2 and len(cols) < 2:
        return view.reshape(shape)
    staged = pool.acquire(shape, operand.dtype)
    np.copyto(staged.reshape(view.shape), view)
    return staged


def contract(subscripts: str, a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.einsum(subscripts, a, b, optimize=True)`` through pooled scratch.

    What is left for it now that the convolution forward and weight VJP run
    their own GEMMs over tap-major columns (:func:`_conv2d`): the input VJPs
    (``of,nol->nfl`` and its stacked twin), the depthwise contractions, and
    the shapes :func:`_conv2d` does not take — a unit dimension, mixed
    dtypes.  The contractions in ``_GEMM_PLANS`` run as one ``np.matmul``
    over their batch letters, staging copies in pooled scratch and the
    product written straight into a C-contiguous ``out`` (a fresh one when
    none is given).  That GEMM defines their bits; ``np.einsum`` (in numpy
    2.x itself a reshape to one batched matmul, ``einsumfunc.bmm_einsum``,
    copies included) gives the same ones wherever BLAS sums a product alike
    whichever operand is transposed — past ``_BLAS_SMALL_PRODUCT``, and below
    it for the small inner dimensions ``TestContract`` sweeps.

    einsum treats unit dimensions and mixed dtypes in its own ways, so
    those — and every contraction without a plan — are left to it, and with
    a unit dimension or mixed dtypes ``out`` is *not* used: it has the
    layout of the regular case, not the one einsum picks there.  ``result
    is out`` tells the caller whether its destination was filled.
    """
    inputs, _ = subscripts.split("->")
    a_letters, b_letters = inputs.split(",")
    size = dict(zip(a_letters + b_letters, a.shape + b.shape))
    plan = _GEMM_PLANS.get(subscripts)
    if a.dtype != b.dtype or any(size[c] < 2 for c in (plan.wide if plan else size)):
        plan = out = None
    if plan is not None and (out is None or out.flags.c_contiguous):
        batch, rows, inner, cols, _ = plan
        if rows[0] in b_letters:
            a, a_letters, b, b_letters = b, b_letters, a, a_letters
        pool = scratch_pool()
        left = _gemm_operand(pool, a, a_letters, size, batch, rows, inner)
        right = _gemm_operand(pool, b, b_letters, size, batch, inner, cols)
        shape = [size[c] for c in batch + rows + cols]
        out = np.empty(shape, a.dtype) if out is None else out
        np.matmul(left, right, out=out.reshape(
            shape[:len(batch)] + [left.shape[-2], right.shape[-1]]))
        pool.release(left)  # a no-op for the views
        pool.release(right)
        return out
    return np.einsum(subscripts, a, b, out=out, optimize=True)


def _conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor], stride: int,
            padding: int) -> Tensor:
    """The body of :func:`conv2d` and of ``nn.batched.batched_conv2d``.

    Every array carries the stack axes ``lead`` in front — ``()`` for
    ``conv2d``, ``(B,)`` for a cohort: ``x`` is ``lead + (N, C, H, W)``,
    ``w`` ``lead + (O, C, k, k)``, ``bias`` ``lead + (O,)``.  With
    ``f = C*k*k`` taps and ``l`` output positions:

    * columns are gathered once, tap-major ``lead + (f, N*l)``;
    * forward ``columns.T @ w_mat.T`` lands straight in the ``(N, l, O)``-
      contiguous base the output is a view of — the layout this product has
      always had, which downstream reductions (batch-norm statistics)
      iterate in — with the columns read as they lie, unless the product is
      small (``_BLAS_SMALL_PRODUCT``), when a row-major copy of them is the
      left operand;
    * the weight VJP is ``columns @ grad`` with the gradient staged
      ``(N*l, O)``, the columns again read as they lie;
    * the input VJP is :func:`contract`'s, into :func:`col2im`.

    All four dimensions at least 2 and one dtype (the policy's, which the
    output and so its gradient take): under those conditions the products
    equal, bit for bit, ``np.einsum(..., optimize=True)`` over
    :func:`im2col`'s sample-major columns.  A unit dimension turns a GEMM
    into a matrix-vector product whose bits no GEMM reproduces (the
    generator's 1-channel output layer), and einsum promotes mixed dtypes
    its own way, so those shapes keep exactly that route.
    """
    lead = x.data.shape[:-4]
    samples, in_channels = x.data.shape[-4:-2]
    out_channels, _, kernel, _ = w.data.shape[-4:]
    out_h = _out_size(x.data.shape[-2], kernel, stride, padding)
    out_w = _out_size(x.data.shape[-1], kernel, stride, padding)
    length, taps = out_h * out_w, in_channels * kernel * kernel
    dtype = x.data.dtype
    pool = scratch_pool()
    w_mat = w.data.reshape(lead + (out_channels, taps))
    parents = (x, w) if bias is None else (x, w, bias)
    recorded = is_grad_enabled() and any(p.requires_grad for p in parents)
    # Fixed at graph construction: the columns below are kept for backward
    # only if the weight gradient will read them.
    weight_grad = w.requires_grad
    stack = "b" * len(lead)
    as_gemm = (dtype == w.data.dtype == policy_dtype()
               and (bias is None or bias.data.dtype == dtype)
               and min(samples, out_channels, taps, length) >= 2)
    if as_gemm:
        columns, _, _ = _unfold(x.data, kernel, stride, padding, pool, tap_major=True)
        base_shape = lead + (samples, length, out_channels)
        base = pool.acquire(base_shape, dtype) if recorded else np.empty(base_shape, dtype)
        rows = transposed = np.swapaxes(columns, -1, -2)
        if out_channels * taps * samples * length <= _BLAS_SMALL_PRODUCT:
            rows = pool.acquire(transposed.shape, dtype)
            np.copyto(rows, transposed)
        np.matmul(rows, np.swapaxes(w_mat, -1, -2),
                  out=base.reshape(lead + (samples * length, out_channels)))
        pool.release(rows)  # a no-op for the view
        if bias is not None:
            # In place, into storage this call owns: the same IEEE-754
            # additions as the allocating form.
            base += bias.data.reshape(lead + (1, 1, -1))
        out_data = np.swapaxes(base, -1, -2)
    else:
        columns, _, _ = im2col(x.data.reshape((-1,) + x.data.shape[-3:]), kernel,
                               stride, padding, pool=pool)
        cols = columns.reshape(lead + (samples, taps, length))
        out_data = np.einsum(f"{stack}of,{stack}nfl->{stack}nol", w_mat, cols, optimize=True)
        if bias is not None:
            out_data = out_data + bias.data.reshape(lead + (1, -1, 1))
    out_data = out_data.reshape(lead + (samples, out_channels, out_h, out_w))

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            grad = np.asarray(out.grad).reshape(lead + (samples, out_channels, length))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(-3, -1)), owned=True)
            if weight_grad:
                if as_gemm:
                    grad_rows = pool.acquire(lead + (samples * length, out_channels), dtype)
                    np.copyto(grad_rows.reshape(lead + (samples, length, out_channels)),
                              np.swapaxes(grad, -1, -2))
                    grad_w = np.swapaxes(np.matmul(columns, grad_rows), -1, -2)
                    pool.release(grad_rows)
                else:
                    grad_w = np.einsum(f"{stack}nol,{stack}nfl->{stack}of", grad, cols,
                                       optimize=True)
                w._accumulate(grad_w.reshape(w.data.shape), owned=True)
                # Backward closures run at most once, so the columns can
                # rejoin the pool for the next step's forward.
                pool.release(columns)
            if x.requires_grad:
                grad_cols = pool.acquire(lead + (samples, taps, length),
                                         np.result_type(w_mat, grad))
                grad_x = col2im(
                    contract(f"{stack}of,{stack}nol->{stack}nfl", w_mat, grad, out=grad_cols)
                    .reshape(-1, taps, length),
                    (prod(x.data.shape[:-3]),) + x.data.shape[-3:], kernel, stride, padding)
                x._accumulate(grad_x.reshape(x.data.shape), owned=True)
                pool.release(grad_cols)

        return backward

    out = Tensor._make(out_data, parents, factory, as_gemm and recorded)
    if out._backward is None or not weight_grad:
        # Only the weight gradient reads the columns again: on the inference
        # path and under a frozen weight they are free as of now.
        pool.release(columns)
    return out


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, k, k)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    """
    x, w = as_tensor(inputs), as_tensor(weight)
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.data.shape[1]}, "
            f"weight expects {w.data.shape[1]}")
    return _conv2d(x, w, bias, stride, padding)


def depthwise_conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution (one filter per input channel).

    ``weight`` has shape ``(C, 1, k, k)``.  Used by the MobileNetV2-style
    inverted-residual blocks.  Implemented via grouped im2col where the
    channel dimension is kept separate.
    """
    x, w = as_tensor(inputs), as_tensor(weight)
    batch, channels, height, width = x.data.shape
    w_channels, one, kernel, _ = w.data.shape
    if w_channels != channels or one != 1:
        raise ValueError("depthwise_conv2d expects weight of shape (C, 1, k, k)")
    pool = scratch_pool()
    columns, out_h, out_w = im2col(x.data, kernel, stride, padding, pool=pool)
    # columns: (N, C*k*k, L) -> (N, C, k*k, L)
    cols = columns.reshape(batch, channels, kernel * kernel, -1)
    w_mat = w.data.reshape(channels, kernel * kernel)
    parents = (x, w) if bias is None else (x, w, bias)
    weight_grad = w.requires_grad  # as in conv2d: decides who frees the columns

    # einsum's "cf,ncfl->ncl" result is a (c, n, l)-contiguous array viewed
    # as (n, c, l); a recorded forward writes into a pooled buffer of that
    # layout (downstream batch-norm statistics iterate in its order), which
    # ``backward()`` reclaims.
    base = None
    if any(p.requires_grad for p in parents):
        base = _forward_buffer((channels, batch, out_h * out_w), cols.dtype)
    view = None if base is None else base.transpose(1, 0, 2)
    out_data = contract("cf,ncfl->ncl", w_mat, cols, out=view)
    pooled = out_data is view
    if base is not None and not pooled:
        pool.release(base)
    if bias is not None:
        # In place is the same IEEE-754 additions as the allocating form.
        out_data = np.add(out_data, bias.data.reshape(1, -1, 1),
                          out=out_data if pooled else None)
    out_data = out_data.reshape(batch, channels, out_h, out_w)

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            grad = np.asarray(out.grad).reshape(batch, channels, -1)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2)), owned=True)
            if weight_grad:
                grad_w = contract("ncl,ncfl->cf", grad, cols)
                w._accumulate(grad_w.reshape(w.data.shape), owned=True)
            if x.requires_grad:
                # Pure outer product (no contracted index): matmul over a
                # length-1 inner axis computes the same single multiply per
                # element, bitwise, for every shape.
                grad_cols = pool.acquire(
                    (batch, channels, kernel * kernel, grad.shape[-1]),
                    np.result_type(w_mat, grad))
                np.matmul(w_mat[:, :, None], grad[:, :, None, :], out=grad_cols)
                x._accumulate(
                    col2im(grad_cols.reshape(batch, channels * kernel * kernel, -1),
                           x.data.shape, kernel, stride, padding),
                    owned=True)
                pool.release(grad_cols)
            if weight_grad:
                pool.release(columns)

        return backward

    out = Tensor._make(out_data, parents, factory, pooled)
    if out._backward is None or not weight_grad:
        pool.release(columns)
    return out


def _window_taps(planes: np.ndarray, kernel: int, out_h: int, out_w: int) -> list:
    """Tap ``(kh, kw)`` of every non-overlapping ``kernel`` window of an
    ``(N, C, H, W)`` array, as ``kernel * kernel`` strided ``(N, C, out_h,
    out_w)`` views in im2col's ``(kh, kw)`` order.  Rows and columns past the
    last whole window belong to no tap."""
    rows, cols = out_h * kernel, out_w * kernel
    return [planes[:, :, kh:rows:kernel, kw:cols:kernel]
            for kh in range(kernel) for kw in range(kernel)]


def _max_pool_windows(x: Tensor, kernel: int) -> Optional[Tensor]:
    """``max_pool2d`` with ``stride == kernel``, straight off the input.

    Windows that do not overlap need no im2col gather: each tap is a strided
    view of the input, the maximum a chain of ``np.maximum`` over the taps
    and the argmax — kept only for a recorded forward — the last tap that
    was strictly greater than every tap before it, which is the first
    maximum, as ``argmax`` has it.  ``np.maximum`` hands a NaN through where
    ``argmax`` would have picked its position; such an input, and a window
    of more taps than the ``uint8`` argmax can name, is left to the general
    path (returns None).
    """
    batch, channels, height, width = x.data.shape
    out_h, out_w = height // kernel, width // kernel
    shape = (batch, channels, out_h, out_w)
    if min(shape) < 1 or kernel * kernel > 256:
        return None
    record = is_grad_enabled() and x.requires_grad
    taps = _window_taps(x.data, kernel, out_h, out_w)
    out_data = np.empty(shape, x.data.dtype)
    np.copyto(out_data, taps[0])
    if record:
        arg = np.zeros(shape, np.uint8)
        greater = np.empty(shape, np.bool_)
        step = greater.view(np.uint8)
    for tap_index, tap in enumerate(taps[1:], 1):
        if record:
            # arg = tap_index where this tap beats the running maximum: tap
            # indices only grow, so that is a maximum with 0 elsewhere.
            np.greater(tap, out_data, out=greater)
            np.multiply(step, tap_index, out=step)
            np.maximum(arg, step, out=arg)
        np.maximum(tap, out_data, out=out_data)
    if np.isnan(out_data.min()):
        return None

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(out.grad)
            # Each tap gets the gradient where it was the maximum and +0.0
            # elsewhere, whatever the gradient holds (as a product, inf * 0
            # would be NaN): the gradient's bits under a mask of all ones or
            # all zeros.
            bits = np.dtype(f"i{grad.itemsize}")
            pool = scratch_pool()
            chosen = pool.acquire(shape, np.int8)
            mask = pool.acquire(shape, bits)

            def fill(planes: np.ndarray) -> None:
                if (out_h * kernel, out_w * kernel) != (height, width):
                    planes.fill(0.0)
                taps = _window_taps(planes.view(bits), kernel, out_h, out_w)
                for tap_index, tap in enumerate(taps):
                    np.equal(arg, tap_index, out=chosen.view(np.bool_))
                    np.negative(chosen, out=mask)
                    np.bitwise_and(grad.view(bits), mask, out=tap)
                # col2im's scatter-add started every cell from +0.0, which
                # turns a -0.0 into +0.0 and changes nothing else.
                np.add(planes, 0.0, out=planes)

            x._accumulate_pooled(x.data.shape, fill)
            pool.release(chosen)
            pool.release(mask)

        return backward

    return Tensor._make(out_data, (x,), factory)


def max_pool2d(inputs: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    x = as_tensor(inputs)
    if stride == kernel:
        out = _max_pool_windows(x, kernel)
        if out is not None:
            return out
    batch, channels, height, width = x.data.shape
    pool = scratch_pool()
    columns, out_h, out_w = im2col(x.data, kernel, stride, 0, pool=pool)
    cols = columns.reshape(batch, channels, kernel * kernel, out_h * out_w)
    arg = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, arg[:, :, None, :], axis=2).squeeze(2)
    out_data = out_data.reshape(batch, channels, out_h, out_w)
    cols_shape = cols.shape
    # The backward only needs the argmax positions, never the column values.
    pool.release(columns)

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(out.grad).reshape(batch, channels, 1, -1)
            grad_cols = pool.acquire(
                (batch, channels * kernel * kernel, cols_shape[-1]), grad.dtype)
            grad_cols.fill(0.0)
            np.put_along_axis(
                grad_cols.reshape(cols_shape), arg[:, :, None, :], grad, axis=2)
            x._accumulate(col2im(grad_cols, x.data.shape, kernel, stride, 0),
                          owned=True)
            pool.release(grad_cols)

        return backward

    return Tensor._make(out_data, (x,), factory)


def avg_pool2d(inputs: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Average pooling over windows."""
    stride = stride or kernel
    x = as_tensor(inputs)
    batch, channels, height, width = x.data.shape
    pool = scratch_pool()
    columns, out_h, out_w = im2col(x.data, kernel, stride, 0, pool=pool)
    cols = columns.reshape(batch, channels, kernel * kernel, out_h * out_w)
    out_data = cols.mean(axis=2).reshape(batch, channels, out_h, out_w)
    cols_shape = cols.shape
    # The backward only needs the window geometry, never the column values.
    pool.release(columns)

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(out.grad).reshape(batch, channels, 1, -1)
            grad_cols = pool.acquire(
                (batch, channels * kernel * kernel, cols_shape[-1]), grad.dtype)
            np.copyto(grad_cols.reshape(cols_shape), grad / (kernel * kernel))
            x._accumulate(col2im(grad_cols, x.data.shape, kernel, stride, 0),
                          owned=True)
            pool.release(grad_cols)

        return backward

    return Tensor._make(out_data, (x,), factory)


def global_avg_pool2d(inputs: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    x = as_tensor(inputs)
    return x.mean(axis=(2, 3))


def upsample_nearest2d(inputs: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial up-sampling by an integer factor.

    Used by the server-side generator to grow noise projections to image
    resolution without needing transposed convolutions.
    """
    x = as_tensor(inputs)
    out_data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)

    def factory(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(out.grad)
            batch, channels, height, width = x.data.shape
            grad = grad.reshape(batch, channels, height, scale, width, scale)
            x._accumulate(grad.sum(axis=(3, 5)))

        return backward

    return Tensor._make(out_data, (x,), factory)


def channel_shuffle(inputs: Tensor, groups: int) -> Tensor:
    """ShuffleNet channel shuffle: interleave channels across groups."""
    x = as_tensor(inputs)
    batch, channels, height, width = x.data.shape
    if channels % groups != 0:
        raise ValueError(f"channels ({channels}) must be divisible by groups ({groups})")
    reshaped = x.reshape(batch, groups, channels // groups, height, width)
    transposed = reshaped.transpose((0, 2, 1, 3, 4))
    return transposed.reshape(batch, channels, height, width)
