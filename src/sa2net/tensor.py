"""Dense N-D tensors with reverse-mode automatic differentiation.

Covers exactly the operations the segmentation network needs: 2-D
cross-correlation (dense, and same-size depthwise), bilinear resizing,
channel layer-norm, GeLU/sigmoid, same-size average pooling,
channel concat/split, elementwise arithmetic with singleton-axis
broadcasting (a Python scalar operand is a singleton constant), and full
reductions.
Image-like data is laid out N x C x H x W, row-major.

Gradients are recorded on a tape of operation nodes; ``backward`` on a
scalar visits the nodes the loss depends on in exact reverse recording
order, accumulates additively on fan-out, and stores gradients on leaf
tensors only.  Nodes route gradients to their inputs' producers, and a
backward rule keeps only the arrays it reads, or a recompute of one, so
an intermediate's data dies with the last rule that reads it;
``backward`` frees each node as it consumes it, so a graph can be
backwarded once.  Two dtypes are supported: float32 for training speed
and float64 for finite-difference verification.  Mixing dtypes in one
operation is an error.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
import struct
import threading
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    DivergenceError,
    GeometryError,
    IntegrityError,
    ParseError,
)

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DTYPE_NAMES = {"f32": F32, "f64": F64}

_seq_counter = itertools.count()
_state = threading.local()

_debug_finite = os.environ.get("SA2NET_DEBUG", "") not in ("", "0")


def default_dtype() -> np.dtype:
    """Dtype selected by the SA2NET_DTYPE env var (f32 unless overridden)."""
    name = os.environ.get("SA2NET_DTYPE", "f32")
    try:
        return DTYPE_NAMES[name]
    except KeyError:
        raise ContractError(f"SA2NET_DTYPE must be f32 or f64, got {name!r}") from None


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (used by verification loops)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class TapeNode:
    """One recorded operation: its routes, backward rule and tape position.

    A route per input is its producer node, the input itself if it is a
    leaf, or None.  A node holds no tensor an op produced, so the graph is
    acyclic and pins no data its rule does not read.  ``backward`` drops a
    node's ``backward_fn`` and ``routes`` once it has consumed them.
    """

    __slots__ = ("routes", "backward_fn", "seq")

    def __init__(self, routes, backward_fn, seq):
        self.routes = routes
        self.backward_fn = backward_fn
        self.seq = seq


class Tensor:
    """Dense array with optional gradient, a node in the reverse-mode tape.

    ``data`` is contiguous row-major.  ``grad`` appears (same shape) only on
    a leaf, a requires_grad tensor no op produced, after a backward pass
    has reached it; an op's output keeps ``grad`` None.  Tensors are
    immutable after creation except for gradient accumulation.  A
    recorded op may leave ``_recompute``, a rebuild of ``data`` that
    backward rules keep instead of the array (``_kept``).
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_recompute")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (F32, F64) else F64
        dtype = np.dtype(dtype)
        if dtype not in (F32, F64):
            raise ContractError(f"unsupported dtype {dtype}; use f32 or f64")
        self.data = np.ascontiguousarray(arr, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[TapeNode] = None
        self._recompute = None

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _same_dtype(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ContractError(
                f"mixed dtypes in one op: {dt.name} vs {t.dtype.name}")
    return dt


def _route(t: Tensor):
    """Where ``t``'s gradient goes: its producer, itself (a leaf) or nowhere."""
    return (t if t._node is None else t._node) if t.requires_grad else None


def _kept(t: Tensor):
    """What a backward rule keeps to read ``t.data``: ``t``'s recompute if
    its op left one, else a function returning the array.  A rule that
    keeps this instead of ``t`` lets a recomputed array die with the
    forward."""
    if t._recompute is not None:
        return t._recompute
    data = t.data
    return lambda: data


def _op_output(data: np.ndarray, inputs, backward_fn,
               recompute=None) -> Tensor:
    """Wrap a forward result, recording a tape node when gradients flow; the
    node keeps routes, so ``backward_fn`` should capture only what it reads.
    A recorded output also keeps ``recompute``: a function that rebuilds
    ``data`` bit for bit with the forward's own expression from what the
    tape holds anyway (``_kept`` of the inputs)."""
    if _debug_finite and not np.all(np.isfinite(data)):
        raise DivergenceError("non-finite values produced by a forward op")
    needs = _grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(data, dtype=data.dtype, requires_grad=needs)
    if needs:
        out._node = TapeNode(tuple(_route(t) for t in inputs), backward_fn,
                             next(_seq_counter))
        out._recompute = recompute
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Gradients land on leaves only: every requires_grad tensor that no op
    produced (a parameter or an input) and that the loss depends on adds
    its gradient into ``.grad``, so separate graphs over one leaf
    accumulate until it is cleared.  Intermediate results keep ``.grad``
    None.  Each node is freed as it is consumed, so a graph can be
    backwarded once; a second pass raises ``ContractError``.  With
    SA2NET_DEBUG set, a non-finite gradient raises ``DivergenceError``.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar, got shape {loss.shape}")
    # Frontier of nodes that have received a gradient, keyed by recording
    # order, with a heap of their negated seqs.  Popping the highest seq
    # first means every node's gradient is complete before it is consumed,
    # and sums happen in a fixed order.
    pending: dict[int, tuple[TapeNode, np.ndarray]] = {}
    order: list[int] = []
    sends = ((_route(loss), np.ones_like(loss.data)),)
    while True:
        for route, g in sends:
            if g is None or route is None:
                continue
            if isinstance(route, Tensor):
                if route.grad is None:
                    route.grad = g.copy()
                else:
                    route.grad += g
            elif route.seq in pending:
                pending[route.seq] = (route, pending[route.seq][1] + g)
            else:
                pending[route.seq] = (route, g)
                heapq.heappush(order, -route.seq)
        if not pending:
            return
        node, g = pending.pop(-heapq.heappop(order))
        fn, routes = node.backward_fn, node.routes
        if fn is None:
            raise ContractError("backward through a graph already consumed")
        node.backward_fn, node.routes = None, ()
        grads = fn(g)
        if _debug_finite and not all(np.all(np.isfinite(d)) for d in grads
                                     if d is not None):
            raise DivergenceError("non-finite gradient produced by a backward op")
        sends = zip(routes, grads)


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


def _check_image(x: Tensor, name: str) -> None:
    if x.ndim != 4:
        raise DimensionError(f"{name} must be N x C x H x W, got {x.ndim} axes")


def _out_extent(extent: int, k: int, stride: int, pad: int, axis: str) -> int:
    padded = extent + 2 * pad
    if padded < k:
        raise GeometryError(
            f"window {k} exceeds padded {axis} extent {padded}")
    out = (padded - k) // stride + 1
    if (padded - k) % stride != 0:
        # A remainder is tolerated only when the uncovered tail is pure
        # padding; dropping real rows/columns silently is an error.
        if stride * (out - 1) + k < pad + extent:
            raise GeometryError(
                f"non-exact output size along {axis}: "
                f"({extent} + 2*{pad} - {k}) not divisible by stride {stride} "
                f"would drop input")
    return out


def _strided(start: int, stride: int, count: int) -> slice:
    # ``count`` indices start, start + stride, ...: one window offset's
    # positions along an axis.
    return slice(start, start + stride * (count - 1) + 1, stride)


def _view(v: np.ndarray, shape, steps) -> np.ndarray:
    """``v`` viewed with ``shape`` and per-axis element ``steps``, after a
    copy if it is not contiguous (writes then miss ``v``)."""
    v = np.ascontiguousarray(v)
    return np.ndarray(shape, v.dtype, v, 0, [s * v.itemsize for s in steps])


# Byte budget of one block of window columns; a block is never less than
# one output row.  1 MiB blocks ran no slower than whole-image columns
# for the 3x3 convs at 32x32 and 128x128 (one BLAS thread).
_COL_BYTES = 1 << 20


def _row_blocks(out_h: int, row_len: int, dtype) -> tuple[int, np.ndarray]:
    """How many output rows of columns, ``row_len`` values each, fit
    ``_COL_BYTES`` (at least one), and a flat buffer for that many."""
    step = min(out_h, max(1, _COL_BYTES // (row_len * dtype.itemsize)))
    return step, np.empty(step * row_len, dtype=dtype)


def _im2col_gemm(x: np.ndarray, pad: int, k: int, stride: int, out_h: int,
                 out_w: int, weight: Optional[np.ndarray] = None,
                 rhs: Optional[np.ndarray] = None):
    """GEMMs per image and output-row block over the k x k windows of
    ``x`` (N, C, H, W) zero-padded by ``pad`` on each side of H and W; a
    negative pad crops.

    Image n is copied into one reused zero-bordered (C, Hp, Wp) buffer.
    Its windows are copied, a block of output rows at a time, into a
    reused column buffer of at most ``_COL_BYTES`` (one row if a row
    needs more), row ``(c*k + a)*k + b`` holding channel c at window
    offset (a, b).  A 1x1 stride-1 window uses the (padded) image itself
    as one block.  Then, per block:

    - with ``weight`` (R, C*k*k): ``weight @ cols`` is written into the
      block's rows of ``out[n]``, so ``out`` (N, R, H', W') is the
      cross-correlation;
    - with ``rhs`` (N, H'W', Q): ``cols @ rhs[n]`` over the block's rows
      is added into ``acc`` (C*k*k, Q).

    Returns ``(out, acc)``, None for an operand not given.  No buffer
    grows with the batch or holds k*k copies of an image.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    depth = c * k * k
    out = acc = None
    if weight is not None:
        out = np.empty((n, len(weight), out_h * out_w), dtype=x.dtype)
    if rhs is not None:
        acc = np.zeros((depth, rhs.shape[-1]), dtype=x.dtype)
    direct = k == 1 and stride == 1
    copied = pad != 0 or not direct
    if copied:
        img = np.zeros((c, hp, wp), dtype=x.dtype)
        lo, hi = max(pad, 0), max(-pad, 0)
        interior = img[:, lo:hp - lo, lo:wp - lo]
        x = x[:, :, hi:h - hi, hi:w - hi]  # what fills the interior
    # Per block: its output span, its columns as a matrix and as windows,
    # and the windows of the reused padded image they are copied from.
    blocks = [(slice(None), None, None, None)]
    if not direct:
        step, cols = _row_blocks(out_h, depth * out_w, x.dtype)
        windows = _view(img, (c, k, k, out_h, out_w),
                        (hp * wp, wp, 1, stride * wp, stride))
        blocks = []
        for r0 in range(0, out_h, step):
            rows = min(step, out_h - r0)
            m = cols[:depth * rows * out_w]
            blocks.append((slice(r0 * out_w, (r0 + rows) * out_w),
                           m.reshape(depth, -1),
                           m.reshape(c, k, k, rows, out_w),
                           windows[:, :, :, r0:r0 + rows]))
    for i in range(n):
        if copied:
            interior[...] = x[i]
        for span, m, m_windows, block_windows in blocks:
            if direct:
                m = (img if copied else x[i]).reshape(c, -1)
            else:
                m_windows[...] = block_windows
            if weight is not None:
                np.matmul(weight, m, out=out[i, :, span])
            if rhs is not None:
                acc += m @ rhs[i, span]
    if out is not None:
        out = out.reshape(n, -1, out_h, out_w)
    return out, acc


def _col2im(wt: np.ndarray, g: np.ndarray, x_shape, pad: int, k: int,
            stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Input gradient of a strided conv, the adjoint of the window
    columns: per image and output-row block, the column gradient
    ``wt @ g[n]`` (``wt`` (C*k*k, Cout), ``g`` (N, Cout, H'W')) is
    slice-added into one reused padded (C, Hp, Wp) image, whose interior
    is image n's gradient.  For one offset the windows' positions are
    distinct, so each offset is a single strided slice-add.
    """
    n, c, h, w = x_shape
    gx = np.empty(x_shape, dtype=g.dtype)
    gxp = np.empty((c, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    depth = c * k * k
    step, cols = _row_blocks(out_h, depth * out_w, g.dtype)
    for i in range(n):
        gxp.fill(0)
        for r0 in range(0, out_h, step):
            r1 = min(r0 + step, out_h)
            block = cols[:depth * (r1 - r0) * out_w].reshape(depth, -1)
            np.matmul(wt, g[i, :, r0 * out_w:r1 * out_w], out=block)
            block = block.reshape(c, k, k, r1 - r0, out_w)
            for a in range(k):
                for b in range(k):
                    gxp[:, _strided(a + stride * r0, stride, r1 - r0),
                        _strided(b, stride, out_w)] += block[:, a, b]
        gx[i] = gxp[:, pad:pad + h, pad:pad + w]
    return gx


def _pad_hw(v: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad H and W by ``pad`` on each side."""
    if pad == 0:
        return v
    n, c, h, w = v.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=v.dtype)
    out[:, :, pad:pad + h, pad:pad + w] = v
    return out


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------


def _check_conv(x: Tensor, weight: Tensor, bias: Tensor, op: str) -> None:
    """Checks ``conv2d`` and ``dwconv2d`` share: an image, a 4-D weight,
    one dtype, a square odd kernel and a (Cout,) bias."""
    _check_image(x, f"{op} input")
    if weight.ndim != 4:
        raise DimensionError(
            f"{op} weight must be Cout x Cin x k x k, got {weight.ndim} axes")
    _same_dtype(x, weight, bias)
    cout, _, kh, kw = weight.shape
    if kh != kw:
        raise DimensionError(f"kernel must be square, got {kh} x {kw}")
    if kh % 2 != 1:
        raise ContractError(f"{op} kernel size must be odd, got {kh}")
    if bias.shape != (cout,):
        raise DimensionError(
            f"bias axis mismatch: expected ({cout},), got {bias.shape}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation, N x Cin x H x W -> N x Cout x H' x W', as
    column GEMMs per image and block of output rows (``_im2col_gemm``),
    in a workspace that grows with neither the batch nor k*k.

    Backward rebuilds window columns instead of keeping them from
    forward, which would hold k*k copies of every conv input until the
    step's backward reaches it.  At stride 1 both gradients come from the
    columns of ``g`` padded by k-1-pad (cropped when that is negative):
    the input gradient correlates them with the kernel flipped and its
    in/out axes swapped, and the weight gradient contracts them with the
    input.  Other strides take the weight gradient from the input's
    columns and scatter the column gradient back per image and row block
    (``_col2im``).
    """
    _check_conv(x, weight, bias, "conv2d")
    n, c, h, w = x.shape
    cout, w_cin, k, _ = weight.shape
    if w_cin != c:
        raise DimensionError(
            f"channel axis mismatch: input has C={c}, weight expects Cin={w_cin}")
    if stride < 1:
        raise ContractError(f"conv2d stride must be at least 1, got {stride}")
    if pad < 0:
        raise ContractError(f"conv2d pad must be at least 0, got {pad}")
    out_h = _out_extent(h, k, stride, pad, "H")
    out_w = _out_extent(w, k, stride, pad, "W")

    wd = weight.data
    out, _ = _im2col_gemm(x.data, pad, k, stride, out_h, out_w,
                          weight=wd.reshape(cout, -1))
    out += bias.data[None, :, None, None]
    kx, gx_wanted = _kept(x), x.requires_grad

    def backward_fn(g):
        gb = g.sum(axis=(0, 2, 3))
        if stride == 1:
            flipped = None
            if gx_wanted:
                flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                flipped = flipped.reshape(c, -1)
            xt = kx().reshape(n, c, h * w).transpose(0, 2, 1)
            gx, acc = _im2col_gemm(g, k - 1 - pad, k, 1, h, w,
                                   weight=flipped, rhs=xt)
            # acc[(o*k + a)*k + b, i] pairs g's channel o at offset (a, b)
            # with input channel i: the weight's tap (k-1-a, k-1-b).
            acc = acc.reshape(cout, k, k, c)
            return gx, acc[:, ::-1, ::-1].transpose(0, 3, 1, 2), gb
        g3 = g.reshape(n, cout, out_h * out_w)
        _, acc = _im2col_gemm(kx(), pad, k, stride, out_h, out_w,
                              rhs=g3.transpose(0, 2, 1))
        gw = acc.T.reshape(cout, c, k, k)
        if not gx_wanted:
            return None, gw, gb
        wt = wd.reshape(cout, c * k * k).T
        return (_col2im(wt, g3, (n, c, h, w), pad, k, stride, out_h, out_w),
                gw, gb)

    return _op_output(out, (x, weight, bias), backward_fn)


def _shifted_rows(v: np.ndarray, k: int, pad: int) -> np.ndarray:
    """The k row shifts of ``v`` padded by ``pad`` as an (N, C, H', k*Wp) view
    whose rows overlap: ``(y, a*Wp + j)`` is padded row y + a, column j."""
    vp = _pad_hw(v, pad)
    n, c, hp, wp = vp.shape
    return _view(vp, (n, c, hp - k + 1, k, wp),
                 (c * hp * wp, hp * wp, wp, wp, 1)
                 ).reshape(n, c, hp - k + 1, k * wp)


def _diagonals(m: np.ndarray) -> np.ndarray:
    """View of ``m`` (C, k, Wp, W) as (C, k, k, W): entry ``(c, a, b, x)``
    is ``m[c, a, x + b, x]``, the k diagonals of each (Wp, W) block."""
    c, k, wp, w = m.shape
    return _view(m, (c, k, k, w), (k * wp * w, wp * w, w, w + 1))


def _band(taps: np.ndarray, wp: int, w: int) -> np.ndarray:
    """Banded (C, k*Wp, W) matrix of ``taps`` (C, k, k): entry
    ``(a*Wp + x + b, x)`` of channel c is ``taps[c, a, b]``."""
    band = np.zeros(taps.shape[:2] + (wp, w), dtype=taps.dtype)
    _diagonals(band)[...] = taps[..., None]
    return band.reshape(len(taps), -1, w)


def dwconv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-size depthwise convolution: channel c of the output sees only
    channel c, and the pad (k - 1) / 2 is taken from the kernel.

    The input's row shifts (N, C, H, k*Wp) times the band of the taps
    (C, k*Wp, W) is the output: N*C GEMMs with inner size k*Wp.  Backward
    shares the row shifts of ``g`` padded by k-1-pad: times the band of
    the flipped taps they give the input gradient; transposed, times the
    input and summed over N, they hold the flipped weight gradient on
    the k diagonals of each (Wp, W) block.

    The band is mostly zeros, so a +-inf input makes the k output rows
    whose windows cover it non-finite across their full width (NaN
    outside the k x k outputs it touches).  Finite inputs are unaffected.
    """
    _check_conv(x, weight, bias, "dwconv2d")
    _, c, _, w = x.shape
    wc, one, k, _ = weight.shape
    if wc != c or one != 1:
        raise DimensionError(
            f"channel axis mismatch: input has C={c}, weight is {wc} x {one} x {k} x {k}")
    pad = (k - 1) // 2
    wp = w + 2 * pad
    taps = weight.data.reshape(c, k, k)
    out = np.matmul(_shifted_rows(x.data, k, pad), _band(taps, wp, w))
    out += bias.data[None, :, None, None]
    kx, gx_wanted = _kept(x), x.requires_grad

    def backward_fn(g):
        rows = _shifted_rows(g, k, k - 1 - pad)
        gx = None
        if gx_wanted:
            gx = np.matmul(rows, _band(taps[:, ::-1, ::-1], wp, w))
        m = np.matmul(rows.transpose(0, 1, 3, 2), kx()).sum(axis=0)
        gw = _diagonals(m.reshape(c, k, wp, w)).sum(axis=-1)
        return gx, gw[:, None, ::-1, ::-1], g.sum(axis=(0, 2, 3))

    return _op_output(out, (x, weight, bias), backward_fn)


def _box_sum(xp: np.ndarray, k: int, out_h: int, out_w: int) -> np.ndarray:
    # Separable k x k window sum: k row slices, then k column slices.
    rows = xp[:, :, :out_h].copy()
    for a in range(1, k):
        rows += xp[:, :, a:a + out_h]
    out = rows[:, :, :, :out_w].copy()
    for b in range(1, k):
        out += rows[:, :, :, b:b + out_w]
    return out


def avgpool2d(x: Tensor, k: int) -> Tensor:
    """Same-size k x k window mean with pad (k - 1) / 2 taken from the odd
    window; padded zeros are excluded from the divisor.

    The window is symmetric, so backward is the same box sum over
    ``g / count`` padded alike.
    """
    _check_image(x, "avgpool2d input")
    if k < 1 or k % 2 == 0:
        raise ContractError(f"avgpool2d window must be odd and positive, got {k}")
    h, w = x.shape[2:]
    pad = (k - 1) // 2
    valid = _pad_hw(np.ones((1, 1, h, w), dtype=x.dtype), pad)
    cnt = _box_sum(valid, k, h, w)  # (1, 1, H, W)
    out = _box_sum(_pad_hw(x.data, pad), k, h, w) / cnt

    def backward_fn(g):
        return (_box_sum(_pad_hw(g / cnt, pad), k, h, w),)

    return _op_output(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    # Half-pixel-center (align_corners=False) linear interpolation weights,
    # shared read-only by every resize of this geometry and dtype.
    dst = np.arange(n_out, dtype=np.float64)
    src = (dst + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    lo_c = np.clip(lo, 0, n_in - 1)
    hi_c = np.clip(lo + 1, 0, n_in - 1)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, lo_c), 1.0 - frac)
    np.add.at(mat, (rows, hi_c), frac)
    mat = mat.astype(dtype)
    mat.flags.writeable = False
    return mat


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling with half-pixel centers.

    At the input's own size the interpolation matrices are exactly the
    identity, so the input itself is returned and no op is recorded.  An
    upsampling leaves a recompute from its input; a downsampling leaves
    none, since that would keep a larger array than its output.
    """
    _check_image(x, "bilinear_resize input")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"target size must be >= 1, got {out_h} x {out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x
    wy = _interp_matrix(h, out_h, x.dtype)
    wx = _interp_matrix(w, out_w, x.dtype)

    out = wy @ (x.data @ wx.T)                      # (N, C, out_h, out_w)
    recompute = None
    if out.size >= x.size:
        kx = _kept(x)

        def recompute():
            return wy @ (kx() @ wx.T)

    def backward_fn(g):
        return ((wy.T @ g) @ wx,)                   # (N, C, H, W)

    return _op_output(out, (x,), backward_fn, recompute)


# ---------------------------------------------------------------------------
# normalization and activations
# ---------------------------------------------------------------------------


LAYERNORM_EPS = 1e-5


def _scale_shift(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """gamma * xhat + beta over channels, into ``out`` (may be ``xhat``)."""
    out = np.multiply(gamma[None, :, None, None], xhat, out=out)
    out += beta[None, :, None, None]
    return out


def layernorm_c(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over channels at each (n, h, w) position, then scale-shift.

    The tape keeps xhat and 1/std and no other full-size array: the
    output is left as a recompute, ``gamma * xhat + beta`` by the
    forward's expression, so a ``gelu`` over it keeps nothing either.
    """
    _check_image(x, "layernorm_c input")
    _same_dtype(x, gamma, beta)
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"gamma/beta must have shape ({c},), got {gamma.shape} / {beta.shape}")

    # Buffers are reused in the textbook expressions' evaluation order, so
    # results match them bit for bit: the centred input becomes xhat, and
    # the output takes the squares' buffer.
    mu = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mu
    sq = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(sq.mean(axis=1, keepdims=True) + LAYERNORM_EPS)
    xhat *= inv
    out = _scale_shift(xhat, gamma.data, beta.data, sq)

    def scaled():
        return _scale_shift(xhat, gamma.data, beta.data)

    def backward_fn(g):
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gamma
        t = np.multiply(g, xhat)
        ggamma = t.sum(axis=(0, 2, 3))
        gx = np.multiply(g, gamma.data[None, :, None, None])
        m1 = gx.mean(axis=1, keepdims=True)
        m2 = np.multiply(gx, xhat, out=t).mean(axis=1, keepdims=True)
        gx -= m1
        gx -= np.multiply(xhat, m2, out=t)
        gx *= inv
        return gx, ggamma, g.sum(axis=(0, 2, 3))

    return _op_output(out, (x, gamma, beta), backward_fn, scaled)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(v: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) (v + 0.044715 v^3)) in one new buffer."""
    th = np.multiply(0.044715, v)
    th *= v
    th *= v
    th += v
    th *= _GELU_C
    return np.tanh(th, out=th)


def _gelu_grad(v: np.ndarray, g: np.ndarray,
               th: Optional[np.ndarray] = None) -> np.ndarray:
    """g times GeLU's derivative at ``v``; ``th`` is ``_gelu_tanh(v)``,
    recomputed if not given, and is overwritten."""
    # g * (0.5 (1 + th) + 0.5 v (1 - th^2) _GELU_C (1 + 3 * 0.044715 v^2))
    if th is None:
        th = _gelu_tanh(v)
    t = np.multiply(th, th)
    gx = np.multiply(0.5, v)
    gx *= np.subtract(1.0, t, out=t)
    np.multiply(3.0 * 0.044715, v, out=t)
    t *= v
    t += 1.0
    gx *= np.multiply(_GELU_C, t, out=t)
    th += 1.0
    gx += np.multiply(0.5, th, out=th)
    return np.multiply(g, gx, out=gx)


def gelu(x: Tensor) -> Tensor:
    """GeLU, tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    The output is left as a recompute from the input by the forward's
    expression, and backward reads the input, so the tape keeps no array
    of its own.  The first rebuild leaves its tanh for later rebuilds and
    for backward to pop (backward recomputes it if no rebuild ran): one
    tanh per op and step, as when the output was kept.  A rebuild writes
    over the input's values when they come from the input's recompute,
    which returns a new array each call."""
    kx = _kept(x)
    fresh = kx is x._recompute
    tanh = []

    def recompute():
        v = kx()
        if not tanh:
            tanh.append(_gelu_tanh(v))
        out = np.multiply(0.5, v, out=v if fresh else None)
        out *= np.add(1.0, tanh[0])
        return out

    def backward_fn(g):
        return (_gelu_grad(kx(), g, tanh.pop() if tanh else None),)

    th = _gelu_tanh(x.data)
    out = np.multiply(0.5, x.data)
    out *= np.add(1.0, th, out=th)
    return _op_output(out, (x,), backward_fn, recompute)


def stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function on an array, never exponentiating a positive value."""
    e = np.abs(v)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    # e <= 1, so the maximum selects 1 where v >= 0 and e elsewhere.
    return np.divide(np.maximum(e, v >= 0, out=e), d, out=e)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    out = stable_sigmoid(x.data)

    def backward_fn(g):
        gx = g * out
        return (np.multiply(gx, 1.0 - out, out=gx),)

    return _op_output(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# layout ops
# ---------------------------------------------------------------------------


def concat_c(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; N, H, W must agree."""
    if not xs:
        raise ContractError("concat_c needs at least one tensor")
    _same_dtype(*xs)
    first = xs[0]
    _check_image(first, "concat_c input")
    for i, t in enumerate(xs[1:], start=1):
        _check_image(t, "concat_c input")
        for axis, name in ((0, "N"), (2, "H"), (3, "W")):
            if t.shape[axis] != first.shape[axis]:
                raise DimensionError(
                    f"concat_c axis {name} mismatch: tensor 0 has "
                    f"{first.shape[axis]}, tensor {i} has {t.shape[axis]}")
    sizes = [t.shape[1] for t in xs]
    out = np.concatenate([t.data for t in xs], axis=1)
    parts = [_kept(t) for t in xs]

    def recompute():
        return np.concatenate([part() for part in parts], axis=1)

    def backward_fn(g):
        grads = []
        start = 0
        for sz in sizes:
            grads.append(g[:, start:start + sz])
            start += sz
        return tuple(grads)

    return _op_output(out, tuple(xs), backward_fn, recompute)


def split_c(x: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Split along the channel axis into pieces of the given sizes."""
    _check_image(x, "split_c input")
    if sum(sizes) != x.shape[1]:
        raise DimensionError(
            f"split sizes {list(sizes)} do not sum to channel axis C={x.shape[1]}")
    pieces = []
    start = 0
    for sz in sizes:
        lo, hi = start, start + sz

        def backward_fn(g, lo=lo, hi=hi, shape=x.shape):
            gx = np.zeros(shape, dtype=g.dtype)
            gx[:, lo:hi] = g
            return (gx,)

        pieces.append(_op_output(np.ascontiguousarray(x.data[:, lo:hi]),
                                 (x,), backward_fn))
        start += sz
    return pieces


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _broadcastable(a_shape, b_shape) -> bool:
    if len(a_shape) != len(b_shape):
        return False
    return all(p == q or p == 1 or q == 1 for p, q in zip(a_shape, b_shape))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary(a: Tensor, b, forward, grad_a, grad_b,
            reads_operands: bool = False) -> Tensor:
    if not isinstance(b, Tensor):
        # A Python scalar is a singleton constant of a's dtype and rank.
        b = Tensor(np.full((1,) * a.ndim, float(b), dtype=a.dtype))
    _same_dtype(a, b)
    if a.shape != b.shape and not _broadcastable(a.shape, b.shape):
        raise DimensionError(
            f"shapes {a.shape} and {b.shape} are not singleton-broadcastable")
    out = forward(a.data, b.data)
    # add's and sub's rules keep only shapes, not the operands' data; a
    # rule that reads them keeps both, so its output is left as a recompute
    xy = recompute = None
    if reads_operands:
        xy = (_kept(a), _kept(b))

        def recompute():
            return forward(xy[0](), xy[1]())
    rules = tuple((t.shape, grad if t.requires_grad else None)
                  for t, grad in ((a, grad_a), (b, grad_b)))

    def backward_fn(g):
        return tuple(None if grad is None else _unbroadcast(grad(g, xy), shape)
                     for shape, grad in rules)

    return _op_output(out, (a, b), backward_fn, recompute)


def add(a: Tensor, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, xy: g, lambda g, xy: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, xy: g, lambda g, xy: -g)


def mul(a: Tensor, b) -> Tensor:
    # each rule rebuilds only the operand it reads
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, xy: g * xy[1](), lambda g, xy: g * xy[0](),
                   reads_operands=True)


def reduce_sum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward_fn(g, shape=x.shape, dtype=x.dtype):
        return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

    return _op_output(out, (x,), backward_fn)


def reduce_mean(x: Tensor) -> Tensor:
    scale = 1.0 / x.size
    out = np.asarray(x.data.mean(), dtype=x.dtype)

    def backward_fn(g, shape=x.shape, dtype=x.dtype):
        return (np.broadcast_to(g * scale, shape).astype(dtype, copy=True),)

    return _op_output(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Index-addressable child seed: the index-th splitmix output of seed."""
    return _splitmix64((seed + _GOLDEN * (index + 1)) & _MASK64)


class Rng:
    """Deterministic 64-bit-seeded generator; same seed, same bits."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std: float = 1.0, dtype=F32) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(dtype)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high] inclusive."""
        return self._gen.integers(low, high, size=shape, endpoint=True)

    def random(self, shape=None):
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# file formats: tensor blobs, and UTF-8 text (configs, manifests,
# checkpoint config text)
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"SA2T"
_TENSOR_VERSION = 1
_DTYPE_BYTE = {F32: 0, F64: 1}
_BYTE_DTYPE = {0: ("<f4", F32), 1: ("<f8", F64)}


def unpack_at(fmt: str, raw: bytes, pos: int, what: str):
    """``struct`` values of ``fmt`` at byte ``pos`` of ``raw``, and the
    position after them; ``what`` names the field, file kind first."""
    end = pos + struct.calcsize(fmt)
    if end > len(raw):
        raise IntegrityError(f"truncated {what} at byte {pos}: needed "
                             f"{end - pos} bytes")
    return struct.unpack_from(fmt, raw, pos), end


def write_tensor(fp, t: Tensor) -> None:
    """Append one tensor blob to an open binary stream."""
    if t.ndim > 255:
        raise ContractError("tensor rank exceeds blob format limit")
    fp.write(TENSOR_MAGIC)
    fp.write(struct.pack("<BBB", _TENSOR_VERSION, _DTYPE_BYTE[t.dtype], t.ndim))
    for extent in t.shape:
        fp.write(struct.pack("<I", extent))
    le = "<f4" if t.dtype == F32 else "<f8"
    fp.write(np.ascontiguousarray(t.data, dtype=le).tobytes())


def parse_blob(raw: bytes, pos: int):
    """Parse the tensor blob at byte ``pos`` of ``raw`` into (dtype,
    payload, end of payload): the payload is a read-only view of ``raw``
    in the blob's shape and little-endian dtype, which ``astype(dtype)``
    copies into an array."""
    start = pos
    (magic,), pos = unpack_at("4s", raw, pos, "tensor blob magic")
    if magic != TENSOR_MAGIC:
        raise IntegrityError(f"bad tensor magic {magic!r} at byte {start}")
    (version, dtype_byte, ndim), pos = unpack_at("<BBB", raw, pos, "tensor blob header")
    if version != _TENSOR_VERSION:
        raise IntegrityError(
            f"unsupported tensor blob version {version} at byte {start + 4}")
    if dtype_byte not in _BYTE_DTYPE:
        raise IntegrityError(
            f"unknown dtype byte {dtype_byte} at byte {start + 5}")
    shape = []
    for _ in range(ndim):
        (extent,), pos = unpack_at("<I", raw, pos, "tensor blob extent")
        if extent == 0:
            raise IntegrityError(
                f"zero extent in tensor header at byte {pos - 4}")
        shape.append(extent)
    le, dtype = _BYTE_DTYPE[dtype_byte]
    count = math.prod(shape)
    nbytes = count * np.dtype(le).itemsize
    left = len(raw) - pos
    if nbytes > left:
        raise IntegrityError(
            f"truncated tensor blob: payload of {nbytes} bytes at byte "
            f"{pos} exceeds the {left} bytes left")
    payload = np.frombuffer(raw, dtype=le, count=count, offset=pos)
    return dtype, payload.reshape(shape), pos + nbytes


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fp:
        write_tensor(fp, t)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fp:
        raw = fp.read()
    dtype, payload, end = parse_blob(raw, 0)
    if end != len(raw):
        raise IntegrityError(
            f"trailing bytes after tensor payload at byte {end}")
    return Tensor(payload.astype(dtype), dtype=dtype)


def decode_text(raw: bytes, what: str, offset: int = 0) -> str:
    """UTF-8 text of ``raw``, which starts at byte ``offset`` of its file."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{what} is not UTF-8 at byte {offset + exc.start}") from None


def parse_key_values(text: str, what: str) -> dict[str, str]:
    """The ``key = value`` lines of ``text``, ``#`` starting a comment; a
    line without ``=`` or a key, or a repeated key, is a ``ParseError``."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{what} line {lineno} lacks '=': {raw.strip()!r}")
        key = key.strip()
        if not key:
            raise ParseError(f"{what} line {lineno} lacks a key")
        if key in values:
            raise ParseError(f"{what} line {lineno} repeats key {key!r}")
        values[key] = value.strip()
    return values


def read_text(path) -> str:
    with open(path, "rb") as fp:
        return decode_text(fp.read(), str(path))
