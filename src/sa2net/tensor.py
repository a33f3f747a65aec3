"""Dense N-D tensors with reverse-mode automatic differentiation.

Covers exactly the operations the segmentation network needs: 2-D
cross-correlation (dense and depthwise), bilinear resizing, channel
layer-norm, GeLU/sigmoid, average pooling, channel concat/split,
elementwise arithmetic with singleton-axis broadcasting, and full
reductions.  Image-like data is laid out N x C x H x W, row-major.

Gradients are recorded on a tape of operation nodes; ``backward`` on a
scalar walks the tape in exact reverse recording order and accumulates
additively on fan-out.  Two dtypes are supported: float32 for training
speed and float64 for finite-difference verification.  Mixing dtypes in
one operation is an error.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    GeometryError,
    IntegrityError,
)

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DTYPE_NAMES = {"f32": F32, "f64": F64}

_seq_counter = itertools.count()
_state = threading.local()

_debug_finite = os.environ.get("SA2NET_DEBUG", "") not in ("", "0")


def set_debug_checks(enabled: bool) -> None:
    """Toggle the NaN/Inf check run after every forward op."""
    global _debug_finite
    _debug_finite = bool(enabled)


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
    """One recorded operation: output, inputs, and its backward rule."""

    __slots__ = ("out", "inputs", "backward_fn", "seq")

    def __init__(self, out, inputs, backward_fn, seq):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.seq = seq


class Tensor:
    """Dense array with optional gradient, a node in the reverse-mode tape.

    ``data`` is contiguous row-major; ``grad`` appears (same shape) only
    after a backward pass has reached this tensor.  Tensors are immutable
    after creation except for gradient accumulation.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

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

    def detach(self) -> "Tensor":
        """A view of the same values, cut off from the tape."""
        return Tensor(self.data, dtype=self.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_const(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)

    def backward(self):
        backward(self)


def _as_const(value, like: Tensor) -> Tensor:
    return Tensor(np.full(like.shape, float(value), dtype=like.dtype))


def _same_dtype(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ContractError(
                f"mixed dtypes in one op: {dt.name} vs {t.dtype.name}")
    return dt


def _op_output(data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap a forward result, recording a tape node when gradients flow."""
    if _debug_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values produced by a forward op")
    needs = _grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(data, dtype=data.dtype, requires_grad=needs)
    if needs:
        out._node = TapeNode(out, tuple(inputs), backward_fn, next(_seq_counter))
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Every requires_grad tensor reachable through the tape ends up holding
    its gradient; calling backward again without clearing accumulates.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar, got shape {loss.shape}")
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        node = t._node
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.inputs)
    nodes.sort(key=lambda n: n.seq, reverse=True)

    flow = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for node in nodes:
        g = flow.get(id(node.out))
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in flow:
                flow[key] = flow[key] + gi
            else:
                flow[key] = gi
                holders[key] = inp
    for key, g in flow.items():
        t = holders[key]
        if t.requires_grad:
            t._accumulate_grad(g)


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


def _windows(padded: np.ndarray, k: int, stride: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _scatter_windows(grad_cols, n, c, hp, wp, k, stride, out_h, out_w, dtype):
    # grad_cols: (N, C, H', W', k, k); inverse of the window gather.  For a
    # fixed in-window offset (a, b) the windows never overlap, so each
    # offset is one strided slice-add.
    gxp = np.zeros((n, c, hp, wp), dtype=dtype)
    for a in range(k):
        for b in range(k):
            gxp[:, :, a:a + stride * out_h:stride,
                b:b + stride * out_w:stride] += grad_cols[:, :, :, :, a, b]
    return gxp


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, bias: Tensor,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation, N x Cin x H x W -> N x Cout x H' x W'."""
    _check_image(x, "conv2d input")
    if weight.ndim != 4:
        raise DimensionError(
            f"conv2d weight must be Cout x Cin x k x k, got {weight.ndim} axes")
    _same_dtype(x, weight, bias)
    n, cin, h, w = x.shape
    cout, w_cin, kh, kw = weight.shape
    if kh != kw:
        raise DimensionError(f"kernel must be square, got {kh} x {kw}")
    k = kh
    if k % 2 != 1:
        raise ContractError(f"conv2d kernel size must be odd, got {k}")
    if w_cin != cin:
        raise DimensionError(
            f"channel axis mismatch: input has C={cin}, weight expects Cin={w_cin}")
    if bias.shape != (cout,):
        raise DimensionError(
            f"bias axis mismatch: expected ({cout},), got {bias.shape}")
    out_h = _out_extent(h, k, stride, pad, "H")
    out_w = _out_extent(w, k, stride, pad, "W")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = _windows(xp, k, stride)  # (N, Cin, H', W', k, k)
    out = np.tensordot(win, weight.data, axes=([1, 4, 5], [1, 2, 3]))
    out = np.moveaxis(out, 3, 1)
    out = out + bias.data[None, :, None, None]

    def backward_fn(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
        gcols = np.tensordot(g, weight.data, axes=([1], [0]))  # (N,H',W',C,k,k)
        gcols = np.moveaxis(gcols, 3, 1)
        gxp = _scatter_windows(gcols, n, cin, h + 2 * pad, w + 2 * pad,
                               k, stride, out_h, out_w, g.dtype)
        gx = gxp[:, :, pad:pad + h, pad:pad + w]
        return gx, gw, gb

    return _op_output(out, (x, weight, bias), backward_fn)


def dwconv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Depthwise convolution; channel c of the output sees only channel c.

    Same-resolution contract: pad must equal (k - 1) / 2.
    """
    _check_image(x, "dwconv2d input")
    _same_dtype(x, weight, bias)
    n, c, h, w = x.shape
    wc, one, kh, kw = weight.shape
    if kh != kw:
        raise DimensionError(f"kernel must be square, got {kh} x {kw}")
    k = kh
    if k % 2 != 1:
        raise ContractError(f"dwconv2d kernel size must be odd, got {k}")
    if pad != (k - 1) // 2:
        raise ContractError(
            f"dwconv2d keeps resolution: pad must be (k-1)/2 = {(k - 1) // 2}, got {pad}")
    if wc != c or one != 1:
        raise DimensionError(
            f"channel axis mismatch: input has C={c}, weight is {wc} x {one} x {k} x {k}")
    if bias.shape != (c,):
        raise DimensionError(
            f"bias axis mismatch: expected ({c},), got {bias.shape}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = _windows(xp, k, 1)  # (N, C, H, W, k, k)
    out = np.einsum("nchwab,cab->nchw", win, weight.data[:, 0])
    out = out + bias.data[None, :, None, None]

    def backward_fn(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.einsum("nchwab,nchw->cab", win, g)[:, None]
        gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
        for a in range(k):
            for b in range(k):
                gxp[:, :, a:a + h, b:b + w] += \
                    g * weight.data[None, :, 0, a, b, None, None]
        gx = gxp[:, :, pad:pad + h, pad:pad + w]
        return gx, gw, gb

    return _op_output(out, (x, weight, bias), backward_fn)


def avgpool2d(x: Tensor, k: int, stride: int = 1, pad: int = 0) -> Tensor:
    """Window mean; padded zeros are excluded from the divisor."""
    _check_image(x, "avgpool2d input")
    n, c, h, w = x.shape
    out_h = _out_extent(h, k, stride, pad, "H")
    out_w = _out_extent(w, k, stride, pad, "W")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = _windows(xp, k, stride)
    valid = np.pad(np.ones((1, 1, h, w), dtype=x.dtype),
                   ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cnt = _windows(valid, k, stride).sum(axis=(-2, -1))  # (1,1,H',W')
    out = win.sum(axis=(-2, -1)) / cnt

    def backward_fn(g):
        q = g / cnt
        gcols = np.broadcast_to(q[:, :, :, :, None, None],
                                (n, c, out_h, out_w, k, k))
        gxp = _scatter_windows(gcols, n, c, h + 2 * pad, w + 2 * pad,
                               k, stride, out_h, out_w, g.dtype)
        return (gxp[:, :, pad:pad + h, pad:pad + w],)

    return _op_output(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------


def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    # Half-pixel-center (align_corners=False) linear interpolation weights.
    # For n_out == n_in this is exactly the identity.
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
    return mat.astype(dtype)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling with half-pixel centers; identity when sizes match."""
    _check_image(x, "bilinear_resize input")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"target size must be >= 1, got {out_h} x {out_w}")
    n, c, h, w = x.shape
    wy = _interp_matrix(h, out_h, x.dtype)
    wx = _interp_matrix(w, out_w, x.dtype)

    t = np.tensordot(x.data, wy, axes=([2], [1]))   # (N, C, W, out_h)
    out = np.tensordot(t, wx, axes=([2], [1]))      # (N, C, out_h, out_w)

    def backward_fn(g):
        t_ = np.tensordot(g, wy, axes=([2], [0]))   # (N, C, out_w, H)
        gx = np.tensordot(t_, wx, axes=([2], [0]))  # (N, C, H, W)
        return (gx,)

    return _op_output(np.ascontiguousarray(out), (x,), backward_fn)


# ---------------------------------------------------------------------------
# normalization and activations
# ---------------------------------------------------------------------------


def layernorm_c(x: Tensor, gamma: Tensor, beta: Tensor,
                eps: float = 1e-5) -> Tensor:
    """Normalize over channels at each (n, h, w) position, then scale-shift."""
    _check_image(x, "layernorm_c input")
    _same_dtype(x, gamma, beta)
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"gamma/beta must have shape ({c},), got {gamma.shape} / {beta.shape}")

    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward_fn(g):
        gbeta = g.sum(axis=(0, 2, 3))
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gg = g * gamma.data[None, :, None, None]
        gx = inv * (gg
                    - gg.mean(axis=1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=1, keepdims=True))
        return gx, ggamma, gbeta

    return _op_output(out, (x, gamma, beta), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GeLU, tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * v * v * v)
    th = np.tanh(inner)
    out = 0.5 * v * (1.0 + th)

    def backward_fn(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * v * v)
        gx = g * (0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * dinner)
        return (gx,)

    return _op_output(out, (x,), backward_fn)


def stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function on an array, never exponentiating a positive value."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    out = stable_sigmoid(x.data)

    def backward_fn(g):
        return (g * out * (1.0 - out),)

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

    def backward_fn(g):
        grads = []
        start = 0
        for sz in sizes:
            grads.append(g[:, start:start + sz])
            start += sz
        return tuple(grads)

    return _op_output(out, tuple(xs), backward_fn)


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

        def backward_fn(g, lo=lo, hi=hi):
            gx = np.zeros(x.shape, dtype=g.dtype)
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


def _binary(a: Tensor, b, forward, grad_a, grad_b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)
        out = forward(a.data, s)

        def backward_scalar(g):
            return (grad_a(g, a.data, s),)

        return _op_output(out, (a,), backward_scalar)

    _same_dtype(a, b)
    if a.shape != b.shape and not _broadcastable(a.shape, b.shape):
        raise DimensionError(
            f"shapes {a.shape} and {b.shape} are not singleton-broadcastable")
    out = forward(a.data, b.data)

    def backward_fn(g):
        ga = _unbroadcast(grad_a(g, a.data, b.data), a.shape)
        gb = _unbroadcast(grad_b(g, a.data, b.data), b.shape)
        return ga, gb

    return _op_output(out, (a, b), backward_fn)


def add(a: Tensor, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def reduce_sum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward_fn(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)

    return _op_output(out, (x,), backward_fn)


def reduce_mean(x: Tensor) -> Tensor:
    scale = 1.0 / x.size
    out = np.asarray(x.data.mean(), dtype=x.dtype)

    def backward_fn(g):
        return (np.broadcast_to(g * scale, x.shape).astype(x.dtype, copy=True),)

    return _op_output(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor,
                     h: Optional[float] = None) -> Tensor:
    """Central-difference gradient of a scalar function, element by element.

    The step is 1e-4 * max(1, |x_i|) per element unless overridden.  Runs
    in float64 only; this is the independent oracle the tape is checked
    against, so it deliberately shares no code with the backward rules.
    """
    if x.dtype != F64:
        raise ContractError("finite_diff_grad requires a float64 tensor")
    base = x.data.copy()
    if h is None:
        steps = 1e-4 * np.maximum(1.0, np.abs(base))
    else:
        steps = np.full_like(base, float(h))
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    sflat = steps.reshape(-1)
    probe = Tensor(base, dtype=F64)
    pflat = probe.data.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            pflat[i] = orig + sflat[i]
            fp = f(probe).item()
            pflat[i] = orig - sflat[i]
            fm = f(probe).item()
            pflat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * sflat[i])
    return Tensor(grad, dtype=F64)


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
# tensor blob format
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"SA2T"
_TENSOR_VERSION = 1
_DTYPE_BYTE = {F32: 0, F64: 1}
_BYTE_DTYPE = {0: ("<f4", F32), 1: ("<f8", F64)}


def _read_exact(fp, n: int, what: str) -> bytes:
    start = fp.tell()
    buf = fp.read(n)
    if len(buf) != n:
        raise IntegrityError(
            f"truncated tensor blob: needed {n} bytes for {what} at byte {start}")
    return buf


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


def read_tensor(fp) -> Tensor:
    """Read one tensor blob from an open binary stream."""
    start = fp.tell()
    magic = _read_exact(fp, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise IntegrityError(
            f"bad tensor magic {magic!r} at byte {start}")
    version, dtype_byte, ndim = struct.unpack("<BBB", _read_exact(fp, 3, "header"))
    if version != _TENSOR_VERSION:
        raise IntegrityError(
            f"unsupported tensor blob version {version} at byte {start + 4}")
    if dtype_byte not in _BYTE_DTYPE:
        raise IntegrityError(
            f"unknown dtype byte {dtype_byte} at byte {start + 5}")
    shape = []
    for _ in range(ndim):
        (extent,) = struct.unpack("<I", _read_exact(fp, 4, "extent"))
        if extent == 0:
            raise IntegrityError(
                f"zero extent in tensor header at byte {fp.tell() - 4}")
        shape.append(extent)
    le, dtype = _BYTE_DTYPE[dtype_byte]
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    payload = _read_exact(fp, count * np.dtype(le).itemsize, "payload")
    data = np.frombuffer(payload, dtype=le).reshape(shape).astype(dtype)
    return Tensor(data, dtype=dtype)


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fp:
        write_tensor(fp, t)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fp:
        t = read_tensor(fp)
        trailing = fp.read(1)
        if trailing:
            raise IntegrityError(
                f"trailing bytes after tensor payload at byte {fp.tell() - 1}")
    return t
