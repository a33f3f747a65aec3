"""Tensor core: forward semantics, autodiff, and the blob format."""

import contextlib
import gc
import io
import math
import struct
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sa2net.tensor as T
from sa2net.data import SynthSpec, gen_sample
from sa2net.errors import ContractError, DimensionError, DivergenceError, \
    GeometryError, IntegrityError
from sa2net.gradcheck import central_difference, grad_error
from sa2net.losses import total_loss, weight_map, weighted_bce, \
    weighted_iou_loss
from sa2net.model import ModelConfig, init_model_params, model_forward
from sa2net.tensor import Rng, Tensor, backward
from sa2net.training import infer


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.normal(shape, dtype=T.F64), requires_grad=requires_grad)


def finite_diff_grad(f, x: Tensor) -> Tensor:
    """Central-difference gradient of a scalar function, element by element.

    Runs in float64 only; this is the independent oracle the tape is
    checked against, so it deliberately shares no code with the backward
    rules.
    """
    if x.dtype != T.F64:
        raise ContractError("finite_diff_grad requires a float64 tensor")
    probe = Tensor(x.data.copy(), dtype=T.F64)
    flat = probe.data.reshape(-1)
    grad = np.zeros_like(flat)
    with T.no_grad():
        for i in range(flat.size):
            grad[i] = central_difference(lambda: f(probe).item(), flat, i)
    return Tensor(grad.reshape(x.shape), dtype=T.F64)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_scalar_multiply_add(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor([1.0])
        out = T.conv2d(x, w, b)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 7.0

    def test_ones_kernel_counts_receptive_field(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, pad=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 9.0
        for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out.data[0, 0, r, c] == 4.0

    def test_gradients_match_finite_differences(self):
        rng = Rng(7)
        x = rand64(rng, (1, 2, 5, 5), requires_grad=True)
        w = rand64(rng, (3, 2, 3, 3), requires_grad=True)
        b = rand64(rng, (3,), requires_grad=True)

        loss = T.conv2d(x, w, b, stride=1, pad=0).sum()
        backward(loss)

        fd_x = finite_diff_grad(
            lambda v: T.conv2d(v, w, b, stride=1, pad=0).sum(), x)
        fd_w = finite_diff_grad(
            lambda v: T.conv2d(x, v, b, stride=1, pad=0).sum(), w)
        fd_b = finite_diff_grad(
            lambda v: T.conv2d(x, w, v, stride=1, pad=0).sum(), b)
        assert np.max(np.abs(x.grad - fd_x.data)) < 1e-4
        assert np.max(np.abs(w.grad - fd_w.data)) < 1e-4
        assert np.max(np.abs(b.grad - fd_b.data)) < 1e-4

    def test_geometry_and_shape_errors(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        b = Tensor(np.zeros(3))
        with pytest.raises(GeometryError, match="window"):
            T.conv2d(Tensor(np.zeros((1, 2, 2, 2))), w, b)
        with pytest.raises(DimensionError, match="channel"):
            T.conv2d(Tensor(np.zeros((1, 3, 5, 5))), w, b)
        with pytest.raises(DimensionError, match="bias"):
            T.conv2d(x, w, Tensor(np.zeros(2)))

    def test_stride_must_divide_exactly(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        with pytest.raises(GeometryError, match="stride"):
            T.conv2d(x, w, b, stride=3, pad=0)

    def test_mixed_dtype_rejected(self):
        x = Tensor(np.zeros((1, 1, 3, 3)), dtype=T.F32)
        w = Tensor(np.zeros((1, 1, 3, 3)), dtype=T.F64)
        b = Tensor(np.zeros(1), dtype=T.F32)
        with pytest.raises(ContractError, match="dtype"):
            T.conv2d(x, w, b, pad=1)

    def test_linearity_in_input(self):
        rng = Rng(3)
        x = rand64(rng, (1, 2, 6, 6))
        y = rand64(rng, (1, 2, 6, 6))
        w = rand64(rng, (4, 2, 3, 3))
        zero_b = Tensor(np.zeros(4))
        combined = Tensor(2.5 * x.data - 1.25 * y.data)
        lhs = T.conv2d(combined, w, zero_b, pad=1).data
        rhs = 2.5 * T.conv2d(x, w, zero_b, pad=1).data \
            - 1.25 * T.conv2d(y, w, zero_b, pad=1).data
        npt.assert_allclose(lhs, rhs, atol=1e-5)


# ---------------------------------------------------------------------------
# dwconv2d
# ---------------------------------------------------------------------------


class TestDwconv2d:
    def test_identity_kernel(self):
        rng = Rng(11)
        x = rand64(rng, (2, 3, 5, 5))
        w = np.zeros((3, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        out = T.dwconv2d(x, Tensor(w), Tensor(np.zeros(3)))
        npt.assert_array_equal(out.data, x.data)

    def test_channels_do_not_mix(self):
        x = Tensor(np.stack([np.ones((4, 4)), 3.0 * np.ones((4, 4))])[None])
        w = np.zeros((2, 1, 1, 1))
        w[0, 0, 0, 0] = 2.0
        w[1, 0, 0, 0] = -1.0
        out = T.dwconv2d(x, Tensor(w), Tensor(np.zeros(2)))
        npt.assert_array_equal(out.data[0, 0], 2.0 * np.ones((4, 4)))
        npt.assert_array_equal(out.data[0, 1], -3.0 * np.ones((4, 4)))

    def test_gradcheck(self):
        rng = Rng(5)
        x = rand64(rng, (1, 4, 6, 6), requires_grad=True)
        w = rand64(rng, (4, 1, 3, 3), requires_grad=True)
        b = rand64(rng, (4,), requires_grad=True)
        loss = T.dwconv2d(x, w, b).sum()
        backward(loss)
        for t, of in ((x, lambda v: T.dwconv2d(v, w, b).sum()),
                      (w, lambda v: T.dwconv2d(x, v, b).sum()),
                      (b, lambda v: T.dwconv2d(x, w, v).sum())):
            fd = finite_diff_grad(of, t)
            assert np.max(np.abs(t.grad - fd.data)) < 1e-4

    def test_wrong_channel_count(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        with pytest.raises(DimensionError, match="channel"):
            T.dwconv2d(x, w, Tensor(np.zeros(2)))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_pad_is_taken_from_the_kernel(self, k):
        # a 7x7 kernel on a 4x4 image still gives a 4x4 output
        x = Tensor(np.ones((1, 2, 4, 4)))
        w = np.ones((2, 1, k, k))
        out = T.dwconv2d(x, Tensor(w), Tensor(np.zeros(2)))
        npt.assert_array_equal(out.data,
                               dwconv2d_reference(x.data, w, np.zeros(2)))


# ---------------------------------------------------------------------------
# argument checks shared by conv2d and dwconv2d
# ---------------------------------------------------------------------------


def _malformed_conv_args(op, case):
    """Arguments of ``op`` on a 2-channel image with one malformed piece,
    and the error class and message they must raise."""
    cout, cin = (2, 1) if op == "dwconv2d" else (3, 2)
    x, w, b, w_dtype = (1, 2, 5, 5), (cout, cin, 3, 3), (cout,), T.F64
    if case == "3d_input":
        x, err = (2, 5, 5), (DimensionError,
                             f"{op} input must be N x C x H x W, got 3 axes")
    elif case == "3d_weight":
        w, err = (cout, cin, 3), (
            DimensionError, f"{op} weight must be Cout x Cin x k x k, got 3 axes")
    elif case == "non_square":
        w, err = (cout, cin, 3, 1), (DimensionError,
                                     "kernel must be square, got 3 x 1")
    elif case == "even_k":
        w, err = (cout, cin, 2, 2), (ContractError,
                                     f"{op} kernel size must be odd, got 2")
    elif case == "bias_shape":
        b, err = (cout + 1,), (
            DimensionError,
            f"bias axis mismatch: expected ({cout},), got ({cout + 1},)")
    elif case == "mixed_dtype":
        w_dtype, err = T.F32, (ContractError,
                               "mixed dtypes in one op: float64 vs float32")
    elif op == "conv2d":  # channels
        w, err = (cout, 4, 3, 3), (
            DimensionError,
            "channel axis mismatch: input has C=2, weight expects Cin=4")
    else:  # channels: two input channels per depthwise filter
        w, err = (2, 2, 3, 3), (
            DimensionError,
            "channel axis mismatch: input has C=2, weight is 2 x 2 x 3 x 3")
    args = (Tensor(np.zeros(x)), Tensor(np.zeros(w), dtype=w_dtype),
            Tensor(np.zeros(b)))
    return args, err


class TestConvArgumentChecks:
    @pytest.mark.parametrize("case", ["3d_input", "3d_weight", "non_square",
                                      "even_k", "bias_shape", "mixed_dtype",
                                      "channels"])
    @pytest.mark.parametrize("op", ["conv2d", "dwconv2d"])
    def test_malformed_argument_named(self, op, case):
        args, (cls, message) = _malformed_conv_args(op, case)
        with pytest.raises(cls) as exc:
            getattr(T, op)(*args)
        assert type(exc.value) is cls
        assert str(exc.value) == message

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_named(self, stride):
        x, w, b = (Tensor(np.zeros(shape))
                   for shape in ((1, 2, 5, 5), (3, 2, 3, 3), (3,)))
        with pytest.raises(ContractError) as exc:
            T.conv2d(x, w, b, stride=stride, pad=1)
        assert str(exc.value) == \
            f"conv2d stride must be at least 1, got {stride}"

    @pytest.mark.parametrize("pad", [-1, -2])
    def test_negative_pad_named(self, pad):
        x, w, b = (Tensor(np.zeros(shape))
                   for shape in ((1, 2, 5, 5), (3, 2, 3, 3), (3,)))
        with pytest.raises(ContractError) as exc:
            T.conv2d(x, w, b, pad=pad)
        assert str(exc.value) == f"conv2d pad must be at least 0, got {pad}"

    @pytest.mark.parametrize("k, pad", [(1, 1), (3, 3)])
    def test_pad_of_kernel_size_or_more_refused(self, k, pad):
        # Such a pad gives output rows that see only padding.
        x, w, b = (Tensor(np.zeros(shape))
                   for shape in ((1, 2, 5, 5), (3, 2, k, k), (3,)))
        with pytest.raises(GeometryError) as exc:
            T.conv2d(x, w, b, pad=pad)
        assert str(exc.value) == \
            f"conv2d pad must be less than the kernel size {k}, got {pad}"


# ---------------------------------------------------------------------------
# convolution family against nested-loop references
# ---------------------------------------------------------------------------


def _padded_at(x, n, c, r, q, pad):
    """x[n, c] at padded coordinates (r, q); zero outside the image."""
    r, q = r - pad, q - pad
    if 0 <= r < x.shape[2] and 0 <= q < x.shape[3]:
        return x[n, c, r, q]
    return 0.0


def conv2d_reference(x, w, b, stride, pad):
    n_, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n_, cout, oh, ow))
    for n in range(n_):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = b[o]
                    for c in range(cin):
                        for a in range(k):
                            for bb in range(k):
                                acc += w[o, c, a, bb] * _padded_at(
                                    x, n, c, i * stride + a, j * stride + bb, pad)
                    out[n, o, i, j] = acc
    return out


def dwconv2d_reference(x, w, b):
    n_, ch, h, wd = x.shape
    k = w.shape[-1]
    pad = (k - 1) // 2
    out = np.zeros(x.shape)
    for n in range(n_):
        for c in range(ch):
            for i in range(h):
                for j in range(wd):
                    acc = b[c]
                    for a in range(k):
                        for bb in range(k):
                            acc += w[c, 0, a, bb] * _padded_at(
                                x, n, c, i + a, j + bb, pad)
                    out[n, c, i, j] = acc
    return out


def conv2d_reference_vjp(x, w, g, stride, pad):
    """Input and weight gradients of conv2d_reference against upstream
    ``g``, accumulated tap by tap in the same nested loops."""
    n_, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for n in range(n_):
        for o in range(cout):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for c in range(cin):
                        for a in range(k):
                            for bb in range(k):
                                r = i * stride + a - pad
                                q = j * stride + bb - pad
                                if 0 <= r < h and 0 <= q < wd:
                                    up = g[n, o, i, j]
                                    gx[n, c, r, q] += up * w[o, c, a, bb]
                                    gw[o, c, a, bb] += up * x[n, c, r, q]
    return gx, gw


def dwconv2d_reference_vjp(x, w, g):
    """Input and weight gradients of dwconv2d_reference against ``g``."""
    n_, ch, h, wd = x.shape
    k = w.shape[-1]
    pad = (k - 1) // 2
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for n in range(n_):
        for c in range(ch):
            for i in range(h):
                for j in range(wd):
                    for a in range(k):
                        for bb in range(k):
                            r, q = i + a - pad, j + bb - pad
                            if 0 <= r < h and 0 <= q < wd:
                                up = g[n, c, i, j]
                                gx[n, c, r, q] += up * w[c, 0, a, bb]
                                gw[c, 0, a, bb] += up * x[n, c, r, q]
    return gx, gw


def avgpool2d_reference(x, k):
    n_, ch, h, wd = x.shape
    pad = (k - 1) // 2
    out = np.zeros(x.shape)
    for n in range(n_):
        for c in range(ch):
            for i in range(h):
                for j in range(wd):
                    total, count = 0.0, 0
                    for a in range(k):
                        for bb in range(k):
                            r, q = i + a - pad, j + bb - pad
                            if 0 <= r < h and 0 <= q < wd:
                                total += x[n, c, r, q]
                                count += 1
                    out[n, c, i, j] = total / count
    return out


def _extent(out, k, stride, pad, tail):
    # Input extent giving ``out`` windows; ``tail`` extra rows stay
    # uncovered, which the geometry check allows only inside the padding.
    return (out - 1) * stride + k - 2 * pad + min(tail, stride - 1, pad)


def _pad_of(kind, k):
    return {"zero": 0, "one": 1, "same": (k - 1) // 2}[kind]


def _vjp(fn, inputs, g):
    """Gradients of sum(fn(*inputs) * g) with respect to every input."""
    leaves = [Tensor(v, requires_grad=True) for v in inputs]
    backward(T.mul(fn(*leaves), Tensor(g)).sum())
    return [t.grad for t in leaves]


_K = st.sampled_from([1, 3, 5, 7])
_STRIDE = st.sampled_from([1, 2, 3])
_PAD = st.sampled_from(["zero", "one", "same"])


class TestConvFamilyReferences:
    """Each kernel equals a scalar nested-loop reference in f64, and its
    backward is the exact adjoint of its forward (all three are linear in
    the input, conv2d also in the weight)."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), cin=st.integers(1, 3),
           extra=st.integers(1, 2), k=_K, stride=_STRIDE, pad_kind=_PAD,
           out_h=st.integers(1, 4), out_w=st.integers(1, 4),
           tail=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
    @example(n=1, cin=2, extra=1, k=3, stride=2, pad_kind="one",
             out_h=3, out_w=3, tail=1, seed=0)  # 6x6, k3, s2, p1
    @example(n=1, cin=2, extra=1, k=5, stride=1, pad_kind="one",
             out_h=3, out_w=4, tail=0, seed=1)  # g padded by k-1-pad = 3
    @example(n=2, cin=2, extra=1, k=3, stride=3, pad_kind="one",
             out_h=3, out_w=2, tail=1, seed=2)  # 8x5, k3, s3, p1
    def test_conv2d(self, n, cin, extra, k, stride, pad_kind, out_h, out_w,
                    tail, seed):
        pad = _pad_of(pad_kind, k)
        h = _extent(out_h, k, stride, pad, tail)
        w = _extent(out_w, k, stride, pad, tail)
        # A pad of k or more is refused; TestConvArgumentChecks holds that.
        assume(h >= 1 and w >= 1 and pad < k)
        cout = cin + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cin, h, w))
        wt = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)

        def fn(xv, wv, bv):
            return T.conv2d(xv, wv, bv, stride=stride, pad=pad)

        out = fn(Tensor(x), Tensor(wt), Tensor(b)).data
        assert out.shape == (n, cout, out_h, out_w)
        npt.assert_allclose(out, conv2d_reference(x, wt, b, stride, pad),
                            rtol=0, atol=1e-10)

        g = rng.standard_normal(out.shape)
        gx, gw, gb = _vjp(fn, [x, wt, b], g)
        gx_ref, gw_ref = conv2d_reference_vjp(x, wt, g, stride, pad)
        npt.assert_allclose(gx, gx_ref, rtol=0, atol=1e-10)
        npt.assert_allclose(gw, gw_ref, rtol=0, atol=1e-10)
        dx = rng.standard_normal(x.shape)
        dw = rng.standard_normal(wt.shape)
        zero_b = np.zeros(cout)
        npt.assert_allclose(np.sum(gx * dx),
                            np.sum(g * fn(Tensor(dx), Tensor(wt),
                                          Tensor(zero_b)).data), atol=1e-10)
        npt.assert_allclose(np.sum(gw * dw),
                            np.sum(g * fn(Tensor(x), Tensor(dw),
                                          Tensor(zero_b)).data), atol=1e-10)
        npt.assert_allclose(gb, g.sum(axis=(0, 2, 3)), atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2]), c=st.integers(1, 3), k=_K,
           h=st.integers(1, 6), w=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    @example(n=2, c=5, k=7, h=6, w=5, seed=3)  # C not a multiple of 4
    @example(n=1, c=2, k=7, h=3, w=1, seed=4)  # band wider than the output
    @example(n=2, c=3, k=5, h=2, w=5, seed=5)  # h != w
    def test_dwconv2d(self, n, c, k, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((c, 1, k, k))
        b = rng.standard_normal(c)

        def fn(xv, wv, bv):
            return T.dwconv2d(xv, wv, bv)

        out = fn(Tensor(x), Tensor(wt), Tensor(b)).data
        npt.assert_allclose(out, dwconv2d_reference(x, wt, b),
                            rtol=0, atol=1e-10)

        g = rng.standard_normal(out.shape)
        gx, gw, gb = _vjp(fn, [x, wt, b], g)
        dx = rng.standard_normal(x.shape)
        dw = rng.standard_normal(wt.shape)
        zero_b = np.zeros(c)
        npt.assert_allclose(np.sum(gx * dx),
                            np.sum(g * fn(Tensor(dx), Tensor(wt),
                                          Tensor(zero_b)).data), atol=1e-10)
        npt.assert_allclose(np.sum(gw * dw),
                            np.sum(g * fn(Tensor(x), Tensor(dw),
                                          Tensor(zero_b)).data), atol=1e-10)
        npt.assert_allclose(gb, g.sum(axis=(0, 2, 3)), atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2]), c=st.integers(1, 3), k=_K,
           h=st.integers(1, 6), w=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    @example(n=1, c=2, k=3, h=3, w=3, seed=0)
    @example(n=1, c=1, k=7, h=2, w=1, seed=2)  # window wider than the image
    def test_avgpool2d(self, n, c, k, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))

        def fn(xv):
            return T.avgpool2d(xv, k)

        out = fn(Tensor(x)).data
        assert out.shape == x.shape
        npt.assert_allclose(out, avgpool2d_reference(x, k),
                            rtol=0, atol=1e-10)

        g = rng.standard_normal(out.shape)
        (gx,) = _vjp(fn, [x], g)
        dx = rng.standard_normal(x.shape)
        npt.assert_allclose(np.sum(gx * dx), np.sum(g * fn(Tensor(dx)).data),
                            atol=1e-10)

    def test_pointwise_conv_gradients_match_finite_differences(self):
        # k=1, stride 1, pad 0: the columns are the input itself.
        rng = Rng(13)
        x = rand64(rng, (2, 3, 4, 5), requires_grad=True)
        w = rand64(rng, (4, 3, 1, 1), requires_grad=True)
        b = rand64(rng, (4,), requires_grad=True)
        probe = rand64(rng, (2, 4, 4, 5))
        backward((T.conv2d(x, w, b) * probe).sum())
        for t, of in ((x, lambda v: (T.conv2d(v, w, b) * probe).sum()),
                      (w, lambda v: (T.conv2d(x, v, b) * probe).sum()),
                      (b, lambda v: (T.conv2d(x, w, v) * probe).sum())):
            fd = finite_diff_grad(of, t)
            assert np.max(np.abs(t.grad - fd.data)) < 1e-6

    def test_k1_depthwise_gradients_match_finite_differences(self):
        rng = Rng(17)
        x = rand64(rng, (2, 3, 4, 4), requires_grad=True)
        w = rand64(rng, (3, 1, 1, 1), requires_grad=True)
        b = rand64(rng, (3,), requires_grad=True)
        probe = rand64(rng, (2, 3, 4, 4))
        backward((T.dwconv2d(x, w, b) * probe).sum())
        for t, of in ((x, lambda v: (T.dwconv2d(v, w, b) * probe).sum()),
                      (w, lambda v: (T.dwconv2d(x, v, b) * probe).sum()),
                      (b, lambda v: (T.dwconv2d(x, w, v) * probe).sum())):
            fd = finite_diff_grad(of, t)
            assert np.max(np.abs(t.grad - fd.data)) < 1e-6

    @pytest.mark.parametrize("op, stride", [("conv2d", 1), ("conv2d", 2),
                                            ("dwconv2d", 1)],
                             ids=["1", "2", "dwconv2d"])
    def test_input_without_grad_is_skipped(self, op, stride):
        rng = Rng(19)
        cout, cin = (3, 1) if op == "dwconv2d" else (4, 3)
        x = rng.normal((2, 3, 6, 6), dtype=T.F64)
        w = rng.normal((cout, cin, 3, 3), dtype=T.F64)
        b = rng.normal((cout,), dtype=T.F64)
        probe = Tensor(rng.normal((2, cout, 6 // stride, 6 // stride),
                                  dtype=T.F64))
        grads = []
        for x_grad in (False, True):
            xt = Tensor(x, requires_grad=x_grad)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            if op == "dwconv2d":
                out = T.dwconv2d(xt, wt, bt)
            else:
                out = T.conv2d(xt, wt, bt, stride=stride, pad=1)
            gx = out._node.backward_fn(probe.data)[0]
            assert (gx is None) == (not x_grad)
            backward((out * probe).sum())
            assert (xt.grad is None) == (not x_grad)
            grads.append((wt.grad, bt.grad))
        for without, with_ in zip(*grads):
            assert without.shape == with_.shape
            assert without.tobytes() == with_.tobytes()

    @pytest.mark.parametrize("layout", ["channel_slice", "strided"])
    @pytest.mark.parametrize("op, k, stride, pad", [
        ("conv2d", 3, 1, 1), ("conv2d", 1, 1, 0), ("conv2d", 5, 1, 1),
        ("conv2d", 3, 2, 1), ("conv2d", 5, 1, 2), ("dwconv2d", 3, 1, 1),
        ("dwconv2d", 1, 1, 0), ("dwconv2d", 5, 1, 2)])
    def test_non_contiguous_upstream_gradient(self, op, k, stride, pad,
                                              layout):
        # concat_c's backward hands each input a channel slice of g; any
        # view must give the same gradients as the reference adjoint.
        rng = np.random.default_rng(k * 10 + stride + pad)
        n, cin, h, w = 2, 3, 6, 6
        cout = cin if op == "dwconv2d" else 4
        x = rng.standard_normal((n, cin, h, w))
        wt = rng.standard_normal((cout, 1 if op == "dwconv2d" else cin, k, k))
        b = rng.standard_normal(cout)
        leaves = [Tensor(v, requires_grad=True) for v in (x, wt, b)]
        if op == "dwconv2d":
            out = T.dwconv2d(*leaves)
        else:
            out = T.conv2d(*leaves, stride=stride, pad=pad)
        _, _, oh, ow = out.shape
        if layout == "channel_slice":
            g = rng.standard_normal((n, cout + 3, oh, ow))[:, 1:1 + cout]
        else:
            g = rng.standard_normal((n, cout, 2 * oh, 3 * ow))[:, :, ::2, ::3]
        assert not g.flags.c_contiguous
        g_before = g.copy()
        gx, gw, gb = out._node.backward_fn(g)
        if op == "dwconv2d":
            gx_ref, gw_ref = dwconv2d_reference_vjp(x, wt, g)
        else:
            gx_ref, gw_ref = conv2d_reference_vjp(x, wt, g, stride, pad)
        npt.assert_allclose(gx, gx_ref, rtol=0, atol=1e-10)
        npt.assert_allclose(gw, gw_ref, rtol=0, atol=1e-10)
        npt.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-10)
        assert np.array_equal(g, g_before)

    def test_batched_forward_equals_per_image_forwards(self):
        cfg = ModelConfig(seed=3)
        store = init_model_params(cfg)
        images = Rng(5).normal((8, 1, 64, 64), dtype=T.F32)
        with T.no_grad():
            batched = model_forward(Tensor(images), store, cfg).logits
            for i in range(8):
                single = model_forward(Tensor(images[i:i + 1]), store,
                                       cfg).logits
                for whole, one in zip(batched, single):
                    npt.assert_allclose(whole.data[i:i + 1], one.data,
                                        rtol=0, atol=1e-5)


def traced_bytes(fn):
    """``fn()``'s result, and the bytes still allocated after it and at
    its peak, above those allocated before it (``tracemalloc``)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, live - base, peak - base


# Transient peak of training.infer on the default model at B=8: 19.45 MiB
# measured (25.48 MiB while each conv padded the batch and copied k*k
# windows of a whole image, and blocks kept dead forward references).
INFER_B8_PEAK_MIB = 19.45
# The same at B=1 on a 256x256 image: 38.96 MiB measured (112.2 MiB
# with whole-image columns and padded batch copies).
INFER_256_PEAK_MIB = 38.96


class TestConvWorkspace:
    @pytest.mark.parametrize("k, stride, pad, h", [
        (3, 1, 1, 9), (3, 1, 0, 9), (3, 2, 1, 9), (3, 2, 0, 11),
        (1, 1, 0, 9), (5, 1, 1, 9), (1, 2, 0, 9), (5, 2, 1, 11)])
    def test_row_blocks_match_one_block(self, monkeypatch, k, stride, pad,
                                        h):
        # k=5, pad=1 pads g by 3 in a stride-1 backward (k - 1 - pad > pad).
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        n, cin, cout, w = 2, 3, 4, h + 2
        arrays = (rng.standard_normal((n, cin, h, w)),
                  rng.standard_normal((cout, cin, k, k)),
                  rng.standard_normal(cout))
        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        g = rng.standard_normal((n, cout, out_h, out_w))

        def run():
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            out = T.conv2d(*leaves, stride=stride, pad=pad)
            return out.data, out._node.backward_fn(g)

        one_out, one_grads = run()
        # Two forward rows per block, the last block one row; a 1x1
        # stride-1 conv multiplies the image itself, as one block.
        monkeypatch.setattr(T, "_COL_BYTES", 2 * cin * k * k * out_w * 8)
        if (k, stride) != (1, 1):
            step, _ = T._row_blocks(out_h, cin * k * k * out_w, T.F64)
            assert step == 2 and out_h > 4 and out_h % step == 1
        blocked_out, blocked_grads = run()
        # Not bit for bit: BLAS may round a column of a product
        # differently when its other operand has fewer columns.
        for blocked, one in zip((blocked_out, *blocked_grads),
                                (one_out, *one_grads)):
            npt.assert_allclose(blocked, one, rtol=1e-12, atol=0)

    def test_strided_weight_gradient_without_input_gradient(
            self, monkeypatch):
        # An input without gradients skips the adjoint: gx is None, and
        # the weight gradient over three row blocks matches one block.
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3, 11, 13)))
        arrays = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        g = rng.standard_normal((2, 4, 6, 7))

        def run():
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            return T.conv2d(x, *leaves, stride=2, pad=1)._node.backward_fn(g)

        one = run()
        monkeypatch.setattr(T, "_COL_BYTES", 2 * 3 * 9 * 7 * 8)
        assert T._row_blocks(6, 3 * 9 * 7, T.F64)[0] == 2
        blocked = run()
        assert one[0] is None and blocked[0] is None
        npt.assert_allclose(blocked[1], one[1], rtol=1e-12, atol=0)
        npt.assert_array_equal(blocked[2], one[2])

    def test_default_model_logits_match_one_block_bit_for_bit(
            self, monkeypatch):
        # BLAS may round by block width in general (above), but at the
        # default model's shapes, where AUA1's 3x3 fuse conv spans five
        # blocks, every logit equals the whole-image columns' result.
        cfg = ModelConfig()
        store = init_model_params(cfg)
        image = Tensor(Rng(7).normal((2, 1, 64, 64), dtype=T.F32))
        with T.no_grad():
            blocked = model_forward(image, store, cfg).logits
            monkeypatch.setattr(T, "_COL_BYTES", 1 << 40)
            whole = model_forward(image, store, cfg).logits
        for b, w in zip(blocked, whole):
            npt.assert_array_equal(b.data, w.data)

    def test_workspace_holds_no_window_copies_of_the_image(self):
        n, c, h, w, k = 1, 64, 128, 128, 3
        rng = np.random.default_rng(2)
        weight = Tensor(rng.standard_normal((c, c, k, k), dtype=np.float32),
                        requires_grad=True)
        bias = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)

        def forward_backward():
            x = Tensor(rng.standard_normal((n, c, h, w), dtype=np.float32),
                       requires_grad=True)
            out = T.conv2d(x, weight, bias, pad=1)
            return out._node.backward_fn(np.ones_like(out.data))

        _, _, peak = traced_bytes(forward_backward)
        image = c * h * w * 4
        padded = c * (h + 2) * (w + 2) * 4
        # input, output, g, gx, one padded image, the 1 MiB column budget
        # and 1 MiB for the weight-sized arrays; k*k copies of the image
        # would add 36 MiB.
        assert peak < 4 * image + padded + 2 * 2**20

    def test_default_model_b8_inference_peak(self):
        cfg = ModelConfig()
        store = init_model_params(cfg)
        images = Rng(5).normal((8, 1, 64, 64), dtype=T.F32)
        infer([(store, cfg)], images)  # fills the resize-operator cache
        prob, _, peak = traced_bytes(lambda: infer([(store, cfg)], images))
        assert prob.shape == (8, 1, 64, 64)
        assert peak < 1.03 * INFER_B8_PEAK_MIB * 2**20

    def test_default_model_256_inference_peak(self):
        cfg = ModelConfig(input_size=(256, 256))
        store = init_model_params(cfg)
        images = Rng(5).normal((1, 1, 256, 256), dtype=T.F32)
        infer([(store, cfg)], images)  # fills the resize-operator cache
        prob, _, peak = traced_bytes(lambda: infer([(store, cfg)], images))
        assert prob.shape == (1, 1, 256, 256)
        assert peak < 1.02 * INFER_256_PEAK_MIB * 2**20


# ---------------------------------------------------------------------------
# bilinear_resize
# ---------------------------------------------------------------------------


def resize_reference(img, out_h, out_w):
    """Scalar half-pixel-center bilinear interpolation, straight from the
    textbook formula; intentionally independent of the library kernel."""
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * in_h / out_h - 0.5
            sx = (j + 0.5) * in_w / out_w - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            y0c, y1c = max(0, min(y0, in_h - 1)), max(0, min(y0 + 1, in_h - 1))
            x0c, x1c = max(0, min(x0, in_w - 1)), max(0, min(x0 + 1, in_w - 1))
            out[i, j] = (img[y0c, x0c] * (1 - fy) * (1 - fx)
                         + img[y0c, x1c] * (1 - fy) * fx
                         + img[y1c, x0c] * fy * (1 - fx)
                         + img[y1c, x1c] * fy * fx)
    return out


class TestBilinearResize:
    def test_same_size_is_identity(self):
        rng = Rng(2)
        x = rand64(rng, (2, 3, 5, 7), requires_grad=True)
        out = T.bilinear_resize(x, 5, 7)
        assert out is x and out._node is None
        backward(out.sum())
        npt.assert_array_equal(x.grad, np.ones(x.shape))

    @pytest.mark.parametrize("target", [(3, 3), (4, 6), (9, 2), (7, 7)])
    def test_constant_preserved(self, target):
        x = Tensor(np.full((1, 2, 4, 5), 5.0))
        out = T.bilinear_resize(x, *target)
        npt.assert_array_equal(out.data, np.full((1, 2) + target, 5.0))

    def test_two_by_two_upsample_matches_hand_evaluation(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None, None])
        out = T.bilinear_resize(x, 4, 4)
        # frozen from resize_reference on the same input
        expected = np.array([
            [1.00, 1.25, 1.75, 2.00],
            [1.50, 1.75, 2.25, 2.50],
            [2.50, 2.75, 3.25, 3.50],
            [3.00, 3.25, 3.75, 4.00],
        ])
        npt.assert_array_equal(out.data[0, 0], expected)
        npt.assert_array_equal(resize_reference(x.data[0, 0], 4, 4), expected)

    @pytest.mark.parametrize("target", [(3, 5), (8, 8), (2, 2), (5, 4)])
    def test_matches_scalar_reference(self, target):
        rng = Rng(13)
        x = rand64(rng, (1, 1, 4, 4))
        out = T.bilinear_resize(x, *target)
        ref = resize_reference(x.data[0, 0], *target)
        npt.assert_allclose(out.data[0, 0], ref, atol=1e-12)

    def test_gradcheck(self):
        rng = Rng(4)
        x = rand64(rng, (1, 2, 3, 4), requires_grad=True)
        err = grad_error(lambda: (T.bilinear_resize(x, 5, 6) *
                                  T.bilinear_resize(x, 5, 6)).sum(),
                         [x], rng, max_samples=None)
        assert err < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), c=st.sampled_from([1, 3]),
           h=st.integers(1, 9), w=st.integers(1, 9),
           out_h=st.integers(1, 12), out_w=st.integers(1, 12),
           seed=st.integers(0, 2**16))
    @example(n=2, c=3, h=7, w=3, out_h=2, out_w=11, seed=0)
    @example(n=1, c=3, h=2, w=9, out_h=12, out_w=4, seed=1)
    def test_batched_matches_scalar_reference(self, n, c, h, w, out_h, out_w,
                                              seed):
        x = rand64(Rng(seed), (n, c, h, w))
        out = T.bilinear_resize(x, out_h, out_w)
        assert out.shape == (n, c, out_h, out_w)
        for i in range(n):
            for j in range(c):
                npt.assert_allclose(
                    out.data[i, j], resize_reference(x.data[i, j], out_h, out_w),
                    rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, target", [
        ((2, 3, 5, 7), (9, 4)), ((1, 2, 8, 3), (3, 11)), ((2, 1, 1, 6), (4, 1)),
    ])
    def test_backward_is_the_exact_adjoint(self, shape, target):
        # <g, R dx> == <R^T g, dx> for the forward R and the recorded backward
        rng = Rng(17)
        dx = rng.normal(shape, dtype=T.F64)
        g = rng.normal(shape[:2] + target, dtype=T.F64)
        out = T.bilinear_resize(Tensor(dx, requires_grad=True), *target)
        (rt_g,) = out._node.backward_fn(g)
        assert rt_g.shape == shape
        lhs, rhs = np.vdot(g, out.data), np.vdot(rt_g, dx)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_operator_is_cached_and_read_only(self):
        x = rand64(Rng(3), (1, 2, 5, 6))
        first = T.bilinear_resize(x, 7, 4)
        wy = T._interp_matrix(5, 7, T.F64)
        assert not wy.flags.writeable
        with pytest.raises(ValueError):
            wy[0, 0] = 1.0
        hits = T._interp_matrix.cache_info().hits
        second = T.bilinear_resize(x, 7, 4)
        assert T._interp_matrix.cache_info().hits == hits + 2
        assert T._interp_matrix(5, 7, T.F64) is wy
        npt.assert_array_equal(first.data, second.data)

    def test_operator_cache_is_keyed_by_dtype(self):
        T._interp_matrix.cache_clear()
        img = Rng(8).normal((1, 1, 5, 3), dtype=T.F64)
        low = T.bilinear_resize(Tensor(img.astype(T.F32)), 4, 7)
        assert low.dtype == T.F32
        out = T.bilinear_resize(Tensor(img), 4, 7)
        assert out.dtype == T.F64
        npt.assert_allclose(out.data[0, 0], resize_reference(img[0, 0], 4, 7),
                            rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# layernorm_c
# ---------------------------------------------------------------------------


class TestLayernorm:
    def test_constant_channels_give_zero(self):
        x = Tensor(np.full((1, 6, 2, 2), 3.7))
        out = T.layernorm_c(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        # numerator is ~0 up to the rounding of the mean, amplified by
        # at most 1/sqrt(eps)
        npt.assert_allclose(out.data, np.zeros_like(x.data), atol=1e-9)

    def test_two_point_standardization(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        out = T.layernorm_c(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        npt.assert_allclose(out.data.reshape(2), [-1.0, 1.0], atol=1e-4)

    def test_statistics_and_gradients(self):
        rng = Rng(21)
        x = rand64(rng, (2, 8, 4, 4), requires_grad=True)
        gamma = Tensor(np.ones(8), requires_grad=True)
        beta = Tensor(np.zeros(8), requires_grad=True)
        out = T.layernorm_c(x, gamma, beta)
        mean = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.max(np.abs(mean)) < 1e-6
        assert np.max(np.abs(var - 1.0)) < 1e-3

        err = grad_error(
            lambda: (T.layernorm_c(x, gamma, beta) *
                     T.layernorm_c(x, gamma, beta)).sum(),
            [x, gamma, beta], rng, max_samples=16)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid_select(v):
    """The branchy select form of the stable logistic, kept as an oracle."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


class TestActivations:
    def test_symmetry_points(self):
        assert T.gelu(Tensor([0.0])).item() == 0.0
        assert T.sigmoid(Tensor([0.0])).item() == 0.5

    def test_sigmoid_saturation_is_stable(self):
        out = T.sigmoid(Tensor([30.0, -30.0]))
        assert 0.0 < out.data[1] < out.data[0] < 1.0
        big = T.sigmoid(Tensor([800.0, -800.0]))
        assert np.all(np.isfinite(big.data))

    def test_gelu_matches_pinned_tanh_form(self):
        # bit-comparability contract: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715*x^3)))
        # with the cube computed as x*x*x
        x = np.linspace(-3, 3, 11)
        c = math.sqrt(2.0 / math.pi)
        expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))
        npt.assert_array_equal(T.gelu(Tensor(x)).data, expected)

    def test_gelu_gradient_at_one(self):
        x = Tensor([1.0], requires_grad=True)
        backward(T.gelu(x).sum())
        fd = finite_diff_grad(lambda v: T.gelu(v).sum(), Tensor([1.0]))
        assert abs(x.grad[0] - fd.data[0]) < 1e-5

    def test_sigmoid_derivative_quarter_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        backward(T.sigmoid(x).sum())
        npt.assert_allclose(x.grad, 0.25 * np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("dtype", [T.F32, T.F64], ids=["f32", "f64"])
    def test_stable_sigmoid_equals_select_form_bitwise(self, dtype):
        fi = np.finfo(dtype)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                            fi.tiny, -fi.tiny, fi.smallest_subnormal,
                            -fi.smallest_subnormal, fi.max, -fi.max],
                           dtype=dtype)
        rng = Rng(31)
        arrays = [special, rng.normal((4, 3, 16, 16), std=12.0, dtype=dtype),
                  rng.normal(100_000, std=3.0, dtype=dtype)]
        for v in arrays:
            got, want = T.stable_sigmoid(v), sigmoid_select(v)
            assert got.dtype == want.dtype == dtype
            nan = np.isnan(want)
            npt.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


# The textbook expressions the buffer-reusing kernels must match bit for
# bit: every full-size step is the same ufunc on the same operands.

def layernorm_reference(v, gamma, beta, g):
    mu = v.mean(axis=1, keepdims=True)
    centered = v - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYERNORM_EPS)
    xhat = centered * inv
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gg = g * gamma[None, :, None, None]
    gx = inv * (gg
                - gg.mean(axis=1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=1, keepdims=True))
    return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def gelu_grad_reference(v, g):
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (v + 0.044715 * v * v * v))
    dinner = c * (1.0 + 3.0 * 0.044715 * v * v)
    return g * (0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * dinner)


def sigmoid_grad_reference(v, g):
    out = sigmoid_select(v)
    return g * out * (1.0 - out)


@pytest.mark.parametrize("dtype", [T.F32, T.F64], ids=["f32", "f64"])
class TestTextbookBits:
    @staticmethod
    def draw(dtype, shape=(3, 8, 5, 6)):
        rng = Rng(43)
        v = rng.normal(shape, std=3.0, dtype=dtype)
        v.flat[:4] = [0.0, 40.0, -40.0, 1e-3]
        return v, rng.normal(shape, dtype=dtype), rng

    def test_layernorm_output_and_gradients(self, dtype):
        v, g, rng = self.draw(dtype)
        gamma, beta = (rng.normal(8, dtype=dtype) for _ in range(2))
        out = T.layernorm_c(Tensor(v, requires_grad=True),
                            Tensor(gamma, requires_grad=True),
                            Tensor(beta, requires_grad=True))
        got = (out.data,) + out._node.backward_fn(g)
        for a, b in zip(got, layernorm_reference(v, gamma, beta, g)):
            assert a.dtype == b.dtype == dtype
            npt.assert_array_equal(a, b)

    def test_gelu_gradient(self, dtype):
        v, g, _ = self.draw(dtype)
        (gx,) = T.gelu(Tensor(v, requires_grad=True))._node.backward_fn(g)
        assert gx.dtype == dtype
        npt.assert_array_equal(gx, gelu_grad_reference(v, g))

    def test_sigmoid_gradient(self, dtype):
        v, g, _ = self.draw(dtype)
        (gx,) = T.sigmoid(Tensor(v, requires_grad=True))._node.backward_fn(g)
        assert gx.dtype == dtype
        npt.assert_array_equal(gx, sigmoid_grad_reference(v, g))


# ---------------------------------------------------------------------------
# avgpool2d
# ---------------------------------------------------------------------------


class TestAvgpool:
    def test_window_mean(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        out = T.avgpool2d(x, k=3)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 5.0  # the full window
        assert out.data[0, 0, 0, 0] == 3.0  # (1 + 2 + 4 + 5) / 4 valid pixels

    def test_constant_survives_padding(self):
        x = Tensor(np.full((1, 2, 5, 5), 3.0))
        out = T.avgpool2d(x, k=3)
        npt.assert_array_equal(out.data, np.full((1, 2, 5, 5), 3.0))

    def test_even_or_nonpositive_window_rejected(self):
        # the pad (k-1)/2 is taken from the window, so only odd k >= 1 exist
        for k in (2, 4, 0, -1):
            with pytest.raises(ContractError,
                               match=f"odd and positive, got {k}"):
                T.avgpool2d(Tensor(np.ones((1, 1, 4, 4))), k)

    def test_gradcheck(self):
        rng = Rng(9)
        x = rand64(rng, (1, 1, 7, 7), requires_grad=True)
        err = grad_error(lambda: (T.avgpool2d(x, 3) *
                                  T.avgpool2d(x, 3)).sum(),
                         [x], rng, max_samples=None)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# concat / split
# ---------------------------------------------------------------------------


class TestConcatSplit:
    def test_round_trip(self):
        rng = Rng(31)
        xs = [rand64(rng, (2, c, 3, 3)) for c in (1, 4, 2)]
        joined = T.concat_c(xs)
        assert joined.shape == (2, 7, 3, 3)
        back = T.split_c(joined, [1, 4, 2])
        for orig, piece in zip(xs, back):
            npt.assert_array_equal(orig.data, piece.data)

    def test_channel_order(self):
        a = Tensor(np.ones((1, 2, 2, 2)))
        b = Tensor(2 * np.ones((1, 3, 2, 2)))
        joined = T.concat_c([a, b])
        assert joined.shape[1] == 5
        npt.assert_array_equal(joined.data[:, :2], a.data)
        npt.assert_array_equal(joined.data[:, 2:], b.data)

    def test_split_slice_gradient_is_indicator(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 2, 2), requires_grad=True)
        parts = T.split_c(x, [1, 2, 1])
        backward(parts[1].sum())
        expected = np.zeros((1, 4, 2, 2))
        expected[:, 1:3] = 1.0
        npt.assert_array_equal(x.grad, expected)

    def test_spatial_mismatch_rejected(self):
        a = Tensor(np.zeros((1, 1, 2, 2)))
        b = Tensor(np.zeros((1, 1, 3, 2)))
        with pytest.raises(DimensionError, match="H"):
            T.concat_c([a, b])


# ---------------------------------------------------------------------------
# elementwise + reductions
# ---------------------------------------------------------------------------


class TestElementwise:
    def test_ones_is_identity(self):
        rng = Rng(17)
        a = rand64(rng, (1, 3, 4, 4))
        out = a * Tensor(np.ones_like(a.data))
        npt.assert_array_equal(out.data, a.data)

    def test_single_channel_broadcast(self):
        rng = Rng(18)
        a = rand64(rng, (1, 64, 4, 4))
        b = rand64(rng, (1, 1, 4, 4))
        out = a * b
        for c in range(64):
            npt.assert_allclose(out.data[0, c], a.data[0, c] * b.data[0, 0],
                                rtol=0, atol=0)

    def test_broadcast_mul_gradcheck(self):
        rng = Rng(19)
        a = rand64(rng, (1, 3, 2, 2), requires_grad=True)
        b = rand64(rng, (1, 1, 2, 2), requires_grad=True)
        err = grad_error(lambda: ((a * b) * (a * b)).sum(), [a, b], rng,
                         max_samples=None)
        assert err < 1e-5

    def test_incompatible_shapes_rejected(self):
        a = Tensor(np.zeros((1, 3, 2, 2)))
        b = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(DimensionError):
            a * b


_SCALAR_OPS = {
    "x * s": lambda x, s: x * s,
    "s * x": lambda x, s: s * x,
    "x + s": lambda x, s: x + s,
    "s + x": lambda x, s: s + x,
    "x - s": lambda x, s: x - s,
}


class TestScalarOperands:
    @pytest.mark.parametrize("expr", list(_SCALAR_OPS))
    @pytest.mark.parametrize("dtype", [T.F32, T.F64], ids=["f32", "f64"])
    def test_scalar_equals_a_full_constant(self, dtype, expr):
        # 0.3 is not exact in either dtype, so a rounding difference shows
        rng = Rng(23)
        data = rng.normal((2, 3, 4, 5), dtype=dtype)
        probe = Tensor(rng.normal((2, 3, 4, 5), dtype=dtype))
        results = []
        for s in (0.3, Tensor(np.full(data.shape, 0.3), dtype=dtype)):
            x = Tensor(data, requires_grad=True)
            out = _SCALAR_OPS[expr](x, s)
            backward((out * probe).sum())
            results.append((out.data, x.grad))
        (out, grad), (ref_out, ref_grad) = results
        assert out.dtype == dtype and grad.dtype == dtype
        assert out.shape == ref_out.shape
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


class TestReduceBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_mean_gradient_is_inverse_count(self):
        x = Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        backward(x.mean())
        npt.assert_array_equal(x.grad, np.full((2, 4), 1.0 / 8.0))

    def test_fanout_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        backward((x + x).sum())
        npt.assert_array_equal(x.grad, [2.0])

    def test_second_backward_on_consumed_graph_raises(self):
        # backward frees each node it consumes, so a second pass over one
        # graph must fail loudly, not add zero gradients.
        x = Tensor([2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(ContractError, match="already consumed"):
            backward(loss)
        npt.assert_array_equal(x.grad, [4.0])

    def test_separate_graphs_accumulate_on_one_leaf(self):
        x = Tensor([2.0], requires_grad=True)
        backward((x * x).sum())
        backward((x * 3.0).sum())
        npt.assert_array_equal(x.grad, [7.0])

    def test_backward_frees_saved_activations(self):
        def graph():
            x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
            h = T.sigmoid(x)  # its rule keeps its output
            return (h * h).sum(), weakref.ref(h.data)

        loss, saved = graph()
        assert saved() is not None
        backward(loss)
        assert saved() is None
        assert loss.item() > 0.0

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(x * 2.0)

    def test_gradients_land_on_leaves_only(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        y = x * x
        loss = y.sum()
        backward(loss)
        npt.assert_array_equal(x.grad, [3.0, -4.0])
        assert y.grad is None
        assert loss.grad is None

    def test_backward_on_leaf_scalar_sets_unit_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        backward(x)
        npt.assert_array_equal(x.grad, [1.0])

    def test_step_graph_freed_without_cycle_collector(self):
        # A node that points back at its output makes every step's graph a
        # reference cycle, which only the cyclic collector can free.
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=5)
        store = init_model_params(cfg, dtype=T.F64)
        image = Tensor(Rng(3).normal((1, 1, 32, 32), dtype=T.F64))
        gt = Tensor((image.data > 0).astype(np.float64))
        gc.collect()
        gc.disable()
        try:
            loss = total_loss(model_forward(image, store, cfg).logits, gt)
            backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def default_batch(dtype=T.F32):
    """The canonical default-config batch: 4 ``SynthSpec(seed=7)`` samples."""
    samples = [gen_sample(SynthSpec(seed=7), i) for i in range(4)]
    return (Tensor(np.stack([s.image.data for s in samples]), dtype=dtype),
            Tensor(np.stack([s.mask.data for s in samples]), dtype=dtype))


# Live bytes after a default-config B=4 forward + loss: 19.46 MiB measured
# (25.78 MiB while the tape kept GeLU outputs; 36.35 MiB while it also
# kept concatenations, upsamplings, products and plain layer-norm outputs
# instead of recomputing them; 41.65 MiB while each layer norm and its
# GeLU kept an array each; 67.01 MiB while tape nodes pinned their input
# tensors).  The peak of that forward + loss: 25.23 MiB (30.22 MiB,
# 38.78 MiB).  The peak of the same forward, loss and backward, reached
# in backward: 25.65 MiB (30.64 MiB, 40.11 MiB, 44.08 MiB).
LIVE_TAPE_MIB = 19.46
FORWARD_PEAK_MIB = 25.23
STEP_PEAK_MIB = 25.65


class TestTapeHoldsWhatBackwardReads:
    def test_input_no_rule_reads_dies_with_the_forward(self):
        rng = Rng(41)
        a, b, gamma, beta = (rand64(rng, shape, requires_grad=True)
                             for shape in ((2, 6, 3, 3), (2, 6, 3, 3), (6,), (6,)))
        kept = []

        def forward(keep):
            s = a + b
            if keep:
                kept.append(s)
            y = T.layernorm_c(s, gamma, beta)
            return (y * y).sum(), weakref.ref(s.data)

        grads = []
        for keep in (False, True):
            loss, saved = forward(keep)
            assert (saved() is None) != keep
            assert loss.item() > 0.0
            backward(loss)
            grads.append([t.grad.copy() for t in (a, b, gamma, beta)])
            for t in (a, b, gamma, beta):
                t.zero_grad()
        for freed, pinned in zip(*grads):
            npt.assert_array_equal(freed, pinned)

    def test_routes_hold_only_leaves(self):
        cfg = ModelConfig(channels=8, input_size=(32, 32), seed=5)
        store = init_model_params(cfg, dtype=T.F64)
        image = Tensor(Rng(3).normal((1, 1, 32, 32), dtype=T.F64))
        gt = Tensor((image.data > 0).astype(np.float64))
        loss = total_loss(model_forward(image, store, cfg).logits, gt)
        leaves, seen, todo = set(), set(), [loss._node]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for route in node.routes:
                if isinstance(route, Tensor):
                    assert route._node is None and route.requires_grad
                    leaves.add(id(route))
                elif route is not None:
                    assert isinstance(route, T.TapeNode)
                    todo.append(route)
        assert leaves == {id(p) for p in store.values()}

    @staticmethod
    def traced_default_forward():
        cfg = ModelConfig()
        store = init_model_params(cfg)
        image, gt = default_batch()
        with T.no_grad():  # fills the resize-operator cache
            model_forward(image, store, cfg)
        return traced_bytes(
            lambda: total_loss(model_forward(image, store, cfg).logits, gt))

    def test_live_bytes_after_default_forward(self):
        loss, live, _ = self.traced_default_forward()
        assert loss.item() > 0.0
        assert live < 1.02 * LIVE_TAPE_MIB * 2**20

    def test_peak_of_a_default_forward(self):
        loss, _, peak = self.traced_default_forward()
        assert loss.item() > 0.0
        assert peak < 1.02 * FORWARD_PEAK_MIB * 2**20

    def test_peak_of_a_default_step(self):
        cfg = ModelConfig()
        store = init_model_params(cfg)
        image, gt = default_batch()
        with T.no_grad():  # fills the resize-operator cache
            model_forward(image, store, cfg)

        def step():
            loss = total_loss(model_forward(image, store, cfg).logits, gt)
            backward(loss)
            return loss.item()

        loss, _, peak = traced_bytes(step)
        assert loss > 0.0
        assert peak < 1.02 * STEP_PEAK_MIB * 2**20


def default_step_grads(store, cfg):
    """Parameter gradients of one default B=4 forward, loss and backward."""
    image, gt = default_batch()
    backward(total_loss(model_forward(image, store, cfg).logits, gt))
    grads = {name: p.grad for name, p in store.items()}
    for p in store.values():
        p.zero_grad()
    return grads


def _recorded_and_unrecorded(dtype):
    """(op name, recorded output, output under no_grad) for every op over
    inputs that require grad; each ``split_c`` piece is one row."""
    rng = Rng(6)

    def leaf(*shape):
        return Tensor(rng.normal(shape, dtype=dtype), requires_grad=True)

    x, y, w1, w3, b = (leaf(2, 4, 5, 6), leaf(2, 4, 5, 6), leaf(3, 4, 1, 1),
                       leaf(3, 4, 3, 3), leaf(3))
    dw, db, gamma, beta, scale = (leaf(4, 1, 3, 3), leaf(4), leaf(4), leaf(4),
                                  leaf(1, 4, 1, 1))
    logits = leaf(2, 1, 5, 6)
    gt = Tensor((rng.random((2, 1, 5, 6)) > 0.5).astype(dtype))
    w = weight_map(gt)
    ops = {
        "conv2d_1x1": lambda: T.conv2d(x, w1, b),
        "conv2d_3x3": lambda: T.conv2d(x, w3, b, pad=1),
        "conv2d_3x3s2": lambda: T.conv2d(x, w3, b, stride=2, pad=1),
        "dwconv2d": lambda: T.dwconv2d(x, dw, db),
        "avgpool2d": lambda: T.avgpool2d(x, 3),
        "resize_up": lambda: T.bilinear_resize(x, 9, 12),
        "resize_down": lambda: T.bilinear_resize(x, 3, 4),
        "layernorm_c": lambda: T.layernorm_c(x, gamma, beta),
        "gelu": lambda: T.gelu(x),
        "sigmoid": lambda: T.sigmoid(x),
        "concat_c": lambda: T.concat_c([x, y]),
        "split_c": lambda: T.split_c(x, [1, 3]),
        "add": lambda: x + y,
        "add_scalar": lambda: x + 0.5,
        "sub": lambda: x - y,
        "sub_scalar": lambda: x - 0.5,
        "mul": lambda: x * y,
        "mul_broadcast": lambda: x * scale,
        "mul_scalar": lambda: x * 0.5,
        "reduce_sum": lambda: x.sum(),
        "reduce_mean": lambda: x.mean(),
        "weighted_bce": lambda: weighted_bce(logits, gt, w),
        "weighted_iou_loss": lambda: weighted_iou_loss(logits, gt, w),
    }
    rows = []
    for name, op in ops.items():
        recorded = op()
        with T.no_grad():
            unrecorded = op()
        if name != "split_c":
            recorded, unrecorded = [recorded], [unrecorded]
        rows += [(name, r, u)
                 for r, u in zip(recorded, unrecorded, strict=True)]
    return rows


class TestRecompute:
    """Concatenations, upsamplings, products, layer-norm and GeLU outputs
    are rebuilt in backward, bit for bit, instead of kept on the tape."""

    @settings(max_examples=40, deadline=None)
    @given(dtype=st.sampled_from([T.F32, T.F64]), n=st.sampled_from([1, 2]),
           c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_recompute_equals_the_forward_bytes(self, dtype, n, c, h, w,
                                                seed):
        rng = Rng(seed)

        def leaf(*shape):
            return Tensor(rng.normal(shape, dtype=dtype), requires_grad=True)

        x, y = leaf(n, c, h, w), leaf(n, c, h, w)
        product = x * y
        normed = T.layernorm_c(x, leaf(c), leaf(c))
        activated = T.gelu(T.layernorm_c(y, leaf(c), leaf(c)))
        outs = [T.concat_c([x, leaf(n, 2, h, w)]),
                T.bilinear_resize(x, 2 * h, w + 1),
                product, x * leaf(1, c, 1, 1), y * 0.5, normed,
                T.gelu(x), activated,
                # recomputes over recomputed inputs
                T.concat_c([product, normed]),
                T.bilinear_resize(product, h + 1, 2 * w),
                T.gelu(product), T.concat_c([activated, T.gelu(normed)])]
        for out in outs:
            assert out._recompute is not None
            again = out._recompute()
            assert again.dtype == dtype and again.shape == out.shape
            assert again.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("normed", [False, True], ids=["gelu", "ln_gelu"])
    @pytest.mark.parametrize("dtype", [T.F32, T.F64], ids=["f32", "f64"])
    def test_gelu_output_read_twice_equals_keeping_it(self, monkeypatch,
                                                      dtype, normed):
        # Two rules rebuild the output: the first leaves its tanh for the
        # second and for the op's backward; kept, the op computes its own.
        rng = Rng(47)
        data = [rng.normal(shape, dtype=dtype)
                for shape in ((2, 3, 4, 5), (3,), (3,), (3, 3, 3, 3), (3,))]

        def grads():
            x, gamma, beta, w, b = (Tensor(a, requires_grad=True)
                                    for a in data)
            h = T.gelu(T.layernorm_c(x, gamma, beta) if normed else x)
            loss = (T.conv2d(h, w, b, pad=1) * h).sum()
            backward(loss)
            return [loss.data] + [t.grad for t in (x, gamma, beta, w, b)
                                  if t.grad is not None]

        rebuilt = grads()
        with monkeypatch.context() as m:
            m.setattr(T, "_kept", lambda t: (lambda data=t.data: data))
            kept = grads()
        assert len(rebuilt) == len(kept) == (6 if normed else 4)
        for got, want in zip(rebuilt, kept):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_default_step_grads_equal_keeping_every_array(self, monkeypatch):
        cfg = ModelConfig()
        store = init_model_params(cfg)
        recomputed = default_step_grads(store, cfg)
        monkeypatch.setattr(T, "_kept", lambda t: (lambda data=t.data: data))
        kept = default_step_grads(store, cfg)
        for name, g in recomputed.items():
            assert g.tobytes() == kept[name].tobytes(), name

    def test_concatenations_die_with_the_forward(self, monkeypatch):
        cfg = ModelConfig()
        store = init_model_params(cfg)
        image, gt = default_batch()
        outputs = []
        concat_c = T.concat_c

        def watched(xs):
            out = concat_c(xs)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "concat_c", watched)
        loss = total_loss(model_forward(image, store, cfg).logits, gt)
        assert len(outputs) == 8  # 4 LSA, 1 GSA, 3 AUA
        assert all(ref() is None for ref in outputs)
        assert loss.item() > 0.0

    def test_downsampling_leaves_no_recompute(self):
        x = Tensor(Rng(5).normal((1, 2, 4, 6), dtype=T.F64),
                   requires_grad=True)
        assert T.bilinear_resize(x, 4, 12)._recompute is not None
        for size in ((2, 3), (2, 8), (4, 5)):  # fewer elements out than in
            out = T.bilinear_resize(x, *size)
            assert out._node is not None and out._recompute is None

    def test_no_recompute_under_no_grad(self):
        # Every op, over inputs that require grad: under no_grad it returns
        # the recorded output's array and no tape machinery.
        for dtype in (T.F32, T.F64):
            for name, recorded, unrecorded in _recorded_and_unrecorded(dtype):
                assert recorded._node is not None, name
                assert unrecorded._node is None, name
                assert unrecorded._recompute is None, name
                assert not unrecorded.requires_grad, name
                assert unrecorded.grad is None, name
                assert unrecorded.dtype == recorded.dtype == dtype, name
                assert unrecorded.shape == recorded.shape, name
                if name in ("reduce_sum", "reduce_mean", "weighted_bce",
                            "weighted_iou_loss"):
                    assert unrecorded.shape == (1,), name
                assert unrecorded.data.flags.c_contiguous, name
                assert unrecorded.data.tobytes() == recorded.data.tobytes(), \
                    name

    @pytest.mark.parametrize("op", [
        T.sigmoid, lambda x: T.split_c(x, [1, 1])[0]])
    def test_transcendental_and_split_outputs_are_kept(self, op):
        x = rand64(Rng(7), (1, 2, 3, 3), requires_grad=True)
        out = op(x)
        assert out._node is not None and out._recompute is None


# Largest f32-vs-f64 differences of one default-config step: 3.19e-6 for
# the logits and 1.96e-6 for a parameter gradient relative to its
# largest entry.  A one-pass variance in layernorm_c reads 4.11e-6 and
# 2.49e-6.
LOGITS_F32_ERR = 3.8e-6
GRAD_F32_REL_ERR = 2.3e-6


def test_f32_step_tracks_f64():
    cfg = ModelConfig(seed=1)
    s32 = init_model_params(cfg, dtype=T.F32)
    s64 = {name: Tensor(p.data, dtype=T.F64, requires_grad=True)
           for name, p in s32.items()}
    logits = {}
    for store, dtype in ((s32, T.F32), (s64, T.F64)):
        image, gt = default_batch(dtype)
        logits[dtype] = model_forward(image, store, cfg).logits
        backward(total_loss(logits[dtype], gt))
    for lo, hi in zip(logits[T.F32], logits[T.F64]):
        assert np.abs(lo.data - hi.data).max() < LOGITS_F32_ERR
    for name, p in s32.items():
        ref = s64[name].grad
        err = np.abs(p.grad - ref).max() / np.abs(ref).max()
        assert err < GRAD_F32_REL_ERR, name


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


class TestFiniteDiff:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]))
        fd = finite_diff_grad(lambda v: (v * v).sum(), x)
        npt.assert_allclose(fd.data, [2.0, 4.0], atol=1e-6)

    def test_sigmoid_slope_at_zero(self):
        x = Tensor(np.zeros(3))
        fd = finite_diff_grad(lambda v: T.sigmoid(v).sum(), x)
        npt.assert_allclose(fd.data, [0.25] * 3, atol=1e-6)

    def test_requires_f64(self):
        with pytest.raises(ContractError, match="float64"):
            finite_diff_grad(lambda v: v.sum(), Tensor([1.0], dtype=T.F32))

    def test_two_layer_conv_net_agreement(self):
        rng = Rng(23)
        x = rand64(rng, (1, 2, 8, 8), requires_grad=True)
        w1 = rand64(rng, (4, 2, 3, 3), requires_grad=True)
        b1 = rand64(rng, (4,), requires_grad=True)
        w2 = rand64(rng, (1, 4, 3, 3), requires_grad=True)
        b2 = rand64(rng, (1,), requires_grad=True)

        def net(inp):
            hidden = T.gelu(T.conv2d(inp, w1, b1, stride=2, pad=1))
            return T.sigmoid(T.conv2d(hidden, w2, b2, pad=1)).sum()

        loss = net(x)
        backward(loss)
        fd = finite_diff_grad(net, x)
        denom = np.maximum(1.0, np.maximum(np.abs(fd.data), np.abs(x.grad)))
        assert np.max(np.abs(x.grad - fd.data) / denom) < 1e-3


# ---------------------------------------------------------------------------
# determinism and invariants
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_bit_identical_sequences(self):
        a = Rng(99)
        b = Rng(99)
        npt.assert_array_equal(a.normal((100,), dtype=T.F64),
                               b.normal((100,), dtype=T.F64))
        npt.assert_array_equal(a.permutation(50), b.permutation(50))

    def test_same_seed_same_forward_bits(self):
        def run():
            rng = Rng(1234)
            x = Tensor(rng.normal((1, 3, 8, 8), dtype=T.F64))
            w = Tensor(rng.normal((4, 3, 3, 3), dtype=T.F64))
            b = Tensor(rng.normal((4,), dtype=T.F64))
            out = T.gelu(T.conv2d(x, w, b, pad=1))
            return out.data.tobytes()

        assert run() == run()

    def test_derive_seed_spreads_indices(self):
        seeds = {T.derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert T.derive_seed(42, 7) == T.derive_seed(42, 7)
        assert T.derive_seed(42, 7) != T.derive_seed(43, 7)


class TestDebugChecks:
    @pytest.mark.parametrize("case", ["recording", "no_grad",
                                      "inputs_without_grad"])
    def test_nan_flagged_when_enabled(self, monkeypatch, case):
        # recorded or not, an op checks its output
        monkeypatch.setattr(T, "_debug_finite", True)
        bad = Tensor([np.inf, 1.0], requires_grad=case != "inputs_without_grad")
        scope = T.no_grad() if case == "no_grad" else contextlib.nullcontext()
        with scope, pytest.raises(
                DivergenceError,
                match="non-finite values produced by a forward op"):
            bad * 2.0

    @pytest.mark.parametrize("debug", [False, True])
    def test_nan_gradient_flagged_only_when_enabled(self, monkeypatch, debug):
        monkeypatch.setattr(T, "_debug_finite", debug)
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = T.gelu(x)
        h._node.backward_fn = lambda g: (np.full_like(g, np.nan),)
        loss = (h * 2.0).sum()
        if debug:
            with pytest.raises(DivergenceError, match="non-finite gradient"):
                backward(loss)
            assert x.grad is None
        else:
            backward(loss)
            assert np.isnan(x.grad).all()


# ---------------------------------------------------------------------------
# tensor blob format
# ---------------------------------------------------------------------------


class TestTensorBlob:
    @pytest.mark.parametrize("dtype", [T.F32, T.F64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        rng = Rng(55)
        t = Tensor(rng.normal((2, 3, 4, 5), dtype=dtype))
        path = tmp_path / "t.sa2t"
        T.save_tensor(path, t)
        back = T.load_tensor(path)
        assert back.dtype == dtype
        assert back.data.tobytes() == t.data.tobytes()

    def test_header_layout(self):
        buf = io.BytesIO()
        T.write_tensor(buf, Tensor(np.zeros((2, 3), dtype=np.float32)))
        raw = buf.getvalue()
        assert raw[:4] == b"SA2T"
        assert raw[4] == 1          # version
        assert raw[5] == 0          # f32
        assert raw[6] == 2          # ndim
        assert raw[7:11] == (2).to_bytes(4, "little")
        assert raw[11:15] == (3).to_bytes(4, "little")
        assert len(raw) == 15 + 2 * 3 * 4

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.sa2t"
        T.save_tensor(path, Tensor(np.ones((4, 4))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(IntegrityError, match="byte"):
            T.load_tensor(path)

    @pytest.mark.parametrize("shape", [(1, 60000, 60000), (3, 2**32 - 1),
                                       (2**32 - 1,) * 3])
    def test_payload_larger_than_file_rejected(self, tmp_path, shape):
        header = b"SA2T" + struct.pack("<BBB", 1, 0, len(shape)) \
            + struct.pack(f"<{len(shape)}I", *shape)
        path = tmp_path / "huge.sa2t"
        path.write_bytes(header + bytes(16))
        with pytest.raises(IntegrityError, match=f"byte {len(header)}"):
            T.load_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.sa2t"
        T.save_tensor(path, Tensor(np.ones(3)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="magic"):
            T.load_tensor(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "t.sa2t"
        T.save_tensor(path, Tensor(np.ones(3)))
        with open(path, "ab") as fp:
            fp.write(b"\x00")
        with pytest.raises(IntegrityError, match="trailing"):
            T.load_tensor(path)
