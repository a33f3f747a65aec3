"""Attention building blocks of the segmentation network.

Four pieces, all pure functions of a ``Params`` dict (name -> tensor):

* local scale attention: channel groups with different depthwise kernel
  sizes, gated by a parallel sigmoid path, fused by a 1x1 convolution;
* global scale attention: all four locally-attended stages are resized
  to the finest resolution and concatenated; from that map one 1x1 conv
  produces a single-channel weight per stage and another (through GeLU)
  a shared global feature map, which together modulate every stage;
* the residual MLP block with a depthwise positional term;
* adaptive up-attention: the decoder step that upsamples deeper decoded
  features and sigmoid-gates the current stage before fusing; the gate's
  1x1 conv runs before the upsampling, at the deeper resolution.

Stage 1 is the highest resolution; decoding proceeds from stage 4 up
to stage 1.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Rng, Tensor

STAGES = 4


# Parameters by hierarchical name, in table order.
Params = dict[str, Tensor]


# ---------------------------------------------------------------------------
# parameter tables: (name, shape, init) entries in RNG draw order.  "he"
# draws He-normal with std sqrt(2 / prod(shape[1:])); "zeros" and "ones"
# draw nothing.  A depthwise weight is a conv weight with cin = 1.
# ---------------------------------------------------------------------------

ParamSpec = tuple[str, tuple[int, ...], str]


def conv_specs(name: str, cout: int, cin: int, k: int) -> list[ParamSpec]:
    return [(f"{name}.weight", (cout, cin, k, k), "he"),
            (f"{name}.bias", (cout,), "zeros")]


def norm_specs(name: str, channels: int) -> list[ParamSpec]:
    return [(f"{name}.gamma", (channels,), "ones"),
            (f"{name}.beta", (channels,), "zeros")]


def init_params(specs: Sequence[ParamSpec], rng: Rng, dtype=T.F32) -> Params:
    """Every entry of ``specs`` as a trainable tensor, drawn in table order."""
    store = {}
    for name, shape, init in specs:
        if init == "he":
            std = float(np.sqrt(2.0 / math.prod(shape[1:])))
            data = rng.normal(shape, std, dtype)
        else:
            data = (np.ones if init == "ones" else np.zeros)(shape, dtype=dtype)
        store[name] = Tensor(data, requires_grad=True)
    return store


def lsa_specs(prefix: str, channels: int,
              kernels: Sequence[int]) -> list[ParamSpec]:
    width = channels // len(kernels)
    specs = []
    for gi, k in enumerate(kernels):
        specs += conv_specs(f"{prefix}.g{gi}.feat", width, 1, k)
        specs += conv_specs(f"{prefix}.g{gi}.gate", width, 1, k)
    return specs + conv_specs(f"{prefix}.fuse", channels, channels, 1)


def gsa_specs(prefix: str, channels: int) -> list[ParamSpec]:
    return (conv_specs(f"{prefix}.scale_weights", STAGES, STAGES * channels, 1)
            + conv_specs(f"{prefix}.global_feat", channels, STAGES * channels, 1))


def mlp_specs(prefix: str, channels: int) -> list[ParamSpec]:
    return (norm_specs(f"{prefix}.norm", channels)
            + conv_specs(f"{prefix}.dw", channels, 1, 3)
            + conv_specs(f"{prefix}.conv1", channels, channels, 1)
            + conv_specs(f"{prefix}.conv2", channels, channels, 1))


def sa2_specs(prefix: str, channels: int,
              kernels: Sequence[int]) -> list[ParamSpec]:
    specs = []
    for s in range(1, STAGES + 1):
        specs += lsa_specs(f"{prefix}.lsa{s}", channels, kernels)
    specs += gsa_specs(f"{prefix}.gsa", channels)
    for s in range(1, STAGES + 1):
        specs += mlp_specs(f"{prefix}.mlp{s}", channels)
        specs += conv_specs(f"{prefix}.out{s}", channels, channels, 1)
    return specs


def aua_specs(prefix: str, channels: int, deepest: bool) -> list[ParamSpec]:
    if deepest:
        specs = conv_specs(f"{prefix}.fuse", channels, channels, 3)
    else:
        specs = (conv_specs(f"{prefix}.gate", channels, channels, 1)
                 + conv_specs(f"{prefix}.fuse", channels, 2 * channels, 3))
    return specs + norm_specs(f"{prefix}.norm", channels)


# ---------------------------------------------------------------------------
# forwards
# ---------------------------------------------------------------------------


def _conv1x1(x: Tensor, store: Params, name: str) -> Tensor:
    return T.conv2d(x, store[f"{name}.weight"], store[f"{name}.bias"])


def local_scale_attention(x: Tensor, store: Params, prefix: str,
                          kernels: Sequence[int]) -> Tensor:
    """Gated depthwise attention in one stage: a channel group per kernel."""
    c, count = x.shape[1], len(kernels)
    if c % count != 0:
        raise DimensionError(
            f"channel axis {c} does not split into {count} groups")
    groups = T.split_c(x, [c // count] * count)
    attended = []
    for gi, part in enumerate(groups):
        feat = T.dwconv2d(part, store[f"{prefix}.g{gi}.feat.weight"],
                          store[f"{prefix}.g{gi}.feat.bias"])
        gate = T.sigmoid(T.dwconv2d(part, store[f"{prefix}.g{gi}.gate.weight"],
                                    store[f"{prefix}.g{gi}.gate.bias"]))
        attended.append(feat * gate)
    return _conv1x1(T.concat_c(attended), store, f"{prefix}.fuse")


def global_scale_attention(feats: Sequence[Tensor], store: Params,
                           prefix: str) -> list[Tensor]:
    """Cross-scale modulation from the concatenation of all stages.

    Locally attended features are resized to stage-1 resolution and
    concatenated; one 1x1 conv yields a single-channel weight map per
    stage, another (through GeLU) a shared global feature map.  Each
    stage is then multiplied by the global map and its own weight, both
    resized back to the stage's resolution.
    """
    if len(feats) != STAGES:
        raise DimensionError(f"expected {STAGES} stage tensors, got {len(feats)}")
    h0, w0 = feats[0].shape[2], feats[0].shape[3]
    pooled = [feats[0]]
    for f in feats[1:]:
        pooled.append(T.bilinear_resize(f, h0, w0))
    combined = T.concat_c(pooled)
    # Nothing reads the resized stages or their concatenation again, and
    # the tape holds no forward tensor, so each goes after its last use.
    del pooled
    stage_weights = T.split_c(
        _conv1x1(combined, store, f"{prefix}.scale_weights"), [1] * STAGES)
    global_feat = T.gelu(_conv1x1(combined, store, f"{prefix}.global_feat"))
    del combined

    out = []
    for i, f in enumerate(feats):
        h, w = f.shape[2], f.shape[3]
        weight_i = T.bilinear_resize(stage_weights[i], h, w)
        global_i = T.bilinear_resize(global_feat, h, w)
        out.append(weight_i * (f * global_i))
    return out


def mlp_block(x: Tensor, store: Params, prefix: str) -> Tensor:
    """Residual refinement with a depthwise positional term.

    One layer-norm evaluation feeds both the depthwise branch and the
    residual into the first 1x1 conv; the outer residual adds the
    block input back.
    """
    normed = T.layernorm_c(x, store[f"{prefix}.norm.gamma"],
                           store[f"{prefix}.norm.beta"])
    pos = T.dwconv2d(normed, store[f"{prefix}.dw.weight"],
                     store[f"{prefix}.dw.bias"])
    hidden = _conv1x1(pos + normed, store, f"{prefix}.conv1")
    return _conv1x1(T.gelu(hidden), store, f"{prefix}.conv2") + x


def scale_aware_attention(feats: Sequence[Tensor], store: Params,
                          prefix: str, kernels: Sequence[int]) -> list[Tensor]:
    """Full per-stage pipeline: local attention, cross-scale modulation,
    residual MLP refinement, and a per-stage output projection."""
    attended = [local_scale_attention(f, store, f"{prefix}.lsa{i + 1}", kernels)
                for i, f in enumerate(feats)]
    modulated = global_scale_attention(attended, store, f"{prefix}.gsa")
    del attended
    out = []
    for i, (f, m) in enumerate(zip(feats, modulated)):
        refined = mlp_block(f + m, store, f"{prefix}.mlp{i + 1}")
        out.append(_conv1x1(refined, store, f"{prefix}.out{i + 1}"))
    return out


def adaptive_up_attention(current: Tensor, deeper: Optional[Tensor],
                          store: Params, prefix: str) -> Tensor:
    """Decoder step: gate the current stage with a sigmoid of the deeper
    decoded features' 1x1 conv, upsampled; concat it with the upsampled
    deeper features, fuse, and refine (conv3x3, layer norm with GeLU)."""
    if deeper is None:
        fused_in = current
    else:
        n, c, h, w = current.shape
        dh, dw = deeper.shape[2], deeper.shape[3]
        if (dh * 2, dw * 2) != (h, w):
            raise DimensionError(
                f"resolution ratio must be 2: current {h}x{w} vs deeper {dh}x{dw}")
        # A 1x1 conv and a bilinear resize commute (interpolation rows sum
        # to 1), so the gate conv runs at the deeper resolution.
        gate = T.sigmoid(T.bilinear_resize(
            _conv1x1(deeper, store, f"{prefix}.gate"), h, w))
        fused_in = T.concat_c([gate * current,
                               T.bilinear_resize(deeper, h, w)])
    y = T.conv2d(fused_in, store[f"{prefix}.fuse.weight"],
                 store[f"{prefix}.fuse.bias"], stride=1, pad=1)
    return T.gelu(T.layernorm_c(y, store[f"{prefix}.norm.gamma"],
                                store[f"{prefix}.norm.beta"]))
