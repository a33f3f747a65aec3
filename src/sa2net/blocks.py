"""Attention building blocks of the segmentation network.

Four pieces, all pure functions over a :class:`ParamStore`:

* local scale attention: channel groups with different depthwise kernel
  sizes, gated by a parallel sigmoid path, fused by a 1x1 convolution;
* global scale attention: all four locally-attended stages are resized
  to the finest resolution and concatenated; from that map one 1x1 conv
  produces a single-channel weight per stage and another (through GeLU)
  a shared global feature map, which together modulate every stage;
* the residual MLP block with a depthwise positional term;
* adaptive up-attention: the decoder step that upsamples deeper decoded
  features and sigmoid-gates the current stage before fusing.

Stage 1 is the highest resolution; decoding proceeds from stage 4 up
to stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .tensor import Rng, Tensor

STAGES = 4


@dataclass(frozen=True)
class LsaConfig:
    """Channel grouping and kernel ladder for local scale attention."""

    channels: int = 64
    groups: int = 4
    kernel_sizes: tuple[int, ...] = (1, 3, 5, 7)

    def __post_init__(self):
        if self.channels < 1 or self.groups < 1:
            raise ConfigError("channels and groups must be positive")
        if self.channels % self.groups != 0:
            raise ConfigError(
                f"channels ({self.channels}) not divisible by groups ({self.groups})")
        if len(self.kernel_sizes) != self.groups:
            raise ConfigError(
                f"need one kernel size per group: {len(self.kernel_sizes)} != {self.groups}")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise ConfigError(f"kernel sizes must be odd, got {self.kernel_sizes}")

    @property
    def group_width(self) -> int:
        return self.channels // self.groups


class ParamStore:
    """Ordered map from hierarchical names to trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> Iterator[str]:
        return iter(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def total_parameters(self) -> int:
        return sum(t.size for t in self._params.values())

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the parameters (f32 for an empty store)."""
        for t in self._params.values():
            return t.dtype
        return T.F32

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# initializers (He-normal conv weights, zero biases, unit LN gains)
# ---------------------------------------------------------------------------


def _he_conv(store: ParamStore, name: str, cout: int, cin: int, k: int,
             rng: Rng, dtype) -> None:
    std = float(np.sqrt(2.0 / (cin * k * k)))
    store.add(f"{name}.weight", Tensor(rng.normal((cout, cin, k, k), std, dtype)))
    store.add(f"{name}.bias", Tensor(np.zeros(cout, dtype=dtype)))


def _he_dwconv(store: ParamStore, name: str, channels: int, k: int,
               rng: Rng, dtype) -> None:
    std = float(np.sqrt(2.0 / (k * k)))
    store.add(f"{name}.weight",
              Tensor(rng.normal((channels, 1, k, k), std, dtype)))
    store.add(f"{name}.bias", Tensor(np.zeros(channels, dtype=dtype)))


def _layernorm(store: ParamStore, name: str, channels: int, dtype) -> None:
    store.add(f"{name}.gamma", Tensor(np.ones(channels, dtype=dtype)))
    store.add(f"{name}.beta", Tensor(np.zeros(channels, dtype=dtype)))


def init_local_scale_attention(store: ParamStore, prefix: str, cfg: LsaConfig,
                               rng: Rng, dtype=T.F32) -> None:
    for gi, k in enumerate(cfg.kernel_sizes):
        _he_dwconv(store, f"{prefix}.g{gi}.feat", cfg.group_width, k, rng, dtype)
        _he_dwconv(store, f"{prefix}.g{gi}.gate", cfg.group_width, k, rng, dtype)
    _he_conv(store, f"{prefix}.fuse", cfg.channels, cfg.channels, 1, rng, dtype)


def init_global_scale_attention(store: ParamStore, prefix: str, channels: int,
                                rng: Rng, dtype=T.F32) -> None:
    _he_conv(store, f"{prefix}.scale_weights", STAGES, STAGES * channels, 1,
             rng, dtype)
    _he_conv(store, f"{prefix}.global_feat", channels, STAGES * channels, 1,
             rng, dtype)


def init_mlp_block(store: ParamStore, prefix: str, channels: int, rng: Rng,
                   dtype=T.F32) -> None:
    _layernorm(store, f"{prefix}.norm", channels, dtype)
    _he_dwconv(store, f"{prefix}.dw", channels, 3, rng, dtype)
    _he_conv(store, f"{prefix}.conv1", channels, channels, 1, rng, dtype)
    _he_conv(store, f"{prefix}.conv2", channels, channels, 1, rng, dtype)


def init_scale_aware_attention(store: ParamStore, prefix: str, cfg: LsaConfig,
                               rng: Rng, dtype=T.F32) -> None:
    for s in range(1, STAGES + 1):
        init_local_scale_attention(store, f"{prefix}.lsa{s}", cfg, rng, dtype)
    init_global_scale_attention(store, f"{prefix}.gsa", cfg.channels, rng, dtype)
    for s in range(1, STAGES + 1):
        init_mlp_block(store, f"{prefix}.mlp{s}", cfg.channels, rng, dtype)
        _he_conv(store, f"{prefix}.out{s}", cfg.channels, cfg.channels, 1,
                 rng, dtype)


def init_adaptive_up_attention(store: ParamStore, prefix: str, channels: int,
                               deepest: bool, rng: Rng, dtype=T.F32) -> None:
    if deepest:
        _he_conv(store, f"{prefix}.fuse", channels, channels, 3, rng, dtype)
    else:
        _he_conv(store, f"{prefix}.gate", channels, channels, 1, rng, dtype)
        _he_conv(store, f"{prefix}.fuse", channels, 2 * channels, 3, rng, dtype)
    _layernorm(store, f"{prefix}.norm", channels, dtype)


# ---------------------------------------------------------------------------
# closed-form parameter counts (documented in the README, verified by
# enumerating the store in tests)
# ---------------------------------------------------------------------------


def local_scale_attention_param_count(cfg: LsaConfig) -> int:
    gw = cfg.group_width
    dw = sum(2 * (gw * k * k + gw) for k in cfg.kernel_sizes)
    fuse = cfg.channels * cfg.channels + cfg.channels
    return dw + fuse


def scale_aware_attention_param_count(cfg: LsaConfig) -> int:
    c = cfg.channels
    lsa = STAGES * local_scale_attention_param_count(cfg)
    gsa = (STAGES * c * STAGES + STAGES) + (STAGES * c * c + c)
    mlp = STAGES * (2 * c + (9 * c + c) + 2 * (c * c + c))
    out = STAGES * (c * c + c)
    return lsa + gsa + mlp + out


# ---------------------------------------------------------------------------
# forwards
# ---------------------------------------------------------------------------


def _conv1x1(x: Tensor, store: ParamStore, name: str) -> Tensor:
    return T.conv2d(x, store[f"{name}.weight"], store[f"{name}.bias"])


def local_scale_attention(x: Tensor, store: ParamStore, prefix: str,
                          cfg: LsaConfig) -> Tensor:
    """Gated multi-kernel depthwise attention within one stage."""
    if x.shape[1] != cfg.channels:
        raise DimensionError(
            f"channel axis mismatch: expected {cfg.channels}, got {x.shape[1]}")
    groups = T.split_c(x, [cfg.group_width] * cfg.groups)
    attended = []
    for gi, (part, k) in enumerate(zip(groups, cfg.kernel_sizes)):
        pad = (k - 1) // 2
        feat = T.dwconv2d(part, store[f"{prefix}.g{gi}.feat.weight"],
                          store[f"{prefix}.g{gi}.feat.bias"], pad)
        gate = T.sigmoid(T.dwconv2d(part, store[f"{prefix}.g{gi}.gate.weight"],
                                    store[f"{prefix}.g{gi}.gate.bias"], pad))
        attended.append(feat * gate)
    return _conv1x1(T.concat_c(attended), store, f"{prefix}.fuse")


def global_scale_attention(feats: Sequence[Tensor], store: ParamStore,
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
    stage_weights = T.split_c(
        _conv1x1(combined, store, f"{prefix}.scale_weights"), [1] * STAGES)
    global_feat = T.gelu(_conv1x1(combined, store, f"{prefix}.global_feat"))

    out = []
    for i, f in enumerate(feats):
        h, w = f.shape[2], f.shape[3]
        weight_i = T.bilinear_resize(stage_weights[i], h, w)
        global_i = T.bilinear_resize(global_feat, h, w)
        out.append(weight_i * (f * global_i))
    return out


def mlp_block(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Residual refinement with a depthwise positional term.

    One layer-norm evaluation feeds both the depthwise branch and the
    residual into the first 1x1 conv; the outer residual adds the
    block input back.
    """
    normed = T.layernorm_c(x, store[f"{prefix}.norm.gamma"],
                           store[f"{prefix}.norm.beta"])
    pos = T.dwconv2d(normed, store[f"{prefix}.dw.weight"],
                     store[f"{prefix}.dw.bias"], pad=1)
    hidden = _conv1x1(pos + normed, store, f"{prefix}.conv1")
    return _conv1x1(T.gelu(hidden), store, f"{prefix}.conv2") + x


def scale_aware_attention(feats: Sequence[Tensor], store: ParamStore,
                          prefix: str, cfg: LsaConfig) -> list[Tensor]:
    """Full per-stage pipeline: local attention, cross-scale modulation,
    residual MLP refinement, and a per-stage output projection."""
    attended = [local_scale_attention(f, store, f"{prefix}.lsa{i + 1}", cfg)
                for i, f in enumerate(feats)]
    modulated = global_scale_attention(attended, store, f"{prefix}.gsa")
    out = []
    for i, (f, m) in enumerate(zip(feats, modulated)):
        refined = mlp_block(f + m, store, f"{prefix}.mlp{i + 1}")
        out.append(_conv1x1(refined, store, f"{prefix}.out{i + 1}"))
    return out


def adaptive_up_attention(current: Tensor, deeper: Optional[Tensor],
                          store: ParamStore, prefix: str) -> Tensor:
    """Decoder step: upsample deeper decoded features, gate the current
    stage with them, fuse, and refine (conv3x3, layer norm, GeLU)."""
    if deeper is None:
        fused_in = current
    else:
        n, c, h, w = current.shape
        dh, dw = deeper.shape[2], deeper.shape[3]
        if (dh * 2, dw * 2) != (h, w):
            raise DimensionError(
                f"resolution ratio must be 2: current {h}x{w} vs deeper {dh}x{dw}")
        up = T.bilinear_resize(deeper, h, w)
        gate = T.sigmoid(_conv1x1(up, store, f"{prefix}.gate"))
        fused_in = T.concat_c([gate * current, up])
    y = T.conv2d(fused_in, store[f"{prefix}.fuse.weight"],
                 store[f"{prefix}.fuse.bias"], stride=1, pad=1)
    y = T.layernorm_c(y, store[f"{prefix}.norm.gamma"],
                      store[f"{prefix}.norm.beta"])
    return T.gelu(y)
