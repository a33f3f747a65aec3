"""Full network assembly and checkpoint persistence.

The encoder is a plain strided CNN (no pretrained backbone): each of the
four stages halves the resolution with a stride-2 3x3 conv, refines with
a stride-1 3x3 conv (layer norm + GeLU after both), and projects to the
shared channel width with a 1x1 conv.  The decoder applies scale-aware
attention to the four stages, walks back up through adaptive
up-attention, and emits one single-logit head per stage, all resized to
the input resolution.  Head 1 (finest stage) is the inference output.

Checkpoints (format version 2) serialize the canonical config text and
the parameters, not the optimizer state; files of any other version are
refused.  A SHA-256 fingerprint of that text lets ``evaluate`` refuse an
ensemble of structurally different models.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .blocks import (
    STAGES,
    Params,
    ParamSpec,
    adaptive_up_attention,
    aua_specs,
    conv_specs,
    init_params,
    norm_specs,
    sa2_specs,
    scale_aware_attention,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DivergenceError,
    IntegrityError,
)
from .tensor import Rng, Tensor


def _canonical_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; stage count is fixed at four."""

    in_channels: int = 1
    channels: int = 64
    input_size: tuple[int, int] = (64, 64)
    lsa_kernel_sizes: tuple[int, ...] = (1, 3, 5, 7)  # one channel group each
    seed: int = 0
    sa2_enabled: bool = True

    def __post_init__(self):
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        h, w = self.input_size
        if h < 32 or w < 32:
            raise ConfigError(f"input size must be at least 32x32, got {h}x{w}")
        if h % 16 != 0 or w % 16 != 0:
            raise ConfigError(f"input size must be divisible by 16, got {h}x{w}")
        kernels = self.lsa_kernel_sizes
        if not kernels or any(k < 1 or k % 2 == 0 for k in kernels):
            raise ConfigError(f"lsa.kernel_sizes must be non-empty, odd and "
                              f"positive, got {kernels}")
        if self.channels < 1 or self.channels % len(kernels) != 0:
            raise ConfigError(f"channels ({self.channels}) must be positive and "
                              f"divisible by the {len(kernels)} lsa.kernel_sizes")

    def canonical(self) -> str:
        """Deterministic text form; the checkpoint fingerprint hashes this."""
        kernels = ",".join(str(k) for k in self.lsa_kernel_sizes)
        lines = [
            f"channels = {self.channels}",
            f"in_channels = {self.in_channels}",
            f"input_h = {self.input_size[0]}",
            f"input_w = {self.input_size[1]}",
            f"lsa.kernel_sizes = {kernels}",
            f"sa2_enabled = {'true' if self.sa2_enabled else 'false'}",
            f"seed = {self.seed}",
            f"stages = {STAGES}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_canonical(text: str) -> "ModelConfig":
        """The config whose ``canonical()`` is ``text``, up to spacing."""
        fields = T.parse_key_values(text, "config text")

        def take(key: str, parse=int):
            if key not in fields:
                raise ConfigError(f"config text lacks key {key!r}")
            raw = fields.pop(key)
            try:
                return parse(raw)
            except ValueError:
                raise ConfigError(
                    f"bad value for {key} in config text: {raw!r}") from None

        stages = take("stages")
        if stages != STAGES:
            raise ConfigError(
                f"stage count is fixed at {STAGES}, got {stages}")
        cfg = ModelConfig(
            in_channels=take("in_channels"),
            channels=take("channels"),
            input_size=(take("input_h"), take("input_w")),
            lsa_kernel_sizes=take("lsa.kernel_sizes", lambda raw: tuple(
                int(k) for k in raw.split(","))),
            seed=take("seed"),
            sa2_enabled=take("sa2_enabled", _canonical_bool),
        )
        if fields:
            raise ConfigError(f"unknown keys in config text: "
                              f"{', '.join(sorted(fields))}")
        return cfg


@dataclass
class ModelOutput:
    """Per-stage logits, finest first, all at the input resolution."""

    logits: list[Tensor]

    def probability_map(self) -> Tensor:
        """Foreground probabilities from the inference head (stage 1)."""
        return T.sigmoid(self.logits[0])


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def param_specs(cfg: ModelConfig) -> list[ParamSpec]:
    """Every parameter as (name, shape, init), in RNG draw order: the one
    table that initialization, checkpoint loading and counts read."""
    c = cfg.channels
    specs = []
    for s in range(1, STAGES + 1):
        cin = cfg.in_channels if s == 1 else c
        specs += conv_specs(f"enc{s}.down", c, cin, 3)
        specs += norm_specs(f"enc{s}.norm1", c)
        specs += conv_specs(f"enc{s}.conv", c, c, 3)
        specs += norm_specs(f"enc{s}.norm2", c)
        specs += conv_specs(f"enc{s}.proj", c, c, 1)
    if cfg.sa2_enabled:
        specs += sa2_specs("sa2", c, cfg.lsa_kernel_sizes)
    for s in range(STAGES, 0, -1):
        specs += aua_specs(f"aua{s}", c, deepest=(s == STAGES))
    for s in range(1, STAGES + 1):
        specs += conv_specs(f"head{s}", 1, c, 1)
    return specs


def init_model_params(cfg: ModelConfig, dtype=T.F32) -> Params:
    """Deterministic He-normal initialization of every parameter."""
    return init_params(param_specs(cfg), Rng(cfg.seed), dtype)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def encoder_forward(image: Tensor, store: Params,
                    cfg: ModelConfig) -> list[Tensor]:
    """Produce the four projected stage features, finest first."""
    h, w = cfg.input_size
    if image.ndim != 4 or image.shape[1] != cfg.in_channels \
            or image.shape[2] != h or image.shape[3] != w:
        raise DimensionError(
            f"image shape {image.shape} does not match configured "
            f"(N, {cfg.in_channels}, {h}, {w})")
    stages = []
    t = image
    for s in range(1, STAGES + 1):
        t = T.conv2d(t, store[f"enc{s}.down.weight"],
                     store[f"enc{s}.down.bias"], stride=2, pad=1)
        t = T.gelu(T.layernorm_c(t, store[f"enc{s}.norm1.gamma"],
                                 store[f"enc{s}.norm1.beta"]))
        t = T.conv2d(t, store[f"enc{s}.conv.weight"],
                     store[f"enc{s}.conv.bias"], stride=1, pad=1)
        t = T.gelu(T.layernorm_c(t, store[f"enc{s}.norm2.gamma"],
                                 store[f"enc{s}.norm2.beta"]))
        stages.append(T.conv2d(t, store[f"enc{s}.proj.weight"],
                               store[f"enc{s}.proj.bias"]))
    return stages


def model_forward(image: Tensor, store: Params,
                  cfg: ModelConfig) -> ModelOutput:
    """Run the full network; pure in (params, image)."""
    feats = encoder_forward(image, store, cfg)
    if cfg.sa2_enabled:
        outs = scale_aware_attention(feats, store, "sa2", cfg.lsa_kernel_sizes)
    else:
        outs = list(feats)
    del feats  # the decoder reads ``outs`` only

    decoded: list[Optional[Tensor]] = [None] * STAGES
    decoded[STAGES - 1] = adaptive_up_attention(
        outs[STAGES - 1], None, store, f"aua{STAGES}")
    for s in range(STAGES - 1, 0, -1):
        decoded[s - 1] = adaptive_up_attention(
            outs[s - 1], decoded[s], store, f"aua{s}")

    h, w = cfg.input_size
    logits = []
    for s in range(1, STAGES + 1):
        head = T.conv2d(decoded[s - 1], store[f"head{s}.weight"],
                        store[f"head{s}.bias"])
        logits.append(T.bilinear_resize(head, h, w))
    return ModelOutput(logits=logits)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SA2C"
_CHECKPOINT_VERSION = 2


def _write_name(fp, name: str) -> None:
    raw = name.encode()
    if len(raw) > 0xFFFF:
        raise ContractError(f"parameter name too long: {name!r}")
    fp.write(struct.pack("<H", len(raw)))
    fp.write(raw)


def _read_name(raw: bytes, pos: int):
    (n,), start = T.unpack_at("<H", raw, pos, "checkpoint name length")
    (name,), pos = T.unpack_at(f"{n}s", raw, start, "checkpoint name")
    return T.decode_text(name, "parameter name", start), pos


def _read_header(raw: bytes):
    """Check a checkpoint's magic and version; return (config bytes, end)."""
    (magic,), pos = T.unpack_at("4s", raw, 0, "checkpoint magic")
    if magic != CHECKPOINT_MAGIC:
        raise IntegrityError(f"bad checkpoint magic {magic!r} at byte 0")
    (version,), pos = T.unpack_at("<B", raw, pos, "checkpoint version")
    if version != _CHECKPOINT_VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    (cfg_len,), pos = T.unpack_at("<I", raw, pos, "checkpoint config length")
    (config,), pos = T.unpack_at(f"{cfg_len}s", raw, pos, "checkpoint config")
    return config, pos


def save_checkpoint(path, store: Params, cfg: ModelConfig) -> None:
    """Serialize the config text and the parameters to one file.

    A non-finite parameter raises ``DivergenceError`` before any file is
    created.  The bytes go to ``<path>.tmp`` first, which then replaces
    ``path``, so a failed write leaves any previous checkpoint whole.
    """
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<B", _CHECKPOINT_VERSION))
    config_bytes = cfg.canonical().encode()
    buf.write(struct.pack("<I", len(config_bytes)))
    buf.write(config_bytes)
    buf.write(struct.pack("<I", len(store)))
    for name, tensor in store.items():
        if not np.isfinite(tensor.data).all():
            raise DivergenceError(f"parameter {name!r} holds non-finite "
                                  f"values; no checkpoint written")
        _write_name(buf, name)
        T.write_tensor(buf, tensor)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fp:
            fp.write(buf.getbuffer())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read back (params, config, None) from one read.  The parameter
    section must hold the names and shapes of ``param_specs`` of the
    stored config, in order, in the float dtype of its first tensor,
    with finite values and nothing after it."""
    with open(path, "rb") as fp:
        raw = fp.read()
    config_bytes, pos = _read_header(raw)
    cfg = ModelConfig.from_canonical(T.decode_text(
        config_bytes, "config text", pos - len(config_bytes)))

    specs = param_specs(cfg)
    (count,), pos = T.unpack_at("<I", raw, pos, "checkpoint parameter count")
    store: Params = {}
    dtype = None
    for i in range(count):
        name, pos = _read_name(raw, pos)
        if i >= len(specs):
            raise IntegrityError(
                f"unexpected parameter {name!r}: the config's table has "
                f"{len(specs)} entries, the checkpoint {count}")
        expected, shape, _ = specs[i]
        if name != expected:
            raise IntegrityError(
                f"parameter {i} is {name!r}, expected {expected!r}")
        t_dtype, payload, pos = T.parse_blob(raw, pos)
        if dtype is None:
            dtype = t_dtype
        if payload.shape != shape:
            raise IntegrityError(f"parameter {name!r} has shape "
                                 f"{payload.shape}, expected {shape}")
        if t_dtype != dtype:
            raise IntegrityError(
                f"parameter {name!r} is {t_dtype}, expected {dtype} like "
                f"the tensors before it")
        if not np.isfinite(payload).all():
            raise IntegrityError(f"parameter {name!r} holds non-finite values")
        store[name] = Tensor(payload.astype(dtype), requires_grad=True)
    if count < len(specs):
        raise IntegrityError(
            f"parameter {specs[count][0]!r} missing: the config's table has "
            f"{len(specs)} entries, the checkpoint {count}")
    if pos != len(raw):
        raise IntegrityError(f"trailing bytes in checkpoint at byte {pos}")
    return store, cfg, None


def checkpoint_fingerprint(path) -> str:
    """Fingerprint stored in a checkpoint, read from its header alone."""
    with open(path, "rb") as fp:
        head = fp.read(9)  # magic, version and config length
        cfg_len = int.from_bytes(head[5:9], "little")
        # A corrupt length must not size the read beyond the file;
        # _read_header checks the magic, version and lengths.
        size = os.fstat(fp.fileno()).st_size
        config, _ = _read_header(head + fp.read(min(cfg_len, size)))
    return hashlib.sha256(config).hexdigest()
