"""Full network assembly and checkpoint persistence.

The encoder is a plain strided CNN (no pretrained backbone): each of the
four stages halves the resolution with a stride-2 3x3 conv, refines with
a stride-1 3x3 conv (layer norm + GeLU after both), and projects to the
shared channel width with a 1x1 conv.  The decoder applies scale-aware
attention to the four stages, walks back up through adaptive
up-attention, and emits one single-logit head per stage, all resized to
the input resolution.  Head 1 (finest stage) is the inference output.

Checkpoints serialize the parameters plus the canonical config
text; a SHA-256 fingerprint of that text lets ``evaluate`` refuse an
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
from .optim import AdamState
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
        # lsa.groups repeats the kernel count so older checkpoints still match
        lines = [
            f"channels = {self.channels}",
            f"in_channels = {self.in_channels}",
            f"input_h = {self.input_size[0]}",
            f"input_w = {self.input_size[1]}",
            f"lsa.groups = {len(self.lsa_kernel_sizes)}",
            f"lsa.kernel_sizes = {kernels}",
            f"sa2_enabled = {'true' if self.sa2_enabled else 'false'}",
            f"seed = {self.seed}",
            f"stages = {STAGES}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_canonical(text: str) -> "ModelConfig":
        fields: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        fields.setdefault("sa2_enabled", "true")

        def take(key: str, parse=int):
            if key not in fields:
                raise ConfigError(f"config text lacks key {key!r}")
            try:
                return parse(fields[key])
            except ValueError:
                raise ConfigError(
                    f"bad value for {key} in config text: {fields[key]!r}") \
                    from None

        kernels = take("lsa.kernel_sizes",
                       lambda raw: tuple(int(k) for k in raw.split(",")))
        if take("stages") != STAGES:
            raise ConfigError(
                f"stage count is fixed at {STAGES}, got {fields['stages']}")
        if take("lsa.groups") != len(kernels):
            raise ConfigError(f"lsa.groups = {fields['lsa.groups']} but "
                              f"lsa.kernel_sizes lists {len(kernels)} kernels")
        return ModelConfig(
            in_channels=take("in_channels"),
            channels=take("channels"),
            input_size=(take("input_h"), take("input_w")),
            lsa_kernel_sizes=kernels,
            seed=take("seed"),
            sa2_enabled=take("sa2_enabled", _canonical_bool),
        )


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
_CHECKPOINT_VERSION = 1
_ADAM_MAGIC = b"ADAM"


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


def _read_entries(raw: bytes, pos: int, specs: list[ParamSpec], blobs: int,
                  what: str, dtype=None, load: bool = True):
    """Read a section's count and its (name, ``blobs`` tensors) entries at
    byte ``pos``, checked in order against the names and shapes of
    ``specs`` and against one dtype: ``dtype`` if given, else the first
    tensor's.  Loaded tensors must be finite.  Without ``load`` the tensors
    are None: headers are checked, payloads skipped.  Returns the entries
    and the position after them."""
    (count,), pos = T.unpack_at("<I", raw, pos, f"checkpoint {what} count")
    entries = []
    for i in range(count):
        name, pos = _read_name(raw, pos)
        if i >= len(specs):
            raise IntegrityError(
                f"unexpected {what} {name!r}: the config's table has "
                f"{len(specs)} entries, the checkpoint {count}")
        expected, shape, _ = specs[i]
        if name != expected:
            raise IntegrityError(
                f"{what} {i} is {name!r}, expected {expected!r}")
        tensors = []
        for _ in range(blobs):
            t_shape, t_dtype, t, pos = T.parse_tensor(raw, pos, load)
            if dtype is None:
                dtype = t_dtype
            if t_shape != shape:
                raise IntegrityError(
                    f"{what} {name!r} has shape {t_shape}, expected {shape}")
            if t_dtype != dtype:
                raise IntegrityError(
                    f"{what} {name!r} is {t_dtype}, expected {dtype} like "
                    f"the tensors before it")
            if load and not np.isfinite(t.data).all():
                raise IntegrityError(f"{what} {name!r} holds non-finite values")
            tensors.append(t)
        entries.append((name, tensors))
    if count < len(specs):
        raise IntegrityError(
            f"{what} {specs[count][0]!r} missing: the config's table has "
            f"{len(specs)} entries, the checkpoint {count}")
    return entries, pos


def save_checkpoint(path, store: Params, cfg: ModelConfig,
                    adam_state: Optional[AdamState] = None) -> None:
    """Serialize parameters (and optional optimizer state) to one file.

    A non-finite tensor raises ``DivergenceError`` before any file is
    created.  The bytes go to ``<path>.tmp`` first, which then replaces
    ``path``, so a failed write leaves any previous checkpoint whole.
    """
    buf = io.BytesIO()

    def write_entry(what: str, name: str, *arrays: np.ndarray) -> None:
        if not all(np.isfinite(a).all() for a in arrays):
            raise DivergenceError(f"{what} {name!r} holds non-finite values; "
                                  f"no checkpoint written")
        _write_name(buf, name)
        for a in arrays:
            T.write_tensor(buf, Tensor(a))

    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<B", _CHECKPOINT_VERSION))
    config_bytes = cfg.canonical().encode()
    buf.write(struct.pack("<I", len(config_bytes)))
    buf.write(config_bytes)
    buf.write(struct.pack("<I", len(store)))
    for name, tensor in store.items():
        write_entry("parameter", name, tensor.data)
    if adam_state is not None:
        buf.write(_ADAM_MAGIC)
        buf.write(struct.pack("<Q", adam_state.step))
        buf.write(struct.pack("<I", len(adam_state.m)))
        for name, m in adam_state.m.items():
            write_entry("Adam moment", name, m, adam_state.v[name])
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fp:
            fp.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path, with_adam: bool = True):
    """Read back (params, config, adam_state or None) from one read.

    Both sections are checked against ``param_specs`` of the stored
    config; without ``with_adam`` the Adam payloads are skipped, not
    copied, and adam_state is None.
    """
    with open(path, "rb") as fp:
        raw = fp.read()
    config_bytes, pos = _read_header(raw)
    cfg = ModelConfig.from_canonical(T.decode_text(
        config_bytes, "config text", pos - len(config_bytes)))

    specs = param_specs(cfg)
    params, pos = _read_entries(raw, pos, specs, 1, "parameter")
    store = {name: Tensor(t.data, requires_grad=True) for name, (t,) in params}

    adam_state = None
    if raw[pos:pos + 4] == _ADAM_MAGIC:
        (step,), pos = T.unpack_at("<Q", raw, pos + 4, "checkpoint Adam step")
        moments, pos = _read_entries(raw, pos, specs, 2, "Adam moment",
                                     next(iter(store.values())).dtype,
                                     load=with_adam)
        if with_adam:
            adam_state = AdamState(m={n: m.data for n, (m, _) in moments},
                                   v={n: v.data for n, (_, v) in moments},
                                   step=step)
    if pos != len(raw):
        raise IntegrityError(f"trailing bytes in checkpoint at byte {pos}")
    return store, cfg, adam_state


def checkpoint_fingerprint(path) -> str:
    """Fingerprint stored in a checkpoint, without loading the tensors."""
    with open(path, "rb") as fp:
        return hashlib.sha256(_read_header(fp.read())[0]).hexdigest()
