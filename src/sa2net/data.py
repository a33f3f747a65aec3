"""Deterministic synthetic microscopy-like data, augmentation, and I/O.

Samples are elliptical "cells" on a darker background: per-cell center,
radius, eccentricity, and rotation are drawn from configured ranges, so
the corpus exhibits the scale/shape/density variation that makes real
microscopy segmentation hard, while keeping an analytic area oracle.
Generation is index-addressable: sample ``i`` of a spec depends only on
``(spec.seed, i)`` through a splitmix-style mix, never on the samples
before it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
import numpy as np

from . import tensor as T
from .errors import ConfigError, ParseError, ValidationError
from .tensor import Rng, Tensor, derive_seed

MANIFEST_NAME = "manifest.txt"


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; every field bounds one source of variation."""

    height: int = 64
    width: int = 64
    cell_count_range: tuple[int, int] = (3, 8)
    radius_range: tuple[float, float] = (4.0, 10.0)
    eccentricity_range: tuple[float, float] = (0.5, 1.0)
    intensity_fg: tuple[float, float] = (0.6, 0.9)
    intensity_bg: tuple[float, float] = (0.05, 0.3)
    noise_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("height", "width"):
            size = getattr(self, name)
            if size < 1 or size % 16 != 0:
                raise ConfigError(
                    f"{name} must be a positive multiple of 16, got {size}")
        for name in ("cell_count_range", "radius_range", "eccentricity_range",
                     "intensity_fg", "intensity_bg"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{name} must be finite, got ({lo}, {hi})")
            if hi < lo:
                raise ConfigError(f"{name} is empty: ({lo}, {hi})")
        if self.cell_count_range[0] < 0:
            raise ConfigError("cell counts must be non-negative")
        if self.radius_range[0] < 2.0:
            raise ConfigError("radii below 2 px do not rasterize reliably")
        if self.eccentricity_range[0] <= 0:
            raise ConfigError(
                f"eccentricity_range must be positive, got {self.eccentricity_range}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(
                f"noise_std must be finite and non-negative, got {self.noise_std}")


@dataclass
class Sample:
    """One image/mask pair; the mask is strictly binary."""

    image: Tensor   # (C, H, W) in [0, 1]
    mask: Tensor    # (1, H, W) in {0, 1}
    id: int


def rasterize_ellipse(height: int, width: int, cx: float, cy: float,
                      a: float, b: float, theta: float) -> np.ndarray:
    """Boolean interior test of a rotated ellipse at integer pixel centers."""
    yy, xx = np.mgrid[0:height, 0:width]
    dx = xx - cx
    dy = yy - cy
    u = dx * math.cos(theta) + dy * math.sin(theta)
    v = -dx * math.sin(theta) + dy * math.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def gen_sample(spec: SynthSpec, index: int, dtype=T.F32) -> Sample:
    """Generate sample ``index``; pure function of (spec, index)."""
    rng = Rng(derive_seed(spec.seed, index))
    count = int(rng.integers(*spec.cell_count_range))

    cells = []
    for _ in range(count):
        cx = rng.uniform(0.0, spec.width - 1.0)
        cy = rng.uniform(0.0, spec.height - 1.0)
        radius = rng.uniform(*spec.radius_range)
        ecc = rng.uniform(*spec.eccentricity_range)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        fg = rng.uniform(*spec.intensity_fg)
        cells.append((cx, cy, radius, radius * ecc, theta, fg))

    mask = np.zeros((spec.height, spec.width), dtype=bool)
    background = rng.uniform(*spec.intensity_bg)
    image = np.full((spec.height, spec.width), background)
    for cx, cy, a, b, theta, fg in cells:
        interior = rasterize_ellipse(spec.height, spec.width, cx, cy, a, b, theta)
        mask |= interior
        image[interior] = fg
    if spec.noise_std > 0:
        image = image + rng.normal(image.shape, spec.noise_std, T.F64)
    image = np.clip(image, 0.0, 1.0)

    return Sample(image=Tensor(image[None], dtype=dtype),
                  mask=Tensor(mask[None].astype(np.float64), dtype=dtype),
                  id=index)


def augment(sample: Sample, rng: Rng) -> Sample:
    """Independent 50% flips plus a uniform right-angle rotation.

    Right angles only, so masks stay binary without any interpolation
    policy; image and mask receive the identical transform.
    """
    c, h, w = sample.image.shape
    if h != w:
        raise ConfigError(f"rotation augmentation needs square images, got {h}x{w}")
    hflip = bool(rng.random() < 0.5)
    vflip = bool(rng.random() < 0.5)
    quarters = int(rng.integers(0, 3))

    def apply(arr: np.ndarray) -> np.ndarray:
        out = arr
        if hflip:
            out = out[:, :, ::-1]
        if vflip:
            out = out[:, ::-1, :]
        if quarters:
            out = np.rot90(out, quarters, axes=(1, 2))
        return np.ascontiguousarray(out)

    return Sample(image=Tensor(apply(sample.image.data), dtype=sample.image.dtype),
                  mask=Tensor(apply(sample.mask.data), dtype=sample.mask.dtype),
                  id=sample.id)


# ---------------------------------------------------------------------------
# PGM (P5) masks and grayscale images
# ---------------------------------------------------------------------------


def write_pgm(values, path) -> None:
    """Write a [0,1] grayscale map as binary 8-bit PGM (round half up)."""
    arr = np.asarray(getattr(values, "data", values))
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise ValidationError(f"PGM wants one channel, got {arr.shape[0]}")
        arr = arr[0]
    if arr.ndim != 2:
        raise ValidationError(f"PGM wants a 2-D map, got {arr.ndim} axes")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValidationError("PGM values must lie in [0, 1]")
    quantized = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fp:
        fp.write(f"P5\n{w} {h}\n255\n".encode())
        fp.write(quantized.tobytes())


def _next_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    n = len(raw)
    while pos < n:
        ch = raw[pos:pos + 1]
        if ch == b"#":
            while pos < n and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(f"unexpected end of PGM header at byte {pos}")
    start = pos
    while pos < n and not raw[pos:pos + 1].isspace():
        pos += 1
    return raw[start:pos], pos


def read_pgm(path) -> Tensor:
    """Read a binary PGM into a (1, H, W) tensor scaled to [0, 1]."""
    with open(path, "rb") as fp:
        raw = fp.read()
    magic, pos = _next_token(raw, 0)
    if magic != b"P5":
        raise ParseError(f"unsupported PGM magic {magic!r} at byte 0")
    fields = []
    for what in ("width", "height", "maxval"):
        token, pos = _next_token(raw, pos)
        if not token.isdigit():
            raise ParseError(
                f"non-numeric PGM {what} {token!r} at byte {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(f"PGM maxval must be 255, got {maxval}")
    pos += 1  # single whitespace after maxval
    expected = width * height
    payload = raw[pos:pos + expected]
    if len(payload) != expected:
        raise ParseError(
            f"truncated PGM payload: needed {expected} bytes at byte {pos}")
    if len(raw) > pos + expected:
        raise ParseError(f"trailing bytes after PGM payload at byte {pos + expected}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Tensor((data / 255.0)[None], dtype=T.F32)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------


def write_dataset(directory, spec: SynthSpec, count: int) -> list[str]:
    """Generate ``count`` samples into a directory with a manifest."""
    if count < 1:
        raise ValidationError(f"--count must be at least 1, got {count}")
    os.makedirs(directory, exist_ok=True)
    lines = []
    for index in range(count):
        sample = gen_sample(spec, index)
        image_name = f"img_{index:05d}.sa2t"
        mask_name = f"mask_{index:05d}.pgm"
        T.save_tensor(os.path.join(directory, image_name), sample.image)
        write_pgm(sample.mask, os.path.join(directory, mask_name))
        lines.append(f"{index}\t{image_name}\t{mask_name}\n")
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fp:
        fp.writelines(lines)
    return lines


def check_image(image: Tensor, path) -> Tensor:
    """``image`` if it is C x H x W with finite pixels; else a
    ValidationError naming ``path``."""
    if image.ndim != 3:
        raise ValidationError(
            f"image {path} must be C x H x W, got {image.shape}")
    if not np.all(np.isfinite(image.data)):
        raise ValidationError(f"image {path} holds non-finite pixels")
    return image


def load_dataset(directory) -> list[Sample]:
    """Load every sample listed in a dataset manifest: at least one, all
    images sharing the first one's C x H x W, each mask 1 x H x W."""
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise ValidationError(f"no {MANIFEST_NAME} in {directory}")
    samples = []
    for lineno, line in enumerate(T.read_text(manifest).splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"manifest line {lineno} needs index<TAB>image<TAB>mask")
        index, image_name, mask_name = parts
        try:
            sample_id = int(index)
        except ValueError:
            raise ParseError(f"manifest line {lineno}: index {index!r} "
                             f"is not an integer") from None
        image_path = os.path.join(directory, image_name)
        image = check_image(T.load_tensor(image_path), image_path)
        if samples and image.shape != samples[0].image.shape:
            raise ValidationError(f"image {image_path} is {image.shape}, the "
                                  f"first image is {samples[0].image.shape}")
        mask_path = os.path.join(directory, mask_name)
        mask = read_pgm(mask_path)
        if mask.shape != (1,) + image.shape[1:]:
            raise ValidationError(f"mask {mask_path} is {mask.shape}, its "
                                  f"image needs {(1,) + image.shape[1:]}")
        samples.append(Sample(image=image, mask=mask, id=sample_id))
    if not samples:
        raise ValidationError(f"dataset is empty: {manifest} lists no samples")
    return samples

