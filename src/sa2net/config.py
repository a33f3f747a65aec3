"""Flat ``key = value`` config files with ``#`` comments.

Nested keys use dots (``lsa.kernel_sizes = 1,3,5``).  Sections: ``model.*``
and ``lsa.*`` feed ModelConfig, whose input shape is the dataset's,
``train.*`` feeds TrainConfig, ``synth.*`` feeds SynthSpec.  Absent keys
keep their dataclass defaults; keys outside a command's sections are
rejected so typos fail loudly.
"""

from __future__ import annotations

from . import tensor as T
from .data import SynthSpec
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _slots(keys: tuple[str, ...], name: str, parse) -> dict:
    """One key per place of the tuple field ``name``."""
    return {key: (name, slot, parse) for slot, key in enumerate(keys)}


# section -> key -> (dataclass field, tuple slot or None, parser)
_KEYS = {
    "model": {
        "channels": ("channels", None, int),
        "seed": ("seed", None, int),
        "sa2_enabled": ("sa2_enabled", None, _bool),
    },
    "lsa": {
        "kernel_sizes": ("lsa_kernel_sizes", None,
                         lambda raw: tuple(int(k) for k in raw.split(","))),
    },
    "train": {
        "lr": ("lr", None, float),
        "batch_size": ("batch_size", None, int),
        "steps": ("steps", None, int),
        "epochs": ("epochs", None, int),
        "seed": ("seed", None, int),
        "augment": ("augment", None, _bool),
        "checkpoint_every": ("checkpoint_every", None, int),
    },
    "synth": {
        "height": ("height", None, int),
        "width": ("width", None, int),
        **_slots(("cells_min", "cells_max"), "cell_count_range", int),
        **_slots(("radius_min", "radius_max"), "radius_range", float),
        **_slots(("ecc_min", "ecc_max"), "eccentricity_range", float),
        **_slots(("fg_min", "fg_max"), "intensity_fg", float),
        **_slots(("bg_min", "bg_max"), "intensity_bg", float),
        "noise_std": ("noise_std", None, float),
        "seed": ("seed", None, int),
    },
}

TRAIN_SECTIONS = ("model", "lsa", "train")
SYNTH_SECTIONS = ("synth",)


def parse_config_text(text: str, sections: tuple[str, ...]) -> dict[str, str]:
    """Key/value pairs of ``text``; every key must belong to ``sections``."""
    values = T.parse_key_values(text, "config")
    accepted = {f"{s}.{k}" for s in sections for k in _KEYS[s]}
    stray = sorted(set(values) - accepted)
    if stray:
        raise ConfigError(f"unknown config keys for sections "
                          f"{'/'.join(sections)}: {', '.join(stray)}")
    return values


def _fields(cls, section: str, values: dict[str, str]) -> dict:
    """Constructor arguments of ``cls`` for the keys of ``section`` present."""
    out: dict = {}
    for key, (name, slot, parse) in _KEYS[section].items():
        raw = values.get(f"{section}.{key}")
        if raw is None:
            continue
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from None
        if slot is not None:
            parts = list(out.get(name, getattr(cls, name)))
            parts[slot] = value
            value = tuple(parts)
        out[name] = value
    return out


def model_config_from(values: dict[str, str], image_shape) -> ModelConfig:
    """ModelConfig of ``values`` for images of ``image_shape`` (C, H, W)."""
    c, h, w = image_shape
    return ModelConfig(in_channels=c, input_size=(h, w),
                       **_fields(ModelConfig, "model", values),
                       **_fields(ModelConfig, "lsa", values))


def train_config_from(values: dict[str, str]) -> TrainConfig:
    return TrainConfig(**_fields(TrainConfig, "train", values))


def synth_spec_from(values: dict[str, str]) -> SynthSpec:
    return SynthSpec(**_fields(SynthSpec, "synth", values))
