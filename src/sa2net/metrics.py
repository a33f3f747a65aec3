"""Dice/IoU evaluation on binary masks, plus prediction ensembling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, ValidationError
from .tensor import Tensor

DEFAULT_THRESHOLD = 0.5


def _as_binary(x, name: str) -> np.ndarray:
    arr = np.asarray(getattr(x, "data", x))
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError(f"{name} must be strictly binary (0/1)")
    return arr


def dice_score(pred, gt) -> float:
    """2|P & G| / (|P| + |G|); 1.0 when both masks are empty."""
    p = _as_binary(pred, "prediction")
    g = _as_binary(gt, "ground truth")
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    total = p.sum() + g.sum()
    if total == 0:
        return 1.0
    return float(2.0 * (p * g).sum() / total)


def iou_score(pred, gt) -> float:
    """|P & G| / |P | G|; 1.0 when both masks are empty."""
    p = _as_binary(pred, "prediction")
    g = _as_binary(gt, "ground truth")
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    union = np.maximum(p, g).sum()
    if union == 0:
        return 1.0
    return float((p * g).sum() / union)


def ensemble_mean(prob_maps: Sequence[Tensor]) -> Tensor:
    """Elementwise arithmetic mean of probability maps.

    Computed as base + mean(deviations from base) so that averaging k
    identical maps reproduces the input bit for bit, for any k.
    """
    if not prob_maps:
        raise ContractError("ensemble_mean needs at least one map")
    first = prob_maps[0]
    for i, m in enumerate(prob_maps[1:], start=1):
        if m.shape != first.shape:
            raise DimensionError(
                f"map {i} shape {m.shape} differs from {first.shape}")
    arrays = [np.asarray(getattr(m, "data", m)) for m in prob_maps]
    base = arrays[0]
    if len(arrays) == 1:
        return Tensor(base.copy(), dtype=first.dtype)
    deviation = np.stack([a - base for a in arrays[1:]]).sum(axis=0)
    return Tensor(base + deviation / len(arrays), dtype=first.dtype)


def check_threshold(t: float) -> None:
    """Any ``t`` outside (0, 1) would give one class for every input, so
    it is rejected."""
    if not 0.0 < t < 1.0:
        raise ValidationError(
            f"threshold must be a finite number in (0, 1), got {t}")


def threshold_mask(prob: Tensor, t: float = DEFAULT_THRESHOLD) -> Tensor:
    """Binarize probabilities; values >= t become foreground."""
    check_threshold(t)
    data = np.asarray(getattr(prob, "data", prob))
    return Tensor((data >= t).astype(data.dtype))


@dataclass
class EvalReport:
    """Per-sample Dice/IoU plus population mean and std."""

    entries: list[tuple[int, float, float]]   # (sample_id, dice, iou)
    threshold: float

    @property
    def dice_values(self) -> np.ndarray:
        return np.array([d for _, d, _ in self.entries])

    @property
    def iou_values(self) -> np.ndarray:
        return np.array([i for _, _, i in self.entries])

    @property
    def mean_dice(self) -> float:
        return float(self.dice_values.mean())

    @property
    def std_dice(self) -> float:
        return float(self.dice_values.std())

    @property
    def mean_iou(self) -> float:
        return float(self.iou_values.mean())

    @property
    def std_iou(self) -> float:
        return float(self.iou_values.std())

    def to_machine_lines(self) -> str:
        return "".join(f"{sid}\t{d:.6f}\t{i:.6f}\n"
                       for sid, d, i in self.entries)

    def to_table(self) -> str:
        lines = [
            f"{'sample':>8}  {'dice':>8}  {'iou':>8}",
        ]
        for sid, d, i in self.entries:
            lines.append(f"{sid:>8}  {d:8.4f}  {i:8.4f}")
        lines.append("")
        lines.append(f"threshold {self.threshold}")
        lines.append(f"dice {self.mean_dice:.4f} +/- {self.std_dice:.4f}")
        lines.append(f"iou  {self.mean_iou:.4f} +/- {self.std_iou:.4f}")
        return "\n".join(lines) + "\n"
