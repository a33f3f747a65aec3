"""Dice/IoU evaluation on binary masks, plus prediction ensembling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, ValidationError

DEFAULT_THRESHOLD = 0.5


def _as_binary(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError(f"{name} must be strictly binary (0/1)")
    return arr


def _binary_pair(pred: np.ndarray, gt: np.ndarray):
    """``pred`` and ``gt``, both binary and of one shape."""
    p = _as_binary(pred, "prediction")
    g = _as_binary(gt, "ground truth")
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    return p, g


def dice_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P & G| / (|P| + |G|); 1.0 when both masks are empty."""
    p, g = _binary_pair(pred, gt)
    total = p.sum() + g.sum()
    if total == 0:
        return 1.0
    return float(2.0 * (p * g).sum() / total)


def iou_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """|P & G| / |P | G|; 1.0 when both masks are empty."""
    p, g = _binary_pair(pred, gt)
    union = np.maximum(p, g).sum()
    if union == 0:
        return 1.0
    return float((p * g).sum() / union)


def ensemble_mean(prob_maps: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean of probability maps, in the first's dtype.

    Computed as base + mean(deviations from base) so that averaging k
    identical maps reproduces the input bit for bit, for any k.
    """
    if not prob_maps:
        raise ContractError("ensemble_mean needs at least one map")
    base = prob_maps[0]
    for i, m in enumerate(prob_maps[1:], start=1):
        if m.shape != base.shape:
            raise DimensionError(
                f"map {i} shape {m.shape} differs from {base.shape}")
    if len(prob_maps) == 1:
        return base.copy()
    deviation = np.stack([m - base for m in prob_maps[1:]]).sum(axis=0)
    return (base + deviation / len(prob_maps)).astype(base.dtype, copy=False)


def check_threshold(t: float) -> None:
    """Any ``t`` outside (0, 1) would give one class for every input, so
    it is rejected."""
    if not 0.0 < t < 1.0:
        raise ValidationError(
            f"threshold must be a finite number in (0, 1), got {t}")


def threshold_mask(prob: np.ndarray, t: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Binarize probabilities; values >= t become foreground."""
    check_threshold(t)
    return (prob >= t).astype(prob.dtype)


@dataclass
class EvalReport:
    """Per-sample Dice/IoU; the table adds their population mean and std."""

    entries: list[tuple[int, float, float]]   # (sample_id, dice, iou)
    threshold: float

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
        for column, name in ((1, "dice"), (2, "iou ")):
            values = np.array([entry[column] for entry in self.entries])
            lines.append(f"{name} {values.mean():.4f} +/- {values.std():.4f}")
        return "\n".join(lines) + "\n"
