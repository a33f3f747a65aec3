"""Training loss: boundary-weighted BCE plus weighted soft IoU.

Both terms share one per-pixel weight map derived from the ground truth:
w = 1 + 5 * |avgpool15(gt) - gt|.  The pooling difference is large
exactly where a pixel disagrees with its neighborhood, i.e. along
region boundaries, which is where microscopy masks are hardest.  The
map is detached: it never carries gradient back to anything.

Each loss is implemented as a single differentiable primitive with an
analytic backward rule; the finite-difference suite checks both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .metrics import _as_binary
from .tensor import Tensor

IOU_EPS = 1.0
BOUNDARY_GAIN = 5.0
BOUNDARY_WINDOW = 15


def weight_map(gt: Tensor) -> Tensor:
    """Boundary-emphasis weights >= 1, constant 1 on constant masks."""
    if gt.ndim != 4 or gt.shape[1] != 1:
        raise DimensionError(
            f"ground truth must be N x 1 x H x W, got {gt.shape}")
    _as_binary(gt.data, "ground truth")
    with T.no_grad():
        pooled = T.avgpool2d(gt, k=BOUNDARY_WINDOW)
    w = 1.0 + BOUNDARY_GAIN * np.abs(pooled.data - gt.data)
    return Tensor(w, dtype=gt.dtype)


def _operands(logits: Tensor, gt: Tensor, w: Tensor):
    """The arrays of a loss's operands, which must share one shape."""
    if logits.shape != gt.shape or logits.shape != w.shape:
        raise DimensionError(
            f"shape mismatch: logits {logits.shape}, gt {gt.shape}, w {w.shape}")
    return logits.data, gt.data, w.data


def weighted_bce(logits: Tensor, gt: Tensor, w: Tensor) -> Tensor:
    """Weighted binary cross-entropy on logits, in the stable max/log1p form."""
    z, y, wd = _operands(logits, gt, w)
    per_pixel = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    w_total = wd.sum()
    out = np.asarray((wd * per_pixel).sum() / w_total, dtype=logits.dtype)
    if not T._records((logits,)):
        return T._output(out)

    def backward_fn(g):
        return (g * wd * (T.stable_sigmoid(z) - y) / w_total,)

    return T._op_output(out, (logits,), backward_fn)


def weighted_iou_loss(logits: Tensor, gt: Tensor, w: Tensor) -> Tensor:
    """1 - weighted soft IoU of sigmoid(logits) against the mask."""
    z, y, wd = _operands(logits, gt, w)
    p = T.stable_sigmoid(z)
    inter = (wd * p * y).sum()
    union = (wd * (p + y - p * y)).sum()
    out = np.asarray(1.0 - (inter + IOU_EPS) / (union + IOU_EPS),
                     dtype=logits.dtype)
    if not T._records((logits,)):
        return T._output(out)

    def backward_fn(g):
        # d loss / d p, then chained through the sigmoid
        dp = (wd * y * -(union + IOU_EPS) + (inter + IOU_EPS) * wd * (1.0 - y)) \
            / (union + IOU_EPS) ** 2
        return (g * dp * p * (1.0 - p),)

    return T._op_output(out, (logits,), backward_fn)


def total_loss(logits: Sequence[Tensor], gt: Tensor) -> Tensor:
    """Deep-supervision sum of (BCE + IoU) over every head, unit weights.

    ``logits`` is a list of logit tensors, one per head (pass
    ``ModelOutput.logits``); one weight map is shared by all heads.
    """
    if not logits:
        raise DimensionError("total_loss needs at least one logit head")
    w = weight_map(gt)
    total = None
    for head in logits:
        term = weighted_bce(head, gt, w) + weighted_iou_loss(head, gt, w)
        total = term if total is None else total + term
    return total
