"""Training and evaluation loops.

Training is fully determined by (model seed, data, train config): epoch
shuffles and per-sample augmentation draws derive from the training seed
through the same index-addressable mix the data generator uses, so two
runs with identical seeds produce byte-identical checkpoints.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .blocks import Params
from .data import Sample, augment
from .errors import ConfigError, ContractError, DivergenceError, \
    IncompatibleCheckpointError
from .losses import total_loss
from .metrics import DEFAULT_THRESHOLD, EvalReport, check_threshold, \
    dice_score, ensemble_mean, iou_score, threshold_mask
from .model import ModelConfig, init_model_params, load_checkpoint, \
    model_forward, save_checkpoint, checkpoint_fingerprint
from .optim import AdamState, adam_step
from .tensor import Rng, Tensor, backward, derive_seed


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Defaults (Adam at 1e-3, batch 4) are the standard recipe for this
    architecture family; step/epoch budgets are desk-scale.  The loss
    always sums every head (deep supervision).
    """

    lr: float = 1e-3
    batch_size: int = 4
    steps: Optional[int] = None
    epochs: Optional[int] = None
    seed: int = 0
    augment: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if (self.steps is None) == (self.epochs is None):
            raise ConfigError("set exactly one of steps or epochs")
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.epochs is not None and self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


@dataclass
class TrainResult:
    store: Params
    trace: list[tuple[int, float]] = field(default_factory=list)


def _stack_batch(samples: Sequence[Sample], dtype) -> tuple[Tensor, Tensor]:
    images = np.stack([s.image.data for s in samples]).astype(dtype)
    masks = np.stack([s.mask.data for s in samples]).astype(dtype)
    return Tensor(images, dtype=dtype), Tensor(masks, dtype=dtype)


def _keep_freed_buffers() -> None:
    """Keep the large buffers a forward or backward frees in glibc's heap,
    not unmapped and faulted in again by the next one: M_MMAP_THRESHOLD
    (-3) and M_TRIM_THRESHOLD (-1).  Idempotent; a no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 256 << 20)


def train(model_cfg: ModelConfig, train_cfg: TrainConfig,
          dataset: Sequence[Sample], out_path=None,
          log_path=None) -> TrainResult:
    """Seeded minibatch Adam training with deep supervision.

    Writes a ``step<TAB>loss`` trace line per step when ``log_path`` is
    given, and aborts on the first non-finite loss.  Given ``out_path``,
    it saves the parameters (never the optimizer state) every
    ``checkpoint_every`` steps and at the end.  Before the final save, a
    no-grad forward of the last batch's first image on the final
    parameters must give finite logits, else ``DivergenceError``.  An
    ``out_path`` that is a directory raises ``IsADirectoryError``, and
    one whose directory does not exist or is a file raises
    ``FileNotFoundError`` or ``NotADirectoryError`` naming it, all before
    the first step.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    if out_path:
        # the checkpoint write would fail only after every step
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    os.fspath(out_path))
        out_dir = os.path.dirname(out_path) or "."
        if not os.path.isdir(out_dir):
            os.stat(out_dir)  # the OS's own ENOENT, or ENOTDIR under a file
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                     out_dir)
    _keep_freed_buffers()
    dtype = T.default_dtype()
    store = init_model_params(model_cfg, dtype=dtype)
    state = AdamState.for_store(store)

    n = len(dataset)
    if train_cfg.steps is not None:
        total_steps = train_cfg.steps
    else:
        total_steps = train_cfg.epochs * math.ceil(n / train_cfg.batch_size)

    trace: list[tuple[int, float]] = []
    # overflow shows as a non-finite loss or checkpoint, not as warnings
    log_file = open(log_path, "w") if log_path else contextlib.nullcontext()
    with log_file as log_fp, np.errstate(over="ignore", invalid="ignore"):
        step = 0
        epoch = 0
        images = None
        while step < total_steps:
            epoch_seed = derive_seed(train_cfg.seed, epoch)
            order = Rng(epoch_seed).permutation(n)
            for lo in range(0, n, train_cfg.batch_size):
                if step >= total_steps:
                    break
                picked = [dataset[i] for i in order[lo:lo + train_cfg.batch_size]]
                if train_cfg.augment:
                    picked = [augment(s, Rng(derive_seed(epoch_seed, 1 + s.id)))
                              for s in picked]
                images, masks = _stack_batch(picked, dtype)
                loss = total_loss(model_forward(images, store, model_cfg).logits,
                                  masks)
                value = loss.item()
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"non-finite loss at step {step}")
                trace.append((step, value))
                if log_fp:
                    log_fp.write(f"{step}\t{value:.10g}\n")
                backward(loss)
                del loss
                adam_step(store, state, train_cfg.lr)
                step += 1
                if out_path and train_cfg.checkpoint_every \
                        and step % train_cfg.checkpoint_every == 0 \
                        and step < total_steps:
                    save_checkpoint(out_path, store, model_cfg)
            epoch += 1
        # finite parameters can still overflow every forward (non-finite
        # ones are named by save_checkpoint); one image costs a quarter of
        # a default batch, which a 1-step run would feel
        if out_path and images is not None \
                and all(np.isfinite(p.data).all() for p in store.values()):
            with T.no_grad():
                logits = model_forward(Tensor(images.data[:1]), store,
                                       model_cfg).logits
            if not all(np.isfinite(t.data).all() for t in logits):
                raise DivergenceError(
                    f"non-finite logits after step {step - 1}: the final "
                    f"parameters overflow the forward pass; final checkpoint "
                    f"not written")
    if out_path:
        save_checkpoint(out_path, store, model_cfg)
    return TrainResult(store=store, trace=trace)


# Images per forward in ``evaluate``: the batch size whose peak memory the
# B=8 inference path already has.
EVAL_BATCH = 8


def infer(models: Sequence, images: np.ndarray) -> np.ndarray:
    """Ensemble-mean foreground probability maps of a B x C x H x W batch.

    ``models`` is a list of ``(store, cfg)`` pairs; each model sees the
    batch in its parameters' dtype, with no tape recorded.  Parameters
    that overflow the forward pass raise ``DivergenceError``.
    """
    _keep_freed_buffers()
    probs = []
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for store, cfg in models:
            dtype = next(iter(store.values())).dtype
            probs.append(model_forward(Tensor(images, dtype=dtype), store,
                                       cfg).probability_map().data)
    prob = ensemble_mean(probs)
    if not np.isfinite(prob).all():
        raise DivergenceError("non-finite probability map: the forward pass "
                              "overflowed")
    return prob


def evaluate(checkpoint_paths: Sequence, dataset: Sequence[Sample],
             threshold: float = DEFAULT_THRESHOLD) -> EvalReport:
    """Ensemble evaluation: ``infer`` over every checkpoint on batches of
    up to ``EVAL_BATCH`` samples, then per sample thresholding and
    Dice/IoU against its mask.

    Checkpoints must share one config fingerprint; a mismatch, an empty
    dataset and a threshold outside (0, 1) are rejected before any
    tensor is loaded.
    """
    if not checkpoint_paths:
        raise ContractError("evaluate needs at least one checkpoint")
    if not dataset:
        raise ContractError("evaluation dataset is empty")
    check_threshold(threshold)
    fingerprints = [checkpoint_fingerprint(p) for p in checkpoint_paths]
    for path, fp in zip(checkpoint_paths[1:], fingerprints[1:]):
        if fp != fingerprints[0]:
            raise IncompatibleCheckpointError(
                f"checkpoint {path} fingerprint {fp} does not match "
                f"{checkpoint_paths[0]} fingerprint {fingerprints[0]}")
    models = [load_checkpoint(p)[:2] for p in checkpoint_paths]

    entries = []
    for lo in range(0, len(dataset), EVAL_BATCH):
        chunk = dataset[lo:lo + EVAL_BATCH]
        images = np.stack([s.image.data for s in chunk])
        masks = threshold_mask(infer(models, images), threshold)
        for sample, mask in zip(chunk, masks):
            entries.append((sample.id, dice_score(mask, sample.mask.data),
                            iou_score(mask, sample.mask.data)))
    return EvalReport(entries=entries, threshold=threshold)
