"""Finite-difference verification of every backward rule.

``grad_error`` is the workhorse: it compares tape gradients of a scalar
loss against central differences at sampled coordinates.  The error
reported per coordinate is |tape - fd| / max(1, |tape|, |fd|), i.e.
absolute error for small gradients and relative error for large ones,
so one tolerance covers both regimes.

The module also keeps a registry of named checks covering each autodiff
op and each composite network block; the CLI ``gradcheck`` subcommand
and the acceptance suite both run it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Rng, Tensor, backward, no_grad

DEFAULT_TOL = 1e-3
DEFAULT_SEEDS = 5
FULL_MODEL_TOL_FACTOR = 2.0


def grad_error(loss_fn: Callable[[], Tensor], wrt: Sequence[Tensor],
               rng: Rng, max_samples: Optional[int] = 8,
               coords: Optional[Sequence[Optional[np.ndarray]]] = None) -> float:
    """Max combined abs/rel error between tape and central-difference grads.

    ``loss_fn`` must rebuild the scalar loss from the current contents of
    the ``wrt`` tensors (all float64).  Flat coordinates are checked per
    tensor: all of them when the tensor is small or ``max_samples`` is
    None, a random subset otherwise, or exactly ``coords[i]`` when given.
    Values are perturbed in place and restored afterwards.
    """
    wrt = list(wrt)
    for t in wrt:
        if t.dtype != T.F64:
            raise ContractError("gradient checking runs in float64 only")
        t.zero_grad()
    loss = loss_fn()
    backward(loss)

    worst = 0.0
    for pos, t in enumerate(wrt):
        if t.grad is None:
            raise ContractError("loss does not reach a checked tensor")
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        if coords is not None and coords[pos] is not None:
            idxs = np.asarray(coords[pos])
        elif max_samples is None or flat.size <= max_samples:
            idxs = np.arange(flat.size)
        else:
            idxs = rng.permutation(flat.size)[:max_samples]
        with no_grad():
            for i in idxs:
                fd = T.central_difference(lambda: loss_fn().item(), flat, i)
                tape = float(gflat[i])
                err = abs(tape - fd) / max(1.0, abs(tape), abs(fd))
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# named checks: tensor ops
# ---------------------------------------------------------------------------


def _rand(rng: Rng, shape) -> Tensor:
    return Tensor(rng.normal(shape, dtype=T.F64), requires_grad=True)


def check_conv2d(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (1, 2, 5, 5))
    w = _rand(rng, (3, 2, 3, 3))
    b = _rand(rng, (3,))
    return grad_error(lambda: T.conv2d(x, w, b, stride=1, pad=1).sum(),
                      [x, w, b], rng)


def check_conv2d_strided(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (2, 3, 7, 7))
    w = _rand(rng, (4, 3, 3, 3))
    b = _rand(rng, (4,))
    out = lambda: T.conv2d(x, w, b, stride=2, pad=1)
    return grad_error(lambda: (out() * out()).sum(), [x, w, b], rng)


def check_dwconv2d(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (1, 4, 6, 6))
    w = _rand(rng, (4, 1, 3, 3))
    b = _rand(rng, (4,))
    return grad_error(lambda: T.dwconv2d(x, w, b).sum(), [x, w, b], rng)


def check_avgpool2d(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (1, 1, 7, 7))
    return grad_error(lambda: T.avgpool2d(x, k=3).sum(), [x], rng)


def check_bilinear_resize(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (1, 2, 4, 4))
    up = grad_error(lambda: (T.bilinear_resize(x, 7, 9) *
                             T.bilinear_resize(x, 7, 9)).sum(), [x], rng)
    down = grad_error(lambda: T.bilinear_resize(x, 2, 2).mean(), [x], rng)
    return max(up, down)


def check_layernorm_c(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (2, 8, 4, 4))
    gamma = _rand(rng, (8,))
    beta = _rand(rng, (8,))

    def loss():
        y = T.layernorm_c(x, gamma, beta)
        return (y * y).sum()

    return grad_error(loss, [x, gamma, beta], rng)


def check_gelu(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (3, 5))
    return grad_error(lambda: (T.gelu(x) * T.gelu(x)).sum(), [x], rng)


def check_sigmoid(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (3, 5))
    return grad_error(lambda: (T.sigmoid(x) * T.sigmoid(x)).sum(), [x], rng)


def check_concat_split(seed: int) -> float:
    rng = Rng(seed)
    a = _rand(rng, (1, 2, 3, 3))
    b = _rand(rng, (1, 3, 3, 3))

    def loss():
        joined = T.concat_c([a, b])
        left, right = T.split_c(joined, [4, 1])
        return (left * left).sum() + right.sum()

    return grad_error(loss, [a, b], rng)


def check_elementwise(seed: int) -> float:
    rng = Rng(seed)
    a = _rand(rng, (1, 3, 2, 2))
    b = _rand(rng, (1, 1, 2, 2))
    return grad_error(lambda: ((a * b) + (a - b) * 0.5).sum(), [a, b], rng)


def check_reduce_mean(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (4, 6))
    return grad_error(lambda: (x * x).mean() + x.sum() * 0.25, [x], rng)


# ---------------------------------------------------------------------------
# named checks: network blocks and losses
# ---------------------------------------------------------------------------


def check_lsa(seed: int) -> float:
    from .blocks import LsaConfig, init_params, local_scale_attention, lsa_specs
    cfg = LsaConfig(groups=4, kernel_sizes=(1, 3, 5, 7))
    rng = Rng(seed)
    store = init_params(lsa_specs("lsa", 16, cfg), Rng(seed + 1), T.F64)
    x = _rand(rng, (1, 16, 8, 8))
    params = [store[name] for name in store.names()]
    return grad_error(
        lambda: local_scale_attention(x, store, "lsa", cfg).sum(),
        params + [x], rng, max_samples=4)


def check_global_scale_attention(seed: int) -> float:
    from .blocks import global_scale_attention, gsa_specs, init_params
    rng = Rng(seed)
    store = init_params(gsa_specs("gsa", 8), Rng(seed + 1), T.F64)
    feats = [_rand(rng, (1, 8, 16 >> i, 16 >> i)) for i in range(4)]
    params = [store[name] for name in store.names()]

    def loss():
        modulated = global_scale_attention(feats, store, "gsa")
        total = modulated[0].sum()
        for m in modulated[1:]:
            total = total + (m * m).sum()
        return total

    return grad_error(loss, params + feats, rng, max_samples=4)


def check_mlp_block(seed: int) -> float:
    from .blocks import init_params, mlp_block, mlp_specs
    rng = Rng(seed)
    store = init_params(mlp_specs("mlp", 8), Rng(seed + 1), T.F64)
    x = _rand(rng, (1, 8, 4, 4))
    params = [store[name] for name in store.names()]

    def loss():
        y = mlp_block(x, store, "mlp")
        return (y * y).sum()

    return grad_error(loss, params + [x], rng, max_samples=4)


def check_aua(seed: int) -> float:
    from .blocks import adaptive_up_attention, aua_specs, init_params
    rng = Rng(seed)
    store = init_params(aua_specs("aua", 8, deepest=False), Rng(seed + 1),
                        T.F64)
    current = _rand(rng, (1, 8, 8, 8))
    deeper = _rand(rng, (1, 8, 4, 4))
    params = [store[name] for name in store.names()]
    return grad_error(
        lambda: adaptive_up_attention(current, deeper, store, "aua").sum(),
        params + [current, deeper], rng, max_samples=4)


def check_encoder_stage(seed: int) -> float:
    from .model import ModelConfig, encoder_forward, init_model_params
    cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32),
                      seed=seed + 1)
    store = init_model_params(cfg, dtype=T.F64)
    rng = Rng(seed)
    image = _rand(rng, (1, 1, 32, 32))
    # check a 2x2 patch of input pixels
    patch = [r * 32 + c for r in (8, 9) for c in (8, 9)]

    def loss():
        stages = encoder_forward(image, store, cfg)
        total = stages[0].sum()
        for s in stages[1:]:
            total = total + s.sum()
        return total

    return grad_error(loss, [image], rng, coords=[np.asarray(patch)])


def check_weighted_bce(seed: int) -> float:
    from .losses import weight_map, weighted_bce
    rng = Rng(seed)
    logits = _rand(rng, (1, 1, 4, 4))
    gt = Tensor((rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64))
    return grad_error(lambda: weighted_bce(logits, gt, weight_map(gt)),
                      [logits], rng, max_samples=None)


def check_weighted_iou(seed: int) -> float:
    from .losses import weight_map, weighted_iou_loss
    rng = Rng(seed)
    logits = _rand(rng, (1, 1, 4, 4))
    gt = Tensor((rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64))
    return grad_error(lambda: weighted_iou_loss(logits, gt, weight_map(gt)),
                      [logits], rng, max_samples=None)


def check_full_model(seed: int) -> float:
    from .losses import total_loss
    from .model import ModelConfig, init_model_params, model_forward
    cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32),
                      seed=seed + 17)
    store = init_model_params(cfg, dtype=T.F64)
    rng = Rng(seed)
    image = Tensor(rng.normal((1, 1, 32, 32), dtype=T.F64))
    gt = Tensor((rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64))
    names = list(store.names())
    picks = [names[i] for i in rng.permutation(len(names))[:10]]
    params = [store[p] for p in picks]
    return grad_error(
        lambda: total_loss(model_forward(image, store, cfg).logits, gt),
        params, rng, max_samples=1)


CHECKS: dict[str, tuple[Callable[[int], float], float, str]] = {
    "conv2d": (check_conv2d, 1.0, "tensor"),
    "conv2d_strided": (check_conv2d_strided, 1.0, "tensor"),
    "dwconv2d": (check_dwconv2d, 1.0, "tensor"),
    "avgpool2d": (check_avgpool2d, 1.0, "tensor"),
    "bilinear_resize": (check_bilinear_resize, 1.0, "tensor"),
    "layernorm_c": (check_layernorm_c, 1.0, "tensor"),
    "gelu": (check_gelu, 1.0, "tensor"),
    "sigmoid": (check_sigmoid, 1.0, "tensor"),
    "concat_split": (check_concat_split, 1.0, "tensor"),
    "elementwise": (check_elementwise, 1.0, "tensor"),
    "reduce_mean": (check_reduce_mean, 1.0, "tensor"),
    "local_scale_attention": (check_lsa, 1.0, "blocks"),
    "global_scale_attention": (check_global_scale_attention, 1.0, "blocks"),
    "mlp_block": (check_mlp_block, 1.0, "blocks"),
    "adaptive_up_attention": (check_aua, 1.0, "blocks"),
    "encoder_stage": (check_encoder_stage, 1.0, "model"),
    "weighted_bce": (check_weighted_bce, 1.0, "losses"),
    "weighted_iou": (check_weighted_iou, 1.0, "losses"),
    "full_model": (check_full_model, FULL_MODEL_TOL_FACTOR, "model"),
}


def run_suite(names: Optional[Iterable[str]] = None,
              seeds: int = DEFAULT_SEEDS,
              tol: float = DEFAULT_TOL, module: Optional[str] = None):
    """Run named checks over several seeds.

    Returns rows (name, max_err, limit); a row passes when max_err < limit.
    """
    if seeds < 1:
        raise ContractError(f"seeds must be at least 1, got {seeds}")
    if not 0 < tol < np.inf:
        raise ContractError(f"tolerance must be finite and above 0, got {tol}")
    selected = list(names) if names is not None else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ContractError(f"unknown gradcheck names: {', '.join(unknown)}")
    rows = []
    for name in selected:
        fn, factor, mod = CHECKS[name]
        if module is not None and mod != module:
            continue
        err = max(fn(seed) for seed in range(seeds))
        rows.append((name, err, tol * factor))
    return rows
