"""Finite-difference verification of every backward rule.

``grad_error`` is the workhorse: it compares tape gradients of a scalar
loss against central differences at sampled coordinates.  The error
reported per coordinate is |tape - fd| / max(1, |tape|, |fd|), i.e.
absolute error for small gradients and relative error for large ones,
so one tolerance covers both regimes.

``CHECKS`` is the registry of named checks over each autodiff op and
each network block that the CLI ``gradcheck`` subcommand and the
acceptance suite run.  A check is one row: input shapes and a loss, given
to a builder that seeds the draws.  Rows look every function up through
its module (``T.gelu``, ``B.mlp_block``, ``M.model_forward``) when the
check runs, so wrappers set on module attributes, such as the
benchmark's span recorder, see every call the registry makes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import blocks as B, losses as L, model as M, tensor as T
from .errors import ContractError
from .tensor import Rng, Tensor, backward, no_grad

DEFAULT_TOL = 1e-3
DEFAULT_SEEDS = 5
FULL_MODEL_TOL_FACTOR = 2.0


def central_difference(f: Callable[[], float], flat: np.ndarray,
                       i: int) -> float:
    """(f(x + h) - f(x - h)) / 2h at coordinate ``i`` of ``flat``.

    The step is h = 1e-4 * max(1, |x_i|).  ``flat[i]`` is perturbed in
    place for ``f`` to read, then restored.
    """
    orig = float(flat[i])
    h = 1e-4 * max(1.0, abs(orig))
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


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
                fd = central_difference(lambda: loss_fn().item(), flat, i)
                tape = float(gflat[i])
                err = abs(tape - fd) / max(1.0, abs(tape), abs(fd))
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# the registry: one row per check
# ---------------------------------------------------------------------------

Check = Callable[[int], float]


def _rand(rng: Rng, shape) -> Tensor:
    return Tensor(rng.normal(shape, dtype=T.F64), requires_grad=True)


def _inputs(shapes, *losses) -> Check:
    """Check of tensor ops: one input per shape from ``Rng(seed)``, in
    order, and the largest error over ``losses``, functions of the inputs."""
    def check(seed: int) -> float:
        rng = Rng(seed)
        xs = [_rand(rng, shape) for shape in shapes]
        return max(grad_error(lambda: loss(*xs), xs, rng) for loss in losses)
    return check


def _block(specs, shapes, loss) -> Check:
    """Check of a block: parameters ``specs`` from ``Rng(seed + 1)``, inputs
    from ``Rng(seed)``, ``loss(store, *inputs)`` at 4 coords per tensor."""
    def check(seed: int) -> float:
        rng = Rng(seed)
        store = B.init_params(specs, Rng(seed + 1), T.F64)
        xs = [_rand(rng, shape) for shape in shapes]
        params = list(store.values())
        return grad_error(lambda: loss(store, *xs), params + xs, rng,
                          max_samples=4)
    return check


def _pixel_loss(loss) -> Check:
    """Check of a per-pixel ``loss(logits, gt, weight_map(gt))`` against a
    random binary mask, at every one of its 4x4 logits."""
    def check(seed: int) -> float:
        rng = Rng(seed)
        logits = _rand(rng, (1, 1, 4, 4))
        gt = Tensor((rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64))
        return grad_error(lambda: loss(logits, gt, L.weight_map(gt)),
                          [logits], rng, max_samples=None)
    return check


def _twice(op):
    """The loss (op(...) * op(...)).sum(): two calls, so the op's backward
    runs twice and its input gradients accumulate."""
    return lambda *xs: (op(*xs) * op(*xs)).sum()


def _squared(y: Tensor) -> Tensor:
    return (y * y).sum()


def _concat_split(a: Tensor, b: Tensor) -> Tensor:
    left, right = T.split_c(T.concat_c([a, b]), [4, 1])
    return (left * left).sum() + right.sum()


def _gsa(store, *feats: Tensor) -> Tensor:
    modulated = B.global_scale_attention(list(feats), store, "gsa")
    total = modulated[0].sum()
    for m in modulated[1:]:
        total = total + (m * m).sum()
    return total


def check_encoder_stage(seed: int) -> float:
    cfg = M.ModelConfig(in_channels=1, channels=8, input_size=(32, 32),
                        seed=seed + 1)
    store = M.init_model_params(cfg, dtype=T.F64)
    rng = Rng(seed)
    image = _rand(rng, (1, 1, 32, 32))
    # check a 2x2 patch of input pixels
    patch = [r * 32 + c for r in (8, 9) for c in (8, 9)]

    def loss():
        stages = M.encoder_forward(image, store, cfg)
        total = stages[0].sum()
        for s in stages[1:]:
            total = total + s.sum()
        return total

    return grad_error(loss, [image], rng, coords=[np.asarray(patch)])


def check_full_model(seed: int) -> float:
    cfg = M.ModelConfig(in_channels=1, channels=8, input_size=(32, 32),
                        seed=seed + 17)
    store = M.init_model_params(cfg, dtype=T.F64)
    rng = Rng(seed)
    image = Tensor(rng.normal((1, 1, 32, 32), dtype=T.F64))
    gt = Tensor((rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64))
    names = list(store)
    picks = [names[i] for i in rng.permutation(len(names))[:10]]
    params = [store[p] for p in picks]
    return grad_error(
        lambda: L.total_loss(M.model_forward(image, store, cfg).logits, gt),
        params, rng, max_samples=1)


_LSA_KERNELS = (1, 3, 5, 7)

# name -> (check of one seed, factor on the tolerance, module checked)
CHECKS: dict[str, tuple[Check, float, str]] = {
    "conv2d": (_inputs(
        [(1, 2, 5, 5), (3, 2, 3, 3), (3,)],
        lambda x, w, b: T.conv2d(x, w, b, stride=1, pad=1).sum()),
        1.0, "tensor"),
    "conv2d_strided": (_inputs(
        [(2, 3, 7, 7), (4, 3, 3, 3), (4,)],
        _twice(lambda x, w, b: T.conv2d(x, w, b, stride=2, pad=1))),
        1.0, "tensor"),
    "dwconv2d": (_inputs(
        [(1, 4, 6, 6), (4, 1, 3, 3), (4,)],
        lambda x, w, b: T.dwconv2d(x, w, b).sum()), 1.0, "tensor"),
    "avgpool2d": (_inputs(
        [(1, 1, 7, 7)], lambda x: T.avgpool2d(x, k=3).sum()), 1.0, "tensor"),
    "bilinear_resize": (_inputs(
        [(1, 2, 4, 4)], _twice(lambda x: T.bilinear_resize(x, 7, 9)),
        lambda x: T.bilinear_resize(x, 2, 2).mean()), 1.0, "tensor"),
    "layernorm_c": (_inputs(
        [(2, 8, 4, 4), (8,), (8,)],
        lambda x, g, b: _squared(T.layernorm_c(x, g, b)),
        lambda x, g, b: _squared(T.gelu(T.layernorm_c(x, g, b)))),
        1.0, "tensor"),
    "gelu": (_inputs([(3, 5)], _twice(lambda x: T.gelu(x))), 1.0, "tensor"),
    "sigmoid": (_inputs([(3, 5)], _twice(lambda x: T.sigmoid(x))),
                1.0, "tensor"),
    "concat_split": (_inputs([(1, 2, 3, 3), (1, 3, 3, 3)], _concat_split),
                     1.0, "tensor"),
    "elementwise": (_inputs(
        [(1, 3, 2, 2), (1, 1, 2, 2)],
        lambda a, b: ((a * b) + (a - b) * 0.5).sum()), 1.0, "tensor"),
    "reduce_mean": (_inputs(
        [(4, 6)], lambda x: (x * x).mean() + x.sum() * 0.25), 1.0, "tensor"),
    "local_scale_attention": (_block(
        B.lsa_specs("lsa", 16, _LSA_KERNELS), [(1, 16, 8, 8)],
        lambda s, x: B.local_scale_attention(x, s, "lsa", _LSA_KERNELS).sum()),
        1.0, "blocks"),
    "global_scale_attention": (_block(
        B.gsa_specs("gsa", 8), [(1, 8, 16 >> i, 16 >> i) for i in range(4)],
        _gsa), 1.0, "blocks"),
    "mlp_block": (_block(
        B.mlp_specs("mlp", 8), [(1, 8, 4, 4)],
        lambda s, x: _squared(B.mlp_block(x, s, "mlp"))), 1.0, "blocks"),
    "adaptive_up_attention": (_block(
        B.aua_specs("aua", 8, deepest=False), [(1, 8, 8, 8), (1, 8, 4, 4)],
        lambda s, x, d: B.adaptive_up_attention(x, d, s, "aua").sum()),
        1.0, "blocks"),
    "encoder_stage": (check_encoder_stage, 1.0, "model"),
    "weighted_bce": (_pixel_loss(lambda p, gt, w: L.weighted_bce(p, gt, w)),
                     1.0, "losses"),
    "weighted_iou": (_pixel_loss(
        lambda p, gt, w: L.weighted_iou_loss(p, gt, w)), 1.0, "losses"),
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
