"""Outside-in span recorder for the benchmark's traced runs.

Nothing under ``src/`` is edited.  Each public function of interest is
wrapped at every module attribute through which the program looks it up
(``training`` imports ``model_forward`` by name, ``model`` imports the
attention blocks by name, ops are reached as ``sa2net.tensor.<op>``, and
so on), so the wrapper sees every call.  A tensor op's backward time is
taken by replacing the ``backward_fn`` of the tape node it returns with a
timed one, tagged with the block that was open when the op ran forward.

Spans (name, block tag, parent, request id, start, end) are kept in
compact arrays in memory and written out when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Tensor functions that are ops, with the op label each is reported under;
# conv2d is labelled per call by kernel size and stride.
_OP_LABELS = {
    "conv2d": "conv2d",
    "dwconv2d": "dwconv2d",
    "avgpool2d": "avgpool2d",
    "bilinear_resize": "bilinear_resize",
    "layernorm_c": "layernorm_c",
    "gelu": "gelu",
    "sigmoid": "sigmoid",
    "concat_c": "concat_c",
    "split_c": "split_c",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "reduce_sum": "reduce",
    "reduce_mean": "reduce",
}

OPS = ("conv2d_1x1", "conv2d_3x3", "conv2d_3x3s2", "dwconv2d",
       "bilinear_resize", "layernorm_c", "gelu", "sigmoid", "concat_c",
       "split_c", "avgpool2d", "elementwise", "reduce")

BLOCK, SPAN, NODE, BACKWARD = "block", "span", "node", "backward"

# (span name, kind, defining module, attribute, other modules that import
# the attribute by name).  A BLOCK span becomes the attribution tag of the
# ops run inside it; a NODE span also times the backward of the tape node
# its function returns.  Tensor ops are NODE targets named by op label.
TARGETS = (
    ("model.model_forward", BLOCK, "sa2net.model", "model_forward",
     ("sa2net.training", "sa2net.cli")),
    ("model.encoder", BLOCK, "sa2net.model", "encoder_forward", ()),
    ("blocks.scale_aware_attention", BLOCK, "sa2net.blocks",
     "scale_aware_attention", ("sa2net.model",)),
    ("blocks.local_scale_attention", BLOCK, "sa2net.blocks",
     "local_scale_attention", ()),
    ("blocks.global_scale_attention", BLOCK, "sa2net.blocks",
     "global_scale_attention", ()),
    ("blocks.mlp_block", BLOCK, "sa2net.blocks", "mlp_block", ()),
    ("blocks.adaptive_up_attention", BLOCK, "sa2net.blocks",
     "adaptive_up_attention", ("sa2net.model",)),
    ("losses.total_loss", BLOCK, "sa2net.losses", "total_loss",
     ("sa2net.training",)),
    ("losses.weight_map", BLOCK, "sa2net.losses", "weight_map", ()),
    ("losses.weighted_bce", NODE, "sa2net.losses", "weighted_bce", ()),
    ("losses.weighted_iou_loss", NODE, "sa2net.losses", "weighted_iou_loss",
     ()),
    ("tensor.backward", BACKWARD, "sa2net.tensor", "backward",
     ("sa2net", "sa2net.training", "sa2net.gradcheck")),
    ("optim.adam_step", SPAN, "sa2net.optim", "adam_step",
     ("sa2net.training",)),
    ("model.load_checkpoint", SPAN, "sa2net.model", "load_checkpoint",
     ("sa2net.training", "sa2net.cli")),
    ("model.save_checkpoint", SPAN, "sa2net.model", "save_checkpoint",
     ("sa2net.training",)),
    ("model.checkpoint_fingerprint", SPAN, "sa2net.model",
     "checkpoint_fingerprint", ("sa2net.training",)),
    ("data.gen_sample", SPAN, "sa2net.data", "gen_sample", ()),
    ("data.load_dataset", SPAN, "sa2net.data", "load_dataset",
     ("sa2net.cli",)),
    ("data.write_pgm", SPAN, "sa2net.data", "write_pgm", ("sa2net.cli",)),
    ("metrics.dice_score", SPAN, "sa2net.metrics", "dice_score",
     ("sa2net.training",)),
    ("metrics.iou_score", SPAN, "sa2net.metrics", "iou_score",
     ("sa2net.training",)),
    ("metrics.ensemble_mean", SPAN, "sa2net.metrics", "ensemble_mean",
     ("sa2net.training",)),
    ("metrics.threshold_mask", SPAN, "sa2net.metrics", "threshold_mask",
     ("sa2net.training", "sa2net.cli")),
) + tuple((f"tensor.{label}", NODE, "sa2net.tensor", fn, ())
          for fn, label in _OP_LABELS.items())

# Span names an op can be attributed to.  An op run directly under
# model.model_forward (outside every nested block) belongs to the heads:
# the per-stage 1x1 conv and resize.
ATTRIBUTION_TAGS = frozenset(name for name, kind, *_ in TARGETS
                             if kind == BLOCK)

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def conv_label(weight_shape, stride: int) -> str:
    k = weight_shape[2]
    return f"conv2d_{k}x{k}" + (f"s{stride}" if stride != 1 else "")


def kernel_cost(op: str, x_shape, w_shape, out_shape, itemsize: int):
    """Computed (forward flops, backward flops, forward bytes, backward bytes).

    Counts follow from the shapes alone: a multiply-add is two flops, the
    bias add one flop per output element; backward computes the input and
    weight gradients (a multiply-add per forward one, each) and the bias
    gradient.  Bytes are the compulsory traffic: every operand read once
    and every result written once.
    """
    n, cout, oh, ow = out_shape
    outs = n * cout * oh * ow
    if op == "conv2d":
        macs = outs * w_shape[1] * w_shape[2] * w_shape[3]
    else:  # depthwise: one input channel per output channel
        macs = outs * w_shape[2] * w_shape[3]
    xs = int(np.prod(x_shape))
    ws = int(np.prod(w_shape))
    fwd_flops = 2 * macs + outs
    bwd_flops = 4 * macs + outs
    fwd_bytes = itemsize * (xs + ws + cout + outs)
    bwd_bytes = itemsize * (outs + xs + ws + xs + ws + cout)
    return fwd_flops, bwd_flops, fwd_bytes, bwd_bytes


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._tags: list[int] = [self.intern("(none)")]
        self.request_id = -1
        # computed kernel work, keyed by "conv2d" / "dwconv2d"
        self.flops = {"conv2d": 0, "dwconv2d": 0}
        self.nbytes = {"conv2d": 0, "dwconv2d": 0}
        self.backward_peak_rss = 0
        self._statm = None

    # -- span store ---------------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _begin(self, name_id: int, tag: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.tag.append(tag)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._begin(self.intern(name), self._tags[-1])
        try:
            yield
        finally:
            self._finish(idx)

    def reset_counters(self) -> None:
        """Zero the computed kernel counts and the backward peak; spans stay."""
        self.flops = dict.fromkeys(self.flops, 0)
        self.nbytes = dict.fromkeys(self.nbytes, 0)
        self.backward_peak_rss = 0

    def _rss(self) -> int:
        if self._statm is None:
            return 0
        return int(os.pread(self._statm, 64, 0).split()[1]) * _PAGE

    # -- wrappers -------------------------------------------------------------

    def _wrap_span(self, fn, name: str, block: bool):
        name_id = self.intern(name)
        tags = self._tags

        def wrapper(*args, **kwargs):
            idx = self._begin(name_id, tags[-1])
            if block:
                tags.append(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                if block:
                    tags.pop()
                self._finish(idx)

        return wrapper

    def _time_backward(self, out, bwd_id: int, tag: int, cost=None) -> None:
        node = getattr(out, "_node", None)
        if node is None:
            return
        inner = node.backward_fn

        def timed_backward(g):
            idx = self._begin(bwd_id, tag)
            try:
                return inner(g)
            finally:
                self._finish(idx)
                if cost is not None:
                    op, flops, nbytes = cost
                    self.flops[op] += flops
                    self.nbytes[op] += nbytes
                rss = self._rss()
                if rss > self.backward_peak_rss:
                    self.backward_peak_rss = rss

        node.backward_fn = timed_backward

    def _wrap_node(self, fn, name: str, attr: str):
        """Forward span, and a timed backward on the node(s) ``fn`` returns."""
        ids: dict[str, tuple[int, int]] = {}

        def ids_for(base):
            pair = ids.get(base)
            if pair is None:
                pair = ids[base] = (self.intern(f"{base}.fwd"),
                                    self.intern(f"{base}.bwd"))
            return pair

        tags = self._tags
        costed = attr in ("conv2d", "dwconv2d")

        def wrapper(*args, **kwargs):
            if attr == "conv2d":
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
                fwd_id, bwd_id = ids_for(
                    "tensor." + conv_label(weight.shape, stride))
            else:
                fwd_id, bwd_id = ids_for(name)
            tag = tags[-1]
            idx = self._begin(fwd_id, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            cost = None
            # kernel work is counted only inside loop requests, so it covers
            # the same spans as the per-request timings
            if costed and self.request_id >= 0:
                x = args[0] if args else kwargs["x"]
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                ff, bf, fb, bb = kernel_cost(attr, x.shape, weight.shape,
                                             out.shape, out.data.itemsize)
                self.flops[attr] += ff
                self.nbytes[attr] += fb
                cost = (attr, bf, bb)
            for piece in out if isinstance(out, list) else (out,):
                self._time_backward(piece, bwd_id, tag, cost)
            return out

        return wrapper

    def _wrap_backward(self, fn, name: str):
        name_id = self.intern(name)
        tags = self._tags

        def wrapper(loss):
            rss = self._rss()
            if rss > self.backward_peak_rss:
                self.backward_peak_rss = rss
            idx = self._begin(name_id, tags[-1])
            try:
                return fn(loss)
            finally:
                self._finish(idx)

        return wrapper

    def _wrapper_for(self, fn, name: str, kind: str, attr: str):
        if kind == NODE:
            return self._wrap_node(fn, name, attr)
        if kind == BACKWARD:
            return self._wrap_backward(fn, name)
        return self._wrap_span(fn, name, block=(kind == BLOCK))

    @contextmanager
    def installed(self):
        """Wrap every target at each lookup site; restore on exit."""
        saved = []
        try:
            self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._statm = None
        # import every module first: one imported later would bind a wrapper
        # by name and the identity check below would reject it
        for _, _, home, _, sites in TARGETS:
            for site in (home,) + sites:
                importlib.import_module(site)
        try:
            for name, kind, home, attr, sites in TARGETS:
                original = getattr(importlib.import_module(home), attr)
                wrapper = self._wrapper_for(original, name, kind, attr)
                for site in (home,) + sites:
                    module = importlib.import_module(site)
                    if getattr(module, attr) is not original:
                        raise RuntimeError(
                            f"{site}.{attr} is not {home}.{attr}; the span "
                            f"recorder would miss calls made through it")
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            if self._statm is not None:
                os.close(self._statm)
                self._statm = None

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns; open spans are closed at 'now'."""
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        for idx in self._open:
            end[idx] = time.perf_counter()
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": end,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

    def summary(self) -> "Summary":
        return Summary(self.names, self.arrays())


class Summary:
    """Totals per span name and per block tag, with self times."""

    def __init__(self, names: list[str], cols: dict[str, np.ndarray]):
        self.names = names
        self.cols = cols
        n = len(cols["name"])
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        children = np.zeros(n)
        np.add.at(children, parent[has_parent], dur[has_parent])
        is_block = np.isin(cols["name"], [i for i, s in enumerate(names)
                                          if s in ATTRIBUTION_TAGS])
        block_children = np.zeros(n)
        sel = has_parent & is_block
        np.add.at(block_children, parent[sel], dur[sel])
        self.dur = dur
        self.self_time = dur - children
        self.outside_blocks = dur - block_children

    def _mask(self, name: str, requests=None) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            return np.zeros(len(self.dur), dtype=bool)
        mask = self.cols["name"] == idx
        if requests is not None:
            mask &= requests
        return mask

    def calls(self, name: str, requests=None) -> int:
        return int(self._mask(name, requests).sum())

    def total(self, name: str, requests=None) -> float:
        return float(self.dur[self._mask(name, requests)].sum())

    def self_total(self, name: str, requests=None) -> float:
        return float(self.self_time[self._mask(name, requests)].sum())

    def outside_blocks_total(self, name: str, requests=None) -> float:
        return float(self.outside_blocks[self._mask(name, requests)].sum())

    def tagged_total(self, name_suffix: str, tags, requests=None) -> float:
        """Duration of spans named ``*<suffix>`` run under any of ``tags``."""
        tag_ids = [i for i, s in enumerate(self.names) if s in tags]
        name_ids = [i for i, s in enumerate(self.names)
                    if s.endswith(name_suffix)]
        mask = np.isin(self.cols["tag"], tag_ids) \
            & np.isin(self.cols["name"], name_ids)
        if requests is not None:
            mask &= requests
        return float(self.dur[mask].sum())

    def op_structure(self, requests: np.ndarray):
        """Per-request op counts and unattributed op spans.

        Returns ({label: counts per request}, count of op spans whose block
        tag is not a block or loss), over the given request ids.
        """
        name_col = self.cols["name"]
        req = self.cols["request"]
        counts = {}
        unattributed = 0
        allowed = {i for i, s in enumerate(self.names) if s in ATTRIBUTION_TAGS}
        in_req = np.isin(req, requests)
        for i, s in enumerate(self.names):
            if s.startswith("tensor.") and s.endswith(".fwd"):
                mask = (name_col == i) & in_req
                label = s[len("tensor."):-len(".fwd")]
                counts[label] = np.array(
                    [int((mask & (req == r)).sum()) for r in requests])
                unattributed += int(
                    (~np.isin(self.cols["tag"][mask], list(allowed))).sum())
        return counts, unattributed
