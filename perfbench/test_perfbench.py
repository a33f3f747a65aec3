"""Self-checks of the benchmark: the op structure a traced train step
records, the computed kernel counts, the metric lists in BENCHMARK.json
(every per-layer one non-zero on a traced unit of each workload), and
refusing to run without the program's sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from sa2net import tensor as T

ROOT = Path(__file__).resolve().parent.parent


def _traced_unit(name, tmp_path_factory):
    """One loop unit of a workload (one train call, round or suite), traced."""
    workload = workloads.WORKLOADS[name]
    state = workload.setup(0, tmp_path_factory.mktemp(name))
    rec = spans.Recorder()
    with rec.installed():
        out = workload.run(state, 0.0, rec)
    return rec, out


@pytest.fixture(scope="module")
def traced_train(tmp_path_factory):
    rec, out = _traced_unit("train64", tmp_path_factory)
    return rec.summary(), out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_json_layer_metric_is_nonzero(name, tmp_path_factory):
    rec, out = _traced_unit(name, tmp_path_factory)
    assert out.failed == 0, out.problems
    layer = run.layer_metrics(rec.summary(), rec, out.units)
    zero = [k for k in run._per_layer_units() if not layer[k] > 0]
    assert zero == []


def test_train_step_records_known_op_counts(traced_train):
    summary, out = traced_train
    assert out.units == workloads.TRAIN_CFG.steps
    counts, unattributed = summary.op_structure(np.arange(out.units))
    conv = sum(c for label, c in counts.items() if label.startswith("conv2d_"))
    assert conv.tolist() == [41] * out.units
    assert counts["conv2d_1x1"].tolist() == [29] * out.units
    assert counts["dwconv2d"].tolist() == [36] * out.units
    assert unattributed == 0
    workloads.Train64.structure_check(summary, out)
    assert out.failed == 0, out.problems


def test_every_step_op_has_a_block_or_loss_parent(traced_train):
    summary, out = traced_train
    cols = summary.cols
    ops = np.array([s.startswith("tensor.") and s.endswith(".fwd")
                    for s in summary.names])[cols["name"]]
    in_steps = cols["request"] >= 0
    tags = {summary.names[t] for t in cols["tag"][ops & in_steps]}
    assert tags <= spans.ATTRIBUTION_TAGS


def test_recorder_restores_every_lookup_site():
    import importlib
    before = [(site, attr, getattr(importlib.import_module(site), attr))
              for _, _, home, attr, sites in spans.TARGETS
              for site in (home,) + sites]
    rec = spans.Recorder()
    with rec.installed():
        assert all(getattr(importlib.import_module(site), attr) is not orig
                   for site, attr, orig in before)
    assert all(getattr(importlib.import_module(site), attr) is orig
               for site, attr, orig in before)


def test_conv_counts_are_computed_from_shapes():
    # N=2, Cin=3, 8x8, Cout=4, k=3, stride 1, pad 1: 512 outputs x 27 MACs
    fwd, bwd, fwd_bytes, bwd_bytes = spans.kernel_cost(
        "conv2d", (2, 3, 8, 8), (4, 3, 3, 3), (2, 4, 8, 8), 4)
    assert (fwd, bwd) == (2 * 13824 + 512, 4 * 13824 + 512)
    assert fwd_bytes == 4 * (384 + 108 + 4 + 512)
    assert bwd_bytes == 4 * (512 + 384 + 108 + 384 + 108 + 4)
    dw = spans.kernel_cost("dwconv2d", (1, 4, 6, 6), (4, 1, 3, 3),
                           (1, 4, 6, 6), 8)
    assert dw[:2] == (2 * 144 * 9 + 144, 4 * 144 * 9 + 144)


def test_recorder_counts_forward_and_backward_work():
    rng = T.Rng(0)
    x = T.Tensor(rng.normal((2, 3, 8, 8), dtype=T.F64), requires_grad=True)
    w = T.Tensor(rng.normal((4, 3, 3, 3), dtype=T.F64), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    rec = spans.Recorder()
    with rec.installed():
        # outside a request (request id -1) the work is not counted
        T.backward(T.conv2d(x, w, b, stride=1, pad=1).sum())
        assert rec.flops["conv2d"] == rec.nbytes["conv2d"] == 0
        rec.request_id = 0
        T.backward(T.conv2d(x, w, b, stride=1, pad=1).sum())
    fwd, bwd, fwd_bytes, bwd_bytes = spans.kernel_cost(
        "conv2d", x.shape, w.shape, (2, 4, 8, 8), 8)
    assert rec.flops["conv2d"] == fwd + bwd
    assert rec.nbytes["conv2d"] == fwd_bytes + bwd_bytes
    summary = rec.summary()
    assert summary.calls("tensor.conv2d_3x3.fwd") == 2
    assert summary.calls("tensor.conv2d_3x3.bwd") == 2
    assert summary.calls("tensor.backward") == 2


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run._per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
