"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion.  The two overfit runs (criterion 5) dominate the
runtime; they train side by side, one per CPU core where two exist.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sa2net.tensor as T
from sa2net.blocks import (
    adaptive_up_attention,
    aua_specs,
    global_scale_attention,
    gsa_specs,
    init_params,
    mlp_block,
    mlp_specs,
)
from sa2net.cli import cli
from sa2net.data import SynthSpec, gen_sample, read_pgm, write_pgm
from sa2net.errors import IncompatibleCheckpointError, IntegrityError
from sa2net.gradcheck import run_suite
from sa2net.metrics import dice_score, iou_score, threshold_mask
from sa2net.model import (
    ModelConfig,
    init_model_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from sa2net.optim import AdamState, adam_step
from sa2net.tensor import Rng, Tensor
from sa2net.training import TrainConfig, evaluate, train

GELU_UNIT_BIAS = 1.1446303090227823   # float64 gelu(bias) == 1.0 exactly


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------------------
# criterion 1: finite-difference suite over ops and composite blocks
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite < tol on 5 seeds within 5 minutes"):
        started = time.time()
        rows = run_suite(seeds=5, tol=1e-3)
        elapsed = time.time() - started
        failures = [(name, err, limit) for name, err, limit in rows
                    if not err < limit]
        assert not failures, f"gradchecks failed: {failures}"
        assert len(rows) >= 16
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: forced-limit block identities
# ---------------------------------------------------------------------------


def _stage_features(seed, c=8, base=16):
    rng = Rng(seed)
    return [Tensor(rng.normal((1, c, base >> i, base >> i), dtype=T.F64))
            for i in range(4)]


def test_criterion_2_forced_limit_identities():
    with criterion(2, "unit-factor/annihilation/zero-branch/gate limits"):
        # forced unit factors reproduce the attended features bitwise
        store = init_params(gsa_specs("gsa", 8), Rng(1), T.F64)
        store["gsa.scale_weights.weight"].data[:] = 0.0
        store["gsa.scale_weights.bias"].data[:] = 1.0
        store["gsa.global_feat.weight"].data[:] = 0.0
        store["gsa.global_feat.bias"].data[:] = GELU_UNIT_BIAS
        feats = _stage_features(seed=2)
        for f, o in zip(feats, global_scale_attention(feats, store, "gsa")):
            assert o.data.tobytes() == f.data.tobytes()

        # zeroing one stage weight annihilates that stage only, bitwise
        store = init_params(gsa_specs("gsa", 8), Rng(3), T.F64)
        feats = _stage_features(seed=4)
        baseline = global_scale_attention(feats, store, "gsa")
        store["gsa.scale_weights.weight"].data[2] = 0.0
        store["gsa.scale_weights.bias"].data[2] = 0.0
        modified = global_scale_attention(feats, store, "gsa")
        assert np.all(modified[2].data == 0.0)
        for i in (0, 1, 3):
            assert modified[i].data.tobytes() == baseline[i].data.tobytes()

        # zeroed MLP branch is the identity map, bitwise
        store = init_params(mlp_specs("mlp", 8), Rng(5), T.F64)
        store["mlp.conv2.weight"].data[:] = 0.0
        store["mlp.conv2.bias"].data[:] = 0.0
        x = Tensor(Rng(6).normal((1, 8, 4, 4), dtype=T.F64))
        assert mlp_block(x, store, "mlp").data.tobytes() == x.data.tobytes()

        # decoder gate saturation limits, within 1e-5
        store = init_params(aua_specs("aua", 8, deepest=False), Rng(7), T.F64)
        current = Tensor(Rng(8).normal((1, 8, 8, 8), dtype=T.F64))
        deeper = Tensor(Rng(9).normal((1, 8, 4, 4), dtype=T.F64))

        store["aua.gate.weight"].data[:] = 0.0
        store["aua.gate.bias"].data[:] = -50.0
        closed = adaptive_up_attention(current, deeper, store, "aua")
        nudged = Tensor(current.data + 0.5)
        closed_nudged = adaptive_up_attention(nudged, deeper, store, "aua")
        assert np.max(np.abs(closed_nudged.data - closed.data)) < 1e-5

        store["aua.gate.bias"].data[:] = 50.0
        opened = adaptive_up_attention(current, deeper, store, "aua")
        up = T.bilinear_resize(deeper, 8, 8)
        expected = T.gelu(T.layernorm_c(
            T.conv2d(T.concat_c([current, up]), store["aua.fuse.weight"],
                     store["aua.fuse.bias"], stride=1, pad=1),
            store["aua.norm.gamma"], store["aua.norm.beta"]))
        assert np.max(np.abs(opened.data - expected.data)) < 1e-5


# ---------------------------------------------------------------------------
# criterion 3: metric algebra on 1000 random mask pairs
# ---------------------------------------------------------------------------


def test_criterion_3_metric_oracle():
    with criterion(3, "Dice/IoU identity on 1000 random 16x16 pairs"):
        rng = Rng(123)
        for _ in range(1000):
            pred = (rng.random((16, 16)) > 0.5).astype(np.float64)
            gt = (rng.random((16, 16)) > 0.5).astype(np.float64)
            dice = dice_score(pred, gt)
            iou = iou_score(pred, gt)
            assert dice >= iou
            assert abs(dice - 2.0 * iou / (1.0 + iou)) < 1e-12
        ident = (rng.random((16, 16)) > 0.5).astype(np.float64)
        assert dice_score(ident, ident) == 1.0
        assert iou_score(ident, ident) == 1.0


# ---------------------------------------------------------------------------
# criterion 4: optimizer against the scalar recurrence
# ---------------------------------------------------------------------------


def test_criterion_4_optimizer_oracle():
    with criterion(4, "Adam matches scalar recurrence for 1000 steps"):
        store = {"theta": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState.for_store(store)
        rng = Rng(55)
        grads = rng.normal((1000,), dtype=T.F64)

        m = v = 0.0
        theta = 0.0
        worst = 0.0
        for t, g in enumerate(grads, start=1):
            store["theta"].grad = np.array([float(g)])
            adam_step(store, state, lr=1e-3)
            m = 0.9 * m + 0.1 * float(g)
            v = 0.999 * v + 0.001 * float(g) ** 2
            theta -= 1e-3 * (m / (1 - 0.9 ** t)) \
                / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            worst = max(worst, abs(theta - float(store["theta"].data[0])))
        assert worst < 1e-12

        # bias-corrected first step for g=1 is -lr/(1+eps)
        store2 = {"theta": Tensor(np.array([0.0]), requires_grad=True)}
        state2 = AdamState.for_store(store2)
        store2["theta"].grad = np.array([1.0])
        adam_step(store2, state2, lr=1e-3)
        assert abs(store2["theta"].data[0] - (-1e-3 / (1 + 1e-8))) < 1e-15


# ---------------------------------------------------------------------------
# criterion 5: overfit sanity and ablation direction
# ---------------------------------------------------------------------------

OVERFIT_STEPS = 200


def overfit_run(sa2_enabled):
    """Train the full model or the ablation; (Dice, loss trace, seconds)."""
    spec = SynthSpec(seed=7)
    dataset = [gen_sample(spec, i) for i in range(8)]
    cfg = ModelConfig(in_channels=1, channels=64, input_size=(64, 64),
                      seed=1, sa2_enabled=sa2_enabled)
    tcfg = TrainConfig(lr=1e-3, batch_size=4, steps=OVERFIT_STEPS, seed=0)
    started = time.time()
    result = train(cfg, tcfg, dataset)
    elapsed = time.time() - started
    scores = []
    with T.no_grad():
        for s in dataset:
            image = Tensor(s.image.data[None])
            out = model_forward(image, result.store, cfg)
            mask = threshold_mask(out.probability_map().data, 0.5)
            scores.append(dice_score(mask[0], s.mask.data))
    return float(np.mean(scores)), result.trace, elapsed


@pytest.fixture(scope="module")
def overfit_runs():
    # The two trainings run side by side, each in its own interpreter with
    # BLAS pinned to one thread before numpy loads and warnings as errors.
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = ("import json, sys, test_acceptance as t; "
             "json.dump(t.overfit_run(sys.argv[1] == 'full'), sys.stdout)")
    runs = [subprocess.Popen([sys.executable, "-W", "error", "-c", child, arm],
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for arm in ("full", "ablated")]
    results = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=1800)
            assert run.returncode == 0, err
            results.append(json.loads(out))
    finally:
        for run in runs:
            run.kill()
    (full_dice, full_trace, full_time), (ablated_dice, _, _) = results
    return full_dice, full_trace, full_time, ablated_dice


def test_criterion_5_overfit_sanity(overfit_runs):
    with criterion(5, "overfit Dice >= 0.95 in budget; ablation direction"):
        full_dice, full_trace, full_time, ablated_dice = overfit_runs
        assert full_dice >= 0.95, f"training Dice {full_dice:.4f}"
        assert full_time < 600.0, f"overfit run took {full_time:.0f}s"
        assert ablated_dice - full_dice <= 0.02, \
            f"ablated {ablated_dice:.4f} vs full {full_dice:.4f}"

        values = [v for _, v in full_trace]
        assert all(math.isfinite(v) for v in values)
        moving = [float(np.mean(values[i - 19:i + 1])) for i in range(19, 100)]
        violations = sum(1 for a, b in zip(moving, moving[1:]) if b >= a)
        assert violations <= 2, f"{violations} moving-average violations"


# ---------------------------------------------------------------------------
# criterion 6: determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_6_determinism_and_persistence(tmp_path):
    with criterion(6, "byte-identical runs; save/load/save; fingerprints"):
        spec = SynthSpec(height=32, width=32, cell_count_range=(1, 3),
                         radius_range=(3.0, 6.0), seed=11)
        dataset = [gen_sample(spec, i) for i in range(4)]
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=4)
        tcfg = TrainConfig(steps=5, batch_size=2, seed=6, augment=True)

        first = tmp_path / "run1.sa2c"
        second = tmp_path / "run2.sa2c"
        train(cfg, tcfg, dataset, out_path=first)
        train(cfg, tcfg, dataset, out_path=second)
        assert first.read_bytes() == second.read_bytes()

        third = tmp_path / "resaved.sa2c"
        store, loaded_cfg, _ = load_checkpoint(first)
        save_checkpoint(third, store, loaded_cfg)
        assert third.read_bytes() == first.read_bytes()

        other = ModelConfig(in_channels=1, channels=16, input_size=(32, 32),
                            seed=4)
        mismatched = tmp_path / "other.sa2c"
        save_checkpoint(mismatched, init_model_params(other), other)
        with pytest.raises(IncompatibleCheckpointError):
            evaluate([first, mismatched], dataset)


# ---------------------------------------------------------------------------
# criterion 7: format round-trips and integrity failures
# ---------------------------------------------------------------------------


def test_criterion_7_format_round_trips(tmp_path):
    with criterion(7, "blob/PGM round-trips; corruption -> exit 2"):
        rng = Rng(77)
        tensor = Tensor(rng.normal((2, 3, 5, 4), dtype=T.F64))
        blob = tmp_path / "t.sa2t"
        T.save_tensor(blob, tensor)
        assert T.load_tensor(blob).data.tobytes() == tensor.data.tobytes()

        mask = gen_sample(SynthSpec(seed=3), 0).mask
        pgm = tmp_path / "m.pgm"
        write_pgm(mask, pgm)
        assert np.array_equal(read_pgm(pgm).data, mask.data)

        raw = blob.read_bytes()
        blob.write_bytes(raw[:-5])
        with pytest.raises(IntegrityError):
            T.load_tensor(blob)

        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        sane = ckpt.read_bytes()
        ckpt.write_bytes(sane[:len(sane) // 3])

        data_dir = tmp_path / "data"
        spec_file = tmp_path / "synth.cfg"
        spec_file.write_text("synth.height = 32\nsynth.width = 32\n"
                             "synth.radius_min = 3\nsynth.radius_max = 6\n")
        assert cli(["synth", "--spec", str(spec_file), "--out", str(data_dir),
                    "--count", "1"]) == 0
        assert cli(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                    "--report", str(tmp_path / "r.tsv")]) == 2

        bad_pgm = tmp_path / "bad.pgm"
        bad_pgm.write_bytes(b"P5\n32 32\n255\n" + bytes(3))
        good_ckpt = tmp_path / "good.sa2c"
        save_checkpoint(good_ckpt, init_model_params(cfg), cfg)
        assert cli(["predict", "--ckpt", str(good_ckpt),
                    "--image", str(bad_pgm),
                    "--out", str(tmp_path / "o.pgm")]) == 2


# ---------------------------------------------------------------------------
# criterion 8: ensemble-of-copies contract
# ---------------------------------------------------------------------------


def test_criterion_8_ensemble_contract(tmp_path):
    with criterion(8, "k-copy ensemble equals single-checkpoint report"):
        spec = SynthSpec(height=32, width=32, cell_count_range=(1, 3),
                         radius_range=(3.0, 6.0), seed=19)
        dataset = [gen_sample(spec, i) for i in range(3)]
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=9)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        single = evaluate([ckpt], dataset)
        ensembled = evaluate([ckpt] * 4, dataset)
        assert single.entries == ensembled.entries
        assert single.threshold == ensembled.threshold
