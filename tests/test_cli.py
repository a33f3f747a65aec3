"""Command-line surface: subcommand flows and exit-code mapping."""

import contextlib
import io
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import sa2net
import sa2net.cli
import sa2net.tensor as T
import sa2net.training
from sa2net.cli import cli
from sa2net.config import TRAIN_SECTIONS, model_config_from, \
    parse_config_text, train_config_from
from sa2net.data import SynthSpec, gen_sample, load_dataset, read_pgm, \
    write_pgm
from sa2net.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DivergenceError,
    GeometryError,
    IncompatibleCheckpointError,
    IntegrityError,
    ParseError,
    ValidationError,
)
from sa2net.metrics import threshold_mask
from sa2net.model import ModelConfig, init_model_params, load_checkpoint, \
    save_checkpoint
from sa2net.training import infer, train

SYNTH_SPEC = """
# desk-scale synthetic corpus
synth.height = 32
synth.width = 32
synth.cells_min = 1
synth.cells_max = 3
synth.radius_min = 3
synth.radius_max = 6
synth.seed = 17
"""

TRAIN_CONFIG = """
model.channels = 8
model.seed = 2
lsa.kernel_sizes = 1,3,5,7
train.lr = 0.001
train.batch_size = 2
train.steps = 2
train.seed = 5
"""


def _checkpoint_with_config(tmp_path, old: bytes, new: bytes):
    """A valid checkpoint whose config text has ``old`` replaced by ``new``."""
    cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
    ckpt = tmp_path / "model.sa2c"
    save_checkpoint(ckpt, init_model_params(cfg), cfg)
    raw = ckpt.read_bytes()
    (cfg_len,) = struct.unpack("<I", raw[5:9])
    text = raw[9:9 + cfg_len].replace(old, new)
    ckpt.write_bytes(raw[:5] + struct.pack("<I", len(text)) + text
                     + raw[9 + cfg_len:])
    return ckpt


def _adam_section(store) -> bytes:
    """The optimizer section version-1 checkpoints could end in: magic,
    u64 step, u32 count, then per parameter its name and two moments."""
    section = io.BytesIO()
    section.write(b"ADAM" + struct.pack("<QI", 7, len(store)))
    for name, p in store.items():
        section.write(struct.pack("<H", len(name)) + name.encode())
        T.write_tensor(section, p)
        T.write_tensor(section, p)
    return section.getvalue()


def _bad_manifest_image(workspace, pixels):
    """Overwrite the dataset's second image with ``pixels``; its path."""
    image = workspace / "data" / "img_00001.sa2t"
    T.save_tensor(image, T.Tensor(pixels))
    return image


def _mixed_shape_sample(workspace, part):
    """Give the 32x32 dataset's second sample a 16x16 ``part`` (image or
    mask); its path."""
    if part == "image":
        return _bad_manifest_image(workspace,
                                   np.full((1, 16, 16), 0.5, np.float32))
    mask = workspace / "data" / "mask_00001.pgm"
    write_pgm(np.zeros((16, 16)), mask)
    return mask


def _dataset_of_shape(directory, shape, count=2):
    """A dataset of ``count`` random images of ``shape`` (C, H, W) with
    empty masks; its directory."""
    directory.mkdir()
    lines = []
    for i in range(count):
        pixels = T.Rng(i).random(shape).astype(np.float32)
        T.save_tensor(directory / f"img_{i}.sa2t", T.Tensor(pixels))
        write_pgm(np.zeros(shape[1:]), directory / f"mask_{i}.pgm")
        lines.append(f"{i}\timg_{i}.sa2t\tmask_{i}.pgm")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")
    return directory


def _swap(entries, a, b):
    i, j = ([n for n, _ in entries].index(x) for x in (a, b))
    entries[i], entries[j] = entries[j], entries[i]


def _replace(entries, name, data):
    entries[[n for n, _ in entries].index(name)] = (name, T.Tensor(data))


# What ``train`` prints when its final parameters overflow the forward.
_OVERFLOWED_FORWARD = ("non-finite logits after step 0: the final parameters "
                       "overflow the forward pass; final checkpoint not "
                       "written")

# A finite f32 that no initial parameter holds, poisoned after saving.
_MARK = np.float32(-1234.5)

# Checkpoints whose tensors do not match their config's parameter table or
# are not finite: (edit of the (name, tensor) list, what stderr must name).
MALFORMED = {
    "extra_tensor": (lambda e: e.append(
        ("extra.weight", T.Tensor(np.zeros(3, np.float32)))), "extra.weight"),
    "swapped_entries": (lambda e: _swap(e, "enc1.norm1.gamma",
                                        "enc1.norm1.beta"),
                        "enc1.norm1.gamma"),
    "wrong_kernel": (lambda e: _replace(e, "enc1.conv.weight",
                                        np.zeros((8, 8, 5, 5), np.float32)),
                     "enc1.conv.weight"),
    "long_bias": (lambda e: _replace(e, "head1.bias",
                                     np.zeros(9, np.float32)), "head1.bias"),
    "mixed_dtype": (lambda e: _replace(e, "enc2.proj.weight",
                                       np.zeros((8, 8, 1, 1), np.float64)),
                    "enc2.proj.weight"),
    "nan_bias": (lambda e: _replace(e, "head1.bias", np.full(1, _MARK)),
                 "parameter 'head1.bias' holds non-finite values"),
    "inf_bias": (lambda e: _replace(e, "head1.bias", np.full(1, _MARK)),
                 "parameter 'head1.bias' holds non-finite values"),
}
# The written value of each poisoned entry's _MARK.
POISON = {"nan_bias": np.nan, "inf_bias": np.inf}


@pytest.fixture()
def model_calls(monkeypatch):
    """Names of every checkpoint load and ensemble forward the CLI makes."""
    calls = []
    for module in (sa2net.cli, sa2net.training):
        for name in ("load_checkpoint", "infer"):
            real = getattr(module, name)

            def recorded(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture()
def workspace(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG)
    data = tmp_path / "data"
    assert cli(["synth", "--spec", str(spec), "--out", str(data),
                "--count", "4"]) == 0
    return tmp_path


class TestSynth:
    def test_manifest_counts_and_files(self, workspace):
        manifest = (workspace / "data" / "manifest.txt").read_text()
        lines = manifest.splitlines()
        assert len(lines) == 4
        for line in lines:
            _, image_name, mask_name = line.split("\t")
            assert (workspace / "data" / image_name).exists()
            assert (workspace / "data" / mask_name).exists()


class TestTrainEvalPredict:
    def test_full_flow(self, workspace, capsys):
        ckpt = workspace / "model.sa2c"
        log = workspace / "trace.log"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt), "--log", str(log)]) == 0
        assert ckpt.exists()
        assert len(log.read_text().splitlines()) == 2

        report = workspace / "report.tsv"
        assert cli(["eval", "--ckpt", str(ckpt),
                    "--data", str(workspace / "data"),
                    "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            sid, dice, iou = line.split("\t")
            assert 0.0 <= float(dice) <= 1.0 and 0.0 <= float(iou) <= 1.0
        assert "dice" in capsys.readouterr().out

        image = (workspace / "data" / "img_00000.sa2t")
        out_mask = workspace / "pred.pgm"
        assert cli(["predict", "--ckpt", str(ckpt), "--image", str(image),
                    "--out", str(out_mask)]) == 0
        predicted = read_pgm(out_mask)
        assert predicted.shape == (1, 32, 32)
        assert np.all((predicted.data == 0.0) | (predicted.data == 1.0))

    def test_eval_rejects_mismatched_fingerprints(self, workspace, tmp_path):
        cfg_a = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        cfg_b = ModelConfig(in_channels=1, channels=16, input_size=(32, 32), seed=1)
        a = tmp_path / "a.sa2c"
        b = tmp_path / "b.sa2c"
        save_checkpoint(a, init_model_params(cfg_a), cfg_a)
        save_checkpoint(b, init_model_params(cfg_b), cfg_b)
        code = cli(["eval", "--ckpt", f"{a},{b}",
                    "--data", str(workspace / "data"),
                    "--report", str(tmp_path / "r.tsv")])
        assert code == 1
        assert not (tmp_path / "r.tsv").exists()

    def test_corrupt_checkpoint_exits_two(self, workspace, tmp_path):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 40])
        code = cli(["eval", "--ckpt", str(path),
                    "--data", str(workspace / "data"),
                    "--report", str(tmp_path / "r.tsv")])
        assert code == 2

    def test_predict_mask_is_thresholded_infer(self, workspace, tmp_path):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        image_path = workspace / "data" / "img_00000.sa2t"
        store, loaded_cfg, _ = load_checkpoint(ckpt)
        prob = infer([(store, loaded_cfg)], T.load_tensor(image_path).data[None])
        # the median threshold gives a mask with both classes present
        threshold = float(np.median(prob))
        expected = threshold_mask(prob, threshold)[0, 0]
        assert 0 < expected.sum() < expected.size
        out_mask = tmp_path / "pred.pgm"
        assert cli(["predict", "--ckpt", str(ckpt), "--image", str(image_path),
                    "--out", str(out_mask), "--threshold", repr(threshold)]) == 0
        np.testing.assert_array_equal(read_pgm(out_mask).data[0], expected)

    @pytest.mark.parametrize("run", ["predict", "eval", "eval_after_valid"])
    @pytest.mark.parametrize("tail", ["bare", "adam"])
    def test_version_one_checkpoint_exits_two(self, workspace, tmp_path,
                                              capsys, model_calls, run, tail):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        store = init_model_params(cfg)
        valid = tmp_path / "valid.sa2c"
        save_checkpoint(valid, store, cfg)
        raw = bytearray(valid.read_bytes())
        raw[4] = 1
        if tail == "adam":
            raw += _adam_section(store)
        old = tmp_path / "old.sa2c"
        old.write_bytes(bytes(raw))
        out = tmp_path / "out"
        if run == "predict":
            argv = ["predict", "--ckpt", str(old), "--out", str(out),
                    "--image", str(workspace / "data" / "img_00000.sa2t")]
        else:
            ckpts = str(old) if run == "eval" else f"{valid},{old}"
            argv = ["eval", "--ckpt", ckpts, "--report", str(out),
                    "--data", str(workspace / "data")]
        code = cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported checkpoint version 1" in err
        assert "Traceback" not in err
        assert not out.exists()
        # eval compares every header before it loads any checkpoint
        assert model_calls == (["load_checkpoint"] if run == "predict"
                               else [])

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("corruption", ["magic", "extent", "truncated"])
    def test_corrupt_adam_blob_exits_two(self, workspace, tmp_path, capsys,
                                         command, corruption):
        # a version-2 file carrying the old optimizer section, its first
        # blob corrupted: the reader stops at the end of the parameters
        # and rejects the trailer as trailing bytes without parsing it
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        store = init_model_params(cfg)
        save_checkpoint(ckpt, store, cfg)
        params_end = ckpt.stat().st_size
        # ADAM magic, step, entry count, then the first entry's name
        blob_at = params_end + 4 + 8 + 4 + 2 + len(next(iter(store)))
        raw = bytearray(ckpt.read_bytes() + _adam_section(store))
        if corruption == "magic":
            raw[blob_at:blob_at + 4] = b"XXXX"
        elif corruption == "extent":
            # the first extent; the larger payload still fits the file
            raw[blob_at + 7] += 1
        else:
            raw = raw[:-8]
        ckpt.write_bytes(bytes(raw))
        out = tmp_path / "out"
        if command == "predict":
            args = ["--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(out)]
        else:
            args = ["--data", str(workspace / "data"), "--report", str(out)]
        code = cli([command, "--ckpt", str(ckpt)] + args)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"trailing bytes in checkpoint at byte {params_end}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "2", "-1", "0", "1"])
    def test_threshold_outside_unit_interval_exits_one(self, workspace,
                                                       tmp_path, capsys,
                                                       model_calls, command,
                                                       threshold):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        out = tmp_path / "out"
        if command == "predict":
            args = ["--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(out)]
        else:
            args = ["--data", str(workspace / "data"), "--report", str(out)]
        code = cli([command, "--ckpt", str(ckpt), "--threshold", threshold]
                   + args)
        err = capsys.readouterr().err
        assert code == 1
        assert "threshold" in err and "Traceback" not in err
        assert not out.exists()
        # rejected before any checkpoint is read or forward run
        assert model_calls == []

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_threshold_in_range_reaches_the_model(self, workspace, tmp_path,
                                                  model_calls, command):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        out = tmp_path / "out"
        if command == "predict":
            args = ["--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(out)]
        else:
            args = ["--data", str(workspace / "data"), "--report", str(out)]
        assert cli([command, "--ckpt", str(ckpt), "--threshold", "0.3"]
                   + args) == 0
        # the four images fit one eval batch: one load, one forward
        assert model_calls == ["load_checkpoint", "infer"]

    def test_eval_on_empty_manifest_exits_one(self, tmp_path, capsys,
                                              model_calls):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        data = tmp_path / "empty"
        data.mkdir()
        (data / "manifest.txt").write_text("")
        report = tmp_path / "r.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli(["eval", "--ckpt", str(ckpt), "--data", str(data),
                        "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 1
        assert "dataset is empty" in captured.err
        assert "Traceback" not in captured.err and "nan" not in captured.out
        assert model_calls == []
        assert not report.exists()

    def test_non_integer_checkpoint_config_exits_one(self, workspace, tmp_path,
                                                     capsys):
        ckpt = _checkpoint_with_config(tmp_path, b"seed = 1", b"seed = x0")
        code = cli(["predict", "--ckpt", str(ckpt),
                    "--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(tmp_path / "m.pgm")])
        err = capsys.readouterr().err
        assert code == 1
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("old, new, expected, named", [
        (b"seed = 1", b"seed = \xff", 2, "UTF-8"),
        (b"sa2_enabled = true", b"sa2_enabled = True", 1, "sa2_enabled"),
        (b"sa2_enabled = true", b"sa2_enabled = no!!", 1, "sa2_enabled"),
        (b"stages = 4\n", b"stages = 4\ngarbage line\n", 2, "lacks '='"),
        (b"stages = 4\n", b"stages = 4\nchannels = 64\n", 2,
         "repeats key 'channels'"),
        (b"stages = 4\n", b"stages = 4\nfoo = bar\n", 1, "unknown keys"),
        (b"stages = 4\n", b"stages = 4\nfoo = 1\n", 1, "foo"),
    ])
    def test_bad_checkpoint_config_text_exits_cleanly(self, workspace, tmp_path,
                                                     capsys, old, new,
                                                     expected, named):
        ckpt = _checkpoint_with_config(tmp_path, old, new)
        code = cli(["predict", "--ckpt", str(ckpt),
                    "--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(tmp_path / "m.pgm")])
        err = capsys.readouterr().err
        assert code == expected
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "m.pgm").exists()

    def test_non_finite_pixel_exits_one(self, tmp_path, capsys):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        pixels = np.full((1, 32, 32), 0.5, dtype=np.float32)
        pixels[0, 3, 4] = np.nan
        image = tmp_path / "nan.sa2t"
        T.save_tensor(image, T.Tensor(pixels))
        code = cli(["predict", "--ckpt", str(ckpt), "--image", str(image),
                    "--out", str(tmp_path / "m.pgm")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("pixels, named", [
        (np.full((1, 32, 32), np.nan, np.float32), "non-finite"),
        (np.full((32, 32), 0.5, np.float32), "C x H x W"),
    ])
    def test_eval_rejects_bad_manifest_image(self, workspace, tmp_path,
                                             capsys, model_calls, pixels,
                                             named):
        image = _bad_manifest_image(workspace, pixels)
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        report = tmp_path / "r.tsv"
        code = cli(["eval", "--ckpt", str(ckpt),
                    "--data", str(workspace / "data"),
                    "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 1
        assert str(image) in err and named in err
        assert model_calls == []
        assert not report.exists()

    def test_train_rejects_non_finite_manifest_image(self, workspace, capsys):
        image = _bad_manifest_image(
            workspace, np.full((1, 32, 32), np.nan, np.float32))
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(image) in err and "non-finite" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("part", ["image", "mask"])
    def test_eval_rejects_mixed_shapes(self, workspace, tmp_path, capsys,
                                       model_calls, part):
        path = _mixed_shape_sample(workspace, part)
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        report = tmp_path / "r.tsv"
        code = cli(["eval", "--ckpt", str(ckpt),
                    "--data", str(workspace / "data"),
                    "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{part} {path} is (1, 16, 16)" in err
        assert model_calls == []
        assert not report.exists()

    @pytest.mark.parametrize("part", ["image", "mask"])
    def test_train_rejects_mixed_shapes(self, workspace, capsys, part):
        path = _mixed_shape_sample(workspace, part)
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt)]) == 1
        assert f"{part} {path} is (1, 16, 16)" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_train_takes_the_input_shape_from_the_data(self, workspace,
                                                       tmp_path):
        data = _dataset_of_shape(tmp_path / "rgb", (3, 32, 32))
        ckpt = tmp_path / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(data), "--out", str(ckpt)]) == 0
        raw = ckpt.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        text = raw[9:9 + cfg_len].decode()
        assert "in_channels = 3\ninput_h = 32\ninput_w = 32\n" in text
        _, cfg, _ = load_checkpoint(ckpt)
        assert (cfg.in_channels, cfg.input_size) == (3, (32, 32))

    def test_train_rejects_an_image_size_the_encoder_cannot_take(
            self, workspace, tmp_path, capsys):
        data = _dataset_of_shape(tmp_path / "odd", (1, 40, 40))
        ckpt = tmp_path / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(data), "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "divisible by 16, got 40x40" in err and "Traceback" not in err
        assert not ckpt.exists()

    def test_train_on_empty_manifest_exits_one(self, workspace, tmp_path,
                                               capsys):
        data = _dataset_of_shape(tmp_path / "empty", (1, 32, 32), count=0)
        ckpt = tmp_path / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(data), "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "dataset is empty" in err and "Traceback" not in err
        assert not ckpt.exists()

    def test_missing_checkpoint_parameter_exits_two(self, workspace, tmp_path,
                                                    capsys):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        store = init_model_params(cfg)
        del store["head1.bias"]
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, store, cfg)
        code = cli(["predict", "--ckpt", str(ckpt),
                    "--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(tmp_path / "m.pgm")])
        err = capsys.readouterr().err
        assert code == 2
        assert "head1.bias" in err and "Traceback" not in err
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("malformed", sorted(MALFORMED))
    def test_malformed_checkpoint_exits_two(self, workspace, tmp_path, capsys,
                                            command, malformed):
        edit, named = MALFORMED[malformed]
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        entries = list(init_model_params(cfg).items())
        edit(entries)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, dict(entries), cfg)
        if malformed in POISON:
            # save_checkpoint refuses non-finite tensors: poison the file
            raw = ckpt.read_bytes()
            assert raw.count(_MARK.tobytes()) == 1
            ckpt.write_bytes(raw.replace(
                _MARK.tobytes(), np.float32(POISON[malformed]).tobytes()))
        out = tmp_path / "out"
        if command == "predict":
            argv = ["predict", "--ckpt", str(ckpt), "--out", str(out),
                    "--image", str(workspace / "data" / "img_00000.sa2t")]
        else:
            argv = ["eval", "--ckpt", str(ckpt), "--report", str(out),
                    "--data", str(workspace / "data")]
        code = cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_config_exits_two(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(TRAIN_CONFIG.encode().replace(b"model.seed = 2",
                                                      b"model.seed = \xff"))
        offset = cfg.read_bytes().index(b"\xff")
        code = cli(["train", "--config", str(cfg),
                    "--data", str(workspace / "data"),
                    "--out", str(tmp_path / "m.sa2c")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{cfg} is not UTF-8 at byte {offset}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.sa2c").exists()

    def test_non_utf8_manifest_exits_two(self, workspace, tmp_path, capsys):
        manifest = workspace / "data" / "manifest.txt"
        raw = manifest.read_bytes().replace(b"img_00001", b"img_\xff0001")
        manifest.write_bytes(raw)
        offset = raw.index(b"\xff")
        code = cli(["eval", "--ckpt", str(tmp_path / "absent.sa2c"),
                    "--data", str(workspace / "data"),
                    "--report", str(tmp_path / "r.tsv")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"manifest.txt is not UTF-8 at byte {offset}" in err
        assert "Traceback" not in err

    def test_non_integer_manifest_index_exits_two(self, workspace, tmp_path,
                                                  capsys):
        manifest = workspace / "data" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[1] = "x\t" + lines[1].split("\t", 1)[1]
        manifest.write_text("\n".join(lines) + "\n")
        code = cli(["eval", "--ckpt", str(tmp_path / "absent.sa2c"),
                    "--data", str(workspace / "data"),
                    "--report", str(tmp_path / "r.tsv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "manifest line 2" in err and "Traceback" not in err

    def test_corrupt_image_exits_two(self, workspace, tmp_path):
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt)]) == 0
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n32 32\n255\n" + bytes(10))
        assert cli(["predict", "--ckpt", str(ckpt), "--image", str(bad),
                    "--out", str(tmp_path / "m.pgm")]) == 2


class TestGradcheckCommand:
    def test_subset_table_and_exit_zero(self, capsys):
        code = cli(["gradcheck", "--module", "losses", "--seeds", "1",
                    "--tol", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "weighted_bce" in out and "max_err" in out and "ok" in out

    def test_f32_env_rejected(self, monkeypatch, capsys):
        # gradcheck runs in f64 only: every other set value is rejected
        for name in ("f32", "f16", "F64"):
            monkeypatch.setenv("SA2NET_DTYPE", name)
            assert cli(["gradcheck", "--seeds", "1"]) == 1
            assert "SA2NET_DTYPE=f64" in capsys.readouterr().err

    def test_unknown_module_rejected(self):
        assert cli(["gradcheck", "--module", "nonsense", "--seeds", "1"]) == 1

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_rejected(self, capsys, seeds):
        assert cli(["gradcheck", "--module", "losses", "--seeds", seeds]) == 1
        err = capsys.readouterr().err
        assert "seeds" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tolerance_outside_positive_reals_rejected(self, capsys, tol):
        assert cli(["gradcheck", "--module", "losses", "--seeds", "1",
                    "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err and "Traceback" not in captured.err


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a valid C=8, 32x32 checkpoint and an image it
    can predict, as a tensor blob and as a PGM, each named by its key in
    the returned dict of their bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
    save_checkpoint(root / "checkpoint", init_model_params(cfg), cfg)
    image = gen_sample(SynthSpec(height=32, width=32), 0).image
    T.save_tensor(root / "blob", image)
    write_pgm(image, root / "pgm")
    return root, {name: (root / name).read_bytes()
                  for name in ("checkpoint", "blob", "pgm")}


class TestReaderFuzz:
    @pytest.mark.parametrize("target", ["checkpoint", "blob", "pgm"])
    @settings(max_examples=400, deadline=None, database=None)
    @given(edit=st.sampled_from(["truncate", "flip", "insert"]),
           at=st.integers(min_value=0), value=st.integers(0, 255))
    def test_mutated_file_exits_cleanly(self, fuzz_inputs, target, edit, at,
                                        value):
        root, valid = fuzz_inputs
        raw = bytearray(valid[target])
        at %= len(raw)
        if edit == "truncate":
            del raw[at:]
        elif edit == "flip":
            raw[at] ^= 1 << (value % 8)
        else:
            raw.insert(at, value)
        paths = {name: root / name for name in valid}
        paths[target] = root / f"mutated_{target}"
        paths[target].write_bytes(bytes(raw))
        image = paths["pgm" if target == "pgm" else "blob"]
        err = io.StringIO()
        # an uncaught exception (a traceback) or a warning fails the run
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli(["predict", "--ckpt", str(paths["checkpoint"]),
                        "--image", str(image), "--out", str(root / "mask")])
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert (code == 0) == (err.getvalue() == "")


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (ValidationError, 1), (ConfigError, 1), (ContractError, 1),
        (DimensionError, 1), (GeometryError, 1),
        (IncompatibleCheckpointError, 1), (IntegrityError, 2),
        (ParseError, 2), (DivergenceError, 2), (OSError, 2),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_error_class_sets_exit_code(self, monkeypatch, capsys, error,
                                        code):
        def fail(args):
            raise error("planted failure")

        monkeypatch.setitem(sa2net.cli._COMMANDS, "synth", fail)
        assert cli(["synth", "--spec", "s", "--out", "o",
                    "--count", "1"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: planted failure\n"


    def test_debug_switch_reports_divergence_with_exit_two(self, workspace):
        # a fresh process, so SA2NET_DEBUG is read when the package loads
        cfg = workspace / "diverge.cfg"
        cfg.write_text(TRAIN_CONFIG.replace("train.lr = 0.001",
                                            "train.lr = 1e30"))
        ckpt = workspace / "model.sa2c"
        src = str(pathlib.Path(sa2net.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "sa2net.cli", "train", "--config", str(cfg),
             "--data", str(workspace / "data"), "--out", str(ckpt)],
            env=dict(os.environ, SA2NET_DEBUG="1", PYTHONPATH=path),
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 2
        assert "error: non-finite values produced by a forward op" in run.stderr
        assert "Traceback" not in run.stderr
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_overflowing_checkpoint_exits_two(self, workspace, capsys,
                                              command):
        # one step at lr 1e30 leaves finite parameters near 1e30, which
        # overflow every later forward; ``train`` refuses to save them
        values = parse_config_text(
            TRAIN_CONFIG.replace("train.lr = 0.001", "train.lr = 1e30")
            .replace("train.steps = 2", "train.steps = 1"), TRAIN_SECTIONS)
        dataset = load_dataset(workspace / "data")
        model_cfg = model_config_from(values, dataset[0].image.shape)
        ckpt = workspace / "model.sa2c"
        save_checkpoint(ckpt, train(model_cfg, train_config_from(values),
                                    dataset).store, model_cfg)
        out = workspace / "out"
        if command == "predict":
            args = ["--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(out)]
        else:
            args = ["--data", str(workspace / "data"), "--report", str(out)]
        assert cli([command, "--ckpt", str(ckpt)] + args) == 2
        assert capsys.readouterr().err == (
            "error: non-finite probability map: the forward pass overflowed\n")
        assert not out.exists()

    @pytest.mark.parametrize("lr, steps, every, message", [
        ("1e39", 1, 0, "parameter 'enc1.down.weight' holds non-finite "
                       "values; no checkpoint written"),
        ("1e30", 2, 0, "non-finite loss at step 1"),
        # finite parameters near 1e30 pass the save's own check
        ("1e30", 1, 0, _OVERFLOWED_FORWARD),
        ("1e30", 1, 1, _OVERFLOWED_FORWARD),
    ], ids=["overflowed_parameters", "overflowed_loss", "overflowed_forward",
            "overflowed_forward_with_snapshots"])
    def test_diverging_train_exits_two(self, workspace, capsys, lr, steps,
                                       every, message):
        cfg = workspace / "diverge.cfg"
        cfg.write_text(TRAIN_CONFIG.replace("train.lr = 0.001", f"train.lr = {lr}")
                       .replace("train.steps = 2", f"train.steps = {steps}")
                       + f"train.checkpoint_every = {every}\n")
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(cfg), "--data",
                    str(workspace / "data"), "--out", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists()
        assert not (workspace / "model.sa2c.tmp").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 74.5 GiB for an array with shape "
         "(100000, 100000) and data type float64",
         "error: out of memory: Unable to allocate 74.5 GiB for an array "
         "with shape (100000, 100000) and data type float64\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_two(self, monkeypatch, tmp_path, capsys,
                                    message, line):
        # what a synth spec of 100000 x 100000 pixels ends in, without
        # allocating it
        def fail(*args):
            raise MemoryError(message)

        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        monkeypatch.setattr(sa2net.cli, "write_dataset", fail)
        assert cli(["synth", "--spec", str(spec), "--out",
                    str(tmp_path / "data"), "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    def test_train_into_a_directory_fails_before_the_first_step(
            self, workspace, capsys):
        out, log = workspace / "ckpts", workspace / "trace.log"
        out.mkdir()
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"), "--out", str(out),
                    "--log", str(log)]) == 2
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: '{out}'\n"
        assert not log.exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("parent_is_file, reason", [
        (False, "[Errno 2] No such file or directory"),
        (True, "[Errno 20] Not a directory")])
    def test_train_without_a_directory_to_write_fails_before_the_first_step(
            self, workspace, capsys, parent_is_file, reason):
        parent, log = workspace / "parent", workspace / "trace.log"
        if parent_is_file:
            parent.write_text("x")
        assert cli(["train", "--config", str(workspace / "train.cfg"),
                    "--data", str(workspace / "data"),
                    "--out", str(parent / "model.sa2c"),
                    "--log", str(log)]) == 2
        assert capsys.readouterr().err == f"error: {reason}: '{parent}'\n"
        assert not log.exists()
        assert parent.is_file() == parent_is_file
        assert not parent.is_dir()


class TestUsage:
    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        code = cli(["synth", "--bogus"])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage" in captured.err.lower()

    def test_missing_subcommand(self, capsys):
        assert cli([]) == 1

    def test_missing_config_file_maps_to_io_error(self, tmp_path):
        code = cli(["synth", "--spec", str(tmp_path / "absent.cfg"),
                    "--out", str(tmp_path / "d"), "--count", "1"])
        assert code == 2

    def test_bad_config_value_exits_one(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("synth.height = many\n")
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", "1"]) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exits_one(self, tmp_path, capsys, count):
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", count]) == 1
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_zero_eccentricity_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "flat.cfg"
        spec.write_text("synth.ecc_min = 0\n")
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", "1"]) == 1
        assert "eccentricity_range" in capsys.readouterr().err
        assert not (tmp_path / "d" / "manifest.txt").exists()

    @pytest.mark.parametrize("line, field", [
        ("synth.height = 0", "height"),
        ("synth.height = -16", "height"),
        ("synth.width = 0", "width"),
        ("synth.radius_max = inf", "radius_range"),
        ("synth.ecc_max = inf", "eccentricity_range"),
        ("synth.fg_min = nan", "intensity_fg"),
        ("synth.bg_max = -inf", "intensity_bg"),
        ("synth.noise_std = nan", "noise_std"),
    ])
    def test_bad_synth_spec_exits_one(self, tmp_path, capsys, line, field):
        spec = tmp_path / "bad.cfg"
        spec.write_text(line + "\n")
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", "1"]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr_exits_one(self, workspace, capsys, lr):
        cfg = workspace / "lr.cfg"
        cfg.write_text(TRAIN_CONFIG.replace("train.lr = 0.001",
                                            f"train.lr = {lr}"))
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(cfg),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt)]) == 1
        assert "lr must be positive and finite" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_negative_checkpoint_every_exits_one(self, workspace, capsys):
        cfg = workspace / "neg.cfg"
        cfg.write_text(TRAIN_CONFIG + "train.checkpoint_every = -2\n")
        ckpt = workspace / "model.sa2c"
        assert cli(["train", "--config", str(cfg),
                    "--data", str(workspace / "data"),
                    "--out", str(ckpt)]) == 1
        assert "checkpoint_every" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_unknown_config_key_exits_one(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("synth.heigth = 32\n")
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", "1"]) == 1
