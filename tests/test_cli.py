"""Command-line surface: subcommand flows and exit-code mapping."""

import struct

import numpy as np
import pytest

import sa2net.tensor as T
from sa2net.cli import cli
from sa2net.data import read_pgm
from sa2net.metrics import threshold_mask
from sa2net.model import ModelConfig, init_model_params, load_checkpoint, \
    save_checkpoint
from sa2net.training import infer

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
model.in_channels = 1
model.channels = 8
model.input_h = 32
model.input_w = 32
model.seed = 2
lsa.groups = 4
lsa.kernel_sizes = 1,3,5,7
train.lr = 0.001
train.batch_size = 2
train.steps = 2
train.seed = 5
"""


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
        prob = infer([(store, loaded_cfg)], T.load_tensor(image_path))
        # the median threshold gives a mask with both classes present
        threshold = float(np.median(prob.data))
        expected = threshold_mask(prob, threshold).data[0, 0]
        assert 0 < expected.sum() < expected.size
        out_mask = tmp_path / "pred.pgm"
        assert cli(["predict", "--ckpt", str(ckpt), "--image", str(image_path),
                    "--out", str(out_mask), "--threshold", repr(threshold)]) == 0
        np.testing.assert_array_equal(read_pgm(out_mask).data[0], expected)

    def test_non_integer_checkpoint_config_exits_one(self, workspace, tmp_path,
                                                     capsys):
        cfg = ModelConfig(in_channels=1, channels=8, input_size=(32, 32), seed=1)
        ckpt = tmp_path / "model.sa2c"
        save_checkpoint(ckpt, init_model_params(cfg), cfg)
        raw = ckpt.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        text = raw[9:9 + cfg_len].replace(b"seed = 1", b"seed = x0")
        ckpt.write_bytes(raw[:5] + struct.pack("<I", len(text)) + text
                         + raw[9 + cfg_len:])
        code = cli(["predict", "--ckpt", str(ckpt),
                    "--image", str(workspace / "data" / "img_00000.sa2t"),
                    "--out", str(tmp_path / "m.pgm")])
        err = capsys.readouterr().err
        assert code == 1
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "m.pgm").exists()

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
        monkeypatch.setenv("SA2NET_DTYPE", "f32")
        assert cli(["gradcheck", "--seeds", "1"]) == 1

    def test_unknown_module_rejected(self):
        assert cli(["gradcheck", "--module", "nonsense", "--seeds", "1"]) == 1


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

    def test_unknown_config_key_exits_one(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("synth.heigth = 32\n")
        assert cli(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "d"), "--count", "1"]) == 1
