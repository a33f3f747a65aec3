"""Config files: dataclass defaults, key tables and per-command key checks."""

import pathlib
import re

import pytest

from sa2net.cli import cli
from sa2net.config import (
    _KEYS,
    SYNTH_SECTIONS,
    TRAIN_SECTIONS,
    model_config_from,
    parse_config_text,
    synth_spec_from,
    train_config_from,
)
from sa2net.data import SynthSpec
from sa2net.errors import ConfigError
from sa2net.model import ModelConfig, param_specs
from sa2net.training import TrainConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_configs() -> tuple[str, str]:
    """The ``synth.cfg`` and ``train.cfg`` examples of the README."""
    text = README.read_text()
    start = text.index("# synth.cfg\n")
    block = text[start:text.index("```", start)]
    synth, train = block.split("# train.cfg\n")
    return synth, train


class TestDefaults:
    def test_empty_sections_give_dataclass_defaults(self):
        assert model_config_from({}, (1, 64, 64)) == ModelConfig()
        assert synth_spec_from({}) == SynthSpec()

    def test_steps_alone(self):
        assert train_config_from({"train.steps": "7"}) == TrainConfig(steps=7)

    def test_one_slot_of_a_pair_keeps_the_other_default(self):
        spec = synth_spec_from({"synth.cells_max": "12"})
        assert spec.cell_count_range == (SynthSpec.cell_count_range[0], 12)

    def test_input_shape_comes_from_the_images(self):
        cfg = model_config_from({"model.channels": "8"}, (3, 32, 48))
        assert (cfg.in_channels, cfg.input_size) == (3, (32, 48))
        with pytest.raises(ConfigError, match="divisible by 16, got 40x40"):
            model_config_from({}, (1, 40, 40))
        with pytest.raises(ConfigError, match="in_channels must be 1 or 3"):
            model_config_from({}, (2, 64, 64))

    def test_lsa_keys_follow_model_channels(self):
        cfg = model_config_from({"model.channels": "6",
                                 "lsa.kernel_sizes": "1,3,5"}, (1, 64, 64))
        assert (cfg.channels, cfg.lsa_kernel_sizes) == (6, (1, 3, 5))
        shapes = {name: shape for name, shape, _ in param_specs(cfg)}
        assert shapes["sa2.lsa1.g0.feat.weight"] == (2, 1, 1, 1)
        assert shapes["sa2.lsa1.g2.gate.weight"] == (2, 1, 5, 5)

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="synth.radius_min"):
            synth_spec_from({"synth.radius_min": "wide"})


class TestReadmeExamples:
    def test_synth_example_parses(self):
        synth, _ = _readme_configs()
        spec = synth_spec_from(parse_config_text(synth, SYNTH_SECTIONS))
        assert spec.seed == 7 and spec.cell_count_range == (3, 8)

    def test_train_example_parses(self):
        _, train = _readme_configs()
        values = parse_config_text(train, TRAIN_SECTIONS)
        assert model_config_from(values, (1, 64, 64)) == ModelConfig(seed=1)
        assert train_config_from(values) == TrainConfig(
            steps=200, augment=True)

    def test_examples_are_rejected_by_the_other_command(self):
        synth, train = _readme_configs()
        with pytest.raises(ConfigError, match="synth.seed"):
            parse_config_text(synth, TRAIN_SECTIONS)
        with pytest.raises(ConfigError, match="model.seed"):
            parse_config_text(train, SYNTH_SECTIONS)

    @pytest.mark.parametrize("command, sections", [
        ("train --config", TRAIN_SECTIONS),
        ("synth --spec", SYNTH_SECTIONS),
    ])
    def test_key_table_lists_exactly_the_accepted_keys(self, command,
                                                       sections):
        row = re.search(rf"^\| `{command}` \|(.*)\|$", README.read_text(),
                        re.MULTILINE)
        listed = re.findall(r"`([^`]+)`", row.group(1))
        assert len(listed) == len(set(listed))
        assert set(listed) == {f"{s}.{k}" for s in sections for k in _KEYS[s]}


class TestUnreadKeys:
    @pytest.mark.parametrize("command, key", [
        ("train", "modle.channels"),
        ("train", "synth.seed"),
        ("train", "train.beta1"),
        ("train", "train.deep_supervision"),
        ("train", "model.in_channels"),
        ("train", "model.input_h"),
        ("train", "model.input_w"),
        ("train", "lsa.groups"),
        ("synth", "synth.overlap_allowed"),
    ])
    def test_exits_one_naming_the_key(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        out = str(tmp_path / "out")
        if command == "train":
            cfg.write_text(f"train.steps = 1\n{key} = 1\n")
            argv = ["train", "--config", str(cfg), "--data", str(tmp_path),
                    "--out", out]
        else:
            cfg.write_text(f"synth.seed = 1\n{key} = 1\n")
            argv = ["synth", "--spec", str(cfg), "--count", "1", "--out", out]
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
