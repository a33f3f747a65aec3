"""Model assembly: geometry, determinism, parameter counts, checkpoints."""

import errno
import hashlib
import os

import numpy as np
import numpy.testing as npt
import pytest

import sa2net.model
import sa2net.tensor as T
from sa2net.blocks import STAGES
from sa2net.data import SynthSpec, gen_sample
from sa2net.errors import ConfigError, DivergenceError, \
    IncompatibleCheckpointError, IntegrityError
from sa2net.model import (
    ModelConfig,
    checkpoint_fingerprint,
    encoder_forward,
    init_model_params,
    load_checkpoint,
    model_forward,
    param_specs,
    save_checkpoint,
)
from sa2net.optim import AdamState
from sa2net.tensor import Rng, Tensor
from sa2net.training import evaluate
from test_blocks import scale_aware_attention_param_count, table_count


# Configs whose parameter tables the table tests walk: default, without
# scale-aware attention, and RGB with three LSA groups.
TABLE_CONFIGS = [
    ModelConfig(),
    ModelConfig(sa2_enabled=False),
    ModelConfig(in_channels=3, channels=12, lsa_kernel_sizes=(3, 3, 5)),
]


def small_cfg(**kw):
    defaults = dict(in_channels=1, channels=8, input_size=(32, 32), seed=5)
    defaults.update(kw)
    return ModelConfig(**defaults)


def fingerprint(cfg: ModelConfig) -> str:
    """SHA-256 of the canonical text: what a checkpoint header records."""
    return hashlib.sha256(cfg.canonical().encode()).hexdigest()


def model_param_count(cfg: ModelConfig) -> int:
    """Closed-form total parameter count: an oracle independent of the table."""
    c = cfg.channels
    enc_stage1 = (9 * c * cfg.in_channels + c) + 2 * c \
        + (9 * c * c + c) + 2 * c + (c * c + c)
    enc_rest = (9 * c * c + c) + 2 * c + (9 * c * c + c) + 2 * c + (c * c + c)
    total = enc_stage1 + (STAGES - 1) * enc_rest
    if cfg.sa2_enabled:
        total += scale_aware_attention_param_count(c, cfg.lsa_kernel_sizes)
    total += (9 * c * c + c) + 2 * c                      # deepest decoder
    total += (STAGES - 1) * ((c * c + c) + (18 * c * c + c) + 2 * c)
    total += STAGES * (c + 1)                             # heads
    return total


class TestModelConfig:
    def test_input_size_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(input_size=(60, 64))
        with pytest.raises(ConfigError, match="at least"):
            ModelConfig(input_size=(16, 16))

    def test_lsa_defaults_to_model_channels(self):
        cfg = ModelConfig(channels=32)
        assert cfg.lsa_kernel_sizes == (1, 3, 5, 7)
        shapes = {name: shape for name, shape, _ in param_specs(cfg)}
        assert shapes["sa2.lsa1.g0.feat.weight"] == (8, 1, 1, 1)
        assert shapes["sa2.lsa4.g3.gate.weight"] == (8, 1, 7, 7)
        assert shapes["sa2.lsa1.fuse.weight"] == (32, 32, 1, 1)

    def test_canonical_round_trip(self):
        cfg = small_cfg(seed=123, sa2_enabled=False)
        back = ModelConfig.from_canonical(cfg.canonical())
        assert back == cfg
        assert back.canonical() == cfg.canonical()

    def test_fingerprint_sensitive_to_fields(self):
        assert fingerprint(small_cfg(channels=8)) != \
            fingerprint(small_cfg(channels=16))

    def test_canonical_missing_or_non_integer_value_names_key(self):
        text = small_cfg().canonical()
        with pytest.raises(ConfigError, match="lacks key 'seed'"):
            ModelConfig.from_canonical(text.replace("seed = 5\n", ""))
        with pytest.raises(ConfigError, match="seed.*'x0'"):
            ModelConfig.from_canonical(text.replace("seed = 5", "seed = x0"))
        with pytest.raises(ConfigError, match="lsa.kernel_sizes"):
            ModelConfig.from_canonical(
                text.replace("kernel_sizes = 1,3,5,7", "kernel_sizes = 1,,3"))
        for bad in ("True", "no!!", ""):
            with pytest.raises(ConfigError, match=f"sa2_enabled.*'{bad}'"):
                ModelConfig.from_canonical(
                    text.replace("sa2_enabled = true", f"sa2_enabled = {bad}"))
        absent = text.replace("sa2_enabled = true\n", "")
        assert ModelConfig.from_canonical(absent).sa2_enabled

    def test_canonical_records_the_kernel_count_as_lsa_groups(self):
        # the line older checkpoints carry; it must agree with the kernels
        text = small_cfg(lsa_kernel_sizes=(3, 5)).canonical()
        assert "lsa.groups = 2\nlsa.kernel_sizes = 3,5\n" in text
        for groups in ("3", "1", "0"):
            with pytest.raises(ConfigError, match="but .* lists 2 kernels"):
                ModelConfig.from_canonical(
                    text.replace("lsa.groups = 2", f"lsa.groups = {groups}"))
        with pytest.raises(ConfigError, match="lacks key 'lsa.groups'"):
            ModelConfig.from_canonical(text.replace("lsa.groups = 2\n", ""))


class TestEncoder:
    def test_stage_geometry(self):
        cfg = ModelConfig(in_channels=3, channels=64, input_size=(64, 64), seed=0)
        store = init_model_params(cfg)
        image = Tensor(Rng(1).normal((1, 3, 64, 64)))
        stages = encoder_forward(image, store, cfg)
        assert [s.shape for s in stages] == [
            (1, 64, 32, 32), (1, 64, 16, 16), (1, 64, 8, 8), (1, 64, 4, 4)]

    def test_zero_image_zero_biases_give_zero_stages(self):
        cfg = small_cfg()
        store = init_model_params(cfg, dtype=T.F64)
        image = Tensor(np.zeros((1, 1, 32, 32)))
        for s in encoder_forward(image, store, cfg):
            npt.assert_array_equal(s.data, np.zeros_like(s.data))


class TestModelForward:
    def test_output_shapes(self):
        cfg = small_cfg()
        store = init_model_params(cfg)
        image = Tensor(Rng(2).normal((2, 1, 32, 32)))
        out = model_forward(image, store, cfg)
        assert len(out.logits) == 4
        for s in out.logits:
            assert s.shape == (2, 1, 32, 32)

    def test_bit_identical_across_runs(self):
        cfg = small_cfg(seed=9)
        image_bits = Rng(10).normal((1, 1, 32, 32))

        def run():
            store = init_model_params(cfg)
            out = model_forward(Tensor(image_bits.copy()), store, cfg)
            return b"".join(s.data.tobytes() for s in out.logits)

        assert run() == run()

    def test_pure_in_params_and_image(self):
        cfg = small_cfg()
        store = init_model_params(cfg)
        image = Tensor(Rng(3).normal((1, 1, 32, 32)))
        first = model_forward(image, store, cfg)
        second = model_forward(image, store, cfg)
        for a, b in zip(first.logits, second.logits):
            assert a.data.tobytes() == b.data.tobytes()

    def test_ablated_model_skips_attention_params(self):
        full = init_model_params(small_cfg())
        ablated = init_model_params(small_cfg(sa2_enabled=False))
        assert any(n.startswith("sa2.") for n in full)
        assert not any(n.startswith("sa2.") for n in ablated)
        out = model_forward(Tensor(Rng(4).normal((1, 1, 32, 32))),
                            ablated, small_cfg(sa2_enabled=False))
        assert len(out.logits) == 4

    def test_parameter_count_matches_closed_form(self):
        for cfg in (small_cfg(), small_cfg(sa2_enabled=False),
                    ModelConfig(in_channels=3, channels=16,
                                input_size=(48, 64), seed=1)):
            store = init_model_params(cfg)
            assert table_count(param_specs(cfg)) == model_param_count(cfg)
            assert sum(t.size for _, t in store.items()) == \
                model_param_count(cfg)

    def test_default_config_count_value(self):
        # the number published in the README
        assert model_param_count(ModelConfig()) == 646728
        assert table_count(param_specs(ModelConfig())) == 646728

    def test_table_names_are_unique(self):
        for cfg in TABLE_CONFIGS:
            names = [name for name, _, _ in param_specs(cfg)]
            assert len(set(names)) == len(names)

    @pytest.mark.parametrize("cfg", TABLE_CONFIGS,
                             ids=["default", "no_sa2", "rgb_c12_g3"])
    def test_forward_reads_exactly_the_table(self, cfg):
        read = set()

        class Recording(dict):
            def __getitem__(self, name):
                read.add(name)
                return super().__getitem__(name)

        store = Recording(init_model_params(cfg))
        h, w = cfg.input_size
        image = Tensor(Rng(1).normal((1, cfg.in_channels, h, w)))
        with T.no_grad():
            model_forward(image, store, cfg)
        assert read == {name for name, _, _ in param_specs(cfg)}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_cfg()
        store = init_model_params(cfg)
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, store, cfg)
        loaded, loaded_cfg, adam = load_checkpoint(path)
        assert adam is None
        assert loaded_cfg == cfg
        assert list(loaded) == list(store)
        for name, t in store.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = small_cfg()
        store = init_model_params(cfg)
        state = AdamState.for_store(store)
        state.step = 3
        for name in state.m:
            state.m[name] += 0.25
        first = tmp_path / "a.sa2c"
        second = tmp_path / "b.sa2c"
        save_checkpoint(first, store, cfg, state)
        loaded, loaded_cfg, loaded_state = load_checkpoint(first)
        save_checkpoint(second, loaded, loaded_cfg, loaded_state)
        assert first.read_bytes() == second.read_bytes()

    def test_adam_state_round_trip(self, tmp_path):
        cfg = small_cfg()
        store = init_model_params(cfg)
        state = AdamState.for_store(store)
        state.step = 41
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, store, cfg, state)
        _, _, back = load_checkpoint(path)
        assert back.step == 41
        assert set(back.m) == set(state.m)
        for name in state.m:
            npt.assert_array_equal(back.m[name], state.m[name])
            npt.assert_array_equal(back.v[name], state.v[name])

    def test_wrong_shaped_adam_moment_rejected(self, tmp_path):
        cfg = small_cfg()
        store = init_model_params(cfg)
        state = AdamState.for_store(store)
        state.v["enc1.conv.bias"] = np.zeros(9, np.float32)
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, store, cfg, state)
        with pytest.raises(IntegrityError, match=r"'enc1.conv.bias' has "
                           r"shape \(9,\), expected \(8,\)"):
            load_checkpoint(path)

    def test_adam_moments_in_another_dtype_rejected(self, tmp_path):
        cfg = small_cfg()
        state = AdamState.for_store(init_model_params(cfg, dtype=T.F64))
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg, state)
        with pytest.raises(IntegrityError,
                           match="'enc1.down.weight' is float64, expected float32"):
            load_checkpoint(path)

    def test_without_adam_skips_moments_but_checks_them(self, tmp_path):
        cfg = small_cfg()
        store = init_model_params(cfg)
        state = AdamState.for_store(store)
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, store, cfg, state)
        loaded, loaded_cfg, adam = load_checkpoint(path, with_adam=False)
        assert adam is None and loaded_cfg == cfg
        for name, t in store.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()
        state.m["enc1.conv.bias"] = np.zeros(9, np.float32)
        save_checkpoint(path, store, cfg, state)
        with pytest.raises(IntegrityError, match=r"'enc1.conv.bias' has "
                           r"shape \(9,\), expected \(8,\)"):
            load_checkpoint(path, with_adam=False)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        cfgs = (small_cfg(channels=64), small_cfg(channels=32))
        paths = [tmp_path / "c64.sa2c", tmp_path / "c32.sa2c"]
        for path, cfg in zip(paths, cfgs):
            save_checkpoint(path, init_model_params(cfg), cfg)
        dataset = [gen_sample(SynthSpec(height=32, width=32), 0)]
        with pytest.raises(IncompatibleCheckpointError) as err:
            evaluate(paths, dataset)
        message = str(err.value)
        assert fingerprint(cfgs[0]) in message
        assert fingerprint(cfgs[1]) in message

    def test_truncated_file_fails_atomically(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(IntegrityError, match="byte"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size, field", [
        (3, "checkpoint magic at byte 0"),
        (7, "checkpoint config length at byte 5"),
        (40, "checkpoint config at byte 9"),
    ])
    def test_truncation_names_the_checkpoint_field(self, tmp_path, size,
                                                   field):
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(small_cfg()), small_cfg())
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(IntegrityError, match=f"truncated {field}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("adam", [False, True])
    def test_non_finite_tensor_is_not_saved(self, tmp_path, adam):
        cfg = small_cfg()
        store = init_model_params(cfg)
        state = AdamState.for_store(store)
        if adam:
            state.v["enc2.conv.bias"][0] = np.inf
            what = "Adam moment 'enc2.conv.bias'"
        else:
            store["enc2.conv.bias"].data[0] = np.nan
            what = "parameter 'enc2.conv.bias'"
        path = tmp_path / "model.sa2c"
        with pytest.raises(DivergenceError, match=f"{what} holds non-finite"):
            save_checkpoint(path, store, cfg, state)
        assert list(tmp_path.iterdir()) == []

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        with open(path, "ab") as fp:
            fp.write(b"junk")
        with pytest.raises(IntegrityError, match="trailing"):
            load_checkpoint(path)

    def test_non_utf8_text_rejected_with_offset(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        raw = path.read_bytes()
        cfg_len = len(cfg.canonical())
        seed_at = raw.index(b"seed = 5") + len(b"seed = ")
        path.write_bytes(raw[:seed_at] + b"\xff" + raw[seed_at + 1:])
        with pytest.raises(IntegrityError, match=f"config.*byte {seed_at}"):
            load_checkpoint(path)
        # header (9 bytes), config text, entry count, first name's length
        name_at = 9 + cfg_len + 4 + 2
        path.write_bytes(raw[:name_at] + b"\xff" + raw[name_at + 1:])
        with pytest.raises(IntegrityError, match=f"name.*byte {name_at}"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        cfg = small_cfg()
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes 100 bytes, then reports a full disk."""

            def __init__(self, name, mode):
                self.fp = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fp.close()

            def write(self, data):
                self.fp.write(data[:100])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sa2net.model, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, init_model_params(small_cfg(seed=6)), cfg)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.sa2c"]

    def test_unsupported_version_rejected_by_both_header_readers(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "model.sa2c"
        save_checkpoint(path, init_model_params(cfg), cfg)
        assert checkpoint_fingerprint(path) == fingerprint(cfg)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="version 9"):
            checkpoint_fingerprint(path)
        with pytest.raises(IntegrityError, match="version 9"):
            load_checkpoint(path)
