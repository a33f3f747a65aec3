"""Synthetic data generation, augmentation, PGM I/O, and k-fold splits."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import sa2net.tensor as T
from sa2net.data import (
    Sample,
    SynthSpec,
    augment,
    gen_sample,
    load_dataset,
    rasterize_ellipse,
    read_pgm,
    write_dataset,
    write_pgm,
)
from sa2net.errors import ConfigError, ParseError
from sa2net.metrics import dice_score
from sa2net.tensor import Rng, Tensor


class TestGenSample:
    def test_zero_cells_give_pure_background(self):
        spec = SynthSpec(cell_count_range=(0, 0), noise_std=0.0, seed=3)
        sample = gen_sample(spec, 0)
        npt.assert_array_equal(sample.mask.data, np.zeros((1, 64, 64), np.float32))
        assert np.unique(sample.image.data).size == 1  # constant background

    def test_non_positive_eccentricity_rejected(self):
        # A zero minor axis used to rasterize nothing: every mask came out
        # empty while generation reported success.
        for lo in (0.0, -0.5):
            with pytest.raises(ConfigError, match="eccentricity_range"):
                SynthSpec(eccentricity_range=(lo, 1.0))

    def test_deterministic_per_spec_and_index(self):
        spec = SynthSpec(seed=11)
        a = gen_sample(spec, 5)
        b = gen_sample(spec, 5)
        assert a.image.data.tobytes() == b.image.data.tobytes()
        assert a.mask.data.tobytes() == b.mask.data.tobytes()
        c = gen_sample(spec, 6)
        assert c.mask.data.tobytes() != a.mask.data.tobytes()

    def test_mask_binary_and_image_in_unit_range(self):
        spec = SynthSpec(seed=21, noise_std=0.1)
        for index in range(6):
            s = gen_sample(spec, index)
            assert np.all((s.mask.data == 0) | (s.mask.data == 1))
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0

    def test_circle_area_matches_analytic_value(self):
        # independent oracle: exhaustive pixel-by-pixel distance test
        r = 10.0
        interior = rasterize_ellipse(64, 64, 32.0, 32.0, r, r, 0.0)
        count = 0
        for y in range(64):
            for x in range(64):
                if (x - 32.0) ** 2 + (y - 32.0) ** 2 <= r * r:
                    count += 1
        assert interior.sum() == count
        assert abs(interior.sum() - math.pi * r * r) / (math.pi * r * r) < 0.05

    def test_rotated_ellipse_area_is_rotation_invariant(self):
        sizes = [rasterize_ellipse(64, 64, 31.5, 31.5, 12.0, 6.0, theta).sum()
                 for theta in (0.0, 0.4, 1.1, 2.0)]
        base = math.pi * 12.0 * 6.0
        for s in sizes:
            assert abs(s - base) / base < 0.06


class _StubRng:
    """Fixed draw sequence standing in for Rng in augmentation tests."""

    def __init__(self, randoms, quarters):
        self._randoms = list(randoms)
        self._quarters = quarters

    def random(self, shape=None):
        return self._randoms.pop(0)

    def integers(self, low, high, shape=None):
        return self._quarters


class TestAugment:
    def sample(self, seed=0):
        return gen_sample(SynthSpec(seed=seed), 0)

    def test_identity_draw_returns_unchanged(self):
        s = self.sample()
        out = augment(s, _StubRng([0.9, 0.9], 0))
        assert out.image.data.tobytes() == s.image.data.tobytes()
        assert out.mask.data.tobytes() == s.mask.data.tobytes()

    def test_double_horizontal_flip_is_identity(self):
        s = self.sample(seed=1)
        once = augment(s, _StubRng([0.1, 0.9], 0))
        twice = augment(once, _StubRng([0.1, 0.9], 0))
        assert twice.image.data.tobytes() == s.image.data.tobytes()

    def test_mask_stays_binary(self):
        s = self.sample(seed=2)
        rng = Rng(33)
        for _ in range(8):
            s = augment(s, rng)
            assert np.all((s.mask.data == 0) | (s.mask.data == 1))

    def test_inverse_transform_recovers_mask(self):
        s = self.sample(seed=3)
        rng = Rng(44)
        for _ in range(20):
            hflip = bool(rng.random() < 0.5)
            vflip = bool(rng.random() < 0.5)
            quarters = int(rng.integers(0, 3))
            out = augment(s, _StubRng([0.1 if hflip else 0.9,
                                       0.1 if vflip else 0.9], quarters))
            undone = np.rot90(out.mask.data, -quarters, axes=(1, 2))
            if vflip:
                undone = undone[:, ::-1, :]
            if hflip:
                undone = undone[:, :, ::-1]
            assert dice_score(np.ascontiguousarray(undone), s.mask.data) == 1.0

    def test_non_square_rejected(self):
        image = Tensor(np.zeros((1, 32, 64), dtype=np.float32))
        mask = Tensor(np.zeros((1, 32, 64), dtype=np.float32))
        with pytest.raises(ConfigError, match="square"):
            augment(Sample(image=image, mask=mask, id=0), Rng(0))


class TestPgm:
    def test_mask_round_trip_bit_exact(self, tmp_path):
        mask = gen_sample(SynthSpec(seed=9), 0).mask
        path = tmp_path / "mask.pgm"
        write_pgm(mask, path)
        back = read_pgm(path)
        npt.assert_array_equal(back.data, mask.data)

    def test_quantization_rounds_half_up(self, tmp_path):
        path = tmp_path / "gray.pgm"
        write_pgm(np.array([[0.0, 1.0], [0.5, 0.25]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 255, 128, 64]

    def test_header_with_comments_parses(self, tmp_path):
        path = tmp_path / "ok.pgm"
        path.write_bytes(b"P5 # binary graymap\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        t = read_pgm(path)
        assert t.shape == (1, 2, 2)
        assert t.data[0, 0, 1] == 1.0

    def test_p6_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError, match="magic"):
            read_pgm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ParseError, match="byte"):
            read_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "maxval.pgm"
        path.write_bytes(b"P5\n2 2\n127\n" + bytes(4))
        with pytest.raises(ParseError, match="maxval"):
            read_pgm(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        with pytest.raises(Exception, match=r"\[0, 1\]"):
            write_pgm(np.array([[1.5]]), tmp_path / "range.pgm")


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path):
        spec = SynthSpec(seed=13)
        lines = write_dataset(tmp_path / "ds", spec, 4)
        assert len(lines) == 4
        samples = load_dataset(tmp_path / "ds")
        assert [s.id for s in samples] == [0, 1, 2, 3]
        fresh = gen_sample(spec, 2)
        npt.assert_array_equal(samples[2].mask.data, fresh.mask.data)
        npt.assert_array_equal(samples[2].image.data, fresh.image.data)

    def test_manifest_is_tab_separated(self, tmp_path):
        write_dataset(tmp_path / "ds", SynthSpec(seed=1), 2)
        manifest = (tmp_path / "ds" / "manifest.txt").read_text()
        for line in manifest.splitlines():
            index, image_name, mask_name = line.split("\t")
            assert (tmp_path / "ds" / image_name).exists()
            assert (tmp_path / "ds" / mask_name).exists()
