"""Synthetic corpus, degradations, manifests, and netpbm i/o."""

import tracemalloc

import numpy as np
import pytest

from lutpool import (
    DegradationRecipe,
    PnmError,
    counter_gaussian,
    degrade,
    load_manifest,
    make_synthetic_corpus,
    parse_recipe,
    read_pnm,
    write_pnm,
    write_synthetic_dataset,
)


class TestCounterGaussian:
    def test_deterministic(self):
        a = counter_gaussian(1000, seed=7, image_index=3)
        b = counter_gaussian(1000, seed=7, image_index=3)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stable(self):
        # the stream is a pure function of the pixel index, so a longer
        # draw extends rather than reshuffles a shorter one
        short = counter_gaussian(100, seed=1, image_index=0)
        long = counter_gaussian(500, seed=1, image_index=0)
        np.testing.assert_array_equal(long[:100], short)

    def test_streams_decorrelated(self):
        a = counter_gaussian(20000, seed=0, image_index=0)
        b = counter_gaussian(20000, seed=0, image_index=1)
        c = counter_gaussian(20000, seed=1, image_index=0)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.03

    def test_moments(self):
        z = counter_gaussian(200000, seed=5, image_index=0)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_validation_and_empty(self):
        assert counter_gaussian(0, 0, 0).shape == (0,)
        with pytest.raises(ValueError):
            counter_gaussian(-1, 0, 0)


class TestRecipes:
    def test_round_trip_strings(self):
        for text in ("recipe:awgn:15:0", "recipe:awgn:2.5:9", "recipe:bicubic_down:2",
                     "recipe:bicubic_down:4"):
            assert parse_recipe(text).to_string() == text

    def test_awgn_default_seed(self):
        r = parse_recipe("recipe:awgn:15")
        assert r.kind == "awgn"
        assert r.sigma == 15.0
        assert r.seed == 0

    def test_prefix_optional(self):
        assert parse_recipe("bicubic_down:3").scale == 3

    def test_parse_errors(self):
        for bad in ("recipe:", "recipe:unsharp:2", "recipe:awgn",
                    "recipe:bicubic_down", "recipe:bicubic_down:2:3"):
            with pytest.raises(ValueError):
                parse_recipe(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DegradationRecipe("blur")
        with pytest.raises(ValueError):
            DegradationRecipe("bicubic_down", scale=1)
        with pytest.raises(ValueError):
            DegradationRecipe("awgn", sigma=-1.0)


class TestDegrade:
    def test_awgn_statistics(self):
        img = np.full((256, 256), 128, dtype=np.uint8)
        noisy = degrade(img, DegradationRecipe("awgn", sigma=15.0))
        assert noisy.dtype == np.uint8
        assert noisy.shape == img.shape
        diff = noisy.astype(np.float64) - 128.0
        assert abs(diff.std() - 15.0) < 0.5
        assert abs(diff.mean()) < 0.5

    def test_awgn_zero_sigma_identity(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        out = degrade(img, DegradationRecipe("awgn", sigma=0.0))
        np.testing.assert_array_equal(out, img)

    def test_awgn_image_index_changes_noise(self):
        img = np.full((32, 32), 128, dtype=np.uint8)
        r = DegradationRecipe("awgn", sigma=15.0)
        a = degrade(img, r, image_index=0)
        b = degrade(img, r, image_index=1)
        assert np.any(a != b)
        np.testing.assert_array_equal(a, degrade(img, r, image_index=0))

    def test_bicubic_down_shape(self):
        img = np.zeros((32, 48), dtype=np.uint8)
        out = degrade(img, DegradationRecipe("bicubic_down", scale=2))
        assert out.shape == (16, 24)
        assert out.dtype == np.uint8

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            degrade(np.zeros((4, 4, 3), dtype=np.uint8),
                    DegradationRecipe("awgn"))


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = make_synthetic_corpus(8, 32, seed=3)
        b = make_synthetic_corpus(8, 32, seed=3)
        assert len(a) == 8
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_range_and_dtype(self):
        for img in make_synthetic_corpus(16, 24, seed=0):
            assert img.dtype == np.uint8
            assert img.shape == (24, 24)
            assert img.min() >= 10 - 1
            assert img.max() <= 245 + 1
            assert img.max() - img.min() >= 100  # normalized to a wide span

    def test_ramps_are_planar(self):
        # every fourth image is a linear field, so second differences
        # along both axes vanish up to rounding
        imgs = make_synthetic_corpus(8, 32, seed=1)
        ramp = imgs[3].astype(np.float64)
        d2r = np.diff(ramp, n=2, axis=0)
        d2c = np.diff(ramp, n=2, axis=1)
        assert np.max(np.abs(d2r)) <= 1.0
        assert np.max(np.abs(d2c)) <= 1.0
        # stripes oscillate, so their curvature is visibly nonzero
        stripe = imgs[0].astype(np.float64)
        assert max(np.max(np.abs(np.diff(stripe, n=2, axis=0))),
                   np.max(np.abs(np.diff(stripe, n=2, axis=1)))) > 2.0

    def test_seed_changes_content(self):
        a = make_synthetic_corpus(4, 24, seed=0)
        b = make_synthetic_corpus(4, 24, seed=1)
        assert any(np.any(x != y) for x, y in zip(a, b))

    @pytest.mark.parametrize("size", [0, -4])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match="at least 1"):
            make_synthetic_corpus(4, size)


class TestNetpbm:
    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (13, 9)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pnm(path, img)
        np.testing.assert_array_equal(read_pnm(path), img)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_pnm(path, img)
        np.testing.assert_array_equal(read_pnm(path), img)

    def test_comment_and_whitespace_tolerant(self, tmp_path):
        path = tmp_path / "odd.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5 # magic\n# a comment line\n 3\n\t2 # dims\n255\n" + payload)
        img = read_pnm(path)
        np.testing.assert_array_equal(img, np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_read_errors(self, tmp_path):
        cases = {
            "magic.pgm": b"P4\n2 2\n255\n" + bytes(4),
            "short.pgm": b"P5\n4 4\n255\n" + bytes(3),
            "maxval.pgm": b"P5\n2 2\n65535\n" + bytes(8),
            "dims.pgm": b"P5\n0 2\n255\n",
            "alpha.pgm": b"P5\nab 2\n255\n",
            "empty.pgm": b"P5",
        }
        for name, blob in cases.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(PnmError):
                read_pnm(path)

    def test_oversized_claim_fails_before_reading(self, tmp_path):
        # 1.6 GB claimed by a 27-byte file: rejected without allocating it
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n40000 40000\n255\n" + bytes(8))
        assert path.stat().st_size == 27
        tracemalloc.start()
        try:
            with pytest.raises(PnmError, match="header needs 1600000000"):
                read_pnm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_header_field_length_capped(self, tmp_path):
        # a 1 MB field is refused after 16 bytes, not grown byte by byte
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + b"7" * (1 << 20) + b" 2\n255\n" + bytes(8))
        with pytest.raises(PnmError, match="header field too long"):
            read_pnm(path)
        # 16 characters still parse
        path.write_bytes(b"P5\n" + b"0" * 15 + b"4 2\n255\n" + bytes(8))
        assert read_pnm(path).shape == (2, 4)

    def test_write_errors(self, tmp_path):
        with pytest.raises(PnmError):
            write_pnm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(PnmError):
            write_pnm(tmp_path / "f.pgm", np.zeros((2, 2, 4), dtype=np.uint8))


class TestManifest:
    def write_images(self, tmp_path, names):
        for name in names:
            write_pnm(tmp_path / name, np.zeros((8, 8), dtype=np.uint8))

    def test_golden_round_trip(self, tmp_path):
        self.write_images(tmp_path, ["a.pgm", "a_lr.pgm", "b.pgm"])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(
            "# comment line\n"
            "train\ta.pgm\ta_lr.pgm\n"
            "\n"
            "val\tb.pgm\trecipe:awgn:15:2\n"
        )
        items = load_manifest(manifest)
        assert len(items) == 2
        assert items[0].split == "train"
        assert items[0].degraded_path.endswith("a_lr.pgm")
        assert items[0].recipe is None
        assert items[1].split == "val"
        assert items[1].degraded_path is None
        assert items[1].recipe == DegradationRecipe("awgn", sigma=15.0, seed=2)

    def test_bad_split(self, tmp_path):
        self.write_images(tmp_path, ["a.pgm"])
        manifest = tmp_path / "m.tsv"
        manifest.write_text("holdout\ta.pgm\trecipe:awgn:15\n")
        with pytest.raises(ValueError):
            load_manifest(manifest)

    def test_wrong_field_count(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("train\ta.pgm\n")
        with pytest.raises(ValueError):
            load_manifest(manifest)

    def test_missing_images(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("train\tmissing.pgm\trecipe:awgn:15\n")
        with pytest.raises(FileNotFoundError):
            load_manifest(manifest)
        self.write_images(tmp_path, ["a.pgm"])
        manifest.write_text("train\ta.pgm\tmissing_lr.pgm\n")
        with pytest.raises(FileNotFoundError):
            load_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_manifest(manifest)


class TestWriteSyntheticDataset:
    def test_writes_images_and_manifest(self, tmp_path):
        manifest = write_synthetic_dataset(tmp_path / "data", count=12, size=24,
                                           seed=0, scale=2)
        items = load_manifest(manifest)
        assert len(items) == 12
        assert sum(1 for it in items if it.split == "train") == 4
        assert sum(1 for it in items if it.split == "val") == 8
        # val entries are the tail of the corpus
        assert all(it.split == "val" for it in items[-8:])
        for it in items:
            img = read_pnm(it.clean)
            assert img.shape == (24, 24)
            assert it.recipe == DegradationRecipe("bicubic_down", scale=2)

    @pytest.mark.parametrize("count", [8, 6, 0, -1])
    def test_count_must_leave_training_images(self, tmp_path, count):
        # the last 8 images are the validation split
        with pytest.raises(ValueError, match="leaves no training images"):
            write_synthetic_dataset(tmp_path / "data", count=count, size=24)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("size, scale", [(0, 2), (-4, 2), (47, 2), (24, 5)])
    def test_size_must_be_a_positive_multiple_of_the_scale(self, tmp_path, size, scale):
        with pytest.raises(ValueError, match=f"size {size} .* scale {scale}"):
            write_synthetic_dataset(tmp_path / "data", count=12, size=size, scale=scale)
        assert not (tmp_path / "data").exists()

    def test_scale_is_checked_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="scale >= 2"):
            write_synthetic_dataset(tmp_path / "data", count=12, size=24, scale=1)
        assert not (tmp_path / "data").exists()
