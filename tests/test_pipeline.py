"""Resampling, stage execution, rotation symmetry, and the cost model."""

import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lutpool import (
    CoeffLut,
    DIAGONAL_PATTERN,
    OrientationSet,
    PipelineConfig,
    PoolingSpec,
    QueryCounter,
    RealLut,
    QuantizedLut,
    SQUARE_PATTERN,
    WYE_PATTERN,
    apply_residual,
    bake,
    bake_real,
    bicubic_resize,
    dequantize,
    fuse_average,
    fuse_gmp,
    fuse_oap,
    lattice_size,
    load_pipeline,
    oriented_predictions,
    pixel_shuffle,
    quantize,
    query_cost_model,
    restore_image,
    rotate_patch,
    round_half_away,
    save_pipeline,
    serialize,
)
from lutpool import pipeline
from lutpool.pipeline import _run_real, stage_pass
from tests.test_pooling import constant_entry_coeff


def to_blocks(raster, rs):
    """(B, h*rs, w*rs) rasters -> (B*h*w, rs*rs) per-anchor blocks.

    The block layout of a stage's output: column pr * rs + pc of anchor
    (y, x) is raster pixel (y * rs + pr, x * rs + pc).
    """
    b, hh, ww = raster.shape
    h, w = hh // rs, ww // rs
    return (raster.reshape(b, h, rs, w, rs)
            .transpose(0, 1, 3, 2, 4)
            .reshape(b * h * w, rs * rs))


def cubic_kernel(x):
    ax = abs(x)
    if ax <= 1.0:
        return 1.5 * ax**3 - 2.5 * ax**2 + 1.0
    if ax < 2.0:
        return -0.5 * ax**3 + 2.5 * ax**2 - 4.0 * ax + 2.0
    return 0.0


def naive_resize_1d(vec, out_len, scale):
    in_len = len(vec)
    shrink = min(scale, 1.0)
    support = 2.0 / shrink
    ntaps = int(math.ceil(2.0 * support)) + 2
    out = np.empty(out_len)
    for i in range(out_len):
        pos = (i + 0.5) / scale - 0.5
        first = math.floor(pos - support) + 1
        ws = [cubic_kernel((pos - (first + t)) * shrink) for t in range(ntaps)]
        total = sum(ws)
        acc = 0.0
        for t in range(ntaps):
            src = min(max(first + t, 0), in_len - 1)
            acc += (ws[t] / total) * vec[src]
        out[i] = acc
    return out


def naive_resize(img, scale):
    """Per-pixel loop reference for the separable resampler."""
    h, w = img.shape
    oh = max(1, int(round(h * scale)))
    ow = max(1, int(round(w * scale)))
    tmp = np.stack([naive_resize_1d(img[:, j], oh, scale) for j in range(w)], axis=1)
    return np.stack([naive_resize_1d(tmp[i, :], ow, scale) for i in range(oh)], axis=0)


class TestBicubicResize:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, (13, 17))
        for scale in (2.0, 3.0, 0.5):
            got = bicubic_resize(img, scale)
            want = naive_resize(img, scale)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_constant_preserved(self):
        out = bicubic_resize(np.full((10, 10), 77.0), 2.0)
        np.testing.assert_allclose(out, 77.0, rtol=0, atol=1e-12)

    def test_linear_ramp_reproduced_in_interior(self):
        i, j = np.mgrid[0:16, 0:16].astype(np.float64)
        img = 5.0 + 3.0 * i + 2.0 * j
        out = bicubic_resize(img, 2.0)
        src_r = (np.arange(32) + 0.5) / 2.0 - 0.5
        want = 5.0 + 3.0 * src_r[:, None] + 2.0 * src_r[None, :]
        np.testing.assert_allclose(out[4:-4, 4:-4], want[4:-4, 4:-4],
                                   rtol=0, atol=1e-10)

    def test_down_then_up_ramp_interior_exact(self):
        i, j = np.mgrid[0:32, 0:32].astype(np.float64)
        img = 10.0 + 3.0 * i + 2.0 * j
        back = bicubic_resize(bicubic_resize(img, 0.5), 2.0)
        np.testing.assert_allclose(back[8:-8, 8:-8], img[8:-8, 8:-8],
                                   rtol=0, atol=1e-10)

    def test_output_sides_round(self):
        # each side is round(side * scale), at least 1
        assert bicubic_resize(np.zeros((9, 11)), 0.5).shape == (4, 6)
        assert bicubic_resize(np.zeros((3, 1)), 0.25).shape == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            bicubic_resize(np.zeros((4, 4)), 0.0)
        with pytest.raises(ValueError):
            bicubic_resize(np.zeros(4), 2.0)

    def test_rot90_commutes_on_integer_frames(self):
        # at scale 2 the kernel weights are dyadic, so integer inputs
        # resample exactly and the separable pass order cannot matter
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (12, 12)).astype(np.float64)
        up = bicubic_resize(img, 2.0)
        up_rot = bicubic_resize(np.rot90(img), 2.0)
        np.testing.assert_array_equal(up_rot, np.rot90(up))


class TestBlocksAndResidual:
    def test_pixel_shuffle_frozen(self):
        blocks = np.arange(16, dtype=np.float64).reshape(2, 2, 2, 2)
        want = np.array([[0, 1, 4, 5],
                         [2, 3, 6, 7],
                         [8, 9, 12, 13],
                         [10, 11, 14, 15]], dtype=np.float64)
        np.testing.assert_array_equal(pixel_shuffle(blocks), want)

    def test_pixel_shuffle_rejects_rectangular_blocks(self):
        with pytest.raises(ValueError):
            pixel_shuffle(np.zeros((2, 2, 2, 3)))

    def test_apply_residual_clamps(self):
        out = apply_residual([250.0, 5.0, 100.0], [10.0, -10.0, 0.5])
        np.testing.assert_array_equal(out, [255.0, 0.0, 100.5])


def identity_restore_config(quantized=True):
    rule = lambda p: p[:, :1].copy()
    lut = bake(rule, q=4, n=4, m=1) if quantized else bake_real(rule, q=4, n=4, m=1)
    return PipelineConfig(task="restore", stages=[lut])


def random_real_stage(rng, n=4, m=1, q=4, spread=20.0):
    shape = (lattice_size(q),) * n + (m,)
    return RealLut(q, n, m, rng.normal(0.0, spread, shape) + 128.0)


class TestRestore:
    def test_identity_quantized_low_range(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 241, (12, 14)).astype(np.uint8)
        out = restore_image(img, identity_restore_config())
        np.testing.assert_array_equal(out, img)

    def test_identity_real_full_range(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (12, 14)).astype(np.uint8)
        out = restore_image(img, identity_restore_config(quantized=False))
        np.testing.assert_array_equal(out, img)

    def test_output_dtype_and_shape(self):
        img = np.zeros((6, 7), dtype=np.uint8)
        out = restore_image(img, identity_restore_config())
        assert out.dtype == np.uint8
        assert out.shape == (6, 7)

    def test_input_validation(self):
        cfg = identity_restore_config()
        with pytest.raises(ValueError):
            restore_image(np.zeros((2, 2)) - 1.0, cfg)
        with pytest.raises(ValueError):
            restore_image(np.full((2, 2), 256.0), cfg)
        with pytest.raises(ValueError):
            restore_image(np.zeros(5), cfg)
        with pytest.raises(ValueError):
            restore_image(np.zeros((0, 3)), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        cfg = identity_restore_config()
        img = np.full((8, 8), 100.0)
        img[3, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no cast warning on the way
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                restore_image(img, cfg)

    def test_residual_identity_is_zero_table(self):
        # a signed all-zero residual stage leaves the frame untouched
        zero = quantize(RealLut(4, 4, 1, np.zeros((17,) * 4 + (1,))),
                        signed=True)[0]
        cfg = PipelineConfig(task="restore", stages=[zero], residual=True)
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (9, 9)).astype(np.uint8)
        np.testing.assert_array_equal(restore_image(img, cfg), img)


class TestSuperResolve:
    def test_zero_residual_matches_bicubic(self):
        zero = quantize(RealLut(4, 4, 4, np.zeros((17,) * 4 + (4,))),
                        signed=True)[0]
        cfg = PipelineConfig(task="sr", scale=2, stages=[zero], residual=True)
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (11, 13)).astype(np.uint8)
        out = restore_image(img, cfg)
        want = round_half_away(np.clip(bicubic_resize(img, 2.0), 0.0, 255.0))
        np.testing.assert_array_equal(out, want.astype(np.uint8))

    def test_output_scale(self):
        zero = RealLut(4, 4, 4, np.zeros((17,) * 4 + (4,)))
        cfg = PipelineConfig(task="sr", scale=2, stages=[zero], residual=True)
        out = restore_image(np.zeros((8, 10), dtype=np.uint8), cfg)
        assert out.shape == (16, 20)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(task="sr", scale=1)
        with pytest.raises(ValueError):
            PipelineConfig(task="upsample")


class TestEquivariance:
    """Quarter-turn symmetry of the full frame, bitwise."""

    def test_restore_full_frame(self):
        rng = np.random.default_rng(6)
        lut = random_real_stage(rng, m=1)
        cfg = PipelineConfig(task="restore", stages=[lut])
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        base = restore_image(img, cfg)
        for r in range(1, 4):
            turned = restore_image(np.rot90(img, r), cfg)
            np.testing.assert_array_equal(turned, np.rot90(base, r))

    def test_sr_full_frame(self):
        rng = np.random.default_rng(7)
        lut = random_real_stage(rng, m=4)
        cfg = PipelineConfig(task="sr", scale=2, stages=[lut])
        img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        base = restore_image(img, cfg)
        for r in range(1, 4):
            turned = restore_image(np.rot90(img, r), cfg)
            np.testing.assert_array_equal(turned, np.rot90(base, r))

    def test_sr_residual_full_frame(self):
        rng = np.random.default_rng(8)
        shape = (17,) * 4 + (4,)
        lut = RealLut(4, 4, 4, rng.normal(0.0, 5.0, shape))
        cfg = PipelineConfig(task="sr", scale=2, stages=[lut], residual=True)
        img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        base = restore_image(img, cfg)
        for r in range(1, 4):
            turned = restore_image(np.rot90(img, r), cfg)
            np.testing.assert_array_equal(turned, np.rot90(base, r))

    def test_gmp_full_frame(self):
        rng = np.random.default_rng(9)
        lut = random_real_stage(rng, m=1)
        cfg = PipelineConfig(task="restore", stages=[lut],
                             pooling=PoolingSpec(kind="gmp", tau=8.0))
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        base = restore_image(img, cfg).astype(np.int16)
        for r in range(1, 4):
            turned = restore_image(np.rot90(img, r), cfg).astype(np.int16)
            # soft-median weights permute with the ensemble; only rounding
            # ties at the uint8 threshold may flip by one level
            assert np.max(np.abs(turned - np.rot90(base, r))) <= 1


class TestCascade:
    def test_two_identity_stages(self):
        rule = lambda p: p[:, :1].copy()
        lut = bake_real(rule, q=4, n=4, m=1)
        cfg = PipelineConfig(task="restore", stages=[lut, lut])
        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        np.testing.assert_array_equal(restore_image(img, cfg), img)

    def test_second_stage_sees_first_output(self):
        shift = bake_real(lambda p: p[:, :1] / 2.0, q=4, n=4, m=1)
        ident = bake_real(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        one = PipelineConfig(task="restore", stages=[shift])
        two = PipelineConfig(task="restore", stages=[shift, ident])
        img = np.full((6, 6), 200, dtype=np.uint8)
        np.testing.assert_array_equal(restore_image(img, one), 100)
        np.testing.assert_array_equal(restore_image(img, two), 100)

    def test_sr_last_stage_upscales(self):
        ident = bake_real(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        up = bake_real(lambda p: np.tile(p[:, :1], (1, 4)), q=4, n=4, m=4)
        cfg = PipelineConfig(task="sr", scale=2, stages=[ident, up])
        img = np.full((5, 5), 80, dtype=np.uint8)
        out = restore_image(img, cfg)
        assert out.shape == (10, 10)
        np.testing.assert_array_equal(out, 80)

    def test_empty_cascade_rejected(self):
        cfg = PipelineConfig(task="restore", stages=[])
        with pytest.raises(ValueError):
            restore_image(np.zeros((4, 4), dtype=np.uint8), cfg)


class TestValidation:
    def test_pattern_count_mismatch(self):
        lut = bake_real(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        cfg = PipelineConfig(task="restore", stages=[[lut, lut]])
        with pytest.raises(ValueError):
            cfg.validate()

    def test_pattern_width_mismatch(self):
        lut = bake_real(lambda p: p[:, :1].copy(), q=6, n=2, m=1)
        cfg = PipelineConfig(task="restore", stages=[lut])
        with pytest.raises(ValueError):
            cfg.validate()

    def test_output_size_mismatch(self):
        lut = bake_real(lambda p: np.tile(p[:, :1], (1, 4)), q=4, n=4, m=4)
        cfg = PipelineConfig(task="restore", stages=[lut])
        with pytest.raises(ValueError):
            cfg.validate()

    def test_oap_orientation_count(self):
        lut = bake_real(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        coeff = constant_entry_coeff([1, 1])
        cfg = PipelineConfig(task="restore", stages=[lut],
                             pooling=PoolingSpec(kind="oap", coeff_lut=coeff))
        with pytest.raises(ValueError):
            cfg.validate()

    def test_oap_coeff_pattern_width(self):
        lut = bake_real(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        coeff = constant_entry_coeff([1, 1, 1, 1], q=6, n=2)
        cfg = PipelineConfig(task="restore", stages=[lut],
                             pooling=PoolingSpec(kind="oap", coeff_lut=coeff))
        with pytest.raises(ValueError):
            cfg.validate()


class TestQueryCostModel:
    def test_single_stage_numbers(self):
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        cfg = PipelineConfig(task="restore", stages=[lut])
        model = query_cost_model(cfg)
        assert model == {"lut_queries_per_pixel": 4,
                         "coeff_queries_per_pixel": 0,
                         "bytes_per_query": 16.0}

    def test_sr_bytes(self):
        lut = bake(lambda p: np.tile(p[:, :1], (1, 4)), q=4, n=4, m=4)
        cfg = PipelineConfig(task="sr", scale=2, stages=[lut])
        assert query_cost_model(cfg)["bytes_per_query"] == 64.0

    def test_two_patterns_two_stages(self):
        a = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        cfg = PipelineConfig(task="restore",
                             patterns=[SQUARE_PATTERN, DIAGONAL_PATTERN],
                             stages=[[a, a], [a, a]])
        assert query_cost_model(cfg)["lut_queries_per_pixel"] == 4 * 2 * 2

    def test_oap_shared_vs_per_stage(self):
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        coeff = constant_entry_coeff([1, 1, 1, 1])
        shared = PipelineConfig(task="restore", stages=[lut, lut],
                                pooling=PoolingSpec(kind="oap", coeff_lut=coeff))
        # the stages share the first stage's weights: once per pixel, not per stage
        assert query_cost_model(shared)["coeff_queries_per_pixel"] == 1

    def test_counters_match_model(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
        anchors = img.size
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        coeff = constant_entry_coeff([1, 1, 1, 1])
        configs = [
            PipelineConfig(task="restore", stages=[lut]),
            PipelineConfig(task="restore", stages=[lut, lut],
                           pooling=PoolingSpec(kind="gmp", tau=4.0)),
            PipelineConfig(task="restore", stages=[lut, lut],
                           pooling=PoolingSpec(kind="oap", coeff_lut=coeff)),
        ]
        for cfg in configs:
            counters = QueryCounter()
            restore_image(img, cfg, counters)
            model = query_cost_model(cfg)
            assert counters.lut_queries == anchors * model["lut_queries_per_pixel"]
            assert counters.coeff_queries == anchors * model["coeff_queries_per_pixel"]


def anchor_oracle(image, config):
    """Single-stage pipeline output, one anchor at a time on the edge-padded frame."""
    x = np.asarray(image, dtype=np.float64)
    h, w = x.shape
    rs = config.scale if config.task == "sr" else 1
    pad = max(p.reach for p in (*config.patterns, config.coeff_pattern))
    padded = np.pad(x, pad, mode="edge")
    baseline = None
    if config.residual:
        baseline = bicubic_resize(x, rs) if rs > 1 else x
    pool = config.pooling
    out = np.empty((h * rs, w * rs))
    for r in range(h):
        for c in range(w):
            at = (r + pad, c + pad)
            xs = sum(oriented_predictions(padded, at, pattern, table, config.orientations)
                     for pattern, table in zip(config.patterns, config.stages[0]))
            xs = xs / len(config.patterns)
            if pool.kind == "average":
                fused = fuse_average(xs)
            elif pool.kind == "gmp":
                fused = fuse_gmp(xs, pool.tau, pool.norm)
            else:
                fused = fuse_oap(xs, rotate_patch(padded, at, config.coeff_pattern, 0),
                                 pool.coeff_lut)
            block = fused.output.reshape(rs, rs)
            if baseline is not None:
                block = block + baseline[r * rs:(r + 1) * rs, c * rs:(c + 1) * rs]
            out[r * rs:(r + 1) * rs, c * rs:(c + 1) * rs] = np.clip(block, 0.0, 255.0)
    return out


class TestSmallFrames:
    """Frames smaller than the S+D+Y reach, through the decomposed planes."""

    @staticmethod
    def config(kind):
        rng = np.random.default_rng(31)
        patterns = [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN]
        shape = (lattice_size(4),) * 4
        if kind == "sr":
            tables = [QuantizedLut(4, 4, 4, rng.integers(96, 161, shape + (4,)),
                                   signed=True) for _ in patterns]
            return PipelineConfig(task="sr", scale=2, patterns=patterns, stages=[tables],
                                  pooling=PoolingSpec(kind="gmp", tau=8.0), residual=True)
        tables = [QuantizedLut(4, 4, 1, rng.integers(0, 256, shape + (1,)))
                  for _ in patterns]
        pool = PoolingSpec()
        if kind == "oap":
            coeff = CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice_size(5),) * 4 + (4,)))
            pool = PoolingSpec(kind="oap", coeff_lut=coeff)
        return PipelineConfig(task="restore", patterns=patterns, stages=[tables],
                              pooling=pool)

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2)])
    @pytest.mark.parametrize("kind", ["restore", "sr", "oap"])
    def test_matches_anchor_oracle_and_cost_model(self, kind, shape, integral):
        config = self.config(kind)
        assert max(p.reach for p in config.patterns) > min(shape)
        rng = np.random.default_rng(sum(shape))
        image = rng.integers(0, 256, shape).astype(np.float64)
        if not integral:
            image = np.clip(image + rng.uniform(-0.5, 0.5, shape), 0.0, 255.0)
        counters = QueryCounter()
        got = _run_real(image, config, counters)
        rs = config.scale
        assert got.shape == (shape[0] * rs, shape[1] * rs)
        np.testing.assert_allclose(got, anchor_oracle(image, config),
                                   rtol=1e-12, atol=1e-12)
        model = query_cost_model(config)
        assert counters.lut_queries == image.size * model["lut_queries_per_pixel"]
        assert counters.coeff_queries == image.size * model["coeff_queries_per_pixel"]


class TestConcurrentRestores:
    """The corner fold's reused scratch is per thread."""

    def test_threads_match_sequential_runs(self):
        # oap restores (their q5 m4 coefficient table folds 3 axes in
        # float32 and 1 in float64) and gmp x2 SR restores (signed m4
        # tables, repeated float32 fractions) use both scratch slots;
        # every frame holds more than 2**14 anchors, so each stage runs
        # as two bands of rows and each band spans more than one fold
        # chunk.  More threads than cores and a short switch interval
        # interleave the folds.
        oap = TestSmallFrames.config("oap")
        sr = TestSmallFrames.config("sr")
        rng = np.random.default_rng(41)
        jobs = [(oap, rng.integers(0, 256, (150, 131)).astype(np.uint8)),
                (sr, rng.integers(0, 256, (133, 140)).astype(np.uint8)),
                (oap, rng.integers(0, 256, (141, 137)).astype(np.uint8)),
                (sr, rng.integers(0, 256, (129, 145)).astype(np.uint8))]
        want = [restore_image(image, config).tobytes() for config, image in jobs]
        rounds = 3
        got = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def run(i):
            config, image = jobs[i]
            start.wait(timeout=60)
            for _ in range(rounds):
                got[i].append(restore_image(image, config).tobytes())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * rounds for w in want]


def sdy_tables(rng, m, signed, patterns=(SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN), q=4):
    """One random quantized table per pattern (signed ones stay near zero)."""
    lo, hi = (96, 161) if signed else (0, 256)
    shape = (lattice_size(q),) * 4 + (m,)
    return [QuantizedLut(q, 4, m, rng.integers(lo, hi, shape), signed=signed)
            for _ in patterns]


def band_configs():
    """The pipelines the banded stage pass is checked on, by name."""
    rng = np.random.default_rng(51)
    sdy = [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN]
    coeff = CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice_size(5),) * 4 + (4,)))
    oap = PoolingSpec(kind="oap", coeff_lut=coeff)
    gmp = PoolingSpec(kind="gmp", tau=8.0)
    return {
        "sdy-average-2": PipelineConfig(
            task="restore", patterns=sdy,
            stages=[sdy_tables(rng, 1, False), sdy_tables(rng, 1, False)]),
        "oap-shared-2": PipelineConfig(
            task="restore", patterns=sdy, pooling=oap,
            stages=[sdy_tables(rng, 1, False), sdy_tables(rng, 1, False)]),
        "sdy-x2-gmp": PipelineConfig(
            task="sr", scale=2, patterns=sdy, pooling=gmp, residual=True,
            stages=[sdy_tables(rng, 4, True)]),
        "s-x3-gmp": PipelineConfig(
            task="sr", scale=3, pooling=gmp, residual=True,
            stages=[sdy_tables(rng, 9, True, [SQUARE_PATTERN], q=5)]),
        "restore-then-x2": PipelineConfig(
            task="sr", scale=2, patterns=sdy, residual=True,
            pooling=PoolingSpec(kind="gmp", tau=4.0, norm="l1"),
            stages=[sdy_tables(rng, 1, True), sdy_tables(rng, 4, True)]),
    }


BAND_CONFIGS = band_configs()


class TestBands:
    """A stage pass cut into bands of rows gives the bits of one pass."""

    SHAPES = [(1, 1), (1, 7), (7, 1), (37, 29), (64, 3), (23, 50)]

    @staticmethod
    def count_bands(monkeypatch):
        """Spy on the image pipeline's stage passes: (stack shape, y0, y1, alpha) per band."""
        calls = []
        band = pipeline.stage_pass

        def spy(stack, config, t=0, y0=0, y1=None, alpha=None, counters=None, tape=None):
            calls.append((stack.shape, y0, stack.shape[1] if y1 is None else y1,
                          None if alpha is None else alpha.copy()))
            return band(stack, config, t, y0, y1, alpha, counters, tape)

        monkeypatch.setattr(pipeline, "stage_pass", spy)
        return calls

    @staticmethod
    def stage_rows(config, band, w):
        """Most rows per band of each stage: ``band`` values over w * rs * rs a row, at least one."""
        return [max(1, band // (w * config.stage_scale(t) ** 2)) for t in range(config.num_stages)]

    @classmethod
    def assert_bands(cls, calls, config, band, h, w):
        """Every stage's bands, in order: ceil(h / rows) of them, none longer
        than rows.  Returns the stage index of each call."""
        rows = cls.stage_rows(config, band, w)
        counts = [-(-h // r) for r in rows]
        assert len(calls) == sum(counts)
        stage = [t for t, c in enumerate(counts) for _ in range(c)]
        assert all(0 < y1 - y0 <= rows[t] for t, (_, y0, y1, _) in zip(stage, calls))
        return stage

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("name", sorted(BAND_CONFIGS))
    def test_banded_runs_match_one_band(self, monkeypatch, name, integral):
        config = BAND_CONFIGS[name]
        model = query_cost_model(config)
        rng = np.random.default_rng([len(name), integral])
        for shape in self.SHAPES:
            h, w = shape
            assert h * w * config.scale ** 2 <= pipeline._BAND_VALUES   # the reference is one band
            image = rng.integers(0, 256, shape).astype(np.float64)
            if not integral:
                lower = image[h // 2:]
                lower += rng.uniform(-0.5, 0.5, lower.shape)
                np.clip(lower, 0.0, 255.0, out=lower)
            want = _run_real(image, config, None)
            want_u8 = restore_image(image, config)
            # 1 and 7 values, and three rows of a unit-scale stage: a short
            # last band where h % 3
            for band in (1, 7, 3 * w):
                monkeypatch.setattr(pipeline, "_BAND_VALUES", band)
                calls = self.count_bands(monkeypatch)
                counters = QueryCounter()
                got = _run_real(image, config, counters)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (shape, band)
                self.assert_bands(calls, config, band, h, w)
                assert counters.lut_queries == image.size * model["lut_queries_per_pixel"]
                assert counters.coeff_queries == image.size * model["coeff_queries_per_pixel"]
                np.testing.assert_array_equal(restore_image(image, config), want_u8)
                monkeypatch.undo()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    @pytest.mark.parametrize("name", sorted(BAND_CONFIGS))
    def test_input_dtypes_match_one_band_float64(self, monkeypatch, name, dtype):
        # integer frames are widened band by band; float32 ones (with a
        # non-integral lower half) are converted whole, as before
        config = BAND_CONFIGS[name]
        rng = np.random.default_rng([len(name), np.dtype(dtype).itemsize])
        for shape in self.SHAPES:
            h, w = shape
            image = rng.integers(0, 256, shape).astype(dtype)
            if dtype == np.float32:
                lower = image[h // 2:]
                lower += rng.integers(-2, 3, lower.shape) / np.float32(4)
                np.clip(lower, 0, 255, out=lower)
            reference = image.astype(np.float64)
            want = _run_real(reference, config, None)
            want_u8 = restore_image(reference, config)
            # the last stage's uint8 rows are the rounded float64 result
            assert want_u8.tobytes() == round_half_away(want).astype(np.uint8).tobytes()
            for band in (1, 7, 3 * w):
                monkeypatch.setattr(pipeline, "_BAND_VALUES", band)
                calls = self.count_bands(monkeypatch)
                got = _run_real(image, config, None)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (shape, band)
                got_u8 = restore_image(image, config)
                assert got_u8.dtype == np.uint8 and got_u8.tobytes() == want_u8.tobytes()
                assert len(calls) == 2 * sum(-(-h // r) for r in self.stage_rows(config, band, w))
                monkeypatch.undo()

    @pytest.mark.parametrize("name", ["oap-shared-3", "sdy-average-2"])
    def test_whole_weights_only_for_a_shared_oap_cascade(self, monkeypatch, name):
        # a shared oap cascade keeps its first stage's weights whole for
        # the later stages; no other pipeline assembles weights
        if name == "oap-shared-3":
            shared = BAND_CONFIGS["oap-shared-2"]
            config = PipelineConfig(task="restore", patterns=shared.patterns,
                                    pooling=shared.pooling,
                                    stages=shared.stages + shared.stages[:1])
        else:
            config = BAND_CONFIGS[name]
        rng = np.random.default_rng(57)
        h, w = 23, 9
        image = rng.integers(0, 256, (h, w)).astype(np.uint8)
        want = _run_real(image, config, None)
        want_alpha = stage_pass(image[None].astype(np.float64), config)[1]
        monkeypatch.setattr(pipeline, "_BAND_VALUES", 2 * w)   # two rows
        calls = self.count_bands(monkeypatch)
        counters = QueryCounter()
        got = _run_real(image, config, counters)
        assert got.tobytes() == want.tobytes()
        bands = -(-h // 2)
        assert len(calls) == config.num_stages * bands
        model = query_cost_model(config)
        assert counters.coeff_queries == image.size * model["coeff_queries_per_pixel"]
        alphas = [[c[3] for c in calls[t * bands:(t + 1) * bands]]
                  for t in range(config.num_stages)]
        assert alphas[0] == [None] * bands
        if name == "oap-shared-3":
            for stage_alphas in alphas[1:]:
                whole = np.concatenate(stage_alphas, axis=1)
                assert whole.shape == (4, h * w)
                assert whole.tobytes() == want_alpha.tobytes()
        else:
            assert alphas == [[None] * bands] * config.num_stages

    def test_tape_pass_stays_one_band(self, monkeypatch):
        rng = np.random.default_rng(52)
        stage = [random_real_stage(rng, m=4, spread=5.0)]
        config = PipelineConfig(task="sr", scale=2, stages=[stage], residual=True,
                                pooling=PoolingSpec(kind="gmp", tau=8.0))
        stack = rng.integers(0, 256, (3, 9, 11)).astype(np.float64)
        want_tape = {}
        want = stage_pass(stack, config, tape=want_tape)
        monkeypatch.setattr(pipeline, "_BAND_VALUES", 1)
        tape = {}
        got = stage_pass(stack, config, tape=tape)
        assert got[0].shape == (stack.size, 4)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(tape["xs"], want_tape["xs"])

    def test_stage_index_sets_tables_and_block_side(self):
        # restore then x2: stage 1 reads its own table and emits 2x2 blocks
        rng = np.random.default_rng(59)
        first, second = random_real_stage(rng, m=1), random_real_stage(rng, m=4)
        config = PipelineConfig(task="sr", scale=2, stages=[[first], [second]])
        stack = rng.integers(0, 256, (2, 5, 6)).astype(np.float64)
        blocks, _ = stage_pass(stack, config, 1)
        assert blocks.shape == (stack.size, 4)
        alone = PipelineConfig(task="sr", scale=2, stages=[[second]])
        assert blocks.tobytes() == stage_pass(stack, alone)[0].tobytes()
        assert stage_pass(stack, config)[0].shape == (stack.size, 1)

    @pytest.mark.parametrize("name", ["sdy-x2-gmp", "s-x3-gmp"])
    def test_a_band_runs_without_the_previous_bands_arrays(self, monkeypatch, name):
        # the traced memory at the start of every band is that of the
        # first: no blocks, rounded blocks or weights of an earlier band
        config = BAND_CONFIGS[name]
        h, w = 96, 64
        rows = 32
        image = np.random.default_rng(58).integers(0, 256, (h, w)).astype(np.uint8)
        # bands of 32 rows: the budget counts each anchor's rs * rs values
        monkeypatch.setattr(pipeline, "_BAND_VALUES", rows * w * config.scale ** 2)
        want = restore_image(image, config)       # caches and scratch are built here
        live = []
        band = pipeline.stage_pass

        def spy(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return band(*args)

        monkeypatch.setattr(pipeline, "stage_pass", spy)
        tracemalloc.start()
        try:
            got = restore_image(image, config)
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert len(live) == h // rows
        one_plane = rows * w * 8          # a float64 value per anchor of a band
        assert max(live) - live[0] < one_plane, [v - live[0] for v in live]

    @pytest.mark.parametrize("name", ["sdy-x2-gmp", "s-x3-gmp", "restore-then-x2"])
    def test_bands_at_the_real_budget_hold_one_fold_chunk(self, monkeypatch, name):
        # each band holds at most _BAND_VALUES values, anchors times rs * rs,
        # unless it is one row; the bands are as few as that allows
        config = BAND_CONFIGS[name]
        rng = np.random.default_rng(61)
        assert pipeline._BAND_VALUES == pipeline._CHUNK_ROWS
        for h, w in [(96, 96), (37, 29), (2, 4500)]:
            image = rng.integers(0, 256, (h, w)).astype(np.uint8)
            calls = self.count_bands(monkeypatch)
            got = restore_image(image, config)
            monkeypatch.undo()
            stage = self.assert_bands(calls, config, pipeline._BAND_VALUES, h, w)
            for t, (_, y0, y1, _) in zip(stage, calls):
                values = (y1 - y0) * w * config.stage_scale(t) ** 2
                assert values <= pipeline._BAND_VALUES or y1 - y0 == 1, (h, w, t, y0, y1)
            if (h, w) == (96, 96) and config.scale == 2:
                # 42 rows fit; three bands of 32, not 42/42/12
                assert [c[1:3] for c in calls[-3:]] == [(0, 32), (32, 64), (64, 96)]
            monkeypatch.setattr(pipeline, "_BAND_VALUES", h * w * config.scale ** 2)
            assert restore_image(image, config).tobytes() == got.tobytes()
            monkeypatch.undo()

    def test_shared_oap_weights_are_sliced_per_band(self, monkeypatch):
        config = BAND_CONFIGS["oap-shared-2"]
        rng = np.random.default_rng(53)
        image = rng.integers(0, 256, (11, 6)).astype(np.float64)
        want = _run_real(image, config, None)
        alpha = stage_pass(image[None], config)[1]
        monkeypatch.setattr(pipeline, "_BAND_VALUES", 6 * 4)   # four rows
        calls = self.count_bands(monkeypatch)
        counters = QueryCounter()
        got = _run_real(image, config, counters)
        assert [c[1:3] for c in calls] == [(0, 4), (4, 8), (8, 11)] * 2
        assert [c[3] for c in calls[:3]] == [None] * 3
        for _, y0, y1, band_alpha in calls[3:]:
            assert band_alpha.tobytes() == alpha[:, y0 * 6:y1 * 6].tobytes()
        assert got.tobytes() == want.tobytes()
        assert (counters.lut_queries, counters.coeff_queries) == (24 * image.size, image.size)


class TestStreamedFusion:
    """Average and oap inference passes sum each rotation into the result as it is read.

    A taped pass keeps the (k, N, m) ensemble and fuses it with
    ``combine``; the streamed pass must give the same bits.
    """

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("turns", [(0, 1, 2, 3), (0, 1, 3), (1, 3), (3,)])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("kind", ["average", "oap"])
    def test_streamed_pass_matches_the_taped_ensemble(self, kind, m, turns, integral):
        rng = np.random.default_rng(57)
        sd = [SQUARE_PATTERN, DIAGONAL_PATTERN]
        k = len(turns)
        pooling = PoolingSpec()
        if kind == "oap":
            coeff = CoeffLut(5, 4, k, rng.integers(0, 256, (lattice_size(5),) * 4 + (k,)))
            pooling = PoolingSpec(kind="oap", coeff_lut=coeff)
        scale = {1: dict(task="restore"), 4: dict(task="sr", scale=2, residual=True)}[m]
        config = PipelineConfig(**scale, patterns=sd, orientations=OrientationSet(turns),
                                pooling=pooling, stages=[sdy_tables(rng, m, m > 1, sd)])
        stack = rng.uniform(0.0, 255.0, (3, 9, 11))
        if integral:
            stack = np.round(stack)
        tape = {}
        want, weights = stage_pass(stack, config, tape=tape)
        assert tape["xs"].shape == (k, stack.size, m)
        got, got_weights = stage_pass(stack, config)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_weights, weights)
        # a later cascade stage is handed the weights instead
        if kind == "oap":
            got, _ = stage_pass(stack, config, alpha=weights)
            assert got.tobytes() == want.tobytes()

    def test_gmp_and_taped_passes_keep_the_ensemble(self, monkeypatch):
        rng = np.random.default_rng(58)
        config = PipelineConfig(task="restore", pooling=PoolingSpec(kind="gmp", tau=8.0),
                                stages=[sdy_tables(rng, 1, False, [SQUARE_PATTERN])])
        seen = []
        real_combine = pipeline.combine
        monkeypatch.setattr(pipeline, "combine",
                            lambda xs, w: seen.append(xs.shape) or real_combine(xs, w))
        stack = rng.integers(0, 256, (2, 5, 6)).astype(np.float64)
        stage_pass(stack, config)
        stage_pass(stack, replace(config, pooling=PoolingSpec()), tape={})
        stage_pass(stack, replace(config, pooling=PoolingSpec()))
        assert seen == [(4, 60, 1), (4, 60, 1)]


class TestStageAdjoint:
    """``_stage_adjoint`` is the adjoint of a stage pass under fixed fusion weights.

    With average or oap weights fixed, a stage's output is affine in its
    table entries E, so the gradients written from dL/dpred = g satisfy
    sum_i <grad_i, dE_i> = <g, pred(E + dE) - pred(E)>.  For oap the
    coefficient table's gradient is checked against the logits u the
    pass read: a dL/du that sums to zero over orientations has
    <dL/du, u> = <dL/du, log alpha>.
    """

    @pytest.mark.parametrize("patterns", [[SQUARE_PATTERN], [SQUARE_PATTERN, DIAGONAL_PATTERN]],
                             ids=["S", "S+D"])
    @pytest.mark.parametrize("turns", [(0, 1, 2, 3), (1, 3), (3,)])
    @pytest.mark.parametrize("rs", [1, 2])
    @pytest.mark.parametrize("kind", ["average", "oap"])
    def test_dot_product(self, kind, rs, turns, patterns):
        rng = np.random.default_rng([rs, len(turns), turns[0], len(patterns)])
        k, m = len(turns), rs * rs
        pooling = PoolingSpec()
        if kind == "oap":
            coeff = RealLut(5, 4, k, rng.standard_normal((lattice_size(5),) * 4 + (k,)))
            pooling = PoolingSpec(kind="oap", coeff_lut=coeff)
        scale = dict(task="sr", scale=2) if rs == 2 else dict(task="restore")
        config = PipelineConfig(**scale, patterns=patterns, orientations=OrientationSet(turns),
                                pooling=pooling, residual=True,
                                stages=[[random_real_stage(rng, p.n, m) for p in patterns]])
        stack = rng.uniform(0.0, 255.0, (2, 5, 6))
        pred, alpha = stage_pass(stack, config, tape={})
        g = rng.standard_normal(pred.shape)
        du = rng.standard_normal(alpha.shape)
        du -= du.mean(axis=0)
        tape = {"dpred": g, "alpha": alpha}
        grads = [np.full(table.entries.shape, np.nan) for table in config.stages[0]]
        coeff_grad = None
        if kind == "oap":
            tape["du"] = du.copy()
            coeff_grad = np.full(coeff.entries.shape, np.nan)
        pipeline._stage_adjoint(stack, config, tape, grads, coeff_grad)
        assert not tape                         # every taped array was dropped

        deltas = [rng.normal(0.0, 20.0, grad.shape) for grad in grads]
        moved = replace(config, stages=[[RealLut(t.q, t.n, t.m, t.entries + d)
                                         for t, d in zip(config.stages[0], deltas)]])
        terms = g * (stage_pass(stack, moved, tape={})[0] - pred)
        lhs = sum(np.sum(grad * d) for grad, d in zip(grads, deltas))
        assert abs(lhs - np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))
        if kind == "oap":
            delta = rng.standard_normal(coeff_grad.shape)
            moved = replace(config, pooling=replace(
                pooling, coeff_lut=RealLut(5, 4, k, coeff.entries + delta)))
            terms = du * (np.log(stage_pass(stack, moved)[1]) - np.log(alpha))
            lhs = np.sum(coeff_grad * delta)
            assert abs(lhs - np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


def resize_axis_per_call(arr, out_len, scale, axis):
    """The separable resampler with its geometry rebuilt on every call.

    The oracle for the bits of :func:`bicubic_resize`, which reads a
    cached geometry: every tap, zero-weight ones too, is added onto +0.0.
    """
    in_len = arr.shape[axis]
    pos = (np.arange(out_len, dtype=np.float64) + 0.5) / scale - 0.5
    shrink = min(scale, 1.0)
    support = 2.0 / shrink
    first = np.floor(pos - support).astype(np.int64) + 1
    ntaps = int(math.ceil(2.0 * support)) + 2
    taps = first[:, None] + np.arange(ntaps, dtype=np.int64)[None, :]
    weights = pipeline._keys_kernel((pos[:, None] - taps) * shrink)
    weights = weights / weights.sum(axis=1, keepdims=True)
    taps = np.clip(taps, 0, in_len - 1)
    moved = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, 0)
    out = np.zeros((out_len,) + moved.shape[1:])
    for t in range(ntaps):
        out += weights[:, t].reshape((out_len,) + (1,) * (moved.ndim - 1)) * moved[taps[:, t]]
    return np.moveaxis(out, 0, axis)


class TestResizeGeometry:
    @pytest.mark.parametrize("scale", [2.0, 3.0, 4.0, 0.5, 1.5, 1 / 3])
    def test_bicubic_resize_equals_per_call_geometry(self, scale):
        rng = np.random.default_rng(54)
        for img in (rng.uniform(0, 255, (13, 17)), rng.integers(0, 256, (13, 17)).astype(np.uint8),
                    rng.uniform(0, 255, (13, 17, 3)), np.full((1, 1), 7.0)):
            out_h = max(1, int(round(img.shape[0] * scale)))
            out_w = max(1, int(round(img.shape[1] * scale)))
            want = resize_axis_per_call(resize_axis_per_call(img, out_h, scale, 0), out_w, scale, 1)
            for _ in range(2):        # the second call reads the cached geometry
                got = bicubic_resize(img, scale)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), img.shape

    @pytest.mark.parametrize("rs", [2, 3, 4])
    def test_phase_taps_are_the_geometry_taps(self, rs):
        for n in (1, 2, 3, 5, 64, 1001):
            weights, first = pipeline._resize_geometry(n, n * rs, rs)
            # the first tap of output y * rs + p is y plus a constant per phase
            base = first[:rs]
            np.testing.assert_array_equal(first.reshape(n, rs), np.arange(n)[:, None] + base)
            phases = pipeline._phase_taps(n, rs)
            assert len(phases) == rs
            for p, taps in enumerate(phases):
                kept = {o - base[p]: col for o, col in taps}
                for t in range(weights.shape[1]):
                    col = weights[p::rs, t]
                    if t in kept:
                        assert kept[t].tobytes() == col.tobytes()
                    else:
                        assert not col.any()
                assert kept
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            phases[0][0][1][0] = 1.0


class TestStageUpsample:
    """The residual baseline of an upscaling stage is those rows of bicubic_resize."""

    @pytest.mark.parametrize("rs", [2, 3, 4])
    def test_band_rows_equal_bicubic_resize(self, rs):
        rng = np.random.default_rng(60 + rs)
        for b, h, w in [(1, 1, 1), (1, 7, 5), (3, 9, 11), (2, 13, 3), (1, 37, 29), (2, 4, 1)]:
            for dtype in (np.uint8, np.float64):
                stack = rng.integers(0, 256, (b, h, w)).astype(dtype)
                if dtype == np.float64:
                    stack[:, h // 2:] += rng.uniform(-0.5, 0.5, stack[:, h // 2:].shape)
                    np.clip(stack, 0.0, 255.0, out=stack)
                up = np.stack([bicubic_resize(img, rs) for img in stack])
                # the band splits of TestBands: 1, 7 and 3 * w values, and one band
                for band in (1, 7, 3 * w, pipeline._BAND_VALUES):
                    rows = max(1, band // (b * w))
                    for y0 in range(0, h, rows):
                        y1 = min(h, y0 + rows)
                        pred = np.zeros((b * (y1 - y0) * w, rs * rs))
                        pipeline._add_upsample(pred, stack, y0, y1, rs)
                        want = 0.0 + to_blocks(up[:, y0 * rs:y1 * rs], rs)
                        assert pred.tobytes() == want.tobytes(), ((b, h, w), dtype, y0, y1)


class TestPeakMemorySlope:
    """Peak bytes per input pixel of one restore, between two frame sizes.

    The slope is the difference of the tracemalloc peaks of a 512x128
    and a 256x128 restore divided by the difference of their pixel
    counts, so the band temporaries, equal at both sizes, cancel.  With
    every stage run over the whole frame at once the slopes were 122.2
    B/px for the S/q4 oap restore and 488.0 B/px for the x2 S+D+Y gmp
    residual restore.  Run in bands of 2**14 anchors (whole 128-pixel
    rows here) they were 48.0 and 72.1 B/px: the float64 input, the
    blocks and the k = 4 weights, which remained whole.  With each band
    written straight into uint8 rows of the result, the uint8 input read
    band by band and no weights kept, they are 1.04 and 4.13 B/px: the
    uint8 output itself, 1 B per input pixel at unit scale and 4 at x2.
    """

    SHAPES = ((256, 128), (512, 128))

    @staticmethod
    def slope(config, shapes):
        rng = np.random.default_rng(55)
        images = [rng.integers(0, 256, s).astype(np.uint8) for s in shapes]
        for image in images:          # cell tables and fold scratch are built here
            restore_image(image, config)
        peaks = []
        for image in images:
            tracemalloc.start()
            try:
                restore_image(image, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / (images[1].size - images[0].size)

    @staticmethod
    def configs():
        rng = np.random.default_rng(56)
        coeff = CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice_size(5),) * 4 + (4,)))
        oap = PipelineConfig(task="restore", stages=[sdy_tables(rng, 1, False, [SQUARE_PATTERN])],
                             pooling=PoolingSpec(kind="oap", coeff_lut=coeff))
        sdy = [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN]
        sr = PipelineConfig(task="sr", scale=2, patterns=sdy, residual=True,
                            pooling=PoolingSpec(kind="gmp", tau=8.0),
                            stages=[sdy_tables(rng, 4, True)])
        return {"oap": oap, "sdy-x2": sr}

    @pytest.mark.parametrize("name,whole_frame_slope", [("oap", 122.2), ("sdy-x2", 488.0)])
    def test_slope_at_most_half_of_whole_frame_passes(self, name, whole_frame_slope):
        assert math.prod(self.SHAPES[0]) > pipeline._BAND_VALUES
        assert self.slope(self.configs()[name], self.SHAPES) <= whole_frame_slope / 2

    @pytest.mark.parametrize("name,bound", [("oap", 2.0), ("sdy-x2", 6.0)])
    def test_slope_is_about_the_uint8_output(self, name, bound):
        assert self.slope(self.configs()[name], self.SHAPES) <= bound

    @staticmethod
    def warm_peak(config):
        """Tracemalloc peak beyond the output of a warm 128 x 128 restore."""
        image = np.random.default_rng(62).integers(0, 256, (128, 128)).astype(np.uint8)
        restore_image(image, config)  # cell tables and fold scratch are built here
        tracemalloc.start()
        try:
            out = restore_image(image, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    def test_x2_band_peak_is_one_fold_chunk(self):
        # bands of 2**14 anchors, 4 values each, peaked 6.52e6 B beyond the
        # output; bands of 2**14 values peaked about 2.26e6 B (bound 3.2e6)
        # with every corner widened to float32, and about 1.69e6 B with the
        # leading fold axes in uint16
        peak = self.warm_peak(self.configs()["sdy-x2"])
        assert peak < 2.0e6, peak

    def test_oap_band_holds_no_ensemble(self):
        # S/q4 oap, one band: the (4, 2**14, 1) ensemble made the peak
        # 3.19e6 B; summed as each rotation is read, it was about 2.67e6 B
        # (bound 2.9e6) with every corner widened to float32, and is about
        # 2.08e6 B with the leading fold axes in uint16
        peak = self.warm_peak(self.configs()["oap"])
        assert peak < 2.4e6, peak


class TestTableEquality:
    """Tables compare and hash by identity, so holders of tables compare too."""

    def test_tables(self):
        z = np.zeros((lattice_size(6),) * 2 + (1,), dtype=np.uint8)
        a, b = QuantizedLut(6, 2, 1, z), QuantizedLut(6, 2, 1, z)
        assert a == a and a != b
        assert len({a, a, b}) == 2
        real = RealLut(6, 2, 1, np.zeros(z.shape))
        assert real == real and real != real.copy()
        coeff = constant_entry_coeff([1, 1, 1, 1])
        assert {coeff} == {coeff}

    def test_holders_of_tables(self):
        coeff, other = constant_entry_coeff([1, 1, 1, 1]), constant_entry_coeff([1, 1, 1, 1])
        assert PoolingSpec(kind="oap", coeff_lut=coeff) == PoolingSpec(kind="oap", coeff_lut=coeff)
        assert PoolingSpec(kind="oap", coeff_lut=coeff) != PoolingSpec(kind="oap", coeff_lut=other)
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        same = PipelineConfig(task="restore", stages=[lut])
        assert same == PipelineConfig(task="restore", stages=[lut])
        assert same != PipelineConfig(task="restore", stages=[dequantize(lut)])


def saved_pipelines():
    """Quantized pipelines and their real-valued twins (or None), by name, to save and load."""
    rng = np.random.default_rng(71)
    sd = [SQUARE_PATTERN, DIAGONAL_PATTERN]

    def with_twins(config, coeff=None):
        pooling = config.pooling if coeff is None else PoolingSpec(kind="oap", coeff_lut=coeff)
        stages = [[dequantize(t) for t in stage] for stage in config.stages]
        return config, replace(config, stages=stages, pooling=pooling)

    restore = PipelineConfig(task="restore", stages=[sdy_tables(rng, 1, False, [SQUARE_PATTERN])])
    x2 = dict(task="sr", scale=2, patterns=sd, orientations=OrientationSet((0, 2)), residual=True)
    coeff = CoeffLut(5, 4, 2, rng.integers(0, 256, (lattice_size(5),) * 4 + (2,)))
    logits = RealLut(5, 4, 2, rng.normal(0.0, 2.0, coeff.entries.shape))
    return {
        "restore-average": (restore, None),
        "x2-gmp-l1-turns-0-2": with_twins(PipelineConfig(
            **x2, pooling=PoolingSpec(kind="gmp", tau=3.5, norm="l1"),
            stages=[sdy_tables(rng, 4, True, sd, q=5)])),
        "x2-oap-cascade-3": with_twins(PipelineConfig(
            **x2, pooling=PoolingSpec(kind="oap", coeff_lut=coeff),
            coeff_pattern=DIAGONAL_PATTERN,
            stages=[sdy_tables(rng, 1, True, sd), sdy_tables(rng, 1, True, sd),
                    sdy_tables(rng, 4, True, sd)]), logits),
        "real-tables": (with_twins(restore)[1], None),
    }


SAVED_PIPELINES = saved_pipelines()


class TestPipelineFiles:
    """save_pipeline and load_pipeline keep every setting and table of a pipeline."""

    @staticmethod
    def assert_same(got, want):
        for name in ("task", "scale", "patterns", "orientations", "residual", "coeff_pattern"):
            assert getattr(got, name) == getattr(want, name), name
        for name in ("kind", "tau", "norm"):
            assert getattr(got.pooling, name) == getattr(want.pooling, name), name
        assert [[serialize(t) for t in stage] for stage in got.stages] == \
            [[serialize(t) for t in stage] for stage in want.stages]
        coeff, want_coeff = got.pooling.coeff_lut, want.pooling.coeff_lut
        assert (coeff is None) == (want_coeff is None)
        if coeff is not None:
            assert type(coeff) is type(want_coeff)
            assert serialize(coeff) == serialize(want_coeff)
        rng = np.random.default_rng(72)
        for img in (rng.integers(0, 256, (13, 17)).astype(np.uint8),
                    rng.uniform(0.0, 255.0, (9, 6))):
            assert restore_image(img, got).tobytes() == restore_image(img, want).tobytes()

    @pytest.mark.parametrize("name", list(SAVED_PIPELINES))
    def test_round_trip(self, tmp_path, name):
        config, real = SAVED_PIPELINES[name]
        path = save_pipeline(config, tmp_path / "run", real=real)
        assert path == str(tmp_path / "run" / "pipeline.json")
        self.assert_same(load_pipeline(path), config)
        self.assert_same(load_pipeline(path, prefer_real=True), real or config)

    def test_document_names_every_stage(self, tmp_path):
        config, real = SAVED_PIPELINES["x2-oap-cascade-3"]
        with open(save_pipeline(config, tmp_path, real=real), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc == {
            "task": "sr", "scale": 2, "patterns": ["S", "D"], "orientations": [0, 2],
            "pooling": {"kind": "oap", "tau": 1.0, "norm": "l2",
                        "coeff": "coeff.lut", "real_coeff": "coeff.real.lut"},
            "residual": True,
            "stages": [[f"stage{t}_p{i}.lut" for i in range(2)] for t in range(3)],
            "real_stages": [[f"stage{t}_p{i}.real.lut" for i in range(2)] for t in range(3)],
            "coeff_pattern": "D"}
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["pipeline.json", "coeff.lut", "coeff.real.lut"]
            + [name for stage in doc["stages"] + doc["real_stages"] for name in stage])

    def test_without_twins(self, tmp_path):
        config, _ = SAVED_PIPELINES["restore-average"]
        with open(save_pipeline(config, tmp_path), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["stages"] == [["stage0_p0.lut"]]
        assert doc["real_stages"] is None
        assert doc["pooling"]["coeff"] is None and doc["pooling"]["real_coeff"] is None
        assert sorted(os.listdir(tmp_path)) == ["pipeline.json", "stage0_p0.lut"]

    def test_tables_resolve_from_the_document(self, tmp_path, monkeypatch):
        config, real = SAVED_PIPELINES["x2-gmp-l1-turns-0-2"]
        save_pipeline(config, tmp_path / "run", real=real)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        self.assert_same(load_pipeline(os.path.join("..", "run", "pipeline.json")), config)
        self.assert_same(load_pipeline("../run/pipeline.json", prefer_real=True), real)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_non_finite_temperature_is_neither_saved_nor_loaded(self, tmp_path, tau):
        config, _ = SAVED_PIPELINES["restore-average"]
        config = replace(config, pooling=replace(config.pooling))
        config.pooling.tau = tau                # past PoolingSpec's own check
        with pytest.raises(ValueError):
            save_pipeline(config, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        config.pooling.tau = 1.0
        path = save_pipeline(config, tmp_path / "run")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["pooling"]["tau"] = tau
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)                  # written as Infinity or NaN
        with pytest.raises(ValueError, match="'pooling.tau' must be finite"):
            load_pipeline(path)

    def test_invalid_config_is_not_saved(self, tmp_path):
        config = PipelineConfig(task="sr", scale=2, stages=[bake(lambda p: p[:, :1].copy(),
                                                                 q=4, n=4, m=1)])
        with pytest.raises(ValueError, match="expected 4"):
            save_pipeline(config, tmp_path / "run")
        assert not (tmp_path / "run").exists()
