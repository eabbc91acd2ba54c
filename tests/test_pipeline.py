"""Resampling, stage execution, rotation symmetry, and the cost model."""

import math
import warnings

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
    fuse_average,
    fuse_gmp,
    fuse_oap,
    lattice_size,
    oriented_predictions,
    pixel_shuffle,
    quantize,
    query_cost_model,
    restore_image,
    rotate_patch,
    round_half_away,
)
from lutpool.pipeline import _run_real
from tests.test_pooling import constant_entry_coeff


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


def naive_resize(img, scale, out_shape=None):
    """Per-pixel loop reference for the separable resampler."""
    h, w = img.shape
    if out_shape is None:
        oh = max(1, int(round(h * scale)))
        ow = max(1, int(round(w * scale)))
    else:
        oh, ow = out_shape
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

    def test_out_shape_override(self):
        img = np.zeros((9, 9))
        out = bicubic_resize(img, 0.5, out_shape=(5, 4))
        assert out.shape == (5, 4)

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
        per = PipelineConfig(task="restore", stages=[lut, lut],
                             pooling=PoolingSpec(kind="oap", coeff_lut=coeff),
                             share_oap_across_stages=False)
        assert query_cost_model(shared)["coeff_queries_per_pixel"] == 1
        assert query_cost_model(per)["coeff_queries_per_pixel"] == 2

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
            PipelineConfig(task="restore", stages=[lut, lut],
                           pooling=PoolingSpec(kind="oap", coeff_lut=coeff),
                           share_oap_across_stages=False),
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
