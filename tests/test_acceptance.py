"""Acceptance gate: the twelve pinned behavioral criteria for this package.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every test also asserts its own wall-clock budget.  The two
training-based criteria share one module-scoped desk-scale run.
"""

import math
import time

import numpy as np
import pytest

from lutpool import (
    Batch,
    CoeffLut,
    DegradationRecipe,
    OrientationSet,
    PipelineConfig,
    PoolingSpec,
    QueryCounter,
    RealLut,
    TrainConfig,
    TrainableLut,
    TrainablePipeline,
    average_weights,
    bake,
    combine,
    degrade,
    evaluate_pairs,
    export_pipeline,
    finetune,
    gmp_weights,
    lattice_size,
    make_synthetic_corpus,
    oap_weights,
    psnr,
    psnr_b,
    query_batch,
    query_cost_model,
    restore_image,
    ssim,
    storage_bytes,
    train,
)
from tests.test_lut import naive_query, random_real_lut
from tests.test_pooling import gmp_distances
from tests.test_train import PAIR, fd_relative_errors


def test_c01_storage_byte_counts_exact():
    start = time.perf_counter()
    assert storage_bytes(4, 4, 16, 8) == 1_336_336   # x4 upscale blocks
    assert storage_bytes(4, 4, 1, 8) == 83_521       # single-output table
    assert storage_bytes(5, 4, 4, 8) == 26_244       # tiny weight table
    assert time.perf_counter() - start < 1.0


def test_c02_interpolation_matches_corner_walk_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    cases = [(4, 4, 4, 6000), (6, 2, 1, 4000)]      # 1e4 patches total
    for q, n, m, count in cases:
        lut = random_real_lut(rng, q, n, m)
        patches = rng.uniform(0.0, 255.0, (count, n))
        fast = query_batch(lut, patches)
        for i in range(count):
            want = naive_query(lut.entries, patches[i], q)
            rel = np.abs(fast[i] - want) / np.maximum(np.abs(want), 1e-12)
            assert rel.max() <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_c03_soft_median_temperature_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(30)

    # tau = 1e6: the fused value sits within 1e-4 of the plain average.
    # The first-order weight deviation scales like spread^2 / tau, so the
    # ensembles are clustered (a few gray levels wide) as they are in
    # practice where all four orientations see the same local content.
    base = rng.uniform(0.0, 255.0, (1, 1000, 4))
    xs = np.clip(base + rng.uniform(-1.5, 1.5, (4, 1000, 4)), 0.0, 255.0)
    fused = combine(xs, gmp_weights(xs, 1e6))
    assert np.max(np.abs(fused - xs.mean(axis=0))) < 1e-4

    # tau = 1e-6: all mass on the unique prediction nearest the mean
    vals = rng.uniform(0.0, 255.0, (4, 1000, 1))
    d, _, _ = gmp_distances(vals)
    gap = np.sort(d, axis=0)[1] - np.sort(d, axis=0)[0]
    unique = gap > 0.01
    assert unique.sum() >= 990                       # ties are measure-zero
    w = gmp_weights(vals, 1e-6)
    nearest = np.argmin(d, axis=0)
    w_nearest = np.take_along_axis(w, nearest[None], axis=0)[0]
    assert np.all(w_nearest[unique] >= 1.0 - 1e-6)
    assert time.perf_counter() - start < 5.0


def test_c04_weights_on_simplex_outputs_in_hull():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    count = 10000
    xs = rng.uniform(0.0, 255.0, (4, count, 2))
    patches = rng.uniform(0.0, 255.0, (count, 4))
    shape = (lattice_size(5),) * 4 + (4,)
    coeff_real = RealLut(5, 4, 4, rng.normal(0.0, 1.0, shape))
    coeff_int = CoeffLut(5, 4, 4,
                         rng.integers(0, 256, shape).astype(np.uint8))
    weight_sets = [average_weights(4, count)]
    for tau in (1e-5, 1.0, 1e5):
        weight_sets.append(gmp_weights(xs, tau))
        weight_sets.append(gmp_weights(xs, tau, norm="l1"))
    weight_sets.append(oap_weights(patches, coeff_real))
    weight_sets.append(oap_weights(patches, coeff_int))
    lo = xs.min(axis=0) - 1e-9
    hi = xs.max(axis=0) + 1e-9
    for w in weight_sets:
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-9
        assert w.min() >= -1e-9
        fused = combine(xs, w)
        assert np.all(fused >= lo)
        assert np.all(fused <= hi)
    assert time.perf_counter() - start < 5.0


def test_c05_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    cfg = TrainConfig(iterations=1, loss="charbonnier", reg_weight=1e-3)
    total = 0
    worst = 0.0
    for seed in (50, 51):
        rng = np.random.default_rng(seed)
        batch_args = (rng.uniform(0, 255, (2, 8, 8)),
                      rng.uniform(0, 255, (2, 16, 16)))
        for pooling in ("average", "gmp", "oap"):
            coeff = None
            kw = {}
            if pooling == "oap":
                shape = (lattice_size(6),) * 2 + (4,)
                coeff = TrainableLut(RealLut(6, 2, 4, rng.normal(0, 1, shape)))
                kw = {"coeff": coeff, "coeff_pattern": PAIR}
            tp = TrainablePipeline.zero_init("sr", 2, q=6, patterns=[PAIR],
                                             pooling=pooling, **kw)
            tp.luts[0].lut.entries[...] = rng.normal(
                0, 2, tp.luts[0].lut.entries.shape)
            if pooling == "gmp":
                tp.tau_trainable = True
                tp.log_tau[...] = math.log(50.0)
            rels = fd_relative_errors(tp, Batch(*batch_args), cfg, rng,
                                      n_coords=100)
            total += rels.size
            worst = max(worst, float(rels.max()))
    assert total >= 500
    assert worst <= 1e-4
    assert time.perf_counter() - start < 30.0


def test_c06_average_pipeline_commutes_with_quarter_turns():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    shape = (17,) * 4 + (4,)
    lut = RealLut(4, 4, 4, rng.normal(0.0, 5.0, shape))
    cfg = PipelineConfig(task="sr", scale=2, stages=[lut], residual=True)
    margin = 2 * (1 + 1)  # pattern reach plus one anchor ring, upscaled
    for _ in range(20):
        img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        out = restore_image(img, cfg)
        for r in range(1, 4):
            turned = restore_image(np.rot90(img, r), cfg)
            np.testing.assert_array_equal(
                turned[margin:-margin, margin:-margin],
                np.rot90(out, r)[margin:-margin, margin:-margin])
    assert time.perf_counter() - start < 10.0


def test_c07_zero_logit_adaptive_fusion_equals_average_bitwise():
    start = time.perf_counter()
    rng = np.random.default_rng(70)
    lut = random_real_lut(rng, 4, 4, 1)
    avg_cfg = PipelineConfig(task="restore", stages=[lut])
    zero_logits = RealLut(5, 4, 4, np.zeros((9,) * 4 + (4,)))
    flat_stored = CoeffLut(5, 4, 4, np.full((9,) * 4 + (4,), 64, np.uint8))
    for coeff in (zero_logits, flat_stored):
        oap_cfg = PipelineConfig(
            task="restore", stages=[lut],
            pooling=PoolingSpec(kind="oap", coeff_lut=coeff))
        for seed in range(5):
            img = np.random.default_rng(seed).integers(
                0, 256, (24, 24)).astype(np.uint8)
            np.testing.assert_array_equal(restore_image(img, oap_cfg),
                                          restore_image(img, avg_cfg))
        w = oap_weights(rng.uniform(0, 255, (100, 4)), coeff)
        np.testing.assert_array_equal(w, 0.25)
    assert time.perf_counter() - start < 5.0


def test_c08_soft_median_tracks_the_inlier_level():
    start = time.perf_counter()
    # e^-4 / (3 + e^-4): the corrupted member's weight when tau is an
    # eighth of the deviation (distances |d|/4 in, 3|d|/4 out)
    alpha_out = math.exp(-4.0) / (3.0 + math.exp(-4.0))
    for v in (80.0, 130.0, 175.5):
        for delta in (20.0, -20.0, 50.0, -50.0, 74.0, -74.0):
            xs = np.array([v, v, v, v + delta])[:, None, None]
            tau = abs(delta) / 8.0
            fused = combine(xs, gmp_weights(xs, tau))[0, 0]
            average = v + delta / 4.0
            assert abs(fused - v) < abs(average - v)
            assert fused == pytest.approx(v + alpha_out * delta, rel=1e-9)
    assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def desk_run():
    """Shared desk-scale training: average tables, then both fusion tunes."""
    start = time.perf_counter()
    images = make_synthetic_corpus(64, 48, seed=0)
    recipe = DegradationRecipe("bicubic_down", scale=2)
    pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(images)]
    train_pairs, val_pairs = pairs[:56], pairs[56:]

    bicubic_psnr = evaluate_pairs(
        TrainablePipeline.zero_init("sr", 2, q=4).to_config(), val_pairs, 2)

    avg = TrainablePipeline.zero_init("sr", 2, q=4)
    avg_report = train(avg, train_pairs, val_pairs,
                       TrainConfig(iterations=2000, batch_size=16, crop=16,
                                   lr=1e-3, seed=0, val_interval=250))

    tune_cfg = TrainConfig(iterations=400, batch_size=16, crop=16,
                           lr=1e-3, seed=1, val_interval=50)
    oap, oap_report = finetune(avg, train_pairs, val_pairs, tune_cfg,
                               "oap", coeff_q=5)
    gmp, gmp_report = finetune(avg, train_pairs, val_pairs, tune_cfg, "gmp")

    return {
        "val_pairs": val_pairs,
        "bicubic_psnr": bicubic_psnr,
        "avg": avg, "avg_psnr": avg_report.best_val_psnr,
        "oap": oap, "oap_psnr": oap_report.best_val_psnr,
        "gmp": gmp, "gmp_psnr": gmp_report.best_val_psnr,
        "steps": avg_report.steps + oap_report.steps + gmp_report.steps,
        "seconds": time.perf_counter() - start,
    }


def test_c09_desk_scale_training_ordering(desk_run):
    r = desk_run
    assert r["avg_psnr"] >= r["bicubic_psnr"] + 0.3
    assert r["oap_psnr"] >= r["avg_psnr"]
    assert r["gmp_psnr"] >= r["avg_psnr"] - 0.05
    assert r["steps"] <= 20_000
    assert r["seconds"] < 900.0


def test_c10_exported_tables_stay_within_two_tenths_db(desk_run):
    start = time.perf_counter()
    val_pairs = desk_run["val_pairs"]
    for name in ("avg", "oap", "gmp"):
        tp = desk_run[name]
        real_psnr = evaluate_pairs(tp.to_config(), val_pairs, 2)
        exported, _ = export_pipeline(tp)
        exported_psnr = evaluate_pairs(exported, val_pairs, 2)
        assert real_psnr - exported_psnr <= 0.2
    assert time.perf_counter() - start < 120.0


def test_c11_metric_sanity():
    start = time.perf_counter()
    a = np.zeros((16, 16), dtype=np.uint8)
    assert psnr(a, a + 1) == pytest.approx(20.0 * math.log10(255.0), abs=1e-9)
    assert psnr(a, a + 1) == pytest.approx(48.1308, abs=1e-4)

    rng = np.random.default_rng(110)
    img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    assert psnr(img, img) == 100.0
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    for _ in range(50):
        ref = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        rec = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        assert psnr_b(ref, rec) <= psnr(ref, rec) + 1e-12
    smooth = np.full((32, 32), 77, dtype=np.uint8)  # zero blocking factor
    assert psnr_b(img, smooth) == psnr(img, smooth)
    assert time.perf_counter() - start < 5.0


def test_c12_query_counts_equal_cost_model():
    start = time.perf_counter()
    rng = np.random.default_rng(120)
    img = rng.integers(0, 256, (24, 24)).astype(np.uint8)
    anchors = img.size
    lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
    coeff = CoeffLut(5, 4, 4, np.full((9,) * 4 + (4,), 64, np.uint8))
    poolings = {
        "average": PoolingSpec(),
        "gmp": PoolingSpec(kind="gmp", tau=8.0),
        "oap": PoolingSpec(kind="oap", coeff_lut=coeff),
    }
    for kind, pool in poolings.items():
        for stages in (1, 2):
            cfg = PipelineConfig(task="restore", stages=[lut] * stages,
                                 pooling=pool)
            model = query_cost_model(cfg)
            assert model["lut_queries_per_pixel"] == 4 * stages
            assert model["coeff_queries_per_pixel"] == (1 if kind == "oap" else 0)
            counters = QueryCounter()
            restore_image(img, cfg, counters)
            assert counters.lut_queries == anchors * model["lut_queries_per_pixel"]
            assert counters.coeff_queries == anchors * model["coeff_queries_per_pixel"]
    assert time.perf_counter() - start < 10.0
