"""Losses, optimizer, gradients, and the training/fine-tuning loops."""

import hashlib
import importlib
import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lutpool import (
    AdamState,
    Batch,
    CoeffLut,
    DegradationRecipe,
    KernelPattern,
    OrientationSet,
    PipelineConfig,
    PoolingSpec,
    QuantizedLut,
    QueryCounter,
    RealLut,
    TrainConfig,
    TrainableLut,
    TrainablePipeline,
    TrainingDivergedError,
    adam_step,
    bicubic_resize,
    cosine_lr,
    degrade,
    entropy_regularizer,
    evaluate_pairs,
    export_pipeline,
    finetune,
    forward_backward,
    fuse_oap,
    lattice_size,
    loss_only,
    make_synthetic_corpus,
    oap_weights,
    psnr,
    query,
    query_batch,
    restore_image,
    round_half_away,
    sample_batch,
    train,
)
from lutpool.lut import _CELL_TABLE_BYTES, _scratch, corner_weights
from lutpool.orientation import (DIAGONAL_PATTERN, SQUARE_PATTERN, WYE_PATTERN,
                                 block_permutation)
from lutpool.pipeline import _resize_axis, _run_real, pixel_shuffle, stage_pass
from lutpool.pooling import softmax
from lutpool.train import _loss_and_grad
from tests.test_pipeline import to_blocks

PAIR = KernelPattern("S2", ((0, 0), (0, 1)))
SINGLE = KernelPattern("P1", ((0, 0),))


def sr_pairs(count=8, size=24, seed=0):
    """Tiny bicubic-down corpus as (degraded, clean) pairs."""
    imgs = make_synthetic_corpus(count, size, seed)
    recipe = DegradationRecipe("bicubic_down", scale=2)
    return [(degrade(img, recipe, i), img) for i, img in enumerate(imgs)]


def charbonnier_loss(entry, target):
    """loss_only's Charbonnier loss where every prediction is ``entry``.

    A one-pixel, one-rotation, non-residual table whose entries all hold
    ``entry`` predicts it for every pixel, so the loss reads one
    difference; the entropy term is off.
    """
    tp = TrainablePipeline.zero_init("restore", 1, q=4, patterns=[SINGLE],
                                     orientations=OrientationSet((0,)),
                                     residual=False)
    tp.luts[0].lut.entries[...] = entry
    batch = Batch(np.full((2, 3, 3), 64.0), np.full((2, 3, 3), target))
    return loss_only(tp, batch, TrainConfig(iterations=1, reg_weight=0.0))


class TestLosses:
    def test_charbonnier_at_zero_error(self):
        # the knee: sqrt(0 + 1e-3**2)
        assert charbonnier_loss(42.0, 42.0) == pytest.approx(1e-3, rel=1e-12)

    def test_charbonnier_pythagorean(self):
        # sqrt(0.75e-3**2 + 1e-3**2) = 1.25e-3
        assert charbonnier_loss(0.75e-3, 0.0) == pytest.approx(1.25e-3, rel=1e-12)

    def test_entropy_uniform_and_onehot(self):
        assert entropy_regularizer(np.full(4, 0.25)) \
            == pytest.approx(-math.log(4.0), rel=1e-12)
        assert entropy_regularizer(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_entropy_batched_mean(self):
        batch = np.stack([np.full(4, 0.25), np.array([1.0, 0.0, 0.0, 0.0])])
        want = 0.5 * (-math.log(4.0)) + 0.5 * 0.0
        assert entropy_regularizer(batch) == pytest.approx(want, rel=1e-12)

    def test_entropy_pushes_toward_uniform(self):
        lopsided = np.array([0.7, 0.1, 0.1, 0.1])
        assert entropy_regularizer(lopsided) > entropy_regularizer(np.full(4, 0.25))


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 2.0) == 2.0
        assert cosine_lr(100, 100, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(50, 100, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_decay(self):
        vals = [cosine_lr(s, 10, 1.0) for s in range(11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_horizon_enforced(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1.0)


class TestAdam:
    def test_first_step_closed_form(self):
        values = np.array([1.0, -2.0])
        grad = np.array([2.0, -0.5])
        state = AdamState.like(values)
        adam_step(values, grad, state, step_index=0, lr=0.1)
        # bias correction makes m_hat = g and v_hat = g*g on step one
        want = np.array([1.0, -2.0]) - 0.1 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-12)

    def test_two_steps_match_reference(self):
        values = np.array([0.5])
        state = AdamState.like(values)
        m = v = 0.0
        x = 0.5
        for t, g in enumerate([1.5, -0.25]):
            adam_step(values, np.array([g]), state, t, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1.0 - 0.9 ** (t + 1))
            vh = v / (1.0 - 0.999 ** (t + 1))
            x -= 0.01 * mh / (math.sqrt(vh) + 1e-8)
        assert values[0] == pytest.approx(x, rel=1e-12)

    def test_validation(self):
        values = np.zeros(3)
        state = AdamState.like(values)
        with pytest.raises(ValueError):
            adam_step(values, np.zeros(2), state, 0, 0.1)
        with pytest.raises(ValueError):
            adam_step(values, np.zeros(3), state, -1, 0.1)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(), (1,), (7, 5), (100_003,),
                                       (3, 50_000), (17,) * 4 + (4,)])
    def test_bitwise_equal_to_out_of_place_formula(self, shape, order):
        rng = np.random.default_rng(3)
        values = np.asarray(rng.normal(0, 3, shape), order=order)
        ref = values.copy()
        state = AdamState.like(values)
        m = np.zeros(shape)
        v = np.zeros(shape)
        for t in range(5):
            grad = np.asarray(rng.normal(0, 10.0 ** (t - 2), shape), order=order)
            lr = 0.05 / (t + 1)
            adam_step(values, grad, state, t, lr)
            # the textbook out-of-place update, one temporary per operation
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9 ** (t + 1))
            v_hat = v / (1.0 - 0.999 ** (t + 1))
            ref -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert values.tobytes() == ref.tobytes()
        assert state.exp_avg.tobytes() == m.tobytes()
        assert state.exp_avg_sq.tobytes() == v.tobytes()

    def test_peak_memory_of_a_table_step(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, (17,) * 4 + (4,))
        grad = rng.normal(0, 1, values.shape)
        state = AdamState.like(values)
        tracemalloc.start()
        try:
            adam_step(values, grad, state, 0, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * values.nbytes


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.loss == "charbonnier"
        assert cfg.reg_weight == 1e-3          # the entropy term is on

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="huber")
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        for empty in (dict(batch_size=0), dict(crop=0)):
            with pytest.raises(ValueError):
                TrainConfig(**empty)

    @pytest.mark.parametrize("field, bad", [
        ("val_interval", 0), ("val_interval", -1), ("iterations", 2.0),
        ("batch_size", math.nan), ("crop", 1e300), ("val_interval", math.inf),
        ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
        ("reg_weight", -1e-3), ("reg_weight", math.nan), ("reg_weight", math.inf)])
    def test_out_of_range_numbers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: bad})


class TestTrainablePipeline:
    def test_zero_init_shapes(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        assert len(tp.luts) == 1
        assert tp.luts[0].lut.entries.shape == (17, 17, 17, 17, 4)
        assert tp.config.scale == 2
        tp = TrainablePipeline.zero_init("restore", 1, q=5, patterns=[PAIR, SINGLE])
        assert [tl.lut.n for tl in tp.luts] == [2, 1]
        assert tp.config.scale == 1

    def test_oap_needs_coeff(self):
        with pytest.raises(ValueError):
            TrainablePipeline.zero_init("restore", 1, q=4, pooling="oap")

    def test_parameters_include_coeff_only_for_oap(self):
        shape = (lattice_size(6),) * 2 + (4,)
        coeff = TrainableLut(RealLut(6, 2, 4, np.zeros(shape)))
        tp = TrainablePipeline.zero_init("restore", 1, q=4, pooling="oap",
                                         coeff=coeff, coeff_pattern=PAIR)
        assert len(tp.parameters()) == 2
        avg = TrainablePipeline.zero_init("restore", 1, q=4)
        assert len(avg.parameters()) == 1

    def test_snapshot_round_trip(self):
        tp = TrainablePipeline.zero_init("restore", 1, q=4)
        tp.luts[0].lut.entries[...] = 3.5
        snap = tp.snapshot()
        tp.luts[0].lut.entries[...] = -1.0
        tp.log_tau[...] = 9.0
        tp.load_snapshot(snap)
        np.testing.assert_array_equal(tp.luts[0].lut.entries, 3.5)
        assert tp.log_tau[0] == 0.0

    def test_to_config_runs_inference(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        img = np.full((8, 8), 100, dtype=np.uint8)
        out = restore_image(img, tp.to_config())
        want = round_half_away(np.clip(bicubic_resize(img, 2.0), 0, 255))
        np.testing.assert_array_equal(out, want.astype(np.uint8))


class TestSampleBatch:
    def test_shapes(self):
        pairs = sr_pairs(4)
        rng = np.random.default_rng(0)
        batch = sample_batch(rng, pairs, crop=8, rs=2, batch_size=5)
        assert batch.inputs.shape == (5, 8, 8)
        assert batch.targets.shape == (5, 16, 16)

    def test_targets_align_with_inputs_under_every_augmentation(self):
        # every pixel value is distinct, so each input crop names its source
        # window and its rotation/flip; the target crop must be the
        # nearest-neighbour x2 of the input crop, whichever of the 8 was drawn
        img = np.arange(144, dtype=np.uint8).reshape(12, 12)
        pairs = [(img, np.repeat(np.repeat(img, 2, 0), 2, 1))]
        batch = sample_batch(np.random.default_rng(1), pairs, crop=4, rs=2,
                             batch_size=64)
        seen = set()
        for crop_in, crop_tgt in zip(batch.inputs, batch.targets):
            np.testing.assert_array_equal(
                crop_tgt, np.repeat(np.repeat(crop_in, 2, 0), 2, 1))
            i, j = divmod(int(crop_in.min()), 12)      # the window's top-left value
            window = img[i:i + 4, j:j + 4]
            views = [(r, f) for r in range(4) for f in range(2)
                     if np.array_equal(crop_in, np.rot90(window, r)[:, ::-1 if f else 1])]
            assert len(views) == 1
            seen.add(views[0])
        assert seen == {(r, f) for r in range(4) for f in range(2)}

    def test_deterministic(self):
        pairs = sr_pairs(4)
        a = sample_batch(np.random.default_rng(7), pairs, 8, 2, 6)
        b = sample_batch(np.random.default_rng(7), pairs, 8, 2, 6)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_crop_too_large(self):
        pairs = sr_pairs(2, size=24)  # degraded side is 12
        with pytest.raises(ValueError):
            sample_batch(np.random.default_rng(0), pairs, crop=13, rs=2, batch_size=1)


class TestExactGradient:
    def test_single_entry_l2_gradient(self):
        # one-pixel pattern, inputs pinned to a lattice point: the loss
        # reads exactly one table entry, so dL/de = 2 (e - y)
        tp = TrainablePipeline.zero_init("restore", 1, q=4, patterns=[SINGLE],
                                         orientations=OrientationSet((0,)),
                                         residual=False)
        batch = Batch(np.full((2, 3, 3), 32.0), np.full((2, 3, 3), 10.0))
        cfg = TrainConfig(iterations=1, loss="l2", reg_weight=0.0)
        losses = forward_backward(tp, batch, cfg)
        assert losses["total"] == pytest.approx(100.0, rel=1e-12)
        grad = tp.luts[0].grad.reshape(-1)
        assert grad[2] == pytest.approx(-20.0, rel=1e-12)  # 32 = 2 * 2**4
        others = np.delete(grad, 2)
        np.testing.assert_array_equal(others, 0.0)


def loop_corner_weights(base, frac, lattice):
    """Per-corner product loop, row-major (N, 2**n): the reference layout."""
    npts, n = base.shape
    strides = np.array([lattice ** (n - 1 - d) for d in range(n)], dtype=np.int64)
    idx0 = base @ strides
    idx = np.empty((npts, 1 << n), dtype=np.int64)
    w = np.empty((npts, 1 << n))
    for corner in range(1 << n):
        off = 0
        cw = np.ones(npts)
        for d in range(n):
            if (corner >> (n - 1 - d)) & 1:
                cw = cw * frac[:, d]
                off += strides[d]
            else:
                cw = cw * (1.0 - frac[:, d])
        idx[:, corner] = idx0 + off
        w[:, corner] = cw
    return idx, w


def _gather_batch(padded, offsets, pad, h, w):
    planes = [padded[:, pad + dr: pad + dr + h, pad + dc: pad + dc + w]
              for dr, dc in offsets]
    return np.stack(planes, axis=-1)


def _decompose_clamped(patches: np.ndarray, q: int):
    # training crops are already in range; clip guards augmentation noise
    v = np.clip(patches, 0.0, 255.0) / float(2 ** q)
    base = np.floor(v)
    return base.astype(np.int64), v - base


def lerp_query(table, base, frac):
    """One query's multilinear blend, lerped axis by axis in plain Python.

    ``table`` is a float64 entry array ``(L,) * n + (m,)``; ``base`` and
    ``frac`` are the query's n lattice cells and fractions.  The 2**n
    corner rows are listed axis 0 first (the upper half takes the upper
    neighbour along axis 0); each axis then pairs every lower corner
    with its upper one as ``lo + (hi - lo) * f``.
    """
    n = len(base)
    corners = [table[tuple(b + c for b, c in zip(base, bits))]
               for bits in itertools.product((0, 1), repeat=n)]
    for f in frac:
        half = len(corners) // 2
        corners = [lo + (hi - lo) * f for lo, hi in zip(corners[:half], corners[half:])]
    return corners[0]


def add_at_forward_backward(tp, batch, cfg):
    """Reference step: per-query lerps and per-corner np.add.at gradient scatters.

    The forward lerps each query's corners axis by axis (:func:`lerp_query`),
    sharing no kernel with the table read it checks, and the backward
    scatters each corner with its own ``np.add.at`` call, rotation by
    rotation.  ``forward_backward`` must reproduce every bit of its
    losses and gradients.
    """
    for p in tp.parameters():
        p.grad[...] = 0.0
    tp.tau_grad[...] = 0.0
    config = tp.to_config()
    pool = config.pooling
    b, h, w = batch.inputs.shape
    rs = config.scale
    m = rs * rs
    count = b * h * w
    k = config.orientations.k
    npat = len(config.patterns)
    pad = max(p.reach for p in config.patterns)
    padded = np.pad(batch.inputs, ((0, 0), (pad, pad), (pad, pad)), mode="edge")

    xs = np.zeros((k, count, m))
    raws = {}
    for pi, (pattern, tl) in enumerate(zip(config.patterns, tp.luts)):
        for ri, r in enumerate(config.orientations.rotations):
            patches = _gather_batch(padded, pattern.rotated(r), pad, h, w)
            base, frac = _decompose_clamped(patches.reshape(count, pattern.n), tl.lut.q)
            idx, wts = loop_corner_weights(base, frac, tl.lut.lattice_points)
            out = np.array([lerp_query(tl.lut.entries, b, f) for b, f in zip(base, frac)])
            perm = block_permutation(m, r) if m > 1 else None
            if perm is not None:
                out = out[:, perm]
            xs[ri] += out / npat
            raws[(pi, ri)] = (idx, wts, perm)

    if pool.kind == "average":
        alpha = np.full((k, count), 1.0 / k)
    elif pool.kind == "gmp":
        tau = pool.tau
        dev = xs - np.mean(xs, axis=0)[None]
        if pool.norm == "l2":
            dist = np.sqrt(np.sum(dev * dev, axis=-1))
        else:
            dist = np.sum(np.abs(dev), axis=-1)
        alpha = softmax(-dist / tau, axis=0)
    else:
        cp = config.coeff_pattern
        cpadded = np.pad(batch.inputs, ((0, 0), (cp.reach,) * 2, (cp.reach,) * 2),
                         mode="edge")
        cpatches = _gather_batch(cpadded, cp.offsets, cp.reach, h, w)
        cbase, cfrac = _decompose_clamped(cpatches.reshape(count, cp.n),
                                          tp.coeff.lut.q)
        cidx, cwts = loop_corner_weights(cbase, cfrac, tp.coeff.lut.lattice_points)
        logits = np.array([lerp_query(tp.coeff.lut.entries, b, f)
                           for b, f in zip(cbase, cfrac)])
        alpha = softmax(logits, axis=1).T

    pred = np.sum(alpha[:, :, None] * xs, axis=0)
    if config.residual:
        if rs > 1:
            up = _resize_axis(batch.inputs, h * rs, float(rs), 1)
            up = _resize_axis(up, w * rs, float(rs), 2)
            pred = pred + to_blocks(up, rs)
        else:
            pred = pred + batch.inputs.reshape(count, 1)
    fid, g = _loss_and_grad(pred - to_blocks(batch.targets, rs), cfg.loss)
    reg = 0.0
    if cfg.reg_weight != 0.0:
        reg = entropy_regularizer(alpha.T)
    losses = {"total": fid + cfg.reg_weight * reg, "fidelity": fid,
              "regularizer": reg}

    grad_xs = alpha[:, :, None] * g[None]
    if pool.kind in ("gmp", "oap"):
        c = np.einsum("nm,knm->kn", g, xs)
        if cfg.reg_weight != 0.0:
            c = c + cfg.reg_weight * (
                np.log(np.maximum(alpha, 1e-300)) + 1.0) / count
    if pool.kind == "gmp":
        s = alpha * (c - np.sum(alpha * c, axis=0, keepdims=True))
        if tp.tau_trainable:
            tp.tau_grad[0] = float(np.sum(s * dist) / tau)
        if pool.norm == "l2":
            unit = dev / np.maximum(dist, 1e-300)[:, :, None]
        else:
            unit = np.sign(dev)
        t = (-s / tau)[:, :, None] * unit
        grad_xs += t - t.sum(axis=0, keepdims=True) / k
    elif pool.kind == "oap":
        arow, crow = alpha.T, c.T
        srow = arow * (crow - np.sum(arow * crow, axis=1, keepdims=True))
        cflat_grad = tp.coeff.grad.reshape(-1, k)
        for corner in range(cidx.shape[1]):
            np.add.at(cflat_grad, cidx[:, corner], cwts[:, corner, None] * srow)

    for pi, tl in enumerate(tp.luts):
        flat_grad = tl.grad.reshape(-1, m)
        for ri in range(k):
            idx, wts, perm = raws[(pi, ri)]
            gout = grad_xs[ri] / npat
            graw = gout
            if perm is not None:
                graw = np.empty_like(gout)
                graw[:, perm] = gout
            for corner in range(idx.shape[1]):
                np.add.at(flat_grad, idx[:, corner], wts[:, corner, None] * graw)
    return losses


def step_gradients(tp):
    grads = [tl.grad.copy() for tl in tp.parameters()]
    return grads + [tp.tau_grad.copy()]


FUSIONS = {
    "average": dict(pooling="average", loss="charbonnier"),
    "gmp-l1": dict(pooling="gmp", norm="l1", loss="l1"),
    "gmp-l2": dict(pooling="gmp", norm="l2", loss="l2"),
    "oap": dict(pooling="oap", loss="charbonnier"),
}


def oracle_pipeline(rng, task, fusion, patterns, scale=2, rotations=(0, 1, 2, 3)):
    """A step-ready pipeline of random tables; ``scale`` applies to sr."""
    spec = FUSIONS[fusion]
    q = 5
    scale = scale if task == "sr" else 1
    k = len(rotations)
    kw = {"orientations": OrientationSet(tuple(rotations))}
    if spec["pooling"] == "oap":
        shape = (lattice_size(q),) * 4 + (k,)
        kw["coeff"] = TrainableLut(RealLut(q, 4, k, rng.normal(0, 1, shape)))
    if spec["pooling"] == "gmp":
        kw["norm"] = spec["norm"]
    tp = TrainablePipeline.zero_init(task, scale, q=q, patterns=patterns,
                                     pooling=spec["pooling"], **kw)
    for tl in tp.luts:
        tl.lut.entries[...] = rng.normal(0, 4, tl.lut.entries.shape)
    if spec["pooling"] == "gmp":
        tp.tau_trainable = True
        tp.log_tau[...] = math.log(30.0)
    cfg = TrainConfig(iterations=1, loss=spec["loss"], reg_weight=1e-3)
    return tp, cfg


def assert_step_matches_reference(tp, batch, cfg):
    losses = forward_backward(tp, batch, cfg)
    got = step_gradients(tp)
    want_losses = add_at_forward_backward(tp, batch, cfg)
    want = step_gradients(tp)
    assert losses == want_losses
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert any(np.any(a != 0.0) for a in got)


class TestVectorizedStep:
    """forward_backward against the per-corner np.add.at reference."""

    @pytest.mark.parametrize("patterns", ["S", "SDY"])
    @pytest.mark.parametrize("fusion", sorted(FUSIONS))
    @pytest.mark.parametrize("task", ["restore", "sr"])
    def test_bitwise_equal_to_add_at_reference(self, task, fusion, patterns):
        rng = np.random.default_rng(20)
        pats = ([SQUARE_PATTERN] if patterns == "S"
                else [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN])
        tp, cfg = oracle_pipeline(rng, task, fusion, pats)
        rs = tp.config.scale
        inputs = rng.uniform(0, 255, (3, 6, 6))
        inputs[0] = np.round(inputs[0])         # lattice-aligned and exact values
        batch = Batch(inputs, rng.uniform(0, 255, (3, 6 * rs, 6 * rs)))
        assert_step_matches_reference(tp, batch, cfg)

    @pytest.mark.parametrize("rotations", [(1, 3), (0, 1, 3), (3,)],
                             ids=lambda r: "".join(map(str, r)))
    @pytest.mark.parametrize("scale", [2, 3])
    @pytest.mark.parametrize("fusion", ["gmp-l2", "oap"])
    def test_orientation_subsets(self, fusion, scale, rotations):
        # each rotation's gradient is written to the columns its block
        # permutation picks; a subset without turn 0, or with turn 3
        # alone, puts no rotation at its own index
        rng = np.random.default_rng(26)
        tp, cfg = oracle_pipeline(rng, "sr", fusion, [SQUARE_PATTERN, DIAGONAL_PATTERN],
                                  scale=scale, rotations=rotations)
        inputs = rng.uniform(0, 255, (2, 5, 6))
        inputs[0] = np.round(inputs[0])
        batch = Batch(inputs, rng.uniform(0, 255, (2, 5 * scale, 6 * scale)))
        assert_step_matches_reference(tp, batch, cfg)

    @pytest.mark.parametrize("fusion", sorted(FUSIONS))
    def test_stale_gradients_are_overwritten(self, fusion):
        # the step writes every gradient entry (untouched rows with +0.0)
        # rather than adding onto whatever the buffers held
        rng = np.random.default_rng(23)
        tp, cfg = oracle_pipeline(rng, "sr", fusion, [SQUARE_PATTERN, DIAGONAL_PATTERN])
        batch = Batch(rng.uniform(0, 255, (2, 5, 5)), rng.uniform(0, 255, (2, 10, 10)))
        for tl in tp.parameters():
            tl.grad[...] = np.nan
        tp.tau_grad[...] = np.nan
        losses = forward_backward(tp, batch, cfg)
        got = step_gradients(tp)
        assert losses == add_at_forward_backward(tp, batch, cfg)
        for a, b in zip(got, step_gradients(tp)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fusion", sorted(FUSIONS))
    def test_constant_crops_share_one_cell(self, fusion):
        # every query of every rotation reads the same 16 entries, so
        # each entry's gradient is a long sum whose order is visible
        rng = np.random.default_rng(21)
        tp, cfg = oracle_pipeline(rng, "sr", fusion, [SQUARE_PATTERN])
        batch = Batch(np.full((4, 8, 8), 77.5), rng.uniform(0, 255, (4, 16, 16)))
        assert_step_matches_reference(tp, batch, cfg)
        touched = np.count_nonzero(tp.luts[0].grad.reshape(-1, 4).any(axis=1))
        assert touched == 16

    def test_single_query_restore(self):
        # N * m == 1: the case where a plain g.sum(axis=0) would round
        # differently (numpy sums a lone column pairwise)
        rng = np.random.default_rng(22)
        tp, cfg = oracle_pipeline(rng, "restore", "oap", [SQUARE_PATTERN])
        for _ in range(20):
            batch = Batch(rng.uniform(0, 255, (1, 1, 1)),
                          rng.uniform(0, 255, (1, 1, 1)))
            assert_step_matches_reference(tp, batch, cfg)

    @pytest.mark.parametrize("n, lattice", [(1, 257), (2, 17), (3, 9), (4, 17)])
    def test_corner_weights_are_the_loop_transposed(self, n, lattice):
        rng = np.random.default_rng(n)
        base = rng.integers(0, lattice - 1, (500, n))
        frac = rng.uniform(0, 1, (500, n))
        frac[::7] = 0.0
        frac[1::11] = np.nextafter(1.0, 0.0)
        rows = base @ lattice ** np.arange(n - 1, -1, -1, dtype=np.int64)
        out = (np.empty((1 << n, 500), np.int64), np.empty((1 << n, 500)))
        idx, w = corner_weights(rows, frac.T, lattice, out=out)
        assert idx is out[0] and w is out[1]
        want_idx, want_w = loop_corner_weights(base, frac, lattice)
        assert idx.tobytes() == np.ascontiguousarray(want_idx.T).tobytes()
        assert w.tobytes() == np.ascontiguousarray(want_w.T).tobytes()
        with pytest.raises(ValueError):
            corner_weights(rows, frac.T, lattice,
                           out=(idx, np.empty((500, 1 << n)).T))


class TestStepBuffers:
    """The step's large arrays are per-thread buffers reused across steps."""

    @pytest.mark.parametrize("fusion", sorted(FUSIONS))
    def test_a_taped_pass_before_the_backward_changes_no_gradient(self, fusion, monkeypatch):
        # the backward forms its queries from the batch, so another taped
        # pass on this thread between the forward and the backward (over
        # other crops) leaves every gradient bit as it was
        rng = np.random.default_rng(24)
        tp, cfg = oracle_pipeline(rng, "sr", fusion, [SQUARE_PATTERN, DIAGONAL_PATTERN])
        batch = Batch(rng.uniform(0, 255, (2, 5, 7)), rng.uniform(0, 255, (2, 10, 14)))
        other = rng.uniform(0, 255, (2, 5, 7))
        forward_backward(tp, batch, cfg)
        want = step_gradients(tp)
        train_module = importlib.import_module("lutpool.train")
        forward = train_module._forward
        ensembles = []

        def interleaved(*args):
            result = forward(*args)
            tape = {}
            stage_pass(other, tp.config, tape=tape)
            ensembles.extend([result[3], tape["xs"]])
            return result

        monkeypatch.setattr(train_module, "_forward", interleaved)
        forward_backward(tp, batch, cfg)
        for a, b in zip(step_gradients(tp), want):
            assert a.tobytes() == b.tobytes()
        # the ensemble is the caller's to keep
        assert not np.shares_memory(*ensembles)

    @staticmethod
    def warm_step(pooling: str = "oap", adam: bool = False, norm: str = "l2"):
        """Tracemalloc peak of the third step on a fresh thread, and its scratch bytes.

        The benchmark's memory probe: 16 crops of 16x16, S/q4 x2 tables
        and, for oap, a q5 coefficient table; gmp trains its temperature
        under the l2 norm.  The buffers were grown by the two earlier
        steps, so a warm step allocates only small temporaries.  The
        thread starts with no scratch, so the bytes it holds after the
        three steps are what a training thread keeps.
        """
        def run():
            rng = np.random.default_rng(25)
            kw = {"norm": norm}
            if pooling == "oap":
                kw["coeff"] = TrainableLut(
                    RealLut(5, 4, 4, np.zeros((lattice_size(5),) * 4 + (4,))))
            tp = TrainablePipeline.zero_init("sr", 2, q=4, pooling=pooling, **kw)
            tp.tau_trainable = pooling == "gmp" and norm == "l2"
            pairs = sr_pairs(count=4, size=48, seed=2)
            cfg = TrainConfig(iterations=1, batch_size=16, crop=16, lr=5e-2)

            def step(batch):
                assert math.isfinite(forward_backward(tp, batch, cfg)["total"])
                if adam:
                    for param in tp.parameters():
                        adam_step(param.lut.entries, param.grad, param.adam, 0, cfg.lr)

            for _ in range(2):
                step(sample_batch(rng, pairs, 16, 2, 16))
            batch = sample_batch(rng, pairs, 16, 2, 16)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                step(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, sum(buf.nbytes for buf in _scratch.buffers.values())

        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(run).result()

    def test_warm_oap_step_peak(self):
        # 8.54 MB when the tape, gather, products and Adam slices were fresh
        peak, _ = self.warm_step(adam=True)
        assert peak <= 4e6, peak

    def test_warm_oap_forward_backward_peak(self):
        # 2.24e6 B while the output gradient divided by the pattern count
        # was a second (k, N, m) array; 1.77e6 B divided in place, while
        # the ensemble, the output gradient and a per-rotation copy lived
        # through the scatter; 1.07e6 B, the taped stage pass's own peak,
        # since the ensemble is dropped before any rotation gradient exists
        peak, _ = self.warm_step()
        assert peak <= 1.15e6, peak

    def test_warm_average_forward_backward_peak(self):
        # 1.33e6 B with the (k, N, m) output gradient; 0.94e6 B without
        peak, _ = self.warm_step("average")
        assert peak <= 1.0e6, peak

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_warm_gmp_forward_backward_peak(self, norm):
        # 3.16e6 B with the deviations, unit vectors and distance terms as
        # separate (k, N, m) arrays; 1.31e6 B formed in the ensemble's own
        peak, _ = self.warm_step("gmp", norm=norm)
        assert peak <= 1.4e6, peak

    def test_scratch_of_warm_oap_steps(self):
        # 11.20e6 B when the scatter's corner indices, weights and products
        # kept slots of their own beside the corner fold's; 8.05e6 B shared;
        # 7.24e6 B since the tape keeps no queries
        _, scratch = self.warm_step(adam=True)
        assert scratch <= 7.3e6, scratch


class TestCornerWeightCalls:
    """The backward pass forms corner weights through ``lut.corner_weights``."""

    def test_once_per_pattern_rotation_and_coefficient_table(self, monkeypatch):
        # a tracer that wraps lutpool.lut.corner_weights sees every
        # taped query: one call per (pattern, rotation), one for the
        # coefficient table, each over the batch's N queries
        rng = np.random.default_rng(27)
        tp, cfg = oracle_pipeline(rng, "sr", "oap", [SQUARE_PATTERN, DIAGONAL_PATTERN])
        batch = Batch(rng.uniform(0, 255, (2, 5, 7)), rng.uniform(0, 255, (2, 10, 14)))
        calls = []

        def counter(rows, frac, lattice, out):
            calls.append((rows.shape, frac.shape, lattice))
            return corner_weights(rows, frac, lattice, out)

        monkeypatch.setattr(importlib.import_module("lutpool.lut"), "corner_weights",
                            counter)
        forward_backward(tp, batch, cfg)
        k, count = tp.config.orientations.k, batch.inputs.size
        coeff = tp.coeff.lut
        patterns = [(p.n, tl.lut.lattice_points)
                    for p, tl in zip(tp.config.patterns, tp.luts)]
        assert calls == ([((count,), (coeff.n, count), coeff.lattice_points)]
                         + [((count,), (n, count), lattice)
                            for n, lattice in patterns for _ in range(k)])
        calls.clear()
        loss_only(tp, batch, cfg)                # the forward alone forms none
        assert calls == []


class TestTrainInferParity:
    """The taped training forward against inference: one fold, the same bits."""

    @pytest.mark.parametrize("patterns", ["S", "SDY"])
    @pytest.mark.parametrize("fusion", sorted(FUSIONS))
    @pytest.mark.parametrize("task", ["restore", "sr"])
    def test_training_forward_matches_run_real(self, task, fusion, patterns):
        rng = np.random.default_rng(23)
        pats = ([SQUARE_PATTERN] if patterns == "S"
                else [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN])
        tp, _ = oracle_pipeline(rng, task, fusion, pats)
        image = rng.uniform(0, 255, (9, 11))
        image[0] = np.round(image[0])
        config = tp.to_config()
        rs = config.scale
        tape = {}
        blocks, _ = stage_pass(image[None], config, tape=tape)
        assert set(tape) == {"xs"}
        got = np.clip(pixel_shuffle(blocks.reshape(9, 11, rs, rs)), 0.0, 255.0)
        np.testing.assert_array_equal(got, _run_real(image, config, None))


def fd_relative_errors(tp, batch, cfg, rng, n_coords=30, h=1e-4):
    """Central-difference check of every parameter group; returns rels."""
    forward_backward(tp, batch, cfg)
    groups = [(tl.lut.entries, tl.grad) for tl in tp.parameters()]
    if tp.config.pooling.kind == "gmp" and tp.tau_trainable:
        groups.append((tp.log_tau, tp.tau_grad))
    rels = []
    for values, grad in groups:
        flatv = values.reshape(-1)
        flatg = grad.reshape(-1)
        touched = np.flatnonzero(np.abs(flatg) > 1e-12)
        if touched.size == 0:
            continue
        picks = rng.choice(touched, size=min(n_coords, touched.size),
                           replace=False)
        for idx in picks:
            keep = flatv[idx]
            flatv[idx] = keep + h
            lp = loss_only(tp, batch, cfg)
            flatv[idx] = keep - h
            lm = loss_only(tp, batch, cfg)
            flatv[idx] = keep
            fd = (lp - lm) / (2.0 * h)
            an = flatg[idx]
            rels.append(abs(fd - an) / max(1e-8, abs(fd) + abs(an)))
    return np.array(rels)


class TestFiniteDifferenceGradients:
    def make_batch(self, rng):
        return Batch(rng.uniform(0, 255, (2, 8, 8)),
                     rng.uniform(0, 255, (2, 16, 16)))

    def make_cfg(self):
        return TrainConfig(iterations=1, loss="charbonnier", reg_weight=1e-3)

    def test_average_pooling(self):
        rng = np.random.default_rng(10)
        tp = TrainablePipeline.zero_init("sr", 2, q=6, patterns=[PAIR])
        tp.luts[0].lut.entries[...] = rng.normal(0, 2, tp.luts[0].lut.entries.shape)
        rels = fd_relative_errors(tp, self.make_batch(rng), self.make_cfg(), rng)
        assert rels.size >= 30
        assert rels.max() < 1e-4

    def test_gmp_pooling_with_temperature(self):
        rng = np.random.default_rng(11)
        tp = TrainablePipeline.zero_init("sr", 2, q=6, patterns=[PAIR],
                                         pooling="gmp")
        tp.luts[0].lut.entries[...] = rng.normal(0, 2, tp.luts[0].lut.entries.shape)
        tp.tau_trainable = True
        tp.log_tau[...] = math.log(50.0)
        rels = fd_relative_errors(tp, self.make_batch(rng), self.make_cfg(), rng)
        assert rels.size >= 31  # entries plus the temperature coordinate
        assert rels.max() < 1e-4

    def test_oap_pooling_with_coeff(self):
        rng = np.random.default_rng(12)
        shape = (lattice_size(6),) * 2 + (4,)
        coeff = TrainableLut(RealLut(6, 2, 4, rng.normal(0, 1, shape)))
        tp = TrainablePipeline.zero_init("sr", 2, q=6, patterns=[PAIR],
                                         pooling="oap", coeff=coeff,
                                         coeff_pattern=PAIR)
        tp.luts[0].lut.entries[...] = rng.normal(0, 2, tp.luts[0].lut.entries.shape)
        rels = fd_relative_errors(tp, self.make_batch(rng), self.make_cfg(), rng)
        assert rels.size >= 60  # entries and coefficient logits
        assert rels.max() < 1e-4

    def test_gmp_untrained_tau_keeps_zero_grad(self):
        rng = np.random.default_rng(13)
        tp = TrainablePipeline.zero_init("sr", 2, q=6, patterns=[PAIR],
                                         pooling="gmp")
        tp.luts[0].lut.entries[...] = rng.normal(0, 2, tp.luts[0].lut.entries.shape)
        forward_backward(tp, self.make_batch(rng), self.make_cfg())
        assert tp.tau_grad[0] == 0.0


class TestTrainingLoop:
    def run_config(self):
        return TrainConfig(iterations=30, batch_size=4, crop=8, lr=1e-3,
                           seed=0, val_interval=10)

    def test_initial_validation_matches_bicubic(self):
        pairs = sr_pairs()
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        got = evaluate_pairs(tp.to_config(), pairs[6:], border=2)
        scores = []
        for inp, tgt in pairs[6:]:
            up = round_half_away(np.clip(bicubic_resize(inp, 2.0), 0, 255))
            scores.append(psnr(up[2:-2, 2:-2], np.asarray(tgt, float)[2:-2, 2:-2]))
        assert got == pytest.approx(np.mean(scores), abs=1e-12)

    def test_short_run_improves_and_reports(self):
        pairs = sr_pairs()
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        report = train(tp, pairs[:6], pairs[6:], self.run_config())
        assert report.steps == 30
        assert len(report.history) == 30
        assert {"step", "lr", "total", "fidelity", "regularizer"} \
            <= set(report.history[0])
        # init entry plus one entry per validation visit
        assert report.val_history[0][0] == -1
        assert len(report.val_history) == 1 + 3
        init_psnr = report.val_history[0][1]
        assert report.best_val_psnr >= init_psnr
        # restored parameters reproduce the reported best score
        assert evaluate_pairs(tp.to_config(), pairs[6:], border=2) \
            == pytest.approx(report.best_val_psnr, abs=1e-12)

    def test_bitwise_deterministic(self):
        pairs = sr_pairs()
        results = []
        for _ in range(2):
            tp = TrainablePipeline.zero_init("sr", 2, q=4)
            report = train(tp, pairs[:6], pairs[6:], self.run_config())
            results.append((tp.luts[0].lut.entries.copy(), report))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1].val_history == results[1][1].val_history
        assert [h["total"] for h in results[0][1].history] \
            == [h["total"] for h in results[1][1].history]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 256.0, -1.0])
    @pytest.mark.parametrize("split, index, member", [
        ("training", 2, "input"), ("training", 0, "target"),
        ("validation", 1, "input"), ("validation", 0, "target")])
    def test_bad_pixels_rejected_by_pair(self, split, index, member, bad):
        pairs = [tuple(np.asarray(a, dtype=np.float64) for a in pair)
                 for pair in sr_pairs(6)]
        train_pairs, val_pairs = pairs[:4], pairs[4:]
        target = train_pairs if split == "training" else val_pairs
        target[index][0 if member == "input" else 1][3, 5] = bad
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        before = tp.luts[0].lut.entries.copy()
        with pytest.raises(ValueError, match=f"{split} pair {index}: {member}"):
            train(tp, train_pairs, val_pairs, self.run_config())
        np.testing.assert_array_equal(tp.luts[0].lut.entries, before)

    @pytest.mark.parametrize("split", ["training", "validation"])
    @pytest.mark.parametrize("pair", [
        (np.zeros((12, 12)), np.zeros((36, 36))),      # an x3 target
        (np.zeros((16, 16)), np.zeros((31, 32))),
        (np.zeros((12, 12)), np.zeros((12, 12))),
        (np.zeros((12, 12, 1)), np.zeros((24, 24, 1)))])
    def test_target_shape_checked_by_pair(self, split, pair):
        """An x2 pipeline refuses, before its first step, a target that is not x2 its input."""
        pairs = sr_pairs(6)
        train_pairs, val_pairs = pairs[:4], pairs[4:]
        (train_pairs if split == "training" else val_pairs)[1] = pair
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        before = tp.luts[0].lut.entries.copy()
        with pytest.raises(ValueError, match=f"{split} pair 1: target shape"):
            train(tp, train_pairs, val_pairs, self.run_config())
        np.testing.assert_array_equal(tp.luts[0].lut.entries, before)

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_empty_split_refused(self, monkeypatch, split):
        """An empty split is refused before the first batch: no validation
        score would beat the init's, and no training pair could be drawn."""
        pairs = sr_pairs(6)
        train_pairs, val_pairs = ([], pairs) if split == "training" else (pairs, [])
        monkeypatch.setattr(importlib.import_module("lutpool.train"), "sample_batch",
                            lambda *args: pytest.fail("sample_batch called"))
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        with pytest.raises(ValueError, match=f"the {split} split holds no pairs"):
            train(tp, train_pairs, val_pairs, self.run_config())

    @pytest.mark.parametrize("crop", [8, 100000])
    def test_crop_checked_before_any_batch(self, monkeypatch, crop):
        """A crop larger than a training input is refused before a batch is allocated."""
        pairs = sr_pairs(6)                     # 12 x 12 inputs
        train_pairs, val_pairs = pairs[:4], pairs[4:]
        inp, tgt = train_pairs[2]
        train_pairs[2] = (inp[:, :7], tgt[:, :14])
        monkeypatch.setattr(importlib.import_module("lutpool.train"), "sample_batch",
                            lambda *args: pytest.fail("sample_batch called"))
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        cfg = TrainConfig(iterations=2, batch_size=2, crop=crop, seed=0)
        first = 2 if crop == 8 else 0
        with pytest.raises(ValueError, match=f"training pair {first}: input shape "
                                             rf"\(12, {7 if first else 12}\) is smaller "
                                             f"than crop {crop}"):
            train(tp, train_pairs, val_pairs, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 256.0])
    @pytest.mark.parametrize("member", ["input", "target"])
    @pytest.mark.parametrize("step", [forward_backward, loss_only])
    def test_bad_batch_rejected(self, step, member, bad):
        rng = np.random.default_rng(24)
        batch = Batch(rng.uniform(0, 255, (2, 8, 8)), rng.uniform(0, 255, (2, 16, 16)))
        (batch.inputs if member == "input" else batch.targets)[1, 3, 5] = bad
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        with pytest.raises(ValueError, match=f"batch {member} pixels must be finite"):
            step(tp, batch, self.run_config())

    @pytest.mark.parametrize("shape", [(2, 32, 8), (2, 16, 17), (2, 8, 8)])
    @pytest.mark.parametrize("step", [forward_backward, loss_only])
    def test_batch_target_shape_checked(self, step, shape):
        # (2, 32, 8) holds as many pixels as the (2, 16, 16) targets of
        # x2 crops of 8x8, so only the shape tells it apart
        rng = np.random.default_rng(24)
        batch = Batch(rng.uniform(0, 255, (2, 8, 8)), rng.uniform(0, 255, shape))
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        with pytest.raises(ValueError, match=r"batch target shape .* is not x2"):
            step(tp, batch, self.run_config())

    @pytest.mark.parametrize("dtype", [np.complex128, object, np.str_, np.bool_])
    @pytest.mark.parametrize("entry", ["restore_image", "query_batch", "query", "fuse_oap",
                                       "train", "forward_backward"])
    def test_non_real_pixel_dtypes_rejected(self, entry, dtype):
        """A complex, object, string or bool array of 7s is refused, not converted."""
        def bad(shape):
            return np.full(shape, 7).astype(dtype)

        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        pairs = sr_pairs(4)
        calls = {
            "restore_image": lambda: restore_image(bad((8, 8)), tp.to_config()),
            "query_batch": lambda: query_batch(tp.luts[0].lut, bad((3, 4))),
            "query": lambda: query(tp.luts[0].lut, bad(4)),
            "fuse_oap": lambda: fuse_oap(np.zeros((4, 1)), bad(4), tp.luts[0].lut),
            "train": lambda: train(tp, [(bad((24, 24)), pairs[0][1])] + pairs[1:2],
                                   pairs[2:], self.run_config()),
            "forward_backward": lambda: forward_backward(
                tp, Batch(bad((2, 8, 8)), np.zeros((2, 16, 16))), self.run_config()),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no ComplexWarning on the way
            with pytest.raises(ValueError, match="pixels must be real numbers"):
                calls[entry]()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        pairs = sr_pairs(4)
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        tp.luts[0].lut.entries[...] = 1e308
        cfg = TrainConfig(iterations=5, batch_size=2, crop=8, loss="l2",
                          reg_weight=0.0, seed=0)
        with pytest.raises(TrainingDivergedError):
            train(tp, pairs[:3], pairs[3:], cfg)


class TestFinetune:
    def base(self, pairs):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        train(tp, pairs[:6], pairs[6:],
              TrainConfig(iterations=20, batch_size=4, crop=8, lr=1e-3,
                          seed=0, val_interval=10))
        return tp

    def test_oap_starts_exactly_at_averaging(self):
        pairs = sr_pairs()
        tp = self.base(pairs)
        base_psnr = evaluate_pairs(tp.to_config(), pairs[6:], border=2)
        ft, report = finetune(tp, pairs[:6], pairs[6:],
                              TrainConfig(iterations=10, batch_size=4, crop=8,
                                          lr=1e-3, seed=1, val_interval=5),
                              pooling="oap", coeff_q=5)
        assert ft.config.pooling.kind == "oap"
        assert ft.coeff.lut.q == 5
        assert ft.coeff.lut.m == 4
        # the init snapshot evaluates identically to the averaging base
        assert report.val_history[0] == (-1, base_psnr)
        assert report.best_val_psnr >= base_psnr
        assert ft.luts[0].lr_factor == pytest.approx(0.1)

    def test_finetune_leaves_base_untouched(self):
        pairs = sr_pairs()
        tp = self.base(pairs)
        before = tp.luts[0].lut.entries.copy()
        finetune(tp, pairs[:6], pairs[6:],
                 TrainConfig(iterations=5, batch_size=2, crop=8, lr=1e-2,
                             seed=1, val_interval=5), pooling="oap")
        np.testing.assert_array_equal(tp.luts[0].lut.entries, before)

    def test_gmp_init_temperature(self):
        pairs = sr_pairs()
        tp = self.base(pairs)
        ft, report = finetune(tp, pairs[:6], pairs[6:],
                              TrainConfig(iterations=5, batch_size=4, crop=8,
                                          lr=1e-3, seed=1, val_interval=5),
                              pooling="gmp", tau_init=256.0)
        assert ft.tau_trainable
        assert ft.config.pooling.kind == "gmp"
        base_psnr = evaluate_pairs(tp.to_config(), pairs[6:], border=2)
        assert report.best_val_psnr >= base_psnr

    def test_log_tau_step_is_bounded(self, monkeypatch):
        # TestBytePin's gmp recipe fine-tuned at lr 5e-2 instead of 2e-3:
        # unbounded, its first log_tau step is about 2.5
        training = importlib.import_module("lutpool.train")
        recipe = DegradationRecipe("bicubic_down", scale=2)
        imgs = make_synthetic_corpus(16, 48, 7)
        pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(imgs)]
        tp = TrainablePipeline.zero_init("sr", 2, q=4, norm="l1")
        train(tp, pairs[:12], pairs[12:],
              TrainConfig(iterations=30, batch_size=16, crop=16, lr=5e-2, seed=7,
                          val_interval=5))
        log_taus = []

        def improving(config, pairs, border=0):
            # every evaluation beats the last, so no step is rolled back
            log_taus.append(math.log(config.pooling.tau))
            return float(len(log_taus))

        monkeypatch.setattr(training, "evaluate_pairs", improving)
        _, report = finetune(tp, pairs[:12], pairs[12:],
                             TrainConfig(iterations=3, batch_size=16, crop=16, lr=5e-2,
                                         seed=8, val_interval=1),
                             pooling="gmp", tau_init=20.0)
        assert report.best_step == 2 and len(log_taus) == 4
        steps = np.abs(np.diff(log_taus))
        assert steps.max() <= training._LOG_TAU_STEP + 1e-12
        assert steps[0] == pytest.approx(training._LOG_TAU_STEP, abs=1e-12)

    def test_default_gmp_temperature_is_large(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        pairs = sr_pairs(4)
        ft, _ = finetune(tp, pairs[:3], pairs[3:],
                         TrainConfig(iterations=1, batch_size=2, crop=8,
                                     seed=0, val_interval=1), pooling="gmp")
        assert ft.to_config().pooling.tau == pytest.approx(1e4, rel=1e-9)

    def test_rejects_other_poolings(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        with pytest.raises(ValueError):
            finetune(tp, [], [], TrainConfig(iterations=1), pooling="average")

    @pytest.mark.parametrize("pooling", ["gmp", "oap"])
    def test_rejects_a_bad_tau_init_before_copying(self, monkeypatch, pooling):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        monkeypatch.setattr(RealLut, "copy", lambda self: pytest.fail("table copied"))
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau_init"):
                finetune(tp, [], [], TrainConfig(iterations=1), pooling, tau_init=tau)


class TestExport:
    def test_residual_tables_signed(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        config, reports = export_pipeline(tp)
        lut = config.stages[0][0]
        assert lut.signed
        np.testing.assert_array_equal(lut.entries, 128)  # zero residual
        assert reports["stage0_pattern0"].max_error == 0.0

    def test_zero_logit_coeff_exports_to_exact_quarters(self):
        shape = (lattice_size(5),) * 4 + (4,)
        coeff = TrainableLut(RealLut(5, 4, 4, np.zeros(shape)))
        tp = TrainablePipeline.zero_init("sr", 2, q=4, pooling="oap",
                                         coeff=coeff)
        config, _ = export_pipeline(tp)
        stored = config.pooling.coeff_lut
        np.testing.assert_array_equal(stored.entries, 64)
        w = oap_weights(np.array([[7.0, 8.0, 9.0, 10.0]]), stored)
        np.testing.assert_array_equal(w[:, 0], 0.25)

    def test_exported_config_runs(self):
        rng = np.random.default_rng(14)
        tp = TrainablePipeline.zero_init("sr", 2, q=4)
        tp.luts[0].lut.entries[...] = rng.normal(0, 3, tp.luts[0].lut.entries.shape)
        config, _ = export_pipeline(tp)
        img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        out = restore_image(img, config)
        assert out.shape == (20, 20)


class TestModelDescription:
    """The trainable model is its PipelineConfig; nothing beside it mirrors it."""

    def oap_pipeline(self):
        shape = (lattice_size(5),) * 2 + (4,)
        coeff = TrainableLut(RealLut(5, 2, 4, np.zeros(shape)))
        return TrainablePipeline.zero_init("sr", 2, q=4, patterns=[SQUARE_PATTERN, PAIR],
                                           pooling="oap", coeff=coeff, coeff_pattern=PAIR)

    def test_parameters_are_the_config_tables(self):
        tp = self.oap_pipeline()
        config = tp.to_config()
        assert tp.to_config() is config is tp.config
        params = tp.parameters()
        for i, table in enumerate(config.stages[0]):
            assert params[i].lut is table
        assert params[-1] is tp.coeff
        assert tp.coeff.lut is config.pooling.coeff_lut

    def test_no_mirrored_fields(self):
        tp = self.oap_pipeline()
        for name in ("task", "scale", "patterns", "orientations", "pooling",
                     "residual", "norm", "coeff_pattern", "tau", "rs"):
            assert not hasattr(tp, name), name

    def test_tau_follows_log_tau(self):
        tp = TrainablePipeline.zero_init("restore", 1, q=4, pooling="gmp")
        assert tp.to_config().pooling.tau == 1.0
        tp.log_tau[...] = math.log(30.0)
        assert tp.to_config().pooling.tau == float(np.exp(math.log(30.0)))

    def test_export_leaves_the_config_alone(self):
        tp = self.oap_pipeline()
        config = tp.to_config()
        tables, pool = list(config.stages[0]), config.pooling
        exported, _ = export_pipeline(tp)
        assert config.stages[0] == tables and config.pooling is pool
        assert pool.coeff_lut is tp.coeff.lut
        assert exported is not config and exported.pooling is not pool
        for table, qlut in zip(tables, exported.stages[0]):
            assert qlut is not table and qlut.entries.dtype == np.uint8
        assert exported.pooling.coeff_lut.entries.dtype == np.uint8

    def test_finetune_builds_its_own_config(self):
        tp = TrainablePipeline.zero_init("sr", 2, q=4, norm="l1")
        config = tp.to_config()
        tables = list(config.stages[0])
        pairs = sr_pairs(4)
        ft, _ = finetune(tp, pairs[:3], pairs[3:],
                         TrainConfig(iterations=2, batch_size=2, crop=8,
                                     seed=0, val_interval=1), pooling="gmp")
        assert tp.config is config and config.stages[0] == tables
        assert config.pooling.kind == "average"
        assert ft.config is not config
        assert all(a is not b for a, b in zip(ft.config.stages[0], tables))
        assert ft.config.pooling.norm == "l1"

    def test_config_checks_reject_bad_models(self):
        lut = RealLut(4, 4, 1, np.zeros((17,) * 4 + (1,)))
        with pytest.raises(ValueError, match="tables for"):
            TrainablePipeline(PipelineConfig(stages=[[lut, lut]]))
        with pytest.raises(ValueError, match="single-stage"):
            TrainablePipeline(PipelineConfig(stages=[[lut], [lut]]))
        with pytest.raises(ValueError, match="coefficient table"):
            TrainablePipeline.zero_init("restore", 1, q=4, pooling="oap")


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _log_digests(report):
    rows = [[h["step"], h["lr"], h["total"], h["fidelity"], h["regularizer"]]
            for h in report.history]
    return _sha(rows), _sha(report.val_history)


class TestBytePin:
    """train() + finetune() bytes, with the training forward read through the inference fold.

    The oap recipe is the benchmark's S/q4 x2 average -> oap operation
    with fewer steps; the gmp recipe fine-tunes an l1 soft-median with a
    trainable temperature.  Tables, coefficient table, log_tau and both
    reports' histories must keep every bit.
    """

    BASE = {"base_tables": "b93ede6e2b759895",
            "base_log": ("6ea609056ae8ace6", "4e75e5fde0bc8993")}
    RECIPES = {
        "oap": ("l2", dict(iterations=6, lr=5e-2), dict(coeff_q=5), {
            "tables": "f007cc6f8e09ce61", "coeff": "b9cf22c3d7e8da45",
            "log_tau": "af5570f5a1810b7a",
            "log": ("f128f7ebe502bcf6", "6cfce18171d3d432"), "best_steps": (24, 1)}),
        "gmp": ("l1", dict(iterations=8, lr=2e-3), dict(tau_init=20.0), {
            "tables": "ff9f68fdc0774f95", "coeff": None,
            "log_tau": "9eef7c5dce09d9b8",
            "log": ("bfa00742ce7ee2b7", "bf7b368365abef31"), "best_steps": (24, 5)}),
    }

    @pytest.mark.parametrize("pooling", sorted(RECIPES))
    def test_trained_bytes_are_pinned(self, pooling):
        norm, tune, kw, want = self.RECIPES[pooling]
        recipe = DegradationRecipe("bicubic_down", scale=2)
        imgs = make_synthetic_corpus(16, 48, 7)
        pairs = [(degrade(img, recipe, i), img) for i, img in enumerate(imgs)]
        train_pairs, val_pairs = pairs[:12], pairs[12:]
        tp = TrainablePipeline.zero_init("sr", 2, q=4, norm=norm)
        report = train(tp, train_pairs, val_pairs,
                       TrainConfig(iterations=30, batch_size=16, crop=16, lr=5e-2,
                                   seed=7, val_interval=5))
        ft, ft_report = finetune(tp, train_pairs, val_pairs,
                                 TrainConfig(batch_size=16, crop=16, seed=8,
                                             val_interval=2, **tune),
                                 pooling, **kw)
        params = ft.parameters()
        got = {
            "base_tables": _sha(*[p.lut.entries for p in tp.parameters()]),
            "base_log": _log_digests(report),
            "tables": _sha(params[0].lut.entries),
            "coeff": _sha(params[1].lut.entries) if pooling == "oap" else None,
            "log_tau": _sha(ft.log_tau),
            "log": _log_digests(ft_report),
            "best_steps": (report.best_step, ft_report.best_step),
        }
        assert got == {**self.BASE, **want}


def restore_pin_configs():
    """The inference pipelines whose output bytes are pinned, by name."""
    rng = np.random.default_rng(1601)
    s4 = QuantizedLut(4, 4, 1, rng.integers(0, 256, (17,) * 4 + (1,)))
    coeff = CoeffLut(5, 4, 4, rng.integers(0, 256, (lattice_size(5),) * 4 + (4,)))
    sdy = [SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN]
    signed = [QuantizedLut(4, 4, 4, rng.integers(96, 161, (17,) * 4 + (4,)), signed=True)
              for _ in sdy]
    real = RealLut(4, 4, 1, rng.normal(128.0, 40.0, (17,) * 4 + (1,)))
    q3 = QuantizedLut(3, 4, 1, rng.integers(0, 256, (lattice_size(3),) * 4 + (1,)))
    # a q3 n4 table's cell table (32**4 rows of 16 entries) is past the cap
    assert 32 ** 4 * 16 > _CELL_TABLE_BYTES
    return {
        "s-q4-average": PipelineConfig(stages=[s4]),
        "s-q4-gmp": PipelineConfig(stages=[s4], pooling=PoolingSpec(kind="gmp", tau=8.0)),
        "s-q4-oap-q5": PipelineConfig(stages=[s4],
                                      pooling=PoolingSpec(kind="oap", coeff_lut=coeff)),
        "sdy-x2-gmp-residual": PipelineConfig(
            task="sr", scale=2, patterns=sdy, residual=True,
            pooling=PoolingSpec(kind="gmp", tau=8.0), stages=[signed]),
        "real-s-q4": PipelineConfig(stages=[real]),
        "s-q3-no-cell-table": PipelineConfig(stages=[q3]),
    }


class TestRestoreBytePin:
    """Inference bytes of the image pipeline, recorded before table reads moved into lut.

    Each pipeline runs on seeded integral and non-integral frames of
    37x29 (one band) and 130x131 (two bands).  The sha256 of the uint8
    ``restore_image`` output, of the float64 ``_run_real`` output and of
    both query counters must keep every bit.
    """

    SHAPES = [(37, 29), (130, 131)]
    WANT = {
        "real-s-q4": "c70cd0856d196239",
        "s-q3-no-cell-table": "89734abefc564509",
        "s-q4-average": "bfaa9966de0e8337",
        "s-q4-gmp": "95015aa40d2781db",
        "s-q4-oap-q5": "7620ec20ce5df7b9",
        "sdy-x2-gmp-residual": "88ad77c1b9d5424f",
    }

    @staticmethod
    def frames():
        rng = np.random.default_rng(1602)
        for shape in TestRestoreBytePin.SHAPES:
            image = rng.integers(0, 256, shape).astype(np.float64)
            yield image
            yield np.clip(image + rng.uniform(-0.5, 0.5, shape), 0.0, 255.0)

    @pytest.mark.parametrize("name", sorted(restore_pin_configs()))
    def test_restored_bytes_are_pinned(self, name):
        config = restore_pin_configs()[name]
        h = hashlib.sha256()
        for image in self.frames():
            counters = QueryCounter()
            out = restore_image(image, config, counters)
            assert out.dtype == np.uint8
            h.update(out.tobytes())
            real = _run_real(image, config, None)
            assert real.dtype == np.float64
            h.update(real.tobytes())
            h.update(np.array([counters.lut_queries, counters.coeff_queries],
                              dtype=np.int64).tobytes())
        assert h.hexdigest()[:16] == self.WANT[name]
