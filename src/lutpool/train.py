"""Gradient-based optimization of lattice tables.

The forward pass is the inference pipeline's own stage kernel,
:func:`lutpool.pipeline.stage_pass`, run on a mini-batch of crops with a
tape and without the final clamp/quantization: oriented queries read
from the stage's cell and fraction planes, multilinear corner blends,
block unrotation, fusion, optional residual baseline.  Because a query
is a fixed convex blend of corner entries, the map from entries to
output is piecewise linear and the chain rule runs through the corner
weights on the tape; fusion weights are
differentiated through the softmax (and, for the soft-median, through
the distance terms, recomputed by :func:`lutpool.pooling.gmp_distances`,
and the log-temperature).  A batch holding NaN, infinite or
out-of-range pixels is rejected with ``ValueError`` before the kernel
runs.

With a tape the kernel writes each (pattern, rotation)'s corner indices
and weights into (rotations, 2**n, N) arrays, gathers all corner rows in
one ``np.take`` and adds the weighted rows corner by corner.  The
backward pass scatters each output column onto the table with one
``np.bincount`` over the whole (rotation, corner, row) sequence;
bincount adds in input order from zero, so every gradient entry is the
same sum, in the same order, as a per-corner ``np.add.at`` would form.

Everything is float64 numpy with a seeded generator and fixed reduction
order, so a (seed, config) pair reproduces training bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lut import CoeffLut, RealLut, lattice_size, quantize, round_half_away
# Kept as a module attribute although the stage kernel calls it through
# lutpool.lut: perfbench/tracing.py wraps ``train.corner_weights`` by name.
from .lut import corner_weights  # noqa: F401
from .metrics import psnr
from .orientation import (KernelPattern, OrientationSet, SQUARE_PATTERN,
                          block_permutation)
from .pipeline import PipelineConfig, restore_image, stage_pass, _to_blocks
from .pooling import PoolingSpec, gmp_distances, softmax


class TrainingDivergedError(Exception):
    """Raised when a step produces a non-finite loss."""


@dataclass
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 16
    crop: int = 16                 # crop side on the input grid
    lr: float = 1e-4
    loss: str = "charbonnier"      # charbonnier | l1 | l2
    epsilon: float = 1e-3          # charbonnier knee
    regularizer: str = "entropy"   # entropy | none
    reg_weight: float = 1e-3
    seed: int = 0
    augment: bool = True
    val_interval: int = 100
    finetune_lr_factor: float = 0.1
    tau_lr_factor: float = 50.0    # log-temperature moves on its own scale

    def __post_init__(self):
        if self.loss not in ("charbonnier", "l1", "l2"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.regularizer not in ("entropy", "none"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


def charbonnier(pred, target, epsilon: float = 1e-3) -> float:
    """Smooth L1: mean sqrt(diff**2 + epsilon**2)."""
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(np.sqrt(d * d + epsilon * epsilon)))


def entropy_regularizer(weights) -> float:
    """Negative entropy of fusion weights, sum(alpha * log alpha).

    Minimal (-log k) at uniform weights, maximal (0) at a one-hot
    vector; adding it to the loss therefore pushes weights toward the
    uniform blend.  Batched input is averaged over the leading axes.
    """
    w = np.asarray(weights, dtype=np.float64)
    terms = np.where(w > 0.0, w * np.log(np.maximum(w, 1e-300)), 0.0)
    per_point = terms.sum(axis=-1)
    return float(np.mean(per_point))


def cosine_lr(step: int, total_steps: int, lr_init: float) -> float:
    """Half-cosine decay from lr_init at step 0 to zero at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside schedule horizon 0..{total_steps}")
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class AdamState:
    exp_avg: np.ndarray
    exp_avg_sq: np.ndarray

    @classmethod
    def like(cls, values: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(values), np.zeros_like(values))


# Elements per adam_step slice: four operand slices and two scratch
# buffers of this size stay in a core's L2 cache across the update.
_ADAM_CHUNK = 1 << 15


def adam_step(values: np.ndarray, grad: np.ndarray, state: AdamState,
              step_index: int, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place Adam update; step_index counts completed steps (0-based)."""
    if values.shape != grad.shape:
        raise ValueError("gradient shape does not match parameters")
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    t = step_index + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    arrays = [np.atleast_1d(x) for x in
              (values, grad, state.exp_avg, state.exp_avg_sq)]
    # The textbook out-of-place update, operation for operation, run
    # through two scratch buffers over slices of the leading axis, so a
    # step allocates no parameter-size temporaries and each slice stays
    # in cache for the whole update.
    rows = max(1, _ADAM_CHUNK * len(arrays[0]) // max(arrays[0].size, 1))
    scratch_a = np.empty(arrays[0][:rows].shape)
    scratch_b = np.empty_like(scratch_a)
    for start in range(0, len(arrays[0]), rows):
        v, g, m1, m2 = (x[start:start + rows] for x in arrays)
        a, b = scratch_a[:len(v)], scratch_b[:len(v)]
        np.multiply(g, 1.0 - beta1, out=a)
        m1 *= beta1
        m1 += a
        np.multiply(g, 1.0 - beta2, out=a)
        a *= g
        m2 *= beta2
        m2 += a
        np.divide(m2, c2, out=a)           # v_hat
        np.sqrt(a, out=a)
        a += eps
        np.divide(m1, c1, out=b)           # m_hat
        b *= lr
        b /= a
        v -= b


@dataclass
class TrainableLut:
    """A real-valued table plus its gradient and optimizer buffers."""

    lut: RealLut
    lr_factor: float = 1.0
    grad: np.ndarray = None
    adam: AdamState = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.lut.entries)
        if self.adam is None:
            self.adam = AdamState.like(self.lut.entries)

    def zero_grad(self):
        self.grad[...] = 0.0


@dataclass
class TrainablePipeline:
    """Single-stage pipeline with trainable tables (one per pattern)."""

    task: str
    scale: int
    luts: list
    patterns: list = field(default_factory=lambda: [SQUARE_PATTERN])
    orientations: OrientationSet = field(default_factory=OrientationSet)
    pooling: str = "average"
    residual: bool = True
    norm: str = "l2"
    coeff: TrainableLut = None
    coeff_pattern: KernelPattern = SQUARE_PATTERN
    log_tau: np.ndarray = None
    tau_trainable: bool = False
    tau_grad: np.ndarray = None
    tau_adam: AdamState = None

    def __post_init__(self):
        if self.log_tau is None:
            self.log_tau = np.zeros(1)
        self.log_tau = np.asarray(self.log_tau, dtype=np.float64).reshape(1)
        if self.tau_grad is None:
            self.tau_grad = np.zeros(1)
        if self.tau_adam is None:
            self.tau_adam = AdamState.like(self.log_tau)
        if len(self.luts) != len(self.patterns):
            raise ValueError("one trainable table per pattern is required")
        if self.pooling == "oap" and self.coeff is None:
            raise ValueError("oap training needs a coefficient table")

    @classmethod
    def zero_init(cls, task: str, scale: int, q: int,
                  patterns=None, pooling: str = "average",
                  residual: bool = True, **kw) -> "TrainablePipeline":
        patterns = list(patterns) if patterns else [SQUARE_PATTERN]
        m = scale * scale if task == "sr" else 1
        luts = []
        for p in patterns:
            shape = (lattice_size(q),) * p.n + (m,)
            luts.append(TrainableLut(RealLut(q, p.n, m, np.zeros(shape))))
        return cls(task=task, scale=scale, luts=luts, patterns=patterns,
                   pooling=pooling, residual=residual, **kw)

    @property
    def rs(self) -> int:
        return self.scale if self.task == "sr" else 1

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_tau[0]))

    def parameters(self):
        params = list(self.luts)
        if self.pooling == "oap" and self.coeff is not None:
            params.append(self.coeff)
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()
        self.tau_grad[...] = 0.0

    def snapshot(self):
        return ([tl.lut.entries.copy() for tl in self.luts],
                self.coeff.lut.entries.copy() if self.coeff is not None else None,
                self.log_tau.copy())

    def load_snapshot(self, snap):
        entries, coeff_entries, log_tau = snap
        for tl, e in zip(self.luts, entries):
            tl.lut.entries[...] = e
        if coeff_entries is not None:
            self.coeff.lut.entries[...] = coeff_entries
        self.log_tau[...] = log_tau

    def to_config(self) -> PipelineConfig:
        pool = PoolingSpec(
            kind=self.pooling, tau=self.tau, norm=self.norm,
            coeff_lut=self.coeff.lut if (self.pooling == "oap" and self.coeff) else None)
        return PipelineConfig(
            task=self.task, scale=self.scale, patterns=list(self.patterns),
            orientations=self.orientations, pooling=pool, residual=self.residual,
            stages=[[tl.lut for tl in self.luts]],
            coeff_pattern=self.coeff_pattern)


@dataclass
class Batch:
    inputs: np.ndarray    # (B, h, w) float64 degraded crops
    targets: np.ndarray   # (B, h*rs, w*rs) float64 clean crops


def sample_batch(rng: np.random.Generator, pairs, crop: int, rs: int,
                 batch_size: int, augment: bool = True) -> Batch:
    """Random aligned crop pairs with optional rotation/flip augmentation."""
    ins, tgts = [], []
    for _ in range(batch_size):
        inp, tgt = pairs[rng.integers(len(pairs))]
        h, w = inp.shape
        if h < crop or w < crop:
            raise ValueError(f"image {inp.shape} smaller than crop {crop}")
        i = int(rng.integers(h - crop + 1))
        j = int(rng.integers(w - crop + 1))
        ci = np.asarray(inp[i:i + crop, j:j + crop], dtype=np.float64)
        ct = np.asarray(tgt[rs * i: rs * (i + crop), rs * j: rs * (j + crop)],
                        dtype=np.float64)
        if augment:
            r = int(rng.integers(4))
            f = int(rng.integers(2))
            ci = np.rot90(ci, r)
            ct = np.rot90(ct, r)
            if f:
                ci = np.flip(ci, axis=1)
                ct = np.flip(ct, axis=1)
        ins.append(np.ascontiguousarray(ci))
        tgts.append(np.ascontiguousarray(ct))
    return Batch(np.stack(ins), np.stack(tgts))


def _loss_and_grad(diff: np.ndarray, kind: str, epsilon: float):
    count = diff.size
    if kind == "charbonnier":
        root = np.sqrt(diff * diff + epsilon * epsilon)
        return float(np.mean(root)), diff / root / count
    if kind == "l1":
        return float(np.mean(np.abs(diff))), np.sign(diff) / count
    root = diff * diff
    return float(np.mean(root)), 2.0 * diff / count


def _scatter(flat_grad: np.ndarray, idx: np.ndarray, wts: np.ndarray,
             gout: np.ndarray) -> None:
    """Add wts * gout onto the rows idx of flat_grad, in idx order.

    idx/wts have shape (..., N) and gout (..., N, m) broadcasts against
    them over the leading axes (rotation and/or corner).  ``np.bincount``
    adds its weights in input order starting from 0.0, which is the
    order in which per-corner ``np.add.at`` calls add them, so the sums
    round identically.
    """
    rows = flat_grad.shape[0]
    flat_idx = idx.ravel()
    vals = np.empty(wts.shape)
    for j in range(flat_grad.shape[1]):
        np.multiply(wts, np.ascontiguousarray(gout[..., j]), out=vals)
        flat_grad[:, j] += np.bincount(flat_idx, vals.ravel(), minlength=rows)


def _check_pixels(image, what: str) -> None:
    a = np.asarray(image)
    # written so that NaN (for which every comparison is false) fails too
    if a.size and not (a.min() >= 0 and a.max() <= 255):
        raise ValueError(f"{what} pixels must be finite and lie in [0, 255]")


def _forward(tp: TrainablePipeline, batch: Batch, cfg: TrainConfig):
    """Losses of one batch through the pipeline's stage kernel.

    Returns the losses, the fusion weights (k, N), dL/dpred (N, m) and
    the kernel's tape of corner indices and weights.
    """
    _check_pixels(batch.inputs, "batch input")
    _check_pixels(batch.targets, "batch target")
    config = tp.to_config()
    tape = {}
    pred, alpha = stage_pass(batch.inputs, config.stages[0], config, tp.rs, tape=tape)
    diff = pred - _to_blocks(batch.targets, tp.rs)
    fid, dfid = _loss_and_grad(diff, cfg.loss, cfg.epsilon)

    reg = 0.0
    if cfg.regularizer == "entropy" and cfg.reg_weight != 0.0:
        reg = entropy_regularizer(alpha.T)
    total = fid + cfg.reg_weight * reg
    losses = {"total": total, "fidelity": fid, "regularizer": reg}
    return losses, alpha, dfid, tape


def loss_only(tp: TrainablePipeline, batch: Batch, cfg: TrainConfig) -> float:
    losses, _, _, _ = _forward(tp, batch, cfg)
    return losses["total"]


def forward_backward(tp: TrainablePipeline, batch: Batch,
                     cfg: TrainConfig) -> dict:
    """One training step's loss plus gradients (accumulated on tp).

    Raises ``ValueError`` when the batch holds NaN, infinite or
    out-of-range pixels.
    """
    tp.zero_grad()
    losses, alpha, g, tape = _forward(tp, batch, cfg)   # g: dL/dpred, (N, m)

    xs = tape.pop("xs")
    k, count, m = xs.shape
    npat = len(tp.patterns)

    grad_xs = alpha[:, :, None] * g[None]       # direct path through the blend

    needs_alpha_grad = tp.pooling in ("gmp", "oap")
    if needs_alpha_grad:
        c = np.einsum("nm,knm->kn", g, xs)      # dL/dalpha
        if cfg.regularizer == "entropy" and cfg.reg_weight != 0.0:
            c = c + cfg.reg_weight * (
                np.log(np.maximum(alpha, 1e-300)) + 1.0) / count
    if tp.pooling == "gmp":
        dist, dev, _ = gmp_distances(xs, tp.norm)
    del xs

    if tp.pooling == "gmp":
        tau = tp.tau
        # softmax over orientations: u_i = -dist_i / tau
        s = alpha * (c - np.sum(alpha * c, axis=0, keepdims=True))
        ddist = -s / tau
        if tp.tau_trainable:
            tp.tau_grad[0] = float(np.sum(s * dist) / tau)
        if tp.norm == "l2":
            unit = dev / np.maximum(dist, 1e-300)[:, :, None]
        else:
            unit = np.sign(dev)
        del dev
        t = ddist[:, :, None] * unit
        grad_xs += t - t.sum(axis=0, keepdims=True) / k
    elif tp.pooling == "oap":
        arow = alpha.T                           # (N, k)
        crow = c.T
        srow = arow * (crow - np.sum(arow * crow, axis=1, keepdims=True))
        _scatter(tp.coeff.grad.reshape(-1, k), *tape.pop("coeff"), srow[None])

    # per-rotation output gradient, block permutation undone
    graw = grad_xs / npat
    if m > 1:
        for ri, r in enumerate(tp.orientations.rotations):
            graw[ri][:, block_permutation(m, r)] = graw[ri].copy()
    for tl, (idx, wts) in zip(tp.luts, tape.pop("corners")):
        _scatter(tl.grad.reshape(-1, m), idx, wts, graw[:, None])

    return losses


@dataclass
class TrainReport:
    steps: int
    history: list
    val_history: list
    best_step: int
    best_val_psnr: float


def evaluate_pairs(config: PipelineConfig, pairs, border: int = 0) -> float:
    """Mean PSNR of the configured pipeline over (input, target) pairs."""
    scores = []
    for inp, tgt in pairs:
        out = restore_image(inp, config)
        tgt = np.asarray(tgt, dtype=np.float64)
        if border > 0:
            out = out[border:-border, border:-border]
            tgt = tgt[border:-border, border:-border]
        scores.append(psnr(out, tgt))
    return float(np.mean(scores))


def _check_pairs(pairs, split: str) -> None:
    """Reject pairs holding NaN, infinite or out-of-range pixels."""
    for i, pair in enumerate(pairs):
        for name, image in zip(("input", "target"), pair):
            _check_pixels(image, f"{split} pair {i}: {name}")


def train(tp: TrainablePipeline, train_pairs, val_pairs,
          cfg: TrainConfig) -> TrainReport:
    """Cosine-scheduled Adam loop with best-checkpoint selection.

    The validation PSNR is measured through the full (quantizing)
    inference path; the parameters giving the best score -- including
    the untouched initialization -- are restored before returning, so a
    fine-tune can never end worse than it started.  Every pair is checked
    once up front: a NaN, infinite or out-of-range pixel raises
    ``ValueError`` naming the split and the pair index.
    """
    _check_pairs(train_pairs, "training")
    _check_pairs(val_pairs, "validation")
    rng = np.random.default_rng(cfg.seed)
    border = tp.scale if tp.task == "sr" else 0
    history, val_history = [], []

    best_snap = tp.snapshot()
    best_psnr = evaluate_pairs(tp.to_config(), val_pairs, border)
    best_step = -1
    val_history.append((-1, best_psnr))

    for step in range(cfg.iterations):
        lr = cosine_lr(step, cfg.iterations, cfg.lr)
        batch = sample_batch(rng, train_pairs, cfg.crop, tp.rs,
                             cfg.batch_size, cfg.augment)
        losses = forward_backward(tp, batch, cfg)
        if not math.isfinite(losses["total"]):
            raise TrainingDivergedError(
                f"non-finite loss at step {step}: {losses}")
        for tl in tp.parameters():
            adam_step(tl.lut.entries, tl.grad, tl.adam, step, lr * tl.lr_factor)
        if tp.pooling == "gmp" and tp.tau_trainable:
            adam_step(tp.log_tau, tp.tau_grad, tp.tau_adam, step,
                      lr * cfg.tau_lr_factor)
        history.append({"step": step, "lr": lr, **losses})

        if (step + 1) % cfg.val_interval == 0 or step + 1 == cfg.iterations:
            score = evaluate_pairs(tp.to_config(), val_pairs, border)
            val_history.append((step, score))
            if score > best_psnr:
                best_psnr = score
                best_snap = tp.snapshot()
                best_step = step

    tp.load_snapshot(best_snap)
    return TrainReport(cfg.iterations, history, val_history, best_step, best_psnr)


def finetune(tp: TrainablePipeline, train_pairs, val_pairs, cfg: TrainConfig,
             pooling: str, coeff_q: int = None, tau_init: float = None):
    """Attach a fusion stage to pretrained tables and train it.

    The restoration tables move at ``cfg.finetune_lr_factor`` of the
    base learning rate.  OAP starts from all-zero logits (exactly plain
    averaging); the soft-median starts at a large temperature (also the
    averaging limit) unless ``tau_init`` says otherwise.  Returns the
    fine-tuned pipeline and its training report.
    """
    if pooling not in ("oap", "gmp"):
        raise ValueError("finetune targets oap or gmp pooling")
    luts = [TrainableLut(tl.lut.copy(), lr_factor=cfg.finetune_lr_factor)
            for tl in tp.luts]
    coeff = None
    if pooling == "oap":
        k = tp.orientations.k
        q = coeff_q if coeff_q is not None else tp.luts[0].lut.q
        n = tp.coeff_pattern.n
        shape = (lattice_size(q),) * n + (k,)
        coeff = TrainableLut(RealLut(q, n, k, np.zeros(shape)))
    ft = TrainablePipeline(
        task=tp.task, scale=tp.scale, luts=luts, patterns=list(tp.patterns),
        orientations=tp.orientations, pooling=pooling, residual=tp.residual,
        norm=tp.norm, coeff=coeff, coeff_pattern=tp.coeff_pattern)
    if pooling == "gmp":
        ft.tau_trainable = True
        tau0 = tau_init if tau_init is not None else 1e4
        ft.log_tau[...] = math.log(tau0)
        ft.tau_adam = AdamState.like(ft.log_tau)
    report = train(ft, train_pairs, val_pairs, cfg)
    return ft, report


def export_pipeline(tp: TrainablePipeline, bit_depth: int = 8):
    """Quantize a trained pipeline for deployment.

    Residual tables go to signed (bias-128) storage, plain tables to
    unsigned.  Coefficient logits become 8-bit weights by scaling the
    per-entry softmax to 0..255 (sum-normalized again at query time).
    Returns the deployable config and a per-table quantization report.
    """
    stages = []
    reports = {}
    for i, tl in enumerate(tp.luts):
        lut, rep = quantize(tl.lut, bit_depth=bit_depth, signed=tp.residual)
        stages.append(lut)
        reports[f"stage0_pattern{i}"] = rep
    coeff = None
    if tp.pooling == "oap" and tp.coeff is not None:
        logits = tp.coeff.lut.entries
        weights = softmax(logits, axis=-1)
        stored = round_half_away(weights * 255.0).astype(np.uint8)
        coeff = CoeffLut(tp.coeff.lut.q, tp.coeff.lut.n, tp.coeff.lut.m,
                         stored, bit_depth=8, signed=False)
    pool = PoolingSpec(kind=tp.pooling, tau=tp.tau, norm=tp.norm,
                       coeff_lut=coeff)
    config = PipelineConfig(
        task=tp.task, scale=tp.scale, patterns=list(tp.patterns),
        orientations=tp.orientations, pooling=pool, residual=tp.residual,
        stages=[stages], coeff_pattern=tp.coeff_pattern)
    return config, reports
