"""Gradient-based optimization of lattice tables.

The trainable model is a single-stage :class:`~lutpool.pipeline.PipelineConfig`
whose tables are ``RealLut``s (for oap, the coefficient table too);
:class:`TrainablePipeline` keeps that config together with each table's
gradient and Adam state and the log-temperature.  Fine-tuning and export
map over the config's tables with ``dataclasses.replace``.

The forward pass is the inference pipeline's own stage kernel,
:func:`lutpool.pipeline.stage_pass`, run on a mini-batch of crops with a
tape and without the final clamp/quantization: oriented queries read
from the stage's cell and fraction planes through the corner fold that
inference runs, block unrotation, fusion, optional residual baseline.
A batch holding NaN, infinite or out-of-range pixels is rejected with
``ValueError`` before the kernel runs.

The tape keeps only the (k, N, m) ensemble.  The backward pass forms
the loss gradient and dL/dalpha and chains the adjoints that sit beside
their forwards: the fusion weights'
(:func:`lutpool.pooling._weights_adjoint`) and the stage's
(:func:`lutpool.pipeline._stage_adjoint`), which ends in the table
read's, in :mod:`lutpool.lut`.  Adam's two slices are per-thread
buffers reused from step to step, so a warm step does not page-fault.

Everything is float64 numpy with a seeded generator and fixed reduction
order, so a (seed, config) pair reproduces training bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .lut import (CoeffLut, RealLut, lattice_size, quantize, round_half_away,
                  _check_pixels, _scratch_array)
# Kept as a module attribute although the step never calls it:
# perfbench/tracing.py wraps ``train.corner_weights`` by name.
from .lut import corner_weights  # noqa: F401
from .metrics import psnr
from .orientation import SQUARE_PATTERN
from .pipeline import PipelineConfig, restore_image, stage_pass, _stage_adjoint
from .pooling import PoolingSpec, softmax, _weights_adjoint


class TrainingDivergedError(Exception):
    """Raised when a step produces a non-finite loss."""


# A fine-tune moves the restoration tables at this fraction of the base
# learning rate.
_FINETUNE_LR_FACTOR = 0.1
# The log-temperature moves on its own scale, 50 times the table learning
# rate, and by at most _LOG_TAU_STEP per step (a factor e**0.25 of the
# temperature).  At lr 5e-2 an unbounded step is about 2.5; the largest
# step of a fine-tune at lr 2e-3 is about 0.1, which the bound leaves alone.
_TAU_LR_FACTOR = 50.0
_LOG_TAU_STEP = 0.25
# The Charbonnier loss is mean sqrt(diff**2 + _CHARBONNIER_EPS**2).
_CHARBONNIER_EPS = 1e-3


@dataclass
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 16
    crop: int = 16                 # crop side on the input grid
    lr: float = 1e-4
    loss: str = "charbonnier"      # charbonnier | l1 | l2
    reg_weight: float = 1e-3       # weight of entropy_regularizer; 0 turns it off
    seed: int = 0
    val_interval: int = 100

    def __post_init__(self):
        if self.loss not in ("charbonnier", "l1", "l2"):
            raise ValueError(f"unknown loss {self.loss!r}")
        for name in ("iterations", "batch_size", "crop", "val_interval"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not (math.isfinite(self.reg_weight) and self.reg_weight >= 0.0):
            raise ValueError(
                f"reg_weight must be finite and nonnegative, got {self.reg_weight!r}")


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
# Adam's moment decay rates and the stabilizer of its denominator.
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(values: np.ndarray, grad: np.ndarray, state: AdamState,
              step_index: int, lr: float) -> None:
    """One in-place Adam update; step_index counts completed steps (0-based)."""
    if values.shape != grad.shape:
        raise ValueError("gradient shape does not match parameters")
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    t = step_index + 1
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    arrays = [np.atleast_1d(x) for x in
              (values, grad, state.exp_avg, state.exp_avg_sq)]
    # The textbook out-of-place update, operation for operation, run
    # through two scratch buffers over slices of the leading axis, so a
    # step allocates no parameter-size temporaries and each slice stays
    # in cache for the whole update; the buffers are this thread's reused
    # scratch, so a step does not page-fault on fresh ones.
    rows = max(1, _ADAM_CHUNK * len(arrays[0]) // max(arrays[0].size, 1))
    scratch_a = _scratch_array("adam_a", np.float64, arrays[0][:rows].shape)
    scratch_b = _scratch_array("adam_b", np.float64, scratch_a.shape)
    for start in range(0, len(arrays[0]), rows):
        v, g, m1, m2 = (x[start:start + rows] for x in arrays)
        a, b = scratch_a[:len(v)], scratch_b[:len(v)]
        np.multiply(g, 1.0 - _BETA1, out=a)
        m1 *= _BETA1
        m1 += a
        np.multiply(g, 1.0 - _BETA2, out=a)
        a *= g
        m2 *= _BETA2
        m2 += a
        np.divide(m2, c2, out=a)           # v_hat
        np.sqrt(a, out=a)
        a += _ADAM_EPS
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


@dataclass
class TrainablePipeline:
    """A single-stage pipeline config of trainable tables and their optimizer state.

    ``config`` is the model: ``config.stages[0]`` holds one ``RealLut``
    per pattern and, for oap pooling, ``config.pooling.coeff_lut`` is the
    ``RealLut`` of fusion logits.  ``luts`` and ``coeff`` hold each
    table's gradient, Adam moments and learning-rate factor; their
    ``lut`` is the config's own table object.  The soft-median
    temperature trains as ``log_tau``; :meth:`to_config` writes it into
    ``config.pooling.tau``, so read the config through that method.
    """

    config: PipelineConfig
    log_tau: np.ndarray = None
    tau_trainable: bool = False
    luts: list = field(init=False)
    coeff: TrainableLut = field(init=False)
    tau_grad: np.ndarray = field(init=False)
    tau_adam: AdamState = field(init=False)

    def __post_init__(self):
        if self.log_tau is None:
            self.log_tau = np.zeros(1)
        self.log_tau = np.asarray(self.log_tau, dtype=np.float64).reshape(1)
        self.tau_grad = np.zeros(1)
        self.tau_adam = AdamState.like(self.log_tau)
        if self.config.num_stages != 1:
            raise ValueError(f"training runs single-stage pipelines; this one has "
                             f"{self.config.num_stages} stages")
        self.to_config().validate()
        self.luts = [TrainableLut(lut) for lut in self.config.stages[0]]
        pool = self.config.pooling
        self.coeff = TrainableLut(pool.coeff_lut) if pool.kind == "oap" else None

    @classmethod
    def zero_init(cls, task: str, scale: int, q: int, patterns=None,
                  pooling: str = "average", residual: bool = True,
                  norm: str = "l2", coeff: TrainableLut = None, tau: float = 1.0,
                  **kw) -> "TrainablePipeline":
        """All-zero tables, one per pattern; ``kw`` goes to :class:`PipelineConfig`.

        An oap pipeline trains ``coeff.lut`` with ``coeff``'s optimizer
        state; a gmp pipeline starts at temperature ``tau``.
        """
        patterns = list(patterns) if patterns else [SQUARE_PATTERN]
        m = scale * scale if task == "sr" else 1
        luts = [RealLut(q, p.n, m, np.zeros((lattice_size(q),) * p.n + (m,)))
                for p in patterns]
        pool = PoolingSpec(kind=pooling, tau=tau, norm=norm,
                           coeff_lut=coeff.lut if coeff is not None else None)
        tp = cls(PipelineConfig(task=task, scale=scale, patterns=patterns,
                                pooling=pool, residual=residual, stages=[luts], **kw),
                 log_tau=np.log(tau) if pooling == "gmp" else None)
        if tp.coeff is not None:
            tp.coeff = coeff   # the caller's optimizer state for its table
        return tp

    def parameters(self):
        return self.luts + ([self.coeff] if self.coeff is not None else [])

    def snapshot(self):
        return [p.lut.entries.copy() for p in self.parameters()], self.log_tau.copy()

    def load_snapshot(self, snap):
        entries, log_tau = snap
        for p, e in zip(self.parameters(), entries):
            p.lut.entries[...] = e
        self.log_tau[...] = log_tau

    def to_config(self) -> PipelineConfig:
        """The live config, with ``pooling.tau`` set from ``log_tau``."""
        self.config.pooling.tau = float(np.exp(self.log_tau[0]))
        return self.config


@dataclass
class Batch:
    inputs: np.ndarray    # (B, h, w) float64 degraded crops
    targets: np.ndarray   # (B, h*rs, w*rs) float64 clean crops


def sample_batch(rng: np.random.Generator, pairs, crop: int, rs: int,
                 batch_size: int) -> Batch:
    """Random aligned crop pairs, each under a random quarter turn and flip.

    Each crop is written, as a rotated and flipped view, straight into
    its slot of the batch's float64 arrays.
    """
    ins = np.empty((batch_size, crop, crop))
    tgts = np.empty((batch_size, crop * rs, crop * rs))
    for n in range(batch_size):
        inp, tgt = pairs[rng.integers(len(pairs))]
        h, w = inp.shape
        if h < crop or w < crop:
            raise ValueError(f"image {inp.shape} smaller than crop {crop}")
        i = int(rng.integers(h - crop + 1))
        j = int(rng.integers(w - crop + 1))
        ci = inp[i:i + crop, j:j + crop]
        ct = tgt[rs * i: rs * (i + crop), rs * j: rs * (j + crop)]
        r = int(rng.integers(4))
        ci = np.rot90(ci, r)
        ct = np.rot90(ct, r)
        if rng.integers(2):
            ci = ci[:, ::-1]
            ct = ct[:, ::-1]
        ins[n] = ci
        tgts[n] = ct
    return Batch(ins, tgts)


def _loss_and_grad(diff: np.ndarray, kind: str):
    """Mean loss of the differences ``diff`` and its gradient, written into ``diff``.

    Returns the loss and ``diff`` itself, now holding dL/ddiff: the
    operations of the out-of-place formulas (``diff / root / count``,
    ``sign(diff) / count``, ``2.0 * diff / count``), so the same bits.
    """
    count = diff.size
    if kind == "charbonnier":
        root = diff * diff
        root += _CHARBONNIER_EPS * _CHARBONNIER_EPS
        np.sqrt(root, out=root)
        loss = float(np.mean(root))
        diff /= root
    elif kind == "l1":
        loss = float(np.mean(np.abs(diff)))
        np.sign(diff, out=diff)
    else:
        loss = float(np.mean(diff * diff))
        diff *= 2.0
    diff /= count
    return loss, diff


def _forward(tp: TrainablePipeline, batch: Batch, cfg: TrainConfig):
    """Losses of one batch through the pipeline's stage kernel.

    Returns the losses, the fusion weights (k, N), dL/dpred (N, m) and
    the kernel's (k, N, m) ensemble.  dL/dpred is formed in the prediction's
    own array: the difference to the targets, read through a (B, h, w,
    rs, rs) view of their blocks, and then the loss gradient.
    """
    _check_pixels(batch.inputs, "batch input")
    _check_pixels(batch.targets, "batch target")
    config = tp.to_config()
    b, h, w = np.shape(batch.inputs)
    rs = config.scale
    if np.shape(batch.targets) != (b, h * rs, w * rs):
        raise ValueError(f"batch target shape {np.shape(batch.targets)} is not x{rs} "
                         f"of the input shape {np.shape(batch.inputs)}")
    tape = {}
    pred, alpha = stage_pass(batch.inputs, config, tape=tape)
    diff = pred.reshape(b, h, w, rs, rs)
    diff -= batch.targets.reshape(b, h, rs, w, rs).transpose(0, 1, 3, 2, 4)
    fid, dfid = _loss_and_grad(pred, cfg.loss)

    reg = 0.0
    if cfg.reg_weight != 0.0:
        reg = entropy_regularizer(alpha.T)
    total = fid + cfg.reg_weight * reg
    losses = {"total": total, "fidelity": fid, "regularizer": reg}
    return losses, alpha, dfid, tape["xs"]


def loss_only(tp: TrainablePipeline, batch: Batch, cfg: TrainConfig) -> float:
    losses, _, _, _ = _forward(tp, batch, cfg)
    return losses["total"]


def forward_backward(tp: TrainablePipeline, batch: Batch,
                     cfg: TrainConfig) -> dict:
    """One training step's loss plus gradients (written onto tp).

    Each table gradient is scattered exactly once, which overwrites it,
    so only ``tau_grad`` is zeroed first.  Raises ``ValueError`` when the
    batch holds NaN, infinite or out-of-range pixels, or targets that are
    not the pipeline's scale times its inputs.

    The taped (k, N, m) ensemble gives dL/dalpha (one ``einsum``) and,
    but for gmp's distance terms, is dropped; the regularizer term is
    added to it.  The fusion weights' adjoint,
    :func:`lutpool.pooling._weights_adjoint`, and then the stage's,
    :func:`lutpool.pipeline._stage_adjoint`, take it down to the
    tables' gradients; the stage adjoint pops what it reads from the
    dict it is handed, so nothing it drops stays referenced here.
    """
    tp.tau_grad[...] = 0.0
    losses, alpha, g, xs = _forward(tp, batch, cfg)   # g: dL/dpred, (N, m)
    pool = tp.config.pooling
    # gmp's distance terms are formed in the ensemble's own array; the
    # other fusions drop it once dL/dalpha is formed
    tape = {"dpred": g, "alpha": alpha, "xs": xs if pool.kind == "gmp" else None}
    s = np.einsum("nm,knm->kn", g, xs) if pool.kind != "average" else None  # dL/dalpha
    del xs
    if s is not None:
        if cfg.reg_weight != 0.0:
            # dL/dalpha + reg_weight * (log(max(alpha, 1e-300)) + 1) / count
            buf = np.maximum(alpha, 1e-300)
            np.log(buf, out=buf)
            buf += 1.0
            buf *= cfg.reg_weight
            buf /= s.shape[1]
            s += buf
            del buf
        log_tau_grad = _weights_adjoint(pool, alpha, s, tape["xs"])
        if tp.tau_trainable:
            tp.tau_grad[0] = log_tau_grad
        if pool.kind == "oap":
            tape["du"] = s
    del g, alpha, s
    _stage_adjoint(batch.inputs, tp.config, tape, [tl.grad for tl in tp.luts],
                   tp.coeff.grad if pool.kind == "oap" else None)
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


def _check_pairs(pairs, split: str, rs: int, crop: int = 0) -> None:
    """Reject an empty split, bad pixels, non-2-D inputs, targets not rs
    times their input, crops past an input."""
    if not len(pairs):
        raise ValueError(f"the {split} split holds no pairs")
    for i, (inp, tgt) in enumerate(pairs):
        for name, image in (("input", inp), ("target", tgt)):
            _check_pixels(image, f"{split} pair {i}: {name}")
        if np.ndim(inp) != 2 or np.shape(tgt) != tuple(rs * s for s in np.shape(inp)):
            raise ValueError(f"{split} pair {i}: target shape {np.shape(tgt)} is not "
                             f"x{rs} of a 2-D input; input shape {np.shape(inp)}")
        if min(np.shape(inp)) < crop:
            raise ValueError(f"{split} pair {i}: input shape {np.shape(inp)} is "
                             f"smaller than crop {crop}")


def train(tp: TrainablePipeline, train_pairs, val_pairs,
          cfg: TrainConfig) -> TrainReport:
    """Cosine-scheduled Adam loop with best-checkpoint selection.

    The validation PSNR is measured through the full (quantizing)
    inference path; the parameters giving the best score -- including
    the untouched initialization -- are restored before returning, so a
    fine-tune can never end worse than it started.  A trainable
    soft-median temperature changes ``log_tau`` by at most
    ``_LOG_TAU_STEP`` per step.  Every pair is checked
    once up front: a NaN, infinite or out-of-range pixel, a target
    that is not the pipeline's scale times its input, or a training
    input smaller than the crop raises ``ValueError`` naming the split
    and the pair index; an empty split raises it naming the split.
    """
    config = tp.config
    _check_pairs(train_pairs, "training", config.scale, cfg.crop)
    _check_pairs(val_pairs, "validation", config.scale)
    rng = np.random.default_rng(cfg.seed)
    border = config.scale if config.task == "sr" else 0
    history, val_history = [], []

    best_snap = tp.snapshot()
    best_psnr = evaluate_pairs(tp.to_config(), val_pairs, border)
    best_step = -1
    val_history.append((-1, best_psnr))

    for step in range(cfg.iterations):
        lr = cosine_lr(step, cfg.iterations, cfg.lr)
        batch = sample_batch(rng, train_pairs, cfg.crop, config.scale,
                             cfg.batch_size)
        with np.errstate(over="ignore", invalid="ignore"):   # seen as the loss below
            losses = forward_backward(tp, batch, cfg)
        if not math.isfinite(losses["total"]):
            raise TrainingDivergedError(
                f"non-finite loss at step {step}: {losses}")
        for tl in tp.parameters():
            adam_step(tl.lut.entries, tl.grad, tl.adam, step, lr * tl.lr_factor)
        if config.pooling.kind == "gmp" and tp.tau_trainable:
            start = tp.log_tau[0]
            adam_step(tp.log_tau, tp.tau_grad, tp.tau_adam, step, lr * _TAU_LR_FACTOR)
            np.clip(tp.log_tau, start - _LOG_TAU_STEP, start + _LOG_TAU_STEP,
                    out=tp.log_tau)
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

    The restoration tables move at ``_FINETUNE_LR_FACTOR`` of the
    base learning rate.  OAP starts from all-zero logits (exactly plain
    averaging); the soft-median starts at a large temperature (also the
    averaging limit) unless ``tau_init``, finite and positive, says
    otherwise.  Returns the fine-tuned pipeline and its training report.
    """
    if pooling not in ("oap", "gmp"):
        raise ValueError("finetune targets oap or gmp pooling")
    if tau_init is not None and not (math.isfinite(tau_init) and tau_init > 0.0):
        raise ValueError(f"tau_init must be finite and positive, got {tau_init!r}")
    base = tp.to_config()
    coeff = None
    if pooling == "oap":
        k = base.orientations.k
        q = coeff_q if coeff_q is not None else base.stages[0][0].q
        n = base.coeff_pattern.n
        coeff = RealLut(q, n, k, np.zeros((lattice_size(q),) * n + (k,)))
    ft = TrainablePipeline(replace(
        base, stages=[[lut.copy() for lut in base.stages[0]]],
        pooling=replace(base.pooling, kind=pooling, coeff_lut=coeff)))
    for tl in ft.luts:
        tl.lr_factor = _FINETUNE_LR_FACTOR
    if pooling == "gmp":
        ft.tau_trainable = True
        ft.log_tau[...] = math.log(tau_init if tau_init is not None else 1e4)
    report = train(ft, train_pairs, val_pairs, cfg)
    return ft, report


def export_pipeline(tp: TrainablePipeline):
    """Quantize a trained pipeline into 8-bit tables for deployment.

    Residual tables go to signed (bias-128) storage, plain tables to
    unsigned.  Coefficient logits become 8-bit weights by scaling the
    per-entry softmax to 0..255 (sum-normalized again at query time).
    Returns the deployable config and a per-table quantization report.
    """
    config = tp.to_config()
    stage, reports = [], {}
    for i, lut in enumerate(config.stages[0]):
        qlut, reports[f"stage0_pattern{i}"] = quantize(lut, signed=config.residual)
        stage.append(qlut)
    coeff = None
    if tp.coeff is not None:
        real = tp.coeff.lut
        stored = round_half_away(softmax(real.entries, axis=-1) * 255.0).astype(np.uint8)
        coeff = CoeffLut(real.q, real.n, real.m, stored, bit_depth=8, signed=False)
    return replace(config, stages=[stage],
                   pooling=replace(config.pooling, coeff_lut=coeff)), reports
