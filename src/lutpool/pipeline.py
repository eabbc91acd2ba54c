"""Whole-image restoration: oriented table queries, fusion, cascades.

For every anchor pixel the configured kernel pattern is sampled under
each orientation, the stage table is queried, output blocks are mapped
back to the common frame and fused by the configured pooling.  A final
super-resolution stage emits an r_s x r_s block per anchor, placed by
pixel shuffle; earlier cascade stages refine at unit scale (m == 1).

One kernel, :func:`stage_pass`, runs a stage on a band of rows of a
(B, h, w) stack: training passes a whole batch of crops with a tape
that keeps the prediction ensemble its adjoint, :func:`_stage_adjoint`,
needs, and a restored image, a stack of one, runs each stage over bands
of whole rows of at most ``_BAND_VALUES`` table values: 2**14 anchors
at unit scale, 2**14 / rs**2 for an rs-fold stage, so that each table
read of a band is one chunk of the corner fold.  Since an output pixel
depends only on its receptive field and each band pads its own rows
exactly as the whole frame is padded, the bands give the bits of one
whole-frame pass.
An image streams each stage's bands into their rows of the stage's
output raster, so only the stage's input and output are frame-sized:
the input image is read as it is (an integer-typed one is widened band
by band), the last stage writes uint8 rows, and fusion weights are kept
whole only when a later stage shares them.  :func:`_stage_queries`
alone says which queries a stage and its adjoint make, in which order:
shifted views of a band's lattice-cell and fraction planes, decomposed
once per table spacing q, each read by :func:`lutpool.lut._read`, which
owns how a table is read and at what precision.

Values stay real (float64) across stages -- clamped to [0, 255] so the
next stage's queries stay in domain -- and are quantized exactly once,
as the last stage writes its rows, with round-half-away-from-zero.  With
residual mode on, each stage adds its prediction to a baseline: the
stage input itself at unit scale, or its bicubic upsample for the
upscaling stage.  That upsample is added phase by phase: each of the
rs * rs sub-pixel planes of a band is a row and a column pass of
shifted slices of the band's edge-padded rows, with the per-phase taps
of the resampler's cached geometry, added straight into its column of
the blocks (see :func:`_add_upsample`); it has the bits of those pixels
of :func:`bicubic_resize`.  Block unrotation, fusion and the final pixel
shuffle likewise work column by column, without permutation copies or
ensemble-sized temporaries.

A pipeline is stored as a ``pipeline.json`` document beside its table
files, every stage of a cascade included: :func:`save_pipeline` writes
it and :func:`load_pipeline` reads it, both from one table of keys.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import ClassVar

import numpy as np

from .lut import (QuantizedLut, RealLut, load_lut, save_lut, _CHUNK_ROWS,
                  _check_pixels, _decompose_arrays, _read, _scatter, _scratch_array)
# Kept as module attributes although the stage kernel calls neither:
# perfbench/tracing.py wraps ``pipeline.real_table`` and
# ``pipeline.interpolate`` by name.
from .lut import interpolate, real_table  # noqa: F401
from .orientation import (KernelPattern, OrientationSet, SQUARE_PATTERN,
                          block_permutation, _pattern)
from .pooling import (PoolingSpec, average_weights, combine, gmp_weights,
                      oap_weights)


# Table values per band of a stage pass: at most this many anchors times
# the stage's rs * rs outputs (whole rows, at least one), so each table
# read of a band is one corner-fold chunk; not a tuned knob.
_BAND_VALUES = _CHUNK_ROWS


@dataclass
class QueryCounter:
    """Tallies per-anchor table lookups during a pipeline run."""

    lut_queries: int = 0
    coeff_queries: int = 0


@dataclass
class PipelineConfig:
    task: str = "restore"
    scale: int = 1
    patterns: list = field(default_factory=lambda: [SQUARE_PATTERN])
    orientations: OrientationSet = field(default_factory=OrientationSet)
    pooling: PoolingSpec = field(default_factory=PoolingSpec)
    residual: bool = False
    stages: list = field(default_factory=list)
    coeff_pattern: KernelPattern = SQUARE_PATTERN
    # No padding beyond a pattern's reach; not a setting: perfbench/checks.py
    # reads it to pad its oracle's frames.
    padding: ClassVar[int] = 0

    def __post_init__(self):
        if self.task not in ("sr", "restore"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "sr" and self.scale < 2:
            raise ValueError("sr task needs scale >= 2")
        if self.task == "restore":
            self.scale = 1
        if not self.patterns:
            raise ValueError("at least one kernel pattern is required")
        # accept a single table, a flat stage list, or per-stage pattern lists
        table = (QuantizedLut, RealLut)
        stages = [self.stages] if isinstance(self.stages, table) else self.stages
        self.stages = [[s] if isinstance(s, table) else list(s) for s in stages]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_scale(self, index: int) -> int:
        """Output block side of stage ``index``: the scale for the last sr stage, else 1."""
        return self.scale if (self.task == "sr" and index == self.num_stages - 1) else 1

    def validate(self) -> None:
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        for t, stage in enumerate(self.stages):
            if len(stage) != len(self.patterns):
                raise ValueError(
                    f"stage {t} has {len(stage)} tables for {len(self.patterns)} patterns"
                )
            want_m = self.stage_scale(t) ** 2
            for pattern, lut in zip(self.patterns, stage):
                if lut.n != pattern.n:
                    raise ValueError(
                        f"stage {t} table reads {lut.n} pixels but pattern "
                        f"{pattern.name!r} samples {pattern.n}"
                    )
                if lut.m != want_m:
                    raise ValueError(
                        f"stage {t} table emits {lut.m} values, expected {want_m}"
                    )
        if self.pooling.kind == "oap":
            coeff = self.pooling.coeff_lut
            if coeff is None:
                raise ValueError("oap pooling needs a coefficient table")
            if getattr(coeff, "signed", False):
                raise ValueError("coefficient table is signed; fusion weights are unsigned")
            if coeff.m != self.orientations.k:
                raise ValueError(
                    f"coefficient table holds {coeff.m} weights for "
                    f"{self.orientations.k} orientations"
                )
            if coeff.n != self.coeff_pattern.n:
                raise ValueError(
                    f"coefficient table reads {coeff.n} pixels but its pattern "
                    f"samples {self.coeff_pattern.n}"
                )


def query_cost_model(config: PipelineConfig) -> dict:
    """Predicted per-anchor lookup counts (and mean bytes touched per query)."""
    k = config.orientations.k
    stages = config.num_stages
    patterns = len(config.patterns)
    coeff = 1 if config.pooling.kind == "oap" else 0
    per_query = []
    for t, stage in enumerate(config.stages):
        for lut in stage:
            depth = getattr(lut, "bit_depth", 64)
            per_query.append(2 ** lut.n * lut.m * depth // 8)
    bytes_per_query = float(np.mean(per_query)) if per_query else 0.0
    return {
        "lut_queries_per_pixel": k * stages * patterns,
        "coeff_queries_per_pixel": coeff,
        "bytes_per_query": bytes_per_query,
    }


def _keys_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5 (support |x| < 2)."""
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    inner = 1.5 * ax3 - 2.5 * ax2 + 1.0
    outer = -0.5 * ax3 + 2.5 * ax2 - 4.0 * ax + 2.0
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


@lru_cache(maxsize=64)
def _resize_geometry(in_len: int, out_len: int, scale: float):
    """Cubic weights (out_len, ntaps) and first, unclipped taps (out_len,) of one axis.

    Output sample i reads input samples ``first[i] + t`` (t < ntaps),
    replicated at the edges.  Cached per axis geometry and read-only
    for that reason.
    """
    pos = (np.arange(out_len, dtype=np.float64) + 0.5) / scale - 0.5
    shrink = min(scale, 1.0)  # widen the kernel when minifying
    support = 2.0 / shrink
    first = np.floor(pos - support).astype(np.int64) + 1
    ntaps = int(math.ceil(2.0 * support)) + 2
    taps = first[:, None] + np.arange(ntaps, dtype=np.int64)[None, :]
    weights = _keys_kernel((pos[:, None] - taps) * shrink)
    weights = weights / weights.sum(axis=1, keepdims=True)
    weights.setflags(write=False)
    first.setflags(write=False)
    return weights, first


def _resize_axis(arr: np.ndarray, out_len: int, scale: float, axis: int) -> np.ndarray:
    """Cubic resampling of ``arr`` along ``axis`` to ``out_len`` samples."""
    in_len = arr.shape[axis]
    weights, first = _resize_geometry(in_len, out_len, scale)
    taps = np.clip(first[:, None] + np.arange(weights.shape[1]), 0, in_len - 1)
    moved = np.moveaxis(arr, axis, 0)
    out = np.zeros((out_len,) + moved.shape[1:], dtype=np.float64)
    for t in range(weights.shape[1]):
        w = weights[:, t].reshape((out_len,) + (1,) * (moved.ndim - 1))
        # integer rows are widened first: a mixed-dtype multiply is buffered
        out += w * moved[taps[:, t]].astype(np.float64, copy=False)
    return np.moveaxis(out, 0, axis)


@lru_cache(maxsize=64)
def _phase_taps(in_len: int, rs: int):
    """The taps of an ``rs``-fold cubic upsample of one axis, phase by phase.

    Output sample y * rs + p reads, for each ``(offset, weights)`` of
    phase p, input sample y + offset (replicated at the edges) with
    weight ``weights[y]``: the taps of :func:`_resize_geometry`, whose
    first tap is y plus a constant per phase.  Taps whose weight is zero
    at every y are left out; a zero product adds nothing to a sum that
    started at +0.0.  The per-y weight columns are kept because at x3
    they differ in the last bits from one y to the next.
    """
    weights, first = _resize_geometry(in_len, in_len * rs, rs)
    phases = []
    for p in range(rs):
        taps = []
        for t, col in enumerate(weights[p::rs].T):
            if col.any():
                col = col.copy()
                col.setflags(write=False)
                taps.append((int(first[p]) + t, col))
        phases.append(tuple(taps))
    return tuple(phases)


def bicubic_resize(image, scale: float) -> np.ndarray:
    """Separable cubic-convolution resampling (a = -0.5, replicate edges).

    Each side becomes ``round(side * scale)``, at least 1.  Sample
    positions follow the pixel-center convention
    ``src = (dst + 0.5) / scale - 0.5``; minification widens the kernel
    by 1/scale for antialiasing.  Output is float64 and unclamped.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("expected a 2-D image (or H x W x C array)")
    out = _resize_axis(img, max(1, int(round(img.shape[0] * scale))), scale, 0)
    return _resize_axis(out, max(1, int(round(img.shape[1] * scale))), scale, 1)


def apply_residual(base, residual) -> np.ndarray:
    """base + residual with the pre-quantization clamp to [0, 255]."""
    out = np.asarray(base, dtype=np.float64) + np.asarray(residual, dtype=np.float64)
    return np.clip(out, 0.0, 255.0)


def pixel_shuffle(blocks: np.ndarray) -> np.ndarray:
    """(H, W, r, r) per-anchor blocks -> (H*r, W*r) raster."""
    h, w, rs, rs2 = blocks.shape
    if rs != rs2:
        raise ValueError("blocks must be square")
    return blocks.transpose(0, 2, 1, 3).reshape(h * rs, w * rs)


def _stage_queries(stack: np.ndarray, config: PipelineConfig, t: int = 0,
                   y0: int = 0, y1: int | None = None, coeff: bool = False):
    """Yield stage ``t``'s table queries on rows [y0, y1) of a (B, h, w) stack, in read order.

    First the oap coefficient table's query when ``coeff`` is set, then
    each (rotation, pattern) one, rotation by rotation.  A query is what
    :func:`~lutpool.lut._read` takes: a (cells, fracs) pair of lists,
    one (B, y1 - y0, w) view per table input axis into the planes of the
    table's q, at the (rotated) pattern offset.  The rows are edge-padded
    by :func:`_padded_rows` by the widest pattern reach, exactly as in
    the whole stack's padding, and decomposed once per distinct q into
    two planes, uint8 lattice cells and in-cell fractions.  Each query's
    views are made as it is reached; the planes live until the generator
    and every view are dropped.
    """
    _, h, w = stack.shape
    if y1 is None:
        y1 = h
    pool = config.pooling
    stage_luts = config.stages[t]
    pad = max(p.reach for p in (*config.patterns, config.coeff_pattern))
    padded = _padded_rows(stack, y0, y1, pad, pad)
    qs = {table.q for table in stage_luts} | ({pool.coeff_lut.q} if coeff else set())
    planes = {q: _decompose_arrays(padded, q) for q in qs}
    del padded

    def views(table, offsets):
        cells, fracs = planes[table.q]
        at = [np.s_[:, pad + dr:pad + dr + y1 - y0, pad + dc:pad + dc + w]
              for dr, dc in offsets]
        return [cells[v] for v in at], [fracs[v] for v in at]

    if coeff:
        yield views(pool.coeff_lut, config.coeff_pattern.offsets)
    for r in config.orientations.rotations:
        for pattern, table in zip(config.patterns, stage_luts):
            yield views(table, pattern.rotated(r))


def stage_pass(stack: np.ndarray, config: PipelineConfig, t: int = 0,
               y0: int = 0, y1: int | None = None, alpha=None,
               counters: QueryCounter | None = None, tape=None):
    """Stage ``t`` of ``config`` on rows [y0, y1) of a (B, h, w) stack of in-range images.

    The stage reads ``config.stages[t]`` with block side rs =
    ``config.stage_scale(t)``; rows default to the whole stack.  Returns
    the rows' unclamped per-anchor blocks (N, rs*rs) and fusion weights
    (k, N), N = B * (y1 - y0) * w; ``alpha`` holds the rows' precomputed
    oap weights (k, N), ``counters`` add up the queries.  :func:`_run_real`
    runs this once per band of whole rows of at most ``_BAND_VALUES``
    values, N * rs * rs.  An untaped average or oap pass whose first
    rotation is not 0 returns column-major blocks when rs > 1 (those of
    the unrotating column permutation); a reduction over them sums in
    another order than over C-ordered ones.

    The queries, and the order they are read in, are those of
    :func:`_stage_queries`: the coefficient table's first when the stage
    computes oap weights, then every (rotation, pattern) one, each read
    through :func:`~lutpool.lut._read`.  An output pixel depends only on
    its receptive field, so bands give the bits of one whole-stack pass.
    Each rotation's pattern outputs are averaged and unrotated, and each
    table read's output is dropped once it is summed.  Average and oap
    weights are known before the first read, so at inference each
    unrotated rotation is weighed and summed into the result as soon as
    it is complete, in :func:`~lutpool.pooling.combine`'s order and with
    its bits; gmp, and every taped pass, fill the (k, N, rs*rs) ensemble
    and fuse it after the planes are dropped.  Last, the residual
    baseline of the rows is added.

    Training passes a dict as ``tape`` over the whole stack; every table,
    the oap coefficient table included, is read as inference reads it.
    The tape receives the ensemble, an array of its own, as ``"xs"``;
    :func:`_stage_adjoint` forms the queries again from the stack.
    """
    b, h, w = stack.shape
    if y1 is None:
        y1 = h
    stage_luts, rs = config.stages[t], config.stage_scale(t)
    count = b * (y1 - y0) * w
    m = rs * rs
    pool = config.pooling
    rotations = config.orientations.rotations
    k = len(rotations)
    npat = len(stage_luts)
    need_alpha = pool.kind == "oap" and alpha is None
    queries = _stage_queries(stack, config, t, y0, y1, need_alpha)
    if need_alpha:
        if counters is not None:
            counters.coeff_queries += count
        alpha = oap_weights(next(queries), pool.coeff_lut, query=_read)

    # average and oap weights are known before the first read, so each
    # rotation's prediction is weighed and summed into pred as soon as it
    # is complete; gmp weighs the whole ensemble, and a tape keeps it
    stream = tape is None and pool.kind != "gmp"
    if stream:
        weights = alpha if pool.kind == "oap" else average_weights(k, count)
    else:
        xs = np.empty((k, count, m))
    for ri, r in enumerate(rotations):
        # the rotation's pattern outputs / npat, summed onto +0.0 in the
        # first one's array, each dropped once it is added
        for pi, table in enumerate(stage_luts):
            out = _read(table, next(queries))
            if counters is not None:
                counters.lut_queries += count
            out /= npat
            if pi:
                acc += out
            else:
                acc = out
                acc += 0.0
            del out
        # unrotate the sum's blocks, a column permutation that commutes
        # with the sum: column perm[j] goes to column j
        x = acc[:, block_permutation(m, r)] if m > 1 and r != 0 else acc
        del acc
        if not stream:
            xs[ri] = x
        else:
            # combine's order and bits: pred = w_0 x_0, += 0.0, then
            # += w_r x_r, each product formed in the rotation's own array
            x *= weights[ri][:, None]
            if ri:
                pred += x
            else:
                pred = x
                pred += 0.0
        del x
    del queries                 # and with it the planes

    if not stream:
        if pool.kind == "average":
            weights = average_weights(k, count)
        elif pool.kind == "gmp":
            weights = gmp_weights(xs, pool.tau, pool.norm)
        else:
            weights = alpha
        pred = combine(xs, weights)
        if tape is not None:
            tape["xs"] = xs
        del xs

    if config.residual:
        if rs == 1:
            pred += stack[:, y0:y1].reshape(count, 1)
        else:
            _add_upsample(pred, stack, y0, y1, rs)
    return pred, weights


def _stage_adjoint(stack: np.ndarray, config: PipelineConfig, tape: dict, grads,
                   coeff_grad=None, t: int = 0) -> None:
    """Adjoint of a taped :func:`stage_pass`: write its tables' gradients.

    ``tape`` holds dL/dpred (N, m) as ``"dpred"``, the fusion weights
    (k, N) as ``"alpha"`` and, from :func:`~lutpool.pooling._weights_adjoint`,
    gmp's distance terms (k, N, m) as ``"xs"`` and, with ``coeff_grad``,
    dL/du (k, N) of the oap logits as ``"du"``; each is popped and dropped
    once read.  ``grads`` are the stage's table gradients, one per
    pattern, written by :func:`~lutpool.lut._scatter` through this
    thread's (m, k, N) ``"scatter_cols"`` buffer of output gradients.
    """
    # every query of the pass, formed again from the stack
    queries = _stage_queries(stack, config, t, coeff=coeff_grad is not None)
    if coeff_grad is not None:                   # u: the coefficient table's logits
        _scatter(coeff_grad, [next(queries)], tape.pop("du")[:, None])
    g, alpha, terms = tape.pop("dpred"), tape.pop("alpha"), tape.pop("xs", None)
    (count, m), k, npat = g.shape, len(alpha), len(grads)
    # each rotation's output gradient alpha * g (+ gmp's distance term),
    # written to the column its block permutation sends it to
    cols = _scratch_array("scatter_cols", np.float64, (m, k, count))
    for ri, r in enumerate(config.orientations.rotations):
        for j, dst in enumerate(block_permutation(m, r)):
            col = cols[dst, ri]
            np.multiply(alpha[ri], g[:, j], out=col)
            if terms is not None:
                col += terms[ri, :, j]
    cols /= npat
    del g, alpha, terms
    # the queries come rotation by rotation; each table takes its k at once
    queries = list(queries)
    for pi, grad in enumerate(grads):
        _scatter(grad, queries[pi::npat], cols)


def _padded_rows(stack: np.ndarray, y0: int, y1: int, before: int, after: int):
    """Rows [y0 - before, y1 + after), columns [-before, w + after) of a (B, h, w) stack.

    Those past the frame repeat its edge, as in the whole stack padded by
    ``before`` and ``after`` on both axes with ``np.pad(mode="edge")``;
    the stack's dtype is kept.  Filled by slices, which costs a fifth of
    ``np.pad`` on a band's rows.
    """
    b, h, w = stack.shape
    top, bottom = max(0, y0 - before), min(h, y1 + after)
    out = np.empty((b, y1 - y0 + before + after, w + before + after), stack.dtype)
    i0 = top - (y0 - before)
    # the frame's rows, padded left and right; then the rows above and below
    inner = out[:, i0:i0 + bottom - top]
    inner[:, :, before:before + w] = stack[:, top:bottom]
    inner[:, :, :before] = stack[:, top:bottom, :1]
    inner[:, :, before + w:] = stack[:, top:bottom, w - 1:]
    out[:, :i0] = inner[:, :1]
    out[:, i0 + bottom - top:] = inner[:, -1:]
    return out


def _add_upsample(pred, stack, y0: int, y1: int, rs: int) -> None:
    """Add rows [y0, y1) of the stack's ``rs``-fold bicubic upsample to ``pred``.

    ``pred`` holds the band's blocks (B * (y1 - y0) * w, rs * rs); output
    pixel (y * rs + pr, x * rs + pc) is column pr * rs + pc of anchor
    (y, x).  Each row phase pr is a row pass over the band's rows, and
    each column phase pc then a column pass over that, as in
    :func:`bicubic_resize`: products of the phase's taps
    (:func:`_phase_taps`) with shifted slices of the band, edge-padded
    once (:func:`_padded_rows`) and then widened to float64, are added
    in tap order onto +0.0.  So every plane has the bits of those pixels
    of :func:`bicubic_resize` and is added straight into its column of
    ``pred``.
    """
    b, h, w = stack.shape
    rows = y1 - y0
    row_taps, col_taps = _phase_taps(h, rs), _phase_taps(w, rs)
    offsets = [o for phase in row_taps + col_taps for o, _ in phase]
    lo, hi = min(offsets), max(offsets)
    # padded row i and column c are the stack's row y0 + lo + i and column c + lo, clamped
    src = _padded_rows(stack, y0, y1, -lo, hi).astype(np.float64, copy=False)
    across = np.empty((b, rows, src.shape[2]))
    plane = np.empty((b, rows, w))
    term, plane_term = np.empty_like(across), np.empty_like(plane)
    for pr, taps in enumerate(row_taps):
        across.fill(0.0)
        for o, wt in taps:
            np.multiply(wt[y0:y1, None], src[:, o - lo:o - lo + rows], out=term)
            across += term
        for pc, ctaps in enumerate(col_taps):
            plane.fill(0.0)
            for o, wt in ctaps:
                np.multiply(wt, across[:, :, o - lo:o - lo + w], out=plane_term)
                plane += plane_term
            pred[:, pr * rs + pc] += plane.reshape(-1)


def _run_real(image, config: PipelineConfig, counters: QueryCounter | None,
              dtype=np.float64) -> np.ndarray:
    """All stages on an image; the last one writes its raster as ``dtype``.

    Each stage runs :func:`stage_pass` over bands of whole rows that
    hold at most ``_BAND_VALUES`` values, anchors times rs * rs (at
    least one row): as few bands as that allows, their rows split as
    evenly as can be (a 96 x 96 frame of a x2 stage runs in bands of
    32/32/32 rows, not 42/42/12).  A band's blocks are clamped to
    [0, 255] and pixel-shuffled into its own rows of the stage's output
    raster, float64 for every stage but the last.  With
    ``dtype`` uint8 the last stage's rows are rounded half away from
    zero as they are written, so no frame-sized float64 result, blocks
    or rounding temporaries exist.  An integer-typed image is read as it
    is (each band widens its own rows); any other input is converted to
    float64 first.  The first stage's oap weights are assembled whole
    when later stages share them, and sliced per band for those stages.
    """
    config.validate()
    x = np.asarray(image)
    if x.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    if x.size == 0:
        raise ValueError("empty image")
    _check_pixels(x, "image")
    if x.dtype.kind == "f":
        x = x.astype(np.float64, copy=False)

    k = config.orientations.k
    alpha = None
    for t in range(config.num_stages):
        last = t + 1 == config.num_stages
        rs = config.stage_scale(t)
        h, w = x.shape
        out = np.empty((h * rs, w * rs), dtype=dtype if last else np.float64)
        # the first stage's oap weights serve every later stage
        weights = (np.empty((k, h * w))
                   if config.pooling.kind == "oap" and not last and alpha is None else None)
        # as few bands as the budget allows, their rows split as evenly as can be
        rows = max(1, _BAND_VALUES // (w * rs * rs))
        step = -(-h // -(-h // rows))
        for y0 in range(0, h, step):
            y1 = min(h, y0 + step)
            band_alpha = None if alpha is None else alpha[:, y0 * w:y1 * w]
            blocks, wts = stage_pass(x[None], config, t, y0, y1, band_alpha, counters)
            if weights is not None:
                weights[:, y0 * w:y1 * w] = wts
            np.clip(blocks, 0.0, 255.0, out=blocks)
            if out.dtype.kind == "u":
                # on [0, 255] the truncating integer write of blocks + 0.5
                # gives the bytes of round_half_away, in place
                blocks += 0.5
            # pixel shuffle, one block column at a time: column pr * rs + pc
            # holds the output pixels (y * rs + pr, x * rs + pc)
            rows = out[y0 * rs:y1 * rs].reshape(y1 - y0, rs, w, rs)
            for j in range(rs * rs):
                rows[:, j // rs, :, j % rs] = blocks[:, j].reshape(y1 - y0, w)
            # drop this band's arrays before the next band is computed
            del blocks, wts
        if weights is not None:
            alpha = weights
        x = out
    return x


def restore_image(image, config: PipelineConfig,
                  counters: QueryCounter | None = None) -> np.ndarray:
    """Run the configured pipeline and quantize once at the end (uint8).

    The last stage rounds half away from zero band by band and writes
    uint8 rows straight into the result (see :func:`_run_real`).
    """
    return _run_real(image, config, counters, np.uint8)


# The keys of a pipeline.json document in the order save_pipeline writes
# them ("pooling.tau" is "tau" in the "pooling" object): JSON type ([t] is
# a list of t), default, and how the JSON value becomes the config
# attribute of that path, None for the four keys that name table files.
_KEYS = {
    "task": (str, "restore", str),
    "scale": (int, 1, int),
    "patterns": ([str], ["S"], lambda names: [_pattern(n) for n in names]),
    "orientations": ([int], [0, 1, 2, 3], lambda turns: OrientationSet(tuple(turns))),
    "pooling.kind": (str, "average", str),
    "pooling.tau": ((int, float), 1.0, float),
    "pooling.norm": (str, "l2", str),
    "pooling.coeff": (str, None, None),
    "pooling.real_coeff": (str, None, None),
    "residual": (bool, False, bool),
    "stages": ([[str]], None, None),
    "real_stages": ([[str]], None, None),
    "coeff_pattern": (str, "S", _pattern),
}


def _is(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``; a boolean is not a number."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is(v, kind[0]) for v in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _type_name(kind) -> str:
    if isinstance(kind, list):
        return f"list of {_type_name(kind[0])}"
    return "number" if isinstance(kind, tuple) else kind.__name__


def save_pipeline(config: PipelineConfig, directory, real: PipelineConfig | None = None) -> str:
    """Write ``config``'s tables and its ``pipeline.json`` into ``directory``.

    Stage t's table for pattern i is saved as ``stage{t}_p{i}.lut`` and
    an oap coefficient table as ``coeff.lut``, named under ``stages`` and
    ``pooling.coeff``.  ``real``, the real-valued tables that ``config``
    quantizes (as a training run has them), adds ``.real.lut`` twins named
    under ``real_stages`` and ``pooling.real_coeff``.  Every key of
    ``_KEYS`` is written, null for a table key with no table.  A
    non-finite number (a temperature of inf or NaN) raises ``ValueError``
    before any file is written.  Returns the document's path.
    """
    config.validate()
    tables = []

    def save(table, name):
        tables.append((table, name))
        return name

    files = {}
    for source, prefix, suffix in ((config, "", ".lut"), (real, "real_", ".real.lut")):
        if source is None:
            continue
        files[prefix + "stages"] = [[save(table, f"stage{t}_p{i}{suffix}")
                                     for i, table in enumerate(stage)]
                                    for t, stage in enumerate(source.stages)]
        if source.pooling.kind == "oap":
            files[f"pooling.{prefix}coeff"] = save(source.pooling.coeff_lut, "coeff" + suffix)
    doc = {}
    for key, (_, _, decode) in _KEYS.items():
        value = files.get(key) if decode is None else reduce(getattr, key.split("."), config)
        head, _, name = key.rpartition(".")
        (doc.setdefault(head, {}) if head else doc)[name] = value
    # patterns by name, an orientation set by its rotations
    text = json.dumps(doc, indent=2, allow_nan=False, default=lambda v: (
        v.name if isinstance(v, KernelPattern) else v.rotations))
    os.makedirs(directory, exist_ok=True)
    for table, name in tables:
        save_lut(table, os.path.join(directory, name))
    path = os.path.join(directory, "pipeline.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def load_pipeline(path, prefer_real: bool = False) -> PipelineConfig:
    """The pipeline a ``pipeline.json`` document describes, its tables loaded.

    Table paths resolve from the document's directory; ``prefer_real``
    loads the real-valued twins where the document names them, as a
    fine-tune does.  The tables are loaded first, so a missing or corrupt
    one raises ``OSError`` or ``LutFileError`` whatever else the document
    holds.  Then a top level that is not an object, a missing ``stages``,
    a value of the wrong type, a non-finite number (``Infinity`` or
    ``NaN``) or an unknown pattern raises ``ValueError`` naming the key.
    Restoring the config checks it against its tables.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"pipeline.json must hold an object, not {type(doc).__name__}")
    root = os.path.dirname(os.path.abspath(path))

    def get(key, kind, default):
        # the value of key, its default when it is missing or null
        head, _, name = key.rpartition(".")
        value = (get(head, dict, {}) if head else doc).get(name)
        if value is None:
            return default
        if not _is(value, kind):
            raise ValueError(f"pipeline.json: {key!r} must be {_type_name(kind)}, "
                             f"not {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"pipeline.json: {key!r} must be finite, not {value}")
        return value

    def tables(key, real_key):
        key = real_key if prefer_real and get(real_key, *_KEYS[real_key][:2]) else key
        return get(key, *_KEYS[key][:2])

    names = tables("stages", "real_stages")
    if names is None:
        raise ValueError("pipeline.json: missing key 'stages'")
    stages = [[load_lut(os.path.join(root, name)) for name in stage] for stage in names]
    coeff = tables("pooling.coeff", "pooling.real_coeff")
    fields = {"stages": stages,
              "pooling": {"coeff_lut": load_lut(os.path.join(root, coeff)) if coeff else None}}
    for key, (kind, default, decode) in _KEYS.items():
        if decode is not None:
            value = get(key, kind, default)
            try:
                value = decode(value)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"pipeline.json: {key!r}: {exc}") from None
            head, _, name = key.rpartition(".")
            (fields[head] if head else fields)[name] = value
    fields["pooling"] = PoolingSpec(**fields["pooling"])
    return PipelineConfig(**fields)
