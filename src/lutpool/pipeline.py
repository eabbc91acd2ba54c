"""Whole-image restoration: oriented table queries, fusion, cascades.

For every anchor pixel the configured kernel pattern is sampled under
each orientation, the stage table is queried, output blocks are mapped
back to the common frame and fused by the configured pooling.  A final
super-resolution stage emits an r_s x r_s block per anchor, placed by
pixel shuffle; earlier cascade stages refine at unit scale (m == 1).

One kernel, :func:`stage_pass`, runs a stage on a (B, h, w) stack: a
restored image is a stack of one, and training passes a batch of crops
with a tape that records the corner weights its gradient needs.  The
kernel decomposes each pixel once per stage and table spacing q, into a
lattice-cell plane and a fraction plane; every oriented query reads
shifted views of those planes rather than gathering and decomposing its
own patches.  Queries of integer-valued stacks fold table corners in
float32 where that is exact (see :func:`lutpool.lut._fold_dtype`), so
the result is the same in every bit.

Values stay real (float64) across stages -- clamped to [0, 255] so the
next stage's queries stay in domain -- and are quantized exactly once,
at the very end, with round-half-away-from-zero.  With residual mode on,
each stage adds its prediction to a baseline: the stage input itself at
unit scale, or its bicubic upsample for the upscaling stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import lut as _lut
from .lut import (QuantizedLut, RealLut, round_half_away, _decompose_arrays,
                  _flat_rows, _fold_dtype)
# Kept as module attributes although the stage kernel calls neither:
# perfbench/tracing.py wraps ``pipeline.real_table`` and
# ``pipeline.interpolate`` by name.
from .lut import interpolate, real_table  # noqa: F401
from .orientation import (KernelPattern, OrientationSet, SQUARE_PATTERN,
                          block_permutation)
from .pooling import (PoolingSpec, average_weights, combine, gmp_weights,
                      oap_weights)


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
    share_oap_across_stages: bool = True
    padding: int = 0  # extra replicate padding on top of the pattern reach
    coeff_pattern: KernelPattern = SQUARE_PATTERN

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
        stages = self.stages
        if isinstance(stages, (QuantizedLut, RealLut)):
            stages = [stages]
        normalized = []
        for stage in stages:
            if isinstance(stage, (QuantizedLut, RealLut)):
                normalized.append([stage])
            else:
                normalized.append(list(stage))
        self.stages = normalized

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_m(self, index: int) -> int:
        return self.scale ** 2 if (self.task == "sr" and index == self.num_stages - 1) else 1

    def validate(self) -> None:
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        for t, stage in enumerate(self.stages):
            if len(stage) != len(self.patterns):
                raise ValueError(
                    f"stage {t} has {len(stage)} tables for {len(self.patterns)} patterns"
                )
            want_m = self.stage_m(t)
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
    if config.pooling.kind == "oap":
        coeff = 1 if config.share_oap_across_stages else stages
    else:
        coeff = 0
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


def _resize_axis(arr: np.ndarray, out_len: int, scale: float, axis: int) -> np.ndarray:
    in_len = arr.shape[axis]
    pos = (np.arange(out_len, dtype=np.float64) + 0.5) / scale - 0.5
    shrink = min(scale, 1.0)  # widen the kernel when minifying
    support = 2.0 / shrink
    first = np.floor(pos - support).astype(np.int64) + 1
    ntaps = int(math.ceil(2.0 * support)) + 2
    taps = first[:, None] + np.arange(ntaps, dtype=np.int64)[None, :]
    weights = _keys_kernel((pos[:, None] - taps) * shrink)
    weights = weights / weights.sum(axis=1, keepdims=True)
    taps = np.clip(taps, 0, in_len - 1)  # replicate boundary
    moved = np.moveaxis(arr, axis, 0)
    out = np.zeros((out_len,) + moved.shape[1:], dtype=np.float64)
    for t in range(ntaps):
        w = weights[:, t].reshape((out_len,) + (1,) * (moved.ndim - 1))
        out += w * moved[taps[:, t]]
    return np.moveaxis(out, 0, axis)


def bicubic_resize(image, scale: float, out_shape=None) -> np.ndarray:
    """Separable cubic-convolution resampling (a = -0.5, replicate edges).

    Sample positions follow the pixel-center convention
    ``src = (dst + 0.5) / scale - 0.5``; minification widens the kernel
    by 1/scale for antialiasing.  Output is float64 and unclamped.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("expected a 2-D image (or H x W x C array)")
    if out_shape is None:
        out_h = max(1, int(round(img.shape[0] * scale)))
        out_w = max(1, int(round(img.shape[1] * scale)))
    else:
        out_h, out_w = out_shape
    out = _resize_axis(img, out_h, scale, 0)
    out = _resize_axis(out, out_w, scale, 1)
    return out


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


def _to_blocks(raster: np.ndarray, rs: int) -> np.ndarray:
    """(B, h*rs, w*rs) rasters -> (B*h*w, rs*rs) per-anchor blocks."""
    b, hh, ww = raster.shape
    h, w = hh // rs, ww // rs
    return (raster.reshape(b, h, rs, w, rs)
            .transpose(0, 1, 3, 2, 4)
            .reshape(b * h * w, rs * rs))


def _query(planes, offsets, pad: int, shape, lattice: int, dtype):
    """Flat base rows (N,) and axis-major fractions (n, N) of one query.

    ``planes`` is the (cells, fractions) decomposition of the padded
    stack; each of the n pattern offsets selects one shifted (B, h, w)
    view of both planes.
    """
    cells, fracs = planes
    b, h, w = shape
    views = [(slice(None), slice(pad + dr, pad + dr + h), slice(pad + dc, pad + dc + w))
             for dr, dc in offsets]
    rows = _flat_rows([cells[v] for v in views], lattice)
    frac = np.empty((len(views), b, h, w), dtype=dtype)
    for d, v in enumerate(views):
        frac[d] = fracs[v]
    return rows.reshape(-1), frac.reshape(len(views), -1)


def _blend(flat: np.ndarray, idx: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Corner-weighted sum of table rows: sum_c wts[c] * flat[idx[c]].

    idx/wts are corner-major (2**n, N).  One gather brings in every
    corner; the products are then added corner by corner onto zeros.
    ``g.sum(axis=0)`` would add in the same order except when N * m is
    1, where numpy sums the lone column pairwise.
    """
    g = np.take(flat, idx, axis=0)
    g *= wts[:, :, None]
    out = np.zeros(g.shape[1:])
    for gc in g:
        out += gc
    return out


def _lookup(table, query, corners=None) -> np.ndarray:
    """Outputs (N, m) of ``table`` at a query (flat base rows, fractions).

    Without ``corners`` the corner fold reads the table in its stored
    dtype, accumulating in the fractions' dtype.  With a preallocated
    (2**n, N) pair of index and weight arrays (a real-valued table
    only), the corner weights are written there for the gradient
    scatter and the rows are blended with them.
    """
    rows, frac = query
    # both kernels are called through the module, so that a wrap of the
    # lutpool.lut attribute (perfbench's tracer) sees every call
    if corners is None:
        return _lut._fold_corners(table.entries, rows, frac, table.bias)
    _lut.corner_weights(rows, frac, table.lattice_points, out=corners)
    return _blend(table.entries.reshape(-1, table.m), *corners)


def stage_pass(stack: np.ndarray, stage_luts, config: PipelineConfig, rs: int,
               alpha=None, counters: QueryCounter | None = None, tape=None):
    """One stage on a (B, h, w) stack of in-range images.

    The stack is edge-padded once and decomposed once per distinct
    sampling exponent q among the stage tables (and the oap coefficient
    table) into two planes: uint8 lattice cells and in-cell fractions.
    The padded copy is dropped once the planes are built.  Every
    (rotation, pattern) query then takes its flat base rows and
    axis-major fractions from shifted views of the planes, is read from
    its table and unrotated; the planes are dropped before the
    (k, B*h*w, rs*rs) ensemble is fused by the configured pooling
    (``alpha`` passes precomputed oap weights) and the residual baseline
    is added.  Returns the unclamped per-anchor blocks (B*h*w, rs*rs)
    and the fusion weights (k, B*h*w).

    Fractions are float32 when the stack is integer-valued (they are
    then exact multiples of 2**-q), and a table whose corner fold is
    provably exact in float32 (:func:`~lutpool.lut._fold_dtype`) is
    folded in float32; every other query is widened to float64.  Both
    give the same bits.

    Training passes a dict as ``tape``: queries then stay float64, every
    table, the oap coefficient table included, is queried through
    :func:`~lutpool.lut.corner_weights`, and the tape receives what the
    backward pass needs -- ``"xs"`` (the ensemble), ``"corners"`` (per
    pattern, (k, 2**n, B*h*w) indices and weights) and, when the stage
    computed oap weights, ``"coeff"``.
    """
    b, h, w = stack.shape
    count = b * h * w
    m = rs * rs
    pool = config.pooling
    rotations = config.orientations.rotations
    k = len(rotations)
    npat = len(stage_luts)
    need_alpha = pool.kind == "oap" and alpha is None
    # one padding serves the stage patterns and the coefficient pattern
    pad = max(p.reach for p in (*config.patterns, config.coeff_pattern)) + config.padding
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    integral = tape is None and bool(np.all(stack == np.floor(stack)))
    qs = {table.q for table in stage_luts} | ({pool.coeff_lut.q} if need_alpha else set())
    planes = {q: _decompose_arrays(padded, q, np.float32 if integral else np.float64)
              for q in qs}
    del padded

    def query(table, offsets):
        return _query(planes[table.q], offsets, pad, stack.shape, table.lattice_points,
                      _fold_dtype(table, integral))

    if need_alpha:
        cp, coeff = config.coeff_pattern, pool.coeff_lut
        corners = None
        if tape is not None:
            corners = tape["coeff"] = (np.empty((1 << cp.n, count), dtype=np.int64),
                                       np.empty((1 << cp.n, count)))
        if counters is not None:
            counters.coeff_queries += count
        alpha = oap_weights(query(coeff, cp.offsets), coeff,
                            query=partial(_lookup, corners=corners))

    xs = np.zeros((k, count, m))
    if tape is not None:
        tape["corners"] = [(np.empty((k, 1 << p.n, count), dtype=np.int64),
                            np.empty((k, 1 << p.n, count)))
                           for p in config.patterns]
    for ri, r in enumerate(rotations):
        for pi, (pattern, table) in enumerate(zip(config.patterns, stage_luts)):
            corners = None
            if tape is not None:
                idx, wts = tape["corners"][pi]
                corners = (idx[ri], wts[ri])
            out = _lookup(table, query(table, pattern.rotated(r)), corners)
            if counters is not None:
                counters.lut_queries += count
            if m > 1:
                out = out[:, block_permutation(m, r)]
            xs[ri] += out / npat
    del planes

    if pool.kind == "average":
        weights = average_weights(k, count)
    elif pool.kind == "gmp":
        weights = gmp_weights(xs, pool.tau, pool.norm)
    else:
        weights = alpha
    pred = combine(xs, weights)
    if tape is not None:
        tape["xs"] = xs

    if config.residual:
        if rs == 1:
            pred += stack.reshape(count, 1)
        else:
            # the stack's images ride on the channel axis of bicubic_resize
            up = bicubic_resize(stack.transpose(1, 2, 0), rs).transpose(2, 0, 1)
            pred += _to_blocks(up, rs)
    return pred, weights


def _run_real(image: np.ndarray, config: PipelineConfig,
              counters: QueryCounter | None) -> np.ndarray:
    """All stages on a float image; returns the unquantized result."""
    config.validate()
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    if x.size == 0:
        raise ValueError("empty image")
    if not (x.min() >= 0.0 and x.max() <= 255.0):   # NaN fails this too
        raise ValueError("pixel values must lie in [0, 255]")

    alpha = None
    for t, stage_luts in enumerate(config.stages):
        rs = config.scale if (config.task == "sr" and t == config.num_stages - 1) else 1
        h, w = x.shape
        blocks, weights = stage_pass(x[None], stage_luts, config, rs, alpha, counters)
        if config.pooling.kind == "oap" and config.share_oap_across_stages:
            alpha = weights      # the first stage's weights serve every stage
        x = np.clip(pixel_shuffle(blocks.reshape(h, w, rs, rs)), 0.0, 255.0)
    return x


def restore_image(image, config: PipelineConfig,
                  counters: QueryCounter | None = None) -> np.ndarray:
    """Run the configured pipeline and quantize once at the end (uint8)."""
    out = _run_real(image, config, counters)
    return round_half_away(out).astype(np.uint8)
