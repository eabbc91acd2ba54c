"""Whole-image restoration: oriented table queries, fusion, cascades.

For every anchor pixel the configured kernel pattern is sampled under
each orientation, the stage table is queried, output blocks are mapped
back to the common frame and fused by the configured pooling.  A final
super-resolution stage emits an r_s x r_s block per anchor, placed by
pixel shuffle; earlier cascade stages refine at unit scale (m == 1).

Values stay real (float64) across stages -- clamped to [0, 255] so the
next stage's queries stay in domain -- and are quantized exactly once,
at the very end, with round-half-away-from-zero.  With residual mode on,
each stage adds its prediction to a baseline: the stage input itself at
unit scale, or its bicubic upsample for the upscaling stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lut import (QuantizedLut, RealLut, interpolate, round_half_away,
                  _decompose_arrays)
# Kept as a module attribute although queries no longer dequantize:
# perfbench/tracing.py wraps ``pipeline.real_table`` by name.
from .lut import real_table  # noqa: F401
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


def _gather(image: np.ndarray, offsets, pad: int) -> np.ndarray:
    """Stack the pixel at each offset for every anchor, (H, W, n)."""
    h, w = image.shape
    padded = np.pad(image, pad, mode="edge")
    planes = [padded[pad + dr: pad + dr + h, pad + dc: pad + dc + w]
              for dr, dc in offsets]
    return np.stack(planes, axis=-1)


def _oap_alpha(image: np.ndarray, config: PipelineConfig,
               counters: QueryCounter | None) -> np.ndarray:
    """Per-anchor fusion weights (k, H*W) from the unrotated coeff patch."""
    pattern = config.coeff_pattern
    pad = pattern.reach + config.padding
    patches = _gather(image, pattern.offsets, pad).reshape(-1, pattern.n)
    if counters is not None:
        counters.coeff_queries += patches.shape[0]
    return oap_weights(patches, config.pooling.coeff_lut)


def _stage_pass(image: np.ndarray, stage_luts, config: PipelineConfig,
                rs: int, alpha, counters: QueryCounter | None) -> np.ndarray:
    h, w = image.shape
    count = h * w
    m = rs * rs
    pad = max(p.reach for p in config.patterns) + config.padding
    rotations = config.orientations.rotations
    xs = np.empty((len(rotations), count, m), dtype=np.float64)
    for i, r in enumerate(rotations):
        acc = np.zeros((count, m), dtype=np.float64)
        for pattern, lut in zip(config.patterns, stage_luts):
            patches = _gather(image, pattern.rotated(r), pad).reshape(count, pattern.n)
            base, frac = _decompose_arrays(patches, lut.q)
            out = interpolate(lut.entries, base, frac, lut.bias)
            if counters is not None:
                counters.lut_queries += count
            if m > 1:
                out = out[:, block_permutation(m, r)]
            acc += out
        xs[i] = acc / len(stage_luts)

    pool = config.pooling
    if pool.kind == "average":
        weights = average_weights(len(rotations), count)
    elif pool.kind == "gmp":
        weights = gmp_weights(xs, pool.tau, pool.norm)
    else:
        weights = alpha if alpha is not None else _oap_alpha(image, config, counters)
    fused = combine(xs, weights)

    if rs == 1:
        out = fused.reshape(h, w)
        baseline = image
    else:
        out = pixel_shuffle(fused.reshape(h, w, rs, rs))
        baseline = bicubic_resize(image, rs) if config.residual else None
    if config.residual:
        out = apply_residual(baseline, out)
    return out


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
    if config.pooling.kind == "oap" and config.share_oap_across_stages:
        alpha = _oap_alpha(x, config, counters)
    for t, stage_luts in enumerate(config.stages):
        rs = config.scale if (config.task == "sr" and t == config.num_stages - 1) else 1
        stage_alpha = alpha
        if config.pooling.kind == "oap" and not config.share_oap_across_stages:
            stage_alpha = _oap_alpha(x, config, counters)
        x = _stage_pass(x, stage_luts, config, rs, stage_alpha, counters)
        x = np.clip(x, 0.0, 255.0)
    return x


def restore_image(image, config: PipelineConfig,
                  counters: QueryCounter | None = None) -> np.ndarray:
    """Run the configured pipeline and quantize once at the end (uint8)."""
    out = _run_real(image, config, counters)
    return round_half_away(out).astype(np.uint8)


def cascade(image, config: PipelineConfig,
            counters: QueryCounter | None = None) -> np.ndarray:
    """Multi-stage entry point; a single stage matches restore_image."""
    if config.num_stages < 1:
        raise ValueError("cascade needs at least one stage")
    return restore_image(image, config, counters)
