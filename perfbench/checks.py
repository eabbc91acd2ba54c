"""Output checks for timed frames against the package's scalar oracles.

For sampled anchors the expected value is rebuilt one anchor at a time
with ``orientation.oriented_predictions`` (per pattern, averaged over
patterns as the pipeline does) and ``pooling.fuse_*`` on a
replicate-padded frame, plus the bicubic baseline for residual
super-resolution.  The pipeline quantizes once at the end, so every
uint8 output must lie within half a gray level of the real-valued
oracle.  The query counters must equal the cost model exactly.

The pipeline and ``fuse_*`` share the weight functions of
``lutpool.pooling``, so the fusion weights are also recomputed here from
their defining formulas, independently of that module.
"""

from __future__ import annotations

import numpy as np

from lutpool.lut import QuantizedLut, RealLut, query
from lutpool.orientation import oriented_predictions, rotate_patch
from lutpool.pipeline import bicubic_resize, query_cost_model
from lutpool.pooling import fuse_average, fuse_gmp, fuse_oap

TOLERANCE = 0.5 + 1e-9
WEIGHT_TOLERANCE = 1e-9


def reference_weights(pool, xs, patch):
    """Fusion weights over the k predictions xs (k, m), from their definitions."""
    k = xs.shape[0]
    if pool.kind == "average":
        return np.full(k, 1.0 / k)
    if pool.kind == "gmp":
        dev = xs - xs.mean(axis=0)
        d = np.sqrt((dev * dev).sum(axis=1)) if pool.norm == "l2" else np.abs(dev).sum(axis=1)
        w = np.exp(-(d - d.min()) / pool.tau)
        return w / w.sum()
    raw = query(pool.coeff_lut, patch)      # 8-bit weights, sum-normalized
    total = raw.sum()
    return raw / total if total > 0.0 else np.full(k, 1.0 / k)


class FrameChecker:
    """Checks outputs of one single-stage pipeline configuration."""

    def __init__(self, config):
        config.validate()
        if config.num_stages != 1:
            raise ValueError("the oracle covers single-stage pipelines")
        self.config = config
        # dequantized once, and without lut.real_table (the pipeline's own
        # conversion): the oracle queries one patch at a time
        self.tables = [RealLut(lut.q, lut.n, lut.m, lut.entries.astype(np.float64) - lut.bias)
                       if isinstance(lut, QuantizedLut) else lut
                       for lut in config.stages[0]]
        self.model = query_cost_model(config)
        self.pad = max([p.reach for p in config.patterns]
                       + [config.coeff_pattern.reach]) + config.padding
        self.rs = config.scale if config.task == "sr" else 1

    def anchors(self, shape, rng, count, corner):
        """``count`` anchors: one frame corner (cycled by ``corner``) plus random ones."""
        h, w = shape
        corners = ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1))
        picked = [corners[corner % 4]]
        rows = rng.integers(0, h, count - 1)
        cols = rng.integers(0, w, count - 1)
        picked.extend(zip(rows.tolist(), cols.tolist()))
        return picked

    def expected(self, image, anchors, errors):
        """Real-valued oracle outputs, one (rs, rs) block per anchor.

        Fusion weights that disagree with ``reference_weights`` are
        appended to ``errors``.
        """
        cfg = self.config
        x = np.asarray(image, dtype=np.float64)
        padded = np.pad(x, self.pad, mode="edge")
        rs = self.rs
        baseline = None
        if cfg.residual:
            baseline = bicubic_resize(x, rs) if rs > 1 else x
        pool = cfg.pooling
        blocks = []
        for r, c in anchors:
            at = (r + self.pad, c + self.pad)
            xs = sum(oriented_predictions(padded, at, pattern, table, cfg.orientations)
                     for pattern, table in zip(cfg.patterns, self.tables))
            xs = xs / len(cfg.patterns)
            patch = rotate_patch(padded, at, cfg.coeff_pattern, 0)
            if pool.kind == "average":
                fused = fuse_average(xs)
            elif pool.kind == "gmp":
                fused = fuse_gmp(xs, pool.tau, pool.norm)
            else:
                fused = fuse_oap(xs, patch, pool.coeff_lut)
            err = np.max(np.abs(fused.weights - reference_weights(pool, xs, patch)))
            if not err <= WEIGHT_TOLERANCE:
                errors.append(f"anchor {(r, c)}: {pool.kind} weights off by {err:.3g}")
            block = fused.output.reshape(rs, rs)
            if baseline is not None:
                block = block + baseline[r * rs:(r + 1) * rs, c * rs:(c + 1) * rs]
            blocks.append(np.clip(block, 0.0, 255.0))
        return blocks

    def check(self, image, output, counters, rng, count, corner):
        """List of mismatch descriptions; empty when the frame is correct."""
        errors = []
        h, w = np.shape(image)
        rs = self.rs
        if output.shape != (h * rs, w * rs) or output.dtype != np.uint8:
            return [f"output {output.shape} {output.dtype}, expected "
                    f"{(h * rs, w * rs)} uint8"]
        want_lut = self.model["lut_queries_per_pixel"] * h * w
        want_coeff = self.model["coeff_queries_per_pixel"] * h * w
        if (counters.lut_queries, counters.coeff_queries) != (want_lut, want_coeff):
            errors.append(f"query counts {counters.lut_queries}/{counters.coeff_queries}"
                          f" != cost model {want_lut}/{want_coeff}")
        anchors = self.anchors((h, w), rng, count, corner)
        for (r, c), block in zip(anchors, self.expected(image, anchors, errors)):
            got = output[r * rs:(r + 1) * rs, c * rs:(c + 1) * rs].astype(np.float64)
            err = float(np.max(np.abs(got - block)))
            if not err <= TOLERANCE:
                errors.append(f"anchor {(r, c)}: |output - oracle| = {err:.6f}")
        return errors
