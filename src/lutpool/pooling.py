"""Fusion of the oriented prediction ensemble into one output.

All strategies produce convex weights over the k oriented predictions
(nonnegative, summing to one) and blend with the same combiner, so the
fused output always stays inside the componentwise hull of its inputs:

* average -- constant weight 1/k;
* gmp -- soft-median: weights fall off exponentially with each
  prediction's distance from the ensemble mean, temperature-controlled
  (large tau recovers the average, small tau snaps to the prediction
  nearest the mean);
* oap -- content-adaptive: a coefficient table queried on the local
  unrotated patch supplies per-anchor weights (softmax over raw logits
  while real-valued, plain sum-normalization once exported to 8-bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lut import CoeffLut, QuantizedLut, RealLut, query_batch


@dataclass
class FusionResult:
    output: np.ndarray
    weights: np.ndarray


@dataclass
class PoolingSpec:
    """Which fusion strategy to run and its knobs."""

    kind: str = "average"
    tau: float = 1.0
    norm: str = "l2"
    coeff_lut: object = None

    def __post_init__(self):
        if self.kind not in ("average", "gmp", "oap"):
            raise ValueError(f"unknown pooling kind {self.kind!r}")
        if self.kind == "gmp" and not self.tau > 0.0:
            raise ValueError("gmp temperature must be positive")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown distance norm {self.norm!r}")
        if self.kind == "oap" and self.coeff_lut is None:
            raise ValueError("oap pooling needs a coefficient table")


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; equal logits give exactly uniform weights."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def combine(xs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted blend of predictions xs (k, N, m) with weights (k, N).

    Every pooling strategy funnels through this one routine so that
    strategies producing identical weights produce bitwise-identical
    outputs.
    """
    return np.sum(weights[:, :, None] * xs, axis=0)


def average_weights(k: int, count: int) -> np.ndarray:
    return np.full((k, count), 1.0 / k)


def gmp_distances(xs: np.ndarray, norm: str = "l2"):
    """Distance of each prediction from the ensemble mean, (k, N)."""
    mean = np.mean(xs, axis=0)
    dev = xs - mean[None]
    if norm == "l2":
        d = np.sqrt(np.sum(dev * dev, axis=-1))
    elif norm == "l1":
        d = np.sum(np.abs(dev), axis=-1)
    else:
        raise ValueError(f"unknown distance norm {norm!r}")
    return d, dev, mean


def gmp_weights(xs: np.ndarray, tau: float, norm: str = "l2") -> np.ndarray:
    """Soft-median weights exp(-d_i / tau), normalized over orientations.

    Computed with the minimum distance shifted out of the exponent, so
    tiny temperatures stay finite and an all-equal ensemble degrades to
    uniform weights.
    """
    if not tau > 0.0:
        raise ValueError("gmp temperature must be positive")
    d, _, _ = gmp_distances(xs, norm)
    return softmax(-d / tau, axis=0)


def oap_weights(patches: np.ndarray, coeff, query=None) -> np.ndarray:
    """Adaptive weights (k, N) for a batch of unrotated anchor patches.

    ``query(coeff, patches)`` reads the coefficient table; it defaults to
    :func:`query_batch`, which also range-checks the patches.  The
    pipeline passes its own query, and as ``patches`` the flat base rows
    and fractions it has already taken from its decomposed planes.
    """
    raw = (query or query_batch)(coeff, patches)
    if isinstance(coeff, RealLut):
        return softmax(raw, axis=1).T
    if isinstance(coeff, CoeffLut) or (
            isinstance(coeff, QuantizedLut) and not coeff.signed):
        total = np.sum(raw, axis=1, keepdims=True)
        k = raw.shape[1]
        uniform = np.full_like(raw, 1.0 / k)
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(total > 0.0, raw / np.where(total > 0.0, total, 1.0), uniform)
        return w.T
    raise TypeError("coefficient table must be a CoeffLut or RealLut")


def fuse_average(xs) -> FusionResult:
    """Plain ensemble mean of (k, m) predictions."""
    xs = _check_xs(xs)
    w = average_weights(xs.shape[0], 1)
    return FusionResult(combine(xs[:, None, :], w)[0], w[:, 0])


def fuse_gmp(xs, tau: float, norm: str = "l2") -> FusionResult:
    xs = _check_xs(xs)
    w = gmp_weights(xs[:, None, :], tau, norm)
    return FusionResult(combine(xs[:, None, :], w)[0], w[:, 0])


def fuse_oap(xs, patch, coeff) -> FusionResult:
    """Blend with weights looked up from the coefficient table at ``patch``."""
    xs = _check_xs(xs)
    patch = np.asarray(patch, dtype=np.float64)
    w = oap_weights(patch[None, :], coeff)
    if w.shape[0] != xs.shape[0]:
        raise ValueError(
            f"coefficient table yields {w.shape[0]} weights for {xs.shape[0]} orientations"
        )
    return FusionResult(combine(xs[:, None, :], w)[0], w[:, 0])


def simplex_project_check(weights, atol: float = 1e-9) -> bool:
    """True when weights are a valid point of the probability simplex."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        return False
    if not np.all(np.isfinite(w)):
        return False
    if np.any(w < -atol):
        return False
    return bool(abs(w.sum() - 1.0) <= atol)


def _check_xs(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("expected predictions of shape (k, m)")
    return xs
