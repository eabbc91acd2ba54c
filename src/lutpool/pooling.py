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

from dataclasses import dataclass

import numpy as np

from .lut import QuantizedLut, RealLut, query_batch


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
        # every kind: a pipeline.json cannot store a non-finite temperature
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"gmp temperature must be finite and positive, got {self.tau!r}")
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

    Every pooling strategy funnels through this one routine, or through
    its order (``pipeline.stage_pass`` sums average and oap orientations
    this way as they are read), so that strategies producing identical
    weights produce bitwise-identical outputs.  The products are
    accumulated one orientation at a time onto +0.0,
    ``((0 + w0 x0) + w1 x1) + ...``: the order and the start
    of ``np.sum(weights[:, :, None] * xs, axis=0)``, without its
    (k, N, m) temporary.  (numpy sums pairwise instead when the result
    is a single value and k >= 8, which no orientation set reaches.)
    """
    out = weights[0][:, None] * xs[0]
    out += 0.0          # the sum starts at +0.0: a -0.0 first product becomes +0.0
    term = np.empty_like(out)
    for x, w in zip(xs[1:], weights[1:]):
        np.multiply(w[:, None], x, out=term)
        out += term
    return out


def average_weights(k: int, count: int) -> np.ndarray:
    """Uniform weights (k, count): a read-only broadcast of 1/k, no array of its own."""
    return np.broadcast_to(1.0 / k, (k, count))


def _distances(xs: np.ndarray, mean: np.ndarray, norm: str) -> np.ndarray:
    """l1 or l2 distance of each prediction (k, N, m) from ``mean`` (N, m).

    One orientation at a time, through one (N, m) buffer of deviations.
    Its m columns are added in sequence, which is the order of
    ``np.sum(axis=-1)`` over fewer than 8 terms; from 8 on numpy sums
    pairwise, so the row sum itself is taken.  The distances are thus
    the bits of ``sqrt(sum(dev * dev, -1))`` and ``sum(|dev|, -1)``.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"unknown distance norm {norm!r}")
    k, count, m = xs.shape
    d = np.empty((k, count))
    dev = np.empty((count, m))
    for x, row in zip(xs, d):
        np.subtract(x, mean, out=dev)
        if norm == "l2":
            np.multiply(dev, dev, out=dev)
        else:
            np.abs(dev, out=dev)
        if m < 8:
            row[...] = dev[:, 0]
            for j in range(1, m):
                row += dev[:, j]
        else:
            np.sum(dev, axis=-1, out=row)
    if norm == "l2":
        np.sqrt(d, out=d)
    return d


def gmp_weights(xs: np.ndarray, tau: float, norm: str = "l2") -> np.ndarray:
    """Soft-median weights exp(-d_i / tau), normalized over orientations.

    The max-shifted softmax of ``-d / tau``; an all-equal ensemble
    degrades to uniform weights.  At a temperature so small that every
    ``-d_i / tau`` of an anchor overflows to -inf, that anchor takes the
    minimum distance out first, so its weights stay finite: the nearest
    predictions share them.  Every other anchor keeps the plain softmax.
    The mean is ``np.mean(xs, axis=0)``, orientations added in sequence,
    and each distance sums its m terms in the order of ``np.sum`` over
    the last axis (see :func:`_distances`), with no (k, N, m) temporary.
    """
    if not 0.0 < tau < np.inf:
        raise ValueError(f"gmp temperature must be finite and positive, got {tau!r}")
    u = _distances(xs, np.mean(xs, axis=0), norm)
    # u holds d until it is turned, in place, into the logits -d / tau
    # and then into softmax(-d / tau, axis=0) with that function's bits;
    # -d / tau is -inf for every orientation of an anchor just when the
    # nearest one's d / tau overflows
    with np.errstate(over="ignore"):    # -d / tau past -inf weighs 0
        lost = ~np.isfinite(u.min(axis=0) / tau)
        near = u[:, lost] if lost.any() else None
        np.negative(u, out=u)
        u /= tau
        if near is not None:
            u[:, lost] = -(near - near.min(axis=0)) / tau
    u -= u.max(axis=0, keepdims=True)
    np.exp(u, out=u)
    u /= np.sum(u, axis=0, keepdims=True)
    return u


def _weights_adjoint(pool: PoolingSpec, alpha, s, xs=None) -> float:
    """Adjoint of gmp or oap weights ``alpha`` = softmax(u) (k, N): dL/dalpha ``s`` -> dL/du.

    ``s`` becomes dL/du in place.  For gmp, u = -dist / tau of the
    ensemble ``xs`` (k, N, m), which becomes, in place, dL/dxs through
    u; the return is dL/dlog tau = sum(s * dist) / tau, else 0.0.
    Every operation is the one, in the order, of the out-of-place
    formulas, so every gradient keeps its bits.
    """
    # dL/du of alpha = softmax(u) over orientations, (k, N):
    # alpha * (c - sum(alpha * c)), c = dL/dalpha
    s -= np.sum(alpha * s, axis=0, keepdims=True)
    s *= alpha
    if pool.kind != "gmp":
        return 0.0
    # in place: the deviations from the mean, their unit (l2) or sign
    # (l1) vectors, t = d(dist) * unit with u_i = -dist_i / tau, and
    # t - mean(t), the distance term of each rotation's gradient
    tau = pool.tau
    mean = np.mean(xs, axis=0)
    dist = _distances(xs, mean, pool.norm)
    xs -= mean
    del mean
    if pool.norm == "l2":
        xs /= np.maximum(dist, 1e-300)[:, :, None]
    else:
        np.sign(xs, out=xs)
    dist *= s                   # the bits of np.sum(s * dist) / tau, in dist's array
    log_tau_grad = float(np.sum(dist) / tau)
    del dist
    xs *= (-s / tau)[:, :, None]
    mean = xs.sum(axis=0)
    mean /= len(xs)
    xs -= mean
    return log_tau_grad


def oap_weights(patches: np.ndarray, coeff, query=None) -> np.ndarray:
    """Adaptive weights (k, N) for a batch of unrotated anchor patches.

    ``query(coeff, patches)`` reads the coefficient table; it defaults to
    :func:`query_batch`, which also range-checks the patches.  The
    pipeline passes :func:`lutpool.lut._read` instead, and as ``patches``
    the coefficient table's query, views of the planes it has already
    decomposed.  A RealLut holds logits, softmaxed per anchor; a
    quantized table holds unsigned weights, normalized per anchor.  A
    signed one raises ``TypeError`` before it is read: its biased entries
    dequantize to negative weights, off the simplex.
    """
    real = isinstance(coeff, RealLut)
    if not real and not (isinstance(coeff, QuantizedLut) and not coeff.signed):
        raise TypeError("coefficient table must be an unsigned quantized table or a RealLut")
    raw = (query or query_batch)(coeff, patches)
    if real:
        return softmax(raw, axis=1).T
    # each anchor's total, its k columns added in sequence: the order of
    # np.sum(raw, axis=1) below 8 terms (see _distances), without numpy's
    # slow reduction over a short axis
    cols = raw.T
    k = len(cols)
    if k < 8:
        total = cols[0].copy()
        for col in cols[1:]:
            total += col
    else:
        total = np.sum(raw, axis=1)
    positive = total > 0.0
    # (k, N) in C order: each orientation's weights are contiguous
    if positive.all():
        return np.divide(cols, total, out=np.empty(cols.shape))
    # anchors of zero total keep the uniform fill; the rest are divided
    w = np.full(cols.shape, 1.0 / k)
    np.divide(cols, total, out=w, where=positive)
    return w


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
    patch = np.asarray(patch)
    w = oap_weights(patch[None, :], coeff)
    if w.shape[0] != xs.shape[0]:
        raise ValueError(
            f"coefficient table yields {w.shape[0]} weights for {xs.shape[0]} orientations"
        )
    return FusionResult(combine(xs[:, None, :], w)[0], w[:, 0])


def _check_xs(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("expected predictions of shape (k, m)")
    return xs
