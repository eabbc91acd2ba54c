"""Fidelity metrics for 8-bit images: PSNR, SSIM, PSNR-B, luma transform.

All functions accept uint8 or float arrays and compute in float64 with
peak 255.  PSNR of identical images is capped at 100 dB rather than
infinity so aggregates stay finite.

PSNR-B augments the mean squared error with a blocking-effect factor
(BEF) measured on the reconstructed image: with block size B = 8, let D_b
be the mean squared difference across neighbour pairs that straddle a
block boundary (columns B-1|B, 2B-1|2B, ... and same for rows) and
D_nb the mean squared difference over all other neighbour pairs.  When
D_b > D_nb the reconstruction is penalized by

    BEF = log2(B) / log2(min(H, W)) * (D_b - D_nb),
    PSNR-B = 10 * log10(255**2 / (MSE + BEF)),

and BEF = 0 otherwise, so PSNR-B is never above plain PSNR.
"""

from __future__ import annotations

import math

import numpy as np

PEAK = 255.0
PSNR_CAP = 100.0
# SSIM's Gaussian window: 11 taps, standard deviation 1.5 pixels.
_SSIM_WINDOW = np.exp(-np.arange(-5.0, 6.0) ** 2 / (2.0 * 1.5 * 1.5))
_SSIM_WINDOW /= _SSIM_WINDOW.sum()
_BEF_BLOCK = 8   # PSNR-B's block side B (see the module doc)


def _as_float_pair(a, b):
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("empty images")
    return x, y


def mse(a, b) -> float:
    x, y = _as_float_pair(a, b)
    d = x - y
    return float(np.mean(d * d))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB (peak 255, capped at 100)."""
    err = mse(a, b)
    if err == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(PEAK * PEAK / err))


def _filter_valid(img: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a 1-D window on both axes."""
    taps = window.shape[0]
    out = np.zeros((img.shape[0] - taps + 1, img.shape[1]), dtype=np.float64)
    for t in range(taps):
        out += window[t] * img[t: t + out.shape[0], :]
    out2 = np.zeros((out.shape[0], img.shape[1] - taps + 1), dtype=np.float64)
    for t in range(taps):
        out2 += window[t] * out[:, t: t + out2.shape[1]]
    return out2


def ssim(a, b) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5).

    Stabilizers C1 = (0.01 * 255)**2 and C2 = (0.03 * 255)**2; the map is
    averaged over the valid (fully covered) region only.
    """
    x, y = _as_float_pair(a, b)
    if x.ndim != 2:
        raise ValueError("ssim expects 2-D grayscale images")
    if min(x.shape) < _SSIM_WINDOW.size:
        raise ValueError(f"images must be at least {_SSIM_WINDOW.size} pixels per side")
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2
    win = _SSIM_WINDOW
    mu_x = _filter_valid(x, win)
    mu_y = _filter_valid(y, win)
    xx = _filter_valid(x * x, win) - mu_x * mu_x
    yy = _filter_valid(y * y, win) - mu_y * mu_y
    xy = _filter_valid(x * y, win) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def blocking_effect_factor(img) -> float:
    """Excess squared discontinuity across 8-pixel block boundaries (see module doc)."""
    y = np.asarray(img, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("expected a 2-D image")
    h, w = y.shape
    if min(h, w) < 2 * _BEF_BLOCK:
        raise ValueError("image too small for the block size")

    dh = y[:, 1:] - y[:, :-1]          # horizontal neighbour pairs
    dv = y[1:, :] - y[:-1, :]          # vertical neighbour pairs
    hcols = np.arange(w - 1)
    vrows = np.arange(h - 1)
    h_boundary = (hcols % _BEF_BLOCK) == _BEF_BLOCK - 1
    v_boundary = (vrows % _BEF_BLOCK) == _BEF_BLOCK - 1

    sq_b = float(np.sum(dh[:, h_boundary] ** 2) + np.sum(dv[v_boundary, :] ** 2))
    n_b = dh[:, h_boundary].size + dv[v_boundary, :].size
    sq_nb = float(np.sum(dh[:, ~h_boundary] ** 2) + np.sum(dv[~v_boundary, :] ** 2))
    n_nb = dh[:, ~h_boundary].size + dv[~v_boundary, :].size
    if n_b == 0 or n_nb == 0:
        return 0.0
    d_b = sq_b / n_b
    d_nb = sq_nb / n_nb
    if d_b <= d_nb:
        return 0.0
    eta = np.log2(_BEF_BLOCK) / np.log2(min(h, w))
    return float(eta * (d_b - d_nb))


def psnr_b(reference, reconstruction) -> float:
    """Blocking-sensitive PSNR (block side 8); equals plain PSNR when BEF is zero."""
    err = mse(reference, reconstruction)
    bef = blocking_effect_factor(reconstruction)
    denom = err + bef
    if denom == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(PEAK * PEAK / denom))


def rgb_to_y(rgb) -> np.ndarray:
    """BT.601 studio-swing luma: 16 + (65.481 R + 128.553 G + 24.966 B) / 255.

    Input is an (H, W, 3) array scaled 0..255; output is float64 and is
    left unrounded (working precision).
    """
    img = np.asarray(rgb, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) RGB image")
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    return 16.0 + (65.481 * r + 128.553 * g + 24.966 * b) / 255.0
