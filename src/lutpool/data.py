"""Dataset plumbing: manifests, degradation recipes, synthetic images.

Noise is drawn from a counter-based generator keyed by
(seed, image index, pixel index): each pixel's normal deviate is a pure
hash of those three integers (SplitMix64 mixing, Box-Muller transform),
so regeneration is order-independent and safe to parallelize.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .lut import round_half_away
from .pipeline import bicubic_resize

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM = np.uint64(0x6A09E667F3BCC909)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
        return z ^ (z >> np.uint64(31))


def _to_unit(bits: np.ndarray) -> np.ndarray:
    # top 53 bits -> uniform in [0, 1)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def counter_gaussian(count: int, seed: int, image_index: int) -> np.ndarray:
    """Standard normal deviates for pixel indices 0..count-1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    key = _splitmix64(np.uint64(seed)) ^ _splitmix64(
        np.uint64(image_index) + _GOLDEN)
    idx = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h1 = _splitmix64((key + idx) & _MASK)
        h2 = _splitmix64(h1 ^ _STREAM)
    u1 = _to_unit(h1)
    u2 = _to_unit(h2)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)


@dataclass
class DegradationRecipe:
    """How a degraded observation is produced from a clean image."""

    kind: str
    scale: int = 2
    sigma: float = 15.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("awgn", "bicubic_down"):
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if self.kind == "bicubic_down" and self.scale < 2:
            raise ValueError("bicubic_down needs scale >= 2")
        if self.kind == "awgn" and self.sigma < 0:
            raise ValueError("noise level must be nonnegative")

    def to_string(self) -> str:
        if self.kind == "awgn":
            return f"recipe:awgn:{self.sigma:g}:{self.seed}"
        return f"recipe:bicubic_down:{self.scale}"


def parse_recipe(text: str) -> DegradationRecipe:
    """Parse 'recipe:awgn:SIGMA[:SEED]' or 'recipe:bicubic_down:SCALE'."""
    parts = text.split(":")
    if parts[0] == "recipe":
        parts = parts[1:]
    if not parts:
        raise ValueError(f"empty degradation recipe {text!r}")
    kind = parts[0]
    if kind == "awgn":
        if len(parts) not in (2, 3):
            raise ValueError(f"awgn recipe wants sigma[:seed], got {text!r}")
        seed = int(parts[2]) if len(parts) == 3 else 0
        return DegradationRecipe("awgn", sigma=float(parts[1]), seed=seed)
    if kind == "bicubic_down":
        if len(parts) != 2:
            raise ValueError(f"bicubic_down recipe wants a scale, got {text!r}")
        return DegradationRecipe("bicubic_down", scale=int(parts[1]))
    raise ValueError(f"unknown degradation kind {kind!r}")


def degrade(image, recipe: DegradationRecipe, image_index: int = 0) -> np.ndarray:
    """Apply a recipe to a clean image; output is clamped, rounded uint8."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    if recipe.kind == "awgn":
        noise = counter_gaussian(img.size, recipe.seed, image_index)
        out = img + recipe.sigma * noise.reshape(img.shape)
    else:
        out = bicubic_resize(img, 1.0 / recipe.scale)
    return round_half_away(np.clip(out, 0.0, 255.0)).astype(np.uint8)


@dataclass
class ManifestItem:
    split: str
    clean: str
    degraded_path: str | None = None
    recipe: DegradationRecipe | None = None


def load_manifest(path) -> list:
    """Read a tab-separated dataset manifest.

    Each line: ``split<TAB>clean_path<TAB>degraded`` where ``degraded``
    is either an image path or a ``recipe:...`` string.  Paths are
    resolved relative to the manifest and must exist.
    """
    root = os.path.dirname(os.path.abspath(path))
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            split, clean, degraded = (p.strip() for p in parts)
            if split not in ("train", "val", "test"):
                raise ValueError(f"{path}:{lineno}: unknown split {split!r}")
            clean_path = os.path.join(root, clean)
            if not os.path.isfile(clean_path):
                raise FileNotFoundError(
                    f"{path}:{lineno}: missing clean image {clean!r}")
            if degraded.startswith("recipe:"):
                item = ManifestItem(split, clean_path, recipe=parse_recipe(degraded))
            else:
                deg_path = os.path.join(root, degraded)
                if not os.path.isfile(deg_path):
                    raise FileNotFoundError(
                        f"{path}:{lineno}: missing degraded image {degraded!r}"
                    )
                item = ManifestItem(split, clean_path, degraded_path=deg_path)
            items.append(item)
    if not items:
        raise ValueError(f"{path}: manifest has no entries")
    return items


def make_synthetic_corpus(count: int = 64, size: int = 48, seed: int = 0) -> list:
    """Seeded corpus of oriented-stripe and linear-ramp images (uint8).

    Three out of four images are sinusoidal stripes with random
    orientation, frequency, phase, amplitude and offset; the rest are
    linear ramps with a random gradient direction.
    """
    if size < 1:
        raise ValueError(f"image size must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    images = []
    for i in range(count):
        if i % 4 == 3:
            gx = rng.uniform(-2.5, 2.5)
            gy = rng.uniform(-2.5, 2.5)
            field = gx * rows + gy * cols
        else:
            theta = rng.uniform(0.0, np.pi)
            freq = rng.uniform(0.04, 0.18)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            axis = np.cos(theta) * rows + np.sin(theta) * cols
            field = np.cos(2.0 * np.pi * freq * axis + phase)
        lo = rng.uniform(10.0, 70.0)
        hi = rng.uniform(180.0, 245.0)
        span = field.max() - field.min()
        if span == 0.0:
            norm = np.full_like(field, 0.5)
        else:
            norm = (field - field.min()) / span
        img = lo + (hi - lo) * norm
        images.append(round_half_away(np.clip(img, 0.0, 255.0)).astype(np.uint8))
    return images


_VAL_COUNT = 8   # the last images of a written corpus, its validation split


def write_synthetic_dataset(directory, count: int = 64, size: int = 48,
                            seed: int = 0, scale: int = 2) -> str:
    """Write corpus PGMs plus a train/val manifest; returns manifest path."""
    from .netpbm import write_pnm

    if count <= _VAL_COUNT:
        raise ValueError(f"count {count} leaves no training images: the last "
                         f"{_VAL_COUNT} are the validation split")
    recipe = DegradationRecipe("bicubic_down", scale=scale)
    if size < 1 or size % scale:
        raise ValueError(f"size {size} must be a positive multiple of scale {scale}")
    os.makedirs(directory, exist_ok=True)
    images = make_synthetic_corpus(count, size, seed)
    manifest_path = os.path.join(directory, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for i, img in enumerate(images):
            name = f"img_{i:03d}.pgm"
            write_pnm(os.path.join(directory, name), img)
            split = "val" if i >= count - _VAL_COUNT else "train"
            fh.write(f"{split}\t{name}\t{recipe.to_string()}\n")
    return manifest_path
