"""Kernel sampling patterns and the quarter-turn prediction ensemble.

A kernel pattern lists the pixel offsets a table reads around an anchor.
Each prediction is repeated under the four image rotations: the offsets
are rotated in place around the anchor, the table is queried on the
rotated sample set, and the resulting output block is rotated back so
all contributions land in a common frame before fusion.

Offset rotation follows the counter-clockwise convention
``(dr, dc) -> (-dc, dr)`` per quarter turn.  Sampling at offsets rotated
r turns counter-clockwise shows the table a clockwise-rotated view of
the neighbourhood, so the matching inverse for an upscaled output block
is a counter-clockwise rotation by the same r (see
:func:`unrotate_output`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lut import query


def rotate_offset(offset, r: int):
    """Rotate one (dr, dc) offset by r counter-clockwise quarter turns."""
    dr, dc = offset
    for _ in range(r % 4):
        dr, dc = -dc, dr
    return dr, dc


@dataclass(frozen=True)
class KernelPattern:
    """Named set of sampling offsets; the anchor (0, 0) must be included."""

    name: str
    offsets: tuple

    def __post_init__(self):
        offs = tuple((int(dr), int(dc)) for dr, dc in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise ValueError("pattern needs at least one offset")
        if len(set(offs)) != len(offs):
            raise ValueError(f"pattern {self.name!r} has duplicate offsets")
        if (0, 0) not in offs:
            raise ValueError(f"pattern {self.name!r} must contain the anchor (0, 0)")
        # every query rotates the pattern, so the four turns are made once
        object.__setattr__(self, "_turns", tuple(
            tuple(rotate_offset(o, r) for o in offs) for r in range(4)))

    @property
    def n(self) -> int:
        return len(self.offsets)

    @property
    def reach(self) -> int:
        """Largest |coordinate| over all offsets; padding must cover it."""
        return max(max(abs(dr), abs(dc)) for dr, dc in self.offsets)

    def rotated(self, r: int) -> tuple:
        return self._turns[r % 4]


SQUARE_PATTERN = KernelPattern("S", ((0, 0), (0, 1), (1, 0), (1, 1)))
DIAGONAL_PATTERN = KernelPattern("D", ((0, 0), (1, 1), (2, 2), (3, 3)))
WYE_PATTERN = KernelPattern("Y", ((0, 0), (1, 1), (1, -1), (2, 0)))

PATTERNS = {p.name: p for p in (SQUARE_PATTERN, DIAGONAL_PATTERN, WYE_PATTERN)}


@dataclass(frozen=True)
class OrientationSet:
    """The quarter-turn rotations an ensemble runs (distinct, in 0..3)."""

    rotations: tuple = (0, 1, 2, 3)

    def __post_init__(self):
        rots = tuple(int(r) for r in self.rotations)
        object.__setattr__(self, "rotations", rots)
        if not rots:
            raise ValueError("orientation set cannot be empty")
        if len(set(rots)) != len(rots):
            raise ValueError("rotations must be distinct")
        if any(r < 0 or r > 3 for r in rots):
            raise ValueError("rotations must lie in 0..3")

    @property
    def k(self) -> int:
        return len(self.rotations)


def rotate_patch(image, anchor, pattern: KernelPattern, r: int) -> np.ndarray:
    """Pixel values at the anchor's offsets rotated by r quarter turns.

    Raises IndexError when any rotated offset leaves the image; callers
    are expected to pad first (negative indices never wrap).
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("expected a 2-D image")
    h, w = image.shape
    ar, ac = anchor
    out = np.empty(pattern.n, dtype=np.float64)
    for j, (dr, dc) in enumerate(pattern.rotated(r)):
        rr, cc = ar + dr, ac + dc
        if not (0 <= rr < h and 0 <= cc < w):
            raise IndexError(
                f"offset {(dr, dc)} at anchor {tuple(anchor)} leaves the image"
            )
        out[j] = image[rr, cc]
    return out


@functools.lru_cache(maxsize=None)
def block_permutation(m: int, r: int) -> np.ndarray:
    """Index map realizing :func:`unrotate_output` on flat m-vectors.

    Cached per (m, r), and read-only for that reason.
    """
    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"output count {m} is not a square (and not 1)")
    grid = np.arange(m).reshape(side, side)
    perm = np.rot90(grid, r % 4).ravel()
    perm.setflags(write=False)
    return perm


def unrotate_output(block, r: int) -> np.ndarray:
    """Map an output block predicted at rotation r back to the common frame.

    The flat m-vector is read as a sqrt(m) x sqrt(m) block in row-major
    order and rotated r quarter turns counter-clockwise, undoing the
    clockwise view the rotated sampling gave the table.  m == 1 is a
    no-op; other non-square m is rejected.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 1:
        raise ValueError("expected a flat output block")
    m = block.shape[0]
    if m == 1:
        return block.copy()
    return block[block_permutation(m, r)]


def oriented_predictions(image, anchor, pattern: KernelPattern, lut,
                         orientations: OrientationSet = OrientationSet()) -> np.ndarray:
    """Per-orientation output blocks at one anchor, shape (k, m).

    Reference implementation used for spot checks; the whole-image path
    in :mod:`lutpool.pipeline` computes the same values vectorized.
    """
    out = np.empty((orientations.k, lut.m), dtype=np.float64)
    for i, r in enumerate(orientations.rotations):
        patch = rotate_patch(image, anchor, pattern, r)
        out[i] = unrotate_output(query(lut, patch), r)
    return out
