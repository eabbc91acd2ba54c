"""Dense lattice lookup tables over the 8-bit pixel range.

A table maps an n-pixel input patch to m output values.  Inputs are
quantized on a lattice with cell width ``2**q``: each axis has
``2**(8-q) + 1`` lattice points so that the cell containing 255 can be
interpolated against a top lattice point nominally at 256.  Queries
blend the ``2**n`` surrounding corner entries multilinearly, reading the
entries in their stored dtype.

A query is a flat base row (the cell of its lower corner, flattened)
and its in-cell fractions, one array per axis: the rows of an (n, N)
array, or views of a band's fraction plane where they lie, never
restacked.  The corner fold gathers the ``2**n`` corner rows of a chunk
of queries into a (2**n, rows * m) accumulator and folds axis 0..n-1
with one lerp per axis, each over contiguous memory.
:func:`_decompose_arrays` alone decides whether queries are integral,
and marks them by float32 fractions; :func:`_fold_corners` alone
decides in which of three tiers each axis of their fold runs: the
leading axes that :func:`_uint16_axes` allows in exact uint16 integers
on 8-bit entries, before any corner widens to a float, then those up to
:func:`_float32_axes` in float32, the rest in float64.  It removes
their bias once from the blend.  Every tier gives the bits of an
all-float64 fold with the bias removed from every corner.

The gather comes in two kinds; the fold after it is shared.  A table's
``_cells`` is its cell table (:func:`_pack_cells`) or None.  Row r of a
cell table holds the ``2**n * m`` corner entries of cell r, so a query
is one row gather and base rows count the ``2**(8-q)`` cells per axis.
A quantized table builds it on its first query, at about 12.6x the
entries at q4 n4 (1 MiB for an 8-bit m = 1 table, 4 MiB at m = 4), and
keeps it only up to ``_CELL_TABLE_BYTES`` (8 MiB).  Larger quantized
tables and real tables, which training writes in place, gather their
``2**n`` corners from the lattice rows, whose base rows count the
``2**(8-q) + 1`` lattice points.

The stage pass and :func:`query_batch` read a table through
:func:`_read`, which acts on these choices in one place.  Training
writes table gradients from the same queries through its adjoint,
:func:`_scatter`, so the corner order, the row radix and the scratch
slots the two share are decided in this module alone.

Two in-memory forms exist:

* :class:`QuantizedLut` -- integer storage (unsigned, optionally biased
  for signed residual values), the deployable artifact, read-only.
  Queries gather the stored integers and remove the bias in the fold,
  so inference never materializes a float copy of the table.
* :class:`RealLut` -- float64 storage used while training or baking,
  and for coefficient tables that still hold raw logits.

The on-disk container is a fixed 32-byte little-endian header followed
by the raw entry payload; see :func:`serialize`.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"ALUT"
FORMAT_VERSION = 1
HEADER_SIZE = 32
FLAG_SIGNED = 0x0001
# Extension used for training checkpoints: payload holds raw floats
# (bit_depth selects float32/float64) instead of quantized integers.
FLAG_REAL = 0x0002

_HEADER_FMT = "<4sHHBBBBIIQI"

_UINT_DTYPES = {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4")}
_REAL_DTYPES = {32: np.dtype("<f4"), 64: np.dtype("<f8")}

# Values per pass of the corner fold (query rows * m) and of quantize:
# bounds the fold's accumulator to 2**n * _CHUNK_ROWS values and the
# temporaries of both, whatever the batch size, row width or table size.
_CHUNK_ROWS = 1 << 14
# Largest cell table a quantized table keeps resident (see _pack_cells);
# a q3 or q2 table with 4 inputs would pack into tens or hundreds of MB.
_CELL_TABLE_BYTES = 8 << 20
# Unsigned word that holds one whole table row of the given byte size.
_ROW_WORDS = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"),
              8: np.dtype("<u8")}


class LutFileError(Exception):
    """Base class for container parse failures."""


class BadMagicError(LutFileError):
    pass


class VersionMismatchError(LutFileError):
    pass


class TruncatedFileError(LutFileError):
    pass


class ChecksumError(LutFileError):
    pass


def lattice_size(q: int) -> int:
    """Lattice points per input axis for sampling exponent q."""
    _check_q(q)
    return 2 ** (8 - q) + 1


def storage_bytes(q: int, n: int, m: int, bit_depth: int = 8) -> int:
    """Bytes needed for the dense entry payload."""
    _check_geometry(q, n, m, bit_depth)
    return lattice_size(q) ** n * m * (bit_depth // 8)


def _check_q(q: int) -> None:
    if not 1 <= int(q) <= 7:
        raise ValueError(f"sampling exponent q must be in 1..7, got {q}")


def _check_geometry(q: int, n: int, m: int, bit_depth: int = 8) -> None:
    _check_q(q)
    if n < 1:
        raise ValueError(f"patch size n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"output count m must be >= 1, got {m}")
    if bit_depth % 8 != 0 or bit_depth <= 0:
        raise ValueError(f"bit depth must be a positive multiple of 8, got {bit_depth}")


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


def _decompose_arrays(values, q: int):
    """Split pixel values in [0, 255] into lattice cell indices and in-cell fractions.

    The cell width is ``2**q``; a value v maps to cell floor(v / 2**q)
    and fraction (v mod 2**q) / 2**q.  255 therefore falls in the top
    cell ``2**(8-q) - 1`` with fraction ``(2**q - 1) / 2**q``.  Cells
    come back as uint8 (at most 127), fractions as float32 (exact for
    integers) when every value is an integer, else float64.  Integer
    dtypes take ``v >> q`` and ``v & (2**q - 1)`` scaled by ``2**-q`` in
    float32, the same bits without the float64 temporaries.  Callers
    check the range: :func:`query_batch` here, the pipeline once per
    image and the training step once per batch.  Works on any shape:
    the pipeline decomposes a band's padded rows into two planes.
    """
    values = np.asarray(values)
    if values.dtype.kind in "ui":
        cells = np.empty(values.shape, np.uint8)
        np.right_shift(values, q, out=cells, casting="unsafe")
        frac = np.empty(values.shape, np.float32)
        np.bitwise_and(values, (1 << q) - 1, out=frac, casting="unsafe")
        frac *= np.float32(2.0 ** -q)
        return cells, frac
    integral = bool(np.all(values == np.floor(values)))
    # 2**q is a power of two, so the scaling below is exact in float64
    # and the fractions stay exact dyadic rationals.
    scaled = np.asarray(values, dtype=np.float64) / float(2 ** q)
    cells = np.floor(scaled)
    scaled -= cells
    return cells.astype(np.uint8), scaled.astype(np.float32 if integral else np.float64,
                                                 copy=False)


def _flat_rows(cells, lattice: int, dtype=np.int64) -> np.ndarray:
    """Flat base row sum_d lattice**(n-1-d) * cells[d] of each query, in ``dtype``.

    ``cells`` is a sequence of n equally shaped cell arrays (axis 0
    first); the sum is formed by Horner's rule, in place.  The caller
    picks a ``dtype`` that holds ``lattice**n - 1``.
    """
    rows = np.array(cells[0], dtype=dtype)
    for c in cells[1:]:
        rows *= lattice
        rows += c
    return rows


def _table_q(table: np.ndarray) -> int:
    """Sampling exponent q of an entry array, from its 2**(8-q) + 1 lattice points."""
    return 9 - (table.shape[0] - 1).bit_length()


def _float32_axes(table: np.ndarray, frac_dtype) -> int:
    """Leading axes of the corner fold that float32 holds exactly.

    Float32 fractions stand for integral queries, whose fractions are
    multiples of ``2**-q``; ``q`` follows from the lattice size
    ``table.shape[0]``.  Over unsigned entries of b bits, the lerp
    along axis d yields a multiple of ``2**-(q*(d+1))`` between 0 and
    ``2**b``, so axes 0..d fold exactly in float32 while
    ``b + q*(d+1) <= 24``.  The count includes the axes that fold first
    in uint16 (:func:`_uint16_axes`): their values reach the float axes
    scaled by a power of two, which keeps the bits each lerp needs.
    Zero for real tables and float64 fractions.
    """
    if np.dtype(frac_dtype) != np.float32 or table.dtype.kind != "u":
        return 0
    return min(table.ndim - 1, max(0, (24 - 8 * table.itemsize) // _table_q(table)))


def _uint16_axes(table: np.ndarray, frac_dtype) -> int:
    """Leading axes of the corner fold that uint16 integers hold exactly.

    As in :func:`_float32_axes`, float32 fractions stand for integral
    queries, so ``k = f * 2**q`` is an integer below ``2**q``.  Over
    8-bit entries the integer lerp along axis d, ``lo * (2**q - k) +
    hi * k``, is ``2**(q*(d+1))`` times the float lerp, an integer of at
    most ``255 * 2**(q*(d+1))``, so axes 0..d fold exactly in uint16
    while ``8 + q*(d+1) <= 16``: two axes at q4, one at q5 to q7.  Zero
    for 16-bit and real tables and for float64 fractions.
    """
    if np.dtype(frac_dtype) != np.float32 or table.dtype != np.uint8:
        return 0
    return min(table.ndim - 1, 8 // _table_q(table))


# Per-thread scratch arrays, reused across calls.  The corner fold owns
# the "fold_rows", "gather", "frac" and "rest" slots; _scatter, which
# never runs inside a fold, borrows the first three.  A slot is a string
# literal named in one module only, which a test checks.
_scratch = threading.local()


def _scratch_array(slot: str, dtype, shape) -> np.ndarray:
    """Scratch array of ``shape`` from this thread's reused buffer for ``slot``.

    One buffer per (slot, dtype), grown to the largest request and kept
    for the thread's life.  The array is overwritten by the next request
    for the same slot and dtype on this thread, so a caller must be done
    with it by then.
    """
    buffers = _scratch.__dict__.setdefault("buffers", {})
    size = math.prod(shape)
    key = (slot, np.dtype(dtype))
    buf = buffers.get(key)
    if buf is None or buf.size < size:
        buf = buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


@dataclass(frozen=True, eq=False)
class QuantizedLut:
    """Integer-valued dense table.

    ``entries`` has shape ``(L,) * n + (m,)`` with ``L = 2**(8-q) + 1``
    and an unsigned dtype matching ``bit_depth``.  When ``signed`` is
    set, stored values carry a ``2**(bit_depth-1)`` bias and dequantize
    to ``entry - bias`` (128 for 8-bit residual tables).  The table is
    frozen and ``entries`` read-only, never the caller's writeable array
    (that is copied), so the cell table cached from it cannot go stale.
    Tables compare and hash by identity.
    """

    q: int
    n: int
    m: int
    entries: np.ndarray
    bit_depth: int = 8
    signed: bool = False

    def __post_init__(self):
        _check_geometry(self.q, self.n, self.m, self.bit_depth)
        if self.bit_depth not in _UINT_DTYPES:
            raise ValueError(f"unsupported bit depth {self.bit_depth}")
        want = (lattice_size(self.q),) * self.n + (self.m,)
        entries = np.ascontiguousarray(self.entries)
        if entries.shape != want:
            raise ValueError(
                f"entries shape {entries.shape} does not match lattice {want}"
            )
        dt = _UINT_DTYPES[self.bit_depth]
        if entries.dtype != dt:
            if not np.issubdtype(entries.dtype, np.integer):
                raise ValueError("quantized entries must be integers")
            info = np.iinfo(dt)
            if entries.min() < info.min or entries.max() > info.max:
                raise ValueError("entries out of range for bit depth")
            entries = entries.astype(dt)
        if entries.flags.writeable and np.may_share_memory(entries, self.entries):
            entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @functools.cached_property
    def _cells(self) -> np.ndarray | None:
        """Cell table of the entries (:func:`_pack_cells`), built on first use.

        None when it would exceed ``_CELL_TABLE_BYTES``; queries then
        gather corners from the lattice rows.  Threads racing on the
        first query may each build it; the builds are equal.
        """
        size = 2 ** ((8 - self.q) * self.n) * self.entries.itemsize * self.m << self.n
        return _pack_cells(self.entries) if size <= _CELL_TABLE_BYTES else None

    @property
    def lattice_points(self) -> int:
        return lattice_size(self.q)

    @property
    def bias(self) -> int:
        return 2 ** (self.bit_depth - 1) if self.signed else 0


class CoeffLut(QuantizedLut):
    """Per-orientation fusion weights, one m == k vector per entry.

    The weights are unsigned: a biased entry would dequantize to a
    negative weight and put the normalized weights off the simplex.
    """

    def __post_init__(self):
        if self.signed:
            raise ValueError("a coefficient table holds unsigned weights")
        super().__post_init__()

    @property
    def k(self) -> int:
        return self.m


@dataclass(eq=False)
class RealLut:
    """Float64 table used during training / baking (and for raw logits).

    Compares and hashes by identity, like :class:`QuantizedLut`.
    """

    q: int
    n: int
    m: int
    entries: np.ndarray

    _cells = None       # no cell table: training writes the entries in place

    def __post_init__(self):
        _check_geometry(self.q, self.n, self.m)
        want = (lattice_size(self.q),) * self.n + (self.m,)
        self.entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if self.entries.shape != want:
            raise ValueError(
                f"entries shape {self.entries.shape} does not match lattice {want}"
            )

    @property
    def lattice_points(self) -> int:
        return lattice_size(self.q)

    @property
    def bias(self) -> float:
        """Float entries are stored unbiased."""
        return 0.0

    def copy(self) -> "RealLut":
        return RealLut(self.q, self.n, self.m, self.entries.copy())


def real_table(lut) -> np.ndarray:
    """Float64 entry array of either table form, bias removed."""
    if isinstance(lut, RealLut):
        return lut.entries
    if isinstance(lut, QuantizedLut):
        table = lut.entries.astype(np.float64)
        if lut.signed:
            table -= float(lut.bias)
        return table
    raise TypeError(f"not a lookup table: {type(lut).__name__}")


@functools.lru_cache(maxsize=None)
def _corner_offsets(n: int, lattice: int) -> np.ndarray:
    """Flat-row offset of each of the 2**n corners from the base corner.

    Corner c takes the upper neighbour along axis d when bit ``n-1-d``
    of c is set, so axis 0 is the most significant bit.  Cached per
    geometry, and read-only for that reason.
    """
    strides = lattice ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    offsets = bits @ strides
    offsets.setflags(write=False)
    return offsets


def _pack_cells(entries: np.ndarray) -> np.ndarray:
    """Cell table of an entry array: row r holds the 2**n corners of cell r.

    Cells are flattened like lattice points, over the ``L - 1`` cells
    per axis; each row lists its cell's corners in
    :func:`corner_weights`' order, m entries each, in the stored dtype:
    shape ``((L-1)**n, 2**n * m)``, read-only.  It is built axis by
    axis, each axis stacking the lower and the upper neighbour of every
    cell as a new corner axis (two strided slice copies), with whole
    m-entry rows moved as machine words where a row fits one.
    """
    n = entries.ndim - 1
    cells = entries.shape[0] - 1
    m = entries.shape[-1]
    word = _ROW_WORDS.get(m * entries.itemsize)
    packed = entries if word is None else entries.view(word)
    for d in range(n):
        # (C,)*d + (L,)*(n-d) + (2,)*d + (u,) -> axis d to cells, one more corner axis
        lower = packed[(slice(None),) * d + (slice(0, cells),)]
        upper = packed[(slice(None),) * d + (slice(1, cells + 1),)]
        packed = np.stack([lower, upper], axis=-2)
    packed = packed.view(entries.dtype).reshape(cells ** n, (1 << n) * m)
    packed.setflags(write=False)
    return packed


def corner_weights(rows: np.ndarray, frac: np.ndarray, lattice: int, out):
    """Flat corner indices and multilinear weights for a batch of queries.

    rows: (N,) flat base rows; frac: (n, N) axis-major fractions.
    Fills and returns ``out``, a C-contiguous (idx, w) pair, both
    corner-major of shape (2**n, N); idx indexes the table flattened to
    (lattice**n, m) rows.  Corner c takes the upper neighbour along axis
    d when bit ``n-1-d`` of c is set.  Each weight is the product
    ``1.0 * f_0 * ... * f_{n-1}`` taken in axis order, with f_d the
    fraction or its complement.  No table read needs the weights (the
    corner fold lerps the corners directly); its adjoint :func:`_scatter`
    does, to scatter output gradients back onto the corner entries.
    """
    n, npts = frac.shape
    idx, w = out
    if not w.flags.c_contiguous:
        raise ValueError("corner weights must be written to a C-contiguous array")
    np.add(_corner_offsets(n, lattice)[:, None], rows, out=idx)
    # View the corners as an n-dimensional bit grid.  Before axis d the
    # corners whose bits d..n-1 are all zero hold the partial product of
    # axes 0..d-1; axis d splits each of them into its lo and hi corner.
    grid = w.reshape((2,) * n + (npts,))
    grid[(0,) * n] = 1.0
    for d in range(n):
        rest = (0,) * (n - 1 - d)
        lo = grid[(slice(None),) * d + (0,) + rest]
        hi = grid[(slice(None),) * d + (1,) + rest]
        np.multiply(lo, frac[d], out=hi)
        lo *= 1.0 - frac[d]
    return idx, w


def _repeat_cols(cols: np.ndarray) -> np.ndarray:
    """Copy column 0 of a C-contiguous (..., m) array into its other columns; the array flat.

    One strided copy per column over the whole array: writing all m
    columns from a query-shaped view runs short, buffered inner loops.
    """
    flat = cols.reshape(-1, cols.shape[-1])
    for j in range(1, flat.shape[1]):
        flat[:, j] = flat[:, 0]
    return cols.reshape(-1)


def _fold_uint16(halves: list, frac, q: int, m: int) -> np.ndarray:
    """Fold the leading axes of a chunk's 8-bit corners in exact uint16 integers.

    ``halves`` is a list of the chunk's uint8 corners as
    :func:`_fold_corners` lays them out, cut along fold axis 0: the
    lower and the upper half, each (2**(n-1), rows * m), never written.
    The list is emptied, so the lower half is freed as soon as its
    product exists when the list held the only reference, and the upper
    half once it is added.  ``frac`` holds the float32 fractions of the
    first a axes, a equally shaped arrays of the chunk's rows queries,
    with a at most :func:`_uint16_axes`.  Each lerp is ``lo * (2**q - k)
    + hi * k`` with ``k = f * 2**q``: 2**q times the float lerp.  An
    axis' k codes are made as its lerp is reached, by one multiply into
    column 0 of a (rows, m) array that is then copied into the other
    columns.  The first lerp widens as it multiplies, the lower half at
    once and the upper half through a buffer of half its corners, so the
    two widened halves are never held together.  Returns (2**(n-a),
    rows * m) uint16, 2**(q*a) times the corners folded over axes
    0..a-1.
    """
    one = 1 << q
    acc = None
    for f in frac:
        k = np.empty(f.shape + (m,), np.uint16)
        np.multiply(f, one, out=k[..., 0], casting="unsafe")
        k = _repeat_cols(k)
        if acc is None:
            upper = halves.pop()
            acc = np.multiply(halves.pop(), one - k, dtype=np.uint16)
            half = len(upper)
            part = -(-half // 2)
            buf = np.empty((part, upper.shape[1]), np.uint16)
            for s in range(0, half, part):
                piece = buf[:min(part, half - s)]
                np.multiply(upper[s:s + len(piece)], k, out=piece, dtype=np.uint16)
                acc[s:s + len(piece)] += piece
            del buf, piece, upper
        else:
            half = len(acc) // 2
            lo, hi = acc[:half], acc[half:]
            lo *= one - k
            hi *= k
            lo += hi
            acc = lo
    return acc


def _fraction_chunks(frac, count: int, step: int):
    """Yield (start, stop, fractions) for the fold chunks of ``step`` queries.

    ``frac`` is a sequence of n equally shaped fraction arrays of
    ``count`` queries in C order.  A read of one chunk takes them whole.
    Otherwise each is seen as rows of its last axis (a view where the
    layout gives one, such as a band's fraction plane; a flat copy
    otherwise, such as a stack of more than one padded image), and a
    chunk within one row, or of whole rows, is a view of them; any other
    chunk copies the rows it touches.
    """
    if count <= step:
        if count:
            yield 0, count, frac
        return
    width = frac[0].shape[-1]
    grid = [f.reshape(-1, width) for f in frac]
    for start in range(0, count, step):
        stop = min(start + step, count)
        r0, r1 = start // width, -(-stop // width)
        at = slice(start - r0 * width, stop - r0 * width)
        if r1 - r0 == 1:
            yield start, stop, [g[r0, at] for g in grid]
        elif at.start == 0 and stop % width == 0:
            yield start, stop, [g[r0:r1] for g in grid]
        else:
            yield start, stop, [g[r0:r1].reshape(-1)[at] for g in grid]


def _fold_corners(table: np.ndarray, rows: np.ndarray, frac,
                  bias: float = 0.0, cells: np.ndarray | None = None) -> np.ndarray:
    """Multilinear blend of the 2**n corner entries of each query, (N, m) float64.

    ``table`` is an entry array, shape ``(L,) * n + (m,)``, read in its
    stored dtype and never modified; ``bias`` is subtracted from the
    blend.  rows: (N,) flat base rows; frac: the fractions axis by axis,
    any sequence of n equally shaped arrays of N queries in C order (an
    (n, N) array, or a query's views into a band's fraction plane), read
    where they lie.  Float32 fractions mark integral queries (see
    :func:`_decompose_arrays`).  ``cells`` passes the table's cell table
    (:func:`_pack_cells`); ``rows`` then count its ``L - 1`` cells per
    axis, otherwise the ``L`` lattice points.

    Rows are processed in chunks of ``_CHUNK_ROWS // m`` queries, whose
    fractions :func:`_fraction_chunks` cuts from ``frac``: a one-chunk
    read, as every stage-table read of a band is, takes the arrays
    whole, and a longer one views whole rows or parts of one row where
    the chunks align with them.  Per chunk the corner rows are gathered
    corner-major in :func:`corner_weights`' corner order: from a cell
    table as one row gather per query, turned corner-major by contiguous
    copies (one machine word per corner row where a row fits one); from
    the lattice as one ``np.take`` of the 2**n corner rows of every
    query, a machine word per row where it fits, into scratch with
    ``mode="clip"`` (the default mode buffers its output), after a check
    that raises ``IndexError`` for a corner outside the table.  A fold
    with uint16 axes takes the lower and the upper half along axis 0 as
    two arrays, one copy each from a cell table, and frees the lower
    half as soon as its product exists, so a chunk never holds all 2**n
    uint8 corners beside the uint16 product; any other fold takes all
    2**n corners as one.

    Everything after the gather is shared, a (2**n, rows * m)
    accumulator folded axis 0..n-1 by one lerp per axis over its two
    contiguous halves, in three tiers.  The leading axes that
    :func:`_uint16_axes` proves exact fold first, in uint16, on integer
    k codes made per chunk and axis (:func:`_fold_uint16`); the uint8
    corners and the k codes are gone before the rest widens.  The rest
    is widened, unless float64, and each lerp scales its upper half by
    the axis' fractions: the axes up to :func:`_float32_axes` in
    float32, the half-folded rest in float64.  At m = 1, where the
    fractions already have the accumulator's dtype, the upper half is
    seen in the query's shape and scaled by the fractions as they lie;
    otherwise they are first repeated for the m entries of each row into
    contiguous scratch, one column written from the fractions and
    copied into the others (with no float32 axis, float32 fractions
    widen as they are written).  The integer axes leave the blend scaled
    by 2**(q*a), exactly, so it is scaled back once.  Integral queries
    on unsigned entries with ``b + q*n <= 53`` are exact throughout, so
    their bias is subtracted once from the blend; otherwise it is
    subtracted from every widened corner (times 2**(q*a) after a integer
    axes).  The repeated fractions and the float64 rest live in
    per-thread scratch reused across calls.
    """
    n, count = len(frac), len(rows)
    m = table.shape[-1]
    word = _ROW_WORDS.get(m * table.itemsize)
    if cells is None:
        offsets = _corner_offsets(n, table.shape[0])[:, None]
        flat = np.ascontiguousarray(table).reshape(-1, m)
        if count and (rows.min() < 0 or rows.max() + offsets[-1, 0] >= len(flat)):
            raise IndexError(f"corner row outside a table of {len(flat)} rows")
        if word is not None:
            flat = flat.view(word)      # one machine word per table row
    q = _table_q(table)
    ints = _uint16_axes(table, frac[0].dtype)
    narrow = _float32_axes(table, frac[0].dtype)
    # corner ranges of the gathered chunk: a uint16 fold takes its lower
    # and upper half along axis 0 apart, every other fold all 2**n corners
    mid = 1 << (n - 1)
    cuts = ((0, mid), (mid, 2 * mid)) if ints else ((0, 2 * mid),)
    corner_bias, blend_bias = bias, 0.0
    if bias and narrow and 8 * table.itemsize + q * n <= 53:
        # integral queries on b-bit unsigned entries: every lerp is exact
        # in float64 too, so the bias may leave the blend instead of each
        # corner (always so when every axis is an integer axis, q*n <= 8)
        corner_bias, blend_bias = 0.0, bias
    out = np.empty((count, m), dtype=np.float64)
    for start, stop, f in _fraction_chunks(frac, count, max(1, _CHUNK_ROWS // m)):
        if cells is not None:
            acc = np.take(cells, rows[start:stop], axis=0)
            acc = (acc.reshape(stop - start, 1 << n, m) if word is None
                   else acc.view(word))
            # corner-major, for a uint16 fold as its two halves apart
            acc = [np.ascontiguousarray(acc[:, c0:c1].swapaxes(0, 1))
                   .view(table.dtype).reshape(c1 - c0, -1) for c0, c1 in cuts]
        else:
            # np.take moves whole rows; fancy indexing is about 6x slower
            # on 2**16 rows
            idx = _scratch_array("fold_rows", np.int64, (1 << n, stop - start))
            np.add(offsets, rows[start:stop], out=idx)
            acc = _scratch_array("gather", flat.dtype, idx.shape + flat.shape[1:])
            np.take(flat, idx, axis=0, out=acc, mode="clip")
            acc = acc.view(table.dtype).reshape(1 << n, -1)
            acc = [acc[c0:c1] for c0, c1 in cuts]
        if ints:
            acc = _fold_uint16(acc, f[:ints], q, m)
            f = f[ints:]
        else:
            acc = acc[0]
        acc = acc.astype(np.float32 if narrow > ints else np.float64, copy=False)
        if corner_bias:
            acc -= corner_bias * 2.0 ** (q * ints)
        if len(f) and (m > 1 or f[0].dtype != acc.dtype):
            # each fraction repeated for the m entries of its row, in the
            # accumulator's dtype: one column from the fractions, copied on
            fm = _scratch_array("frac", acc.dtype, (len(f), stop - start, m))
            for fd, cols in zip(f, fm):
                cols.reshape(fd.shape + (m,))[..., 0] = fd
            f = _repeat_cols(fm).reshape(len(f), -1)
        for d in range(ints, n):
            if d == narrow > ints:
                # the rest of the fold no longer fits float32: widen it
                rest = _scratch_array("rest", np.float64, acc.shape)
                rest[...] = acc
                acc = rest
            half = acc.shape[0] // 2
            lo, hi = acc[:half], acc[half:]
            hi -= lo
            # an m = 1 fold scales the corners by the fractions as they lie
            fd = f[d - ints]
            hi = hi.reshape((half,) + fd.shape)
            hi *= fd
            lo += hi.reshape(lo.shape)
            acc = lo
        blend = acc[0].reshape(stop - start, m)
        if ints:
            blend *= 2.0 ** (-q * ints)
        if blend_bias:
            np.subtract(blend, blend_bias, out=out[start:stop])
        else:
            out[start:stop] = blend
    return out


def _scatter(grad: np.ndarray, queries, cols: np.ndarray) -> None:
    """Adjoint of :func:`_read`: write a table's gradient ``grad`` from output gradients.

    ``queries`` holds the table's (cells, fracs) queries of N anchors as
    :func:`_read` takes them, and ``cols`` (m, len(queries), N) their
    outputs' gradients, one array per table output column.  Each query's
    lattice base rows and float64 fractions give its corner indices and
    weights, (2**n, N), through :func:`corner_weights`; one
    ``np.bincount`` per output column then sums weight * gradient over
    the (query, corner, row) sequence.  It adds from 0.0 in input
    order, as per-corner ``np.add.at`` calls add onto a zeroed gradient,
    so the sums round identically; a sum from +0.0 is never -0.0, so
    assigning it equals adding it onto zeros.  Every entry of ``grad`` is
    overwritten, rows no query read with 0.0.

    The corner indices, weights, products and each query's fractions
    borrow the corner fold's scratch slots, so a call allocates only a
    query's base rows and bincount's table-length result per column.
    """
    flat_grad = grad.reshape(-1, grad.shape[-1])
    lattice, n = grad.shape[0], grad.ndim - 1
    shape = (len(queries), 1 << n, cols.shape[-1])
    idx = _scratch_array("fold_rows", np.int64, shape)
    wts = _scratch_array("gather", np.float64, shape)
    for (cells, fracs), out in zip(queries, zip(idx, wts)):
        # each query's float64 fractions in the products' slot, not yet in use
        frac = _scratch_array("frac", np.float64, (n,) + fracs[0].shape)
        for d, f in enumerate(fracs):
            frac[d] = f
        corner_weights(_flat_rows(cells, lattice).reshape(-1), frac.reshape(n, -1),
                       lattice, out)
    vals = _scratch_array("frac", np.float64, shape)
    for j, col in enumerate(cols):
        np.multiply(wts, col[..., None, :], out=vals)
        flat_grad[:, j] = np.bincount(idx.ravel(), vals.ravel(), minlength=len(flat_grad))


def interpolate(table: np.ndarray, base: np.ndarray, frac: np.ndarray,
                bias: float = 0.0) -> np.ndarray:
    """Multilinear blend of the 2**n corner entries for each query row.

    ``table`` is a table's entry array, shape ``(L,) * n + (m,)``, read
    in its stored dtype (the uint8/uint16 entries of a quantized table,
    float64 for a real one) and never modified; ``bias`` is subtracted
    from every gathered entry.  base/frac: (N, n) lattice cells and
    fractions from :func:`_decompose_arrays`; callers check that the
    decomposed values lay in [0, 255].  Returns (N, m) float64.

    The query is handed to the corner fold as flat base rows and
    axis-major fractions, accumulated in float64 throughout.  With
    integer entries and 8-bit inputs every fraction is a multiple of
    2**-q and every intermediate is exact in float64, so the result
    equals the weight-product sum bit for bit.
    """
    frac = np.asarray(frac, dtype=np.float64)
    return _fold_corners(table, _flat_rows(np.asarray(base).T, table.shape[0]),
                         np.ascontiguousarray(frac.T), bias)


def _read(lut, query) -> np.ndarray:
    """Outputs (N, m) float64 of ``lut`` at N queries given axis by axis.

    ``query`` is a (cells, fracs) pair, each holding one equally shaped
    array of N uint8 lattice cells or in-cell fractions per table input
    axis: shifted views of a stage's planes, or the rows of a decomposed
    patch batch.

    The corner fold (:func:`_fold_corners`) reads the stored entries and
    removes the bias; it takes ``fracs`` as they are, so a stage's views
    are never stacked into an (n, N) copy.  Base rows count the cells of
    the table's own cell table (its ``_cells``) where it keeps one,
    lattice points otherwise, and are int32 where every row fits, which
    halves the row build's traffic.
    """
    cells, fracs = query
    packed = lut._cells
    radix = lut.lattice_points - (packed is not None)
    rows = _flat_rows(cells, radix, np.int32 if radix ** len(cells) < 2 ** 31 else np.int64)
    return _fold_corners(lut.entries, rows.reshape(-1), fracs, lut.bias, packed)


def _check_pixels(values, what: str) -> None:
    """Raise ValueError unless ``values`` are real numbers in [0, 255].

    Only unsigned, signed and floating dtypes pass: complex, boolean,
    string and object arrays are rejected rather than converted.  NaN
    fails the range check, for which every comparison is false.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "uif":
        raise ValueError(f"{what} pixels must be real numbers, not {a.dtype}")
    if a.size and not (a.min() >= 0 and a.max() <= 255):
        raise ValueError(f"{what} pixels must be finite and lie in [0, 255]")


def query(lut, patch) -> np.ndarray:
    """Interpolated m-vector for one n-pixel patch (values in [0, 255])."""
    patch = np.asarray(patch)
    if patch.shape != (lut.n,):
        raise ValueError(f"patch must have shape ({lut.n},), got {patch.shape}")
    return query_batch(lut, patch[None, :])[0]


def query_batch(lut, patches) -> np.ndarray:
    """Interpolated outputs (N, m) for a (N, n) batch of patches.

    Patches are checked here (:func:`_check_pixels`), decomposed and
    read through :func:`_read`.
    """
    patches = np.asarray(patches)
    if patches.ndim != 2 or patches.shape[1] != lut.n:
        raise ValueError(f"patch batch must have shape (N, {lut.n})")
    _check_pixels(patches, "patch")
    return _read(lut, _decompose_arrays(np.ascontiguousarray(patches.T), lut.q))


_BAKE_POINTS = 4096   # lattice points per oracle call of bake_real


def bake_real(oracle, q: int, n: int, m: int) -> RealLut:
    """Evaluate ``oracle`` on every lattice point into a float table.

    ``oracle(points)`` receives a (P, n) array of pixel values and must
    return (P, m) outputs.  Lattice point i sits at ``i * 2**q``, the top
    one at 256.  Failures are re-raised with the offending lattice
    coordinate attached; non-finite outputs are rejected.
    """
    _check_geometry(q, n, m)
    lattice = lattice_size(q)
    # per axis, the uint8 lattice index of every point in C order; each
    # block scales its slice to pixel values, so no float array of every
    # lattice point is made
    cells = [g.reshape(-1) for g in
             np.meshgrid(*([np.arange(lattice, dtype=np.uint8)] * n), indexing="ij")]
    total = cells[0].size
    out = np.empty((total, m), dtype=np.float64)
    for start in range(0, total, _BAKE_POINTS):
        block = np.stack([c[start:start + _BAKE_POINTS] for c in cells],
                         axis=-1) * float(2 ** q)
        try:
            vals = np.asarray(oracle(block), dtype=np.float64)
        except Exception as exc:
            coord = np.unravel_index(start, (lattice,) * n)
            raise RuntimeError(
                f"oracle failed on lattice block starting at {coord}"
            ) from exc
        if vals.shape != (block.shape[0], m):
            raise ValueError(
                f"oracle returned shape {vals.shape}, expected {(block.shape[0], m)}"
            )
        bad = ~np.isfinite(vals)
        if bad.any():
            where = start + int(np.argwhere(bad.any(axis=1))[0, 0])
            coord = np.unravel_index(where, (lattice,) * n)
            raise ValueError(f"oracle produced non-finite value at lattice point {coord}")
        out[start:start + _BAKE_POINTS] = vals
    return RealLut(q, n, m, out.reshape((lattice,) * n + (m,)))


@dataclass
class QuantizeReport:
    max_error: float
    clipped: int


def quantize(real: RealLut, bit_depth: int = 8, signed: bool = False):
    """Round a real table into integer storage.

    Returns ``(lut, report)``; the report carries the largest absolute
    rounding error among unclipped entries and the count of values that
    fell outside the representable range and were clamped.  Entries are
    rounded in chunks of ``_CHUNK_ROWS``, so the float temporaries stay
    small whatever the table size.
    """
    if bit_depth not in _UINT_DTYPES:
        raise ValueError(f"unsupported bit depth {bit_depth}")
    bias = 2 ** (bit_depth - 1) if signed else 0
    top = 2 ** bit_depth - 1
    entries = real.entries.reshape(-1)
    stored = np.empty(entries.shape, _UINT_DTYPES[bit_depth])
    clipped, max_err = 0, float("-inf")
    for start in range(0, entries.size, _CHUNK_ROWS):
        part = entries[start:start + _CHUNK_ROWS]
        raw = round_half_away(part) + bias
        clipped += int(np.count_nonzero((raw < 0) | (raw > top)))
        unclipped = (raw >= 0) & (raw <= top)
        out = stored[start:start + _CHUNK_ROWS]
        out[...] = np.clip(raw, 0, top, out=raw)
        if unclipped.any():
            back = out.astype(np.float64) - bias
            max_err = max(max_err, float(np.max(np.abs(back - part)[unclipped])))
    if max_err < 0.0:
        max_err = float("inf")          # every entry was clipped
    stored = stored.reshape(real.entries.shape)
    stored.setflags(write=False)       # handed to the table without a copy
    lut = QuantizedLut(real.q, real.n, real.m, stored, bit_depth=bit_depth, signed=signed)
    return lut, QuantizeReport(max_err, clipped)


def bake(oracle, q: int, n: int, m: int, bit_depth: int = 8,
         signed: bool = False) -> QuantizedLut:
    """Bake ``oracle`` straight into a quantized table."""
    lut, _ = quantize(bake_real(oracle, q, n, m), bit_depth, signed)
    return lut


def dequantize(lut: QuantizedLut) -> RealLut:
    return RealLut(lut.q, lut.n, lut.m, real_table(lut))


@dataclass
class LutHeader:
    flags: int
    q: int
    n: int
    bit_depth: int
    m: int
    k: int
    entry_count: int
    crc: int

    @property
    def signed(self) -> bool:
        return bool(self.flags & FLAG_SIGNED)

    @property
    def real_valued(self) -> bool:
        return bool(self.flags & FLAG_REAL)


def _pack_container(entries: np.ndarray, q: int, n: int, m: int, k: int,
                    flags: int, bit_depth: int) -> bytes:
    payload = np.ascontiguousarray(entries).tobytes()
    header = struct.pack(
        _HEADER_FMT, MAGIC, FORMAT_VERSION, flags, q, n, bit_depth, 0,
        m, k, entries.size, zlib.crc32(payload) & 0xFFFFFFFF,
    )
    assert len(header) == HEADER_SIZE
    return header + payload


def parse_header(data: bytes) -> LutHeader:
    if len(data) < HEADER_SIZE:
        raise TruncatedFileError(
            f"container needs a {HEADER_SIZE}-byte header, got {len(data)} bytes"
        )
    magic, version, flags, q, n, bit_depth, _reserved, m, k, count, crc = \
        struct.unpack(_HEADER_FMT, data[:HEADER_SIZE])
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    return LutHeader(flags, q, n, bit_depth, m, k, count, crc)


def _entry_dtype(header: LutHeader) -> np.dtype:
    """Payload dtype of a header whose geometry and bit depth are possible."""
    try:
        _check_geometry(header.q, header.n, header.m, header.bit_depth)
    except ValueError as exc:
        raise LutFileError(f"bad header geometry: {exc}") from exc
    dtypes = _REAL_DTYPES if header.real_valued else _UINT_DTYPES
    if header.bit_depth not in dtypes:
        raise LutFileError(f"unsupported bit depth {header.bit_depth} in header")
    return dtypes[header.bit_depth]


def _unpack_container(data: bytes):
    header = parse_header(data)
    dt = _entry_dtype(header)
    need = header.entry_count * dt.itemsize
    payload = data[HEADER_SIZE:]
    if len(payload) < need:
        raise TruncatedFileError(
            f"payload holds {len(payload)} bytes, header promises {need}"
        )
    payload = payload[:need]
    if zlib.crc32(payload) & 0xFFFFFFFF != header.crc:
        raise ChecksumError("payload CRC32 does not match header")
    # read-only over immutable bytes: a quantized table keeps it uncopied
    entries = np.frombuffer(payload, dtype=dt)
    lattice = lattice_size(header.q)
    want = lattice ** header.n * header.m
    if header.entry_count != want:
        raise LutFileError(
            f"entry count {header.entry_count} does not match lattice "
            f"({lattice}**{header.n} * {header.m} = {want})"
        )
    shape = (lattice,) * header.n + (header.m,)
    return header, entries.reshape(shape)


def serialize(lut) -> bytes:
    """Container bytes for a quantized table (or raw logits, flagged real)."""
    if isinstance(lut, QuantizedLut):
        k = lut.m if isinstance(lut, CoeffLut) else 0
        return _pack_container(lut.entries, lut.q, lut.n, lut.m, k,
                               FLAG_SIGNED if lut.signed else 0, lut.bit_depth)
    if isinstance(lut, RealLut):
        entries = lut.entries.astype("<f8")
        return _pack_container(entries, lut.q, lut.n, lut.m, 0, FLAG_REAL, 64)
    raise TypeError(f"cannot serialize {type(lut).__name__}")


def deserialize(data: bytes):
    """Rebuild a table from container bytes.

    Quantized payloads come back as :class:`QuantizedLut` (or
    :class:`CoeffLut` when the header's k field is set; a signed one
    raises :class:`LutFileError`); real payloads come back as
    :class:`RealLut`.
    """
    header, entries = _unpack_container(data)
    if header.real_valued:
        return RealLut(header.q, header.n, header.m, entries.astype(np.float64))
    if header.k:
        if header.k != header.m:
            raise LutFileError(
                f"coefficient table has m={header.m} but k={header.k}"
            )
        if header.signed:
            raise LutFileError("coefficient table is flagged signed")
        return CoeffLut(header.q, header.n, header.m, entries, bit_depth=header.bit_depth)
    return QuantizedLut(header.q, header.n, header.m, entries,
                        bit_depth=header.bit_depth, signed=header.signed)


def save_lut(lut, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(lut))


def load_lut(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def inspect_file(path) -> LutHeader:
    """Parse and check just the header; the payload is not read.

    Raises :class:`LutFileError` for a header whose geometry or bit
    depth no table can have, as loading the file would.
    """
    with open(path, "rb") as fh:
        header = parse_header(fh.read(HEADER_SIZE))
    _entry_dtype(header)
    return header
