"""Dense lattice lookup tables over the 8-bit pixel range.

A table maps an n-pixel input patch to m output values.  Inputs are
quantized on a lattice with cell width ``2**q``: each axis has
``2**(8-q) + 1`` lattice points so that the cell containing 255 can be
interpolated against a top lattice point nominally at 256.  Queries
blend the ``2**n`` surrounding corner entries multilinearly, reading the
entries in their stored dtype (see :func:`interpolate`).

Two in-memory forms exist:

* :class:`QuantizedLut` -- integer storage (unsigned, optionally biased
  for signed residual values), the deployable artifact.  Queries gather
  the stored integers and remove the bias after the gather, so inference
  never materializes a float copy of the table.
* :class:`RealLut` -- float64 storage used while training or baking,
  and for coefficient tables that still hold raw logits.

The on-disk container is a fixed 32-byte little-endian header followed
by the raw entry payload; see :func:`serialize`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

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

# Query rows per interpolate() pass: bounds its working set to
# 2**n * m float64 values per row whatever the batch size.
_CHUNK_ROWS = 1 << 14
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


@dataclass
class LatticeQuery:
    """Decomposed patch: per-axis cell index plus fractional position."""

    base_index: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        self.base_index = np.asarray(self.base_index, dtype=np.int64)
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        if self.base_index.shape != self.fractions.shape:
            raise ValueError("base_index and fractions must have matching shapes")
        if np.any(self.fractions < 0.0) or np.any(self.fractions >= 1.0):
            raise ValueError("fractions must lie in [0, 1)")


def decompose(values, q: int) -> LatticeQuery:
    """Split pixel values into lattice cell indices and in-cell fractions.

    ``values`` may be any array shape; entries must lie in [0, 255].
    The cell width is ``2**q``; a value v maps to base floor(v / 2**q)
    and fraction (v mod 2**q) / 2**q.  255 therefore falls in the top
    cell with base ``2**(8-q) - 1`` and fraction ``(2**q - 1) / 2**q``.
    """
    base, frac = _decompose_arrays(values, q)
    return LatticeQuery(base, frac)


def _decompose_arrays(values, q: int):
    _check_q(q)
    v = np.asarray(values, dtype=np.float64)
    # written so that NaN (for which every comparison is false) fails too
    if v.size and not (v.min() >= 0.0 and v.max() <= 255.0):
        raise ValueError("patch values must lie in [0, 255]")
    # 2**q is a power of two, so the scaling below is exact in float64
    # and the fractions stay exact dyadic rationals.
    scaled = v / float(2 ** q)
    base = np.floor(scaled)
    frac = scaled - base
    return base.astype(np.int64), frac


@dataclass
class QuantizedLut:
    """Integer-valued dense table.

    ``entries`` has shape ``(L,) * n + (m,)`` with ``L = 2**(8-q) + 1``
    and an unsigned dtype matching ``bit_depth``.  When ``signed`` is
    set, stored values carry a ``2**(bit_depth-1)`` bias and dequantize
    to ``entry - bias`` (128 for 8-bit residual tables).
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
        self.entries = np.ascontiguousarray(self.entries)
        if self.entries.shape != want:
            raise ValueError(
                f"entries shape {self.entries.shape} does not match lattice {want}"
            )
        dt = _UINT_DTYPES[self.bit_depth]
        if self.entries.dtype != dt:
            if not np.issubdtype(self.entries.dtype, np.integer):
                raise ValueError("quantized entries must be integers")
            info = np.iinfo(dt)
            if self.entries.min() < info.min or self.entries.max() > info.max:
                raise ValueError("entries out of range for bit depth")
            self.entries = self.entries.astype(dt)

    @property
    def lattice_points(self) -> int:
        return lattice_size(self.q)

    @property
    def bias(self) -> int:
        return 2 ** (self.bit_depth - 1) if self.signed else 0

    def payload_bytes(self) -> int:
        return storage_bytes(self.q, self.n, self.m, self.bit_depth)

    def as_real(self) -> "RealLut":
        return dequantize(self)


class CoeffLut(QuantizedLut):
    """Per-orientation fusion weights, one m == k vector per entry."""

    @property
    def k(self) -> int:
        return self.m


@dataclass
class RealLut:
    """Float64 table used during training / baking (and for raw logits)."""

    q: int
    n: int
    m: int
    entries: np.ndarray

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


def _corner_offsets(n: int, lattice: int) -> np.ndarray:
    """Flat-row offset of each of the 2**n corners from the base corner.

    Corner c takes the upper neighbour along axis d when bit ``n-1-d``
    of c is set, so axis 0 is the most significant bit.
    """
    strides = lattice ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits @ strides


def corner_weights(base: np.ndarray, frac: np.ndarray, lattice: int, out=None):
    """Flat corner indices and multilinear weights for a batch of queries.

    base/frac: (N, n).  Returns (idx, w), both corner-major of shape
    (2**n, N); idx indexes the table flattened to (lattice**n, m) rows.
    Corner c takes the upper neighbour along axis d when bit ``n-1-d``
    of c is set.  Each weight is the product ``1.0 * f_0 * ... * f_{n-1}``
    taken in axis order, with f_d the fraction or its complement.
    ``out`` may pass a preallocated C-contiguous (idx, w) pair of that
    shape to fill.  Inference does not need the weights
    (:func:`interpolate` folds the corners directly); training does, to
    scatter output gradients back onto the corner entries.
    """
    npts, n = base.shape
    if out is None:
        out = (np.empty((1 << n, npts), dtype=np.int64),
               np.empty((1 << n, npts), dtype=np.float64))
    idx, w = out
    if not w.flags.c_contiguous:
        raise ValueError("corner weights must be written to a C-contiguous array")
    strides = lattice ** np.arange(n - 1, -1, -1, dtype=np.int64)
    np.add(_corner_offsets(n, lattice)[:, None], base @ strides, out=idx)
    # View the corners as an n-dimensional bit grid.  Before axis d the
    # corners whose bits d..n-1 are all zero hold the partial product of
    # axes 0..d-1; axis d splits each of them into its lo and hi corner.
    grid = w.reshape((2,) * n + (npts,))
    grid[(0,) * n] = 1.0
    for d in range(n):
        rest = (0,) * (n - 1 - d)
        lo = grid[(slice(None),) * d + (0,) + rest]
        hi = grid[(slice(None),) * d + (1,) + rest]
        np.multiply(lo, frac[:, d], out=hi)
        lo *= 1.0 - frac[:, d]
    return idx, w


def interpolate(table: np.ndarray, base: np.ndarray, frac: np.ndarray,
                bias: float = 0.0) -> np.ndarray:
    """Multilinear blend of the 2**n corner entries for each query row.

    ``table`` is a table's entry array, shape ``(L,) * n + (m,)``, read
    in its stored dtype (the uint8/uint16 entries of a quantized table,
    float64 for a real one) and never modified; ``bias`` is subtracted
    from every gathered entry.  base/frac: (N, n) from the lattice
    decomposition.  Returns (N, m) float64.

    Rows are processed in chunks of ``_CHUNK_ROWS``, so the working set
    is ``2**n * m`` float64 values per chunk row whatever N is.  Per
    chunk, the corner entries are gathered corner-major, shape
    (2**n, rows, m), in :func:`corner_weights`' corner order, then axis
    0..n-1 is folded in place by one lerp per axis over the two
    contiguous halves.  With integer entries and 8-bit inputs every
    fraction is a multiple of 2**-q and every intermediate is exact in
    float64, so the result equals the weight-product sum bit for bit.
    """
    rows, n = base.shape
    m = table.shape[-1]
    strides = table.shape[0] ** np.arange(n - 1, -1, -1, dtype=np.int64)
    offsets = _corner_offsets(n, table.shape[0])[:, None]
    flat = np.ascontiguousarray(table).reshape(-1, m)
    word = _ROW_WORDS.get(m * flat.itemsize)
    if word is not None:
        # one table row per machine word: a 1-D gather instead of a row gather
        flat = flat.view(word).reshape(-1)
    out = np.empty((rows, m), dtype=np.float64)
    for start in range(0, rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows)
        idx = offsets + base[start:stop] @ strides
        if word is None:
            gathered = flat[idx]
        else:
            gathered = np.take(flat, idx).view(table.dtype)
        acc = gathered.reshape(1 << n, stop - start, m).astype(np.float64)
        if bias:
            acc -= bias
        f = frac[start:stop, :, None]
        for d in range(n):
            half = acc.shape[0] // 2
            lo, hi = acc[:half], acc[half:]
            hi -= lo
            hi *= f[:, d]
            lo += hi
            acc = lo
        out[start:stop] = acc[0]
    return out


def query(lut, patch) -> np.ndarray:
    """Interpolated m-vector for one n-pixel patch (values in [0, 255])."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape != (lut.n,):
        raise ValueError(f"patch must have shape ({lut.n},), got {patch.shape}")
    return query_batch(lut, patch[None, :])[0]


def query_batch(lut, patches) -> np.ndarray:
    """Interpolated outputs for a (N, n) batch of patches."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[1] != lut.n:
        raise ValueError(f"patch batch must have shape (N, {lut.n})")
    base, frac = _decompose_arrays(patches, lut.q)
    return interpolate(lut.entries, base, frac, lut.bias)


def lattice_values(q: int) -> np.ndarray:
    """Nominal pixel value of each lattice point along one axis.

    The top point sits at 256: it is only ever blended into queries for
    values above ``255 - 2**q`` and quantization clamps baked entries
    back into the representable range.
    """
    return np.arange(lattice_size(q), dtype=np.float64) * float(2 ** q)


def bake_real(oracle, q: int, n: int, m: int, chunk: int = 4096) -> RealLut:
    """Evaluate ``oracle`` on every lattice point into a float table.

    ``oracle(points)`` receives an (P, n) array of pixel values and must
    return (P, m) outputs.  Failures are re-raised with the offending
    lattice coordinate attached; non-finite outputs are rejected.
    """
    _check_geometry(q, n, m)
    lattice = lattice_size(q)
    axis = lattice_values(q)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    total = points.shape[0]
    out = np.empty((total, m), dtype=np.float64)
    for start in range(0, total, chunk):
        block = points[start:start + chunk]
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
        out[start:start + chunk] = vals
    return RealLut(q, n, m, out.reshape((lattice,) * n + (m,)))


@dataclass
class QuantizeReport:
    max_error: float
    clipped: int


def quantize(real: RealLut, bit_depth: int = 8, signed: bool = False,
             coeff: bool = False):
    """Round a real table into integer storage.

    Returns ``(lut, report)``; the report carries the largest absolute
    rounding error among unclipped entries and the count of values that
    fell outside the representable range and were clamped.
    """
    if bit_depth not in _UINT_DTYPES:
        raise ValueError(f"unsupported bit depth {bit_depth}")
    bias = 2 ** (bit_depth - 1) if signed else 0
    top = 2 ** bit_depth - 1
    raw = round_half_away(real.entries) + bias
    clipped = int(np.count_nonzero((raw < 0) | (raw > top)))
    stored = np.clip(raw, 0, top).astype(_UINT_DTYPES[bit_depth])
    back = stored.astype(np.float64) - bias
    unclipped = (raw >= 0) & (raw <= top)
    if unclipped.any():
        max_err = float(np.max(np.abs(back - real.entries)[unclipped]))
    else:
        max_err = float("inf")
    cls = CoeffLut if coeff else QuantizedLut
    lut = cls(real.q, real.n, real.m, stored, bit_depth=bit_depth, signed=signed)
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
    entries = np.frombuffer(payload, dtype=dt).copy()
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
    if isinstance(lut, CoeffLut):
        return _pack_container(lut.entries, lut.q, lut.n, lut.m, lut.m,
                               FLAG_SIGNED if lut.signed else 0, lut.bit_depth)
    if isinstance(lut, QuantizedLut):
        return _pack_container(lut.entries, lut.q, lut.n, lut.m, 0,
                               FLAG_SIGNED if lut.signed else 0, lut.bit_depth)
    if isinstance(lut, RealLut):
        entries = lut.entries.astype("<f8")
        return _pack_container(entries, lut.q, lut.n, lut.m, 0, FLAG_REAL, 64)
    raise TypeError(f"cannot serialize {type(lut).__name__}")


def deserialize(data: bytes):
    """Rebuild a table from container bytes.

    Quantized payloads come back as :class:`QuantizedLut` (or
    :class:`CoeffLut` when the header's k field is set); real payloads
    come back as :class:`RealLut`.
    """
    header, entries = _unpack_container(data)
    if header.real_valued:
        return RealLut(header.q, header.n, header.m, entries.astype(np.float64))
    if header.k:
        if header.k != header.m:
            raise LutFileError(
                f"coefficient table has m={header.m} but k={header.k}"
            )
        return CoeffLut(header.q, header.n, header.m, entries,
                        bit_depth=header.bit_depth, signed=header.signed)
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
