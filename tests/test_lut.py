"""Lattice table storage, decomposition, interpolation, and container I/O."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lutpool import (
    BadMagicError,
    ChecksumError,
    CoeffLut,
    LutFileError,
    PipelineConfig,
    PoolingSpec,
    QuantizedLut,
    RealLut,
    TruncatedFileError,
    VersionMismatchError,
    bake,
    bake_real,
    dequantize,
    deserialize,
    inspect_file,
    interpolate,
    lattice_size,
    load_lut,
    quantize,
    query,
    query_batch,
    restore_image,
    round_half_away,
    save_lut,
    serialize,
    storage_bytes,
)
import lutpool.lut as lut_module
from lutpool.lut import (FLAG_REAL, FLAG_SIGNED, FORMAT_VERSION, HEADER_SIZE, MAGIC,
                         _CELL_TABLE_BYTES, _CHUNK_ROWS, _decompose_arrays,
                         _flat_rows, _float32_axes, _fold_corners, _pack_cells,
                         _pack_container, _read, _scatter, _uint16_axes, real_table)
from lutpool import pipeline
from lutpool.orientation import DIAGONAL_PATTERN, SQUARE_PATTERN


def naive_query(table, patch, q):
    """Reference interpolation: explicit walk over every hypercube corner."""
    n = len(patch)
    scaled = [p / float(2 ** q) for p in patch]
    base = [int(np.floor(s)) for s in scaled]
    frac = [s - b for s, b in zip(scaled, base)]
    m = table.shape[-1]
    out = np.zeros(m, dtype=np.float64)
    for corner in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for c, f in zip(corner, frac):
            weight *= f if c else 1.0 - f
        idx = tuple(b + c for b, c in zip(base, corner))
        out += weight * table[idx]
    return out


def weight_product_interpolate(table, base, frac):
    """Reference kernel: the weight-product sum the query kernel replaced.

    For each corner, the product of per-axis weights (1 - f or f) times
    the corner row, accumulated corner by corner.  ``table`` is a float64
    entry array with any bias already removed.
    """
    npts, n = base.shape
    lattice = table.shape[0]
    m = table.shape[-1]
    flat = table.reshape(-1, m)
    strides = [lattice ** (n - 1 - d) for d in range(n)]
    idx0 = base @ np.array(strides, dtype=np.int64)
    out = np.zeros((npts, m), dtype=np.float64)
    for corner in range(1 << n):
        off = 0
        cw = np.ones(npts, dtype=np.float64)
        for d in range(n):
            if (corner >> (n - 1 - d)) & 1:
                cw = cw * frac[:, d]
                off += strides[d]
            else:
                cw = cw * (1.0 - frac[:, d])
        out += cw[:, None] * flat[idx0 + off]
    return out


def random_int_lut(rng, q, n, m, bit_depth=8, signed=False):
    shape = (lattice_size(q),) * n + (m,)
    entries = rng.integers(0, 2 ** bit_depth, shape)
    return QuantizedLut(q, n, m, entries, bit_depth=bit_depth, signed=signed)


def random_real_lut(rng, q, n, m, scale=255.0):
    shape = (lattice_size(q),) * n + (m,)
    return RealLut(q, n, m, rng.uniform(0.0, scale, shape))


class TestStorage:
    def test_lattice_size(self):
        assert lattice_size(4) == 17
        assert lattice_size(5) == 9
        assert lattice_size(6) == 5
        assert lattice_size(2) == 65

    def test_published_byte_counts(self):
        # dense 4-pixel tables at the three published operating points
        assert storage_bytes(4, 4, 16, 8) == 1_336_336
        assert storage_bytes(4, 4, 1, 8) == 83_521
        assert storage_bytes(5, 4, 4, 8) == 26_244

    def test_bit_depth_scaling(self):
        assert storage_bytes(4, 4, 1, 16) == 2 * storage_bytes(4, 4, 1, 8)
        assert storage_bytes(6, 2, 3, 8) == 5 * 5 * 3

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            storage_bytes(0, 4, 1)
        with pytest.raises(ValueError):
            storage_bytes(8, 4, 1)
        with pytest.raises(ValueError):
            storage_bytes(4, 0, 1)
        with pytest.raises(ValueError):
            storage_bytes(4, 4, 0)
        with pytest.raises(ValueError):
            storage_bytes(4, 4, 1, 12)


class TestRounding:
    def test_half_away_from_zero(self):
        vals = np.array([0.5, 1.5, -0.5, -1.5, 2.5, -2.5, 0.49, -0.49])
        want = np.array([1.0, 2.0, -1.0, -2.0, 3.0, -3.0, 0.0, -0.0])
        np.testing.assert_array_equal(round_half_away(vals), want)


class TestDecompose:
    def test_adjacent_cells_q5(self):
        base, frac = _decompose_arrays(np.array([31.0, 32.0]), 5)
        np.testing.assert_array_equal(base, [0, 1])
        np.testing.assert_allclose(frac, [31.0 / 32.0, 0.0], rtol=0, atol=0)

    def test_mid_cell_q4(self):
        base, frac = _decompose_arrays(np.array([8.0]), 4)
        assert base[0] == 0
        assert frac[0] == 0.5

    def test_top_of_range(self):
        # 255 falls inside the top cell, blending toward the 256 point
        base, frac = _decompose_arrays(np.array([255.0]), 4)
        assert base[0] == 15
        assert frac[0] == 15.0 / 16.0

    def test_fraction_exactness(self):
        rng = np.random.default_rng(11)
        for q in (2, 4, 5, 6):
            vals = rng.integers(0, 256, size=200).astype(np.float64)
            base, frac = _decompose_arrays(vals, q)
            recon = (base + frac) * (2 ** q)
            np.testing.assert_array_equal(recon, vals)

    def test_integral_values_give_float32_fractions(self):
        # integer dtypes and floats without a fractional part are integral
        values = np.array([[0, 7, 128], [255, 16, 31]])
        for arr in (values.astype(np.uint8), values.astype(np.int64),
                    values.astype(np.float32), values.astype(np.float64)):
            cells, frac = _decompose_arrays(arr, 4)
            assert cells.dtype == np.uint8 and frac.dtype == np.float32, arr.dtype
            np.testing.assert_array_equal(cells * 16 + frac * 16, values)
        # one value off the integers makes every fraction float64
        for dtype in (np.float32, np.float64):
            arr = values.astype(dtype)
            arr[1, 2] = 30.5
            cells, frac = _decompose_arrays(arr, 4)
            assert frac.dtype == np.float64, dtype
            np.testing.assert_array_equal(cells * 16 + frac * 16, arr)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_integer_inputs_decompose_like_floats(self, dtype):
        # integer-typed values take v >> q and v mod 2**q, with the bits
        # of the float formula on the same values; a strided view too
        values = np.arange(512).reshape(2, 256)[:, ::-1] % 256
        for q in range(1, 8):
            for arr in (values.astype(dtype), values.astype(dtype)[:, ::3]):
                cells, frac = _decompose_arrays(arr, q)
                want_cells, want_frac = _decompose_arrays(arr.astype(np.float64), q)
                assert cells.dtype == want_cells.dtype and frac.dtype == want_frac.dtype
                assert cells.tobytes() == want_cells.tobytes(), (dtype, q)
                assert frac.tobytes() == want_frac.tobytes(), (dtype, q)

    def test_out_of_range_rejected(self):
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=1, m=1)
        with pytest.raises(ValueError):
            query_batch(lut, np.array([[-1.0]]))
        with pytest.raises(ValueError):
            query_batch(lut, np.array([[256.0]]))


class TestInterpolation:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for q, n, m in ((4, 4, 1), (5, 4, 4), (6, 2, 3), (4, 1, 2)):
            lut = random_real_lut(rng, q, n, m)
            patches = rng.uniform(0.0, 255.0, size=(200, n))
            fast = query_batch(lut, patches)
            for row, patch in zip(fast, patches):
                want = naive_query(lut.entries, patch, q)
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)

    def test_lattice_points_return_entries(self):
        rng = np.random.default_rng(1)
        lut = random_real_lut(rng, 5, 2, 2)
        vals = np.arange(8) * 32.0  # lattice points below 256, which is out of query range
        for i in (0, 3, 7):
            for j in (0, 4, 8):
                got = query(lut, np.array([vals[i % 8], vals[j % 8]]))
                np.testing.assert_allclose(
                    got, lut.entries[int(vals[i % 8]) // 32, int(vals[j % 8]) // 32]
                )

    def test_affine_functions_reproduced_exactly(self):
        # multilinear interpolation is exact for affine maps of the inputs
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.uniform(-1.0, 1.0, size=4)
            b = rng.uniform(-50.0, 50.0)
            lut = bake_real(lambda p: (p @ w + b)[:, None], q=4, n=4, m=1)
            patches = rng.uniform(0.0, 255.0, size=(100, 4))
            got = query_batch(lut, patches)[:, 0]
            np.testing.assert_allclose(got, patches @ w + b, rtol=0, atol=1e-9)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        lut = bake_real(lambda p: np.ones((p.shape[0], 1)), q=5, n=3, m=1)
        patches = rng.uniform(0.0, 255.0, size=(300, 3))
        np.testing.assert_allclose(query_batch(lut, patches), 1.0, rtol=0, atol=1e-12)

    def test_patch_shape_checked(self):
        rng = np.random.default_rng(4)
        lut = random_real_lut(rng, 4, 4, 1)
        with pytest.raises(ValueError):
            query(lut, np.zeros(3))
        with pytest.raises(ValueError):
            query_batch(lut, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_patch_rejected(self, bad):
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        patches = np.full((3, 4), 100.0)
        patches[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            query_batch(lut, patches)


def integer_patches(rng, count, n):
    """8-bit patches, with the all-0 and all-255 corners of the range included."""
    edges = np.array([[0.0] * n, [255.0] * n])
    return np.concatenate([edges, rng.integers(0, 256, (count, n))])[:count]


class TestQueryKernel:
    """The chunked stored-dtype kernel against the weight-product oracle."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_integer_tables_bitwise(self, n, bit_depth):
        # m * itemsize in {1, 2, 4, 8} gathers whole rows as one word;
        # m = 3 and m = 16 take the plain row gather
        rng = np.random.default_rng(100 + 10 * n + bit_depth)
        for q, m, signed in itertools.product((1, 4, 7), (1, 2, 3, 4, 16),
                                              (False, True)):
            if lattice_size(q) ** n * m > 2_000_000:
                continue                  # n = 4 at q = 1: 129**4 lattice points
            lut = random_int_lut(rng, q, n, m, bit_depth, signed)
            patches = integer_patches(rng, 300, n)
            got = query_batch(lut, patches)
            base, frac = _decompose_arrays(patches, q)
            want = weight_product_interpolate(real_table(lut), base, frac)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want, err_msg=f"q={q} m={m} signed={signed}")

    @pytest.mark.parametrize("m", [1, 3, 4, 16])
    def test_chunk_boundaries(self, m):
        # a chunk holds _CHUNK_ROWS // m queries; q4 n4 m16 is past the
        # cell-table cap, so its chunks gather lattice rows
        rng = np.random.default_rng(130 + m)
        lut = random_int_lut(rng, 4, 4, m, signed=True)
        step = _CHUNK_ROWS // m
        for rows in (0, 1, step - 1, step, step + 1):
            patches = integer_patches(rng, rows, 4)
            got = query_batch(lut, patches)
            assert got.shape == (rows, m)
            base, frac = _decompose_arrays(patches, 4)
            want = weight_product_interpolate(real_table(lut), base, frac)
            np.testing.assert_array_equal(got, want, err_msg=f"rows={rows}")

    @pytest.mark.parametrize("m", [1, 4])
    def test_quantized_equals_dequantized_bitwise(self, m):
        # the stored-dtype fold against the same fold of the float copy,
        # whose entries carry no bias: for non-integer queries the bias
        # must leave every gathered corner before the lerps, as it does
        # from the float copy
        rng = np.random.default_rng(124 + m)
        for q, bit_depth, signed in itertools.product((4, 5), (8, 16), (False, True)):
            lut = random_int_lut(rng, q, 4, m, bit_depth, signed)
            patches = np.concatenate([rng.uniform(0.0, 255.0, (2000, 4)),
                                      integer_patches(rng, 500, 4)])
            got = query_batch(lut, patches)
            want = query_batch(dequantize(lut), patches)
            assert got.tobytes() == want.tobytes(), (q, bit_depth, signed)

    def test_interpolate_takes_patch_major_queries(self):
        # the public kernel keeps its (N, n) convention for base and frac
        rng = np.random.default_rng(123)
        lut = random_int_lut(rng, 4, 4, 3, signed=True)
        patches = integer_patches(rng, 300, 4)
        base, frac = _decompose_arrays(patches, 4)
        got = interpolate(lut.entries, base, frac, lut.bias)
        assert got.shape == (300, 3)
        np.testing.assert_array_equal(
            got, weight_product_interpolate(real_table(lut), base, frac))
        np.testing.assert_array_equal(got, query_batch(lut, patches))

    def test_table_never_written(self):
        rng = np.random.default_rng(120)
        for lut in (random_int_lut(rng, 4, 4, 4, signed=True),
                    random_int_lut(rng, 5, 4, 3, bit_depth=16),
                    random_real_lut(rng, 5, 4, 1)):
            before = lut.entries.copy()
            lut.entries.setflags(write=False)  # an in-place write would raise
            query_batch(lut, integer_patches(rng, 500, 4))
            assert lut.entries.dtype == before.dtype
            np.testing.assert_array_equal(lut.entries, before)

    def test_real_tables_match_oracle(self):
        rng = np.random.default_rng(121)
        for q, n, m in ((4, 4, 1), (4, 4, 4), (5, 4, 3), (6, 2, 16)):
            lut = random_real_lut(rng, q, n, m)
            lut.entries -= 127.5                   # signed values
            patches = np.concatenate([rng.uniform(0.0, 255.0, (400, n)),
                                      integer_patches(rng, 100, n)])
            base, frac = _decompose_arrays(patches, q)
            want = weight_product_interpolate(lut.entries, base, frac)
            np.testing.assert_allclose(query_batch(lut, patches), want,
                                       rtol=1e-12, atol=1e-12 * 255.0)

    def test_restore_quantized_equals_dequantized(self):
        # the stored-dtype read and the float copy must agree bit for bit,
        # also in a second stage whose inputs are no longer integers
        rng = np.random.default_rng(122)
        patterns = [SQUARE_PATTERN, DIAGONAL_PATTERN]
        stages = [[random_int_lut(rng, 4, p.n, 1) for p in patterns],
                  [random_int_lut(rng, 4, p.n, 4, signed=True) for p in patterns]]
        image = rng.integers(0, 256, (19, 23)).astype(np.uint8)
        outs = []
        for convert in (lambda lut: lut, dequantize):
            cfg = PipelineConfig(task="sr", scale=2, patterns=patterns, residual=True,
                                 pooling=PoolingSpec(kind="gmp", tau=8.0),
                                 stages=[[convert(lut) for lut in s] for s in stages])
            outs.append(restore_image(image, cfg))
        assert outs[0].shape == (38, 46)
        np.testing.assert_array_equal(outs[0], outs[1])


def checkerboard_lut(q, n, bit_depth, signed):
    """Adjacent lattice points hold 0 and 2**b - 1: the largest lerp steps."""
    parity = np.arange(lattice_size(q), dtype=np.uint8) & 1
    grid = parity
    for _ in range(n - 1):
        grid = np.bitwise_xor.outer(grid, parity)
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    entries = grid.astype(dtype) * dtype(2 ** bit_depth - 1)
    return QuantizedLut(q, n, 1, entries[..., None], bit_depth=bit_depth, signed=signed)


def top_fraction_patches(rng, q, n, count):
    """Integer patches at fraction (2**q - 1) / 2**q on every axis.

    Cells are drawn from the three lowest and the three highest of the
    lattice (clipped to q7's two cells), so both ends of the range (255
    included) are read.
    """
    top = 2 ** (8 - q) - 1
    cells = np.clip(rng.choice([0, 1, 2, top - 2, top - 1, top], (count, n)), 0, top)
    return (cells * 2 ** q + 2 ** q - 1).astype(np.float64)


def window_oracle(lut, patches):
    """``weight_product_interpolate`` over the sub-lattice the queries read.

    The oracle sees a hypercube of the table just large enough for every
    queried cell, so a 65**4-point table is never widened to float64.
    """
    base, frac = _decompose_arrays(patches, lut.q)
    base = base.astype(np.int64)
    side = int(np.ptp(base, axis=0).max()) + 2
    start = np.minimum(base.min(axis=0), lut.lattice_points - side)
    window = lut.entries[tuple(slice(a, a + side) for a in start)]
    return weight_product_interpolate(window.astype(np.float64) - lut.bias,
                                      base - start, frac)


def fold_dtypes(monkeypatch):
    """Accumulator dtypes of every corner fold run while the spy is set."""
    seen = []

    def spy(table, rows, frac, bias=0.0, cells=None):
        seen.append(frac.dtype)
        return _fold_corners(table, rows, frac, bias, cells)

    monkeypatch.setattr(lut_module, "_fold_corners", spy)
    return seen


def fold_reference(lut, patches, narrow):
    """The corner fold restated: axes 0..narrow-1 in float32, the rest in float64.

    Gathers the 2**n unbiased corner rows of each integral query, lerps
    axis 0 first (the upper half of the corners takes the upper
    neighbour), widens to float64 before axis ``narrow`` and subtracts
    the bias from the blend.
    """
    base, frac = _decompose_arrays(patches, lut.q)
    corners = np.array(list(itertools.product((0, 1), repeat=lut.n)))
    acc = lut.entries[tuple(base[None, :, d].astype(np.int64) + corners[:, None, d]
                            for d in range(lut.n))]
    acc = acc.astype(np.float32 if narrow else np.float64)
    for d in range(lut.n):
        if d == narrow:
            acc = acc.astype(np.float64)
        half = acc.shape[0] // 2
        lo, hi = acc[:half], acc[half:]
        acc = lo + (hi - lo) * frac[:, d, None].astype(acc.dtype)
    return acc[0] - lut.bias


# (q, bit_depth, float32 axes) of an n = 4 table: b + q*axes <= 24 < b + q*(axes+1)
SPLITS = [(4, 8, 4), (5, 8, 3), (6, 8, 2), (4, 16, 2), (2, 16, 4)]


class TestFloat32Bound:
    """Fold axis d runs in float32 exactly while b + q*(d+1) <= 24."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q, n, bit_depth", [(4, 4, 8), (2, 4, 16), (4, 2, 16),
                                                 (6, 2, 8)])
    def test_at_the_bound_float32_bitwise(self, monkeypatch, q, n, bit_depth, signed):
        # every axis is within the bound: the whole fold runs in float32
        assert bit_depth + q * n <= 24
        lut = checkerboard_lut(q, n, bit_depth, signed)
        assert _float32_axes(lut.entries, np.float32) == n
        patches = top_fraction_patches(np.random.default_rng(q * n + bit_depth), q, n, 400)
        seen = fold_dtypes(monkeypatch)
        got = query_batch(lut, patches)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, window_oracle(lut, patches))

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q, n, bit_depth", [(5, 4, 8), (3, 4, 16)])
    def test_above_the_bound_float64_bitwise(self, monkeypatch, q, n, bit_depth, signed):
        # the axes past the bound fold in float64, the ones before it in float32
        assert bit_depth + q * n > 24
        lut = checkerboard_lut(q, n, bit_depth, signed)
        narrow = _float32_axes(lut.entries, np.float32)
        assert 0 < narrow < n
        patches = top_fraction_patches(np.random.default_rng(q * n + bit_depth), q, n, 400)
        seen = fold_dtypes(monkeypatch)
        got = query_batch(lut, patches)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, window_oracle(lut, patches))
        # the bound is not slack: on random entries and queries, one more
        # float32 axis loses bits ...
        rng = np.random.default_rng(q + bit_depth)
        lut = random_int_lut(rng, q, n, 1, bit_depth, signed)
        patches = integer_patches(rng, 3000, n)
        want = window_oracle(lut, patches)
        np.testing.assert_array_equal(query_batch(lut, patches), want)
        np.testing.assert_array_equal(fold_reference(lut, patches, narrow), want)
        past = fold_reference(lut, patches, narrow + 1)
        assert not np.array_equal(past, want)
        # ... and the fold runs exactly as many float32 axes as the bound says
        exact = lut_module._float32_axes
        monkeypatch.setattr(lut_module, "_float32_axes",
                            lambda table, dtype: min(exact(table, dtype) + 1, n))
        np.testing.assert_array_equal(query_batch(lut, patches), past)

    @pytest.mark.parametrize("signed", [False, True])
    def test_non_integer_inputs_take_float64(self, monkeypatch, signed):
        # quarter-step inputs: fractions are multiples of 2**-(q+2), exact
        # in float64 but past float32's 24 bits on an 8-bit q4 n4 table
        q, n = 4, 4
        lut = checkerboard_lut(q, n, 8, signed)
        assert _float32_axes(lut.entries, np.float32) == n
        patches = top_fraction_patches(np.random.default_rng(7), q, n, 400) - 0.25
        seen = fold_dtypes(monkeypatch)
        got = query_batch(lut, patches)
        assert seen == [np.float64]
        assert _float32_axes(lut.entries, np.float64) == 0
        np.testing.assert_array_equal(got, window_oracle(lut, patches))

    def test_rule(self):
        rng = np.random.default_rng(8)
        for q, bit_depth, narrow in SPLITS:
            lut = random_int_lut(rng, q, 4, 1, bit_depth=bit_depth)
            assert _float32_axes(lut.entries, np.float32) == narrow, (q, bit_depth)
            assert _float32_axes(lut.entries, np.float64) == 0
        # never more axes than the table has
        assert _float32_axes(random_int_lut(rng, 6, 1, 4).entries, np.float32) == 1
        # 16-bit q7: only the first axis fits (16 + 7 <= 24 < 16 + 14)
        wide = random_int_lut(rng, 7, 2, 1, bit_depth=16)
        assert _float32_axes(wide.entries, np.float32) == 1
        # real tables and 32-bit entries never fold in float32
        real = random_real_lut(rng, 6, 2, 1)
        assert _float32_axes(real.entries, np.float32) == 0
        word = QuantizedLut(4, 2, 1, np.zeros((17, 17, 1), np.uint32), bit_depth=32)
        assert _float32_axes(word.entries, np.float32) == 0

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q, bit_depth, narrow", SPLITS)
    def test_split_bitwise(self, q, bit_depth, narrow, signed):
        lut = checkerboard_lut(q, 4, bit_depth, signed)
        assert _float32_axes(lut.entries, np.float32) == narrow
        patches = top_fraction_patches(np.random.default_rng(q + bit_depth), q, 4, 400)
        want = window_oracle(lut, patches)
        np.testing.assert_array_equal(query_batch(lut, patches), want)
        np.testing.assert_array_equal(fold_reference(lut, patches, narrow), want)

    @pytest.mark.parametrize("q, n, m, bit_depth", [(7, 7, 1, 8), (7, 6, 2, 16),
                                                    (5, 4, 4, 8), (1, 2, 3, 16)])
    def test_float32_fractions_fold_like_float64(self, q, n, m, bit_depth):
        # float64 fractions take the all-float64 fold with a per-corner
        # bias; float32 ones split the fold, and remove the bias once only
        # while b + q*n <= 53 (not at q7 n7 8-bit or q7 n6 16-bit)
        rng = np.random.default_rng(q * n * m)
        for signed in (False, True):
            lut = random_int_lut(rng, q, n, m, bit_depth, signed)
            cells, frac = _decompose_arrays(integer_patches(rng, 3000, n).T.copy(), q)
            assert frac.dtype == np.float32
            rows = _flat_rows(cells, lut.lattice_points)
            got = _fold_corners(lut.entries, rows, frac, lut.bias)
            want = _fold_corners(lut.entries, rows, frac.astype(np.float64), lut.bias)
            np.testing.assert_array_equal(got, want, err_msg=f"signed={signed}")

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_float32_axis_widens_the_fractions(self, monkeypatch, m):
        # real tables and 32-bit entries fold no axis in float32: float32
        # fractions are widened in the fold and give float64's bits
        rng = np.random.default_rng(m)
        word = QuantizedLut(4, 4, m, rng.integers(0, 2 ** 32, (17,) * 4 + (m,)),
                            bit_depth=32, signed=True)
        for lut in (random_real_lut(rng, 4, 4, m), word):
            assert _float32_axes(lut.entries, np.float32) == 0
            patches = integer_patches(rng, 3000, 4)
            cells, frac = _decompose_arrays(patches.T.copy(), 4)
            rows = _flat_rows(cells, lut.lattice_points)
            got = _fold_corners(lut.entries, rows, frac, lut.bias)
            want = _fold_corners(lut.entries, rows, frac.astype(np.float64), lut.bias)
            assert got.tobytes() == want.tobytes()
            seen = fold_dtypes(monkeypatch)
            assert query_batch(lut, patches).tobytes() == want.tobytes()
            assert seen == [np.float32]
            monkeypatch.undo()


def checkerboard_columns(q, n, m, signed):
    """8-bit checkerboard table whose odd output columns hold the complement.

    Every column takes the largest lerp steps; the complement makes the
    m entries of a row differ, so a k code repeated for the wrong entry
    shows.
    """
    board = checkerboard_lut(q, n, 8, signed).entries
    columns = [board if j % 2 == 0 else 255 - board for j in range(m)]
    return QuantizedLut(q, n, m, np.concatenate(columns, axis=-1), signed=signed)


# (q, n, uint16 axes) of an 8-bit table: 8 + q*axes <= 16 < 8 + q*(axes+1),
# or every axis of the table
UINT16_SPLITS = [(4, 4, 2), (5, 4, 1), (7, 2, 1), (4, 2, 2), (4, 1, 1)]


class TestUint16Bound:
    """Fold axis d runs in exact uint16 integers while 8 + q*(d+1) <= 16."""

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q, n, ints", UINT16_SPLITS)
    def test_at_the_bound_bitwise(self, q, n, ints, signed, m):
        # top fractions (k = 2**q - 1) on 0/255 entries make the largest
        # integer lerps; random integer patches give each axis its own k
        lut = checkerboard_columns(q, n, m, signed)
        assert _uint16_axes(lut.entries, np.float32) == ints
        rng = np.random.default_rng(q * n * m + signed)
        patches = np.concatenate([top_fraction_patches(rng, q, n, 400),
                                  integer_patches(rng, 400, n)])
        want = window_oracle(lut, patches)
        for got in both_gathers(lut, patches):        # cell table, lattice rows
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q, n, ints", [s for s in UINT16_SPLITS if s[2] < s[1]])
    def test_one_more_axis_wraps(self, monkeypatch, q, n, ints, signed):
        # the bound is not slack: one more uint16 axis passes 2**16 and wraps
        lut = checkerboard_columns(q, n, 1, signed)
        patches = top_fraction_patches(np.random.default_rng(q + n), q, n, 400)
        want = window_oracle(lut, patches)
        np.testing.assert_array_equal(query_batch(lut, patches), want)
        exact = lut_module._uint16_axes
        monkeypatch.setattr(lut_module, "_uint16_axes",
                            lambda table, dtype: exact(table, dtype) + 1)
        for got in both_gathers(lut, patches):
            assert not np.array_equal(got, want)

    def test_rule(self):
        for q, n, ints in UINT16_SPLITS + [(1, 8, 8), (2, 6, 4), (3, 4, 2), (6, 3, 1)]:
            # the rule reads only the shape and dtype: a zero-stride view will do
            entries = np.broadcast_to(np.uint8(0), (lattice_size(q),) * n + (1,))
            assert _uint16_axes(entries, np.float32) == ints, (q, n)
            assert _uint16_axes(entries, np.float64) == 0
        # coefficient tables hold 8-bit weights too
        coeff = CoeffLut(5, 4, 4, np.zeros((9,) * 4 + (4,), np.uint8))
        assert _uint16_axes(coeff.entries, np.float32) == 1
        # 16-bit and real tables never fold in uint16
        rng = np.random.default_rng(9)
        assert _uint16_axes(random_int_lut(rng, 4, 4, 1, 16).entries, np.float32) == 0
        assert _uint16_axes(random_real_lut(rng, 4, 4, 1).entries, np.float32) == 0

    @pytest.mark.parametrize("q, n, m", [(7, 7, 1), (6, 8, 2)])
    def test_corner_bias_scaled(self, q, n, m):
        # past b + q*n = 53 the bias leaves every corner, after the uint16
        # axes, as bias * 2**(q*a): the bits of the float64-fraction fold
        rng = np.random.default_rng(q * n)
        lut = random_int_lut(rng, q, n, m, signed=True)
        assert _uint16_axes(lut.entries, np.float32) == 1
        cells, frac = _decompose_arrays(integer_patches(rng, 3000, n).T.copy(), q)
        rows = _flat_rows(cells, lut.lattice_points)
        got = _fold_corners(lut.entries, rows, frac, lut.bias)
        want = _fold_corners(lut.entries, rows, frac.astype(np.float64), lut.bias)
        assert got.tobytes() == want.tobytes()


class TestFoldHalves:
    """A uint16 fold takes the lower and upper half of its corners apart, with the bits of one array."""

    @pytest.mark.parametrize("m", [1, 3, 4])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("q", [4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_halves_bitwise(self, n, q, signed, m):
        # at n = 1 each half is a single corner; m = 1 and 4 move one
        # machine word per corner row, m = 3 its m entries; quarter-step
        # queries have float64 fractions and skip the uint16 tier
        rng = np.random.default_rng([n, q, signed, m])
        lut = random_int_lut(rng, q, n, m, signed=signed)
        assert lut._cells is not None
        integral = np.concatenate([top_fraction_patches(rng, q, n, 300),
                                   integer_patches(rng, 300, n)])
        quarter = np.minimum(rng.integers(0, 1021, (300, n)) / 4.0, 255.0)
        for patches, ints in ((integral, min(n, 8 // q)), (quarter, 0)):
            _, frac = _decompose_arrays(patches.T.copy(), q)
            assert _uint16_axes(lut.entries, frac.dtype) == ints
            want = window_oracle(lut, patches)
            by_cell, by_lattice = both_gathers(lut, patches)
            np.testing.assert_array_equal(by_cell, want)
            assert by_lattice.tobytes() == by_cell.tobytes()
            assert query_batch(lut, patches).tobytes() == by_cell.tobytes()

    def test_fold_empties_the_list_of_halves(self):
        # the fold holds the only references, so each half can be freed
        # as soon as it is used
        rng = np.random.default_rng(4)
        halves = [rng.integers(0, 256, (8, 400), dtype=np.uint8) for _ in range(2)]
        want = np.concatenate(halves)
        frac = [rng.integers(0, 16, 100).astype(np.float32) / 16 for _ in range(2)]
        got = lut_module._fold_uint16(halves, frac, 4, 4)
        assert halves == [] and got.shape == (4, 400) and got.dtype == np.uint16
        k = [np.repeat(f * 16, 4).astype(np.int64) for f in frac]
        ref = want.astype(np.int64)
        for kd in k:
            half = len(ref) // 2
            ref = ref[:half] * (16 - kd) + ref[half:] * kd
        np.testing.assert_array_equal(got, ref)

    def test_chunk_holds_half_of_its_corners(self):
        # one warm read of a 2**12-anchor signed q4 m4 query, one fold
        # chunk: all 2**n uint8 corners beside the uint16 lower-half
        # product made the peak 724,084 B beyond the output; halves
        # apart, it is 625,804 B
        rng = np.random.default_rng(1)
        lut = random_int_lut(rng, 4, 4, 4, signed=True)
        query = _decompose_arrays(rng.integers(0, 256, (4, 4096)).astype(np.uint8), 4)
        _read(lut, query)                       # the cell table is built here
        tracemalloc.start()
        try:
            out = _read(lut, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 660_000, peak - out.nbytes


def stage_query(table, stack, pattern=SQUARE_PATTERN):
    """``table``'s first stage query on a (B, h, w) stack, and the patches it reads.

    The query is the pipeline's own, views into the band's cell and
    fraction planes; the patches, (B * h * w, n) pixel values, are taken
    from the edge-padded stack at the pattern's offsets.
    """
    query = next(pipeline._stage_queries(stack, PipelineConfig(patterns=[pattern],
                                                                 stages=[table])))
    pad = pattern.reach
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    _, h, w = stack.shape
    patches = [padded[:, pad + dr:pad + dr + h, pad + dc:pad + dc + w].reshape(-1)
               for dr, dc in pattern.rotated(0)]
    return query, np.stack(patches, axis=-1)


def integer_stack(shape, seed):
    return np.random.default_rng(seed).integers(0, 256, shape).astype(np.uint8)


def quarter_stack(shape, seed):
    return np.random.default_rng(seed).integers(0, 1021, shape) / 4.0


# (table, stack) makers of the reads the view fold is checked on, by name:
# stage reads of one chunk, reads of several chunks cut along whole rows,
# within one row or across rows, stacks of more than one image, and
# quarter-step inputs (float64 fractions)
VIEW_READS = {
    "s-q4-m1-one-chunk": (lambda rng: random_int_lut(rng, 4, 4, 1),
                          lambda: integer_stack((1, 128, 128), 1)),
    "signed-q4-m4-one-chunk": (lambda rng: random_int_lut(rng, 4, 4, 4, signed=True),
                               lambda: integer_stack((1, 64, 64), 2)),
    "coeff-q5-m4-whole-rows": (lambda rng: CoeffLut(5, 4, 4, rng.integers(0, 256, (9,) * 4 + (4,))),
                               lambda: integer_stack((1, 128, 128), 3)),
    "coeff-q5-m4-across-rows": (lambda rng: CoeffLut(5, 4, 4, rng.integers(0, 256, (9,) * 4 + (4,))),
                                lambda: integer_stack((1, 160, 100), 4)),
    "x2-one-row-past-a-chunk": (lambda rng: random_int_lut(rng, 4, 4, 4, signed=True),
                                lambda: integer_stack((1, 1, 5000), 5)),
    "stack-of-3-several-chunks": (lambda rng: random_int_lut(rng, 4, 4, 4, signed=True),
                                  lambda: integer_stack((3, 40, 50), 6)),
    "stack-of-2-one-chunk": (lambda rng: random_int_lut(rng, 4, 4, 1),
                             lambda: integer_stack((2, 30, 40), 7)),
    "float64-m1": (lambda rng: random_int_lut(rng, 4, 4, 1, signed=True),
                   lambda: quarter_stack((1, 64, 80), 8)),
    "float64-m4-several-chunks": (lambda rng: random_int_lut(rng, 5, 4, 4),
                                  lambda: quarter_stack((1, 50, 120), 9)),
}


class TestFractionViews:
    """The fold reads a stage query's fraction views where they lie, with the bits of a stacked read."""

    @pytest.mark.parametrize("gather", ["cells", "lattice"])
    @pytest.mark.parametrize("name", sorted(VIEW_READS))
    def test_views_read_like_stacked_fractions(self, monkeypatch, name, gather):
        if gather == "lattice":                 # no cell table is kept
            monkeypatch.setattr(lut_module, "_CELL_TABLE_BYTES", 0)
        make_table, make_stack = VIEW_READS[name]
        table = make_table(np.random.default_rng(len(name)))
        assert (table._cells is None) == (gather == "lattice")
        (cells, fracs), patches = stage_query(table, make_stack())
        assert all(f.base is fracs[0].base for f in fracs)   # views of one plane
        stacked = np.asarray(fracs).reshape(len(fracs), -1)
        got = _read(table, (cells, fracs))
        assert got.tobytes() == _read(table, (cells, stacked)).tobytes()
        np.testing.assert_array_equal(got, window_oracle(table, patches))

    def test_chunks_view_the_plane_where_rows_align(self):
        plane = np.zeros((3, 170, 5010), np.float32)
        step = 4096

        def views(shape):
            b, h, w = shape
            frac = [plane[:b, d:d + h, d:d + w] for d in range(2)]
            return [(start, stop, [np.shares_memory(f, plane) for f in chunk])
                    for start, stop, chunk in lut_module._fraction_chunks(frac, b * h * w, step)]

        # one chunk: the arrays whole
        assert views((1, 64, 64)) == [(0, 4096, [True, True])]
        # whole rows, and parts of one row
        for shape in ((1, 128, 128), (1, 1, 5000)):
            chunks = views(shape)
            assert len(chunks) > 1 and all(all(shared) for _, _, shared in chunks)
        # a chunk across rows copies the rows it touches; one in a row does not
        chunks = views((1, 2, 3000))
        assert [(start, stop, all(shared)) for start, stop, shared in chunks] == [
            (0, 4096, False), (4096, 6000, True)]
        assert not any(any(shared) for _, _, shared in views((1, 160, 100)))
        # a stack of padded images has no row view: the fractions are copied
        assert not any(any(shared) for _, _, shared in views((3, 40, 50)))


def packed_bytes(q, n, m, bit_depth):
    """Bytes of the cell table of a q/n/m table with entries of ``bit_depth`` bits."""
    return (2 ** (8 - q)) ** n * 2 ** n * m * bit_depth // 8


def both_gathers(lut, patches):
    """The fold of ``patches`` through the cell table and through the lattice rows."""
    cells, frac = _decompose_arrays(np.ascontiguousarray(patches.T), lut.q)
    packed = lut._cells
    by_cell = _fold_corners(lut.entries, _flat_rows(cells, lut.lattice_points - 1), frac,
                            lut.bias, packed)
    by_lattice = _fold_corners(lut.entries, _flat_rows(cells, lut.lattice_points), frac,
                               lut.bias)
    return by_cell, by_lattice


class TestCellTable:
    """One packed row per query gives the bits of the 2**n lattice-row gathers."""

    def test_layout(self):
        # row r holds, in corner_weights' order, the corners of cell r
        rng = np.random.default_rng(140)
        for q, n, m, bit_depth in ((6, 2, 3, 8), (5, 3, 4, 16), (6, 4, 1, 8),
                                   (7, 1, 16, 16)):
            lut = random_int_lut(rng, q, n, m, bit_depth)
            packed = _pack_cells(lut.entries)
            side = lut.lattice_points - 1
            assert packed.shape == (side ** n, 2 ** n * m)
            assert packed.dtype == lut.entries.dtype and not packed.flags.writeable
            for r in rng.integers(0, side ** n, 20):
                cell = np.unravel_index(r, (side,) * n)
                want = [lut.entries[tuple(np.add(cell, bits))]
                        for bits in itertools.product((0, 1), repeat=n)]
                np.testing.assert_array_equal(packed[r], np.concatenate(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_cell_gather_bitwise(self, n, bit_depth):
        # m * itemsize in {1, 2, 4, 8} turns the rows corner-major as one
        # word per corner row; m = 3 and m = 16 move m-entry rows
        rng = np.random.default_rng(150 + 10 * n + bit_depth)
        checked = 0
        for q, m, signed in itertools.product(range(1, 8), (1, 2, 3, 4, 16),
                                              (False, True)):
            if (packed_bytes(q, n, m, bit_depth) > _CELL_TABLE_BYTES
                    or lattice_size(q) ** n * m > 2_000_000):
                continue
            lut = random_int_lut(rng, q, n, m, bit_depth, signed)
            # one packed row per cell: base rows count 2**(8-q) cells per axis
            assert lut._cells.shape == ((2 ** (8 - q)) ** n, 2 ** n * m)
            integral = integer_patches(rng, 300, n)
            quarter = np.minimum(rng.integers(0, 1021, (300, n)) / 4.0, 255.0)
            uniform = rng.uniform(0.0, 255.0, (300, n))
            for patches in (integral, quarter, uniform):
                by_cell, by_lattice = both_gathers(lut, patches)
                assert by_cell.tobytes() == by_lattice.tobytes(), (q, m, signed)
                assert query_batch(lut, patches).tobytes() == by_cell.tobytes()
            # integral and quarter-step queries are exact: the oracle's bits
            for patches in (integral, quarter):
                np.testing.assert_array_equal(query_batch(lut, patches),
                                              window_oracle(lut, patches),
                                              err_msg=f"q={q} m={m} signed={signed}")
            checked += 1
        assert checked >= 10

    def test_built_once_on_first_query(self, monkeypatch):
        built = []
        monkeypatch.setattr(lut_module, "_pack_cells",
                            lambda entries: built.append(1) or _pack_cells(entries))
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        assert built == []                      # not by bake
        patches = integer_patches(np.random.default_rng(141), 50, 4)
        first = query_batch(lut, patches)
        np.testing.assert_array_equal(query_batch(lut, patches), first)
        assert built == [1]
        assert lut._cells is lut._cells

    def test_over_the_cap_gathers_lattice_rows(self, monkeypatch):
        # q3 n4 m4 would pack into 64 MiB: it is never built and the
        # queries count lattice points
        assert packed_bytes(3, 4, 4, 8) > _CELL_TABLE_BYTES
        monkeypatch.setattr(lut_module, "_pack_cells",
                            lambda entries: pytest.fail("cell table built"))
        rng = np.random.default_rng(142)
        lut = random_int_lut(rng, 3, 4, 4, signed=True)
        assert lut._cells is None
        for patches in (integer_patches(rng, 500, 4),
                        rng.integers(0, 1021, (500, 4)) / 4.0):
            np.testing.assert_array_equal(query_batch(lut, patches),
                                          window_oracle(lut, patches))
        # and the pipeline routes it the same way
        image = rng.integers(0, 256, (21, 17)).astype(np.uint8)
        table = random_int_lut(rng, 3, 4, 1)
        outs = [restore_image(image, PipelineConfig(task="restore", stages=[t]))
                for t in (table, dequantize(table))]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_first_queries_race(self):
        # threads that all make a fresh table's first query get the
        # lattice gather's bits, however the build interleaves
        rng = np.random.default_rng(146)
        entries = rng.integers(0, 256, (lattice_size(4),) * 4 + (4,))
        patches = integer_patches(rng, 3 * _CHUNK_ROWS // 4, 4)
        want = both_gathers(QuantizedLut(4, 4, 4, entries, signed=True), patches)[1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                lut = QuantizedLut(4, 4, 4, entries, signed=True)
                start = threading.Barrier(4)
                got = []

                def run():
                    start.wait(timeout=60)
                    got.append(query_batch(lut, patches).tobytes())

                threads = [threading.Thread(target=run) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert got == [want.tobytes()] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_real_tables_gather_lattice_rows(self):
        real = random_real_lut(np.random.default_rng(143), 5, 4, 1)
        assert real._cells is None


class FancyRowTake:
    """numpy, except that a 2-D row ``np.take`` is the fancy index ``a[indices]``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, indices, axis=None, out=None, mode="raise"):
        if axis == 0 and a.ndim == 2 and indices.ndim == 2:
            self.calls += 1
            if out is None:
                return a[indices]
            out[...] = a[indices]
            return out
        return np.take(a, indices, axis=axis, out=out, mode=mode)


class TestLatticeGather:
    """Rows too wide for one machine word are gathered with np.take, bit for bit."""

    @pytest.mark.parametrize("q, n, m, kind", [
        (4, 4, 4, "real"),          # 32-byte rows
        (6, 2, 16, "real"),
        (3, 4, 3, "signed"),        # quantized, past the cell-table cap
        (4, 4, 16, "unsigned"),
    ])
    def test_take_equals_the_fancy_index(self, monkeypatch, q, n, m, kind):
        rng = np.random.default_rng(160 + q * n * m)
        lut = (random_real_lut(rng, q, n, m) if kind == "real"
               else random_int_lut(rng, q, n, m, signed=kind == "signed"))
        assert lut._cells is None
        assert lut.m * lut.entries.itemsize not in (1, 2, 4, 8)
        integral = integer_patches(rng, 3 * _CHUNK_ROWS // lut.m + 5, n)
        uniform = rng.uniform(0.0, 255.0, (700, n))
        for patches in (integral, uniform):
            cells, frac = _decompose_arrays(np.ascontiguousarray(patches.T), lut.q)
            rows = _flat_rows(cells, lut.lattice_points)
            got = _fold_corners(lut.entries, rows, frac, lut.bias)
            fancy = FancyRowTake()
            monkeypatch.setattr(lut_module, "np", fancy)
            want = _fold_corners(lut.entries, rows, frac, lut.bias)
            monkeypatch.undo()
            assert fancy.calls == -(-len(patches) // (_CHUNK_ROWS // lut.m))
            assert got.tobytes() == want.tobytes()
            assert query_batch(lut, patches).tobytes() == got.tobytes()

    def test_fold_checks_the_base_row_range(self, monkeypatch):
        # the gather clips its indices, so a base row whose corners leave
        # the table must raise before any row is read: a real table and a
        # quantized one past the cell-table cap
        rng = np.random.default_rng(161)
        for lut in (random_real_lut(rng, 4, 4, 4), random_int_lut(rng, 3, 4, 1, signed=True)):
            assert lut._cells is None
            lattice = lut.lattice_points
            cells = rng.integers(0, lattice - 1, (50, lut.n))
            cells[0], cells[1] = 0, lattice - 2             # the first and the last cell
            rows = cells @ lattice ** np.arange(lut.n - 1, -1, -1)
            frac = rng.uniform(0.0, 1.0, (50, lut.n))
            corners = np.array(list(itertools.product((0, 1), repeat=lut.n)))
            acc = lut.entries[tuple(cells[None, :, d] + corners[:, None, d]
                                    for d in range(lut.n))] - float(lut.bias)
            for d in range(lut.n):
                lo, hi = acc[:len(acc) // 2], acc[len(acc) // 2:]
                acc = lo + (hi - lo) * frac[:, d, None]
            frac = np.ascontiguousarray(frac.T)
            got = _fold_corners(lut.entries, rows, frac, lut.bias)
            assert got.tobytes() == acc[0].tobytes()
            for bad in (rows[1] + 1, -1, lattice ** lut.n):
                wrong = rows.copy()
                wrong[17] = bad
                fancy = FancyRowTake()
                monkeypatch.setattr(lut_module, "np", fancy)
                with pytest.raises(IndexError):
                    _fold_corners(lut.entries, wrong, frac, lut.bias)
                monkeypatch.undo()
                assert fancy.calls == 0         # no clamped row was read


class TestScatterAdjoint:
    """``_scatter`` is the adjoint of ``_read``: <scatter(cols), table> = <cols, read(table)>."""

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("m", [1, 4, 9])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind, gather", [
        ("real", "lattice"), ("unsigned", "cells"), ("unsigned", "lattice"),
        ("signed", "cells"), ("signed", "lattice"),
    ])
    def test_dot_product(self, monkeypatch, kind, gather, n, m, integral):
        rng = np.random.default_rng(170 + 10 * n + m)
        q = 4 if n < 4 else 5
        if gather == "lattice":
            monkeypatch.setattr(lut_module, "_CELL_TABLE_BYTES", 0)
        lut = (random_real_lut(rng, q, n, m) if kind == "real"
               else random_int_lut(rng, q, n, m, signed=kind == "signed"))
        assert (lut._cells is not None) == (gather == "cells")
        # three queries of 3 x 700 anchors (more than one fold chunk at
        # m = 9), the first with the lattice's lowest and highest cells
        values = [rng.uniform(0.0, 255.0, (n, 3, 700)) for _ in range(3)]
        values[0][:, 0, :2] = [0.0, 255.0]
        if integral:
            values = [np.round(v) for v in values]
        queries = [_decompose_arrays(v, q) for v in values]
        assert all((fracs.dtype == np.float32) == integral for _, fracs in queries)
        cols = rng.standard_normal((m, len(queries), 3 * 700))
        grad = np.full(lut.entries.shape, np.nan)
        _scatter(grad, queries, cols)
        terms = [cols[:, i].T * _read(lut, query) for i, query in enumerate(queries)]
        lhs = np.sum(grad * real_table(lut))
        rhs = sum(np.sum(t) for t in terms)
        scale = sum(np.sum(np.abs(t)) for t in terms)
        assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs, scale)


class TestReadOnlyEntries:
    """Quantized entries cannot change under their cached cell table."""

    def test_in_place_write_raises(self):
        rng = np.random.default_rng(144)
        for lut in (random_int_lut(rng, 5, 2, 3),
                    random_int_lut(rng, 6, 2, 1, bit_depth=16, signed=True),
                    CoeffLut(6, 2, 4, np.full((5, 5, 4), 64, np.uint8)),
                    bake(lambda p: p[:, :1].copy(), q=6, n=2, m=1),
                    deserialize(serialize(random_int_lut(rng, 6, 2, 2)))):
            with pytest.raises(ValueError):
                lut.entries[0] = 1
            with pytest.raises(ValueError):
                lut.entries += 1
            with pytest.raises(AttributeError):   # the table is frozen too
                lut.entries = np.zeros_like(lut.entries)

    def test_callers_array_stays_writeable(self):
        for dtype in (np.uint8, np.int64):
            entries = np.zeros((5, 5, 2), dtype)
            lut = QuantizedLut(6, 2, 2, entries)
            assert entries.flags.writeable
            entries[...] = 7                    # the table kept its own copy
            assert not lut.entries.any()
        view = np.zeros((5, 5), np.uint8)
        lut = QuantizedLut(6, 2, 1, view[..., None])
        view[...] = 9
        assert view.flags.writeable and not lut.entries.any()

    def test_real_entries_stay_writeable(self):
        real = random_real_lut(np.random.default_rng(145), 6, 2, 1)
        real.entries[...] = 1.0                 # training updates in place
        assert (real.entries == 1.0).all()


def fold_peak(lut, count):
    """tracemalloc peak of one corner fold of ``count`` integral queries.

    The fold runs on a fresh thread, so its per-thread scratch starts
    empty and is counted in the peak.
    """
    rng = np.random.default_rng(count)
    values = rng.integers(0, 256, (lut.n, count)).astype(np.float64)
    cells, frac = _decompose_arrays(values, lut.q)
    rows = _flat_rows(cells, lut.lattice_points)
    out = []
    worker = threading.Thread(
        target=lambda: out.append(_fold_corners(lut.entries, rows, frac, lut.bias)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        worker.start()
        worker.join(timeout=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not worker.is_alive() and out[0].shape == (count, lut.m)
    return peak


class TestFoldScratch:
    """The fold's scratch memory is bounded by its chunk, not by the query count."""

    @pytest.mark.parametrize("q, m, signed", [(4, 1, False), (4, 4, True), (5, 4, False)])
    def test_peak_grows_only_by_the_output(self, q, m, signed):
        # S/q4 m1 main table, signed q4 m4 SR table, q5 n4 m4 coefficient table
        lut = random_int_lut(np.random.default_rng(q * m), q, 4, m, signed=signed)
        small, large = 1 << 15, 1 << 17
        growth = (large - small) * m * 8            # the (N, m) float64 output
        slack = 256 * 1024
        assert fold_peak(lut, large) - fold_peak(lut, small) <= growth + slack


class TestBake:
    def test_identity_entries(self):
        lut = bake(lambda p: p[:, :1].copy(), q=4, n=4, m=1)
        # anchor axis steps in cell widths; the 256 point clamps to 255
        want = np.minimum(np.arange(17) * 16, 255)
        got = lut.entries[:, 0, 0, 0, 0]
        np.testing.assert_array_equal(got, want)
        assert lut.entries.dtype == np.uint8

    def test_real_bake_keeps_top_point(self):
        real = bake_real(lambda p: p[:, :1].copy(), q=4, n=1, m=1)
        assert real.entries[16, 0] == 256.0

    @pytest.mark.parametrize("q, n", [(5, 2), (4, 4)])
    def test_oracle_sees_every_lattice_point(self, q, n):
        # point i of an axis sits at i * 2**q, the top one at 256; the
        # 17**4 points of (4, 4) reach the oracle over several calls
        real = bake_real(lambda p: p.copy(), q=q, n=n, m=n)
        axis = np.arange(lattice_size(q)) * 2.0 ** q
        assert axis[-1] == 256.0
        want = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
        np.testing.assert_array_equal(real.entries, want)

    def test_oracle_shape_mismatch(self):
        with pytest.raises(ValueError):
            bake_real(lambda p: np.zeros((p.shape[0], 2)), q=5, n=2, m=1)

    def test_oracle_failure_carries_location(self):
        def broken(p):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="lattice"):
            bake_real(broken, q=5, n=2, m=1)

    def test_non_finite_rejected(self):
        def nanny(p):
            out = np.zeros((p.shape[0], 1))
            out[0] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            bake_real(nanny, q=5, n=2, m=1)


class TestQuantize:
    def test_signed_bias(self):
        real = RealLut(6, 1, 1, np.array([[-3.0], [0.0], [2.0], [-128.0], [127.0]]))
        lut, report = quantize(real, signed=True)
        np.testing.assert_array_equal(lut.entries[:, 0], [125, 128, 130, 0, 255])
        assert report.clipped == 0
        back = dequantize(lut)
        np.testing.assert_array_equal(back.entries, real.entries)

    def test_clipping_counted(self):
        real = RealLut(6, 1, 1, np.array([[300.0], [-5.0], [100.0], [0.0], [255.0]]))
        lut, report = quantize(real)
        assert report.clipped == 2
        np.testing.assert_array_equal(lut.entries[:, 0], [255, 0, 100, 0, 255])

    def test_rounding_error_bound(self):
        rng = np.random.default_rng(5)
        real = random_real_lut(rng, 5, 2, 3)
        lut, report = quantize(real)
        assert report.max_error <= 0.5
        assert np.abs(dequantize(lut).entries - real.entries).max() <= 0.5

    @pytest.mark.parametrize("signed", [False, True])
    def test_chunked_rounding_matches_whole_table(self, signed):
        # more than two rounding chunks, clipped values on both sides of
        # every chunk seam: entries and report equal the whole-table result
        rng = np.random.default_rng(147)
        real = random_real_lut(rng, 4, 4, 1, scale=1.0)
        real.entries[...] = rng.uniform(-200.0, 400.0, real.entries.shape)
        lut, report = quantize(real, signed=signed)
        bias = 128 if signed else 0
        raw = round_half_away(real.entries) + bias
        assert real.entries.size > 2 * _CHUNK_ROWS
        np.testing.assert_array_equal(lut.entries, np.clip(raw, 0, 255))
        inside = (raw >= 0) & (raw <= 255)
        assert report.clipped == np.count_nonzero(~inside)
        assert report.max_error == np.abs(raw - bias - real.entries)[inside].max()
        # nothing representable: no rounding error to report
        _, report = quantize(RealLut(6, 1, 1, np.full((5, 1), 1e6)))
        assert (report.max_error, report.clipped) == (float("inf"), 5)


class TestContainer:
    def test_header_is_32_bytes(self):
        lut = bake(lambda p: p[:, :1].copy(), q=6, n=2, m=1)
        blob = serialize(lut)
        assert blob[:4] == MAGIC
        assert len(blob) == HEADER_SIZE + lut.entries.size

    def test_quantized_round_trip(self):
        rng = np.random.default_rng(6)
        for signed in (False, True):
            entries = rng.integers(0, 256, size=(9,) * 2 + (3,)).astype(np.uint8)
            lut = QuantizedLut(5, 2, 3, entries, signed=signed)
            back = deserialize(serialize(lut))
            assert type(back) is QuantizedLut
            assert back.signed == signed
            assert (back.q, back.n, back.m) == (5, 2, 3)
            np.testing.assert_array_equal(back.entries, entries)

    def test_coeff_round_trip(self):
        entries = np.tile(np.array([4, 3, 2, 1], dtype=np.uint8), (5, 5, 1))
        lut = CoeffLut(6, 2, 4, entries)
        back = deserialize(serialize(lut))
        assert isinstance(back, CoeffLut)
        assert back.k == 4

    def test_real_round_trip(self):
        rng = np.random.default_rng(7)
        lut = random_real_lut(rng, 6, 2, 2, scale=1.0)
        back = deserialize(serialize(lut))
        assert isinstance(back, RealLut)
        np.testing.assert_array_equal(back.entries, lut.entries)

    def test_bad_magic(self):
        blob = bytearray(serialize(bake(lambda p: p[:, :1].copy(), q=6, n=1, m=1)))
        blob[:4] = b"WHAT"
        with pytest.raises(BadMagicError):
            deserialize(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(serialize(bake(lambda p: p[:, :1].copy(), q=6, n=1, m=1)))
        blob[4] = FORMAT_VERSION + 1
        with pytest.raises(VersionMismatchError):
            deserialize(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFileError):
            deserialize(b"ALUT\x01\x00")

    def test_truncated_payload(self):
        blob = serialize(bake(lambda p: p[:, :1].copy(), q=6, n=2, m=1))
        with pytest.raises(TruncatedFileError):
            deserialize(blob[:-3])

    def test_corrupt_payload(self):
        blob = bytearray(serialize(bake(lambda p: p[:, :1].copy(), q=6, n=2, m=1)))
        blob[HEADER_SIZE] ^= 0xFF
        with pytest.raises(ChecksumError):
            deserialize(bytes(blob))

    def test_file_round_trip_and_inspect(self, tmp_path):
        lut = bake(lambda p: np.tile(p[:, :1], (1, 4)), q=5, n=4, m=4, signed=True)
        path = tmp_path / "table.lut"
        save_lut(lut, path)
        header = inspect_file(path)
        assert (header.q, header.n, header.m) == (5, 4, 4)
        assert header.k == 0
        assert header.signed and not header.real_valued
        assert header.entry_count == 9 ** 4 * 4
        back = load_lut(path)
        np.testing.assert_array_equal(back.entries, lut.entries)

    @pytest.mark.parametrize("q, n, m, bit_depth, count", [
        (0, 1, 1, 8, 17), (8, 1, 1, 8, 17), (4, 0, 1, 8, 1), (4, 1, 0, 8, 0),
        (4, 1, 1, 12, 17)])
    def test_bad_geometry_is_file_error(self, q, n, m, bit_depth, count, tmp_path):
        # valid magic, version and CRC, and an entry count that agrees with
        # the header; only the geometry itself is impossible
        blob = _pack_container(np.zeros(count, dtype=np.uint8), q, n, m, 0, 0, bit_depth)
        with pytest.raises(LutFileError, match="geometry|bit depth"):
            deserialize(blob)
        path = tmp_path / "bad.lut"
        path.write_bytes(blob)
        with pytest.raises(LutFileError, match="geometry|bit depth"):
            inspect_file(path)

    def test_signed_coeff_header_is_file_error(self):
        # a coefficient table's weights are unsigned: a signed header
        # with k > 0 is refused, the same bytes with k = 0 load
        entries = np.full((5, 5, 4), 200, dtype=np.uint8)
        blob = _pack_container(entries, 6, 2, 4, 4, FLAG_SIGNED, 8)
        with pytest.raises(LutFileError, match="signed"):
            deserialize(blob)
        assert deserialize(_pack_container(entries, 6, 2, 4, 0, FLAG_SIGNED, 8)).signed

    def test_flags_layout(self):
        assert FLAG_SIGNED == 0x0001
        assert FLAG_REAL == 0x0002


class TestValidation:
    def test_coeff_table_refuses_signed(self):
        entries = np.full((lattice_size(5),) * 4 + (4,), 128, dtype=np.uint8)
        with pytest.raises(ValueError, match="unsigned"):
            CoeffLut(5, 4, 4, entries, signed=True)
        assert not CoeffLut(5, 4, 4, entries).signed

    def test_entry_shape_checked(self):
        with pytest.raises(ValueError):
            QuantizedLut(4, 4, 1, np.zeros((16,) * 4 + (1,), dtype=np.uint8))

    def test_real_entry_shape_checked(self):
        with pytest.raises(ValueError):
            RealLut(4, 2, 1, np.zeros((17, 16, 1)))

    def test_integer_range_checked(self):
        bad = np.full((5, 5, 1), 300, dtype=np.int64)
        with pytest.raises(ValueError):
            QuantizedLut(6, 2, 1, bad)
