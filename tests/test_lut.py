"""Lattice table storage, decomposition, interpolation, and container I/O."""

import itertools

import numpy as np
import pytest

from lutpool import (
    BadMagicError,
    ChecksumError,
    CoeffLut,
    LatticeQuery,
    LutFileError,
    PipelineConfig,
    PoolingSpec,
    QuantizedLut,
    RealLut,
    TruncatedFileError,
    VersionMismatchError,
    bake,
    bake_real,
    decompose,
    dequantize,
    deserialize,
    inspect_file,
    interpolate,
    lattice_size,
    lattice_values,
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
from lutpool.lut import (FLAG_REAL, FLAG_SIGNED, FORMAT_VERSION, HEADER_SIZE, MAGIC,
                         _CHUNK_ROWS, _decompose_arrays, _pack_container,
                         real_table)
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
        lq = decompose(np.array([31.0, 32.0]), 5)
        np.testing.assert_array_equal(lq.base_index, [0, 1])
        np.testing.assert_allclose(lq.fractions, [31.0 / 32.0, 0.0], rtol=0, atol=0)

    def test_mid_cell_q4(self):
        lq = decompose(np.array([8.0]), 4)
        assert lq.base_index[0] == 0
        assert lq.fractions[0] == 0.5

    def test_top_of_range(self):
        # 255 falls inside the top cell, blending toward the 256 point
        lq = decompose(np.array([255.0]), 4)
        assert lq.base_index[0] == 15
        assert lq.fractions[0] == 15.0 / 16.0

    def test_fraction_exactness(self):
        rng = np.random.default_rng(11)
        for q in (2, 4, 5, 6):
            vals = rng.integers(0, 256, size=200).astype(np.float64)
            lq = decompose(vals, q)
            recon = (lq.base_index + lq.fractions) * (2 ** q)
            np.testing.assert_array_equal(recon, vals)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.array([-1.0]), 4)
        with pytest.raises(ValueError):
            decompose(np.array([256.0]), 4)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            LatticeQuery(np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            LatticeQuery(np.array([0]), np.array([-0.1]))


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
        vals = lattice_values(5)[:-1]  # 256 itself is out of query range
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

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_chunk_boundaries(self, m):
        rng = np.random.default_rng(130 + m)
        lut = random_int_lut(rng, 4, 4, m, signed=True)
        for rows in (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1):
            patches = integer_patches(rng, rows, 4)
            got = query_batch(lut, patches)
            assert got.shape == (rows, m)
            base, frac = _decompose_arrays(patches, 4)
            want = weight_product_interpolate(real_table(lut), base, frac)
            np.testing.assert_array_equal(got, want, err_msg=f"rows={rows}")

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

    def test_coeff_flag_builds_coeff_lut(self):
        real = RealLut(6, 1, 4, np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)))
        lut, _ = quantize(real, coeff=True)
        assert isinstance(lut, CoeffLut)
        assert lut.k == 4


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

    def test_flags_layout(self):
        assert FLAG_SIGNED == 0x0001
        assert FLAG_REAL == 0x0002


class TestValidation:
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
