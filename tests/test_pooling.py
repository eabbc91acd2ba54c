"""Fusion strategies: averaging, soft-median, and adaptive weighting."""

import math
import warnings

import numpy as np
import pytest

from lutpool import (
    CoeffLut,
    FusionResult,
    PoolingSpec,
    RealLut,
    average_weights,
    bake_real,
    combine,
    fuse_average,
    fuse_gmp,
    fuse_oap,
    gmp_weights,
    lattice_size,
    oap_weights,
    query_batch,
    softmax,
)
from lutpool.pooling import _distances, _weights_adjoint


def gmp_distances(xs, norm="l2"):
    """Distance of each prediction from the ensemble mean, (k, N).

    Also returns the deviations from the mean (k, N, m) and the mean.
    The soft-median's distances as :func:`~lutpool.pooling.gmp_weights`
    forms them: the oracle that c03 and the weight tests measure
    temperature limits and nearest predictions by.
    """
    mean = np.mean(xs, axis=0)
    return _distances(xs, mean, norm), xs - mean[None], mean


def simplex_project_check(weights, atol: float = 1e-9) -> bool:
    """True when weights are a point of the probability simplex, to c04's tolerance."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        return False
    if not np.all(np.isfinite(w)):
        return False
    if np.any(w < -atol):
        return False
    return bool(abs(w.sum() - 1.0) <= atol)


def scalar_gmp(xs, tau, norm="l2"):
    """Loop-and-math.exp reference for the soft-median weights."""
    xs = np.asarray(xs, dtype=np.float64)
    k, m = xs.shape
    mean = [sum(xs[i][j] for i in range(k)) / k for j in range(m)]
    dist = []
    for i in range(k):
        if norm == "l2":
            dist.append(math.sqrt(sum((xs[i][j] - mean[j]) ** 2 for j in range(m))))
        else:
            dist.append(sum(abs(xs[i][j] - mean[j]) for j in range(m)))
    lo = min(dist)
    raw = [math.exp(-(d - lo) / tau) for d in dist]
    total = sum(raw)
    w = [r / total for r in raw]
    out = [sum(w[i] * xs[i][j] for i in range(k)) for j in range(m)]
    return np.array(w), np.array(out)


class TestSoftmax:
    def test_equal_logits_exactly_uniform(self):
        w = softmax(np.zeros(4))
        np.testing.assert_array_equal(w, np.full(4, 0.25))
        w = softmax(np.full((3, 5), -7.25), axis=0)
        np.testing.assert_array_equal(w, np.full((3, 5), 1.0 / 3.0))

    def test_known_values(self):
        w = softmax(np.array([math.log(3.0), 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(w, [0.5, 1 / 6, 1 / 6, 1 / 6], rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 6))
        np.testing.assert_allclose(softmax(z, axis=0), softmax(z + 123.0, axis=0),
                                   rtol=0, atol=1e-12)

    def test_large_logits_finite(self):
        w = softmax(np.array([1e6, 0.0, -1e6]))
        assert np.all(np.isfinite(w))
        assert w[0] == pytest.approx(1.0)


class TestCombine:
    def test_matches_manual_sum(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 255, (4, 7, 2))
        w = softmax(rng.normal(size=(4, 7)), axis=0)
        want = np.zeros((7, 2))
        for i in range(4):
            want += w[i][:, None] * xs[i]
        np.testing.assert_allclose(combine(xs, w), want, rtol=0, atol=1e-12)

    def test_average_weights(self):
        w = average_weights(4, 3)
        assert w.shape == (4, 3)
        np.testing.assert_array_equal(w, 0.25)
        assert not w.flags.writeable       # a broadcast of 1/k, not an array of its own


class TestGmpDistances:
    def test_l2_hand_case(self):
        xs = np.array([[[3.0, 4.0]], [[-3.0, -4.0]]])
        d, dev, mean = gmp_distances(xs)
        np.testing.assert_array_equal(mean, [[0.0, 0.0]])
        np.testing.assert_allclose(d, [[5.0], [5.0]])
        np.testing.assert_array_equal(dev[0], [[3.0, 4.0]])

    def test_l1_hand_case(self):
        xs = np.array([[[3.0, 4.0]], [[-3.0, -4.0]]])
        d, _, _ = gmp_distances(xs, norm="l1")
        np.testing.assert_allclose(d, [[7.0], [7.0]])

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            gmp_distances(np.zeros((2, 1, 1)), norm="linf")


class TestGmpWeights:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for norm in ("l2", "l1"):
            for tau in (0.5, 8.0, 1e3):
                xs = rng.uniform(0, 255, (4, 4))
                w_ref, out_ref = scalar_gmp(xs, tau, norm)
                w = gmp_weights(xs[:, None, :], tau, norm)[:, 0]
                np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)
                out = combine(xs[:, None, :], w[:, None])[0]
                np.testing.assert_allclose(out, out_ref, rtol=0, atol=1e-12)

    def test_huge_tau_recovers_average(self):
        # full-range inputs: deviations up to ~255, so the logit spread
        # is ~255/tau and the fused output sits within d*spread of the mean
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 255, (4, 100, 4))
        w = gmp_weights(xs, 1e12)
        fused = combine(xs, w)
        np.testing.assert_allclose(fused, xs.mean(axis=0), rtol=0, atol=1e-6)

    def test_tiny_tau_snaps_to_nearest_mean(self):
        xs = np.array([[10.0], [11.0], [14.0], [200.0]])[:, None, :]
        w = gmp_weights(xs, 1e-6)
        # mean 58.75; 14 is closest
        assert w[2, 0] >= 1.0 - 1e-6
        fused = combine(xs, w)[0, 0]
        assert fused == pytest.approx(14.0, abs=1e-4)

    def test_worked_outlier_case(self):
        # one corrupted orientation among four near-identical ones:
        # mean 112.75, and 130 is the prediction closest to it
        xs = np.array([130.0, 131.0, 134.0, 56.0])[:, None, None]
        w = gmp_weights(xs, 1e-6)
        assert int(np.argmax(w[:, 0])) == 0
        assert w[0, 0] >= 1.0 - 1e-6
        # moderate temperature still leaves the outlier nearly ignored
        w = gmp_weights(xs, 8.0)
        assert w[3, 0] < 0.01
        fused = combine(xs, w)[0, 0]
        assert abs(fused - 130.0) < abs(xs[:, 0, 0].mean() - 130.0)

    def test_equal_predictions_uniform(self):
        xs = np.full((4, 3, 2), 99.0)
        w = gmp_weights(xs, 1e-9)
        np.testing.assert_array_equal(w, 0.25)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_subnormal_tau_stays_finite(self, norm):
        # every -d / tau overflows to -inf: the plain softmax gave NaN
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 255, (4, 8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = gmp_weights(xs, 1e-320, norm)
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        d, _, _ = gmp_distances(xs, norm)
        nearest = d == d.min(axis=0)
        np.testing.assert_array_equal(w, nearest / nearest.sum(axis=0))
        assert PoolingSpec(kind="gmp", tau=1e-320).tau == 1e-320

    @pytest.mark.parametrize("tau", [8.0, 1e-300])
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_finite_temperatures_keep_their_bits(self, tau, norm):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 255, (4, 64, 4))
        xs[:, :4] = 99.0   # all-equal anchors too
        d, _, _ = gmp_distances(xs, norm)
        assert gmp_weights(xs, tau, norm).tobytes() == softmax(-d / tau, axis=0).tobytes()

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            gmp_weights(np.zeros((4, 1, 1)), 0.0)
        with pytest.raises(ValueError):
            gmp_weights(np.zeros((4, 1, 1)), -1.0)
        for tau in (np.inf, np.nan):            # inf gave uniform weights
            with pytest.raises(ValueError):
                gmp_weights(np.ones((4, 1, 1)), tau)


def np_sum_distances(xs, norm):
    """The soft-median distances as whole-ensemble ``np.sum`` formulas.

    The oracle for the bits of :func:`gmp_distances` and
    :func:`gmp_weights`, which build them one orientation at a time.
    """
    dev = xs - np.mean(xs, axis=0)[None]
    if norm == "l2":
        return np.sqrt(np.sum(dev * dev, axis=-1))
    return np.sum(np.abs(dev), axis=-1)


def np_sum_gmp_weights(xs, tau, norm):
    d = np_sum_distances(xs, norm)
    with np.errstate(over="ignore"):
        u = -d / tau
        lost = ~np.isfinite(u.max(axis=0))
        if lost.any():
            near = d[:, lost]
            u[:, lost] = -(near - near.min(axis=0)) / tau
    return softmax(u, axis=0)


def np_sum_combine(xs, weights):
    """The blend as one ``np.sum`` over a (k, N, m) product: the oracle for :func:`combine`."""
    return np.sum(weights[:, :, None] * xs, axis=0)


class TestSummationOrder:
    """Fusion built per orientation keeps the bits of the whole-ensemble sums."""

    @staticmethod
    def ensembles(rng, m):
        for k in (1, 2, 4):
            for count in (1, 2, 37, 300):
                xs = rng.normal(0.0, 40.0, (k, count, m)) * 10.0 ** rng.integers(-4, 4, (k, count, m))
                xs[:, : count // 3] = np.round(xs[:, : count // 3])   # ties and integers
                xs[:, count // 2: count // 2 + 2] = 0.0                 # all-equal anchors
                xs[:, -1:] = -0.0                                      # sums start at +0.0
                yield xs

    @pytest.mark.parametrize("tau", [8.0, 1e-320])
    @pytest.mark.parametrize("m", [1, 4, 9, 16])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gmp_weights_keep_their_bits(self, norm, m, tau):
        rng = np.random.default_rng([m, int(tau > 1.0)])
        for xs in self.ensembles(rng, m):
            assert gmp_distances(xs, norm)[0].tobytes() == np_sum_distances(xs, norm).tobytes()
            assert gmp_weights(xs, tau, norm).tobytes() == np_sum_gmp_weights(xs, tau, norm).tobytes()

    @pytest.mark.parametrize("tau", [1e-307, 1e-310])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_tiny_tau_keeps_its_bits(self, norm, tau):
        # anchors whose nearest d / tau overflows beside anchors whose does not
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 255.0, (4, 400, 4)) * 10.0 ** rng.integers(-8, 1, (1, 400, 1))
        xs[:, :3] = 7.0                                        # all-equal anchors
        d = np_sum_distances(xs, norm)
        with np.errstate(over="ignore"):
            lost = ~np.isfinite(d.min(axis=0) / tau)
        assert lost.any() and not lost.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = gmp_weights(xs, tau, norm)
        assert w.tobytes() == np_sum_gmp_weights(xs, tau, norm).tobytes()

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_combine_keeps_its_bits(self, m):
        rng = np.random.default_rng(m)
        for xs in self.ensembles(rng, m):
            k, count, _ = xs.shape
            for weights in (gmp_weights(xs, 8.0), average_weights(k, count),
                            rng.dirichlet(np.ones(k), count).T,
                            np.eye(k)[rng.integers(k, size=count)].T):
                assert combine(xs, weights).tobytes() == np_sum_combine(xs, weights).tobytes()


def constant_logit_real_coeff(logits, q=6, n=4):
    logits = np.asarray(logits, dtype=np.float64)
    return bake_real(lambda p: np.tile(logits, (p.shape[0], 1)),
                     q=q, n=n, m=logits.size)


def constant_entry_coeff(values, q=6, n=4):
    values = np.asarray(values, dtype=np.uint8)
    shape = (lattice_size(q),) * n + (values.size,)
    entries = np.broadcast_to(values, shape).copy()
    return CoeffLut(q, n, values.size, entries)


class TestOapWeights:
    def test_real_logits_softmaxed(self):
        coeff = constant_logit_real_coeff([math.log(3.0), 0.0, 0.0, 0.0])
        rng = np.random.default_rng(4)
        patches = rng.uniform(0, 255, (5, 4))
        w = oap_weights(patches, coeff)
        assert w.shape == (4, 5)
        np.testing.assert_allclose(w[:, 0], [0.5, 1 / 6, 1 / 6, 1 / 6],
                                   rtol=0, atol=1e-12)

    def test_quantized_sum_normalized(self):
        coeff = constant_entry_coeff([2, 1, 1, 0])
        patches = np.array([[10.0, 20.0, 30.0, 40.0]])
        w = oap_weights(patches, coeff)
        np.testing.assert_allclose(w[:, 0], [0.5, 0.25, 0.25, 0.0], rtol=0, atol=1e-15)

    def test_all_zero_entries_fall_back_to_uniform(self):
        coeff = constant_entry_coeff([0, 0, 0, 0])
        w = oap_weights(np.array([[1.0, 2.0, 3.0, 4.0]]), coeff)
        np.testing.assert_array_equal(w[:, 0], 0.25)

    def test_zero_total_rows_get_uniform_weights(self):
        # rows of a CoeffLut that are all zero: anchors on those lattice
        # points fall back to exactly 1/k, every other anchor gets
        # raw / total, and no division by zero is ever evaluated
        rng = np.random.default_rng(9)
        q, n, k = 5, 4, 4
        entries = rng.integers(0, 256, (lattice_size(q),) * n + (k,)).astype(np.uint8)
        zero = rng.random(entries.shape[:-1]) < 0.3
        entries[zero] = 0
        coeff = CoeffLut(q, n, k, entries)
        cells = rng.integers(0, lattice_size(q) - 1, (2000, n))
        patches = cells * float(2 ** q)            # on lattice points: one row read
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = oap_weights(patches, coeff)
        raw = entries[tuple(cells.T)].astype(np.float64)
        total = raw.sum(axis=1, keepdims=True)
        hit = zero[tuple(cells.T)]
        assert hit.any() and not hit.all()
        assert np.all(w[:, hit] == 1.0 / k)
        assert w[:, ~hit].tobytes() == (raw[~hit] / total[~hit]).T.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
    def test_quantized_weights_keep_their_bits(self, k):
        # the per-anchor totals add the k columns in sequence; the oracle
        # is np.sum over the short axis, zero totals falling back to 1/k
        rng = np.random.default_rng(k)
        entries = rng.integers(0, 256, (lattice_size(5),) * 4 + (k,)).astype(np.uint8)
        entries[rng.random(entries.shape[:-1]) < 0.3] = 0
        coeff = CoeffLut(5, 4, k, entries)
        patches = rng.uniform(0, 255, (3000, 4))
        patches[::3] = np.floor(patches[::3] / 32.0) * 32.0    # lattice points
        raw = query_batch(coeff, patches)
        total = np.sum(raw, axis=1, keepdims=True)
        want = np.full_like(raw, 1.0 / k)
        np.divide(raw, total, out=want, where=total > 0.0)
        assert (total == 0.0).any()
        w = oap_weights(patches, coeff)
        assert w.flags.c_contiguous
        assert w.tobytes() == np.ascontiguousarray(want.T).tobytes()
        keep = total[:, 0] > 0.0
        assert oap_weights(patches[keep], coeff).tobytes() == \
            np.ascontiguousarray(want[keep].T).tobytes()

    def test_rejects_signed_table(self):
        # a signed table's biased entries would give weights off the
        # simplex; it is refused before the query runs, as is a non-table
        shape = (lattice_size(6),) * 4 + (4,)
        from lutpool import QuantizedLut
        signed = QuantizedLut(6, 4, 4, np.full(shape, 128, dtype=np.uint8), signed=True)
        reads = []
        for table in (signed, object()):
            with pytest.raises(TypeError, match="unsigned quantized table"):
                oap_weights(np.zeros((1, 4)), table, query=lambda *a: reads.append(a))
        assert reads == []
        with pytest.raises(TypeError):
            oap_weights(np.zeros((1, 4)), signed)


class TestWeightsAdjoint:
    """``_weights_adjoint`` against central differences of L = sum(c * alpha).

    With dL/dalpha = c handed in, the softmax logits' gradient it leaves
    in ``s``, gmp's ensemble gradient it leaves in ``xs`` and the
    log-temperature gradient it returns must each match the directional
    derivative of L along a random direction.
    """

    @staticmethod
    def central(loss, h=1e-5):
        return (loss(h) - loss(-h)) / (2.0 * h)

    @pytest.mark.parametrize("tau", [0.5, 3.0])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gmp(self, norm, m, tau):
        rng = np.random.default_rng([m, int(tau), norm == "l2"])
        xs = rng.normal(0.0, 2.0, (4, 60, m))
        c = rng.standard_normal((4, 60))
        direction = rng.standard_normal(xs.shape)

        def loss(xs, tau):
            return float(np.sum(c * gmp_weights(xs, tau, norm)))

        s, terms = c.copy(), xs.copy()
        log_tau_grad = _weights_adjoint(PoolingSpec("gmp", tau=tau, norm=norm),
                                        gmp_weights(xs, tau, norm), s, terms)
        want = self.central(lambda h: loss(xs + h * direction, tau))
        assert np.sum(terms * direction) == pytest.approx(want, rel=1e-7, abs=1e-9)
        # the log-temperature's gradient, tau * dL/dtau
        want = self.central(lambda h: loss(xs, tau * math.exp(h)))
        assert log_tau_grad == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_oap(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 60))
        c = rng.standard_normal(logits.shape)
        direction = rng.standard_normal(logits.shape)
        s = c.copy()
        pool = PoolingSpec("oap", coeff_lut=constant_logit_real_coeff(np.zeros(4)))
        assert _weights_adjoint(pool, softmax(logits, axis=0), s) == 0.0
        want = self.central(
            lambda h: float(np.sum(c * softmax(logits + h * direction, axis=0))))
        assert np.sum(s * direction) == pytest.approx(want, rel=1e-7, abs=1e-9)


class TestPoolingSpec:
    def test_defaults(self):
        spec = PoolingSpec()
        assert spec.kind == "average"
        assert spec.norm == "l2"

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolingSpec(kind="median")
        with pytest.raises(ValueError):
            PoolingSpec(kind="gmp", tau=0.0)
        with pytest.raises(ValueError):
            PoolingSpec(norm="linf")
        with pytest.raises(ValueError):
            PoolingSpec(kind="oap")
        PoolingSpec(kind="oap", coeff_lut=constant_entry_coeff([1, 1, 1, 1]))

    @pytest.mark.parametrize("kind", ["average", "gmp", "oap"])
    def test_every_kind_refuses_a_bad_temperature(self, kind):
        # a pipeline.json cannot store inf or NaN, whichever kind holds it
        coeff = constant_entry_coeff([1, 1, 1, 1]) if kind == "oap" else None
        for tau in (np.inf, -np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                PoolingSpec(kind=kind, tau=tau, coeff_lut=coeff)


class TestFuseWrappers:
    def test_average(self):
        xs = np.array([[0.0, 8.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        res = fuse_average(xs)
        assert isinstance(res, FusionResult)
        np.testing.assert_allclose(res.output, [3.0, 2.0])
        np.testing.assert_array_equal(res.weights, 0.25)

    def test_gmp(self):
        xs = np.array([[130.0], [131.0], [134.0], [56.0]])
        res = fuse_gmp(xs, 1e-6)
        np.testing.assert_allclose(res.output, [130.0], rtol=0, atol=1e-4)

    def test_oap(self):
        coeff = constant_entry_coeff([2, 1, 1, 0])
        xs = np.array([[100.0], [200.0], [200.0], [255.0]])
        res = fuse_oap(xs, [5.0, 6.0, 7.0, 8.0], coeff)
        np.testing.assert_allclose(res.output, [0.5 * 100 + 0.25 * 200 + 0.25 * 200])

    def test_oap_orientation_count_mismatch(self):
        coeff = constant_entry_coeff([1, 1])
        with pytest.raises(ValueError):
            fuse_oap(np.zeros((4, 1)), np.zeros(4), coeff)

    def test_scalar_inputs_promoted(self):
        res = fuse_average(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(res.output, [2.5])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            fuse_average(np.zeros((2, 2, 2)))


class TestSimplexAndHull:
    def test_simplex_check_frozen_cases(self):
        assert simplex_project_check([0.25, 0.25, 0.25, 0.25])
        assert simplex_project_check([1.0, 0.0, 0.0, 0.0])
        assert not simplex_project_check([0.5, 0.6])
        assert not simplex_project_check([1.5, -0.5])
        assert not simplex_project_check([np.nan, 1.0])
        assert not simplex_project_check(np.zeros((2, 2)))
        assert not simplex_project_check([])

    def test_all_strategies_stay_on_simplex_and_in_hull(self):
        rng = np.random.default_rng(5)
        coeff_real = constant_logit_real_coeff([0.3, -0.1, 0.6, 0.0])
        coeff_int = constant_entry_coeff([7, 3, 200, 0])
        for _ in range(200):
            xs = rng.uniform(0, 255, (4, 2))
            tau = float(10.0 ** rng.uniform(-6, 6))
            patch = rng.uniform(0, 255, 4)
            results = [
                fuse_average(xs),
                fuse_gmp(xs, tau),
                fuse_gmp(xs, tau, norm="l1"),
                fuse_oap(xs, patch, coeff_real),
                fuse_oap(xs, patch, coeff_int),
            ]
            lo = xs.min(axis=0) - 1e-9
            hi = xs.max(axis=0) + 1e-9
            for res in results:
                assert simplex_project_check(res.weights)
                assert np.all(res.output >= lo)
                assert np.all(res.output <= hi)
