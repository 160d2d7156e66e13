from fractions import Fraction

import numpy as np
import pytest

import oracles
from ushrink import (
    InsufficientSampleError,
    ParameterError,
    default_c,
    dimension_threshold,
    mu_check,
    mu_check_c,
)

TWO_BY_FIVE = np.array([[2.0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0]])


class TestMuCheck:
    def test_hand_example(self):
        res = mu_check(TWO_BY_FIVE)
        assert np.array_equal(res.xbar, [1, 1, 0, 0, 0])
        assert res.s2 == 4.0
        assert res.report.alpha == 0.5
        assert np.array_equal(res.estimate, [0.5, 0.5, 0, 0, 0])

    def test_zero_variance_no_shrinkage(self):
        x0 = np.array([1.5, -2.0])
        res = mu_check(np.tile(x0, (4, 1)))
        assert res.s2 == 0.0
        assert res.report.alpha == 0.0
        assert np.array_equal(res.estimate, x0)

    def test_all_zero_data(self):
        res = mu_check(np.zeros((3, 4)))
        assert res.report.alpha == 0.0
        assert np.array_equal(res.estimate, np.zeros(4))

    def test_too_small(self):
        with pytest.raises(InsufficientSampleError):
            mu_check(np.ones((1, 3)))


class TestMuCheckC:
    def test_c_one_reproduces_mu_check(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 3))
        a, b = mu_check(data), mu_check_c(data, 1.0)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.report.alpha == b.report.alpha

    def test_vanishing_c_limit(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 4)) + 2.0
        res = mu_check_c(data, 1e-9)
        gap = np.linalg.norm(res.estimate - res.xbar)
        assert gap <= 1e-8 * np.linalg.norm(res.xbar)

    def test_hand_example_damped(self):
        res = mu_check_c(TWO_BY_FIVE, 0.4)
        assert np.allclose(res.estimate, 0.8 * np.array([1, 1, 0, 0, 0]), atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 2.0, -0.5, 2.4])
    def test_c_outside_open_interval(self, c):
        with pytest.raises(ParameterError):
            mu_check_c(TWO_BY_FIVE, c)

    def test_shrink_factor_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for c in (0.2, 0.7, 1.0):
            data = rng.normal(size=(5, 3))
            res = mu_check_c(data, c)
            factor = 1.0 - c * res.report.alpha
            assert 0.0 <= factor <= 1.0
            assert np.allclose(res.estimate, factor * res.xbar, rtol=0, atol=0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 4))
        base = mu_check(data)
        for s in (2.0, -3.5, 0.25):
            scaled = mu_check(s * data)
            assert scaled.report.alpha == pytest.approx(base.report.alpha, rel=1e-12)
            assert np.allclose(scaled.estimate, s * base.estimate, rtol=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 4))
        q, r = np.linalg.qr(rng.normal(size=(4, 4)))
        q = q * np.sign(np.diagonal(r))
        base = mu_check(data)
        rotated = mu_check(data @ q.T)
        assert rotated.report.alpha == pytest.approx(base.report.alpha, rel=1e-12)
        assert np.allclose(rotated.estimate, base.estimate @ q.T, atol=1e-12)

    @pytest.mark.parametrize("rows", [
        [[1e200, 0.0], [-1e200, 0.0], [3.0, 4.0]],  # S^2 overflows
        [[1e155, 1e155], [1e155, 1e155]],  # S^2 = 0, ||Xbar||^2 overflows
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises(self, rows):
        with pytest.raises(ValueError, match="overflow"):
            mu_check_c(rows, 0.5)

    def test_serialization(self):
        d = mu_check(TWO_BY_FIVE).to_dict()
        assert d["alpha"] == 0.5
        assert d["estimate"] == [0.5, 0.5, 0, 0, 0]


class TestConstants:
    def test_default_c_small_n(self):
        assert default_c(2) == pytest.approx(0.4)

    def test_default_c_n10(self):
        assert default_c(10) == pytest.approx(18 / 29)

    def test_default_c_limit(self):
        assert default_c(10**6) == pytest.approx(2 / 3, abs=1e-6)

    def test_default_c_too_small(self):
        with pytest.raises(InsufficientSampleError):
            default_c(1)

    def test_threshold_n2(self):
        assert dimension_threshold(2, 1.0) == pytest.approx(6.0)

    def test_threshold_n3(self):
        assert dimension_threshold(3, 1.0) == pytest.approx(5.0)

    def test_threshold_at_default_c(self):
        # equals 3 exactly for every n at c = (2n-2)/(3n-1)
        for n in (2, 5, 10, 37):
            assert dimension_threshold(n, default_c(n)) <= 3.0 + 1e-12

    def test_threshold_validates_c(self):
        with pytest.raises(ParameterError):
            dimension_threshold(5, 2.0)


class TestExactReference:
    # against exact rational arithmetic on the float data: the rounded mean
    # shifts every residual by a common ulp-sized amount, which moves S^2 at
    # second order only, so the normal mean keeps its digits at any offset

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_offset_data_within_1e13_of_exact(self, offset, n):
        x = np.random.default_rng(n).normal(size=(n, 3)) + offset
        res = mu_check_c(x, 0.7)
        exact = oracles.normal_mean_exact(x, 0.7)
        got = {name: getattr(res.report, name)
               for name in ("delta_hat", "dist_sq", "alpha")}
        for name, value in {**got, "s2": res.s2}.items():
            assert abs(Fraction(value) - exact[name]) <= (
                Fraction(1e-13) * abs(exact[name])), name
        scale = max(map(abs, exact["estimate"]))
        for value, ref in zip(res.estimate.tolist(), exact["estimate"]):
            assert abs(Fraction(value) - ref) <= Fraction(1e-13) * scale


def offset_data(rng, n, d):
    """Data with a nonzero mean and unequal scales, so centering matters."""
    return 0.3 + rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d)


class TestRowTiles:
    # the residuals are formed a tile of rows at a time, 8192 // d rows: up to
    # one tile (n d <= 8192) S^2 has the untiled sum's bits, beyond it the
    # tiles' sums are combined within rounding of it

    @pytest.mark.parametrize("n, d", [(5, 3), (8192, 1), (2048, 4), (409, 20)])
    def test_one_tile_is_bitwise_untiled(self, n, d):
        x = offset_data(np.random.default_rng(n + d), n, d)
        res, ref = mu_check_c(x, 0.7), oracles.normal_mean_untiled(x, 0.7)
        assert res.s2 == ref["s2"]
        assert np.array_equal(res.xbar, ref["xbar"])

    # n d = 8193, 8200, 16384 and 4e6 values
    @pytest.mark.parametrize("n, d", [(8193, 1), (410, 20), (1024, 16), (200_000, 20)])
    def test_above_one_tile_matches_untiled(self, n, d):
        x = offset_data(np.random.default_rng(n + d), n, d)
        res, ref = mu_check_c(x, 0.7), oracles.normal_mean_untiled(x, 0.7)
        assert abs(res.s2 - ref["s2"]) <= 1e-13 * ref["s2"]
        assert abs(res.report.alpha - ref["alpha"]) <= 1e-13
        scale = np.abs(ref["estimate"]).max()
        assert np.abs(res.estimate - ref["estimate"]).max() <= 1e-13 * scale

    def test_block_rows_equal_datasets_alone_above_one_tile(self):
        from ushrink.normalmean import mu_check_c_batch

        rng = np.random.default_rng(3)
        block = np.stack([offset_data(rng, 1000, 12) for _ in range(3)])
        _, s2, report, estimate = mu_check_c_batch(block, 0.7)
        for i, x in enumerate(block):
            alone = mu_check_c(x, 0.7)
            assert s2[i] == alone.s2
            assert (report.delta_hat[i], report.dist_sq[i], report.alpha_raw[i],
                    report.alpha[i]) == (alone.report.delta_hat, alone.report.dist_sq,
                                         alone.report.alpha_raw, alone.report.alpha)
            assert np.array_equal(estimate[i], alone.estimate)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_across_tiles_raises(self):
        # each tile's sum of 8192 squares of 1.2e152 is finite, their total is not
        a = 1.2e152
        x = np.tile([a, -a], 8193).reshape(-1, 1)
        with pytest.raises(ValueError, match="overflow"):
            mu_check_c(x, 0.5)

    def test_holds_the_data_and_a_tile(self):
        import tracemalloc

        x = np.random.default_rng(0).normal(size=(50_000, 20))
        tracemalloc.start()
        try:
            mu_check_c(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * x.nbytes
