import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ushrink import (
    ContractError,
    EnumerationLimitError,
    EvalFn,
    InsufficientSampleError,
    ParameterError,
    comb_weights,
    u_stat_perm,
    u_stat_sym,
)
from ushrink.ustat import enumeration_limit

IDENTITY = EvalFn(order=1, body=lambda x: float(x), symmetric=True)
PRODUCT = EvalFn(order=2, body=lambda x, y: float(x * y), symmetric=True)


class TestUStatSym:
    def test_sample_mean(self):
        assert u_stat_sym(IDENTITY, [1.0, 2.0, 3.0], 1) == 2.0

    def test_pairwise_product(self):
        # (1*2 + 1*3 + 2*3) / 3
        assert u_stat_sym(PRODUCT, [1.0, 2.0, 3.0], 2) == pytest.approx(11 / 3, rel=1e-15)

    def test_constant(self):
        g = EvalFn(order=2, body=lambda x, y: 5.0, symmetric=True)
        assert u_stat_sym(g, [7.0, 8.0, 9.0, 10.0], 2) == 5.0

    def test_requires_symmetric(self):
        g = EvalFn(order=2, body=lambda x, y: x - y, symmetric=False)
        with pytest.raises(ContractError):
            u_stat_sym(g, [1.0, 2.0], 2)

    def test_order_mismatch(self):
        with pytest.raises(ContractError):
            u_stat_sym(PRODUCT, [1.0, 2.0, 3.0], 1)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            u_stat_sym(PRODUCT, [1.0], 2)

    def test_unbiased_for_centered_product(self):
        # E[xy] = 0 for independent standard normals; Monte Carlo mean of the
        # estimator over 1e5 draws of n=6 must sit within 4 standard errors.
        rng = np.random.default_rng(2024)
        reps = 10**5
        draws = rng.standard_normal((reps, 6))
        vals = np.array([u_stat_sym(PRODUCT, row, 2) for row in draws])
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) < 4 * se


class TestUStatPerm:
    def test_asymmetric_example(self):
        g = EvalFn(order=2, body=lambda x, y: float(x * x * y))
        assert u_stat_perm(g, [1.0, 2.0], 2) == 3.0

    def test_matches_sym_for_symmetric(self):
        data = [1.0, 2.0, 3.0]
        assert u_stat_perm(PRODUCT, data, 2) == pytest.approx(11 / 3, rel=1e-15)

    def test_single_point(self):
        g = EvalFn(order=1, body=lambda x: float(x))
        assert u_stat_perm(g, [4.0], 1) == 4.0

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            u_stat_perm(PRODUCT, [1.0], 2)

    def test_limit_reports_required_count(self, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "10")
        with pytest.raises(EnumerationLimitError) as exc:
            u_stat_perm(PRODUCT, list(range(6)), 2)
        assert exc.value.required == math.perm(6, 2)
        assert exc.value.limit == 10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    def test_perm_equals_sym_for_symmetric_kernel(self, data):
        a = u_stat_sym(PRODUCT, data, 2)
        b = u_stat_perm(PRODUCT, data, 2)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_data_order_irrelevant(self, order):
        base = [0.3, -1.7, 2.9, 0.0, 5.2, -0.4]
        shuffled = [base[i] for i in order]
        g = EvalFn(order=2, body=lambda x, y: float(x * x * y))
        assert u_stat_perm(g, shuffled, 2) == pytest.approx(
            u_stat_perm(g, base, 2), rel=1e-12
        )
        assert u_stat_sym(PRODUCT, shuffled, 2) == pytest.approx(
            u_stat_sym(PRODUCT, base, 2), rel=1e-12
        )


class TestCombWeights:
    def test_n4_k2(self):
        w = comb_weights(4, 2)
        assert w == pytest.approx((1 / 6, 2 / 3, 1 / 6), rel=1e-15)

    def test_n2_k1(self):
        assert comb_weights(2, 1) == pytest.approx((0.5, 0.5), rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sums_to_one(self, k):
        for n in range(2 * k, 201):
            assert math.fsum(comb_weights(n, k)) == pytest.approx(1.0, abs=1e-12)

    def test_large_n_no_overflow(self):
        w = comb_weights(10**6, 5)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in w)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            comb_weights(3, 2)

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            comb_weights(4, 0)


class TestEnumerationLimit:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("USHRINK_ENUM_LIMIT", raising=False)
        assert enumeration_limit() == 10**7

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "50")
        assert enumeration_limit() == 50
        with pytest.raises(EnumerationLimitError):
            u_stat_perm(PRODUCT, list(range(20)), 2)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "many")
        with pytest.raises(ParameterError):
            enumeration_limit()
