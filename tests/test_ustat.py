import math

import pytest
from hypothesis import given, settings, strategies as st

from ushrink import (
    EnumerationLimitError,
    InsufficientSampleError,
    ParameterError,
    comb_weights,
    u_stat_perm,
)
from ushrink.ustat import enumeration_limit


def product(x, y):
    return float(x * y)


def asymmetric(x, y):
    return float(x * x * y)


class TestUStatPerm:
    def test_asymmetric_example(self):
        assert u_stat_perm(asymmetric, [1.0, 2.0], 2) == 3.0

    def test_matches_sym_for_symmetric(self):
        data = [1.0, 2.0, 3.0]
        assert u_stat_perm(product, data, 2) == pytest.approx(11 / 3, rel=1e-15)

    def test_single_point(self):
        assert u_stat_perm(float, [4.0], 1) == 4.0

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            u_stat_perm(product, [1.0], 2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_order_below_one(self, m):
        with pytest.raises(ParameterError):
            u_stat_perm(product, [1.0, 2.0, 3.0], m)

    def test_limit_reports_required_count(self, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "10")
        with pytest.raises(EnumerationLimitError) as exc:
            u_stat_perm(product, list(range(6)), 2)
        assert exc.value.required == math.perm(6, 2)
        assert exc.value.limit == 10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    def test_perm_equals_sym_for_symmetric_kernel(self, data):
        # the combination average of x*y, in closed form
        n = len(data)
        closed = (math.fsum(data) ** 2 - math.fsum(x * x for x in data)) / (n * (n - 1))
        assert u_stat_perm(product, data, 2) == pytest.approx(closed, rel=1e-12,
                                                              abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_data_order_irrelevant(self, order):
        base = [0.3, -1.7, 2.9, 0.0, 5.2, -0.4]
        shuffled = [base[i] for i in order]
        assert u_stat_perm(asymmetric, shuffled, 2) == pytest.approx(
            u_stat_perm(asymmetric, base, 2), rel=1e-12
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
            u_stat_perm(product, list(range(20)), 2)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "many")
        with pytest.raises(ParameterError):
            enumeration_limit()
