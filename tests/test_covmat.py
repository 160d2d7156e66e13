import math

import numpy as np
import pytest

import oracles
from ushrink import (
    DEGENERATE,
    GENERAL,
    InsufficientSampleError,
    KernelSpec,
    ParameterError,
    dist_sq_identity,
    gram,
    shrink_cov_matrix,
    shrink_covop,
    spectral_summaries,
)
from ushrink.covmat import moment_identity_check

PAIR = np.array([[1.0, 0.0], [-1.0, 0.0]])


def delta_closed(data, variant):
    """The linear-kernel closed-form risk estimate of shrink_cov_matrix."""
    return shrink_cov_matrix(data, variant=variant).report.delta_hat


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diagonal(r))


class TestSpectralSummaries:
    def test_opposite_pair(self):
        s = spectral_summaries(PAIR)
        assert (s.sum_fourth, s.tr_s2, s.tr_sq) == (2.0, 1.0, 1.0)

    def test_identical_points(self):
        s = spectral_summaries(np.tile([3.0, 1.0], (4, 1)))
        assert (s.sum_fourth, s.tr_s2, s.tr_sq) == (0.0, 0.0, 0.0)

    def test_quartic_homogeneity(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 3))
        base = spectral_summaries(data)
        scaled = spectral_summaries(2.5 * data)
        factor = 2.5**4
        assert scaled.sum_fourth == pytest.approx(factor * base.sum_fourth, rel=1e-12)
        assert scaled.tr_s2 == pytest.approx(factor * base.tr_s2, rel=1e-12)
        assert scaled.tr_sq == pytest.approx(factor * base.tr_sq, rel=1e-12)

    def test_too_small(self):
        with pytest.raises(InsufficientSampleError):
            spectral_summaries(np.ones((1, 2)))


class TestMomentIdentities:
    def test_opposite_pair_double_sum(self):
        pairs = moment_identity_check(PAIR)
        assert pairs[0] == (32.0, 32.0)

    def test_opposite_pair_quadruple_sum(self):
        pairs = moment_identity_check(PAIR)
        assert pairs[2] == (64.0, 64.0)

    def test_identical_points(self):
        for lhs, rhs in moment_identity_check(np.tile([1.0, 2.0], (3, 1))):
            assert lhs == pytest.approx(0.0, abs=1e-20)
            assert rhs == 0.0

    def test_random_datasets(self):
        rng = np.random.default_rng(100)
        count = 0
        while count < 50:
            n = int(rng.integers(2, 11))
            d = int(rng.choice([1, 2, 3, 5]))
            data = rng.uniform(-2, 2, size=(n, d))
            for lhs, rhs in moment_identity_check(data):
                assert oracles.rel_err(lhs, rhs) <= 1e-9
            count += 1


class TestClosedForms:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_general_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        data = rng.uniform(-2, 2, size=(n, 3))
        g = oracles.linear_gram(data)
        assert oracles.rel_err(
            delta_closed(data, GENERAL), oracles.covop_delta_general_brute(g)
        ) <= 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_degen_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        data = rng.uniform(-2, 2, size=(n, 3))
        g = oracles.linear_gram(data)
        assert oracles.rel_err(
            delta_closed(data, DEGENERATE), oracles.covop_delta_degen_brute(g)
        ) <= 1e-8

    def test_identical_points(self):
        data = np.tile([1.0, -1.0], (6, 1))
        assert delta_closed(data, GENERAL) == 0.0
        assert delta_closed(data, DEGENERATE) == 0.0

    def test_quartic_scaling(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(6, 3))
        s = 1.7
        assert delta_closed(s * data, GENERAL) == pytest.approx(
            s**4 * delta_closed(data, GENERAL), rel=1e-12
        )
        assert delta_closed(s * data, DEGENERATE) == pytest.approx(
            s**4 * delta_closed(data, DEGENERATE), rel=1e-12
        )

    def test_degen_matches_gram_route(self):
        rng = np.random.default_rng(77)
        data = rng.uniform(-2, 2, size=(6, 2))
        from ushrink import shrink_covop_degen

        report = shrink_covop_degen(gram(KernelSpec.linear(), data))
        assert report.delta_hat == pytest.approx(delta_closed(data, DEGENERATE),
                                                 rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_samples_refused(self, n):
        data = np.ones((n, 2))
        with pytest.raises(InsufficientSampleError):
            delta_closed(data, GENERAL)
        with pytest.raises(InsufficientSampleError):
            delta_closed(data, DEGENERATE)


class TestDistSqIdentity:
    def test_opposite_pair(self):
        assert dist_sq_identity(PAIR, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_tau_zero_is_squared_norm(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 3))
        n = 6
        xc = data - data.mean(axis=0)
        c_hat = xc.T @ xc / (n - 1)
        assert dist_sq_identity(data, 0.0) == pytest.approx(
            float(np.sum(c_hat * c_hat)), rel=1e-12
        )

    def test_exact_target_hit(self):
        # C_hat = tau I for a = sqrt(3 tau / 2): four points +-a e_1, +-a e_2
        tau = 1.0
        a = np.sqrt(1.5 * tau)
        data = np.array([[a, 0], [-a, 0], [0, a], [0, -a]])
        assert dist_sq_identity(data, tau) == pytest.approx(0.0, abs=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ParameterError):
            dist_sq_identity(PAIR, -0.5)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        # nan < 0 is False, so a sign check alone lets nan through
        with pytest.raises(ParameterError, match="finite"):
            dist_sq_identity(PAIR, tau)


class TestShrinkCovMatrix:
    def test_identical_points(self):
        data = np.tile([0.3, 0.4, 0.5], (5, 1))
        res = shrink_cov_matrix(data, tau=1.0)
        assert np.allclose(res.c_hat, 0.0)
        assert res.report.delta_hat == 0.0
        assert res.report.dist_sq == pytest.approx(3.0)
        assert res.report.alpha == 0.0
        assert np.allclose(res.shrunk, 0.0)

    def test_convex_combination(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(6, 3))
        res = shrink_cov_matrix(data, tau=1.0)
        a = res.report.alpha
        expected = (1 - a) * res.c_hat + a * np.eye(3)
        assert np.array_equal(res.shrunk, expected)

    def test_structure(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(7, 4))
        res = shrink_cov_matrix(data, tau=0.5, variant="degenerate")
        n = 7
        assert np.allclose(res.c_hat, n / (n - 1) * res.sigma_hat, rtol=0, atol=0)
        for m in (res.sigma_hat, res.c_hat, res.shrunk):
            assert np.abs(m - m.T).max() <= 1e-12
        assert res.report.variant == "degenerate"

    def test_matches_gram_route_at_tau_zero(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(-2, 2, size=(8, 2))
        res = shrink_cov_matrix(data, tau=0.0)
        report = shrink_covop(gram(KernelSpec.linear(), data))
        assert res.report.delta_hat == pytest.approx(report.delta_hat, rel=1e-9)
        assert res.report.dist_sq == pytest.approx(report.dist_sq, rel=1e-9)
        assert res.report.alpha == pytest.approx(report.alpha, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(6, 3))
        shift = np.array([10.0, -4.0, 2.5])
        base = shrink_cov_matrix(data, tau=1.0)
        moved = shrink_cov_matrix(data + shift, tau=1.0)
        assert moved.report.delta_hat == pytest.approx(
            base.report.delta_hat, rel=1e-10
        )
        assert moved.report.dist_sq == pytest.approx(base.report.dist_sq, rel=1e-10)
        assert delta_closed(data + shift, DEGENERATE) == pytest.approx(
            delta_closed(data, DEGENERATE), rel=1e-10
        )

    def test_rotation_invariance_of_scalars(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(6, 3))
        q = random_orthogonal(rng, 3)
        rotated = data @ q.T
        assert delta_closed(rotated, GENERAL) == pytest.approx(
            delta_closed(data, GENERAL), rel=1e-10
        )
        assert delta_closed(rotated, DEGENERATE) == pytest.approx(
            delta_closed(data, DEGENERATE), rel=1e-10
        )
        for tau in (0.0, 1.0):
            assert dist_sq_identity(rotated, tau) == pytest.approx(
                dist_sq_identity(data, tau), rel=1e-10
            )

    def test_bad_variant(self):
        with pytest.raises(ParameterError):
            shrink_cov_matrix(np.ones((5, 2)), variant="other")

    def test_too_small(self):
        with pytest.raises(InsufficientSampleError, match="n >= 4"):
            shrink_cov_matrix(np.ones((3, 2)))

    def test_serialization(self):
        rng = np.random.default_rng(12)
        res = shrink_cov_matrix(rng.normal(size=(5, 2)))
        d = res.to_dict()
        assert set(d) == {"sigma_hat", "c_hat", "shrunk", "report"}
        assert d["report"]["variant"] == "general"
