import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from ushrink import (
    CapabilityError,
    DistSpec,
    EstimatorSpec,
    InsufficientSampleError,
    KernelSpec,
    ParameterError,
    alpha_from,
    gaussian_embed_norm_sq,
    gaussian_kernel_location_moment,
    gram,
    mc_risk,
    oracle_alpha,
    rate_slope,
    run_experiment,
    sample,
    shrink_cov_matrix,
    shrink_mean,
)
from ushrink import normalmean, simulate
from ushrink.shrinkage import DEGENERATE
from ushrink.simulate import mc_detail, summarize_errors


def e1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return v


class TestSample:
    def test_degenerate_spread(self):
        dist = DistSpec.spherical_gaussian(np.array([1.0, -2.0]), 1e-12)
        data = sample(dist, 50, 3)
        assert np.abs(data - dist.mu).max() < 1e-10

    def test_deterministic(self):
        dist = DistSpec.uniform_box(np.zeros(3), np.ones(3))
        a = sample(dist, 20, 99)
        b = sample(dist, 20, 99)
        assert np.array_equal(a, b)

    def test_uniform_mean_concentrates(self):
        dist = DistSpec.uniform_box(np.zeros(2), np.ones(2))
        data = sample(dist, 10**4, 7)
        assert np.abs(data.mean(axis=0) - 0.5).max() < 0.02

    def test_diag_gaussian_shape(self):
        dist = DistSpec.diag_gaussian([0.0, 1.0], [1.0, 2.0])
        assert sample(dist, 5, 0).shape == (5, 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            DistSpec.spherical_gaussian([0.0], 0.0)
        with pytest.raises(ParameterError):
            DistSpec.uniform_box([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ParameterError):
            sample(DistSpec.spherical_gaussian([0.0], 1.0), 0, 1)
        with pytest.raises(ParameterError):
            sample(DistSpec.spherical_gaussian([0.0], 1.0), 3, -1)

    @pytest.mark.parametrize("make", [
        lambda: DistSpec.spherical_gaussian([math.nan, 0.0, 0.0], 1.0),
        lambda: DistSpec.spherical_gaussian([0.0], math.inf),
        lambda: DistSpec.spherical_gaussian([0.0], 1e200),  # sigma^2 overflows
        lambda: DistSpec.uniform_box([-math.inf, 0.0], [0.0, 1.0]),
        lambda: DistSpec.uniform_box([-1e308], [1e308]),  # hi - lo overflows
        lambda: DistSpec.diag_gaussian([0.0, 0.0], [1.0, math.inf]),
        lambda: DistSpec.diag_gaussian([0.0], [1e200]),  # sigma^2 overflows
    ])
    def test_non_finite_parameters_rejected(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite"):
                make()


class TestKernelMoments:
    # closed-form Gaussian integrals behind the embedding risk, checked
    # against adaptive quadrature at d = 1

    def test_location_moment_vs_quadrature(self):
        b, sigma, mu = 1.0, 0.9, 0.3

        def dens(y):
            return math.exp(-((y - mu) ** 2) / (2 * sigma**2)) / math.sqrt(
                2 * math.pi * sigma**2
            )

        for x in (-1.0, 0.0, 0.7, 2.5):
            ref, _ = quad(lambda y: math.exp(-((x - y) ** 2) / b) * dens(y), -30, 30)
            got = gaussian_kernel_location_moment(
                np.array([x]), np.array([mu]), sigma, b
            )
            assert got == pytest.approx(ref, rel=1e-10)

    def test_norm_sq_vs_quadrature(self):
        b, sigma, mu = 1.3, 0.8, 0.4

        def dens(y):
            return math.exp(-((y - mu) ** 2) / (2 * sigma**2)) / math.sqrt(
                2 * math.pi * sigma**2
            )

        ref, _ = dblquad(
            lambda y, x: math.exp(-((x - y) ** 2) / b) * dens(x) * dens(y),
            -20, 20, -20, 20,
        )
        assert gaussian_embed_norm_sq(1, sigma, b) == pytest.approx(ref, rel=1e-8)

    def test_norm_sq_independent_of_mean(self):
        # the estimand's squared norm depends only on sigma, b, d
        assert gaussian_embed_norm_sq(3, 1.0, 1.0) == pytest.approx(0.2**1.5)

    def test_location_moment_batched(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        vals = gaussian_kernel_location_moment(pts, np.zeros(2), 1.0, 1.0)
        assert vals.shape == (2,)
        assert vals[0] > vals[1]


class TestMcRisk:
    def test_sample_mean_matches_analytic(self):
        # E||Xbar - mu||^2 = d sigma^2 / n at three configurations
        for d, n, sigma, seed in [(3, 10, 1.0, 101), (10, 5, 1.0, 202),
                                  (5, 20, 2.0, 303)]:
            dist = DistSpec.spherical_gaussian(e1(d), sigma)
            a_star = oracle_alpha(dist, EstimatorSpec.mu_check(), n)
            # one draw of each dataset for both estimators; each one's errors
            # are those of its own mc_risk run (TestSharedEngine)
            errs = mc_detail((EstimatorSpec.sample_mean(),
                              EstimatorSpec.fixed_alpha_mean(a_star)),
                             dist, n, 10**5, seed)[0]
            plain, fixed = (summarize_errors(e, 10**5, seed) for e in errs)
            target = d * sigma**2 / n
            assert abs(plain.mean_sq_error - target) < 4 * plain.std_error

            # fixed-oracle dominance at the same configuration
            assert a_star >= 0.1
            combined = math.hypot(fixed.std_error, plain.std_error)
            assert fixed.mean_sq_error <= plain.mean_sq_error - 2 * combined

    def test_deterministic(self):
        dist = DistSpec.spherical_gaussian(e1(3), 1.0)
        a = mc_risk(EstimatorSpec.mu_check(), dist, 8, 200, 5)
        b = mc_risk(EstimatorSpec.mu_check(), dist, 8, 200, 5)
        assert a == b

    def test_degenerate_dist_zero_risk(self):
        dist = DistSpec.spherical_gaussian(np.zeros(3), 1e-12)
        for est in (EstimatorSpec.sample_mean(), EstimatorSpec.mu_check()):
            r = mc_risk(est, dist, 5, 100, 1)
            assert r.mean_sq_error <= 1e-20

    def test_cov_mat_plain_sanity(self):
        dist = DistSpec.spherical_gaussian(np.zeros(2), 1.0)
        r = mc_risk(EstimatorSpec.cov_mat_plain(), dist, 20, 10**5, 9)
        assert r.mean_sq_error > 0
        assert r.std_error < r.mean_sq_error

    def test_cov_mat_shrink_improves_near_identity(self):
        dist = DistSpec.spherical_gaussian(np.zeros(3), 1.0)
        plain = mc_risk(EstimatorSpec.cov_mat_plain(), dist, 10, 2000, 17)
        shrunk = mc_risk(EstimatorSpec.cov_mat_shrink(tau=1.0), dist, 10, 2000, 17)
        assert shrunk.mean_sq_error < plain.mean_sq_error

    def test_reps_floor(self):
        dist = DistSpec.spherical_gaussian(np.zeros(2), 1.0)
        with pytest.raises(ParameterError, match="reps"):
            mc_risk(EstimatorSpec.sample_mean(), dist, 5, 99, 0)

    def test_unsupported_combinations(self):
        uniform = DistSpec.uniform_box(np.zeros(2), np.ones(2))
        gauss_embed = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        with pytest.raises(CapabilityError):
            mc_risk(gauss_embed, uniform, 10, 100, 0)
        exp_embed = EstimatorSpec.mean_embed_shrink(KernelSpec.exponential(1.0))
        with pytest.raises(CapabilityError):
            mc_risk(exp_embed, DistSpec.spherical_gaussian(np.zeros(2), 1.0),
                    10, 100, 0)

    def test_linear_embed_equals_mu_check(self):
        dist = DistSpec.spherical_gaussian(e1(3), 1.0)
        emb, mc = mc_detail((EstimatorSpec.mean_embed_shrink(KernelSpec.linear()),
                             EstimatorSpec.mu_check()), dist, 10, 100, 3)[0]
        assert np.array_equal(emb, mc)

    def test_paired_replications_share_data(self):
        # replication r is seeded with seed + r for every estimator
        dist = DistSpec.spherical_gaussian(e1(2), 1.0)
        errs = mc_detail((EstimatorSpec.sample_mean(),), dist, 6, 100, 40)[0][0]

        def err(r):
            diff = sample(dist, 6, 40 + r).mean(axis=0) - dist.mean
            return float(diff @ diff)

        assert np.array_equal(errs, np.array([err(r) for r in range(100)]))


class TestMcAlphas:
    def test_values_in_unit_interval(self):
        dist = DistSpec.spherical_gaussian(e1(2), 1.0)
        alphas = mc_detail((EstimatorSpec.mu_check(),), dist, 10, 200, 8)[1]
        assert np.all((alphas >= 0) & (alphas <= 1))

    def test_detail_is_one_pass(self):
        dist = DistSpec.spherical_gaussian(e1(2), 1.0)
        errs, alphas = mc_detail((EstimatorSpec.mu_check(),), dist, 10, 150, 2)
        assert errs.shape == alphas.shape == (1, 150)


class TestOracleAlpha:
    def test_linear_mean_example(self):
        dist = DistSpec.spherical_gaussian(e1(3), 1.0)
        a = oracle_alpha(dist, EstimatorSpec.mu_check(), 10)
        assert a == pytest.approx(0.3 / 1.3, rel=1e-12)

    def test_zero_mean_full_shrinkage(self):
        dist = DistSpec.spherical_gaussian(np.zeros(4), 1.0)
        assert oracle_alpha(dist, EstimatorSpec.mu_check(), 5) == 1.0

    def test_vanishing_noise(self):
        dist = DistSpec.spherical_gaussian(e1(3), 1e-6)
        assert oracle_alpha(dist, EstimatorSpec.mu_check(), 5) < 1e-11

    def test_gaussian_embed(self):
        dist = DistSpec.spherical_gaussian(e1(2), 1.0)
        est = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        norm_c = 0.2
        delta = (1 - norm_c) / 25
        assert oracle_alpha(dist, est, 25) == pytest.approx(
            delta / (delta + norm_c), rel=1e-12
        )

    def test_capability_error(self):
        dist = DistSpec.uniform_box(np.zeros(2), np.ones(2))
        est = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        with pytest.raises(CapabilityError):
            oracle_alpha(dist, est, 10)


class TestRateSlope:
    def test_exact_inverse_law(self):
        assert rate_slope([(10, 1.0), (100, 0.1), (1000, 0.01)]) == pytest.approx(-1.0)

    def test_flat(self):
        assert rate_slope([(10, 0.7), (100, 0.7), (1000, 0.7)]) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_square_law(self):
        assert rate_slope([(10, 1.0), (100, 0.01), (1000, 1e-4)]) == pytest.approx(-2.0)

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            rate_slope([(10, 1.0), (100, 0.1)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            rate_slope([(10, 1.0), (100, 0.0), (1000, 0.01)])

    @pytest.mark.parametrize("points", [
        [(10, math.nan), (20, 1.0), (40, 0.5)],
        [(10, 1.0), (20, math.inf), (40, 0.5)],
        [(math.nan, 1.0), (20, 1.0), (40, 0.5)],
        [(10, 1.0), (20, 1.0), (math.inf, 0.5)],
    ])
    def test_non_finite_rejected(self, points):
        with pytest.raises(ParameterError, match="finite"):
            rate_slope(points)

    @pytest.mark.filterwarnings("error")
    def test_one_distinct_n_rejected(self):
        # a line through points at one n has no slope; numpy's fit would warn
        # and return a number
        with pytest.raises(ParameterError, match="two distinct n"):
            rate_slope([(25, 0.1), (25, 0.2), (25.0, 0.3)])

    def test_two_distinct_n_accepted(self):
        assert rate_slope([(10, 1.0), (10, 1.0), (100, 0.1)]) == pytest.approx(-1.0)


class TestExperiments:
    def test_mean_improvement_small(self):
        out = run_experiment("mean-improvement", reps=200, seed=1)
        assert {row["estimator"] for row in out["results"]} == {
            "sample_mean", "mu_check"
        }
        assert out["paired"]["mean"] < 0  # shrunk minus plain

    def test_consistency_small(self):
        out = run_experiment("consistency", reps=150, seed=2, n_grid=[8, 12, 16])
        assert len(out["results"]) == 3
        assert "slope" in out
        assert all("median_alpha_gap" in row for row in out["results"])

    def test_unknown_experiment(self):
        with pytest.raises(ParameterError):
            run_experiment("nope")

    @pytest.mark.parametrize("name, kwargs, match", [
        ("oracle", {"n_grid": [10, 20, 30]}, r"consistency.*\[10, 20, 30\] for oracle"),
        ("mean-improvement", {"n_grid": [5, 10, 20]}, "consistency"),
        ("consistency", {"n_grid": [25, 50]}, r"3 or more.*\[25, 50\]"),
        ("consistency", {"n_grid": []}, "3 or more"),
        ("consistency", {"n_grid": [25, 1, 50]}, ">= 2"),
        ("consistency", {"reps": 99}, "reps"),
        ("consistency", {"n_grid": [25, 25, 25]}, r"two.*distinct.*\[25, 25, 25\]"),
    ])
    def test_arguments_checked_before_sampling(self, monkeypatch, name, kwargs,
                                                match):
        monkeypatch.setattr(simulate, "sample", None)  # any draw would fail
        with pytest.raises(ParameterError, match=match):
            run_experiment(name, **kwargs)


DISTS = {
    "spherical": DistSpec.spherical_gaussian(np.array([1.0, -0.5, 2.0]), 1.3),
    "diagonal": DistSpec.diag_gaussian([0.5, 0.0, -1.0], [0.7, 1.0, 2.5]),
    "uniform": DistSpec.uniform_box([-1.0, 0.0, 2.0], [1.0, 0.5, 5.0]),
}


def fresh_draws(dist, n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    if dist.kind == "uniform_box":
        return dist.lo + (dist.hi - dist.lo) * rng.random((n, dist.dim))
    sigma = dist.sigma if dist.kind == "spherical_gaussian" else dist.sigmas
    return dist.mu + sigma * rng.standard_normal((n, dist.dim))


class TestSamplingContract:
    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_equals_fresh_philox(self, name):
        dist = DISTS[name]
        for key in (0, 1, 17, 2**40 + 3, 2**64 + 5):
            assert np.array_equal(sample(dist, 7, key), fresh_draws(dist, 7, key))

    def test_interleaved_calls(self):
        # each call starts its own stream, whatever was drawn before it
        expected = {(name, key): fresh_draws(DISTS[name], 5, key)
                    for name in DISTS for key in (3, 4)}
        for key in (3, 4, 3):
            for name in ("uniform", "spherical", "diagonal"):
                assert np.array_equal(sample(DISTS[name], 5, key),
                                      expected[name, key])

    def test_key_range(self):
        dist = DISTS["spherical"]
        with pytest.raises(ParameterError):
            sample(dist, 3, 2**128)


class TestBatchedReplication:
    # the blocked engine must reproduce, bit for bit, a loop over
    # sample(dist, n, seed + r) through the one-dataset estimators
    N, SEED = 6, 900

    @staticmethod
    def loop(est, dist, n, rows, seed):
        errs, alphas = [], []
        for r in rows:
            data = sample(dist, n, seed + r)
            if est.kind == "sample_mean":
                diff, alpha = data.mean(axis=0) - dist.mean, math.nan
            elif est.kind == "fixed_alpha_mean":
                diff = (1.0 - est.alpha) * data.mean(axis=0) - dist.mean
                alpha = est.alpha
            elif est.kind == "cov_mat_plain":
                diff, alpha = shrink_cov_matrix(data).c_hat - dist.covariance, math.nan
            elif est.kind == "cov_mat_shrink":
                res = shrink_cov_matrix(data, tau=est.tau, variant=est.variant)
                diff, alpha = res.shrunk - dist.covariance, res.report.alpha
            else:
                res = normalmean.mu_check_c(data, 1.0 if est.c is None else est.c)
                diff, alpha = res.estimate - dist.mean, res.report.alpha
            errs.append(float(diff @ diff) if diff.ndim == 1
                        else float(np.sum(diff * diff)))
            alphas.append(alpha)
        return np.array(errs), np.array(alphas)

    COV_ESTS = [EstimatorSpec.cov_mat_plain(),
                EstimatorSpec.cov_mat_shrink(tau=1.0),
                EstimatorSpec.cov_mat_shrink(tau=0.5, variant=DEGENERATE)]

    @pytest.mark.parametrize("name", sorted(DISTS))
    @pytest.mark.parametrize("est", [
        EstimatorSpec.sample_mean(),
        EstimatorSpec.fixed_alpha_mean(0.25),
        EstimatorSpec.mu_check(),
        EstimatorSpec.mu_check_c(0.6),
        EstimatorSpec.mean_embed_shrink(KernelSpec.linear()),
        *COV_ESTS,
    ], ids=lambda est: est.label())
    def test_matches_loop(self, name, est):
        dist = DISTS[name]
        per_block = simulate.BLOCK_VALUES // (self.N * dist.dim)
        reps = per_block + 37  # one full block and part of a second
        (errs,), (alphas,) = mc_detail((est,), dist, self.N, reps, self.SEED)
        ref_errs, ref_alphas = self.loop(est, dist, self.N, range(reps), self.SEED)
        assert np.array_equal(errs, ref_errs)
        assert np.array_equal(alphas, ref_alphas, equal_nan=True)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [5, 10, 20, 160])
    def test_covariance_shapes_match_loop(self, d, n):
        # the (n, d) of criterion 11 and the cov_mat Monte Carlo tests: the
        # stacked products must give every row the one-dataset bits; rows
        # checked are every 7th and all from five before the block boundary on
        dist = DistSpec.diag_gaussian(np.linspace(-1.0, 1.0, d),
                                      np.linspace(0.5, 2.0, d))
        per_block = simulate.BLOCK_VALUES // (n * d)
        reps = per_block + 5
        rows = sorted(set(range(0, reps, 7)) | set(range(per_block - 5, reps)))
        errs, alphas = mc_detail(self.COV_ESTS, dist, n, reps, self.SEED)
        for k, est in enumerate(self.COV_ESTS):
            ref_errs, ref_alphas = self.loop(est, dist, n, rows, self.SEED)
            assert np.array_equal(errs[k, rows], ref_errs), est.label()
            assert np.array_equal(alphas[k, rows], ref_alphas, equal_nan=True)

    @pytest.mark.parametrize("n", [2, 3, 25, 200])
    @pytest.mark.parametrize("bandwidth", [0.3, 1.0, 4.0])
    def test_gaussian_embedding_matches_one_dataset_formula(self, n, bandwidth):
        # the block route reads each Gram's trace and sum and evaluates the
        # coefficient and the error as arrays; each row checked (every 17th,
        # and all from three before the block boundary on) must equal
        # shrink_mean on that dataset's Gram plus the one-dataset cross term
        dist = DistSpec.spherical_gaussian([1.0, -0.5], 0.8)
        kernel = KernelSpec.gaussian(bandwidth)
        per_block = simulate.BLOCK_VALUES // (n * dist.dim)
        reps = per_block + 3  # one full block and part of a second
        (errs,), (alphas,) = mc_detail((EstimatorSpec.mean_embed_shrink(kernel),),
                                       dist, n, reps, self.SEED)
        norm_c = gaussian_embed_norm_sq(dist.dim, dist.sigma, bandwidth)
        for r in sorted(set(range(0, reps, 17)) | set(range(per_block - 3, reps))):
            data = sample(dist, n, self.SEED + r)
            _, report = shrink_mean(gram(kernel, data))
            w = 1.0 - report.alpha
            cross = gaussian_kernel_location_moment(data, dist.mu, dist.sigma,
                                                    bandwidth)
            err = w * w * report.dist_sq - 2.0 * w * float(cross.mean()) + norm_c
            assert (errs[r], alphas[r]) == (err, report.alpha), r

    def test_single_observation_rejected(self):
        dist = DISTS["spherical"]
        with pytest.raises(InsufficientSampleError):
            mc_detail((EstimatorSpec.mu_check(),), dist, 1, 100, 0)
        gauss_embed = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        with pytest.raises(InsufficientSampleError):
            mc_detail((gauss_embed,), dist, 1, 100, 0)

    def test_experiment_reps_floor(self):
        with pytest.raises(ParameterError, match="reps"):
            run_experiment("mean-improvement", reps=99)


class TestDispatchTable:
    # the estimators of the simulator; with DISTS they span every route
    ESTS = {
        "sample_mean": EstimatorSpec.sample_mean(),
        "mu_check": EstimatorSpec.mu_check(),
        "mu_check_c(0.6)": EstimatorSpec.mu_check_c(0.6),
        "fixed_alpha_mean(0.25)": EstimatorSpec.fixed_alpha_mean(0.25),
        "linear_embed": EstimatorSpec.mean_embed_shrink(KernelSpec.linear()),
        "gaussian_embed": EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.5)),
        "exponential_embed": EstimatorSpec.mean_embed_shrink(
            KernelSpec.exponential(1.0)),
        "cov_mat_plain": EstimatorSpec.cov_mat_plain(),
        "cov_mat_shrink": EstimatorSpec.cov_mat_shrink(tau=0.5),
    }
    # (estimator, distribution) pairs without a Monte Carlo route
    NO_MC = (
        {("gaussian_embed", "diagonal"), ("gaussian_embed", "uniform")}
        | {("exponential_embed", dist) for dist in DISTS}
    )
    # ... and pairs without an oracle coefficient
    NO_ORACLE = NO_MC | {(name, dist)
                         for name in ("sample_mean", "cov_mat_plain", "cov_mat_shrink")
                         for dist in DISTS}

    @pytest.mark.parametrize("est, label", [
        (EstimatorSpec.sample_mean(), "sample_mean"),
        (EstimatorSpec.mu_check(), "mu_check"),
        (EstimatorSpec.mu_check_c(0.6), "mu_check_c(0.6)"),
        (EstimatorSpec.fixed_alpha_mean(0.25), "fixed_alpha_mean(0.25)"),
        (EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(2.0)),
         "mean_embed_shrink(gaussian)"),
        (EstimatorSpec.cov_mat_shrink(tau=0.5, variant=DEGENERATE),
         "cov_mat_shrink(tau=0.5,degenerate)"),
        (EstimatorSpec.cov_mat_plain(), "cov_mat_plain"),
    ])
    def test_labels(self, est, label):
        assert est.label() == label

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_linear_mean_oracles_agree(self, name):
        # one population risk trace(Cov)/n and one estimand ||mean||^2
        dist = DISTS[name]
        expected = alpha_from(dist.trace_cov / 10, float(dist.mean @ dist.mean))[1]
        for key in ("mu_check", "mu_check_c(0.6)", "fixed_alpha_mean(0.25)",
                    "linear_embed"):
            assert oracle_alpha(dist, self.ESTS[key], 10) == expected

    def test_capability_errors_exactly_where_unsupported(self):
        no_mc, no_oracle = set(), set()
        for name, est in self.ESTS.items():
            for dist_name, dist in DISTS.items():
                try:
                    mc_detail((est,), dist, 5, 3, 0)
                except CapabilityError:
                    no_mc.add((name, dist_name))
                try:
                    oracle_alpha(dist, est, 5)
                except CapabilityError:
                    no_oracle.add((name, dist_name))
        assert no_mc == self.NO_MC
        assert no_oracle == self.NO_ORACLE

    def test_spec_owns_its_arrays(self):
        # mean, covariance and the draw map are worked out once, so a spec
        # must not share arrays that its caller may change afterwards
        mu, lo, hi = np.array([1.0, 2.0]), np.zeros(2), np.ones(2)
        specs = (DistSpec.spherical_gaussian(mu, 1.0),
                 DistSpec.diag_gaussian(mu, np.ones(2)), DistSpec.uniform_box(lo, hi))
        before = [(s.mean.copy(), sample(s, 3, 5)) for s in specs]
        mu[0], lo[0], hi[0] = 9.0, -9.0, 9.0
        for spec, (mean, draws) in zip(specs, before):
            assert np.array_equal(spec.mean, mean)
            assert np.array_equal(sample(spec, 3, 5), draws)


class TestSharedEngine:
    # mc_detail draws each replication once for all its estimators; every
    # row must equal the estimator's own run bit for bit
    N, SEED = 6, 700

    @staticmethod
    def estimators(dist_name):
        # the dispatch table's estimators with a route under the distribution:
        # at least one of each of the seven kinds under every one of DISTS
        return tuple(est for name, est in TestDispatchTable.ESTS.items()
                     if (name, dist_name) not in TestDispatchTable.NO_MC)

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_rows_equal_single_runs(self, name):
        dist = DISTS[name]
        ests = self.estimators(name)
        assert {est.kind for est in ests} == set(simulate._ROUTES)
        reps = simulate.BLOCK_VALUES // (self.N * dist.dim) + 37
        single = [mc_detail((est,), dist, self.N, reps, self.SEED) for est in ests]
        for order in (ests, ests[::-1]):
            errs, alphas = mc_detail(order, dist, self.N, reps, self.SEED)
            assert errs.shape == alphas.shape == (len(ests), reps)
            for k, est in enumerate(order):
                ref_errs, ref_alphas = single[ests.index(est)]
                assert np.array_equal(errs[k], ref_errs[0]), est.label()
                assert np.array_equal(alphas[k], ref_alphas[0], equal_nan=True)

    def test_one_sample_call_per_replication(self, monkeypatch):
        # the benchmark's tracer counts replications as mc_detail's
        # positional argument 3 and expects one sample call for each
        assert list(inspect.signature(mc_detail).parameters)[3] == "reps"
        calls = []

        def counted(dist, n, seed):
            calls.append(seed)
            return sample(dist, n, seed)

        monkeypatch.setattr(simulate, "sample", counted)
        dist = DISTS["uniform"]
        ests = self.estimators("uniform")
        reps = 2 * (simulate.BLOCK_VALUES // (self.N * dist.dim)) + 5
        mc_detail(ests, dist, self.N, reps, self.SEED)
        assert calls == [self.SEED + r for r in range(reps)]

    def test_routes_checked_before_sampling(self, monkeypatch):
        monkeypatch.setattr(simulate, "sample", None)  # any draw would fail
        gauss_embed = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        with pytest.raises(CapabilityError):
            mc_detail((EstimatorSpec.sample_mean(), gauss_embed),
                      DISTS["uniform"], self.N, 100, 0)

    @pytest.mark.parametrize("make", [
        lambda: EstimatorSpec.cov_mat_shrink(tau=math.nan),
        lambda: EstimatorSpec.cov_mat_shrink(tau=-1.0),
        lambda: EstimatorSpec.cov_mat_shrink(tau=math.inf),
        lambda: EstimatorSpec.cov_mat_shrink(variant="degen"),  # the CLI spelling
        lambda: EstimatorSpec("cov_mat_shrink"),
        lambda: EstimatorSpec("cov_mat_shrink", tau=1.0, variant="degen"),
    ], ids=["nan", "negative", "inf", "degen", "direct-none", "direct-degen"])
    def test_cov_shrink_spec_checked_before_sampling(self, monkeypatch, make):
        monkeypatch.setattr(simulate, "sample", None)  # any draw would fail
        with pytest.raises(ParameterError):
            mc_detail((make(),), DISTS["spherical"], self.N, 100, 0)

    @pytest.mark.parametrize("make", [
        lambda: EstimatorSpec("mu_check_c", c=5.0),
        lambda: EstimatorSpec("mu_check_c", c=0.0),
        lambda: EstimatorSpec("mu_check_c", c=math.nan),
        lambda: EstimatorSpec("mu_check_c", c=math.inf),
        lambda: EstimatorSpec("mu_check_c"),
        lambda: EstimatorSpec.mu_check_c(2.0),
        lambda: EstimatorSpec("fixed_alpha_mean", alpha=3.0),
        lambda: EstimatorSpec("fixed_alpha_mean", alpha=-0.1),
        lambda: EstimatorSpec("fixed_alpha_mean", alpha=math.nan),
        lambda: EstimatorSpec("fixed_alpha_mean", alpha=math.inf),
        lambda: EstimatorSpec("fixed_alpha_mean"),
        lambda: EstimatorSpec.fixed_alpha_mean(1.5),
    ], ids=["c-large", "c-zero", "c-nan", "c-inf", "c-none", "c-classmethod",
            "alpha-large", "alpha-negative", "alpha-nan", "alpha-inf", "alpha-none",
            "alpha-classmethod"])
    def test_mean_spec_checked_before_sampling(self, monkeypatch, make):
        monkeypatch.setattr(simulate, "sample", None)  # any draw would fail
        with pytest.raises(ParameterError):
            mc_detail((make(),), DISTS["spherical"], self.N, 100, 0)

    def test_no_estimators_rejected(self):
        with pytest.raises(ParameterError, match="at least one estimator"):
            mc_detail((), DISTS["spherical"], self.N, 100, 0)
