"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Exact-identity and oracle-equivalence checks come
first, then the statistically powered Monte Carlo checks with frozen seeds.
"""

import math
import time

import numpy as np
import pytest

import oracles
from ushrink import (
    DEGENERATE,
    GENERAL,
    DistSpec,
    EstimatorSpec,
    KernelSpec,
    covop_inner,
    delta_degen,
    delta_general,
    gram,
    kernel_function,
    mean_inner,
    oracle_alpha,
    rate_slope,
    sample,
    shrink_cov_matrix,
    shrink_covop,
    shrink_covop_degen,
    shrink_mean,
)
from ushrink.covmat import moment_identity_check
from ushrink.simulate import mc_detail, summarize_errors

LINEAR = KernelSpec.linear()
ALL_SPECS = (LINEAR, KernelSpec.gaussian(1.0), KernelSpec.exponential(1.0))


def e1(d, scale=1.0):
    v = np.zeros(d)
    v[0] = scale
    return v


def test_criterion_1_moment_identities(criterion):
    start = time.time()
    rng = np.random.default_rng(20250801)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.choice([1, 2, 3, 5]))
        data = rng.uniform(-2.0, 2.0, size=(n, d))
        for lhs, rhs in moment_identity_check(data):
            worst = max(worst, oracles.rel_err(lhs, rhs))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    criterion(1, "moment-identity exactness", ok,
              f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_closed_forms_vs_enumeration(criterion):
    start = time.time()
    rng = np.random.default_rng(20250802)
    inner = covop_inner(kernel_function(LINEAR))
    worst = 0.0
    for i in range(20):
        n = 4 + i % 5
        d = 1 + i % 3
        data = rng.uniform(-2.0, 2.0, size=(n, d))
        worst = max(worst, oracles.rel_err(
            shrink_cov_matrix(data, variant=GENERAL).report.delta_hat,
            delta_general(inner, data, 2),
        ))
        worst = max(worst, oracles.rel_err(
            shrink_cov_matrix(data, variant=DEGENERATE).report.delta_hat,
            delta_degen(inner, data, 2),
        ))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    criterion(2, "closed forms vs enumeration", ok,
              f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_3_gram_forms_vs_enumeration(criterion):
    start = time.time()
    rng = np.random.default_rng(20250803)
    worst = 0.0
    for spec in ALL_SPECS:
        fn = kernel_function(spec)
        mean_fn, cov_fn = mean_inner(fn), covop_inner(fn)
        for n in range(4, 9):
            data = rng.uniform(-2.0, 2.0, size=(n, 2))
            g = gram(spec, data)
            _, mean_report = shrink_mean(g)
            worst = max(worst, oracles.rel_err(
                mean_report.delta_hat,
                delta_general(mean_fn, data, 1),
            ))
            worst = max(worst, oracles.rel_err(
                shrink_covop(g).delta_hat,
                delta_general(cov_fn, data, 2),
            ))
            worst = max(worst, oracles.rel_err(
                shrink_covop_degen(g).delta_hat,
                delta_degen(cov_fn, data, 2),
            ))
        # order-1 estimators are defined down to n = 2
        for n in (2, 3):
            data = rng.uniform(-2.0, 2.0, size=(n, 2))
            _, mean_report = shrink_mean(gram(spec, data))
            worst = max(worst, oracles.rel_err(
                mean_report.delta_hat,
                delta_general(mean_fn, data, 1),
            ))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    criterion(3, "generic engine cross-checks", ok,
              f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_4_risk_estimate_unbiased(criterion):
    start = time.time()
    dist = DistSpec.spherical_gaussian(e1(3), 1.0)
    reps, seed = 10**5, 410_000
    vals = np.empty(reps)
    for r in range(reps):
        data = sample(dist, 10, seed + r)
        _, report = shrink_mean(gram(LINEAR, data))
        vals[r] = report.delta_hat
    mean = math.fsum(vals) / reps
    se = vals.std(ddof=1) / math.sqrt(reps)
    z = (mean - 0.3) / se
    elapsed = time.time() - start
    ok = abs(z) < 4.0 and elapsed < 120.0
    criterion(4, "risk estimate unbiasedness", ok,
              f"mean {mean:.5f} vs 0.3, z {z:+.2f}, {elapsed:.1f}s")
    assert abs(z) < 4.0
    assert elapsed < 120.0


def test_criterion_5_improvement_d10(criterion):
    start = time.time()
    dist = DistSpec.spherical_gaussian(e1(10), 1.0)
    reps, seed = 10**5, 510_000
    errs_shrunk, errs_plain = mc_detail(
        (EstimatorSpec.mu_check(), EstimatorSpec.sample_mean()), dist, 5, reps, seed)[0]
    plain = summarize_errors(errs_plain, reps, seed)
    shrunk = summarize_errors(errs_shrunk, reps, seed)
    diff = summarize_errors(errs_plain - errs_shrunk, reps, seed)
    z_analytic = (plain.mean_sq_error - 2.0) / plain.std_error
    gain_z = diff.mean_sq_error / diff.std_error
    elapsed = time.time() - start
    ok = (shrunk.mean_sq_error < plain.mean_sq_error
          and gain_z > 4.0 and abs(z_analytic) < 4.0 and elapsed < 120.0)
    criterion(5, "shrunk mean improves at d=10 n=5", ok,
              f"mse {shrunk.mean_sq_error:.4f} < {plain.mean_sq_error:.4f}, "
              f"paired z {gain_z:.0f}, {elapsed:.1f}s")
    assert abs(z_analytic) < 4.0
    assert shrunk.mean_sq_error < plain.mean_sq_error
    assert gain_z > 4.0
    assert elapsed < 120.0


def test_criterion_6_damped_improvement_d3(criterion):
    start = time.time()
    dist = DistSpec.spherical_gaussian(e1(3, scale=2.0), 1.0)
    n, reps, seed = 10, 10**6, 610_000
    c = (2 * n - 2) / (3 * n - 1)
    damped_est, plain_est = EstimatorSpec.mu_check_c(c), EstimatorSpec.sample_mean()
    errs_damped, errs_plain = mc_detail((damped_est, plain_est), dist, n, reps, seed)[0]
    plain = summarize_errors(errs_plain, reps, seed)
    damped = summarize_errors(errs_damped, reps, seed)
    diff = summarize_errors(errs_plain - errs_damped, reps, seed)
    z_analytic = (plain.mean_sq_error - 0.3) / plain.std_error
    gain_z = diff.mean_sq_error / diff.std_error
    elapsed = time.time() - start
    ok = (damped.mean_sq_error < plain.mean_sq_error
          and gain_z > 4.0 and abs(z_analytic) < 4.0 and elapsed < 600.0)
    criterion(6, "damped shrinkage improves at d=3", ok,
              f"mse {damped.mean_sq_error:.5f} < {plain.mean_sq_error:.5f}, "
              f"paired z {gain_z:.0f}, {elapsed:.0f}s")
    assert abs(z_analytic) < 4.0
    assert damped.mean_sq_error < plain.mean_sq_error
    assert gain_z > 4.0
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def consistency_grid():
    dist = DistSpec.spherical_gaussian(np.array([1.0, 0.0]), 1.0)
    est = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
    reps, seed = 10**4, 780_000
    start = time.time()
    rows = []
    for n in (25, 50, 100, 200):
        (errs,), (alphas,) = mc_detail((est,), dist, n, reps, seed)
        risk = summarize_errors(errs, reps, seed)
        a_star = oracle_alpha(dist, est, n)
        rows.append({
            "n": n,
            "mse": risk.mean_sq_error,
            "gap": float(np.median(np.abs(alphas - a_star))),
        })
    return rows, time.time() - start


def test_criterion_7_consistency_slope(criterion, consistency_grid):
    rows, elapsed = consistency_grid
    slope = rate_slope([(row["n"], row["mse"]) for row in rows])
    ok = -1.25 <= slope <= -0.75 and elapsed < 600.0
    criterion(7, "embedding risk decay slope", ok,
              f"slope {slope:.3f} in [-1.25, -0.75], {elapsed:.0f}s")
    assert -1.25 <= slope <= -0.75
    assert elapsed < 600.0


def test_criterion_8_coefficient_concentration(criterion, consistency_grid):
    rows, _ = consistency_grid
    gap_first = rows[0]["gap"]
    gap_last = rows[-1]["gap"]
    ok = gap_last < gap_first
    criterion(8, "coefficient concentration", ok,
              f"median gap {gap_first:.5f} at n=25 -> {gap_last:.5f} at n=200")
    assert gap_last < gap_first


def test_criterion_9_oracle_dominance(criterion):
    start = time.time()
    dist = DistSpec.spherical_gaussian(e1(3), 1.0)
    n, reps, seed = 10, 10**5, 910_000
    a_star = oracle_alpha(dist, EstimatorSpec.mu_check(), n)
    # one draw of each dataset for all three estimators; an estimator's
    # errors are those of its own run
    errs = mc_detail((EstimatorSpec.fixed_alpha_mean(a_star),
                      EstimatorSpec.sample_mean(), EstimatorSpec.mu_check()),
                     dist, n, reps, seed)[0]
    fixed, plain, shrunk = (summarize_errors(e, reps, seed) for e in errs)
    margin_1 = (plain.mean_sq_error
                - 2 * math.hypot(fixed.std_error, plain.std_error)
                - fixed.mean_sq_error)
    slack_2 = 3 * math.hypot(shrunk.std_error, fixed.std_error)
    excess_2 = shrunk.mean_sq_error - fixed.mean_sq_error
    elapsed = time.time() - start
    ok = margin_1 > 0 and excess_2 <= slack_2 and elapsed < 120.0
    criterion(9, "oracle dominance", ok,
              f"fixed {fixed.mean_sq_error:.4f} vs plain {plain.mean_sq_error:.4f} "
              f"margin {margin_1:+.4f}; plug-in excess {excess_2:.4f} "
              f"vs slack {slack_2:.4f}, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert margin_1 > 0, (
        f"fixed-coefficient risk {fixed.mean_sq_error} must undercut the plain "
        f"risk {plain.mean_sq_error} by 2 combined standard errors"
    )
    # The plug-in coefficient's excess risk over the fixed-oracle risk is a
    # population constant at n = 10 (about 0.048 here), not Monte Carlo
    # noise, so a noise-scale slack cannot absorb it at these settings.
    assert excess_2 <= slack_2, (
        f"plug-in risk {shrunk.mean_sq_error} exceeds the fixed-oracle risk "
        f"{fixed.mean_sq_error} by {excess_2:.4f}, above the 3-combined-"
        f"standard-error slack {slack_2:.4f}"
    )


def test_criterion_10_cross_module_consistency(criterion):
    start = time.time()
    rng = np.random.default_rng(20251010)
    worst = 0.0
    for i in range(10):
        n = 4 + i % 5
        data = rng.uniform(-2.0, 2.0, size=(n, 2))
        res = shrink_cov_matrix(data, tau=0.0)
        report = shrink_covop(gram(LINEAR, data))
        worst = max(worst, oracles.rel_err(res.report.delta_hat, report.delta_hat))
        worst = max(worst, oracles.rel_err(res.report.dist_sq, report.dist_sq))
        worst = max(worst, oracles.rel_err(res.report.alpha, report.alpha))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    criterion(10, "matrix vs operator route", ok,
              f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_11_degenerate_variant_consistent(criterion):
    # The paper's headline claim: the shrinkage estimator built for a
    # completely degenerate kernel stays consistent when the kernel is not
    # degenerate.  The linear-kernel covariance is such a case; its shrunk
    # risk must still decay at rate 1/n and the coefficient fall toward 0.
    start = time.time()
    dist = DistSpec.diag_gaussian(np.zeros(5), [2.0, 1.5, 1.0, 0.7, 0.5])
    ests = (EstimatorSpec.cov_mat_shrink(tau=1.0, variant=DEGENERATE),
            EstimatorSpec.cov_mat_plain())
    reps, seed = 2000, 12345
    ns = (10, 20, 40, 80, 160)
    risks, plain_risks, median_alphas = [], [], []
    for n in ns:
        errs, alphas = mc_detail(ests, dist, n, reps, seed)
        risks.append(summarize_errors(errs[0], reps, seed).mean_sq_error)
        plain_risks.append(summarize_errors(errs[1], reps, seed).mean_sq_error)
        median_alphas.append(float(np.median(alphas[0])))
    slope = rate_slope(zip(ns, risks))
    plain_slope = rate_slope(zip(ns, plain_risks))
    elapsed = time.time() - start
    ok = (-1.25 <= slope <= -0.75 and median_alphas[-1] < median_alphas[0]
          and elapsed < 60.0)
    criterion(11, "degenerate variant consistent, linear kernel", ok,
              f"slope {slope:.3f} in [-1.25, -0.75] (plain {plain_slope:.3f}); "
              f"median alpha {median_alphas[0]:.4f} at n={ns[0]} -> "
              f"{median_alphas[-1]:.4f} at n={ns[-1]}, {elapsed:.1f}s")
    assert -1.25 <= slope <= -0.75
    assert median_alphas[-1] < median_alphas[0]
    assert elapsed < 60.0
