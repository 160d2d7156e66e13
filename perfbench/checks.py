"""Correctness checks of the program's outputs.

Every check compares an output with a value this file computes itself
(closed forms, ``scipy`` distances, ``numpy`` covariances and eigenvalues,
an exact enumeration) or with a property the method must have, never with a
stored copy of an earlier output.  Each function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# A Monte Carlo mean must lie within this many standard errors of its
# analytic value; at 5 the chance of a false failure is below 1e-6 per check.
Z_MC = 5.0
# Relative tolerance of a reported MC standard error against the analytic
# one; at >= 2000 reps the estimate's own relative spread is about 3%.
SE_RTOL = 0.2
# Closed forms recomputed here agree with the program to rounding.
RTOL = 1e-9

# The experiments' fixed parameters, as documented in ushrink.simulate.
MEAN_IMPROVEMENT = {"n": 5, "d": 10, "mu_sq": 1.0, "sigma": 1.0}
DAMPED_IMPROVEMENT = {"n": 10, "d": 3, "mu_sq": 4.0, "sigma": 1.0}
ORACLE = {"n": 10, "d": 3, "mu_sq": 1.0, "sigma": 1.0}
CONSISTENCY = {"grid": [25, 50, 100, 200], "d": 2, "sigma": 1.0, "bandwidth": 1.0}
# The O(1/n) rate: the fitted log-log slope must lie within this of -1.
SLOPE_TOL = 0.15


def close(label: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> list[str]:
    """Elementwise |got - want| <= atol + rtol * max|want|, all finite."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite value"]
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if err > atol + rtol * scale:
        return [f"{label}: off by {err:.3g} (scale {scale:.3g})"]
    return []


def alpha_consistent(label: str, report: dict) -> list[str]:
    """alpha_raw = delta / (delta + dist), alpha its clamp to [0, 1]."""
    denom = report["delta_hat"] + report["dist_sq"]
    raw = 0.0 if denom == 0.0 else report["delta_hat"] / denom
    return (close(f"{label} alpha_raw", report["alpha_raw"], raw, rtol=1e-12)
            + close(f"{label} alpha", report["alpha"], min(1.0, max(0.0, raw)),
                    rtol=1e-12))


def strict_json(label: str, text: str):
    """Parse JSON that must not hold NaN or Infinity; returns (obj, failures)."""
    def reject(token):
        raise ValueError(f"non-finite token {token}")
    try:
        return json.loads(text, parse_constant=reject), []
    except ValueError as exc:
        return None, [f"{label}: invalid JSON ({exc})"]


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------

def _rows(label: str, out: dict, kinds: list[str], n: int, d: int,
          reps: int) -> list[str]:
    rows = out.get("results", [])
    if len(rows) != len(kinds):
        return [f"{label}: {len(rows)} result rows, expected {len(kinds)}"]
    fails = []
    for row, kind in zip(rows, kinds):
        if not row["estimator"].startswith(kind):
            fails.append(f"{label}: row {row['estimator']!r} is not {kind}")
        if (row["n"], row["d"], row["reps"]) != (n, d, reps):
            fails.append(f"{label}: row {kind} has n, d, reps = "
                         f"{row['n']}, {row['d']}, {row['reps']}")
    return fails


def _mse_matches(label: str, row: dict, mean: float, var: float,
                 reps: int) -> list[str]:
    """MSE within Z_MC analytic standard errors, stderr near the analytic one."""
    se = math.sqrt(var / reps)
    fails = []
    if not abs(row["mse"] - mean) <= Z_MC * se:
        fails.append(f"{label}: mse {row['mse']:.6g} is more than {Z_MC} SE "
                     f"from {mean:.6g} (SE {se:.3g})")
    if not abs(row["stderr"] / se - 1.0) <= SE_RTOL:
        fails.append(f"{label}: stderr {row['stderr']:.4g}, analytic {se:.4g}")
    return fails


def _sample_mean(label: str, row: dict, p: dict, reps: int) -> list[str]:
    # ||Xbar - mu||^2 is (sigma^2/n) chi^2_d: mean d s^2, variance 2d s^4
    s2 = p["sigma"] ** 2 / p["n"]
    return _mse_matches(f"{label} sample_mean", row, p["d"] * s2,
                        2 * p["d"] * s2 * s2, reps)


def _paired_improves(label: str, out: dict) -> list[str]:
    paired = out.get("paired", {})
    if not (paired.get("stderr", 0.0) > 0.0 and paired.get("mean", 0.0) < 0.0):
        return [f"{label}: paired difference {paired.get('mean')} "
                f"(stderr {paired.get('stderr')}) is not below zero"]
    return []


def check_mean_improvement(out: dict, reps: int) -> list[str]:
    """Sample-mean risk d sigma^2/n; the shrunk mean improves at d = 10 > 4.5."""
    p = MEAN_IMPROVEMENT
    fails = _rows("mean-improvement", out, ["sample_mean", "mu_check"],
                  p["n"], p["d"], reps)
    if fails:
        return fails
    return (_sample_mean("mean-improvement", out["results"][0], p, reps)
            + _paired_improves("mean-improvement", out))


def check_damped_improvement(out: dict, reps: int) -> list[str]:
    """Sample-mean risk, and the damped mean's strict improvement at d = 3."""
    p = DAMPED_IMPROVEMENT
    fails = _rows("damped-improvement", out, ["sample_mean", "mu_check_c"],
                  p["n"], p["d"], reps)
    if fails:
        return fails
    return (_sample_mean("damped-improvement", out["results"][0], p, reps)
            + _paired_improves("damped-improvement", out))


def check_oracle(out: dict, reps: int) -> list[str]:
    """Oracle coefficient (tr/n)/(tr/n + ||mu||^2) and the fixed-alpha risk.

    Criterion 9's dominance of the fixed oracle over the plug-in rule does
    not hold at n = 10 and is not asserted.
    """
    p = ORACLE
    fails = _rows("oracle", out,
                  ["sample_mean", "fixed_alpha_mean", "mu_check"],
                  p["n"], p["d"], reps)
    if fails:
        return fails
    s2 = p["sigma"] ** 2 / p["n"]
    risk = p["d"] * s2
    a = risk / (risk + p["mu_sq"])
    fails = close("oracle alpha", out["oracle_alpha"], a, rtol=1e-12)
    fails += _sample_mean("oracle", out["results"][0], p, reps)
    # (1-a)Xbar - mu = (1-a)z - a mu with z ~ N(0, s2 I)
    mean = (1 - a) ** 2 * risk + a * a * p["mu_sq"]
    var = (1 - a) ** 4 * 2 * p["d"] * s2 * s2 + 4 * a * a * (1 - a) ** 2 * s2 * p["mu_sq"]
    fails += _mse_matches("oracle fixed_alpha_mean", out["results"][1], mean, var, reps)
    return fails


def check_consistency(out: dict, reps: int) -> list[str]:
    """Gaussian-kernel embedding shrinkage: risk bound, oracle, O(1/n) rate."""
    p = CONSISTENCY
    rows = out.get("results", [])
    if [r["n"] for r in rows] != p["grid"]:
        return [f"consistency: grid {[r['n'] for r in rows]} != {p['grid']}"]
    b, s2 = p["bandwidth"], p["sigma"] ** 2
    norm_c = (b / (b + 4 * s2)) ** (p["d"] / 2)
    fails = []
    for row in rows:
        n = row["n"]
        if (row["d"], row["reps"]) != (p["d"], reps):
            fails.append(f"consistency n={n}: d, reps = {row['d']}, {row['reps']}")
        unshrunk = (1 - norm_c) / n
        if not 0.0 < row["mse"] <= unshrunk + Z_MC * row["stderr"]:
            fails.append(f"consistency n={n}: mse {row['mse']:.6g} exceeds the "
                         f"unshrunk risk {unshrunk:.6g} + {Z_MC} SE")
        delta = (1 - norm_c) / n
        fails += close(f"consistency n={n} oracle_alpha", row["oracle_alpha"],
                       delta / (delta + norm_c), rtol=1e-12)
    mse = np.array([r["mse"] for r in rows])
    if np.all(mse > 0):
        slope = float(np.polyfit(np.log(p["grid"]), np.log(mse), 1)[0])
        fails += close("consistency slope", out.get("slope", math.nan), slope,
                       rtol=1e-9)
        if not abs(slope + 1.0) <= SLOPE_TOL:
            fails.append(f"consistency: slope {slope:.4f} not within "
                         f"{SLOPE_TOL} of -1")
    gaps = [r["median_alpha_gap"] for r in rows]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        fails.append(f"consistency: median_alpha_gap {gaps} not decreasing in n")
    return fails


# ---------------------------------------------------------------------------
# Gram-matrix estimators
# ---------------------------------------------------------------------------

def reference_gram(data: np.ndarray, bandwidth: float) -> np.ndarray:
    # imported here so the measured worker, which imports this module
    # through workloads.py, does not load scipy
    from scipy.spatial.distance import cdist

    return np.exp(-cdist(data, data, "sqeuclidean") / bandwidth)


def check_gram(entries: np.ndarray, ref: np.ndarray) -> list[str]:
    fails = close("gram entries", entries, ref, rtol=0.0, atol=1e-12)
    if not fails and not np.array_equal(entries, entries.T):
        fails.append("gram: not exactly symmetric")
    return fails


def check_shrink_mean(report: dict, ref: np.ndarray) -> list[str]:
    """delta = (mean diagonal - mean off-diagonal)/n, dist = mean entry."""
    n = ref.shape[0]
    tr, total = float(np.trace(ref)), float(ref.sum())
    delta = (tr / n - (total - tr) / (n * (n - 1))) / n
    return (close("shrink_mean delta_hat", report["delta_hat"], delta)
            + close("shrink_mean dist_sq", report["dist_sq"], total / n**2)
            + alpha_consistent("shrink_mean", report))


def _centered(g: np.ndarray) -> np.ndarray:
    row = g.mean(axis=1, keepdims=True)
    return g - row - row.T + g.mean()


def check_covop(label: str, report: dict, ref: np.ndarray) -> list[str]:
    """dist = ||HGH||_F^2/(n-1)^2; delta from sums of the centered Gram.

    ``label`` is ``shrink_covop`` or ``shrink_covop_degen``.  The pair sum
    comes from the identity
    sum_{i,j} (dc_i + dc_j - 2 Gc_ij)^2 = 2n sum dc^2 + 2 (sum dc)^2 + 4 q,
    with Gc the double-centered Gram, dc its diagonal and q = ||Gc||_F^2.
    """
    n = ref.shape[0]
    gc = _centered(ref)
    q = float((gc * gc).sum())
    dc = np.diagonal(gc)
    t2, s1 = float(dc @ dc), float(dc.sum())
    pair = 2 * n * t2 + 2 * s1 * s1 + 4 * q
    triple_full = n * n * t2 + 3 * n * q
    quad = 4 * n * n * q - 4 * triple_full + 2 * pair
    c2 = math.comb(n, 2)
    delta = pair / (4 * c2 * math.perm(n, 2)) - quad / (4 * c2 * math.perm(n, 4))
    if label == "shrink_covop":
        delta += (2 * n - 4) * (triple_full - pair) / (4 * c2 * math.perm(n, 3)) \
            - (2 * n - 4) * quad / (4 * c2 * math.perm(n, 4))
    return (close(f"{label} dist_sq", report["dist_sq"], q / (n - 1) ** 2)
            + close(f"{label} delta_hat", report["delta_hat"], delta, rtol=1e-6)
            + alpha_consistent(label, report))


def enumerate_covop(g: np.ndarray) -> tuple[dict, dict]:
    """Both covariance-operator reports' delta and dist, by exact enumeration.

    The covariance-operator U-statistic has kernel h(x, y) = (phi(x) -
    phi(y))^{(x)2} / 2, so <h(a, b), h(c, e)> = (G_ac - G_ae - G_bc + G_be)^2 / 4.
    With U_1, U_2, U_0 the means of that product over index tuples sharing
    one point, both points, and none, the unbiased risk estimate is
    w_1 (U_1 - U_0) + w_2 (U_2 - U_0) with hypergeometric weights
    w_c = C(2, c) C(m-2, 2-c) / C(m, 2); the degenerate variant is
    (U_2 - U_0) / C(m, 2).  The squared norm of the estimate is the mean
    product over all pairs of ordered distinct pairs.
    """
    m = g.shape[0]

    def prod(a, b, c, e):
        return 0.25 * (g[a, c] - g[a, e] - g[b, c] + g[b, e]) ** 2

    def tuples(k):
        return np.array(list(itertools.permutations(range(m), k))).T

    u0 = float(np.mean(prod(*tuples(4))))
    a, b, c = tuples(3)
    u1 = float(np.mean(prod(a, b, a, c)))
    a, b = tuples(2)
    u2 = float(np.mean(prod(a, b, a, b)))
    norm = float(np.mean(prod(a[:, None], b[:, None], a[None, :], b[None, :])))
    c2 = math.comb(m, 2)
    general = 2 * (m - 2) / c2 * (u1 - u0) + (u2 - u0) / c2
    degen = (u2 - u0) / c2
    return ({"delta_hat": general, "dist_sq": norm},
            {"delta_hat": degen, "dist_sq": norm})


def check_prefix(label: str, report: dict, enumerated: dict) -> list[str]:
    return (close(f"prefix {label} delta_hat", report["delta_hat"],
                  enumerated["delta_hat"])
            + close(f"prefix {label} dist_sq", report["dist_sq"],
                    enumerated["dist_sq"]))


# ---------------------------------------------------------------------------
# CLI on a CSV file
# ---------------------------------------------------------------------------

def cov_reference(data: np.ndarray) -> dict:
    """Sample covariance and its spectral summaries, computed independently."""
    n, d = data.shape
    c_hat = np.cov(data, rowvar=False)
    sigma = c_hat * (n - 1) / n
    lam = np.linalg.eigvalsh(sigma)
    xc = data - data.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    return {"n": n, "d": d, "c_hat": c_hat, "sigma": sigma,
            "tr": float(lam.sum()), "tr_s2": float(lam @ lam),
            "sum_fourth": float(sq @ sq)}


def check_cov_shrink(text: str, ref: dict, tau: float, variant: str) -> list[str]:
    """c_hat = np.cov, shrunk = (1-a) c_hat + a tau I, closed-form delta and dist."""
    label = f"cov-shrink {variant}"
    out, fails = strict_json(label, text)
    if fails:
        return fails
    n, d = ref["n"], ref["d"]
    tr, tr_s2, s4 = ref["tr"], ref["tr_s2"], ref["sum_fourth"]
    tr_sq = tr * tr
    if variant == "general":
        delta = (s4 / ((n - 2) * (n - 3))
                 - n * (n + 1) / ((n - 1) ** 2 * (n - 3)) * tr_s2
                 - n / ((n - 1) * (n - 2) * (n - 3)) * tr_sq)
    else:
        c2p4 = math.comb(n, 2) * math.perm(n, 4)
        delta = (n * (n * n - 3 * n + 4) / (2 * c2p4) * s4
                 - 2 * n * n * (n - 2) / c2p4 * tr_s2
                 + n * n * (n * n - 5 * n + 4) / (2 * c2p4) * tr_sq)
    dist = n * n / (n - 1) ** 2 * tr_s2 - 2 * n * tau / (n - 1) * tr + tau * tau * d
    report = out["report"]
    alpha = report["alpha"]
    fails += close(f"{label} c_hat", out["c_hat"], ref["c_hat"])
    fails += close(f"{label} sigma_hat", out["sigma_hat"], ref["sigma"])
    fails += close(f"{label} shrunk", out["shrunk"],
                   (1 - alpha) * np.asarray(out["c_hat"]) + alpha * tau * np.eye(d),
                   rtol=1e-12)
    fails += close(f"{label} delta_hat", report["delta_hat"], delta)
    fails += close(f"{label} dist_sq", report["dist_sq"], dist)
    fails += alpha_consistent(label, report)
    want_variant = "general" if variant == "general" else "degenerate"
    if report["variant"] != want_variant or out["tau"] != tau:
        fails.append(f"{label}: variant {report['variant']!r}, tau {out['tau']}")
    return fails


def check_normal_mean(text: str, data: np.ndarray) -> list[str]:
    """estimate = (1 - c alpha) xbar with c = (2n-2)/(3n-1)."""
    out, fails = strict_json("normal-mean", text)
    if fails:
        return fails
    n = data.shape[0]
    xbar = data.mean(axis=0)
    s2 = float(((data - xbar) ** 2).sum()) / (n - 1)
    alpha = (s2 / n) / (s2 / n + float(xbar @ xbar))
    c = (2 * n - 2) / (3 * n - 1)
    return (close("normal-mean xbar", out["xbar"], xbar)
            + close("normal-mean s2", out["s2"], s2)
            + close("normal-mean alpha", out["alpha"], alpha)
            + close("normal-mean c", out["c"], c, rtol=1e-15)
            + close("normal-mean estimate", out["estimate"], (1 - c * alpha) * xbar))
