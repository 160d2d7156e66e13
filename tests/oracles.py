"""Independent brute-force oracles.

Everything here is written against the definitions with plain nested loops
and no imports from the package under test, so these values are a third
computation route alongside the enumeration engine and the closed forms.
Desk scale only (n <= 10 or so).  The whole-array formulas at the end
(``gaussian_gram_product``, ``centered_gram_sums``, ``cov_shrink_untiled``,
``normal_mean_untiled``) are the untiled forms of the package's tiled
passes, which must reproduce their bits up to one tile and stay within
rounding of them beyond.  ``cov_shrink_exact``, ``gram_sums_exact`` and
``gram_reports_exact`` compute statistics of float input in exact rational
arithmetic, and ``gaussian_gram_longdouble`` the Gaussian Gram in long
double, as references for the rounding error of every float route.
"""

import math

import numpy as np


def linear_gram(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    return np.array([[float(x[i] @ x[j]) for j in range(n)] for i in range(n)])


def mean_delta_brute(g) -> float:
    """(1/n) [ mean_i G_ii - mean_{i<j} G_ij ]."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    diag = sum(g[i, i] for i in range(n)) / n
    off = sum(g[i, j] for i in range(n) for j in range(i + 1, n)) / math.comb(n, 2)
    return (diag - off) / n


def mean_norm_sq_brute(g) -> float:
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    return sum(g[i, j] for i in range(n) for j in range(n)) / n**2


def _bracket(g, i, j, l, m) -> float:
    return g[i, l] - g[i, m] - g[j, l] + g[j, m]


def covop_sums_brute(g):
    """Pair, triple, quadruple and unrestricted squared-bracket sums."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    pair = sum(
        _bracket(g, i, j, i, j) ** 2
        for i in range(n) for j in range(n) if i != j
    )
    triple = sum(
        _bracket(g, i, j, i, l) ** 2
        for i in range(n) for j in range(n) for l in range(n)
        if len({i, j, l}) == 3
    )
    quadruple = sum(
        _bracket(g, i, j, l, m) ** 2
        for i in range(n) for j in range(n) for l in range(n) for m in range(n)
        if len({i, j, l, m}) == 4
    )
    unrestricted = sum(
        _bracket(g, i, j, l, m) ** 2
        for i in range(n) for j in range(n) for l in range(n) for m in range(n)
        if i != j and l != m
    )
    return pair, triple, quadruple, unrestricted


def covop_delta_general_brute(g) -> float:
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    pair, triple, quadruple, _ = covop_sums_brute(g)
    c2 = math.comb(n, 2)
    return (
        (2 * n - 4) * triple / (4 * c2 * math.perm(n, 3))
        + pair / (4 * c2 * math.perm(n, 2))
        - (2 * n - 3) * quadruple / (4 * c2 * math.perm(n, 4))
    )


def covop_delta_degen_brute(g) -> float:
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    pair, _, quadruple, _ = covop_sums_brute(g)
    c2 = math.comb(n, 2)
    return pair / (4 * c2 * math.perm(n, 2)) - quadruple / (4 * c2 * math.perm(n, 4))


def covop_norm_sq_brute(g) -> float:
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    _, _, _, unrestricted = covop_sums_brute(g)
    return unrestricted / (4 * math.perm(n, 2) ** 2)


def gaussian_gram_product(x, z, bandwidth, side=None) -> np.ndarray:
    """The Gaussian product route's elementwise formula on whole n x m arrays.

    exp(-max(||xc_i||^2 + ||zc_j||^2 - 2 <xc_i, zc_j>, 0) / bandwidth) for
    points centered by the mean of ``x``, with a zero squared distance on
    the diagonal when ``z is x``.  The products <xc_i, zc_j> are one
    ``xc @ zc.T``, or, with ``z is x`` and a block ``side``, one product
    ``xc[I] @ xc[J].T`` per square block (I, J) of the upper triangle, cut
    at multiples of ``side``, each block's transpose copied into its mirror
    (the products the route forms).  No spread cap: callers pass data
    within it.  The blocked route must reproduce these bytes.
    """
    center = x.mean(axis=0)
    xc = x - center
    zc = xc if z is x else z - center
    x_sq = np.einsum("ij,ij->i", xc, xc)
    z_sq = x_sq if z is x else np.einsum("ij,ij->i", zc, zc)
    sq = np.add.outer(x_sq, z_sq)
    if z is x and side is not None:
        n = len(x)
        cross = np.empty((n, n))
        for lo in range(0, n, side):
            rows = slice(lo, lo + side)
            for hi in range(lo, n, side):
                cols = slice(hi, hi + side)
                cross[rows, cols] = xc[rows] @ xc[cols].T
                cross[cols, rows] = cross[rows, cols].T
    else:
        cross = xc @ zc.T
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    if z is x:
        np.fill_diagonal(sq, 0.0)
    np.divide(sq, -bandwidth, out=sq)
    return np.exp(sq, out=sq)


def gaussian_gram_longdouble(x, bandwidth) -> np.ndarray:
    """exp(-||x_i - x_j||^2 / bandwidth) of the float data in long double.

    The differences, their squares and sums, and exp are taken in numpy's
    longdouble (64 significant bits on x86), so the result is within a few
    units of 2^-64 of the exact kernel of the data, a reference for the
    float64 routes' error.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    sq = np.square(xl[:, None, :] - xl[None, :, :]).sum(axis=-1)
    return np.exp(-sq / np.longdouble(bandwidth))


def double_centered_gram(g) -> np.ndarray:
    """G minus its row and column means plus its grand mean, on one array.

    The row means are numpy's row sums over n, and the grand mean the sum
    of those row sums over n^2.
    """
    g = np.asarray(g, dtype=float)
    n = len(g)
    row_sums = g.sum(axis=1, keepdims=True)
    row_mean = row_sums / n
    gc = g - row_mean
    gc -= row_mean.T
    gc += float(row_sums.sum()) / (n * n)
    return gc


def centered_gram_sums(g) -> tuple[int, float, float, float]:
    """n, sum_i dc_i, sum_i dc_i^2 and ||Gc||_F^2 on the whole n x n array.

    The untiled formula: dc is the diagonal of the double-centered Gram
    matrix Gc, and every sum is numpy's over the whole array.
    """
    gc = double_centered_gram(g)
    diag = np.diagonal(gc).copy()
    return (gc.shape[0], float(diag.sum()), float((diag * diag).sum()),
            float(np.square(gc).sum()))


def cov_shrink_untiled(data, tau: float, variant: str) -> dict:
    """``shrink_cov_matrix`` on whole arrays, as it ran before its tiling.

    The data are centered by the corrected two-pass algorithm, x - fl(xbar)
    less its own mean, as ``covmat._moments`` centers them (the residuals'
    sum is one product with a vector of ones).
    Sigma_hat is one product of the centered data, sym(Xc^T Xc / n); its
    traces and sum_i ||X_i - Xbar||^4 are numpy's sums over whole arrays;
    delta_hat and dist_sq are the linear-kernel polynomials of the ``covmat``
    docstring, and alpha their coefficient clamped to [0, 1].  ``*_scale``
    is the sum of the absolute terms of each polynomial, the size of its
    rounding error.
    """
    x = np.asarray(data, dtype=float)
    n, d = x.shape
    xc = x - x.mean(axis=0)
    xc -= np.ones(n) @ xc / n
    s = xc.T @ xc / n
    s = (s + s.T) / 2.0
    sq_norms = np.sum(xc * xc, axis=1)
    tr, tr_s2, fourth = np.trace(s), np.trace(s @ s), np.sum(sq_norms * sq_norms)
    if variant == "general":
        delta = (fourth / ((n - 2) * (n - 3)),
                 -n * (n + 1) / ((n - 1) ** 2 * (n - 3)) * tr_s2,
                 -n / ((n - 1) * (n - 2) * (n - 3)) * tr * tr)
    else:
        c = 2 * math.comb(n, 2) * math.perm(n, 4)
        delta = (n * (n * n - 3 * n + 4) * fourth / c, -4 * n * n * (n - 2) * tr_s2 / c,
                 n * n * (n * n - 5 * n + 4) * tr * tr / c)
    dist = (n * n / (n - 1) ** 2 * tr_s2, -2 * n * tau / (n - 1) * tr, tau * tau * d)
    alpha = min(1.0, max(0.0, sum(delta) / (sum(delta) + sum(dist))))
    c_hat = n / (n - 1) * s
    return {"sigma_hat": s, "tr": tr, "tr_s2": tr_s2, "sum_fourth": fourth,
            "shrunk": (1.0 - alpha) * c_hat + alpha * tau * np.eye(d),
            "delta_hat": sum(delta), "delta_scale": sum(map(abs, delta)),
            "dist_sq": sum(dist), "dist_scale": sum(map(abs, dist)), "alpha": alpha}


def normal_mean_untiled(data, c: float) -> dict:
    """``mu_check_c`` on whole arrays, as it ran before its tiling.

    S^2 is one sum of all the squared residuals over n - 1, alpha is
    (S^2/n) / (S^2/n + ||Xbar||^2) and the estimate (1 - c alpha) Xbar.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    xbar = x.mean(axis=0)
    s2 = float(((x - xbar) ** 2).sum()) / (n - 1)
    alpha = (s2 / n) / (s2 / n + float(xbar @ xbar))
    return {"xbar": xbar, "s2": s2, "alpha": alpha,
            "estimate": (1.0 - c * alpha) * xbar}


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def cov_shrink_exact(data, tau: float, variant: str) -> dict:
    """``shrink_cov_matrix``'s delta_hat, dist_sq and alpha in exact arithmetic.

    Every float is a rational, so the data's mean, Sigma_hat (divisor n),
    Tr[Sigma_hat], Tr[Sigma_hat^2] = ||Sigma_hat||_F^2 and
    sum_i ||X_i - Xbar||^4 are formed as ``fractions.Fraction`` without
    rounding, and so are the two polynomials of the ``covmat`` docstring and
    the clamped coefficient.  Pure Python: keep n <= 50 or so.
    """
    from fractions import Fraction

    rows = [[Fraction(v) for v in row]
            for row in np.asarray(data, dtype=float).tolist()]
    n, d = len(rows), len(rows[0])
    mean = [sum(col) / n for col in zip(*rows)]
    resid = [[v - mu for v, mu in zip(row, mean)] for row in rows]
    s = [[sum(r[a] * r[b] for r in resid) / n for b in range(d)] for a in range(d)]
    tr = sum(s[a][a] for a in range(d))
    tr_s2 = sum(v * v for row in s for v in row)
    fourth = sum(sum(v * v for v in r) ** 2 for r in resid)
    if variant == "general":
        delta = (fourth / ((n - 2) * (n - 3))
                 - Fraction(n * (n + 1), (n - 1) ** 2 * (n - 3)) * tr_s2
                 - Fraction(n, (n - 1) * (n - 2) * (n - 3)) * tr * tr)
    else:
        c = 2 * math.comb(n, 2) * math.perm(n, 4)
        delta = (Fraction(n * (n * n - 3 * n + 4), c) * fourth
                 - Fraction(4 * n * n * (n - 2), c) * tr_s2
                 + Fraction(n * n * (n * n - 5 * n + 4), c) * tr * tr)
    t = Fraction(tau)
    dist = (Fraction(n * n, (n - 1) ** 2) * tr_s2 - Fraction(2 * n, n - 1) * t * tr
            + t * t * d)
    alpha = min(Fraction(1), max(Fraction(0), delta / (delta + dist)))
    return {"delta_hat": delta, "dist_sq": dist, "alpha": alpha}


def normal_mean_exact(data, c: float) -> dict:
    """``mu_check_c``'s S^2, report and estimate in exact arithmetic.

    Every float is a rational, so the mean Xbar, the pooled deviation
    S^2 = sum_i ||X_i - Xbar||^2 / (n - 1), delta_hat = S^2/n,
    dist_sq = ||Xbar||^2, alpha = delta_hat / (delta_hat + dist_sq) (0 on a
    zero denominator) and the estimate (1 - c alpha) Xbar are
    ``fractions.Fraction`` values without rounding.  Pure Python: keep n <= 50
    or so.
    """
    from fractions import Fraction

    rows = [[Fraction(v) for v in row]
            for row in np.asarray(data, dtype=float).tolist()]
    n = len(rows)
    mean = [sum(col) / n for col in zip(*rows)]
    s2 = sum((v - mu) ** 2 for row in rows for v, mu in zip(row, mean)) / (n - 1)
    delta, dist = s2 / n, sum(mu * mu for mu in mean)
    alpha = Fraction(0) if delta + dist == 0 else delta / (delta + dist)
    return {"s2": s2, "delta_hat": delta, "dist_sq": dist, "alpha": alpha,
            "estimate": [(1 - Fraction(c) * alpha) * mu for mu in mean]}


def gram_sums_exact(g) -> dict:
    """A float Gram's statistics in exact rational arithmetic.

    Every float is a rational, so the trace, the total, and, for the
    double-centered matrix Gc = G - r 1^T - 1 r^T + m (r the row means, m
    the grand mean), sum_i dc_i, sum_i dc_i^2 and ||Gc||_F^2 (dc the
    diagonal of Gc) are ``fractions.Fraction`` values without rounding.
    Pure Python: keep n <= 50 or so.
    """
    from fractions import Fraction

    rows = [[Fraction(v) for v in row] for row in np.asarray(g, dtype=float).tolist()]
    n = len(rows)
    row_mean = [sum(row) / n for row in rows]
    total = sum(row_mean) * n
    mean = total / (n * n)
    gc = [[v - row_mean[i] - row_mean[j] + mean for j, v in enumerate(row)]
          for i, row in enumerate(rows)]
    dc = [gc[i][i] for i in range(n)]
    return {"n": n, "trace": sum(rows[i][i] for i in range(n)), "total": total,
            "sum_dc": sum(dc), "sum_dc_sq": sum(v * v for v in dc),
            "frob_sq": sum(v * v for row in gc for v in row)}


def gram_reports_exact(g) -> dict:
    """``shrink_mean``'s, ``shrink_covop``'s and ``shrink_covop_degen``'s
    delta_hat and dist_sq for a float Gram, in exact rational arithmetic.

    The mean's delta_hat is (mean diagonal - mean off-diagonal entry) / n and
    its dist_sq the grand mean; the covariance operator's are the
    polynomials in sum_dc, sum_dc_sq and frob_sq of
    ``shrinkage._covop_delta`` (checked against the enumerated pair, triple
    and quadruple sums by ``covop_delta_*_brute``), and its dist_sq is
    ||Gc||_F^2 / (n - 1)^2, each from ``gram_sums_exact``.
    """
    from fractions import Fraction

    s = gram_sums_exact(g)
    n, trace, total = s["n"], s["trace"], s["total"]
    dc, dc_sq, frob = s["sum_dc"], s["sum_dc_sq"], s["frob_sq"]
    c2p4 = math.comb(n, 2) * math.perm(n, 4)
    general = (dc_sq / ((n - 2) * (n - 3))
               - Fraction(n + 1, n * (n - 1) ** 2 * (n - 3)) * frob
               - Fraction(1, n * (n - 1) * (n - 2) * (n - 3)) * dc * dc)
    degen = (Fraction(n * (n * n - 3 * n + 4), 2 * c2p4) * dc_sq
             - Fraction(2 * (n - 2), c2p4) * frob
             + Fraction(n * n - 5 * n + 4, 2 * c2p4) * dc * dc)
    covop_dist = frob / (n - 1) ** 2
    return {"mean": ((trace / n - (total - trace) / (n * (n - 1))) / n, total / (n * n)),
            "general": (general, covop_dist), "degenerate": (degen, covop_dist)}
