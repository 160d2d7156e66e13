"""Independent brute-force oracles.

Everything here is written against the definitions with plain nested loops
and no imports from the package under test, so these values are a third
computation route alongside the enumeration engine and the closed forms.
Desk scale only (n <= 10 or so).  The whole-array formulas at the end
(``gaussian_gram_product``, ``centered_gram_sums``) are the untiled forms
of the package's tiled passes, which must reproduce their bits.
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


def gaussian_gram_product(x, z, bandwidth) -> np.ndarray:
    """The Gaussian product route on whole n x m arrays, as it ran untiled.

    exp(-max(||xc_i||^2 + ||zc_j||^2 - 2 <xc_i, zc_j>, 0) / bandwidth) for
    points centered by the mean of ``x``, with a zero squared distance on
    the diagonal when ``z is x``.  No spread cap: callers pass data within
    it.  The tiled route must reproduce these bytes.
    """
    center = x.mean(axis=0)
    xc = x - center
    zc = xc if z is x else z - center
    x_sq = np.einsum("ij,ij->i", xc, xc)
    z_sq = x_sq if z is x else np.einsum("ij,ij->i", zc, zc)
    sq = np.add.outer(x_sq, z_sq)
    cross = xc @ zc.T
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    if z is x:
        np.fill_diagonal(sq, 0.0)
    np.divide(sq, -bandwidth, out=sq)
    return np.exp(sq, out=sq)


def double_centered_gram(g) -> np.ndarray:
    """G minus its row and column means plus its grand mean, on one array."""
    g = np.asarray(g, dtype=float)
    row_mean = g.mean(axis=1, keepdims=True)
    gc = g - row_mean
    gc -= row_mean.T
    gc += g.mean()
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


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale
