"""Shrinkage of unbiased Hilbert-space estimates toward a fixed target.

Given an unbiased estimate C_hat of a Hilbert-space element and a target f*,
the shrunk estimate is the convex combination (1 - alpha) C_hat + alpha f*
with the plug-in coefficient

    alpha = delta_hat / (delta_hat + ||C_hat - f*||^2),

where delta_hat estimates the risk E||C_hat - C||^2.  This module provides

* generic enumeration-based risk estimators for U-statistics of any order,
  driven by caller-supplied inner-product evaluation functions;
* closed Gram-matrix forms for the two cases used in practice: the kernel
  mean embedding (order 1) and the kernel covariance operator (order 2,
  zero target), in both the general and the degenerate variant;
* dual-weight representations of shrunk mean embeddings and their pointwise
  evaluation via the reproducing property.

Risk estimators are unbiased and may come out negative on small samples, so
the returned coefficient is the raw ratio clamped to [0, 1]; a vanishing
denominator is resolved to alpha = 0 (no shrinkage).  Squared distances that
round slightly negative (above -1e-9) are snapped to zero.  A risk estimate
or squared distance that overflows float64 raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientSampleError
from .kernels import GramMatrix, KernelSpec, as_dataset, kernel_function
from .ustat import EvalFn, comb_weights, u_stat_perm

GENERAL = "general"
DEGENERATE = "degenerate"

# Cancellation slack: squared distances in (DIST_SQ_FLOOR, 0) become 0.
DIST_SQ_FLOOR = -1e-9


@dataclass(frozen=True)
class ShrinkageReport:
    """Risk estimate, squared distance to the target, and the coefficient."""

    delta_hat: float
    dist_sq: float
    alpha_raw: float
    alpha: float
    variant: str

    def to_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "dist_sq": self.dist_sq,
            "alpha_raw": self.alpha_raw,
            "alpha": self.alpha,
            "variant": self.variant,
        }


@dataclass(frozen=True)
class TargetSpec:
    """Dual shrinkage target sum_j coefficients[j] K(., landmarks[j]).

    The zero target has no spec: functions taking a target read ``None`` as
    zero.
    """

    landmarks: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def dual(cls, landmarks, coefficients) -> "TargetSpec":
        pts = as_dataset(landmarks)
        coef = np.asarray(coefficients, dtype=float).ravel()
        if pts.shape[0] != coef.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} landmarks but {coef.shape[0]} coefficients"
            )
        return cls(landmarks=pts, coefficients=coef)


@dataclass(frozen=True)
class DualMeanElement:
    """A mean-embedding estimate as weights on kernel sections.

    The element is sum_i data_weights[i] K(., X_i)
    + sum_j target_weights[j] K(., Z_j) for landmark points Z_j.
    """

    data_weights: np.ndarray
    target_weights: np.ndarray
    landmarks: np.ndarray | None = None


def alpha_from(delta_hat: float, dist_sq: float) -> tuple[float, float]:
    """Raw and clamped shrinkage coefficient from a risk estimate.

    Returns ``(alpha_raw, alpha)`` where ``alpha_raw`` is
    delta_hat / (delta_hat + dist_sq) (zero if the denominator vanishes) and
    ``alpha`` is its clamp to [0, 1].  Total function: never raises.
    """
    denom = delta_hat + dist_sq
    raw = 0.0 if denom == 0.0 else delta_hat / denom
    return raw, min(1.0, max(0.0, raw))


def clamped_alpha(delta_hat: np.ndarray, dist_sq: np.ndarray) -> np.ndarray:
    """Elementwise clamped coefficient of ``alpha_from`` over arrays.

    Bit-identical to ``alpha_from(d, s)[1]`` at every position, including
    its zero-denominator rule and its mapping of a NaN ratio to 0.
    """
    denom = delta_hat + dist_sq
    raw = np.divide(delta_hat, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return np.minimum(1.0, np.fmax(0.0, raw))


def _report(variant: str, delta: float, dist_sq: float) -> ShrinkageReport:
    """Report of a risk estimate and a squared distance to the target.

    Snaps ``dist_sq`` in (DIST_SQ_FLOOR, 0) to 0 and forms the coefficient.
    Raises ``ValueError`` when either input is not finite, which on finite
    data means the computation overflowed float64.
    """
    if not (math.isfinite(delta) and math.isfinite(dist_sq)):
        raise ValueError(
            f"shrinkage risk overflows float64: delta_hat={delta:g}, "
            f"dist_sq={dist_sq:g}; rescale the data")
    if DIST_SQ_FLOOR < dist_sq < 0.0:
        dist_sq = 0.0
    raw, alpha = alpha_from(delta, dist_sq)
    return ShrinkageReport(delta_hat=delta, dist_sq=dist_sq,
                           alpha_raw=raw, alpha=alpha, variant=variant)


def _entries(gram) -> np.ndarray:
    g = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
    return g


# ---------------------------------------------------------------------------
# generic enumeration-based risk estimators
# ---------------------------------------------------------------------------

def delta_general(
    overlap_products: Sequence[EvalFn],
    disjoint_product: EvalFn,
    data,
    k: int,
) -> float:
    """Unbiased risk estimate of an order-k U-statistic via overlap products.

    ``overlap_products[i-1]`` (i = 1..k) must evaluate the inner product of
    the estimand kernel on two argument blocks sharing their first ``i``
    points, hence has order 2k - i; ``disjoint_product`` evaluates it on
    disjoint blocks (order 2k).  The estimate combines permutation
    U-statistics of these products with hypergeometric weights.
    """
    n = len(data)
    if n < 2 * k:
        raise InsufficientSampleError(f"need n >= 2k, got n={n}, k={k}")
    if len(overlap_products) != k:
        raise ValueError(
            f"expected {k} overlap products, got {len(overlap_products)}"
        )
    for i, fn in enumerate(overlap_products, start=1):
        if fn.order != 2 * k - i:
            raise ValueError(
                f"overlap product sharing {i} points must have order "
                f"{2 * k - i}, got {fn.order}"
            )
    if disjoint_product.order != 2 * k:
        raise ValueError(
            f"disjoint product must have order {2 * k}, got {disjoint_product.order}"
        )
    w = comb_weights(n, k)
    u_disjoint = u_stat_perm(disjoint_product, data, 2 * k)
    return math.fsum(
        w[i] * (u_stat_perm(overlap_products[i - 1], data, 2 * k - i) - u_disjoint)
        for i in range(1, k + 1)
    )


def delta_degen(
    self_product: EvalFn,
    disjoint_product: EvalFn,
    data,
    k: int,
) -> float:
    """Two-term risk estimate assuming a completely degenerate centered kernel.

    Equals ``delta_general`` when k = 1; for k >= 2 it trades a small bias
    outside the degenerate regime for a fixed number of terms.
    """
    n = len(data)
    if n < 2 * k:
        raise InsufficientSampleError(f"need n >= 2k, got n={n}, k={k}")
    if self_product.order != k:
        raise ValueError(
            f"self product must have order {k}, got {self_product.order}"
        )
    if disjoint_product.order != 2 * k:
        raise ValueError(
            f"disjoint product must have order {2 * k}, got {disjoint_product.order}"
        )
    u_self = u_stat_perm(self_product, data, k)
    u_disjoint = u_stat_perm(disjoint_product, data, 2 * k)
    return (u_self - u_disjoint) / math.comb(n, k)


def mean_overlap_products(
    kernel_fn: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[list[EvalFn], EvalFn]:
    """Overlap/disjoint products for the mean embedding (order 1)."""
    shared = EvalFn(order=1, body=lambda x: kernel_fn(x, x), symmetric=True)
    disjoint = EvalFn(order=2, body=kernel_fn, symmetric=True)
    return [shared], disjoint


def covop_overlap_products(
    kernel_fn: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[list[EvalFn], EvalFn]:
    """Overlap/disjoint products for the covariance operator (order 2).

    The estimand kernel maps a pair (x, y) to the rank-one operator built
    from the difference of their kernel sections; inner products of two such
    operators reduce to squared four-point kernel differences.
    """

    def pair_product(x1, x2, x3, x4) -> float:
        diff = (
            kernel_fn(x1, x3)
            - kernel_fn(x1, x4)
            - kernel_fn(x2, x3)
            + kernel_fn(x2, x4)
        )
        return 0.25 * diff * diff

    share_one = EvalFn(order=3, body=lambda a, b, c: pair_product(a, b, a, c))
    share_two = EvalFn(order=2, body=lambda a, b: pair_product(a, b, a, b),
                       symmetric=True)
    disjoint = EvalFn(order=4, body=pair_product)
    return [share_one, share_two], disjoint


# ---------------------------------------------------------------------------
# closed Gram-matrix forms
# ---------------------------------------------------------------------------

def shrink_mean(
    gram,
    target: TargetSpec | None = None,
    cross_gram=None,
    target_gram=None,
) -> tuple[DualMeanElement, ShrinkageReport]:
    """Shrink the empirical mean embedding toward a target, from Gram blocks.

    Parameters
    ----------
    gram
        GramMatrix (or raw n x n array) of the data.
    target
        ``None`` for the zero target (default) or a dual expansion.  For a dual
        target, ``cross_gram`` (n x L, entries K(X_i, Z_j)) and
        ``target_gram`` (L x L, entries K(Z_j, Z_j')) must be supplied.

    Returns
    -------
    (DualMeanElement, ShrinkageReport)
        The shrunk element carries weights (1 - alpha)/n on the data kernel
        sections and alpha * coefficients on the landmark sections.
    """
    g = _entries(gram)
    n = g.shape[0]
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")

    # an overflow here comes out inf and is reported by _report
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.trace(g))
        total = float(g.sum())
    diag_mean = trace / n
    off_mean = (total - trace) / (n * (n - 1))
    delta = (diag_mean - off_mean) / n

    mean_all = total / (n * n)
    if target is None:
        dist_sq = mean_all
    else:
        if cross_gram is None or target_gram is None:
            raise ValueError(
                "a dual target requires cross_gram (n x L) and target_gram (L x L)"
            )
        coef = target.coefficients
        cross = np.asarray(cross_gram, dtype=float)
        tg = np.asarray(target_gram, dtype=float)
        if cross.shape != (n, coef.shape[0]):
            raise ValueError(
                f"cross_gram must be {n} x {coef.shape[0]}, got {cross.shape}"
            )
        if tg.shape != (coef.shape[0], coef.shape[0]):
            raise ValueError(
                f"target_gram must be {coef.shape[0]} square, got {tg.shape}"
            )
        cross_term = float(cross.sum(axis=0) @ coef)
        norm_target = float(coef @ tg @ coef)
        dist_sq = mean_all - (2.0 / n) * cross_term + norm_target

    report = _report(GENERAL, delta, dist_sq)
    data_w = np.full(n, (1.0 - report.alpha) / n)
    if target is None:
        return DualMeanElement(data_weights=data_w, target_weights=np.zeros(0)), report
    element = DualMeanElement(data_weights=data_w,
                              target_weights=report.alpha * target.coefficients,
                              landmarks=target.landmarks)
    return element, report


def _check_covop_n(n: int) -> None:
    if n < 4:
        raise InsufficientSampleError(
            f"covariance-operator risk needs n >= 4 observations, got {n}"
        )


def _covop_report(variant: str, n: int, sum_dc: float, sum_dc_sq: float,
                  frob_sq: float, dist_sq: float | None = None) -> ShrinkageReport:
    """Covariance-operator report from three sums of the double-centered Gram.

    The inputs are sums of Gc, the double-centered Gram matrix, and of its
    diagonal dc: ``sum_dc`` = sum_i dc_i, ``sum_dc_sq`` = sum_i dc_i^2 and
    ``frob_sq`` = ||Gc||_F^2.  The unbiased risk estimate weights the pair,
    triple and quadruple sums of squared four-point kernel differences

      pair      = sum_{i != j}       [G_ii - 2 G_ij + G_jj]^2
      triple    = sum_{i != j != l}  [G_ii - G_il - G_ij + G_jl]^2
      quadruple = sum, four distinct [G_il - G_im - G_jl + G_jm]^2

    by (2n-4) / (4 C(n,2) P(n,3)), 1 / (4 C(n,2) P(n,2)) and
    -(2n-3) / (4 C(n,2) P(n,4)); the degenerate variant keeps the pair and
    quadruple terms with weights 1 / (4 C(n,2) P(n,2)) and
    -1 / (4 C(n,2) P(n,4)).  The summands are invariant under adding row
    plus column offsets to G, and the rows of Gc sum to zero, so
    pair = 2n sum_dc_sq + 2 sum_dc^2 + 4 frob_sq,
    triple = n^2 sum_dc_sq + 3n frob_sq - pair and
    quadruple = 4n^2 frob_sq - 4 (triple + pair) + 2 pair; both estimates
    expand to the polynomials evaluated below.  ``dist_sq`` defaults to the
    squared norm of the estimate (the zero target), frob_sq / (n-1)^2.

    Under the linear kernel dc_i = ||X_i - Xbar||^2 and Gc = Xc Xc^T, so the
    sums are n Tr[Sigma_hat], sum_i ||X_i - Xbar||^4 and n^2 Tr[Sigma_hat^2]:
    the covariance matrix is the covariance operator of the linear kernel.
    The caller checks n >= 4 (``_check_covop_n``).  Raises ``ValueError``
    when the result overflows float64.
    """
    if variant == GENERAL:
        delta = (
            sum_dc_sq / ((n - 2) * (n - 3))
            - (n + 1) / (n * (n - 1) ** 2 * (n - 3)) * frob_sq
            - sum_dc / (n * (n - 1) * (n - 2) * (n - 3)) * sum_dc
        )
    else:
        c2p4 = math.comb(n, 2) * math.perm(n, 4)
        delta = (
            n * (n * n - 3 * n + 4) / (2 * c2p4) * sum_dc_sq
            - 2 * (n - 2) / c2p4 * frob_sq
            + (n * n - 5 * n + 4) / (2 * c2p4) * sum_dc * sum_dc
        )
    if dist_sq is None:
        dist_sq = frob_sq / (n - 1) ** 2
    return _report(variant, delta, dist_sq)


def _centered_gram_sums(gram) -> tuple[int, float, float, float]:
    """n, sum_i dc_i, sum_i dc_i^2 and ||Gc||_F^2 of a Gram matrix.

    Gc is the double-centered Gram matrix and dc its diagonal.  Centering
    keeps ``_covop_report``'s polynomials well conditioned: the sums live on
    the scale of the kernel differences themselves.
    Gc is built and then squared in place, so the peak is one n x n array
    beside the input.
    """
    g = _entries(gram)
    _check_covop_n(g.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        row_mean = g.mean(axis=1, keepdims=True)
        gc = g - row_mean
        gc -= row_mean.T
        gc += g.mean()
        diag = np.diagonal(gc).copy()
        sum_dc_sq = float((diag * diag).sum())
        frob_sq = float(np.square(gc, out=gc).sum())
    return g.shape[0], float(diag.sum()), sum_dc_sq, frob_sq


def shrink_covop(gram) -> ShrinkageReport:
    """Shrinkage report for the empirical covariance operator, zero target.

    The unbiased risk estimate combines the pair, triple and quadruple sums
    of squared kernel differences (see ``_covop_report``); the squared norm
    of the estimate uses the unrestricted sum over i != j, l != m.
    """
    return _covop_report(GENERAL, *_centered_gram_sums(gram))


def shrink_covop_degen(gram) -> ShrinkageReport:
    """Degenerate-variant report for the covariance operator, zero target."""
    return _covop_report(DEGENERATE, *_centered_gram_sums(gram))


# ---------------------------------------------------------------------------
# dual-element utilities
# ---------------------------------------------------------------------------

def evaluate_mean(element: DualMeanElement, spec: KernelSpec, data, x) -> float:
    """Evaluate the shrunk mean embedding at a point via reproduction.

    Computes sum_i w_i K(x, X_i) + sum_j t_j K(x, Z_j) with the kernel of
    ``spec``; an element shrunk from a loaded Gram matrix has no kernel to
    evaluate at new points.
    """
    k = kernel_function(spec)
    pts = as_dataset(data)
    if pts.shape[0] != element.data_weights.shape[0]:
        raise ValueError(
            f"{element.data_weights.shape[0]} weights for {pts.shape[0]} points"
        )
    terms = [w * k(x, p) for w, p in zip(element.data_weights, pts)]
    if element.target_weights.size:
        terms.extend(
            t * k(x, z) for t, z in zip(element.target_weights, element.landmarks)
        )
    return math.fsum(terms)


def dual_norm_sq(
    element: DualMeanElement,
    gram,
    cross_gram=None,
    target_gram=None,
) -> float:
    """Squared norm of a dual element from Gram blocks.

    w^T G w + 2 w^T C t + t^T T t for data weights w, target weights t,
    cross block C and target block T.  The blocks may be omitted when the
    element carries no target weights.
    """
    g = _entries(gram)
    w = element.data_weights
    value = float(w @ g @ w)
    t = element.target_weights
    if t.size:
        if cross_gram is None or target_gram is None:
            raise ValueError("target weights present but Gram blocks missing")
        cross = np.asarray(cross_gram, dtype=float)
        tg = np.asarray(target_gram, dtype=float)
        value += 2.0 * float(w @ cross @ t) + float(t @ tg @ t)
    return value
