"""Shrinkage of unbiased Hilbert-space estimates toward a fixed target.

Given an unbiased estimate C_hat of a Hilbert-space element and a target f*,
the shrunk estimate is the convex combination (1 - alpha) C_hat + alpha f*
with the plug-in coefficient

    alpha = delta_hat / (delta_hat + ||C_hat - f*||^2),

where delta_hat estimates the risk E||C_hat - C||^2.  This module provides

* generic enumeration-based risk estimators for U-statistics of any order
  k, driven by the estimand's inner product ``inner(xs, ys)`` on two k-tuples
  of points (``mean_inner`` and ``covop_inner`` build the two used here);
* closed Gram-matrix forms for the two cases used in practice: the kernel
  mean embedding (order 1) and the kernel covariance operator (order 2,
  zero target), in both the general and the degenerate variant;
* dual-weight representations of shrunk mean embeddings and their pointwise
  evaluation via the reproducing property.

Risk estimators are unbiased and may come out negative on small samples, so
the returned coefficient is the raw ratio clamped to [0, 1]; a vanishing
denominator is resolved to alpha = 0 (no shrinkage).  Squared distances that
round slightly negative (above -1e-9) are snapped to zero.  A denominator
delta_hat + ||C_hat - f*||^2 that is not finite (a NaN or infinite input, or
a sum that overflows float64) raises ``ValueError``.  One function,
``alpha_from``, forms every coefficient, elementwise over floats or over the
arrays of a block of Monte Carlo datasets; ``_snap_alpha`` snaps first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientSampleError
from .kernels import GramMatrix, KernelSpec, as_dataset, kernel_function
from .ustat import comb_weights, u_stat_perm

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


@dataclass(frozen=True, eq=False)
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
        bad = np.flatnonzero(~np.isfinite(coef))
        if bad.size:
            raise ValueError(f"target coefficient {bad[0]} (0-based) is "
                             f"{coef[bad[0]]}; coefficients must be finite")
        return cls(landmarks=pts, coefficients=coef)


@dataclass(frozen=True, eq=False)
class DualMeanElement:
    """A mean-embedding estimate as weights on kernel sections.

    The element is sum_i data_weights[i] K(., X_i)
    + sum_j target_weights[j] K(., Z_j) for landmark points Z_j.
    """

    data_weights: np.ndarray
    target_weights: np.ndarray
    landmarks: np.ndarray | None = None


def alpha_from(delta_hat, dist_sq):
    """Raw and clamped shrinkage coefficient from a risk estimate, elementwise.

    Returns ``(alpha_raw, alpha)`` where ``alpha_raw`` is
    delta_hat / (delta_hat + dist_sq) (zero where the denominator vanishes)
    and ``alpha`` is its clamp to [0, 1], never -0.0.  Floats give floats;
    arrays give arrays of their broadcast shape.  Raises ``ValueError`` on
    the first denominator (in flat order) that is not finite, which on
    finite data means the computation overflowed float64.
    """
    delta_hat = np.asarray(delta_hat, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = delta_hat + dist_sq
        if not np.isfinite(denom).all():
            i = np.flatnonzero(~np.isfinite(denom))[0]
            d, s = (np.broadcast_to(v, np.shape(denom)).flat[i]
                    for v in (delta_hat, dist_sq))
            raise ValueError(f"shrinkage risk is not finite or overflows float64: "
                             f"delta_hat={d:g}, dist_sq={s:g}; rescale the data")
        raw = np.divide(delta_hat, denom, out=np.zeros_like(denom),
                        where=denom != 0.0)
    # np.where, not np.maximum: numpy's fmax keeps -0.0 on its SIMD path
    alpha = np.minimum(1.0, np.where(raw > 0.0, raw, 0.0))
    return (float(raw), float(alpha)) if raw.ndim == 0 else (raw, alpha)


def _snap_alpha(delta, dist_sq):
    """(dist_sq, alpha_raw, alpha), dist_sq in (DIST_SQ_FLOOR, 0) snapped to 0."""
    dist_sq = np.where((DIST_SQ_FLOOR < dist_sq) & (dist_sq < 0.0), 0.0, dist_sq)
    return (dist_sq, *alpha_from(delta, dist_sq))


def _report(variant: str, delta: float, dist_sq: float) -> ShrinkageReport:
    """Report of a risk estimate and a squared distance to the target."""
    dist_sq, raw, alpha = _snap_alpha(delta, dist_sq)
    return ShrinkageReport(delta_hat=delta, dist_sq=float(dist_sq),
                           alpha_raw=raw, alpha=alpha, variant=variant)


def _gram(gram) -> GramMatrix:
    """``gram`` as a square ``GramMatrix``.

    A raw array is wrapped in a view, not copied, so its statistics are
    computed again on every call; a ``GramMatrix`` computes them once.
    """
    g = gram if isinstance(gram, GramMatrix) else GramMatrix(
        np.asarray(gram, dtype=float))
    shape = g.entries.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {shape}")
    return g


# ---------------------------------------------------------------------------
# generic enumeration-based risk estimators
# ---------------------------------------------------------------------------

Inner = Callable[[Sequence, Sequence], float]


def _shared_u(inner: Inner, data, k: int, i: int) -> float:
    """U-statistic of <h(block1), h(block2)> over order-k blocks sharing i points.

    On a (2k - i)-tuple p the blocks are p[:k] and p[:i] + p[k:]; i = 0 gives
    disjoint blocks and i = k the same block twice.
    """
    return u_stat_perm(lambda *p: inner(p[:k], p[:i] + p[k:]), data, 2 * k - i)


def delta_general(inner: Inner, data, k: int) -> float:
    """Unbiased risk estimate of an order-k U-statistic by exact enumeration.

    ``inner(xs, ys)`` is the inner product <h(xs), h(ys)> of the estimand
    kernel h on two k-tuples of points.  The estimate weights the differences
    between the overlap U-statistics (blocks sharing i = 1..k points) and the
    disjoint one with the hypergeometric weights ``comb_weights(n, k)``.
    """
    w = comb_weights(len(data), k)
    u_disjoint = _shared_u(inner, data, k, 0)
    return math.fsum(
        w[i] * (_shared_u(inner, data, k, i) - u_disjoint) for i in range(1, k + 1)
    )


def delta_degen(inner: Inner, data, k: int) -> float:
    """Two-term risk estimate assuming a completely degenerate centered kernel.

    Keeps the self (i = k) and disjoint terms of ``delta_general``.  Equals it
    when k = 1; for k >= 2 it trades a small bias outside the degenerate
    regime for a fixed number of terms.
    """
    u_disjoint = _shared_u(inner, data, k, 0)
    return (_shared_u(inner, data, k, k) - u_disjoint) / math.comb(len(data), k)


def mean_inner(kernel_fn: Callable[[np.ndarray, np.ndarray], float]) -> Inner:
    """Inner product for the mean embedding (order 1): K(x, y)."""
    return lambda xs, ys: kernel_fn(xs[0], ys[0])


def covop_inner(kernel_fn: Callable[[np.ndarray, np.ndarray], float]) -> Inner:
    """Inner product for the covariance operator (order 2).

    The estimand kernel maps a pair (x1, x2) to the rank-one operator
    h = (phi(x1) - phi(x2)) (x) (phi(x1) - phi(x2)) / 2, so <h(x1, x2),
    h(x3, x4)> = (K13 - K14 - K23 + K24)^2 / 4 with Kij = K(xi, xj).
    """

    def inner(xs, ys) -> float:
        (x1, x2), (x3, x4) = xs, ys
        diff = (kernel_fn(x1, x3) - kernel_fn(x1, x4)
                - kernel_fn(x2, x3) + kernel_fn(x2, x4))
        return 0.25 * diff * diff

    return inner


# ---------------------------------------------------------------------------
# closed Gram-matrix forms
# ---------------------------------------------------------------------------

def _mean_stats(trace, total, n: int):
    """delta_hat and ||mean embedding||^2 from an n x n Gram's trace and sum.

    The risk estimate is (mean diagonal - mean off-diagonal entry) / n.
    ``trace`` and ``total`` are floats, or arrays of one value per Gram; the
    plain operators give the same bits either way.
    """
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")
    return (trace / n - (total - trace) / (n * (n - 1))) / n, total / (n * n)


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
    g = _gram(gram)
    n = g.n
    delta, mean_all = _mean_stats(*g._row_stats[:2], n)
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
        for name, block in (("cross_gram", cross), ("target_gram", tg)):
            if not np.isfinite(block).all():
                raise ValueError(f"{name} has non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):
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


def _covop_delta(variant: str, n: int, sum_dc, sum_dc_sq, frob_sq):
    """Covariance-operator risk estimate from three sums of the double-centered Gram.

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
    expand to the polynomials evaluated below, elementwise over floats or
    arrays of sums.  The squared norm of the estimate (the distance to the
    zero target) is frob_sq / (n-1)^2.

    Under the linear kernel dc_i = ||X_i - Xbar||^2 and Gc = Xc Xc^T, so the
    sums are n Tr[Sigma_hat], sum_i ||X_i - Xbar||^4 and n^2 Tr[Sigma_hat^2]:
    the covariance matrix is the covariance operator of the linear kernel.
    The caller checks n >= 4 (``_check_covop_n``).
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
    return delta


def _centered_gram_sums(gram) -> tuple[int, float, float, float]:
    """n, sum_i dc_i, sum_i dc_i^2 and ||Gc||_F^2 of a Gram matrix.

    Gc is the double-centered Gram matrix and dc its diagonal.  Centering
    keeps ``_covop_delta``'s polynomials well conditioned: the sums live on
    the scale of the kernel differences themselves.  The sums come from one
    blocked pass, ``kernels._centered_sums``, which a ``GramMatrix`` runs
    once and shares between both covariance-operator variants.  That pass
    reads the upper triangle alone, so a matrix not known to be symmetric
    (a raw array, say) must be symmetric within ``load_gram_csv``'s
    tolerance, or ``ParameterError`` is raised (see ``GramMatrix``).
    """
    g = _gram(gram)
    _check_covop_n(g.n)
    return (g.n, *g._centered)


def _covop_gram_report(variant: str, gram) -> ShrinkageReport:
    n, *sums = _centered_gram_sums(gram)  # the last is frob_sq
    return _report(variant, _covop_delta(variant, n, *sums), sums[2] / (n - 1) ** 2)


def shrink_covop(gram) -> ShrinkageReport:
    """Shrinkage report for the empirical covariance operator, zero target.

    The unbiased risk estimate combines the pair, triple and quadruple sums
    of squared kernel differences (see ``_covop_delta``); the squared norm
    of the estimate uses the unrestricted sum over i != j, l != m.
    """
    return _covop_gram_report(GENERAL, gram)


def shrink_covop_degen(gram) -> ShrinkageReport:
    """Degenerate-variant report for the covariance operator, zero target."""
    return _covop_gram_report(DEGENERATE, gram)


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
    g = _gram(gram).entries
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
