"""Covariance-matrix shrinkage toward a scaled identity.

A covariance matrix is the covariance operator of the linear kernel, so its
risk estimates are those of ``shrinkage.shrink_covop`` and
``shrink_covop_degen``.  Under the linear kernel the three centered-Gram
sums they need come from the data in O(n d^2), without an n x n matrix:
sum_i dc_i = n Tr[Sigma_hat], sum_i dc_i^2 = sum_i ||X_i - Xbar||^4 and
||Gc||_F^2 = n^2 Tr[Sigma_hat^2].  This module computes those sums, the
distance to the target tau I, the moment identities behind them, and the
shrunk matrix (1 - alpha) C_hat + alpha tau I, where C_hat is the unbiased
sample covariance.

The two risk estimates are polynomials in sum_fourth = sum_i ||X_i - Xbar||^4,
tr_s2 = Tr[Sigma_hat^2] and tr_sq = Tr^2[Sigma_hat]; with c = C(n,2) P(n,4),

  general     sum_fourth/((n-2)(n-3)) - n(n+1)/((n-1)^2 (n-3)) tr_s2
                - n/((n-1)(n-2)(n-3)) tr_sq
  degenerate  [n(n^2-3n+4) sum_fourth - 4n^2(n-2) tr_s2
                + n^2(n^2-5n+4) tr_sq] / (2c)

Conventions: Sigma_hat uses divisor n, C_hat = n/(n-1) Sigma_hat carries the
bias correction, and tau defaults to 1 (the identity target).  Data whose
Sigma_hat or sums overflow float64 raise ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, ParameterError
from .kernels import as_dataset
from .shrinkage import (
    DEGENERATE,
    GENERAL,
    ShrinkageReport,
    _check_covop_n,
    _covop_report,
)

_VARIANTS = (GENERAL, DEGENERATE)


@dataclass(frozen=True)
class SpectralSummaries:
    """sum_i ||X_i - Xbar||^4, Tr[Sigma_hat^2], Tr^2[Sigma_hat]."""

    sum_fourth: float
    tr_s2: float
    tr_sq: float


@dataclass(frozen=True)
class CovShrinkResult:
    """Sample covariance, its unbiased version, the shrunk matrix, report."""

    sigma_hat: np.ndarray
    c_hat: np.ndarray
    shrunk: np.ndarray
    report: ShrinkageReport

    def to_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat.tolist(),
            "c_hat": self.c_hat.tolist(),
            "shrunk": self.shrunk.tolist(),
            "report": self.report.to_dict(),
        }


def _centered(x: np.ndarray) -> np.ndarray:
    """Center a dataset already validated by ``as_dataset``."""
    if x.shape[0] < 2:
        raise InsufficientSampleError(
            f"need at least 2 observations, got {x.shape[0]}"
        )
    return x - x.mean(axis=0)


def _sigma_hat(xc: np.ndarray) -> np.ndarray:
    n = xc.shape[0]
    s = xc.T @ xc / n
    return (s + s.T) / 2.0


def _moments(x: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Sigma_hat, Tr[Sigma_hat], Tr[Sigma_hat^2] and sum_i ||X_i - Xbar||^4.

    ``x`` is a dataset already validated by ``as_dataset``.  Raises
    ``ValueError`` when a sum overflows float64; Tr[Sigma_hat^2] is the
    squared Frobenius norm of Sigma_hat, so this covers Sigma_hat too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xc = _centered(x)
        s = _sigma_hat(xc)
        sq_norms = np.sum(xc * xc, axis=1)
        sums = (float(np.trace(s)), float(np.trace(s @ s)),
                float(np.sum(sq_norms * sq_norms)))
    if not all(map(math.isfinite, sums)):
        raise ValueError(
            "the sample covariance overflows float64: Tr[Sigma_hat], "
            "Tr[Sigma_hat^2] and sum ||X_i - Xbar||^4 are "
            f"{sums[0]:g}, {sums[1]:g} and {sums[2]:g}; rescale the data"
        )
    return (s, *sums)


def spectral_summaries(data) -> SpectralSummaries:
    """The three scalar summaries driving all closed forms here."""
    _, tr, tr_s2, sum_fourth = _moments(as_dataset(data))
    return SpectralSummaries(sum_fourth=sum_fourth, tr_s2=tr_s2, tr_sq=tr * tr)


def moment_identity_check(data) -> list[tuple[float, float]]:
    """Moment identities relating tuple sums to the spectral summaries.

    Returns three (lhs, rhs) pairs, where each lhs is the direct double,
    triple or quadruple sum of squared inner products of pairwise
    differences, and each rhs is the corresponding polynomial in the
    summaries:

      double:    2n * sum_fourth + 4n^2 * tr_s2 + 2n^2 * tr_sq
      triple:    n^2 * sum_fourth + 3n^3 * tr_s2
      quadruple: 4n^4 * tr_s2

    The direct sums materialize n^3 and n^4 intermediates, so this is a
    desk-scale verification routine, not a production path.
    """
    x = as_dataset(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")
    p = x @ x.T
    d = np.diagonal(p)

    # sum_{i,j} <X_i - X_j, X_i - X_j>^2
    m2 = d[:, None] + d[None, :] - 2.0 * p
    lhs1 = float((m2 * m2).sum())

    # sum_{i,j,l} <X_i - X_j, X_j - X_l>^2
    t = (
        p[:, :, None]          # <X_i, X_j>
        - p[:, None, :]        # <X_i, X_l>
        - d[None, :, None]     # <X_j, X_j>
        + p.T[None, :, :]      # <X_j, X_l>
    )
    lhs2 = float((t * t).sum())

    # sum_{i,j,l,m} <X_i - X_j, X_l - X_m>^2
    q = (
        p[:, None, :, None]    # <X_i, X_l>
        - p[:, None, None, :]  # <X_i, X_m>
        - p[None, :, :, None]  # <X_j, X_l>
        + p[None, :, None, :]  # <X_j, X_m>
    )
    lhs3 = float((q * q).sum())

    s = spectral_summaries(x)
    rhs1 = 2 * n * s.sum_fourth + 4 * n**2 * s.tr_s2 + 2 * n**2 * s.tr_sq
    rhs2 = n**2 * s.sum_fourth + 3 * n**3 * s.tr_s2
    rhs3 = 4 * n**4 * s.tr_s2
    return [(lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3)]


def dist_sq_identity(data, tau: float = 1.0) -> float:
    """Squared Frobenius distance ||C_hat - tau I||_F^2, in closed form.

        n^2/(n-1)^2 * tr_s2 - 2 n tau/(n-1) * Tr[Sigma_hat] + tau^2 d

    tau = 1 is the identity target; tau = 0 reduces to ||C_hat||_F^2.
    """
    x = as_dataset(data)
    n, d = x.shape
    _, tr, tr_s2, _ = _moments(x)
    return _dist_sq(n, d, tr, tr_s2, tau)


def _dist_sq(n: int, d: int, tr: float, tr_s2: float, tau: float) -> float:
    if not 0 <= tau < math.inf:
        raise ParameterError(f"target scale tau must be finite and >= 0, got {tau}")
    return (
        n * n / (n - 1) ** 2 * tr_s2
        - 2 * n * tau / (n - 1) * tr
        + tau * tau * d
    )


def shrink_cov_matrix(
    data,
    tau: float = 1.0,
    variant: str = GENERAL,
) -> CovShrinkResult:
    """Shrink the unbiased sample covariance toward tau * I.

    ``variant`` selects the general or the degenerate risk estimate; the
    shrunk matrix is (1 - alpha) C_hat + alpha tau I with alpha the clamped
    plug-in coefficient.  The data are validated, centered and reduced to
    Sigma_hat once, and the report comes from the covariance-operator
    formula of ``shrinkage`` on the linear-kernel sums.
    """
    if variant not in _VARIANTS:
        raise ParameterError(
            f"variant must be one of {_VARIANTS}, got {variant!r}"
        )
    x = as_dataset(data)
    n, d = x.shape
    _check_covop_n(n)
    sigma, tr, tr_s2, sum_fourth = _moments(x)
    report = _covop_report(variant, n, n * tr, sum_fourth, n * n * tr_s2,
                           _dist_sq(n, d, tr, tr_s2, tau))
    c_hat = n / (n - 1) * sigma
    shrunk = (1.0 - report.alpha) * c_hat + report.alpha * tau * np.eye(d)
    return CovShrinkResult(sigma_hat=sigma, c_hat=c_hat, shrunk=shrunk,
                           report=report)
