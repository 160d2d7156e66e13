"""Closed-form covariance-matrix shrinkage toward a scaled identity.

For data in R^d under the linear kernel, the covariance-operator machinery
collapses to explicit polynomials in three spectral summaries of the sample:
the centered fourth-power sum, the trace of the squared sample covariance,
and its squared trace.  This module evaluates those closed forms, checks the
moment identities they rest on, and assembles the shrunk matrix
(1 - alpha) C_hat + alpha tau I, where C_hat is the unbiased sample
covariance.

Conventions: Sigma_hat uses divisor n; the bias correction enters through
C_hat = n/(n-1) Sigma_hat.  The target scale tau defaults to 1 (identity
target) and generalizes the identity-target algebra verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, ParameterError
from .kernels import as_dataset
from .shrinkage import DEGENERATE, GENERAL, ShrinkageReport, alpha_from

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


def spectral_summaries(data) -> SpectralSummaries:
    """The three scalar summaries driving all closed forms here."""
    xc = _centered(as_dataset(data))
    return _summaries(xc, _sigma_hat(xc))


def _summaries(xc: np.ndarray, s: np.ndarray) -> SpectralSummaries:
    """Summaries from the centered data and its Sigma_hat."""
    sq_norms = np.sum(xc * xc, axis=1)
    return SpectralSummaries(
        sum_fourth=float(np.sum(sq_norms * sq_norms)),
        tr_s2=float(np.trace(s @ s)),
        tr_sq=float(np.trace(s)) ** 2,
    )


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


def _closed_form_n(x: np.ndarray) -> int:
    n = x.shape[0]
    if n < 4:
        raise InsufficientSampleError(
            f"closed forms require n >= 4, got {n} (coefficient denominators vanish)"
        )
    return n


def delta_general_closed(data) -> float:
    """Closed form of the general risk estimate under the linear kernel.

        sum_fourth / ((n-2)(n-3))
      - n(n+1) / ((n-1)^2 (n-3)) * tr_s2
      - n / ((n-1)(n-2)(n-3)) * tr_sq
    """
    x = as_dataset(data)
    return _delta_general(_closed_form_n(x), spectral_summaries(x))


def _delta_general(n: int, s: SpectralSummaries) -> float:
    return (
        s.sum_fourth / ((n - 2) * (n - 3))
        - n * (n + 1) / ((n - 1) ** 2 * (n - 3)) * s.tr_s2
        - n / ((n - 1) * (n - 2) * (n - 3)) * s.tr_sq
    )


def delta_degen_closed(data) -> float:
    """Closed form of the degenerate risk estimate under the linear kernel.

        n(n^2 - 3n + 4) / (2 C(n,2) P(n,4)) * sum_fourth
      - 2n^2 (n - 2)   / (C(n,2) P(n,4))   * tr_s2
      + n^2 (n^2 - 5n + 4) / (2 C(n,2) P(n,4)) * tr_sq
    """
    x = as_dataset(data)
    return _delta_degen(_closed_form_n(x), spectral_summaries(x))


def _delta_degen(n: int, s: SpectralSummaries) -> float:
    c2p4 = math.comb(n, 2) * math.perm(n, 4)
    return (
        n * (n * n - 3 * n + 4) / (2 * c2p4) * s.sum_fourth
        - 2 * n * n * (n - 2) / c2p4 * s.tr_s2
        + n * n * (n * n - 5 * n + 4) / (2 * c2p4) * s.tr_sq
    )


def _check_tau(tau: float) -> None:
    if not 0 <= tau < math.inf:
        raise ParameterError(f"target scale tau must be finite and >= 0, got {tau}")


def dist_sq_identity(data, tau: float = 1.0) -> float:
    """Squared Frobenius distance ||C_hat - tau I||_F^2, in closed form.

        n^2/(n-1)^2 * tr_s2 - 2 n tau/(n-1) * Tr[Sigma_hat] + tau^2 d

    tau = 1 is the identity target; tau = 0 reduces to ||C_hat||_F^2.
    """
    _check_tau(tau)
    x = as_dataset(data)
    n, d = x.shape
    s = _sigma_hat(_centered(x))
    return _dist_sq(n, d, float(np.trace(s)), float(np.trace(s @ s)), tau)


def _dist_sq(n: int, d: int, tr: float, tr_s2: float, tau: float) -> float:
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
    Sigma_hat once, and every closed form is evaluated from those.
    """
    if variant not in _VARIANTS:
        raise ParameterError(
            f"variant must be one of {_VARIANTS}, got {variant!r}"
        )
    x = as_dataset(data)
    n, d = x.shape
    if n < 4:
        raise InsufficientSampleError(
            f"covariance shrinkage requires n >= 4, got {n}"
        )
    _check_tau(tau)
    xc = _centered(x)
    sigma = _sigma_hat(xc)
    summaries = _summaries(xc, sigma)
    delta = (_delta_general if variant == GENERAL else _delta_degen)(n, summaries)
    dist_sq = _dist_sq(n, d, float(np.trace(sigma)), summaries.tr_s2, tau)
    raw, alpha = alpha_from(delta, dist_sq)
    c_hat = n / (n - 1) * sigma
    shrunk = (1.0 - alpha) * c_hat + alpha * tau * np.eye(d)
    report = ShrinkageReport(delta_hat=delta, dist_sq=dist_sq,
                             alpha_raw=raw, alpha=alpha, variant=variant)
    return CovShrinkResult(sigma_hat=sigma, c_hat=c_hat, shrunk=shrunk,
                           report=report)
