"""Covariance-matrix shrinkage toward a scaled identity.

A covariance matrix is the covariance operator of the linear kernel, so its
risk estimates are those of ``shrinkage.shrink_covop`` and
``shrink_covop_degen``.  Under the linear kernel the three centered-Gram
sums they need come from the data in O(n d^2), without an n x n matrix:
sum_i dc_i = n Tr[Sigma_hat], sum_i dc_i^2 = sum_i ||X_i - Xbar||^4 and
||Gc||_F^2 = n^2 Tr[Sigma_hat^2].  This module computes those sums, the
distance to the target tau I, the moment identities behind them, and the
shrunk matrix (1 - alpha) C_hat + alpha tau I, where C_hat is the unbiased
sample covariance, on (m, n, d) blocks of datasets (``_shrink_block``): the
one-dataset functions pass a block of one, the Monte Carlo harness a block.
The data are centered one row tile at a time (``_moments``), so a dataset
is held once, beside a 64 KiB tile (d x d values once d > 90); up to 8192
values (n d) a dataset is one tile and its results have the untiled
formulas' bits, and above that they can move in the last bits.  Centering
removes the residuals' own mean after the rounded mean's (the corrected
two-pass algorithm), so data far from the origin keep their digits.

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
from .kernels import _fsum_tiles, _row_tiles, as_dataset
from .shrinkage import (
    DEGENERATE,
    GENERAL,
    ShrinkageReport,
    _check_covop_n,
    _covop_delta,
    _report,
)

_VARIANTS = (GENERAL, DEGENERATE)


@dataclass(frozen=True)
class SpectralSummaries:
    """sum_i ||X_i - Xbar||^4, Tr[Sigma_hat^2], Tr^2[Sigma_hat]."""

    sum_fourth: float
    tr_s2: float
    tr_sq: float


@dataclass(frozen=True, eq=False)
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


def _moments(block: np.ndarray):
    """Sigma_hat, Tr[Sigma_hat], Tr[Sigma_hat^2] and sum_i ||X_i - Xbar||^4.

    ``block`` is an (m, n, d) stack of validated datasets, and each result is
    indexed by dataset first.  The data are centered a tile of rows at a
    time (``kernels._row_tiles``), so no second n x d array is formed: each
    tile adds its Xc^T Xc to n Sigma_hat and its rows' ||X_i - Xbar||^4 to
    the fourth sum.  Xc is (X - fl(Xbar)) - e, the corrected two-pass
    algorithm (Chan, Golub and LeVeque, Am. Stat. 1983): the residuals of
    the rounded mean sum to n e, with e about ulp(Xbar) rather than 0, and
    the fourth sum feels e at first order, which lost 9 digits at an
    offset of 1e8.  A first pass sums the tiles' residuals for e, each
    tile's by one product with a vector of ones (a fifth of the cost of
    ``sum(axis=1)`` per tile); a dataset of one tile keeps its residuals in
    the tile between the passes.
    A tile holds 8192 // d rows (64 KiB for one dataset), or d rows once
    d > 90, so that a tile is never smaller than the d x d part it adds and
    Sigma_hat costs the n d^2 of one product at any d.
    A dataset of at most one tile (n d <= 8192 values) gets the bits of the
    untiled formulas.  Above one tile the d x d parts are added in turn and
    the fourth sums combined by ``math.fsum`` (``kernels._fsum_tiles``),
    which can move the last bits.  Products are stacked ``np.matmul`` calls
    and reductions run along each dataset's own axes, so a dataset gives
    the same bits in any block, one included.  Raises ``ValueError`` when a
    sum overflows float64 (Tr[Sigma_hat^2] = ||Sigma_hat||_F^2 covers
    Sigma_hat).
    """
    m, n, d = block.shape
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")
    fourth = []
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block.mean(axis=1, keepdims=True)
        tiles = list(_row_tiles(n, d, (m,), min_rows=d))
        ones = np.ones(tiles[0][1].shape[1])
        for rows, xc in tiles:
            np.subtract(block[:, rows], mean, out=xc)
            part = ones[:rows.stop - rows.start] @ xc
            e = part if rows.start == 0 else e + part
        e = e[:, None] / n
        for rows, xc in tiles:
            if len(tiles) > 1:
                np.subtract(block[:, rows], mean, out=xc)
            xc -= e
            part = xc.mT @ xc
            s = part if rows.start == 0 else s + part
            sq_norms = np.square(xc, out=xc).sum(axis=2)
            fourth.append(np.square(sq_norms, out=sq_norms).sum(axis=1))
        s = s / n
        s = (s + s.mT) / 2.0
        sums = (np.trace(s, axis1=1, axis2=2), np.trace(s @ s, axis1=1, axis2=2),
                _fsum_tiles(fourth))
    finite = np.isfinite(sums).all(axis=0)
    if not finite.all():
        bad = [float(v[np.argmin(finite)]) for v in sums]
        raise ValueError(
            "the sample covariance overflows float64: Tr[Sigma_hat], Tr[Sigma_hat^2] "
            f"and sum ||X_i - Xbar||^4 are {bad[0]:g}, {bad[1]:g} and {bad[2]:g}; "
            "rescale the data")
    return (s, *sums)


def spectral_summaries(data) -> SpectralSummaries:
    """The three scalar summaries driving all closed forms here."""
    tr, tr_s2, sum_fourth = (float(v[0]) for v in _moments(as_dataset(data)[None])[1:])
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
    _check_target(tau)
    x = as_dataset(data)
    n, d = x.shape
    _, tr, tr_s2, _ = _moments(x[None])
    return float(_dist_sq(n, d, tr, tr_s2, tau)[0])


def _check_target(tau: float, variant: str = GENERAL) -> None:
    """ParameterError unless ``shrink_cov_matrix`` accepts tau and variant."""
    if variant not in _VARIANTS:
        raise ParameterError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if not 0 <= tau < math.inf:
        raise ParameterError(f"target scale tau must be finite and >= 0, got {tau}")


def _dist_sq(n: int, d: int, tr, tr_s2, tau: float):
    return n * n / (n - 1) ** 2 * tr_s2 - 2 * n * tau / (n - 1) * tr + tau * tau * d


def _shrink_block(block: np.ndarray, tau: float | None, variant: str | None):
    """C_hat and its shrinkage toward tau I for each dataset of an (m, n, d) block.

    Returns ``(sigma_hat, c_hat, shrunk, report)``, the arrays indexed by
    dataset first and ``report`` a ShrinkageReport of arrays; the caller
    checks tau and variant (``_check_target``).  ``variant=None`` shrinks
    nothing: ``shrunk`` is ``c_hat`` and ``report`` is None.
    """
    _, n, d = block.shape
    if variant is not None:
        _check_covop_n(n)
    sigma, tr, tr_s2, sum_fourth = _moments(block)
    c_hat = n / (n - 1) * sigma
    if variant is None:
        return sigma, c_hat, c_hat, None
    delta = _covop_delta(variant, n, n * tr, sum_fourth, n * n * tr_s2)
    report = _report(variant, delta, _dist_sq(n, d, tr, tr_s2, tau))
    alpha = report.alpha[:, None, None]
    shrunk = (1.0 - alpha) * c_hat + alpha * tau * np.eye(d)
    return sigma, c_hat, shrunk, report


def shrink_cov_matrix(data, tau: float = 1.0,
                      variant: str = GENERAL) -> CovShrinkResult:
    """Shrink the unbiased sample covariance toward tau * I.

    ``variant`` selects the general or the degenerate risk estimate; the
    shrunk matrix is (1 - alpha) C_hat + alpha tau I with alpha the clamped
    plug-in coefficient.  The data are validated, then centered and reduced
    to Sigma_hat and the three summaries in one pass of row tiles
    (``_moments``), without a second n x d array; the report comes from the
    covariance-operator formula of ``shrinkage`` on the linear-kernel sums.
    This is the Monte Carlo harness's block code (``_shrink_block``) on a
    block of one.
    """
    _check_target(tau, variant)
    x = as_dataset(data)
    sigma, c_hat, shrunk, report = _shrink_block(x[None], tau, variant)
    return CovShrinkResult(sigma_hat=sigma[0], c_hat=c_hat[0], shrunk=shrunk[0],
                           report=report.at(0))
