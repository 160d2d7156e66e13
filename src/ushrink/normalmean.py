"""Shrunk estimators of a multivariate normal mean.

The sample mean is pulled toward the origin by the data-driven coefficient
alpha = (S^2/n) / (S^2/n + ||Xbar||^2) with the pooled squared deviation
S^2 = sum_i ||X_i - Xbar||^2 / (n - 1).  The basic estimator uses the full
coefficient; a damped version multiplies it by a constant c in (0, 2), and
c = (2n - 2)/(3n - 1) guarantees a strict mean-squared-error improvement
over the sample mean for every dimension d >= 3.  Nonzero targets are
obtained by translating the data before estimation.  S^2 is summed one
64 KiB row tile of residuals at a time (``mu_check_c_batch``), so a dataset
is held once; above 8192 values (n d) S^2 can move in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, ParameterError
from .kernels import _fsum_tiles, _row_tiles, as_dataset
from .shrinkage import GENERAL, ShrinkageReport, _report


@dataclass(frozen=True, eq=False)
class NormalMeanResult:
    """Sample mean, S^2, the report of delta_hat = S^2/n, c and the estimate."""

    xbar: np.ndarray
    s2: float
    report: ShrinkageReport
    c: float
    estimate: np.ndarray

    def to_dict(self) -> dict:
        return {
            "xbar": self.xbar.tolist(),
            "s2": self.s2,
            "alpha": self.report.alpha,
            "c": self.c,
            "estimate": self.estimate.tolist(),
        }


def mu_check(data) -> NormalMeanResult:
    """Shrunk mean (1 - alpha) Xbar; equivalent to ``mu_check_c`` at c = 1."""
    return mu_check_c(data, 1.0)


def mu_check_c(data, c: float) -> NormalMeanResult:
    """Damped shrunk mean (1 - c * alpha) Xbar for c in (0, 2).

    The data are held once, beside a 64 KiB tile of residuals
    (``mu_check_c_batch``).  All-zero data is the 0/0 corner: alpha resolves
    to 0 and the (zero) sample mean is returned unshrunk.  Raises
    ``ValueError`` when S^2 or ||Xbar||^2 overflows float64 (finite data
    near 1e154 and above).
    """
    if not 0.0 < c < 2.0:
        raise ParameterError(f"damping constant c must lie in (0, 2), got {c}")
    # an overflow comes out inf or nan and alpha_from raises on it
    with np.errstate(over="ignore", invalid="ignore"):
        xbar, s2, report, estimate = mu_check_c_batch(as_dataset(data)[None], c)
    return NormalMeanResult(xbar=xbar[0], s2=float(s2[0]), report=report.at(0),
                            c=c, estimate=estimate[0])


def mu_check_c_batch(block: np.ndarray, c: float):
    """``mu_check_c`` on every dataset of an (m, n, d) block at once.

    Returns ``(xbar, s2, report, estimate)``, each indexed by dataset first,
    ``report`` a ShrinkageReport of arrays with delta_hat = S^2/n and
    dist_sq = ||Xbar||^2.  The reductions are fixed so that a block row
    equals the same dataset on its own bit for bit: means along the
    observation axis, the pooled deviation as a sum over each dataset's
    flattened squared residuals, and squared norms by ``np.vecdot``.  The
    residuals are formed and squared a tile of rows at a time
    (``kernels._row_tiles``, 64 KiB for one dataset, the row step set by d
    alone), so no second n x d array is formed.  A dataset of at most one
    tile (n d <= 8192 values) gets the bits of one sum over all its
    residuals; above one tile the tiles' sums are combined by ``math.fsum``
    (``kernels._fsum_tiles``) and S^2 can move in the last bits.
    """
    m, n, d = block.shape
    if n < 2:
        raise InsufficientSampleError(
            f"pooled deviation needs n >= 2 observations, got {n}"
        )
    xbar = block.mean(axis=1)
    parts = []
    for rows, xc in _row_tiles(n, d, (m,)):
        np.subtract(block[:, rows], xbar[:, None], out=xc)
        parts.append(np.square(xc, out=xc).reshape(m, -1).sum(axis=1))
    s2 = _fsum_tiles(parts) / (n - 1)
    report = _report(GENERAL, s2 / n, np.vecdot(xbar, xbar))
    estimate = (1.0 - c * report.alpha)[:, None] * xbar
    return xbar, s2, report, estimate


def default_c(n: int) -> float:
    """The damping constant (2n - 2)/(3n - 1); gives improvement for d >= 3."""
    if n < 2:
        raise InsufficientSampleError(f"need n >= 2, got {n}")
    return (2 * n - 2) / (3 * n - 1)


def dimension_threshold(n: int, c: float) -> float:
    """Dimension above which the damped estimator beats the sample mean.

    Returns 4/(2 - c) + 2c/((n - 1)(2 - c)); improvement is guaranteed for
    all d at or above this value.  At c = 1 it equals 4 + 2/(n - 1), and at
    c = (2n - 2)/(3n - 1) it equals 3 for every n.
    """
    if n < 2:
        raise InsufficientSampleError(f"need n >= 2, got {n}")
    if not 0.0 < c < 2.0:
        raise ParameterError(f"damping constant c must lie in (0, 2), got {c}")
    return 4.0 / (2.0 - c) + 2.0 * c / ((n - 1) * (2.0 - c))
