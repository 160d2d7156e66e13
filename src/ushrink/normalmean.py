"""Shrunk estimators of a multivariate normal mean.

The sample mean is pulled toward the origin by the data-driven coefficient
alpha = (S^2/n) / (S^2/n + ||Xbar||^2) with the pooled squared deviation
S^2 = sum_i ||X_i - Xbar||^2 / (n - 1).  The basic estimator uses the full
coefficient; a damped version multiplies it by a constant c in (0, 2), and
c = (2n - 2)/(3n - 1) guarantees a strict mean-squared-error improvement
over the sample mean for every dimension d >= 3.  Nonzero targets are
obtained by translating the data before estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError, ParameterError
from .kernels import as_dataset
from .shrinkage import clamped_alpha


@dataclass(frozen=True)
class NormalMeanResult:
    xbar: np.ndarray
    s2: float
    alpha: float
    c: float
    estimate: np.ndarray

    def to_dict(self) -> dict:
        return {
            "xbar": self.xbar.tolist(),
            "s2": self.s2,
            "alpha": self.alpha,
            "c": self.c,
            "estimate": self.estimate.tolist(),
        }


def mu_check(data) -> NormalMeanResult:
    """Shrunk mean (1 - alpha) Xbar; equivalent to ``mu_check_c`` at c = 1."""
    return mu_check_c(data, 1.0)


def mu_check_c(data, c: float) -> NormalMeanResult:
    """Damped shrunk mean (1 - c * alpha) Xbar for c in (0, 2).

    All-zero data is the 0/0 corner: alpha resolves to 0 and the (zero)
    sample mean is returned unshrunk.  Raises ``ValueError`` when S^2 or
    ||Xbar||^2 overflows float64 (finite data near 1e154 and above).
    """
    if not 0.0 < c < 2.0:
        raise ParameterError(f"damping constant c must lie in (0, 2), got {c}")
    # an overflow comes out inf or nan and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        xbar, s2, alpha, estimate = mu_check_c_batch(as_dataset(data)[None], c)
        norm_sq = float(np.vecdot(xbar[0], xbar[0]))
    if not (math.isfinite(s2[0]) and math.isfinite(norm_sq)):
        raise ValueError(
            f"normal-mean statistics overflow float64: s2={s2[0]:g}, "
            f"||xbar||^2={norm_sq:g}; rescale the data")
    return NormalMeanResult(xbar=xbar[0], s2=float(s2[0]), alpha=float(alpha[0]),
                            c=c, estimate=estimate[0])


def mu_check_c_batch(block: np.ndarray, c: float):
    """``mu_check_c`` on every dataset of an (m, n, d) block at once.

    Returns the arrays ``(xbar, s2, alpha, estimate)``, each indexed by
    dataset first.  The reductions are fixed so that a block row equals the
    same dataset on its own bit for bit: means along the observation axis,
    the pooled deviation as one sum over each dataset's flattened residuals,
    and squared norms by ``np.vecdot``.
    """
    m, n, _ = block.shape
    if n < 2:
        raise InsufficientSampleError(
            f"pooled deviation needs n >= 2 observations, got {n}"
        )
    xbar = block.mean(axis=1)
    s2 = ((block - xbar[:, None]) ** 2).reshape(m, -1).sum(axis=1) / (n - 1)
    alpha = clamped_alpha(s2 / n, np.vecdot(xbar, xbar))
    estimate = (1.0 - c * alpha)[:, None] * xbar
    return xbar, s2, alpha, estimate


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
