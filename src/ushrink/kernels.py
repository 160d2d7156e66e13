"""Positive-definite kernels and Gram matrix construction.

Every estimator in this package consumes data only through pairwise kernel
evaluations, so the n x n Gram matrix is the sufficient statistic for all
downstream computations.  Three kernel families are provided; a Gram matrix
computed elsewhere is loaded with ``load_gram_csv``.  A ``GramMatrix`` reduces
its entries to the few sums the shrinkage estimators need (trace and total,
and the sums of the double-centered matrix) at most once each, when first
asked, and keeps them; its entries are read-only, so the sums cannot go
stale.

Parameterizations:

* linear:       K(x, y) = <x, y>
* gaussian:     K(x, y) = exp(-||x - y||^2 / bandwidth)
* exponential:  K(x, y) = exp(<x, y> / scale)

Setting ``bandwidth = scale = 1`` recovers the unit-parameter forms.
``gram`` needs O(n^2) memory for n observations whatever the dimension d:
the Gaussian Gram is one n x n array beside a scratch tile of fixed size.
Below ``GAUSSIAN_PRODUCT_MIN_DIM`` coordinates it sums its squared distances
one coordinate at a time, in coordinate order; from that dimension on it
takes them from one matrix product of the centered data, ||x_i||^2 +
||x_j||^2 - 2 <x_i, x_j>, as long as the data's spread max ||x_i||^2 +
max ||x_j||^2 is at most ``GAUSSIAN_PRODUCT_MAX_SPREAD`` bandwidths.  The
product route is faster but not bit-identical to the coordinate sums: its
entries differ from them by up to a few eps times spread / bandwidth
(measured: 2 eps per unit of that ratio at d = 20, 4.5 at d = 130, 8.5 at
d = 1000), so by at most about 6e-14 under the cap.  Its last bits can
depend on the number of BLAS threads.
Datasets and loaded Gram matrices must be finite, and a Gram matrix whose
entries overflow (the exponential kernel on large inputs) raises
``ValueError`` rather than returning inf or nan.  Loaded matrices are
validated for symmetry but *not* projected onto the positive semi-definite
cone; supplying a PSD matrix is the caller's responsibility.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ParameterError

LINEAR = "linear"
GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"

_KINDS = (LINEAR, GAUSSIAN, EXPONENTIAL)

# Maximum allowed relative asymmetry of a user-supplied Gram matrix.
SYMMETRY_RTOL = 1e-9

# Dimension from which the Gaussian kernel takes its squared distances from
# one matrix product rather than one coordinate at a time.  Below it the
# coordinate sums are bit-identical to the broadcast formula, and at d = 2
# they are also faster for small n; from d = 8 on the product was faster at
# every n measured (at d = 8, 1.8x at n = 25 and 2x at n = 2000; at d = 20,
# 6x at n = 2000).
GAUSSIAN_PRODUCT_MIN_DIM = 8

# Largest spread, (max ||xc_i||^2 + max ||zc_j||^2) / bandwidth of the
# centered points, for which the Gaussian kernel takes the matrix product.
# The product's squared distances lose a few ulps of ||xc_i||^2 + ||zc_j||^2,
# which matters where two close points lie far from the center: there the
# kernel entry is near 1 and its error is about eps * spread.  Wider data
# takes the coordinate sums, which have no such cancellation.
GAUSSIAN_PRODUCT_MAX_SPREAD = 32.0

# Size of the scratch tile of ``_row_tiles``, in float64 values: 64 KiB, in
# L2 cache and below glibc's 128 KiB mmap threshold, so a tile is reused from
# the heap rather than mapped and page-faulted in on every call.
_GRAM_TILE_VALUES = 2**13


def as_dataset(data) -> np.ndarray:
    """Coerce observations to a float (n, d) array; 1-D input becomes (n, 1)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"dataset must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("dataset is empty")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)
        row, col = bad[0]
        raise ValueError(
            f"dataset has {len(bad)} non-finite value(s) (nan or inf); "
            f"the first is {arr[row, col]} at observation {row}, coordinate {col} "
            "(0-based)"
        )
    return arr


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its hyperparameter.

    Use the classmethod constructors rather than instantiating directly.
    """

    kind: str
    bandwidth: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GAUSSIAN and not 0 < self.bandwidth < math.inf:
            raise ParameterError("gaussian kernel requires a finite bandwidth > 0")
        if self.kind == EXPONENTIAL and not 0 < self.scale < math.inf:
            raise ParameterError("exponential kernel requires a finite scale > 0")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(LINEAR)

    @classmethod
    def gaussian(cls, bandwidth: float = 1.0) -> "KernelSpec":
        return cls(GAUSSIAN, bandwidth=float(bandwidth))

    @classmethod
    def exponential(cls, scale: float = 1.0) -> "KernelSpec":
        return cls(EXPONENTIAL, scale=float(scale))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetrized n x n matrix of pairwise kernel evaluations.

    ``entries`` is stored as a read-only view (the array passed in keeps its
    own flags), so the statistics the shrinkage estimators read from it are
    computed once per ``GramMatrix``, on first use, and cannot go stale:
    the trace and the entry sum (``_gram_sums``), and the sums of the
    double-centered Gram (``_centered_sums``).
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries).view()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def _trace_total(self) -> tuple[float, float]:
        return _gram_sums(self.entries)

    @functools.cached_property
    def _centered(self) -> tuple[float, float, float]:
        return _centered_sums(self.entries, self._trace_total[1])


def _gram_sums(g: np.ndarray) -> tuple[float, float]:
    """Trace and sum of the entries of an n x n array.

    An overflow comes out inf or nan; ``shrinkage.alpha_from`` raises on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(g.trace()), float(g.sum())


def _centered_sums(g: np.ndarray, total: float) -> tuple[float, float, float]:
    """sum_i dc_i, sum_i dc_i^2 and ||Gc||_F^2 of an n x n array with sum ``total``.

    Gc is the double-centered matrix and dc its diagonal.  The grand mean is
    total / n^2, bit for bit ``g.mean()`` (the same pairwise sum, divided by
    n^2), so the pass reads the array for its row means and once more for
    the tiles.  Gc is formed and squared tile by tile (``_row_tiles``), so
    no second n x n array is made, and ||Gc||_F^2 is the ``math.fsum`` of
    the tiles' sums (their plain sum when that overflows): bit for bit the
    one-array sum up to 90 points (one tile).
    """
    n = len(g)
    diag, parts = np.empty(n), []
    with np.errstate(over="ignore", invalid="ignore"):
        row_mean = g.mean(axis=1, keepdims=True)
        mean = total / (n * n)
        for rows, gc in _row_tiles(*g.shape):
            np.subtract(g[rows], row_mean[rows], out=gc)
            gc -= row_mean.T
            gc += mean
            diag[rows] = np.diagonal(gc, rows.start)
            parts.append(float(np.square(gc, out=gc).sum()))
        sum_dc_sq = float((diag * diag).sum())
    frob_sq = math.fsum(parts) if math.isfinite(plain := sum(parts)) else plain
    return float(diag.sum()), sum_dc_sq, frob_sq


def kernel_function(spec: KernelSpec) -> Callable[[np.ndarray, np.ndarray], float]:
    """Bind ``spec`` into a callable that evaluates K(x, y) for one pair.

    The callable raises ``ValueError`` if ``x`` and ``y`` have different
    dimensions.
    """

    def k(x, y) -> float:
        xv = np.asarray(x, dtype=float).ravel()
        yv = np.asarray(y, dtype=float).ravel()
        if xv.shape != yv.shape:
            raise ValueError(
                f"points have mismatched dimensions {xv.shape[0]} and {yv.shape[0]}"
            )
        if spec.kind == LINEAR:
            return float(np.dot(xv, yv))
        if spec.kind == GAUSSIAN:
            diff = xv - yv
            return float(np.exp(-np.dot(diff, diff) / spec.bandwidth))
        return float(np.exp(np.dot(xv, yv) / spec.scale))

    return k


def gram(spec: KernelSpec, data) -> GramMatrix:
    """Build the Gram matrix [K(X_i, X_j)]_{i,j} over a dataset.

    The result is exactly symmetric, so downstream symmetry invariants hold
    in floating point.  The linear and exponential Grams are symmetrized as
    (G + G^T) / 2.  The Gaussian Gram is symmetric by construction, with a
    diagonal of exactly 1: below ``GAUSSIAN_PRODUCT_MIN_DIM`` coordinates its
    squared distances are summed coordinate by coordinate (see
    ``_gaussian_gram``), from there on, for data within
    ``GAUSSIAN_PRODUCT_MAX_SPREAD`` bandwidths, they come from one symmetric
    matrix product (see ``_gaussian_gram_product``).  It uses O(n^2) memory,
    one n x n array and a fixed tile on either route, never an (n, n, d)
    array of differences.
    A Gram matrix computed elsewhere comes from ``load_gram_csv`` instead.
    """
    x = as_dataset(data)
    g = _kernel_block(spec, x, x)
    # the Gaussian Gram is exactly symmetric already (see _kernel_block)
    return GramMatrix(g if spec.kind == GAUSSIAN else _symmetrize(g))


def _kernel_block(spec: KernelSpec, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[K(x_i, z_j)]_{i,j} for two (n, d) and (m, d) datasets, unsymmetrized.

    Raises ``ValueError`` if the dimensions differ or an entry overflows.
    """
    if x.shape[1] != z.shape[1]:
        raise ValueError(
            f"points have mismatched dimensions {x.shape[1]} and {z.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == GAUSSIAN:
            # exp(-sq / bandwidth) with sq in [0, inf]: every entry is in [0, 1]
            route = (_gaussian_gram_product if x.shape[1] >= GAUSSIAN_PRODUCT_MIN_DIM
                     else _gaussian_gram)
            return route(x, z, spec.bandwidth)
        g = x @ z.T if spec.kind == LINEAR else np.exp(x @ z.T / spec.scale)
    if not np.isfinite(g).all():
        cause = (f": exp(<x, y> / scale) overflows at scale={spec.scale:g}; "
                 "a larger scale avoids it" if spec.kind == EXPONENTIAL else "")
        raise ValueError(f"the {spec.kind} kernel Gram matrix has non-finite "
                         f"entries{cause}")
    return g


def _gaussian_gram(x: np.ndarray, z: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-||x_i - z_j||^2 / bandwidth) in one n x m array and a fixed tile.

    The Gaussian route below ``GAUSSIAN_PRODUCT_MIN_DIM`` coordinates, the
    fallback for data wider than ``GAUSSIAN_PRODUCT_MAX_SPREAD`` bandwidths,
    and the test oracle for the product route.  The squared distances are
    accumulated one coordinate at a time, in coordinate order:
    sq = (s_0 + s_1) + ... + s_{d-1} with s_k = (x_ik - z_jk)^2.  For d <= 7
    this is the order numpy's ``sum(axis=-1)`` uses, so the result is
    bit-identical to the broadcast formula; for d >= 8 numpy sums in blocks
    and the two differ in the last bits (about 1e-15 relative).  With z = x,
    entry (j, i) sums the same squares in the same order as entry (i, j),
    because (a - b)^2 == (b - a)^2 exactly, so the Gram matrix is exactly
    symmetric and needs no (G + G^T) / 2.  The squares of coordinates 1 ..
    d - 1 are formed in a scratch tile (see ``_row_tiles``), so one n x m
    array is live, not two.
    """
    acc = np.subtract(x[:, 0, None], z[None, :, 0])
    np.square(acc, out=acc)
    for rows, scratch in _row_tiles(*acc.shape):
        part = acc[rows]
        for k in range(1, x.shape[1]):
            np.subtract(x[rows, k, None], z[None, :, k], out=scratch)
            np.square(scratch, out=scratch)
            part += scratch
    np.divide(acc, -bandwidth, out=acc)
    return np.exp(acc, out=acc)


def _gaussian_gram_product(x: np.ndarray, z: np.ndarray,
                           bandwidth: float) -> np.ndarray:
    """exp(-||x_i - z_j||^2 / bandwidth) from one matrix product.

    Both point sets are centered by the mean of ``x`` (the kernel is
    translation-invariant, and centering shrinks the cancellation in
    ||a||^2 + ||b||^2 - 2 <a, b>); negative squared distances are clamped
    at 0.  With z = x, the norm sum is exactly symmetric because addition
    commutes, and so is the product: numpy evaluates ``a @ a.T`` as a
    symmetric rank-k update and copies one triangle onto the other.  The
    rest runs tile by tile (``_row_tiles``), writing over the product, and
    with z = x the diagonal, a zero distance, is set to exactly exp(0) = 1.
    An entry's error is about eps * (||xc_i||^2 + ||zc_j||^2) / bandwidth,
    largest where two close points lie far from the center; when the spread
    exceeds ``GAUSSIAN_PRODUCT_MAX_SPREAD`` bandwidths (this includes norms
    that overflow, where the formula would give inf - inf) it returns
    ``_gaussian_gram`` instead.
    """
    center = x.mean(axis=0)
    xc = x - center
    zc = xc if z is x else z - center
    x_sq = np.einsum("ij,ij->i", xc, xc)
    z_sq = x_sq if z is x else np.einsum("ij,ij->i", zc, zc)
    # under the cap the norm sum is finite, and |2 <xc_i, zc_j>| is at most it
    if not (x_sq.max() + z_sq.max()) / bandwidth <= GAUSSIAN_PRODUCT_MAX_SPREAD:
        return _gaussian_gram(x, z, bandwidth)
    g = xc @ zc.T
    for rows, sq in _row_tiles(*g.shape):
        part = g[rows]
        np.add(x_sq[rows, None], z_sq, out=sq)
        part *= 2.0
        sq -= part
        np.maximum(sq, 0.0, out=sq)
        np.divide(sq, -bandwidth, out=sq)
        np.exp(sq, out=part)
    if z is x:
        np.fill_diagonal(g, 1.0)
    return g


def _row_tiles(n: int, m: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Row slices of an n x m array, each with an uninitialized tile of its shape.

    The tiles are views of one array of ``_GRAM_TILE_VALUES`` values (one row
    if a row is longer), so an elementwise pass holds no second n x m array.
    """
    step = max(1, _GRAM_TILE_VALUES // m)
    tile = np.empty((min(step, n), m))
    for lo in range(0, n, step):
        yield slice(lo, lo + step), tile[:min(step, n - lo)]


def _read_csv(path) -> np.ndarray:
    """Numbers from a comma-separated file as a 2-D float array.

    ``path`` is a file name, ``-`` for stdin, or an open text file.  Blank
    lines are skipped, and the first non-blank line is a header, and is
    dropped, when one of its comma-separated cells is not a number.  The
    remaining lines stream from the file into ``np.loadtxt``, so no copy of
    the text is held beside the parsed array.  Raises ``ValueError`` naming
    the file when it cannot be opened, is empty, has a header but no data
    rows, or is malformed (ragged rows, non-numeric cells).
    """
    name = getattr(path, "name", path)
    if hasattr(path, "read"):
        source = contextlib.nullcontext(path)
    elif path == "-":
        source = contextlib.nullcontext(sys.stdin)
    else:
        try:
            source = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read {name}: {exc}") from None
    with source as fh:
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{name}: empty input")
        try:
            [float(cell) for cell in first.split(",")]
        except ValueError:
            first = next(rows, None)
            if first is None:
                raise ValueError(f"{name}: no data rows") from None
        try:
            return np.loadtxt(itertools.chain([first], rows),
                              delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{name}: malformed CSV ({exc})") from None


def load_gram_csv(path) -> GramMatrix:
    """Load a precomputed Gram matrix from CSV.

    ``path`` is a file name, ``-`` for stdin, or an open text file, read as
    ``cli.read_dataset`` reads data (one optional header row).  Raises
    ``ValueError`` naming the file when it cannot be parsed, and
    ``ParameterError`` unless the matrix is square, finite and symmetric
    within ``SYMMETRY_RTOL`` of its largest entry (at least 1); the result
    is symmetrized.
    """
    m = _read_csv(path)
    name = getattr(path, "name", path)
    if m.shape[0] != m.shape[1]:
        raise ParameterError(
            f"{name}: precomputed kernel matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ParameterError(
            f"{name}: precomputed kernel matrix has non-finite entries (nan or inf)")
    scale = max(1.0, float(np.abs(m).max()))
    with np.errstate(over="ignore"):  # a difference that overflows is inf
        asymmetry = float(np.abs(m - m.T).max())
    if asymmetry > SYMMETRY_RTOL * scale:
        raise ParameterError(
            f"{name}: precomputed kernel matrix is not symmetric within tolerance")
    return GramMatrix(_symmetrize(m))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2; an entry that overflows comes out inf, without a warning."""
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (m + m.T) / 2.0
