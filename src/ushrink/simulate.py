"""Monte Carlo estimation of estimator risk.

Randomness
----------
All draws come from numpy's counter-based Philox bit generator.
``sample(dist, n, seed)`` is a pure function of its arguments: it returns
the draws of a fresh ``Generator(Philox(key=seed))``.  Replication ``r``
of a Monte Carlo run sees ``sample(dist, n, seed + r)``, so every
replication is an independent, addressable stream and results are
bit-reproducible.  ``mc_detail`` takes a sequence of estimators and draws
each replication's dataset once: every estimator is evaluated on that one
draw, so a paired comparison scores all its estimators on the same
datasets without sampling them again.  An estimator's errors do not depend
on which other estimators share the run.

``sample`` does not construct a generator per call: it re-keys one shared
Philox generator to ``seed``, which puts it in exactly the state of a new
``Philox(key=seed)`` at a fraction of the cost.  Replications run in
blocks: the datasets of replications ``r`` .. ``r + m - 1`` fill an
(m, n, d) array of at most ``max(BLOCK_VALUES, n * d)`` draws, so memory
stays bounded whatever the number of replications.  Every estimator is
evaluated on the whole block at once, by the code its one-dataset API runs
on a block of one (``normalmean.mu_check_c_batch``, ``covmat._shrink_block``)
or, for the Gaussian-kernel embedding, from each dataset's Gram trace and
sum, with ``alpha_from`` over the block's arrays.  Reductions are fixed so
that every row equals the one-dataset computation bit for bit; no estimator
writes to the block.  Aggregation uses exact (Shewchuk) summation, so the
reported risk does not depend on accumulation order.

Dispatch
--------
``_DIST_MAPS`` gives each distribution kind its moments and its map from
standard draws, looked up once when a ``DistSpec`` is built.  ``_ROUTES``
gives each estimator kind its block function and its population moments,
from which ``oracle_alpha`` forms the oracle coefficient; ``_route`` is the
one place that knows which kernels and inputs a mean embedding supports.

Risk metrics
------------
Squared Euclidean distance for vector estimands, squared Frobenius distance
for covariance matrices.  For mean embeddings under a nonlinear kernel the
risk is expanded as ||E||^2 - 2 <E, C> + ||C||^2 in the kernel's Hilbert
space; the two population terms are closed-form Gaussian integrals
(``gaussian_kernel_location_moment`` and ``gaussian_embed_norm_sq`` below),
available for spherical Gaussian inputs under the Gaussian kernel and
unit-tested against numerical quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import covmat, normalmean
from .errors import CapabilityError, ParameterError
from .kernels import GAUSSIAN, LINEAR, KernelSpec, gram
from .shrinkage import GENERAL, _mean_stats, _snap_alpha, alpha_from

SPHERICAL_GAUSSIAN = "spherical_gaussian"
DIAG_GAUSSIAN = "diag_gaussian"
UNIFORM_BOX = "uniform_box"

SAMPLE_MEAN = "sample_mean"
MU_CHECK = "mu_check"
MU_CHECK_C = "mu_check_c"
FIXED_ALPHA_MEAN = "fixed_alpha_mean"
MEAN_EMBED_SHRINK = "mean_embed_shrink"
COV_MAT_SHRINK = "cov_mat_shrink"
COV_MAT_PLAIN = "cov_mat_plain"

MIN_REPS = 100

# distribution kind -> spec -> (mean, coordinate variances, scale, shift,
# Generator method): X = shift + scale * Z for Z drawn by the method
_DIST_MAPS = {
    SPHERICAL_GAUSSIAN: lambda s: (s.mu, np.full(s.mu.shape, np.square(s.sigma)),
                                   s.sigma, s.mu, "standard_normal"),
    DIAG_GAUSSIAN: lambda s: (s.mu, s.sigmas**2, s.sigmas, s.mu, "standard_normal"),
    UNIFORM_BOX: lambda s: ((s.lo + s.hi) / 2.0, (s.hi - s.lo) ** 2 / 12.0,
                            s.hi - s.lo, s.lo, "random"),
}


@dataclass(frozen=True, eq=False)
class DistSpec:
    """Sampling distribution with analytically known mean and covariance."""

    kind: str
    mu: np.ndarray | None = None
    sigma: float | None = None
    sigmas: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    dim: int = field(init=False, repr=False)
    mean: np.ndarray = field(init=False, repr=False)
    covariance: np.ndarray = field(init=False, repr=False)
    trace_cov: float = field(init=False, repr=False)
    _scale: float | np.ndarray = field(init=False, repr=False)
    _shift: np.ndarray = field(init=False, repr=False)
    _draw: str = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _DIST_MAPS:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            mean, variances, scale, shift, draw = _DIST_MAPS[self.kind](self)
        if not all(np.isfinite(v).all() for v in (mean, variances, scale, shift)):
            raise ParameterError(f"{self.kind}: parameters and moments must be finite")
        covariance = np.diag(variances)
        covariance.setflags(write=False)  # one array, shared by every caller
        derived = {"dim": mean.shape[0], "mean": mean, "covariance": covariance,
                   "trace_cov": float(np.trace(covariance)),
                   "_scale": scale, "_shift": shift, "_draw": draw}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def spherical_gaussian(cls, mu, sigma: float) -> "DistSpec":
        mu = np.array(mu, dtype=float).ravel()
        if not sigma > 0:
            raise ParameterError(f"sigma must be positive, got {sigma}")
        return cls(SPHERICAL_GAUSSIAN, mu=mu, sigma=float(sigma))

    @classmethod
    def diag_gaussian(cls, mu, sigmas) -> "DistSpec":
        mu = np.array(mu, dtype=float).ravel()
        sigmas = np.array(sigmas, dtype=float).ravel()
        if mu.shape != sigmas.shape:
            raise ParameterError("mu and sigmas must have the same dimension")
        if not np.all(sigmas > 0):
            raise ParameterError("all sigmas must be positive")
        return cls(DIAG_GAUSSIAN, mu=mu, sigmas=sigmas)

    @classmethod
    def uniform_box(cls, lo, hi) -> "DistSpec":
        lo = np.array(lo, dtype=float).ravel()
        hi = np.array(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ParameterError("lo and hi must have the same dimension")
        if not np.all(lo < hi):
            raise ParameterError("need lo < hi componentwise")
        return cls(UNIFORM_BOX, lo=lo, hi=hi)


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator to be benchmarked by the Monte Carlo harness."""

    kind: str
    c: float | None = None
    alpha: float | None = None
    kernel: KernelSpec | None = None
    tau: float | None = None
    variant: str | None = None

    def __post_init__(self):
        # the block routes do not check their parameters
        if self.kind == MU_CHECK_C and not (self.c is not None and 0.0 < self.c < 2.0):
            raise ParameterError(f"damping constant c must lie in (0, 2), got {self.c}")
        if self.kind == FIXED_ALPHA_MEAN and not (
                self.alpha is not None and 0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.kind == COV_MAT_SHRINK:
            covmat._check_target(self.tau, self.variant)

    @classmethod
    def sample_mean(cls) -> "EstimatorSpec":
        return cls(SAMPLE_MEAN)

    @classmethod
    def mu_check(cls) -> "EstimatorSpec":
        return cls(MU_CHECK)

    @classmethod
    def mu_check_c(cls, c: float) -> "EstimatorSpec":
        return cls(MU_CHECK_C, c=float(c))

    @classmethod
    def fixed_alpha_mean(cls, alpha: float) -> "EstimatorSpec":
        return cls(FIXED_ALPHA_MEAN, alpha=float(alpha))

    @classmethod
    def mean_embed_shrink(cls, kernel: KernelSpec) -> "EstimatorSpec":
        return cls(MEAN_EMBED_SHRINK, kernel=kernel)

    @classmethod
    def cov_mat_shrink(cls, tau: float = 1.0, variant: str = GENERAL) -> "EstimatorSpec":
        return cls(COV_MAT_SHRINK, tau=float(tau), variant=variant)

    @classmethod
    def cov_mat_plain(cls) -> "EstimatorSpec":
        return cls(COV_MAT_PLAIN)

    def label(self) -> str:
        return _LABELS.get(self.kind, self.kind).format_map(vars(self))


# estimator kind -> label template over the spec's fields; other kinds are
# labelled by their name
_LABELS = {
    MU_CHECK_C: "mu_check_c({c:g})",
    FIXED_ALPHA_MEAN: "fixed_alpha_mean({alpha:g})",
    MEAN_EMBED_SHRINK: "mean_embed_shrink({kernel.kind})",
    COV_MAT_SHRINK: "cov_mat_shrink(tau={tau:g},{variant})",
}


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean squared error with its standard error."""

    mean_sq_error: float
    std_error: float
    reps: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


_WORD_MASK = 2**64 - 1
_KEY_LIMIT = 2**128  # a Philox4x64 key is two 64-bit words


class _KeyedPhilox:
    """One Philox generator whose key is reset for each dataset.

    Philox is counter-based: its output is a fixed function of the key and a
    counter.  Setting the key to k and zeroing the counter and the output
    buffer therefore leaves it in exactly the state of a newly constructed
    ``Philox(key=k)``, and each key addresses its own independent stream
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
    A reset costs a fraction of constructing a generator.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bitgen)
        self._fresh = self._bitgen.state  # zero counter, empty buffer
        self._key = self._fresh["state"]["key"]

    def fill(self, dist: DistSpec, key: int, out: np.ndarray) -> None:
        """Overwrite ``out`` with the standard draws of ``Philox(key=key)``."""
        self._key[0] = key & _WORD_MASK
        self._key[1] = key >> 64
        self._bitgen.state = self._fresh
        getattr(self._rng, dist._draw)(out=out)


_SHARED_LOCK = threading.Lock()


@functools.cache
def _shared_stream() -> _KeyedPhilox:
    # built on first use: ``np.random`` loads lazily, and importing the
    # package should not pay for it
    return _KeyedPhilox()


def _check_sample_args(n: int, seed: int, count: int = 1) -> int:
    """Validate n and the keys seed .. seed + count - 1; returns int(seed)."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")
    if seed + count > _KEY_LIMIT:
        raise ParameterError(f"seeds must stay below 2**128, got {seed + count - 1}")
    return seed


def _standard_to(dist: DistSpec, z: np.ndarray) -> np.ndarray:
    """Map standard draws (coordinates on the last axis) onto dist, in place."""
    z *= dist._scale
    z += dist._shift
    return z


def sample(dist: DistSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. observations; deterministic in (dist, n, seed).

    The draws are those of ``np.random.Generator(np.random.Philox(key=seed))``.
    """
    seed = _check_sample_args(n, seed)
    out = np.empty((n, dist.dim))
    with _SHARED_LOCK:
        _shared_stream().fill(dist, seed, out)
    return _standard_to(dist, out)


# ---------------------------------------------------------------------------
# closed-form Gaussian kernel moments
# ---------------------------------------------------------------------------

def gaussian_kernel_location_moment(points, mu, sigma: float, bandwidth: float):
    """E_Y[K(x, Y)] for Y ~ N(mu, sigma^2 I) and K(x, y) = exp(-||x-y||^2/b).

    Completing the square in each coordinate of the Gaussian integral gives

        E_Y exp(-(x_c - Y_c)^2 / b)
          = sqrt(b / (b + 2 sigma^2)) * exp(-(x_c - mu_c)^2 / (b + 2 sigma^2)),

    and the d coordinates multiply.  ``points`` may be a single point or an
    (n, d) array; returns a float or an array of per-row values.
    """
    x = np.asarray(points, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    mu = np.asarray(mu, dtype=float).ravel()
    b = float(bandwidth)
    denom = b + 2.0 * sigma**2
    d = mu.shape[0]
    pref = (b / denom) ** (d / 2.0)
    vals = pref * np.exp(-np.sum((x - mu) ** 2, axis=1) / denom)
    return float(vals[0]) if squeeze else vals


def gaussian_embed_norm_sq(d: int, sigma: float, bandwidth: float) -> float:
    """||E_X K(., X)||^2 for X ~ N(mu, sigma^2 I), any mu.

    Equals E[K(X, X')] for independent copies; X - X' ~ N(0, 2 sigma^2 I),
    and E exp(-Z^2/b) = sqrt(b / (b + 2 s^2)) for Z ~ N(0, s^2) per
    coordinate, so the value is (b / (b + 4 sigma^2))^(d/2).
    """
    b = float(bandwidth)
    return (b / (b + 4.0 * sigma**2)) ** (d / 2.0)


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

# Replications are drawn and evaluated in blocks of at most this many float64
# values (256 KiB), or of one dataset where n * d is larger, so memory does
# not grow with the number of replications.
BLOCK_VALUES = 2**15


def _mean_errors(est, dist, block):
    diff = block.mean(axis=1) - dist.mean
    return np.vecdot(diff, diff), np.full(len(block), math.nan)


def _fixed_alpha_errors(est, dist, block):
    diff = (1.0 - est.alpha) * block.mean(axis=1) - dist.mean
    return np.vecdot(diff, diff), np.full(len(block), est.alpha)


def _shrunk_mean_errors(est, dist, block):
    c = 1.0 if est.c is None else est.c
    _, _, alpha, estimate = normalmean.mu_check_c_batch(block, c)
    diff = estimate - dist.mean
    return np.vecdot(diff, diff), alpha


def _cov_errors(est, dist, block):
    # shrink_cov_matrix's block code; the plain estimator (no variant) is its C_hat
    _, _, estimate, report = covmat._shrink_block(block, est.tau, est.variant)
    diff = (estimate - dist.covariance).reshape(len(block), -1)
    alpha = np.full(len(block), math.nan) if report is None else report[3]
    return np.square(diff).sum(axis=1), alpha


def _gaussian_embed_errors(est, dist, block):
    m, n, d = block.shape
    # trace and entry sum of each dataset's Gram
    sums = np.array([gram(est.kernel, data)._row_stats[:2] for data in block]).T
    dist_sq, _, alpha = _snap_alpha(*_mean_stats(*sums, n))
    w = 1.0 - alpha
    cross = gaussian_kernel_location_moment(
        block.reshape(-1, d), dist.mu, dist.sigma, est.kernel.bandwidth)
    cross = cross.reshape(m, n).mean(axis=1)
    norm_c = _gaussian_embed_moments(est, dist)[1]
    return w * w * dist_sq - 2.0 * w * cross + norm_c, alpha


def _mean_moments(est, dist):
    return dist.trace_cov, float(dist.mean @ dist.mean)


def _gaussian_embed_moments(est, dist):
    norm_c = gaussian_embed_norm_sq(dist.dim, dist.sigma, est.kernel.bandwidth)
    return 1.0 - norm_c, norm_c


# estimator kind -> (block function (est, dist, block) -> (squared errors,
# coefficients), population moments (est, dist) -> (n * risk, squared norm of
# the estimand) or None); the mean_embed_shrink entry is the Gaussian kernel
_ROUTES = {
    SAMPLE_MEAN: (_mean_errors, None),
    FIXED_ALPHA_MEAN: (_fixed_alpha_errors, _mean_moments),
    MU_CHECK: (_shrunk_mean_errors, _mean_moments),
    MU_CHECK_C: (_shrunk_mean_errors, _mean_moments),
    COV_MAT_PLAIN: (_cov_errors, None),
    COV_MAT_SHRINK: (_cov_errors, None),
    MEAN_EMBED_SHRINK: (_gaussian_embed_errors, _gaussian_embed_moments),
}


def _route(est: EstimatorSpec, dist: DistSpec):
    """The ``_ROUTES`` entry of est under dist; CapabilityError if there is none.

    A mean embedding (always toward the zero target) is the ``mu_check``
    estimator under the linear kernel; under the Gaussian kernel it needs
    spherical Gaussian inputs, and other kernels have no route.
    """
    kind = est.kind
    if kind == MEAN_EMBED_SHRINK:
        if est.kernel.kind == LINEAR:
            kind = MU_CHECK
        elif est.kernel.kind != GAUSSIAN:
            raise CapabilityError(
                f"no closed-form embedding moments for the {est.kernel.kind} kernel")
        elif dist.kind != SPHERICAL_GAUSSIAN:
            raise CapabilityError("Gaussian-kernel embedding risk needs spherical "
                                  f"Gaussian inputs, got {dist.kind}")
    route = _ROUTES.get(kind)
    if route is None:
        raise CapabilityError(f"unknown estimator kind {kind!r}")
    return route


def mc_detail(ests: Sequence[EstimatorSpec], dist: DistSpec, n: int, reps: int,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication squared errors and shrinkage coefficients of estimators.

    ``ests`` is a sequence of estimators; row i of both (len(ests), reps)
    arrays belongs to ``ests[i]``.  Replication r sees
    ``sample(dist, n, seed + r)``, drawn once and shared by every estimator.
    The coefficients are nan for estimators without one (sample mean, plain
    covariance).  Replications run in blocks: the datasets of up to
    ``BLOCK_VALUES`` draws (one dataset if it alone is larger) fill an
    (m, n, d) array, and every estimator's ``_ROUTES`` block function takes
    the whole block.  Every estimator's route is checked before anything is
    drawn.
    """
    if reps < 1:
        raise ParameterError(f"need reps >= 1, got {reps}")
    ests = tuple(ests)
    if not ests:
        raise ParameterError("need at least one estimator")
    batches = [_route(est, dist)[0] for est in ests]
    seed = _check_sample_args(n, seed, reps)
    per_block = max(1, BLOCK_VALUES // (n * dist.dim))
    buf = np.empty((min(per_block, reps), n, dist.dim))
    errs = np.empty((len(ests), reps))
    alphas = np.empty((len(ests), reps))
    for lo in range(0, reps, per_block):
        block = buf[:min(per_block, reps - lo)]
        # one ``sample`` call per replication: the dataset of replication r
        # is sample(dist, n, seed + r) by construction, and the benchmark's
        # span tracer attributes sampling time through these calls
        for i in range(len(block)):
            block[i] = sample(dist, n, seed + lo + i)
        hi = lo + len(block)
        for k, (est, batch) in enumerate(zip(ests, batches)):
            errs[k, lo:hi], alphas[k, lo:hi] = batch(est, dist, block)
    return errs, alphas


_FSUM_CHUNK = 1024


def _exact_sum(values: np.ndarray) -> float:
    """Shewchuk-exact sum, converting ``_FSUM_CHUNK`` values to floats at a time.

    ``math.fsum`` over the array itself would box every element as a numpy
    scalar; one ``tolist`` of the whole array would hold them all at once.
    """
    return math.fsum(itertools.chain.from_iterable(
        values[i:i + _FSUM_CHUNK].tolist()
        for i in range(0, len(values), _FSUM_CHUNK)))


def summarize_errors(errs: np.ndarray, reps: int, seed: int) -> RiskEstimate:
    """Order-independent mean and standard error of per-replication errors."""
    errs = np.asarray(errs, dtype=float)
    mse = _exact_sum(errs) / len(errs)
    var = _exact_sum((errs - mse) ** 2) / (len(errs) - 1) if len(errs) > 1 else 0.0
    return RiskEstimate(mse, math.sqrt(var / len(errs)), reps, seed)


def _check_min_reps(reps: int) -> None:
    if reps < MIN_REPS:
        raise ParameterError(f"need reps >= {MIN_REPS}, got {reps}")


def mc_risk(est: EstimatorSpec, dist: DistSpec, n: int, reps: int,
            seed: int) -> RiskEstimate:
    """Monte Carlo risk of an estimator against the analytic estimand.

    Requires reps >= 100; smaller runs are statistically meaningless and are
    rejected rather than reported.
    """
    _check_min_reps(reps)
    errs = mc_detail((est,), dist, n, reps, seed)[0][0]
    return summarize_errors(errs, reps, seed)


# ---------------------------------------------------------------------------
# population-optimal coefficient and rate fitting
# ---------------------------------------------------------------------------

def oracle_alpha(dist: DistSpec, est: EstimatorSpec, n: int) -> float:
    """Population-optimal shrinkage coefficient for tractable configurations.

    Supported: mean estimation toward zero (linear kernel or the normal-mean
    estimators), where the risk is trace(Cov)/n and the squared target
    distance is ||mean||^2; and the Gaussian-kernel mean embedding of a
    spherical Gaussian toward zero, via the closed-form kernel moments.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    moments = _route(est, dist)[1]
    if moments is None:
        raise CapabilityError(
            f"no analytic oracle for estimator {est.kind!r} under {dist.kind!r}")
    n_risk, norm_sq = moments(est, dist)
    return alpha_from(n_risk / n, norm_sq)[1]


def rate_slope(points) -> float:
    """Least-squares slope of log(risk) against log(n).

    Needs at least three (n, risk) points, all finite and strictly positive.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ParameterError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    risks = np.array([p[1] for p in pts], dtype=float)
    if not all(((v > 0) & (v < math.inf)).all() for v in (ns, risks)):
        raise ParameterError("all n and risk values must be finite and positive")
    slope, _ = np.polyfit(np.log(ns), np.log(risks), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# named experiments
# ---------------------------------------------------------------------------

DEFAULT_SEED = 42

# name -> (description, default reps)
_EXPERIMENTS = {
    "mean-improvement": ("paired improvement of the shrunk mean, d=10, n=5", 10**5),
    "damped-improvement": (
        "paired improvement of the damped shrunk mean at d=3, n=10", 10**6),
    "consistency": ("risk decay of Gaussian-kernel embedding shrinkage over n", 10**4),
    "oracle": ("fixed oracle-coefficient dominance, d=3, n=10", 10**5),
}

# paired experiments: the shrunk estimator against the sample mean on
# N(mu_0 e_1, I_d) data; name -> (d, mu_0, n, n -> shrunk estimator)
_PAIRED = {
    "mean-improvement": (10, 1.0, 5, lambda n: EstimatorSpec.mu_check()),
    "damped-improvement": (
        3, 2.0, 10, lambda n: EstimatorSpec.mu_check_c(normalmean.default_c(n))),
}


def experiment_names() -> list[str]:
    return sorted(_EXPERIMENTS)


def _risk_row(est: EstimatorSpec, dist: DistSpec, n: int,
              risk: RiskEstimate) -> dict:
    return {"estimator": est.label(), "n": n, "d": dist.dim, "reps": risk.reps,
            "mse": risk.mean_sq_error, "stderr": risk.std_error}


def _risk_rows(ests, dist: DistSpec, n: int, reps: int,
               seed: int) -> tuple[list[dict], np.ndarray]:
    """Risk rows of estimators on shared datasets, with their per-replication errors."""
    errs = mc_detail(ests, dist, n, reps, seed)[0]
    rows = [_risk_row(est, dist, n, summarize_errors(e, reps, seed))
            for est, e in zip(ests, errs)]
    return rows, errs


def _paired_summary(est_a, est_b, errs_a, errs_b, reps, seed) -> dict:
    summary = summarize_errors(errs_a - errs_b, reps, seed)
    return {"difference": f"{est_a.label()} - {est_b.label()}",
            "mean": summary.mean_sq_error, "stderr": summary.std_error}


def run_experiment(name: str, *, reps: int | None = None, seed: int = DEFAULT_SEED,
                   n_grid: Optional[list[int]] = None) -> dict:
    """Run a canned simulation and return a JSON-ready result dict.

    ``n_grid`` (three or more sample sizes >= 2, for the consistency
    experiment's rate fit) and ``reps`` are checked before anything is drawn.
    """
    if name not in _EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {name!r}; choose from {experiment_names()}")
    if n_grid is not None and (name != "consistency" or len(n_grid) < 3
                               or min(n_grid) < 2):
        raise ParameterError("n_grid takes 3 or more sample sizes >= 2, for the "
                             f"consistency experiment only; got {n_grid} for {name}")
    description, default_reps = _EXPERIMENTS[name]
    reps = default_reps if reps is None else reps
    _check_min_reps(reps)
    out: dict = {"experiment": name, "description": description,
                 "seed": seed, "results": []}

    if name in _PAIRED:
        d, mu_0, n, shrunk_at = _PAIRED[name]
        mu = np.zeros(d)
        mu[0] = mu_0
        dist = DistSpec.spherical_gaussian(mu, 1.0)
        plain, shrunk = EstimatorSpec.sample_mean(), shrunk_at(n)
        out["results"], (errs_plain, errs_shrunk) = _risk_rows(
            (plain, shrunk), dist, n, reps, seed)
        out["paired"] = _paired_summary(shrunk, plain, errs_shrunk, errs_plain,
                                        reps, seed)
        return out

    if name == "consistency":
        grid = [25, 50, 100, 200] if n_grid is None else list(n_grid)
        dist = DistSpec.spherical_gaussian(np.array([1.0, 0.0]), 1.0)
        est = EstimatorSpec.mean_embed_shrink(KernelSpec.gaussian(1.0))
        out["results"] = rows = []
        for n in grid:
            (errs,), (alphas,) = mc_detail((est,), dist, n, reps, seed)
            a_star = oracle_alpha(dist, est, n)
            rows.append({
                **_risk_row(est, dist, n, summarize_errors(errs, reps, seed)),
                "oracle_alpha": a_star,
                "median_alpha_gap": float(np.median(np.abs(alphas - a_star))),
            })
        out["slope"] = rate_slope((row["n"], row["mse"]) for row in rows)
        return out

    # oracle dominance
    dist = DistSpec.spherical_gaussian(np.array([1.0, 0.0, 0.0]), 1.0)
    n = 10
    a_star = oracle_alpha(dist, EstimatorSpec.mu_check(), n)
    ests = (EstimatorSpec.sample_mean(), EstimatorSpec.fixed_alpha_mean(a_star),
            EstimatorSpec.mu_check())
    out["oracle_alpha"] = a_star
    out["results"], _ = _risk_rows(ests, dist, n, reps, seed)
    return out
