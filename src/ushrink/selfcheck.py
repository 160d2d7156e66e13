"""Built-in oracle-equivalence suites, runnable without a test harness.

Three suites cross-validate independent computation routes on seeded random
data: the moment identities behind the covariance closed forms, the closed
forms against the exact enumeration engine, and the Gram-matrix shrinkage
formulas against the same engine for all kernel families.  The CLI ``check``
subcommand runs them and reports pass/fail counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covmat
from .kernels import KernelSpec, gram, kernel_function
from .shrinkage import (
    DEGENERATE,
    GENERAL,
    covop_inner,
    delta_degen,
    delta_general,
    mean_inner,
    shrink_covop,
    shrink_covop_degen,
    shrink_mean,
)

IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8
GRAM_TOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    failed: int
    worst: float

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "worst_relative_error": self.worst,
        }


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _datasets(rng, sizes, dims):
    for n in sizes:
        for d in dims:
            yield rng.uniform(-2.0, 2.0, size=(n, d))


def _suite(name: str, pairs, tol: float) -> SuiteResult:
    """Tally (a, b) pairs: a pair passes when their relative error is <= tol."""
    errs = [_rel(a, b) for a, b in pairs]
    passed = sum(err <= tol for err in errs)
    return SuiteResult(name, passed, len(errs) - passed, max([0.0, *errs]))


def check_moment_identities(seed: int = 0) -> SuiteResult:
    """Double/triple/quadruple sums vs spectral-summary polynomials."""
    rng = np.random.default_rng(seed)
    pairs = (pair for data in _datasets(rng, range(2, 9), (1, 2, 3))
             for pair in covmat.moment_identity_check(data))
    return _suite("moment-identities", pairs, IDENTITY_TOL)


def check_closed_forms(seed: int = 1) -> SuiteResult:
    """Covariance closed forms vs the enumeration engine, linear kernel."""
    rng = np.random.default_rng(seed)
    inner = covop_inner(kernel_function(KernelSpec.linear()))

    def pairs():
        for data in _datasets(rng, (4, 5, 6), (1, 3)):
            yield (covmat.shrink_cov_matrix(data, variant=GENERAL).report.delta_hat,
                   delta_general(inner, data, 2))
            yield (covmat.shrink_cov_matrix(data, variant=DEGENERATE).report.delta_hat,
                   delta_degen(inner, data, 2))

    return _suite("closed-forms-vs-enumeration", pairs(), CLOSED_FORM_TOL)


def check_gram_forms(seed: int = 2) -> SuiteResult:
    """Gram-matrix shrinkage formulas vs the enumeration engine."""
    rng = np.random.default_rng(seed)
    specs = (KernelSpec.linear(), KernelSpec.gaussian(1.0),
             KernelSpec.exponential(1.0))

    def pairs():
        for data in _datasets(rng, (4, 5, 6), (2,)):
            for spec in specs:
                fn = kernel_function(spec)
                g = gram(spec, data)
                cov = covop_inner(fn)
                _, mean_report = shrink_mean(g)
                yield (mean_report.delta_hat,
                       delta_general(mean_inner(fn), data, 1))
                yield (shrink_covop(g).delta_hat,
                       delta_general(cov, data, 2))
                yield (shrink_covop_degen(g).delta_hat,
                       delta_degen(cov, data, 2))

    return _suite("gram-forms-vs-enumeration", pairs(), GRAM_TOL)


def run_checks(seed: int = 0) -> list[SuiteResult]:
    """Run all suites with seeds derived from ``seed``."""
    return [
        check_moment_identities(seed),
        check_closed_forms(seed + 1),
        check_gram_forms(seed + 2),
    ]
