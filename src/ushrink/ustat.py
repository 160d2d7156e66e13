"""Exact enumeration of permutation U-statistics.

A desk-scale oracle path: the average of a caller-supplied function of m data
points over all ordered injective index tuples, in fixed lexicographic order,
with exact (Shewchuk) summation.  Factorial growth is held in check by one tuple
budget, the ``USHRINK_ENUM_LIMIT`` environment variable (default 10^7), read
at each call: an enumeration longer than the budget raises
``EnumerationLimitError`` before it starts.
Closed-form estimators elsewhere in the package avoid enumeration entirely.
"""

from __future__ import annotations

import math
import os
from itertools import permutations
from typing import Callable

from .errors import EnumerationLimitError, InsufficientSampleError, ParameterError

ENUM_LIMIT_ENV = "USHRINK_ENUM_LIMIT"
DEFAULT_ENUM_LIMIT = 10**7


def enumeration_limit() -> int:
    """Current tuple budget, read from the environment at call time."""
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"{ENUM_LIMIT_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ParameterError(f"{ENUM_LIMIT_ENV} must be positive, got {value}")
    return value


def comb_weights(n: int, k: int) -> tuple[float, ...]:
    """Weights of the variance decomposition of an order-k U-statistic.

    The hypergeometric weights w[i] = C(k,i) C(n-k,k-i) / C(n,k), i = 0..k;
    they sum to one (Vandermonde's identity).  Computed with exact integer
    binomials, so there is no overflow for any practical ``n``.
    """
    if k < 1:
        raise ParameterError(f"order k must be >= 1, got {k}")
    if n < 2 * k:
        raise InsufficientSampleError(f"need n >= 2k, got n={n}, k={k}")
    denom = math.comb(n, k)
    return tuple(math.comb(k, i) * math.comb(n - k, k - i) / denom
                 for i in range(k + 1))


def u_stat_perm(fn: Callable[..., float], data, m: int) -> float:
    """Average ``fn(*points)`` over all P(n,m) ordered injective m-tuples."""
    if m < 1:
        raise ParameterError(f"order m must be >= 1, got {m}")
    n = len(data)
    if n < m:
        raise InsufficientSampleError(f"need at least {m} observations, got {n}")
    count = math.perm(n, m)
    budget = enumeration_limit()
    if count > budget:
        raise EnumerationLimitError(required=count, limit=budget)
    total = math.fsum(
        fn(*(data[i] for i in idx)) for idx in permutations(range(n), m)
    )
    return total / count
