"""Exact enumeration of combination and permutation U-statistics.

These are desk-scale oracle paths: they average a caller-supplied evaluation
function over all index tuples, in fixed lexicographic order, with exact
(Shewchuk) summation.  Factorial growth is held in check by one tuple
budget, the ``USHRINK_ENUM_LIMIT`` environment variable (default 10^7), read
at each call: an enumeration longer than the budget raises
``EnumerationLimitError`` before it starts.
Closed-form estimators elsewhere in the package avoid enumeration entirely.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable

from .errors import (
    ContractError,
    EnumerationLimitError,
    InsufficientSampleError,
    ParameterError,
)

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


@dataclass(frozen=True)
class EvalFn:
    """A real-valued evaluation function of ``order`` data points.

    ``symmetric`` declares invariance under argument permutation; it is the
    caller's contract and is only spot-checked by tests.
    """

    order: int
    body: Callable[..., float]
    symmetric: bool = False


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


def u_stat_sym(g: EvalFn, data, k: int) -> float:
    """Average ``g`` over all C(n,k) strictly increasing index tuples.

    Requires ``g.symmetric`` since the combination form is only an unbiased
    estimator for symmetric evaluation functions.
    """
    if not g.symmetric:
        raise ContractError(
            "u_stat_sym requires a symmetric evaluation function; "
            "use u_stat_perm for general ones"
        )
    if g.order != k:
        raise ContractError(f"evaluation function has order {g.order}, expected {k}")
    n = len(data)
    if n < k:
        raise InsufficientSampleError(f"need at least {k} observations, got {n}")
    count = math.comb(n, k)
    budget = enumeration_limit()
    if count > budget:
        raise EnumerationLimitError(required=count, limit=budget)
    body = g.body
    total = math.fsum(
        body(*(data[i] for i in idx)) for idx in combinations(range(n), k)
    )
    return total / count


def u_stat_perm(g: EvalFn, data, m: int) -> float:
    """Average ``g`` over all P(n,m) ordered injective index tuples."""
    if g.order != m:
        raise ContractError(f"evaluation function has order {g.order}, expected {m}")
    n = len(data)
    if n < m:
        raise InsufficientSampleError(f"need at least {m} observations, got {n}")
    count = math.perm(n, m)
    budget = enumeration_limit()
    if count > budget:
        raise EnumerationLimitError(required=count, limit=budget)
    body = g.body
    total = math.fsum(
        body(*(data[i] for i in idx)) for idx in permutations(range(n), m)
    )
    return total / count
