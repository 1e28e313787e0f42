"""Exact binomial coefficients and multiplicative weights of nested chains."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .conditions import _require_ints


def binomial(n: int, k: int) -> int:
    """C(n, k); returns 0 whenever k < 0 or k > n."""
    _require_ints(n=(n, 0), k=(k, None))
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_row(n: int) -> list[int]:
    """The row [C(n, 0), ..., C(n, n)], as a fresh list.

    The exact recurrence C(n, k+1) = C(n, k)(n-k)/(k+1) runs up to
    k = floor(n/2); the rest of the row is its mirror, C(n, k) = C(n, n-k).
    """
    _require_ints(n=(n, 0))
    row = [1]
    c = 1
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        row.append(c)
    row.extend(reversed(row[: n - n // 2]))
    return row


@lru_cache(maxsize=2, typed=True)
def _row(n: int) -> tuple[int, ...]:
    # The last two rows, for levelbounds: an optimizer and the closed form
    # checked against it at the same n share one.  Tuples, so no caller can
    # change a shared row; typed, so 2.0 and True never reuse an int's entry.
    return tuple(binomial_row(n))


def chain_weight(n: int, sizes: Sequence[int]) -> int:
    """Number of nested tuples G_1 < ... < G_t of subsets of [n] with the given sizes.

    Equals C(n, s_t) * C(s_t, s_{t-1}) * ... * C(s_2, s_1).  A single size s
    reduces to C(n, s).
    """
    sizes = list(sizes)
    _require_ints(n=(n, None))
    for size in sizes:
        _require_ints(size=(size, None))
    if not sizes:
        raise ValueError("sizes must be nonempty")
    for lo, hi in zip(sizes, sizes[1:]):
        if lo >= hi:
            raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    if sizes[0] < 0 or sizes[-1] > n:
        raise ValueError(f"sizes must lie in [0, {n}], got {sizes}")
    weight = binomial(n, sizes[-1])
    for lo, hi in zip(sizes, sizes[1:]):
        weight *= binomial(hi, lo)
    return weight
