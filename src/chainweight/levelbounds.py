"""Maximum total binomial weight of allowed level sets, plus closed forms.

A family built as a union of full levels H has size sum_{h in H} C(n, h).
For a pairwise size condition the largest such weight over allowed H is an
upper bound on the size of any family satisfying the condition, and the
optimizers here compute it exactly together with a witness level set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .binom import binomial, binomial_row
from .conditions import (
    Antichain,
    Condition,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    level_conflicts,
)

METHOD_DP = "dp"
METHOD_BRANCH_AND_BOUND = "branch-and-bound"


@dataclass(frozen=True)
class BoundResult:
    """An exact bound value with the level set that attains it."""

    value: int
    witness: tuple[int, ...]
    method: str


def sperner_bound(n: int) -> int:
    """Largest single binomial coefficient: C(n, floor(n/2))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return binomial(n, n // 2)


def erdos_bound(n: int, k: int) -> int:
    """Sum of the k+1 largest binomial coefficients of order n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return sum(binomial_row(n)[max((n - k) // 2, 0) : (n + k) // 2 + 1])


def katona_bound(n: int, k: int) -> int:
    """Sum of C(n, i) over levels i congruent to floor(n/2) mod k."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return sum(binomial_row(n)[n // 2 % k :: k])


def residue_class_weights(n: int, k: int) -> list[tuple[Fraction, int]]:
    """Total level weight of each residue class mod k, keyed by its centered offset.

    Classes are parametrized by the offset from n/2: the class through
    n/2 + offset, with offset normalized into (-k/2, k/2].  Offsets are
    half-integers when n is odd.  Returned sorted by offset.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    half_n = Fraction(n, 2)
    row = binomial_row(n)
    out = []
    for residue in range(k):
        offset = (residue - half_n) % k
        if offset > Fraction(k, 2):
            offset -= k
        out.append((offset, sum(row[residue::k])))
    out.sort(key=lambda item: item[0])
    return out


def ratio_window_weight(n: int, k: int, ratio: Fraction) -> int:
    """Sum of C(n, i) over integers i with k <= i < ratio * k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ratio = Fraction(ratio)
    if ratio <= 1:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    return sum(binomial_row(n)[k : min(_ratio_window_top(k, ratio), n) + 1])


def best_ratio_window(n: int, ratio: Fraction) -> tuple[int, int]:
    """Maximum of ratio_window_weight over k in [1, n], with the smallest argmax k."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ratio = Fraction(ratio)
    if ratio <= 1:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    prefix = list(accumulate(binomial_row(n), initial=0))
    best_value = -1
    best_k = 0
    for k in range(1, n + 1):
        value = prefix[min(_ratio_window_top(k, ratio), n) + 1] - prefix[k]
        if value > best_value:
            best_value = value
            best_k = k
    return best_value, best_k


def integer_ratio_levels(n: int, c: int) -> tuple[int, ...]:
    """The level window {k+1, ..., c(k+1)-1} with k = floor(n / (c+1)), clipped to [0, n]."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if c < 2:
        raise ValueError(f"c must be an integer >= 2, got {c}")
    k = n // (c + 1)
    return tuple(range(k + 1, min(c * (k + 1) - 1, n) + 1))


def size_bound(n: int, cond: Condition) -> BoundResult:
    """Largest total weight sum_{h in H} C(n, h) over level sets H allowed by cond.

    The witness is the lexicographically smallest maximizing level set,
    compared as an ascending sequence.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if isinstance(cond, Antichain):
        return _best_single_level(n)
    if isinstance(cond, ErdosWindow):
        return _best_contiguous_window(n, cond.k)
    if isinstance(cond, KatonaGap):
        return _best_gap_levels(n, cond.k)
    if isinstance(cond, (RatioLambda, IntegerRatio)):
        return _best_ratio_levels(n, cond.ratio)
    if isinstance(cond, CustomPairwise):
        return _branch_and_bound(n, cond)
    raise TypeError(f"not a condition: {cond!r}")


def _best_single_level(n: int) -> BoundResult:
    row = binomial_row(n)
    best_w = max(row)
    return BoundResult(best_w, (row.index(best_w),), METHOD_DP)


def _best_contiguous_window(n: int, k: int) -> BoundResult:
    # Any allowed level set spans at most k+1 consecutive levels, and filling
    # the whole window only adds weight, so scanning windows is exact.
    prefix = list(accumulate(binomial_row(n), initial=0))
    width = min(k, n)
    best_value = -1
    best_i = 0
    for i in range(n - width + 1):
        value = prefix[i + width + 1] - prefix[i]
        if value > best_value:
            best_value = value
            best_i = i
    return BoundResult(best_value, tuple(range(best_i, best_i + width + 1)), METHOD_DP)


def _best_gap_levels(n: int, k: int) -> BoundResult:
    # best[h] = largest weight of an allowed set whose minimum level is h.
    w = binomial_row(n)
    best = [0] * (n + 1)
    suffix_max = [0] * (n + 2)  # max of best[h..n]
    for h in range(n, -1, -1):
        tail = suffix_max[h + k] if h + k <= n else 0
        best[h] = w[h] + tail
        suffix_max[h] = max(best[h], suffix_max[h + 1])
    value = max(best)
    # Lexicographically smallest witness: smallest feasible level at each step.
    levels = []
    target = value
    h = 0
    while True:
        while best[h] != target:
            h += 1
        levels.append(h)
        target -= w[h]
        if target == 0:
            break
        h += k
    return BoundResult(value, tuple(levels), METHOD_DP)


def _ratio_window_top(k: int, ratio: Fraction) -> int:
    # Largest integer strictly below ratio * k.
    p, q = ratio.numerator, ratio.denominator
    return (p * k - 1) // q


def _best_ratio_levels(n: int, ratio: Fraction) -> BoundResult:
    # Level 0 conflicts with every other level, so the candidates are {0}
    # and, for each minimum level k >= 1, the full window [k, ratio*k).
    prefix = list(accumulate(binomial_row(n), initial=0))
    best_value = 1
    best_witness: tuple[int, ...] = (0,)
    for k in range(1, n + 1):
        top = min(_ratio_window_top(k, ratio), n)
        value = prefix[top + 1] - prefix[k]
        if value > best_value:
            best_value = value
            best_witness = tuple(range(k, top + 1))
    return BoundResult(best_value, best_witness, METHOD_DP)


def _clique_cover_bound(avail: int, conflicts: tuple[int, ...], w: list[int]) -> int:
    # Partition the available levels into cliques of pairwise-conflicting
    # levels; an allowed set takes at most one level from each clique.
    bound = 0
    rest = avail
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        clique_best = w[v]
        pool = rest & conflicts[v]
        while pool:
            u = (pool & -pool).bit_length() - 1
            rest &= ~(1 << u)
            if w[u] > clique_best:
                clique_best = w[u]
            pool &= conflicts[u] & ~(1 << u)
        bound += clique_best
    return bound


def _branch_and_bound(n: int, cond: Condition) -> BoundResult:
    conflicts = level_conflicts(cond, n)
    w = binomial_row(n)
    best_value = -1
    best_witness: tuple[int, ...] = ()

    # Levels are branched in ascending order with the include branch first,
    # so the first maximizer reached is the lexicographically smallest one
    # (weights are positive, hence no maximizer is a subset of another).
    def dfs(avail: int, weight: int, chosen: list[int]) -> None:
        nonlocal best_value, best_witness
        if weight + _clique_cover_bound(avail, conflicts, w) <= best_value:
            return
        if avail == 0:
            best_value = weight
            best_witness = tuple(chosen)
            return
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        chosen.append(h)
        dfs(rest & ~conflicts[h], weight + w[h], chosen)
        chosen.pop()
        dfs(rest, weight, chosen)

    dfs((1 << (n + 1)) - 1, 0, [])
    return BoundResult(best_value, best_witness, METHOD_BRANCH_AND_BOUND)
