"""Maximum total binomial weight of allowed level sets, plus closed forms.

A family built as a union of full levels H has size sum_{h in H} C(n, h).
For a pairwise size condition the largest such weight over allowed H is an
upper bound on the size of any family satisfying the condition, and the
optimizers here compute it exactly together with a witness level set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .binom import _row, binomial
from .conditions import (
    Antichain,
    Condition,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    _require_ints,
    _table_masks,
)

# level_conflicts is not used here; it stays bound because bench/tracing.py
# reads it on this module by name.
from .conditions import level_conflicts  # noqa: F401

METHOD_DP = "dp"
METHOD_BRANCH_AND_BOUND = "branch-and-bound"
DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The level search passed its node budget; defined here, which every CLI command loads."""


@dataclass(frozen=True)
class BoundResult:
    """An exact bound value with the level set that attains it."""

    value: int
    witness: tuple[int, ...]
    method: str


def sperner_bound(n: int) -> int:
    """Largest single binomial coefficient: C(n, floor(n/2))."""
    _require_ints(n=(n, 0))
    return binomial(n, n // 2)


def erdos_bound(n: int, k: int) -> int:
    """Sum of the k+1 largest binomial coefficients of order n."""
    _require_ints(n=(n, 0), k=(k, 1))
    # The window [lo, hi] of the k+1 middle levels, clipped to [0, n]: one
    # C(n, lo), then C(n, h+1) = C(n, h)(n-h)/(h+1) up to hi.
    lo = max((n - k) // 2, 0)
    c = total = math.comb(n, lo)
    for h in range(lo, min((n + k) // 2, n)):
        c = c * (n - h) // (h + 1)
        total += c
    return total


def katona_bound(n: int, k: int) -> int:
    """Sum of C(n, i) over levels i congruent to floor(n/2) mod k."""
    _require_ints(n=(n, 0), k=(k, 1))
    return sum(_row(n)[n // 2 % k :: k])


def residue_class_weights(n: int, k: int) -> list[tuple[Fraction, int]]:
    """Total level weight of each residue class mod k, keyed by its centered offset.

    Classes are parametrized by the offset from n/2: the class through
    n/2 + offset, with offset normalized into (-k/2, k/2].  Offsets are
    half-integers when n is odd.  Returned sorted by offset.
    """
    _require_ints(n=(n, 0), k=(k, 2))
    half_n = Fraction(n, 2)
    row = _row(n)
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
    _require_ints(n=(n, None), k=(k, None))
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ratio = RatioLambda(ratio).ratio
    top = (ratio.numerator * k - 1) // ratio.denominator
    return sum(_row(n)[k : min(top, n) + 1])


def best_ratio_window(n: int, ratio: Fraction) -> tuple[int, int]:
    """Maximum of ratio_window_weight over k in [1, n], with the smallest argmax k."""
    _require_ints(n=(n, 1))
    ratio = RatioLambda(ratio).ratio
    value, k, _ = _ratio_scan(n, ratio.numerator, ratio.denominator)
    return value, k


def integer_ratio_levels(n: int, c: int) -> tuple[int, ...]:
    """The level window {k+1, ..., c(k+1)-1} with k = floor(n / (c+1)), clipped to [0, n]."""
    _require_ints(n=(n, 0), c=(c, 2))
    k = n // (c + 1)
    return tuple(range(k + 1, min(c * (k + 1) - 1, n) + 1))


def size_bound(n: int, cond: Condition, *, node_budget: int | None = None) -> BoundResult:
    """Largest total weight sum_{h in H} C(n, h) over level sets H allowed by cond.

    The witness is the lexicographically smallest maximizing level set,
    compared as an ascending sequence.  The named conditions have exact
    optimizers.  A custom table is solved by one branch and bound over the
    levels, heaviest first, pruned with a clique cover (_search_levels);
    level h weighs C(n, h) << (n + 1) | 1 << (n - h), whose low bits break
    ties towards the lexicographically smallest set and spell its levels.
    node_budget counts the nodes of that search, the root as node 1; past
    it SearchBudgetExceeded is raised.  None stands for DEFAULT_NODE_BUDGET,
    read at call time; the named optimizers do not search and ignore it.
    """
    _require_ints(n=(n, 0))
    if isinstance(cond, Antichain):
        return _best_single_level(n)
    if isinstance(cond, ErdosWindow):
        return _best_contiguous_window(n, cond.k)
    if isinstance(cond, KatonaGap):
        return _best_gap_levels(n, cond.k)
    if isinstance(cond, (RatioLambda, IntegerRatio)):
        return _best_ratio_levels(n, cond.ratio)
    if isinstance(cond, CustomPairwise):
        budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
        return _branch_and_bound(n, cond, budget)
    raise TypeError(f"not a condition: {cond!r}")


def _best_single_level(n: int) -> BoundResult:
    row = _row(n)
    best_w = max(row)
    return BoundResult(best_w, (row.index(best_w),), METHOD_DP)


def _best_contiguous_window(n: int, k: int) -> BoundResult:
    # Any allowed level set spans at most k+1 consecutive levels, and filling
    # the whole window only adds weight, so scanning windows is exact.
    prefix = list(accumulate(_row(n), initial=0))
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
    # g[x] is the largest weight of an allowed subset of [x, n], followed by
    # step zeros, so best[h] = w[h] + g[h + step] is the largest weight of
    # an allowed set with minimum level h.
    w = _row(n)
    g = _gap_sums(w[::-1], k)
    g.reverse()
    step = len(g) - (n + 1)
    # Lexicographically smallest witness: smallest feasible level at each step.
    levels = []
    target = g[0]
    h = 0
    while target:
        while w[h] + g[h + step] != target:
            h += 1
        levels.append(h)
        target -= w[h]
        h += step
    return BoundResult(g[0], tuple(levels), METHOD_DP)


def _gap_sums(w: Sequence[int], k: int) -> list[int]:
    """Largest sums of w over levels at least k apart, one prefix at a time.

    With s = min(k, len(w) + 1), the list holds s zeros and then f(i), the
    largest sum over levels in [0, i], for each i: f(i) = max(f(i - 1),
    w[i] + f(i - k)).  A gap past the span allows one level, as k does, so
    the clamp keeps the list short for any k.  Fed w reversed and read
    backwards, it is the suffix recurrence g[x] = max(g[x + 1],
    w[x] + g[x + k]) followed by s zeros.
    """
    back = -min(k, len(w) + 1)
    f = [0] * -back
    best = 0
    for x in w:
        take = x + f[back]
        if take > best:
            best = take
        f.append(best)
    return f


def _ratio_scan(n: int, p: int, q: int) -> tuple[int, int, int]:
    """(value, k, top): the heaviest window [k, top] of levels with top the
    largest integer below (p/q) k, clipped to n, over k in [1, n]; the
    smallest such k.  (-1, 0, 0) when n = 0.

    top never decreases with k, so once it reaches n every later window is
    a strict suffix of [k, n], lighter by at least one binomial, and the
    scan stops.
    """
    prefix = list(accumulate(_row(n), initial=0))
    best_value = -1
    best_k = best_top = 0
    for k in range(1, n + 1):
        top = (p * k - 1) // q
        if top >= n:
            value = prefix[n + 1] - prefix[k]
            if value > best_value:
                return value, k, n
            break
        value = prefix[top + 1] - prefix[k]
        if value > best_value:
            best_value = value
            best_k = k
            best_top = top
    return best_value, best_k, best_top


def _best_ratio_levels(n: int, ratio: Fraction) -> BoundResult:
    # Level 0 conflicts with every other level, so the candidates are {0}
    # and, for each minimum level k >= 1, the full window [k, ratio*k); {0}
    # wins ties, so it stands unless a window weighs more than 1.
    value, k, top = _ratio_scan(n, ratio.numerator, ratio.denominator)
    if value <= 1:
        return BoundResult(1, (0,), METHOD_DP)
    return BoundResult(value, tuple(range(k, top + 1)), METHOD_DP)


def _clique_cover_bound(conflicts: Sequence[int], w: list[int], avail: int) -> int:
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


def _search_levels(
    n: int, conflicts: Sequence[int], state, include: Callable, node_bound: Callable,
    node_budget: int,
) -> tuple[int, tuple[int, ...]]:
    """The largest total of a level set of [0, n] allowed by conflicts, with the set.

    Depth first on an explicit stack (no recursion limit), ascending,
    include branch first.  A node is (avail, state, total, chosen, bound):
    include(state, total, i) gives the state and total of chosen plus level
    i, and node_bound(state, total, avail) bounds every allowed extension
    within avail; bound is the nearest bounded ancestor's.  The root's
    bound is the target: the search stops at the first leaf meeting it.
    The first dive takes no bound (with the incumbent at 0 it could prune
    only nodes bounded by 0); after it a node dies when the inherited
    bound, and else its own, cannot beat the incumbent.  Leaves come in
    lexicographic order and the incumbent changes only on a strictly larger
    total, so the set is the lexicographically smallest maximizer, () if no
    total is positive.  node_budget counts nodes as they are popped, the
    root as node 1; past it SearchBudgetExceeded is raised.
    """
    best = 0
    best_chosen: tuple[int, ...] = ()
    nodes = 0
    dive = True
    avail = (1 << (n + 1)) - 1
    target = node_bound(state, 0, avail)
    stack = [(avail, state, 0, (), target)]
    while stack:
        avail, state, total, chosen, bound = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"level search exceeded {node_budget} nodes at n={n}")
        if bound <= best:
            continue
        if avail == 0:
            dive = False
            if total > best:
                best = total
                best_chosen = chosen
                if total == target:
                    break
            continue
        if not dive:
            bound = node_bound(state, total, avail)
            if bound <= best:
                continue
        i = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << i)
        stack.append((rest, state, total, chosen, bound))
        stack.append((rest & ~conflicts[i], *include(state, total, i), (*chosen, i), bound))
    return best, best_chosen


def _branch_and_bound(n: int, cond: CustomPairwise, node_budget: int) -> BoundResult:
    # Level h weighs C(n, h) << (n + 1) | 1 << (n - h): the low bits add
    # without carry and spell the set's levels, and of two sets of equal
    # binomial weight (neither holds the other) the one holding the smallest
    # level in which they differ weighs more.  So the heaviest allowed set
    # is the lexicographically smallest maximizer, as an ascending sequence.
    weight = [c << (n + 1) | 1 << (n - h) for h, c in enumerate(_row(n))]
    # Relabel: bit i stands for level order[i], heaviest first (ties by
    # level), so the search decides the heavy levels first and each greedy
    # clique of the cover starts from its heaviest level.  The table's
    # masks are compiled straight into these labels, in one pass.
    order = sorted(range(n + 1), key=weight.__getitem__, reverse=True)
    label = [0] * (n + 1)
    for i, h in enumerate(order):
        label[h] = i
    masks = _table_masks(cond, label)
    w = [weight[h] for h in order]
    top, _ = _search_levels(
        n, masks, None, lambda _, total, i: (None, total + w[i]),
        lambda _, total, avail: total + _clique_cover_bound(masks, w, avail), node_budget,
    )
    witness = tuple(h for h in range(n + 1) if top >> (n - h) & 1)
    return BoundResult(top >> (n + 1), witness, METHOD_BRANCH_AND_BOUND)
