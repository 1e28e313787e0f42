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
from functools import partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Sequence

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

# first[x][b] of the chain bound's first layer; see _relaxation.
SuffixTable = list[Sequence[int]]


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
    top = (ratio.numerator * k - 1) // ratio.denominator
    return sum(binomial_row(n)[k : min(top, n) + 1])


def best_ratio_window(n: int, ratio: Fraction) -> tuple[int, int]:
    """Maximum of ratio_window_weight over k in [1, n], with the smallest argmax k."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ratio = Fraction(ratio)
    if ratio <= 1:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    value, k, _ = _ratio_scan(n, ratio.numerator, ratio.denominator)
    return value, k


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
    compared as an ascending sequence.  The named conditions have exact
    optimizers; a custom table is solved by branch and bound in two phases.
    The first finds the optimum, branching on the heaviest levels first and
    pruning with a clique cover.  The second builds the witness one level at
    a time in ascending order, taking a level iff the same search over the
    compatible levels above it still completes the optimum.
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
    # A gap past n allows a single level, as k does, so step = min(k, n + 1)
    # keeps every read of suffix_max inside the list.
    w = binomial_row(n)
    step = min(k, n + 1)
    best = [0] * (n + 1)
    suffix_max = [0] * (n + 1 + step)  # max of best[h..n], 0 past n
    for h in range(n, -1, -1):
        take = best[h] = w[h] + suffix_max[h + step]
        skip = suffix_max[h + 1]
        suffix_max[h] = take if take > skip else skip
    value = suffix_max[0]
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


def _ratio_scan(n: int, p: int, q: int) -> tuple[int, int, int]:
    """(value, k, top): the heaviest window [k, top] of levels with top the
    largest integer below (p/q) k, clipped to n, over k in [1, n]; the
    smallest such k.  (-1, 0, 0) when n = 0.

    top never decreases with k, so once it reaches n every later window is
    a strict suffix of [k, n], lighter by at least one binomial, and the
    scan stops.
    """
    prefix = list(accumulate(binomial_row(n), initial=0))
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


def _relaxation(
    cond: Condition, conflicts: tuple[int, ...]
) -> tuple[Callable[[list[int], int], int], Callable[[list[list[int]]], SuffixTable | None]]:
    """(relax, tables) for the chain search's bound.

    relax(w, mask) is the largest sum of w over allowed subsets of the levels
    in mask: exact for the named conditions and nonnegative w; a custom table
    gets the clique cover, which is at least that maximum.  tables(rows)
    builds the bound's state-free first layer from the binomial rows:
    first[x][b] = relax(rows[b], levels of [x, b) compatible with b) for
    every x and b, or None for a custom table, whose search needs the relax
    of every node's own mask.  The condition type is resolved here, once, so
    the returned functions do no dispatch.
    """
    if isinstance(cond, CustomPairwise):
        return (lambda w, mask: _clique_cover_bound(mask, conflicts, w)), lambda rows: None
    if isinstance(cond, KatonaGap):
        return _gap_relaxation(cond.k), partial(_gap_suffix_tables, cond.k)
    if isinstance(cond, (Antichain, ErdosWindow, RatioLambda, IntegerRatio)):
        return _window_relaxation(conflicts), partial(_window_suffix_tables, conflicts)
    raise TypeError(f"not a condition: {cond!r}")


def _gap_relaxation(k: int) -> Callable[[list[int], int], int]:
    # The conflict graph of KatonaGap(k) is a unit interval graph, so the
    # best allowed set is one pass over the levels lo..hi spanned by the
    # mask: f[i] is the best over the first i - k + 1 of them (k leading
    # zeros), f[i] = max(f[i - 1], w'[i] + f[i - k]).  The chain bound's masks
    # are one run of levels, so w' is w[lo:hi + 1]; a level inside the span
    # but outside the mask gets weight 0, and dropping a level of weight 0
    # from an allowed set keeps it allowed, so the maximum is unchanged.
    def relax(w: list[int], mask: int) -> int:
        low = mask & -mask
        lo = low.bit_length() - 1
        span = w[lo : mask.bit_length()]
        if mask & (mask + low):
            span = [x if mask >> h & 1 else 0 for h, x in enumerate(span, lo)]
        f = [0] * k
        for x in span:
            skip = f[-1]
            take = x + f[-k]
            f.append(take if take > skip else skip)
        return f[-1]

    return relax


def _gap_suffix_tables(k: int, rows: list[list[int]]) -> SuffixTable:
    # The levels compatible with b below it are [0, b - k], so for each b one
    # backward pass g[x] = max(g[x + 1], C(b, x) + g[x + k]) gives the best
    # allowed subset of [x, b - k] for every x; g is 0 past b - k.
    n = len(rows) - 1
    columns = []
    for b, w in enumerate(rows):
        g = [0] * (n + 1)
        for x in range(b - k, -1, -1):
            skip = g[x + 1]
            take = w[x] + g[x + k]
            g[x] = take if take > skip else skip
        columns.append(g)
    return list(zip(*columns))


def _window_relaxation(conflicts: tuple[int, ...]) -> Callable[[list[int], int], int]:
    # Under Antichain, ErdosWindow and the ratio conditions a pair a < b
    # conflicts iff b > top(a), and top never decreases (top(a) is a, a + k or
    # floor((p*a - 1) / q), and 0 for level 0 under a ratio; it is read off
    # the conflict masks below, clipped to the last level).  A set is then
    # allowed iff its maximum is at most top(its minimum), so the mask levels
    # whose top reaches the newest level h form an allowed window, and the
    # best set with minimum m lies inside the window at the last level
    # <= top(m).  The tail pointer t drops the window's levels whose top
    # falls below h; top(h) >= h keeps it at or below h.
    last = len(conflicts) - 1
    tops = []
    for a, mask in enumerate(conflicts):
        above = mask >> (a + 1)
        tops.append(a + (above & -above).bit_length() - 1 if above else last)

    def relax(w: list[int], mask: int) -> int:
        tail = mask
        t = (tail & -tail).bit_length() - 1
        reach = tops[t]
        if mask.bit_length() - 1 <= reach:
            # The whole mask is allowed, as the chain bound's masks below a
            # level mostly are: its weight is the answer.
            window = 0
            while mask:
                low = mask & -mask
                mask ^= low
                window += w[low.bit_length() - 1]
            return window
        window = top = 0
        while mask:
            low = mask & -mask
            mask ^= low
            h = low.bit_length() - 1
            while reach < h:
                window -= w[t]
                tail &= tail - 1
                t = (tail & -tail).bit_length() - 1
                reach = tops[t]
            window += w[h]
            if window > top:
                top = window
        return top

    return relax


def _window_suffix_tables(conflicts: tuple[int, ...], rows: list[list[int]]) -> SuffixTable:
    # The levels compatible with b below it are those whose top reaches b: a
    # run [s, b - 1], allowed as a whole (see _window_relaxation), so the best
    # allowed subset of [x, b) is the sum of that run from max(x, s) up.
    n = len(rows) - 1
    columns = []
    for b, w in enumerate(rows):
        below = ~conflicts[b] & ((1 << b) - 1)
        if not below:
            columns.append([0] * (n + 1))
            continue
        s = (below & -below).bit_length() - 1
        suffix = list(accumulate(reversed(w[s:b])))
        suffix.reverse()
        columns.append([suffix[0]] * s + suffix + [0] * (n + 1 - b))
    return list(zip(*columns))


def _branch_and_bound(n: int, cond: Condition) -> BoundResult:
    conflicts = level_conflicts(cond, n)
    row = binomial_row(n)
    # Relabel: bit i stands for level order[i], heaviest first (ties by
    # level), so the search decides the heavy levels first and each greedy
    # clique of the cover starts from its heaviest level.  A conflict mask is
    # permuted through its binary digits: character n - g of the padded
    # string is level g, and the new mask is read most significant bit first.
    order = sorted(range(n + 1), key=lambda h: (-row[h], h))
    pos = [0] * (n + 1)
    for i, h in enumerate(order):
        pos[h] = i
    w = [row[h] for h in order]
    digits = itemgetter(*[n - h for h in reversed(order)])
    masks = [int("".join(digits(format(conflicts[h], f"0{n + 1}b"))), 2) for h in order]

    def best(avail: int, floor: int) -> int:
        # Largest weight of an allowed subset of avail if it exceeds floor,
        # else floor: an include-first DFS pruned by the clique cover.
        top = floor

        def dfs(avail: int, weight: int) -> None:
            nonlocal top
            if weight + _clique_cover_bound(avail, masks, w) <= top:
                return
            if avail == 0:
                top = weight
                return
            low = avail & -avail
            i = low.bit_length() - 1
            rest = avail ^ low
            dfs(rest & ~masks[i], weight + w[i])
            dfs(rest, weight)

        try:
            dfs(avail, 0)
        finally:
            # dfs reaches itself through its closure; breaking that cycle
            # frees it at return, not at the next full collection.
            del dfs
        return top

    # Phase 1 finds the optimum.  Phase 2 builds the lexicographically
    # smallest maximizer, compared as an ascending sequence: walking the
    # levels upwards, it takes level h iff the allowed levels above h that
    # are compatible with the chosen ones and with h still complete the
    # optimum.  Since value is the maximum, no available level outweighs need.
    avail = (1 << (n + 1)) - 1
    value = need = best(avail, -1)
    witness = []
    for h in range(n + 1):
        if need == 0:
            break
        if not avail >> pos[h] & 1:
            continue
        avail ^= 1 << pos[h]
        rest = avail & ~masks[pos[h]]
        if best(rest, need - row[h] - 1) >= need - row[h]:
            witness.append(h)
            need -= row[h]
            avail = rest
    return BoundResult(value, tuple(witness), METHOD_BRANCH_AND_BOUND)
