"""Counting and maximizing nested ell-chains inside union-of-levels families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add, mul
from typing import Callable, Iterable, Sequence

# binomial is not called here; it stays bound because bench/tracing.py
# rebinds it on this module by name.
from .binom import binomial, binomial_row  # noqa: F401
from .conditions import (
    Antichain,
    Condition,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    level_conflicts,
    normalize_levels,
)
from .levelbounds import _clique_cover_bound, _gap_sums, size_bound

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The level-set search passed its node budget before finishing."""


@dataclass(frozen=True)
class ChainCountResult:
    """An exact ell-chain count with the level set that attains it."""

    count: int
    levels: tuple[int, ...]
    ell: int


def count_chains_levels(n: int, levels: Iterable[int], ell: int) -> int:
    """Number of ell-chains G_1 < ... < G_ell inside the union of the given levels of 2^[n].

    Computed over level sequences: u_1(h) = 1, u_j(h) = sum over lower chosen
    levels h' of C(h, h') * u_{j-1}(h'), and the total is
    sum_h C(n, h) * u_ell(h).  Returns 0 when fewer than ell levels are given.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    hs = normalize_levels(levels)
    if hs and hs[-1] > n:
        raise ValueError(f"levels must lie in [0, {n}], got {hs}")
    return _count_levels(n, hs, ell)


def _count_levels(n: int, hs: Sequence[int], ell: int) -> int:
    # Only the coefficients between the given ascending levels: at a few
    # levels of a large n, whole binomial rows cost more than they save.
    below = [[math.comb(h, lo) for lo in hs[:i]] for i, h in enumerate(hs)]
    return _count_from_sorted(below, [math.comb(n, h) for h in hs], ell)


def _count_from_sorted(below: list[Sequence[int]], top: Sequence[int], ell: int) -> int:
    # ell-chains in the union of levels h_0 < ... < h_{L-1} of 2^[n], given
    # below[i] = [C(h_i, h_0), ..., C(h_i, h_{i-1})] and top[i] = C(n, h_i).
    if len(top) < ell:
        return 0
    u = [1] * len(top)
    for _ in range(ell - 1):
        u = [sum(map(mul, row, u)) for row in below]
    return sum(map(mul, top, u))


def optimal_levels_for_chains(
    n: int,
    cond: Condition,
    ell: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ChainCountResult:
    """Exact maximum of count_chains_levels over all level sets allowed by cond.

    The witness is the lexicographically smallest maximizer (the empty set
    when no allowed set reaches a positive count).  At ell = 1 a level set's
    count is its weight, so this is size_bound's answer.  Antichain,
    ErdosWindow and the ratio conditions take one scan over windows of
    levels (see _best_window).  KatonaGap and custom tables at ell >= 2 are
    searched depth first on an explicit stack, ascending with the include
    branch first, so no input reaches the recursion limit; each node carries
    the chain counts of its chosen levels (see _include).  The root's
    _chain_bound is the target: 0 answers at once, and the search stops at
    the first leaf whose count meets it.  The first dive, from the root to
    the first leaf, takes no bound; after it a node dies when _chain_bound
    cannot beat the incumbent.  node_budget counts the nodes of that search
    as they are popped, the root as node 1, and it is the only search with
    any; past it SearchBudgetExceeded is raised.  Any other condition type
    raises TypeError.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    if ell == 1:
        bound = size_bound(n, cond)
        return ChainCountResult(bound.value, bound.witness, ell)
    conflicts = level_conflicts(cond, n)
    if isinstance(cond, KatonaGap):
        relax = partial(_gap_relax, cond.k)
        layer = partial(_gap_first_layer, cond.k)
    elif isinstance(cond, CustomPairwise):
        relax = partial(_clique_cover_bound, conflicts)
        layer = None
    elif isinstance(cond, (Antichain, ErdosWindow, RatioLambda, IntegerRatio)):
        relax = layer = None
    else:
        raise TypeError(f"not a condition: {cond!r}")
    if ell > n + 1:
        # A chain of distinct subsets of [n] has at most n + 1 members.
        return ChainCountResult(0, (), ell)
    rows = [binomial_row(h) for h in range(n + 1)]
    if relax is None:
        return _best_window(rows, conflicts, ell)
    first = layer(rows) if layer else None
    best_count = 0
    best_witness: tuple[int, ...] = ()
    nodes = 0
    target = 0
    dive = True
    # Include-first ascending branching reaches the leaves in lexicographic
    # order and the incumbent changes only on a strictly larger count, so
    # the first positive maximizer found is the lexicographically smallest
    # one; zero-count ties are settled by initializing the incumbent with
    # the empty set.  The root's bound is the target: no count exceeds it,
    # so a leaf that meets it ends the search, and a target of 0 ends it at
    # the root.  The nodes of the first dive, before the first leaf, take no
    # bound: with the incumbent at 0 it could prune only nodes bounded by 0.
    # A node is (avail, sums, total, chosen levels); the exclude child is
    # pushed below the include child, so nodes pop in depth-first order.
    stack = [((1 << (n + 1)) - 1, [[0] * (n + 1) for _ in range(ell - 1)], 0, ())]
    while stack:
        avail, sums, total, chosen = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"level search exceeded {node_budget} nodes at n={n}, ell={ell}"
            )
        if avail == 0:
            dive = False
            if total > best_count:
                best_count = total
                best_witness = chosen
                if total == target:
                    break
            continue
        if nodes == 1 or not dive:
            bound = _chain_bound(rows, conflicts, relax, first, sums, total, avail)
            if nodes == 1:
                target = bound
            if bound <= best_count:
                continue
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        stack.append((rest, sums, total, chosen))
        stack.append((rest & ~conflicts[h], *_include(rows, sums, total, h), (*chosen, h)))
    return ChainCountResult(best_count, best_witness, ell)


def _best_window(rows: list[list[int]], conflicts: tuple[int, ...], ell: int) -> ChainCountResult:
    # Under Antichain, ErdosWindow and the ratio conditions a pair a < b
    # conflicts iff b > top(a), and top never decreases, so the allowed sets
    # are exactly the subsets of the windows [m, top(m)].  top(m) is the
    # level below m's first conflict above it, or n if none.  In a level set
    # with an ell-chain every level lies on one, so adding a level adds
    # chains: every positive maximizer is a whole window, and the smallest m
    # wins ties.  Once top(m) = n every later window lies inside this one.
    n = len(rows) - 1
    best_count = 0
    best_witness: tuple[int, ...] = ()
    for m in range(n + 1):
        above = conflicts[m] >> (m + 1)
        top = m + (above & -above).bit_length() - 1 if above else n
        count = _count_window(rows, m, top, ell)
        if count > best_count:
            best_count = count
            best_witness = tuple(range(m, top + 1))
        if top == n:
            break
    return ChainCountResult(best_count, best_witness, ell)


def _count_window(rows: list[list[int]], lo: int, hi: int, ell: int) -> int:
    # ell-chains in the union of the levels lo..hi of 2^[n], n = len(rows) - 1.
    below = [rows[h][lo:h] for h in range(lo, hi + 1)]
    return _count_from_sorted(below, rows[-1][lo : hi + 1], ell)


def _include(
    rows: list[list[int]], sums: list[list[int]], total: int, h: int
) -> tuple[list[list[int]], int]:
    """The carried state after adding level h above every chosen level.

    The state of a chosen level set is (sums, total): total is its number of
    ell-chains and, for 1 <= j < ell, sums[j-1][x] = sum over chosen c of
    C(x, c) * u_j(c), exact for every level x above the chosen ones.  The new
    level's chain counts are u_1(h) = 1 and u_j(h) = sums[j-2][h], so an
    include costs O(ell * n) and a leaf needs no recount.
    """
    n = len(rows) - 1
    u = [1, *(s[h] for s in sums)]
    sums = [
        s[: h + 1] + [s[x] + rows[x][h] * uj for x in range(h + 1, n + 1)]
        for s, uj in zip(sums, u)
    ]
    return sums, total + rows[n][h] * u[-1]


def _chain_bound(
    rows: list[list[int]],
    conflicts: tuple[int, ...],
    relax: Callable[[list[int], int], int],
    first: list[Sequence[int]] | None,
    sums: list[list[int]],
    total: int,
    avail: int,
) -> int:
    """Upper bound on the ell-chains of chosen | S over allowed S within avail.

    For ell >= 2, with (sums, total) the state of the chosen levels (see
    _include), every level of avail above every chosen one and compatible
    with all of them: U_1(b) = 1, U_j(b) = sums[j-2][b] + relax(weights
    C(b, a) * U_{j-1}(a), levels of avail below b that do not conflict with
    b), and the bound is total + relax(weights C(n, b) * U_ell(b), avail).
    relax(w, mask) is at least the largest sum of nonnegative weights w over
    the pairwise compatible subsets of mask: exactly that for KatonaGap
    (_gap_relax), a clique cover for a custom table (_clique_cover_bound).
    first, which _gap_first_layer builds for KatonaGap, replaces the relax
    of U_2: with lo the lowest level of avail, first[lo][b] relaxes the
    weights C(b, a) over the levels of [lo, b) that do not conflict with b.
    For a custom table first is None and U_2 is relaxed at the node.

    Admissible: S is allowed, so the levels of S below b lie in b's relax
    mask and are pairwise compatible.  By induction on j, u_j(b) in
    chosen | S is sums[j-2][b] plus the sum over those levels a of
    C(b, a) * u_{j-1}(a) <= C(b, a) * U_{j-1}(a), hence at most U_j(b); the
    same argument over all of S with weights C(n, b) * U_ell(b) bounds the
    chains that end in S, and total counts those that end in chosen.  The
    table's mask for b holds b's relax mask, since avail lies in [lo, n];
    the largest allowed weight of a superset is no smaller, so U_2 stays an
    upper bound.  The KatonaGap searches keep avail one run of
    levels from lo (including lo removes a run above it, excluding lo
    removes lo), and there the two masks are equal.
    """
    if not avail:
        return total
    n = len(rows) - 1
    ubar = None  # U_1 = 1 everywhere
    if first is not None:
        ubar = list(map(add, sums[0], first[(avail & -avail).bit_length() - 1]))
        sums = sums[1:]
    levels = _bit_levels(avail) if sums else ()
    for s in sums:
        nxt = [0] * (n + 1)
        for b in levels:
            below = avail & ((1 << b) - 1) & ~conflicts[b]
            nxt[b] = s[b]
            if below:
                w = rows[b] if ubar is None else list(map(mul, rows[b], ubar))
                nxt[b] += relax(w, below)
        ubar = nxt
    return total + relax(list(map(mul, rows[n], ubar)), avail)


def _gap_relax(k: int, w: list[int], mask: int) -> int:
    # The conflict graph of KatonaGap(k) is a unit interval graph, so the
    # best allowed set is the last of the _gap_sums over the levels lo..hi
    # spanned by the mask.  The chain bound's masks are one run of levels,
    # so the pass reads w[lo:hi + 1]; a level inside the span but outside
    # the mask gets weight 0, and dropping a level of weight 0 from an
    # allowed set keeps it allowed, so the maximum is unchanged.
    low = mask & -mask
    lo = low.bit_length() - 1
    span = w[lo : mask.bit_length()]
    if mask & (mask + low):
        span = [x if mask >> h & 1 else 0 for h, x in enumerate(span, lo)]
    return _gap_sums(span, k)[-1]


def _gap_first_layer(k: int, rows: list[list[int]]) -> list[Sequence[int]]:
    # first[x][b] for KatonaGap(k): the levels compatible with b below it
    # are [0, b - k], so _gap_sums over C(b, b - k), ..., C(b, 0), read
    # backwards, gives the best allowed subset of [x, b - k] for every x and
    # then zeros, at most b + 1 values.
    n = len(rows) - 1
    columns = []
    for b, w in enumerate(rows):
        g = _gap_sums(w[b - k :: -1] if b >= k else (), k)
        g.reverse()
        columns.append(g + [0] * (n + 1 - len(g)))
    return list(zip(*columns))


def _bit_levels(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def window_chain_count(n: int, k: int, ell: int, i: int) -> int:
    """Number of ell-chains in the union of the k+1 consecutive levels {i, ..., i+k}."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not 0 <= i <= n - k:
        raise ValueError(f"need 0 <= i <= n - k, got i={i}, n={n}, k={k}")
    if not 1 <= ell <= k + 1:
        raise ValueError(f"need 1 <= ell <= k + 1, got ell={ell}")
    return _count_levels(n, range(i, i + k + 1), ell)


def best_window_for_chains(n: int, k: int, ell: int) -> tuple[int, tuple[int, ...]]:
    """Maximum of window_chain_count over all window positions, with every argmax.

    Returns (count, positions) where positions lists each window start i
    attaining the maximum, in ascending order.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= ell <= k + 1:
        raise ValueError(f"need 1 <= ell <= k + 1, got ell={ell}")
    rows = [binomial_row(h) for h in range(n + 1)]
    best_count = -1
    argmax: list[int] = []
    for i in range(n - k + 1):
        count = _count_window(rows, i, i + k, ell)
        if count > best_count:
            best_count = count
            argmax = [i]
        elif count == best_count:
            argmax.append(i)
    return best_count, tuple(argmax)
