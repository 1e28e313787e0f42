"""Counting and maximizing nested ell-chains inside union-of-levels families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Iterable, Sequence

# binomial is not called here; it stays bound because bench/tracing.py
# rebinds it on this module by name.
from .binom import binomial, binomial_row  # noqa: F401
from .conditions import Condition, level_conflicts, normalize_levels
from .levelbounds import SuffixTable, _relaxation

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
    when no allowed set reaches a positive count).  Depth-first enumeration
    over levels, ascending with the include branch first.  Each node carries
    the chain counts of its chosen levels (see _include) and dies when
    _chain_bound cannot beat the incumbent.  The bound relaxes the condition
    level by level with levelbounds._relaxation, the exact maximum weight of
    an allowed subset for the named conditions (a clique cover for a custom
    table); its first layer does not depend on the node and is built once per
    search.
    Raises SearchBudgetExceeded after node_budget search nodes.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    conflicts = level_conflicts(cond, n)
    if ell > n + 1:
        # A chain of distinct subsets of [n] has at most n + 1 members.
        return ChainCountResult(0, (), ell)
    relax, tables = _relaxation(cond, conflicts)
    rows = [binomial_row(h) for h in range(n + 1)]
    # The first layer is read only when there are chains to extend.
    first = tables(rows) if ell > 1 else None
    best_count = 0
    best_witness: tuple[int, ...] = ()
    nodes = 0

    # Include-first ascending branching makes the first positive maximizer
    # found the lexicographically smallest one; zero-count ties are settled
    # by initializing the incumbent with the empty set.  A leaf's bound is its
    # count, so a leaf that survives the bound test beats the incumbent.
    def dfs(avail: int, sums: list[list[int]], total: int, chosen: list[int]) -> None:
        nonlocal best_count, best_witness, nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"level search exceeded {node_budget} nodes at n={n}, ell={ell}"
            )
        if _chain_bound(rows, conflicts, relax, first, sums, total, avail) <= best_count:
            return
        if avail == 0:
            best_count = total
            best_witness = tuple(chosen)
            return
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        chosen.append(h)
        dfs(rest & ~conflicts[h], *_include(rows, sums, total, h), chosen)
        chosen.pop()
        dfs(rest, sums, total, chosen)

    try:
        dfs((1 << (n + 1)) - 1, [[0] * (n + 1) for _ in range(ell - 1)], 0, [])
    finally:
        # dfs reaches itself through its closure; breaking that cycle frees
        # the rows and the first-layer table now, not at a full collection.
        del dfs
    return ChainCountResult(best_count, best_witness, ell)


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
    first: SuffixTable | None,
    sums: list[list[int]],
    total: int,
    avail: int,
) -> int:
    """Upper bound on the ell-chains of chosen | S over allowed S within avail.

    With (sums, total) the state of the chosen levels (see _include), every
    level of avail above every chosen one and compatible with all of them:
    U_1(b) = 1, U_j(b) = sums[j-2][b] + relax(weights C(b, a) * U_{j-1}(a),
    levels of avail below b that do not conflict with b), and the bound is
    total + relax(weights C(n, b) * U_ell(b), avail).  relax is
    levelbounds._relaxation, which is at least the weight of every pairwise
    compatible subset of its mask for nonnegative weights: exactly the
    largest such weight for the named conditions, a clique cover for a
    custom table.  first, the table _relaxation builds for a named
    condition, replaces the relax of U_2: with lo the lowest level of avail,
    first[lo][b] relaxes the weights C(b, a) over the levels of [lo, b)
    that do not conflict with b.  For a custom table first is None and U_2
    is relaxed at the node.

    Admissible: S is allowed, so the levels of S below b lie in b's relax
    mask and are pairwise compatible.  By induction on j, u_j(b) in
    chosen | S is sums[j-2][b] plus the sum over those levels a of
    C(b, a) * u_{j-1}(a) <= C(b, a) * U_{j-1}(a), hence at most U_j(b); the
    same argument over all of S with weights C(n, b) * U_ell(b) bounds the
    chains that end in S, and total counts those that end in chosen.  The
    table's mask for b holds b's relax mask, since avail lies in [lo, n];
    the largest allowed weight of a superset is no smaller, so U_2 stays an
    upper bound.  The named conditions' searches keep avail one run of
    levels from lo (including lo removes a run above it, excluding lo
    removes lo), and there the two masks are equal.
    """
    if not avail:
        return total
    n = len(rows) - 1
    ubar = None  # U_1 = 1 everywhere
    if first is not None and sums:
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
    top = rows[n] if ubar is None else list(map(mul, rows[n], ubar))
    return total + relax(top, avail)


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
        below = [rows[h][i:h] for h in range(i, i + k + 1)]
        count = _count_from_sorted(below, rows[n][i : i + k + 1], ell)
        if count > best_count:
            best_count = count
            argmax = [i]
        elif count == best_count:
            argmax.append(i)
    return best_count, tuple(argmax)
