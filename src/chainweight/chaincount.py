"""Counting and maximizing nested ell-chains inside union-of-levels families."""

from __future__ import annotations

import math
from functools import partial
from operator import add, mul
from typing import Iterable, Sequence

# binomial and SearchBudgetExceeded are not used here; they stay bound
# because bench/tracing.py reads them on this module by name.
from .binom import binomial, binomial_row  # noqa: F401
from .conditions import Condition, _require_ints, level_conflicts, level_shape, normalize_levels
from .levelbounds import SearchBudgetExceeded  # noqa: F401
from .levelbounds import DEFAULT_NODE_BUDGET, _clique_cover_bound, _gap_sums, _search_levels
from .levelbounds import size_bound
from .record import Record


class ChainCountResult(Record):
    """An exact ell-chain count with the level set that attains it."""

    _fields = ("count", "levels", "ell")

    def __init__(self, count: int, levels: tuple[int, ...], ell: int) -> None:
        self.__dict__["count"] = count
        self.__dict__["levels"] = levels
        self.__dict__["ell"] = ell


def count_chains_levels(n: int, levels: Iterable[int], ell: int) -> int:
    """Number of ell-chains G_1 < ... < G_ell inside the union of the given levels of 2^[n].

    Computed over level sequences: u_1(h) = 1, u_j(h) = sum over lower chosen
    levels h' of C(h, h') * u_{j-1}(h'), and the total is
    sum_h C(n, h) * u_ell(h).  Returns 0 when fewer than ell levels are given.
    """
    _require_ints(n=(n, 0), ell=(ell, 1))
    hs = normalize_levels(levels)
    if hs and hs[-1] > n:
        raise ValueError(f"levels must lie in [0, {n}], got {hs}")
    return _count_levels(n, hs, ell)


def _count_levels(n: int, hs: Sequence[int], ell: int) -> int:
    # ell-chains in the union of the ascending levels hs of 2^[n], over only
    # the coefficients between them: at a few levels of a large n, whole
    # binomial rows cost more than they save.
    if len(hs) < ell:
        return 0
    below = [[math.comb(h, lo) for lo in hs[:i]] for i, h in enumerate(hs)]
    u = [1] * len(hs)
    for _ in range(ell - 1):
        u = [sum(map(mul, row, u)) for row in below]
    return sum(math.comb(n, h) * x for h, x in zip(hs, u))


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
    count is its weight, so this is size_bound's answer, its custom-table
    search under node_budget.  At ell >= 2 a window level_shape takes one
    scan over windows of levels (see _best_windows), and a gap (KatonaGap)
    or a custom table takes the level search of levelbounds._search_levels,
    its total the chain count: each node carries the chain counts of its
    chosen levels (see _include) and is bounded by _gap_bound for KatonaGap
    and _chain_bound for a custom table.  node_budget counts the nodes of
    either search, the root as node 1; past it SearchBudgetExceeded is
    raised.  Any other type raises TypeError.
    """
    _require_ints(n=(n, 0), ell=(ell, 1))
    if ell == 1:
        bound = size_bound(n, cond, node_budget=node_budget)
        return ChainCountResult(bound.value, bound.witness, ell)
    kind, shape = level_shape(cond, n)
    if ell > n + 1:
        # A chain of distinct subsets of [n] has at most n + 1 members.
        return ChainCountResult(0, (), ell)
    if kind == "window":
        count, starts = _best_windows(n, shape, ell)
        m = starts[0]
        return ChainCountResult(count, tuple(range(m, shape[m] + 1)) if count else (), ell)
    rows = [binomial_row(h) for h in range(n + 1)]
    conflicts = shape if kind == "table" else level_conflicts(cond, n)
    if kind == "gap":
        node_bound = partial(_gap_bound, shape, rows, _gap_first_layer(shape, rows))
    else:
        node_bound = partial(_chain_bound, rows, conflicts)
    sums = [[0] * (n + 1) for _ in range(ell - 1)]
    found = _search_levels(n, conflicts, sums, partial(_include, rows), node_bound, node_budget)
    return ChainCountResult(*found, ell)


def _best_windows(n: int, tops: Sequence[int], ell: int) -> tuple[int, tuple[int, ...]]:
    # The largest ell-chain count over the windows [m, tops[m]] of 2^[n], and
    # every m attaining it.  Under a window shape a < b conflict iff
    # b > tops[a], tops nondecreasing, so the allowed sets are the subsets of
    # these windows and adding a level adds chains: each positive maximizer
    # is a whole window, and once tops[m] = n later windows lie inside it.
    #
    # Inside a window every level between two members of a chain is allowed,
    # so an ell-chain is a pair A_1 <= A_ell of sizes a <= b with an ordered
    # partition of A_ell - A_1 into r = ell - 1 nonempty blocks:
    #   count([m, t]) = sum over m <= a <= b <= t of C(n, b) C(b, a) surj(b - a, r).
    # The scan slides [m, t].  Dropping level a subtracts the terms with that
    # a, C(n, a) C(n - a, d) surj(d, r) with d = b - a (as C(n, b) C(b, a) =
    # C(n, a) C(n - a, b - a)); raising t adds the terms b = t,
    # C(n, t) C(t, d) surj(d, r) with d = t - a.  Each sum skips the d with
    # surj(d, r) = 0 (d < r, or d > 0 = r), stepping C(., d) multiplicatively.
    stop = tops.index(n)
    width = max(t - m for m, t in enumerate(tops[: stop + 1]))
    r = ell - 1
    surj = _surjections(width, r)
    top = binomial_row(n)
    best_count = -1
    starts: list[int] = []
    count = 0
    t = -1
    for m in range(stop + 1):
        if m:
            a = m - 1
            c = math.comb(n - a, r)
            terms = 0
            for d in range(r, (t - a if r else 0) + 1):
                terms += c * surj[d]
                c = c * (n - a - d) // (d + 1)
            count -= top[a] * terms
        while t < tops[m]:
            t += 1
            c = math.comb(t, r)
            terms = 0
            for d in range(r, (t - m if r else 0) + 1):
                terms += c * surj[d]
                c = c * (t - d) // (d + 1)
            count += top[t] * terms
        if count > best_count:
            best_count = count
            starts = [m]
        elif count == best_count:
            starts.append(m)
    return best_count, tuple(starts)


def _surjections(width: int, r: int) -> list[int]:
    # surj(d, r) for d = 0..width, the surjections of a d-set onto an r-set,
    # by surj(d, j) = j * (surj(d - 1, j - 1) + surj(d - 1, j)).
    row = [1] + [0] * width
    for j in range(1, r + 1):
        prev, row = row, [0] * (width + 1)
        for d in range(j, width + 1):
            row[d] = j * (prev[d - 1] + row[d - 1])
    return row


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
    relax(w, mask), at least the largest weight of a pairwise compatible
    subset of mask, is the clique cover here, exact in _gap_bound.

    Admissible: S is allowed, so the levels of S below b lie in b's relax
    mask and are pairwise compatible.  By induction on j, u_j(b) in
    chosen | S is sums[j-2][b] plus the sum over those levels a of
    C(b, a) * u_{j-1}(a) <= C(b, a) * U_{j-1}(a), hence at most U_j(b); the
    same argument over all of S with weights C(n, b) * U_ell(b) bounds the
    chains that end in S, and total counts those that end in chosen.
    """
    n = len(rows) - 1
    levels = [b for b in range(n + 1) if avail >> b & 1]
    ubar = [1] * (n + 1)
    for s in sums:
        nxt = [0] * (n + 1)
        for b in levels:
            below = avail & ((1 << b) - 1) & ~conflicts[b]
            nxt[b] = s[b] + _clique_cover_bound(conflicts, list(map(mul, rows[b], ubar)), below)
        ubar = nxt
    return total + _clique_cover_bound(conflicts, list(map(mul, rows[n], ubar)), avail)


def _gap_bound(
    k: int,
    rows: list[list[int]],
    first: list[Sequence[int]],
    sums: list[list[int]],
    total: int,
    avail: int,
) -> int:
    """_chain_bound for KatonaGap(k) on the run [lo, n], lo the lowest level of avail != 0.

    Its conflict graph is a unit interval graph, so relax is exact: the last
    value of the gap recurrence f(i) = max(f(i - 1), w[i] + f(i - k)) over
    [lo, b - k], the levels of [lo, n] below b that do not conflict with b.
    U_2 comes from the table first; each later U_j(b) takes one such pass.
    The KatonaGap searches keep avail that run (including lo removes a run
    above it, excluding lo removes lo); a run holding avail stays admissible.

    Never above the parent node's bound, so inheriting it prunes exactly
    where a node's own bound would.  The exclude child's runs lie inside the
    parent's.  The include child adds lo and keeps [lo + k, n]; the parent's
    U_j(lo) is u_j(lo), no level of its run lying k below lo.  With the
    child's U'_{j-1} <= U_{j-1} by induction, lo and any allowed set of the
    child's pass for b make an allowed set of the parent's, at least as
    heavy as the child's share C(b, lo) * u_{j-1}(lo) plus that set; the
    last layer likewise, with total' = total + C(n, lo) * u_ell(lo).
    """
    n = len(rows) - 1
    lo = (avail & -avail).bit_length() - 1
    ubar = list(map(add, sums[0][lo:], first[lo][lo:]))
    for s in sums[1:]:
        nxt = s[lo : lo + k]
        for b in range(lo + k, n + 1):
            f = [0] * k
            best = 0
            for x in map(mul, rows[b][lo : b - k + 1], ubar):
                take = x + f[-k]
                if take > best:
                    best = take
                f.append(best)
            nxt.append(s[b] + best)
        ubar = nxt
    return total + _gap_sums(list(map(mul, rows[n][lo:], ubar)), k)[-1]


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


def window_chain_count(n: int, k: int, ell: int, i: int) -> int:
    """Number of ell-chains in the union of the k+1 consecutive levels {i, ..., i+k}."""
    _require_ints(n=(n, None), k=(k, 0), ell=(ell, None), i=(i, None))
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
    _require_ints(n=(n, None), k=(k, None), ell=(ell, None))
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= ell <= k + 1:
        raise ValueError(f"need 1 <= ell <= k + 1, got ell={ell}")
    return _best_windows(n, [min(i + k, n) for i in range(n + 1)], ell)
