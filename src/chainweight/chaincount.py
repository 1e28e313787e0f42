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
from .levelbounds import _clique_cover_bound, _search_levels
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
    node_budget: int | None = None,
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
    raised.  None stands for DEFAULT_NODE_BUDGET, read at call time; any
    other value must be an int >= 0, even where no search runs.  A
    condition of any other type raises TypeError.
    """
    _require_ints(n=(n, 0), ell=(ell, 1))
    if node_budget is not None:
        _require_ints(node_budget=(node_budget, 0))
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
    rows = _pascal_rows(n)
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
    # The scan slides [m, t]: dropping level a subtracts C(n, a) S(n - a, t - a),
    # as C(n, b) C(b, a) = C(n, a) C(n - a, b - a), and raising t adds
    # C(n, t) S(t, t - m).
    stop = tops.index(n)
    width = max(t - m for m, t in enumerate(tops[: stop + 1]))
    r = ell - 1
    surj = _surjections(width, r)

    def S(big: int, depth: int) -> int:
        # Sum over d = r..depth of C(big, d) surj(d, r), skipping the d with
        # surj(d, r) = 0 (d < r, or d > 0 = r) and stepping C(big, d).
        c = math.comb(big, r)
        terms = 0
        for d in range(r, (depth if r else 0) + 1):
            terms += c * surj[d]
            c = c * (big - d) // (d + 1)
        return terms

    top = binomial_row(n)
    best_count = -1
    starts: list[int] = []
    count = 0
    t = -1
    for m in range(stop + 1):
        if m:
            count -= top[m - 1] * S(n - m + 1, t - m + 1)
        while t < tops[m]:
            t += 1
            count += top[t] * S(t, t - m)
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
    u = [1, *(s[h] for s in sums)]
    col = [row[h] for row in rows[h + 1 :]]
    new = []
    for s, uj in zip(sums, u):
        t = s[: h + 1]
        t += map(add, s[h + 1 :], col if uj == 1 else [c * uj for c in col])
        new.append(t)
    return new, total + rows[-1][h] * u[-1]


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
    U_2(b) adds first[b][lo], entry lo of the first layer's column b, for
    b >= lo + k (a lower b has no compatible level in the run); each later
    U_j(b) takes one such pass.
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
    # A gap past n allows one level of [0, n], as k does.
    k = min(k, n + 1)
    lo = (avail & -avail).bit_length() - 1
    # ubar and nxt are indexed by level; their entries below lo are never read.
    s0 = sums[0]
    ubar = s0[: lo + k] + [s0[b] + first[b][lo] for b in range(lo + k, n + 1)]
    # Every pass, the last layer's too, runs up its levels a from lo, writing
    # f[a] and reading f[a - k]: written by the same pass when a - k >= lo,
    # and else 0.  No pass writes below lo, and a read below index 0 wraps to
    # entry n + 1 + a - k, past n - k, where the j >= 3 passes stop, and at
    # least a, which the last layer has not reached yet.
    f = [0] * (n + 1)
    for s in sums[1:]:
        nxt = s[: lo + k]
        for b in range(lo + k, n + 1):
            w = rows[b]
            best = 0
            for a in range(lo, b - k + 1):
                take = w[a] * ubar[a] + f[a - k]
                if take > best:
                    best = take
                f[a] = best
            nxt.append(s[b] + best)
        ubar = nxt
    w = rows[n]
    best = 0
    for a in range(lo, n + 1):
        take = w[a] * ubar[a] + f[a - k]
        if take > best:
            best = take
        f[a] = best
    return total + best


def _gap_first_layer(k: int, rows: list[list[int]]) -> list[Sequence[int]]:
    # Column b for KatonaGap(k): the levels compatible with b below it are
    # [0, b - k], so the suffix recurrence g[x] = max(g[x + 1], w[x] + g[x + k])
    # over w = C(b, 0), ..., C(b, b - k), written in place from x = b - k down
    # to 0 over a column of b + 1 zeros, holds at entry x <= b - k the best
    # allowed subset of [x, b - k].  A column b < k is empty, so a k past n
    # allocates nothing.
    first: list[Sequence[int]] = [()] * min(k, len(rows))
    for b in range(k, len(rows)):
        w = rows[b]
        col = [0] * (b + 1)
        best = 0
        for x in range(b - k, -1, -1):
            take = w[x] + col[x + k]
            if take > best:
                best = take
            col[x] = best
        first.append(col)
    return first


def _pascal_rows(n: int) -> list[list[int]]:
    # Rows 0..n of Pascal's triangle, each from the one before it: the first
    # half of row m by C(m, j) = C(m - 1, j - 1) + C(m - 1, j), the rest its
    # mirror, so entries j and m - j are one int object, as in binomial_row.
    row = [1]
    rows = [row]
    for m in range(1, n + 1):
        row = [1, *map(add, row, row[1 : m // 2 + 1])]
        row += row[(m - 1) // 2 :: -1]
        rows.append(row)
    return rows


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
