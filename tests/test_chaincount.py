import gc
import math
import random
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from chainweight import (
    Antichain,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    SearchBudgetExceeded,
    allowed_levels,
    best_window_for_chains,
    binomial,
    binomial_row,
    count_chains_levels,
    forbidden_pair,
    level_conflicts,
    optimal_levels_for_chains,
    window_chain_count,
)
from chainweight import chaincount
from chainweight.chaincount import (
    _chain_bound,
    _gap_bound,
    _gap_first_layer,
    _include,
)
from chainweight.conditions import level_shape
from chainweight.levelbounds import _clique_cover_bound, _gap_sums, size_bound


def chains_by_enumeration(n, levels, ell):
    # Independent oracle: depth-first enumeration of nested member tuples of
    # the explicit union-of-levels family.
    wanted = set(levels)
    members = [m for m in range(1 << n) if bin(m).count("1") in wanted]

    def extend(last, depth):
        if depth == ell:
            return 1
        total = 0
        for m in members:
            if m != last and (m & last) == last:
                total += extend(m, depth + 1)
        return total

    if ell == 0:
        return 1
    return sum(extend(m, 1) for m in members)


def reference_count_from_sorted(n, hs, ell):
    if len(hs) < ell:
        return 0
    u = [1] * len(hs)
    for _ in range(ell - 1):
        u = [
            sum(binomial(hs[i], hs[j]) * u[j] for j in range(i))
            for i in range(len(hs))
        ]
    return sum(binomial(n, hs[i]) * u[i] for i in range(len(hs)))


def reference_optimal_levels_for_chains(n, cond, ell):
    # The search before chain counts were carried down the include path:
    # every node recounts the chains of its whole reachable set, and that
    # count is the pruning bound.  Returns (count, levels).
    conflicts = level_conflicts(cond, n)
    best = [0, ()]

    def levels_of(mask):
        return [h for h in range(n + 1) if mask >> h & 1]

    def dfs(avail, chosen):
        reachable = tuple(chosen + levels_of(avail))
        if reference_count_from_sorted(n, reachable, ell) <= best[0]:
            return
        if avail == 0:
            count = reference_count_from_sorted(n, tuple(chosen), ell)
            if count > best[0]:
                best[:] = [count, tuple(chosen)]
            return
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        chosen.append(h)
        dfs(rest & ~conflicts[h], chosen)
        chosen.pop()
        dfs(rest, chosen)

    dfs((1 << (n + 1)) - 1, [])
    return tuple(best)


def no_search(*args):
    raise AssertionError("level search ran")


def reference_gap_relax(k, w, mask):
    # The largest weight of an allowed subset of mask under KatonaGap(k), for
    # any mask: the last of the _gap_sums over the levels up to the mask's
    # highest, those outside it weighted 0.  Dropping a level of weight 0
    # from an allowed set keeps it allowed, so the maximum is unchanged.
    span = [w[h] if mask >> h & 1 else 0 for h in range(mask.bit_length())]
    return _gap_sums(span, k)[-1]


def search_relaxation(cond, conflicts):
    # The relaxation of the chain bound for KatonaGap (exact) and custom
    # tables (a clique cover), on any mask.
    if isinstance(cond, KatonaGap):
        return partial(reference_gap_relax, cond.k)
    return partial(_clique_cover_bound, conflicts)


def reference_recursive_levels_for_chains(n, cond, ell, stop=True, inherit=True):
    # The search as a recursive closure, before it ran on an explicit stack,
    # with the mask-general reference_chain_bound at every bounded node, for
    # KatonaGap and custom tables at ell >= 2.  With stop, the root's bound
    # is the target, the first leaf that meets it ends the search and the
    # first dive takes no bound.  With inherit, a node dies when the bound of
    # its nearest bounded ancestor (the target on the first dive) cannot
    # beat the incumbent, before its own is computed.  Without either it is
    # the search before those rules: every node is bounded, and the search
    # runs until no node is left.  Returns (count, levels, nodes, bounds),
    # bounds the number of bounds computed.
    conflicts = level_conflicts(cond, n)
    if ell > n + 1:
        return 0, (), 0, 0
    rows = [binomial_row(h) for h in range(n + 1)]
    relax = search_relaxation(cond, conflicts)
    best_count = 0
    best_witness = ()
    nodes = 0
    bounds = 0
    target = None
    dive = stop

    def node_bound(sums, total, avail):
        nonlocal bounds
        bounds += 1
        return reference_chain_bound(rows, conflicts, relax, sums, total, avail)

    def dfs(avail, sums, total, chosen, inherited):
        nonlocal best_count, best_witness, nodes, target, dive
        if best_count == target:
            return
        nodes += 1
        if inherit and inherited <= best_count:
            return
        if avail == 0:
            dive = False
            if total > best_count:
                best_count = total
                best_witness = tuple(chosen)
            return
        bound = inherited
        if not dive:
            bound = node_bound(sums, total, avail)
            if bound <= best_count:
                return
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        chosen.append(h)
        dfs(rest & ~conflicts[h], *_include(rows, sums, total, h), chosen, bound)
        chosen.pop()
        dfs(rest, sums, total, chosen, bound)

    avail = (1 << (n + 1)) - 1
    sums = [[0] * (n + 1) for _ in range(ell - 1)]
    root = math.inf
    if stop:
        root = target = node_bound(sums, 0, avail)
        if root <= best_count:
            # The root dies on its own bound, with or without inherit.
            return best_count, best_witness, 1, bounds
    dfs(avail, sums, 0, [], root)
    return best_count, best_witness, nodes, bounds


@contextmanager
def shallow_recursion_limit():
    # About 100 frames of room above the caller: a search that recurses once
    # per level raises RecursionError at a few hundred levels.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def reference_chain_bound(rows, conflicts, relax, sums, total, avail):
    # The bound before its first layer came from a table built once per
    # search: every layer relaxes each level's own mask at the node.
    n = len(rows) - 1
    levels = [b for b in range(n + 1) if avail >> b & 1]
    ubar = None  # U_1 = 1 everywhere
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


ALL_KINDS = ("antichain", "erdos", "katona", "ratio", "intratio", "custom")
# The conditions whose chain optima take a search, and so a relaxation.
SEARCHED_KINDS = ("katona", "custom")


@st.composite
def conditions_on(draw, n, kinds=ALL_KINDS):
    # A condition of one of the given kinds, with custom tables of random
    # density on [n].
    kind = draw(st.sampled_from(kinds))
    if kind == "antichain":
        return Antichain()
    if kind == "erdos":
        return ErdosWindow(draw(st.integers(1, 6)))
    if kind == "katona":
        # Gaps past the span, up to one that no list of length k could hold.
        return KatonaGap(draw(st.one_of(st.integers(1, n + 3), st.just(10**9))))
    if kind == "ratio":
        q = draw(st.integers(1, 6))
        return RatioLambda(Fraction(q + draw(st.integers(1, 3 * q)), q))
    if kind == "intratio":
        return IntegerRatio(draw(st.integers(2, 5)))
    percent = draw(st.integers(0, 100))
    rng = draw(st.randoms(use_true_random=False))
    pairs = {
        (a, b) for a, b in combinations(range(n + 1), 2) if rng.randrange(100) < percent
    }
    return CustomPairwise(n, frozenset(pairs))


def allowed_subsets(avail, conflicts):
    # Every pairwise compatible set of levels inside the mask avail.
    if avail == 0:
        yield []
        return
    h = (avail & -avail).bit_length() - 1
    rest = avail & ~(1 << h)
    for tail in allowed_subsets(rest & ~conflicts[h], conflicts):
        yield [h, *tail]
    yield from allowed_subsets(rest, conflicts)


def test_count_examples():
    assert count_chains_levels(6, (0, 3, 6), 2) == 41
    assert count_chains_levels(6, (1, 4), 2) == 60
    assert count_chains_levels(6, (2, 4), 3) == 0
    for n in range(7):
        for levels in combinations(range(n + 1), 3):
            assert count_chains_levels(n, levels, 1) == sum(
                math.comb(n, h) for h in levels
            )


def test_count_matches_enumeration_oracle():
    for n in range(0, 8):
        for t in range(0, min(n + 2, 5)):
            for levels in combinations(range(n + 1), t):
                for ell in range(1, 5):
                    assert count_chains_levels(n, levels, ell) == chains_by_enumeration(
                        n, levels, ell
                    ), (n, levels, ell)


def test_count_rejects_bad_input():
    with pytest.raises(ValueError):
        count_chains_levels(6, (0, 3), 0)
    with pytest.raises(ValueError):
        count_chains_levels(6, (0, 7), 2)
    with pytest.raises(ValueError):
        count_chains_levels(6, (-1, 3), 2)
    with pytest.raises(ValueError):
        count_chains_levels(6, (3, 3), 2)
    # n < 0 is refused as at every other entry point, even with no level
    # to check against n.
    for levels in ((), (0,)):
        with pytest.raises(ValueError, match="nonnegative"):
            count_chains_levels(-3, levels, 2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: count_chains_levels(6, [1, 3], True), "ell"),
        (lambda: count_chains_levels(6.0, [1, 3], 2), "n"),
        (lambda: count_chains_levels(False, [], 2), "n"),
        (lambda: optimal_levels_for_chains(6.0, KatonaGap(2), 2), "n"),
        (lambda: optimal_levels_for_chains(6, Antichain(), True), "ell"),
        (lambda: optimal_levels_for_chains(6, ErdosWindow(1), 2.0), "ell"),
        (lambda: window_chain_count(6, 2, 2, 1.0), "i"),
        (lambda: window_chain_count(6, True, 2, 1), "k"),
        (lambda: window_chain_count(6, 2, "2", 1), "ell"),
        (lambda: best_window_for_chains(True, 1, 2), "n"),
        (lambda: best_window_for_chains(6, 1.0, 2), "k"),
        (lambda: best_window_for_chains(6, 1, Fraction(2)), "ell"),
    ],
)
def test_chain_functions_reject_non_integer_arguments(call, name, monkeypatch):
    # A bool or a non-int size is refused by name before any work: nothing
    # below the argument check runs.
    for helper in ("binomial_row", "level_shape", "size_bound", "normalize_levels"):
        monkeypatch.setattr(chaincount, helper, no_search)
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_optimal_levels_examples():
    result = optimal_levels_for_chains(21, KatonaGap(5), 2)
    assert result.levels == (2, 7, 14, 19)
    result = optimal_levels_for_chains(6, KatonaGap(3), 2)
    assert (result.count, result.levels) == (60, (1, 4))
    for n in range(1, 8):
        result = optimal_levels_for_chains(n, Antichain(), 2)
        assert (result.count, result.levels) == (0, ())


def test_optimal_levels_lexicographic_tie_break():
    # At n=6, gap 3, ell=2 both {1,4} and {2,5} reach 60.
    assert count_chains_levels(6, (2, 5), 2) == 60
    assert optimal_levels_for_chains(6, KatonaGap(3), 2).levels == (1, 4)


def test_optimal_levels_matches_exhaustive_scan():
    conds = [
        Antichain(),
        ErdosWindow(1),
        ErdosWindow(2),
        ErdosWindow(3),
        KatonaGap(2),
        KatonaGap(3),
        RatioLambda(Fraction(3, 2)),
        RatioLambda(Fraction(2)),
        RatioLambda(Fraction(5, 2)),
        IntegerRatio(2),
    ]
    counts = {}  # the conditions share most of their allowed level sets
    for n in range(0, 9):
        for cond in conds:
            for ell in (1, 2, 3, 4):
                best_count = 0
                best_levels = ()
                for t in range(n + 2):
                    for levels in combinations(range(n + 1), t):
                        if any(
                            forbidden_pair(cond, a, b)
                            for a, b in combinations(levels, 2)
                        ):
                            continue
                        key = (n, levels, ell)
                        if key not in counts:
                            counts[key] = chains_by_enumeration(n, levels, ell)
                        count = counts[key]
                        if count > best_count or (
                            count == best_count and levels < best_levels
                        ):
                            best_count = count
                            best_levels = levels
                result = optimal_levels_for_chains(n, cond, ell)
                assert (result.count, result.levels) == (best_count, best_levels), (
                    n,
                    cond,
                    ell,
                )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), ell=st.integers(1, 4))
def test_optimal_levels_match_reference_search(data, n, ell):
    cond = data.draw(conditions_on(n))
    result = optimal_levels_for_chains(n, cond, ell)
    assert (result.count, result.levels) == reference_optimal_levels_for_chains(n, cond, ell)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), ell=st.integers(2, 4))
def test_optimal_levels_match_recursive_search_node_for_node(data, n, ell):
    # The stack search visits the recursive search's nodes in the same
    # order: same answer within its node count, over budget one node short.
    cond = data.draw(conditions_on(n, SEARCHED_KINDS))
    count, levels, nodes, _ = reference_recursive_levels_for_chains(n, cond, ell)
    result = optimal_levels_for_chains(n, cond, ell, node_budget=nodes)
    assert (result.count, result.levels) == (count, levels)
    if nodes:
        with pytest.raises(SearchBudgetExceeded):
            optimal_levels_for_chains(n, cond, ell, node_budget=nodes - 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), ell=st.integers(2, 4))
def test_inherited_bounds_keep_the_katona_nodes(data, n, ell):
    # A KatonaGap child's bound never exceeds its parent's, so a node that
    # inherits its ancestor's bound dies exactly where its own bound would
    # kill it: the same nodes, never more bounds computed.
    cond = data.draw(conditions_on(n, ("katona",)))
    inherited = reference_recursive_levels_for_chains(n, cond, ell)
    own = reference_recursive_levels_for_chains(n, cond, ell, inherit=False)
    assert inherited[:3] == own[:3]
    assert inherited[3] <= own[3]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), ell=st.integers(2, 4))
def test_stopped_search_answers_like_the_unstopped_search(data, n, ell):
    # Stopping at the root bound, skipping the bound on the first dive and
    # inheriting bounds change the nodes a search visits, never its answer
    # or witness.
    cond = data.draw(conditions_on(n, SEARCHED_KINDS))
    unstopped = reference_recursive_levels_for_chains(n, cond, ell, stop=False, inherit=False)
    count, levels, _, _ = unstopped
    assert reference_recursive_levels_for_chains(n, cond, ell)[:2] == (count, levels)
    result = optimal_levels_for_chains(n, cond, ell)
    assert (result.count, result.levels) == (count, levels)


def test_single_chain_search_runs_under_a_shallow_recursion_limit():
    # At ell = 1 the answer is size_bound's, whose Antichain optimizer scans
    # the row; a search that recursed once per level would fail at n = 400.
    with shallow_recursion_limit():
        result = optimal_levels_for_chains(400, Antichain(), 1)
        expected = size_bound(400, Antichain())
    assert (result.count, result.levels) == (expected.value, expected.witness)


def test_gap_chain_search_runs_under_a_shallow_recursion_limit():
    # The KatonaGap(3) witness at n = 300 takes 101 levels, one include each.
    with shallow_recursion_limit():
        result = optimal_levels_for_chains(300, KatonaGap(3), 2)
        count = count_chains_levels(300, result.levels, 2)
    assert result.levels == tuple(range(0, 301, 3))
    assert result.count == count


def test_optimal_levels_are_empty_past_n_plus_one(monkeypatch):
    # A chain of distinct subsets of [n] has at most n + 1 members, so the
    # search answers (0, ()) before it starts, with no binomial row built;
    # the reference search agrees.
    for name in ("_chain_bound", "_gap_bound", "binomial_row"):
        monkeypatch.setattr(chaincount, name, no_search)
    for n in range(7):
        table = CustomPairwise(n, frozenset((a, a + 2) for a in range(n - 1)))
        for cond in (Antichain(), ErdosWindow(1), KatonaGap(2), RatioLambda(Fraction(3, 2)),
                     IntegerRatio(2), table):
            for ell in range(n + 2, n + 5):
                result = optimal_levels_for_chains(n, cond, ell)
                assert (result.count, result.levels, result.ell) == (0, (), ell)
                assert reference_optimal_levels_for_chains(n, cond, ell) == (0, ())


def test_huge_gap_search_allocates_by_n_not_k():
    # KatonaGap(10**9) allows one level at n = 10: no 2-chain, and at ell = 1
    # the size bound's answer.  The gap passes clamp their step to the span,
    # so the searches allocate by n, not by k.
    cond = KatonaGap(10**9)
    bound = size_bound(10, cond)
    for ell, expected in ((2, (0, ())), (1, (bound.value, bound.witness))):
        tracemalloc.start()
        try:
            result = optimal_levels_for_chains(10, cond, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.count, result.levels) == expected, ell
        assert peak < 2**20, (ell, peak)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(0, 14))
def test_relaxation_is_the_best_allowed_weight(data, n):
    # Exact for KatonaGap; at least the best for a custom table.
    cond = data.draw(conditions_on(n, SEARCHED_KINDS))
    conflicts = level_conflicts(cond, n)
    w = data.draw(st.lists(st.integers(0, 10**6), min_size=n + 1, max_size=n + 1))
    if data.draw(st.booleans()):
        mask = data.draw(st.integers(0, (1 << (n + 1)) - 1))
    else:
        # One run of levels [lo, hi), the chain bound's usual mask.
        lo = data.draw(st.integers(0, n + 1))
        mask = (1 << data.draw(st.integers(lo, n + 1))) - (1 << lo)
    best = max(sum(w[h] for h in levels) for levels in allowed_subsets(mask, conflicts))
    if isinstance(cond, CustomPairwise):
        assert _clique_cover_bound(conflicts, w, mask) >= best
    else:
        assert reference_gap_relax(cond.k, w, mask) == best


@dataclass(frozen=True)
class NotACondition:
    # Has a forbids method like a condition, but is none of the condition
    # types, so it has no level shape and nothing computes with it.
    def forbids(self, a, b):
        return b - a == 2


def test_chain_optimum_rejects_non_conditions():
    # At every ell, past n + 1 too, where every condition's answer is (0, ()).
    with pytest.raises(TypeError):
        level_conflicts(NotACondition(), 4)
    for ell in (1, 2, 5, 6, 100):
        with pytest.raises(TypeError):
            optimal_levels_for_chains(4, NotACondition(), ell)


def search_state(data, n, ell, conflicts, cut):
    # The carried state of an allowed chosen set below cut, built by _include.
    rows = [binomial_row(h) for h in range(n + 1)]
    chosen = []
    compatible = (1 << (n + 1)) - 1
    for h in range(cut):
        if compatible >> h & 1 and data.draw(st.booleans()):
            chosen.append(h)
            compatible &= ~conflicts[h]
    sums, total = [[0] * (n + 1) for _ in range(ell - 1)], 0
    for h in chosen:
        sums, total = _include(rows, sums, total, h)
    return rows, chosen, compatible, sums, total


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), ell=st.integers(2, 4))
def test_chain_bound_is_admissible(data, n, ell):
    # A search node: an allowed chosen set below a cut, and as avail some of
    # the levels from the cut up that are compatible with every chosen level,
    # or any mask of levels from the cut up; for KatonaGap also a run [lo, n]
    # from the cut up, the only avail its search bounds.  The chains of
    # chosen | S are bounded for every allowed S inside avail either way: the
    # proof in _chain_bound needs only that avail lies above the chosen
    # levels.
    cond = data.draw(conditions_on(n, SEARCHED_KINDS))
    conflicts = level_conflicts(cond, n)
    cut = data.draw(st.integers(0, n + 1))
    rows, chosen, compatible, sums, total = search_state(data, n, ell, conflicts, cut)
    relax = search_relaxation(cond, conflicts)
    gap = isinstance(cond, KatonaGap)
    if gap:
        avail = (1 << (n + 1)) - (1 << data.draw(st.integers(cut, n + 1)))
    elif data.draw(st.booleans()):
        dropped = data.draw(st.integers(0, (1 << (n + 1)) - 1)) if data.draw(st.booleans()) else 0
        avail = compatible & ~dropped & ~((1 << cut) - 1)
    else:
        avail = data.draw(st.integers(0, (1 << (n + 1)) - 1)) & ~((1 << cut) - 1)

    assert total == count_chains_levels(n, chosen, ell)
    best = max(
        count_chains_levels(n, chosen + extra, ell)
        for extra in allowed_subsets(avail, conflicts)
    )
    if gap and avail:
        first = _gap_first_layer(cond.k, rows)
        assert _gap_bound(cond.k, rows, first, sums, total, avail) >= best
    elif not gap:
        assert _chain_bound(rows, conflicts, sums, total, 0) == total
        assert _chain_bound(rows, conflicts, sums, total, avail) >= best
    assert reference_chain_bound(rows, conflicts, relax, sums, total, avail) >= best


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), ell=st.integers(2, 5))
def test_chain_bound_matches_reference_on_runs(data, n, ell):
    # The KatonaGap searches only ever bound one run of levels [lo, n] above
    # the chosen ones; there _gap_bound, with its first layer read from the
    # table and one gap pass per level, equals the mask-general bound.
    cond = data.draw(conditions_on(n, ("katona",)))
    conflicts = level_conflicts(cond, n)
    lo = data.draw(st.integers(0, n))
    rows, _, _, sums, total = search_state(data, n, ell, conflicts, lo)
    first = _gap_first_layer(cond.k, rows)
    relax = search_relaxation(cond, conflicts)
    avail = (1 << (n + 1)) - (1 << lo)
    assert _gap_bound(cond.k, rows, first, sums, total, avail) == (
        reference_chain_bound(rows, conflicts, relax, sums, total, avail)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 20), ell=st.integers(2, 4))
def test_gap_search_bounds_only_suffix_runs(data, n, ell):
    # _gap_bound reads only the lowest level lo of avail: every node the
    # KatonaGap search bounds, the root's target included, has avail = [lo, n],
    # and there the bound is the mask-general one.  The search computes as
    # many bounds as the reference.
    cond = data.draw(conditions_on(n, ("katona",)))
    conflicts = level_conflicts(cond, n)
    relax = search_relaxation(cond, conflicts)
    calls = []

    def checked(k, rows, first, sums, total, avail):
        lo = (avail & -avail).bit_length() - 1
        assert avail == (1 << (n + 1)) - (1 << lo), bin(avail)
        bound = _gap_bound(k, rows, first, sums, total, avail)
        assert bound == reference_chain_bound(rows, conflicts, relax, sums, total, avail)
        calls.append(lo)
        return bound

    with patch.object(chaincount, "_gap_bound", checked):
        result = optimal_levels_for_chains(n, cond, ell)
    assert (result.count, result.levels) == reference_optimal_levels_for_chains(n, cond, ell)
    assert len(calls) == reference_recursive_levels_for_chains(n, cond, ell)[3]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 14))
def test_suffix_tables_are_the_best_allowed_weights(data, n):
    # Entry x of column b, for each x <= b - k (every entry _gap_bound reads),
    # is the largest weight rows[b][a] of an allowed subset of the levels of
    # [x, b) that do not conflict with b, for random nonnegative rows; a
    # custom table's search builds none.
    cond = data.draw(conditions_on(n, SEARCHED_KINDS))
    conflicts = level_conflicts(cond, n)
    if isinstance(cond, CustomPairwise):
        with patch.object(chaincount, "_gap_first_layer", no_search):
            optimal_levels_for_chains(n, cond, 2)
        return
    rows = [
        data.draw(st.lists(st.integers(0, 10**6), min_size=n + 1, max_size=n + 1))
        for _ in range(n + 1)
    ]
    first = _gap_first_layer(cond.k, rows)
    assert len(first) == n + 1
    for b in range(n + 1):
        for x in range(b - cond.k + 1):
            mask = ((1 << b) - (1 << x)) & ~conflicts[b]
            best = max(
                sum(rows[b][a] for a in levels) for levels in allowed_subsets(mask, conflicts)
            )
            assert first[b][x] == best, (cond, x, b)


NAMED_CONDITIONS = (
    Antichain(),
    ErdosWindow(1),
    ErdosWindow(3),
    KatonaGap(2),
    KatonaGap(3),
    KatonaGap(5),
    RatioLambda(Fraction(3, 2)),
    RatioLambda(Fraction(5, 2)),
    IntegerRatio(2),
    IntegerRatio(3),
)


def seeded_custom_tables():
    rng = random.Random(2718)
    params = []
    for density in (0.05, 0.2, 0.5, 0.8):
        for i in range(4):
            n = rng.randint(0, 24)
            pairs = frozenset(
                (a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < density
            )
            params.append(pytest.param(CustomPairwise(n, pairs), id=f"custom-d{density}-{i}"))
    return params


def forbid_search(monkeypatch):
    for name in ("_chain_bound", "_gap_bound", "_gap_first_layer", "_include"):
        monkeypatch.setattr(chaincount, name, no_search)


@pytest.mark.parametrize("cond", (*NAMED_CONDITIONS, *seeded_custom_tables()), ids=repr)
def test_single_chains_match_size_bound(cond, monkeypatch):
    # At ell = 1 the chain count of a level set is its weight, so the answer
    # is size_bound's value and witness, taken before any search or conflict
    # compile of its own; a custom table is still refused past its range.
    # size_bound's custom search spends the node budget, so a budget of 0
    # stops it at its root, while the named optimizers spend none.
    forbid_search(monkeypatch)

    def no_compile(*args):
        raise AssertionError("conflicts compiled")

    monkeypatch.setattr(chaincount, "level_conflicts", no_compile)
    custom = isinstance(cond, CustomPairwise)
    for n in (cond.n,) if custom else (*range(41), 60, 100, 120):
        expected = size_bound(n, cond)
        if custom:
            with pytest.raises(SearchBudgetExceeded):
                optimal_levels_for_chains(n, cond, 1, node_budget=0)
            result = optimal_levels_for_chains(n, cond, 1)
        else:
            result = optimal_levels_for_chains(n, cond, 1, node_budget=0)
        assert (result.count, result.levels) == (expected.value, expected.witness), n
    if custom:
        with pytest.raises(ValueError, match="exceeds the table range"):
            optimal_levels_for_chains(cond.n + 1, cond, 1)


def test_windows_and_single_chains_run_no_search(monkeypatch):
    # Antichain, ErdosWindow and the ratio conditions at ell >= 2, and every
    # condition type at ell = 1, are answered without the level search: its
    # bound, first-layer table and include raise here, and a node budget of 0
    # is not spent, except by size_bound's own custom search at ell = 1.
    forbid_search(monkeypatch)
    for cond in (c for c in NAMED_CONDITIONS if not isinstance(c, KatonaGap)):
        for n in (*range(41), 60, 100, 120):
            for ell in (2, 3, 4):
                result = optimal_levels_for_chains(n, cond, ell, node_budget=0)
                assert allowed_levels(cond, result.levels), (cond, n, ell)
                assert result.count == count_chains_levels(n, result.levels, ell), (cond, n, ell)
                # A positive optimum is a whole window of consecutive levels.
                if result.levels:
                    lo, hi = result.levels[0], result.levels[-1]
                    assert result.levels == tuple(range(lo, hi + 1)), (cond, n, ell)
    table = CustomPairwise(20, frozenset((a, a + 2) for a in range(19)))
    for cond in (*NAMED_CONDITIONS, table):
        for n in (0, 1, 7, 20):
            expected = size_bound(n, cond)
            if cond is table:
                with pytest.raises(SearchBudgetExceeded):
                    optimal_levels_for_chains(n, cond, 1, node_budget=0)
                result = optimal_levels_for_chains(n, cond, 1)
            else:
                result = optimal_levels_for_chains(n, cond, 1, node_budget=0)
            assert (result.count, result.levels) == (expected.value, expected.witness), (cond, n)


def reference_best_window(n, cond, ell):
    # The heaviest window [m, top(m)], smallest m first, with top(m) the level
    # below m's first conflict by forbidden_pair, and each window counted by
    # count_chains_levels; a window inside the previous one cannot beat it.
    best = (0, ())
    last = -1
    for m in range(n + 1):
        top = m
        while top < n and not forbidden_pair(cond, m, top + 1):
            top += 1
        if top > last:
            count = count_chains_levels(n, range(m, top + 1), ell)
            if count > best[0]:
                best = (count, tuple(range(m, top + 1)))
        last = top
    return best


@pytest.mark.parametrize("cond", [c for c in NAMED_CONDITIONS if not isinstance(c, KatonaGap)], ids=repr)
def test_window_optima_compile_no_conflicts(cond, monkeypatch):
    # Window conditions at ell >= 2 read their level shape, not conflict
    # masks: chaincount's level_conflicts raises here.
    def no_compile(*args):
        raise AssertionError("conflicts compiled")

    monkeypatch.setattr(chaincount, "level_conflicts", no_compile)
    for n in (*range(41), 60, 100, 120):
        for ell in (2, 3, 4):
            result = optimal_levels_for_chains(n, cond, ell, node_budget=0)
            assert (result.count, result.levels) == reference_best_window(n, cond, ell), (n, ell)


def test_optimal_levels_witness_is_allowed():
    for n in (5, 9, 13):
        for cond in (KatonaGap(2), KatonaGap(4), ErdosWindow(2)):
            for ell in (1, 2, 3):
                result = optimal_levels_for_chains(n, cond, ell)
                assert allowed_levels(cond, result.levels)
                assert count_chains_levels(n, result.levels, ell) == result.count


def test_katona_chain_levels_beat_residue_class():
    # The weight-optimal residue class is not chain-count optimal.
    assert count_chains_levels(6, (0, 3, 6), 2) == 41
    assert optimal_levels_for_chains(6, KatonaGap(3), 2).count == 60
    best21 = optimal_levels_for_chains(21, KatonaGap(5), 2)
    residues = {h % 5 for h in best21.levels}
    assert len(residues) > 1


def test_budget_exceeded_is_distinct():
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(10, KatonaGap(2), 2, node_budget=5)


def test_node_budget_bounds_the_large_katona_search():
    # The search at n=40 visits a few dozen nodes; a budget below that
    # raises, and one above it returns the known witness.  n=100 under a
    # budget of 1000 guards the strength of the bound: with the clique cover
    # it took 4,767 nodes at n=40 already.  The exact node counts are pinned:
    # 15 at n=40, ell=2 and 35 at n=100, ell=3, one dive from the root to
    # the witness's leaf.
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=14)
    assert optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=15).levels == tuple(
        range(0, 41, 3)
    )
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(100, KatonaGap(3), 3, node_budget=34)
    result = optimal_levels_for_chains(100, KatonaGap(3), 3, node_budget=35)
    assert result.count == count_chains_levels(100, result.levels, 3)
    result = optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=1000)
    assert result.levels == tuple(range(0, 41, 3))
    assert result.count == 1350851351169116164
    result = optimal_levels_for_chains(100, KatonaGap(3), 2, node_budget=1000)
    assert result.levels == tuple(range(0, 101, 3))
    assert result.count == count_chains_levels(100, range(0, 101, 3), 2)


def test_search_stops_at_the_root_bound():
    # KatonaGap(3) at n=400, ell=3: the root bound is exact, so the search is
    # the first dive, the root and one include per witness level, and stops
    # at its leaf.
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(400, KatonaGap(3), 3, node_budget=134)
    result = optimal_levels_for_chains(400, KatonaGap(3), 3, node_budget=135)
    assert result.levels == tuple(range(0, 401, 3))
    assert result.count == count_chains_levels(400, result.levels, 3)


def test_inherited_bounds_skip_bound_evaluations():
    # KatonaGap(6) at n=28, ell=3: the root bound is not exact, so the search
    # goes past its first dive, 61 nodes with or without inherited bounds.
    # A node whose inherited bound cannot beat the incumbent dies before its
    # own bound is computed: 40 bounds, the root's target included, where
    # the search that bounds every node after the first dive computes 50.
    cond = KatonaGap(6)
    bounds = []

    def counted(*args):
        bounds.append(args[-1])
        return _gap_bound(*args)

    with patch.object(chaincount, "_gap_bound", counted):
        result = optimal_levels_for_chains(28, cond, 3, node_budget=61)
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(28, cond, 3, node_budget=60)
    assert result.levels == (1, 7, 14, 21, 27)
    assert result.count == count_chains_levels(28, result.levels, 3)
    assert len(bounds) == 40
    own = reference_recursive_levels_for_chains(28, cond, 3, inherit=False)
    assert own[:3] == (result.count, result.levels, 61)
    assert own[3] == 50
    assert reference_recursive_levels_for_chains(28, cond, 3)[2:] == (61, 40)


def test_search_leaves_no_cyclic_garbage():
    # The search's rows and first-layer table are freed when it returns or
    # raises, not left for the cycle collector to find.
    gc.collect()
    gc.disable()
    try:
        optimal_levels_for_chains(30, KatonaGap(3), 3)
        assert gc.collect() == 0
        with pytest.raises(SearchBudgetExceeded):
            optimal_levels_for_chains(30, KatonaGap(3), 3, node_budget=5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_window_chain_count_examples():
    assert window_chain_count(6, 1, 2, 2) == 60
    assert window_chain_count(6, 1, 2, 3) == 60
    for n in range(2, 9):
        for k in range(1, n):
            for i in range(n - k + 1):
                assert window_chain_count(n, k, 1, i) == sum(
                    math.comb(n, h) for h in range(i, i + k + 1)
                )


def test_window_chain_count_preconditions():
    with pytest.raises(ValueError):
        window_chain_count(6, 2, 2, 5)
    with pytest.raises(ValueError):
        window_chain_count(6, 2, 4, 1)
    with pytest.raises(ValueError):
        window_chain_count(6, 2, 0, 1)


def test_best_window_examples():
    assert best_window_for_chains(6, 1, 2) == (60, (2, 3))
    count, argmax = best_window_for_chains(7, 1, 2)
    assert argmax == (3,)
    assert best_window_for_chains(5, 5, 3)[1] == (0,)


def test_best_window_maximizers_are_centered():
    for n in range(1, 15):
        for k in range(1, min(n, 4) + 1):
            for ell in range(1, k + 2):
                count, argmax = best_window_for_chains(n, k, ell)
                expected = {(n - k) // 2, -((k - n) // 2)}
                assert set(argmax) == expected, (n, k, ell)
                counts = [window_chain_count(n, k, ell, i) for i in range(n - k + 1)]
                assert count == max(counts)
                assert argmax == tuple(i for i, c in enumerate(counts) if c == count)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 60))
def test_window_scan_stops_at_the_first_top_at_n(data, n):
    # Both window optima share one scan, whose tops clip at n: the Erdos
    # windows start at 0..n - k, and the scan counts each of them once.
    k = data.draw(st.integers(1, n), label="k")
    ell = data.draw(st.integers(1, min(k + 1, 5)), label="ell")
    counts = [window_chain_count(n, k, ell, i) for i in range(n - k + 1)]
    best = max(counts)
    argmax = tuple(i for i, c in enumerate(counts) if c == best)
    counter = patch.object(chaincount, "binomial_row", wraps=chaincount.binomial_row)
    with counter as counted:
        assert best_window_for_chains(n, k, ell) == (best, argmax)
    assert counted.call_count == 1
    if ell >= 2:
        result = optimal_levels_for_chains(n, ErdosWindow(k), ell)
        assert (result.count, result.levels) == (best, tuple(range(argmax[0], argmax[0] + k + 1)))


WINDOW_KINDS = ("antichain", "erdos", "ratio", "intratio")


def surjections(d, r):
    # Onto maps from a d-set to an r-set, by inclusion-exclusion.
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** d for j in range(r + 1))


def reference_best_windows(rows, tops, ell):
    # The window scan before the chain-interval identity: every window
    # [m, tops[m]] recounted from the binomial matrix rows by the u_j
    # recurrence, m upward until the first top at n; returns the largest
    # count and every m attaining it.
    n = len(rows) - 1
    best_count = -1
    starts = []
    for m, top in enumerate(tops):
        below = [rows[h][m:h] for h in range(m, top + 1)]
        weights = rows[n][m : top + 1]
        count = 0
        if len(weights) >= ell:
            u = [1] * len(weights)
            for _ in range(ell - 1):
                u = [sum(map(mul, row, u)) for row in below]
            count = sum(map(mul, weights, u))
        if count > best_count:
            best_count = count
            starts = [m]
        elif count == best_count:
            starts.append(m)
        if top == n:
            break
    return best_count, tuple(starts)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 120), ell=st.integers(1, 6))
def test_window_scan_is_the_chain_interval_identity(data, n, ell):
    # count([m, t]) = sum over m <= a <= b <= t of C(n, b) C(b, a) surj(b - a, ell - 1),
    # and the sliding scan built on it answers like the per-window recount.
    m = data.draw(st.integers(0, n), label="m")
    t = data.draw(st.integers(m, n), label="t")
    identity = sum(
        math.comb(n, b) * math.comb(b, a) * surjections(b - a, ell - 1)
        for b in range(m, t + 1)
        for a in range(m, b + 1)
    )
    assert identity == count_chains_levels(n, range(m, t + 1), ell)
    _, tops = level_shape(data.draw(conditions_on(n, WINDOW_KINDS)), n)
    rows = [binomial_row(h) for h in range(n + 1)]
    assert chaincount._best_windows(n, tops, ell) == reference_best_windows(rows, tops, ell)


def test_window_weights_strictly_unimodal():
    for n in range(1, 15):
        for k in range(1, min(n, 4) + 1):
            for ell in range(1, k + 2):
                counts = [
                    window_chain_count(n, k, ell, i) for i in range(n - k + 1)
                ]
                lo = (n - k) // 2
                hi = -((k - n) // 2)
                for i in range(lo):
                    assert counts[i] < counts[i + 1], (n, k, ell, i)
                for i in range(hi, n - k):
                    assert counts[i] > counts[i + 1], (n, k, ell, i)
                if lo != hi:
                    assert counts[lo] == counts[hi]
