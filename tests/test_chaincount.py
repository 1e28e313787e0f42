import gc
import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

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
from chainweight.chaincount import _bit_levels, _chain_bound, _include
from chainweight.levelbounds import _relaxation, size_bound


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


def reference_chain_bound(rows, conflicts, relax, sums, total, avail):
    # The bound before its first layer came from a table built once per
    # search: every layer relaxes each level's own mask at the node.
    n = len(rows) - 1
    levels = _bit_levels(avail)
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


@st.composite
def conditions_on(draw, n):
    # Every condition type, with custom tables of random density on [n].
    kind = draw(st.sampled_from(("antichain", "erdos", "katona", "ratio", "intratio", "custom")))
    if kind == "antichain":
        return Antichain()
    if kind == "erdos":
        return ErdosWindow(draw(st.integers(1, 6)))
    if kind == "katona":
        return KatonaGap(draw(st.integers(1, 7)))
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
        KatonaGap(2),
        KatonaGap(3),
        RatioLambda(Fraction(3, 2)),
        RatioLambda(Fraction(2)),
    ]
    for n in range(0, 9):
        for cond in conds:
            for ell in (1, 2, 3):
                best_count = 0
                best_levels = ()
                for t in range(n + 2):
                    for levels in combinations(range(n + 1), t):
                        if any(
                            forbidden_pair(cond, a, b)
                            for a, b in combinations(levels, 2)
                        ):
                            continue
                        count = chains_by_enumeration(n, levels, ell)
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


def test_optimal_levels_are_empty_past_n_plus_one(monkeypatch):
    # A chain of distinct subsets of [n] has at most n + 1 members, so the
    # search answers (0, ()) before it starts; the reference search agrees.
    def no_search(*args):
        raise AssertionError("level search ran")

    monkeypatch.setattr(chaincount, "_chain_bound", no_search)
    for n in range(7):
        table = CustomPairwise(n, frozenset((a, a + 2) for a in range(n - 1)))
        for cond in (Antichain(), ErdosWindow(1), KatonaGap(2), RatioLambda(Fraction(3, 2)),
                     IntegerRatio(2), table):
            for ell in range(n + 2, n + 5):
                result = optimal_levels_for_chains(n, cond, ell)
                assert (result.count, result.levels, result.ell) == (0, (), ell)
                assert reference_optimal_levels_for_chains(n, cond, ell) == (0, ())


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(0, 14))
def test_relaxation_is_the_best_allowed_weight(data, n):
    # Exact for the named conditions; at least the best for a custom table.
    cond = data.draw(conditions_on(n))
    conflicts = level_conflicts(cond, n)
    w = data.draw(st.lists(st.integers(0, 10**6), min_size=n + 1, max_size=n + 1))
    if data.draw(st.booleans()):
        mask = data.draw(st.integers(0, (1 << (n + 1)) - 1))
    else:
        # One run of levels [lo, hi), the chain bound's usual mask.
        lo = data.draw(st.integers(0, n + 1))
        mask = (1 << data.draw(st.integers(lo, n + 1))) - (1 << lo)
    best = max(sum(w[h] for h in levels) for levels in allowed_subsets(mask, conflicts))
    value = _relaxation(cond, conflicts)[0](w, mask)
    if isinstance(cond, CustomPairwise):
        assert value >= best
    else:
        assert value == best


def test_relaxation_rejects_non_conditions():
    with pytest.raises(TypeError):
        _relaxation("antichain", level_conflicts(Antichain(), 3))


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
@given(data=st.data(), n=st.integers(0, 12), ell=st.integers(1, 4))
def test_chain_bound_is_admissible(data, n, ell):
    # A search node: an allowed chosen set below a cut, and as avail some of
    # the levels from the cut up that are compatible with every chosen level,
    # or any mask of levels from the cut up.  The chains of chosen | S are
    # bounded for every allowed S inside avail either way: the proof in
    # _chain_bound needs only that avail lies above the chosen levels, and a
    # mask that is not one run of levels reads the table's first layer on a
    # superset of each level's mask.
    cond = data.draw(conditions_on(n))
    conflicts = level_conflicts(cond, n)
    relax, tables = _relaxation(cond, conflicts)
    cut = data.draw(st.integers(0, n + 1))
    rows, chosen, compatible, sums, total = search_state(data, n, ell, conflicts, cut)
    if data.draw(st.booleans()):
        dropped = data.draw(st.integers(0, (1 << (n + 1)) - 1)) if data.draw(st.booleans()) else 0
        avail = compatible & ~dropped & ~((1 << cut) - 1)
    else:
        avail = data.draw(st.integers(0, (1 << (n + 1)) - 1)) & ~((1 << cut) - 1)

    first = tables(rows)
    assert (first is None) == isinstance(cond, CustomPairwise)
    assert total == count_chains_levels(n, chosen, ell)
    assert _chain_bound(rows, conflicts, relax, first, sums, total, 0) == total
    best = max(
        count_chains_levels(n, chosen + extra, ell)
        for extra in allowed_subsets(avail, conflicts)
    )
    assert _chain_bound(rows, conflicts, relax, first, sums, total, avail) >= best
    assert reference_chain_bound(rows, conflicts, relax, sums, total, avail) >= best


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), ell=st.integers(2, 4))
def test_chain_bound_matches_reference_on_runs(data, n, ell):
    # The named conditions' searches only ever ask for one run of levels
    # [lo, hi) above the chosen ones; there the first layer read from the
    # table equals the per-node relax, so bounds and node counts are unchanged.
    cond = data.draw(st.sampled_from(NAMED_CONDITIONS))
    conflicts = level_conflicts(cond, n)
    relax, tables = _relaxation(cond, conflicts)
    lo = data.draw(st.integers(0, n + 1))
    hi = data.draw(st.integers(lo, n + 1))
    avail = (1 << hi) - (1 << lo)
    rows, _, _, sums, total = search_state(data, n, ell, conflicts, lo)
    assert _chain_bound(rows, conflicts, relax, tables(rows), sums, total, avail) == (
        reference_chain_bound(rows, conflicts, relax, sums, total, avail)
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 14))
def test_suffix_tables_are_the_best_allowed_weights(data, n):
    # first[x][b] is the largest weight rows[b][a] of an allowed subset of the
    # levels of [x, b) that do not conflict with b, for random nonnegative
    # rows; a custom table builds none.
    cond = data.draw(conditions_on(n))
    conflicts = level_conflicts(cond, n)
    rows = [
        data.draw(st.lists(st.integers(0, 10**6), min_size=n + 1, max_size=n + 1))
        for _ in range(n + 1)
    ]
    first = _relaxation(cond, conflicts)[1](rows)
    if isinstance(cond, CustomPairwise):
        assert first is None
        return
    assert len(first) == n + 1
    for x in range(n + 1):
        assert len(first[x]) == n + 1
        for b in range(n + 1):
            mask = ((1 << b) - (1 << x) if x < b else 0) & ~conflicts[b]
            best = max(
                sum(rows[b][a] for a in levels) for levels in allowed_subsets(mask, conflicts)
            )
            assert first[x][b] == best, (cond, x, b)


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


@pytest.mark.parametrize("cond", (*NAMED_CONDITIONS, *seeded_custom_tables()), ids=repr)
def test_single_chains_match_size_bound(cond):
    # At ell = 1 the chain count of a level set is its weight, so the search
    # must return size_bound's value and witness.  For a named condition the
    # root bound must already be that value: the relaxation is exact.  A
    # custom table checks two independent solvers against each other (this
    # search branches on ascending levels, size_bound on the heaviest first),
    # and its clique-cover root bound need only be admissible.
    custom = isinstance(cond, CustomPairwise)
    for n in (cond.n,) if custom else (*range(41), 60, 100, 120):
        expected = size_bound(n, cond)
        result = optimal_levels_for_chains(n, cond, 1)
        assert (result.count, result.levels) == (expected.value, expected.witness), n
        conflicts = level_conflicts(cond, n)
        rows = [binomial_row(h) for h in range(n + 1)]
        relax = _relaxation(cond, conflicts)[0]
        root = _chain_bound(rows, conflicts, relax, None, [], 0, (1 << (n + 1)) - 1)
        assert root >= expected.value, n
        assert custom or root == expected.value, n


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
    # 29 at n=40, ell=2 and 69 at n=100, ell=3.
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=20)
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=28)
    assert optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=29).levels == tuple(
        range(0, 41, 3)
    )
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(100, KatonaGap(3), 3, node_budget=68)
    result = optimal_levels_for_chains(100, KatonaGap(3), 3, node_budget=69)
    assert result.count == count_chains_levels(100, result.levels, 3)
    result = optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=1000)
    assert result.levels == tuple(range(0, 41, 3))
    assert result.count == 1350851351169116164
    result = optimal_levels_for_chains(100, KatonaGap(3), 2, node_budget=1000)
    assert result.levels == tuple(range(0, 101, 3))
    assert result.count == count_chains_levels(100, range(0, 101, 3), 2)


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
