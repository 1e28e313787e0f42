import math
from fractions import Fraction
from itertools import combinations

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
from chainweight.chaincount import _chain_bound, _include


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), ell=st.integers(1, 4))
def test_chain_bound_is_admissible(data, n, ell):
    # A search node: an allowed chosen set below a cut, and as avail some of
    # the levels from the cut up that are compatible with every chosen level.
    cond = data.draw(conditions_on(n))
    conflicts = level_conflicts(cond, n)
    cut = data.draw(st.integers(0, n + 1))
    chosen = []
    compatible = (1 << (n + 1)) - 1
    for h in range(cut):
        if compatible >> h & 1 and data.draw(st.booleans()):
            chosen.append(h)
            compatible &= ~conflicts[h]
    dropped = data.draw(st.integers(0, (1 << (n + 1)) - 1)) if data.draw(st.booleans()) else 0
    avail = compatible & ~dropped & ~((1 << cut) - 1)

    rows = [binomial_row(h) for h in range(n + 1)]
    sums, total = [[0] * (n + 1) for _ in range(ell - 1)], 0
    for h in chosen:
        sums, total = _include(rows, sums, total, h)
    assert total == count_chains_levels(n, chosen, ell)
    assert _chain_bound(rows, conflicts, sums, total, 0) == total
    best = max(
        count_chains_levels(n, chosen + extra, ell)
        for extra in allowed_subsets(avail, conflicts)
    )
    assert _chain_bound(rows, conflicts, sums, total, avail) >= best


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
    # The search at n=40 visits a few thousand nodes; a budget below that
    # raises, and one above it returns the known witness.
    with pytest.raises(SearchBudgetExceeded):
        optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=1000)
    result = optimal_levels_for_chains(40, KatonaGap(3), 2, node_budget=5000)
    assert result.levels == tuple(range(0, 41, 3))
    assert result.count == 1350851351169116164


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
